"""privaudit benchmark: drives the public CLI in-process on generated inputs.

    python3 bench/run.py --workload attack_lira --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # each workload in its own process

One run times set-up in fresh interpreters, then repeats ops (one
``privaudit.cli.main`` call each, a closed loop with one client) for about
``--seconds`` and checks every op's output. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced ops
and reports the per-layer metrics from the traced ones. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

Run from the root of a checkout; it reads and writes only inside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# One process with at most two compute threads (the CLI's two workers), so
# the numbers measure the program and not the scheduler. Set before numpy
# loads; set-up children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = tuple(W.WHY)

SETUP_REPEATS = 3
MIN_OPS = 3

# name -> unit
END_TO_END = {
    "setup_s": "s",        # fresh interpreter: import privaudit.cli, write inputs
    "op_s": "s",           # wall seconds per op (per_config_median)
    "cpu_s": "s",          # CPU seconds per op, all threads and children
    "peak_rss_mb": "MB",   # lifetime peak resident memory of this process
}

# name -> (unit, better); per-op values, median over the traced ops of a run
PER_LAYER = {
    "data.encode.calls": ("count", "lower"),
    "data.encode.self_s": ("s", "lower"),
    "data.encode_record.calls": ("count", "lower"),
    "data.encode_record.self_s": ("s", "lower"),
    "data.encode_record.calls_per_pool_row": ("ratio", "lower"),
    "data.load_csv.self_s": ("s", "lower"),
    "shadow.run_shadow_experiment.self_s": ("s", "lower"),
    "shadow.dataset_fingerprint.calls": ("count", "lower"),
    "shadow.dataset_fingerprint.self_s": ("s", "lower"),
    "shadow.query_features.self_s": ("s", "lower"),
    "dpsgd.train.calls": ("count", "lower"),
    "dpsgd.train.self_s": ("s", "lower"),
    "dpsgd.features_and_labels.self_s": ("s", "lower"),
    "dpsgd.noisy_aggregate.calls": ("count", "lower"),
    "dpsgd.noisy_aggregate.rows": ("count", "lower"),
    "dpsgd.noisy_aggregate.self_s": ("s", "lower"),
    "models.batch_per_sample_gradients.calls": ("count", "lower"),
    "models.batch_per_sample_gradients.rows": ("count", "lower"),
    "models.batch_per_sample_gradients.self_s": ("s", "lower"),
    "models.per_example_loss.calls": ("count", "lower"),
    "synthesizers.fit_marginal.calls": ("count", "lower"),
    "synthesizers.fit_marginal.self_s": ("s", "lower"),
    "synthesizers.sample.calls": ("count", "lower"),
    "synthesizers.sample.rows": ("count", "lower"),
    "synthesizers.sample.self_s": ("s", "lower"),
    "attacks.evaluate.calls": ("count", "lower"),
    "attacks.evaluate.scores": ("count", "lower"),
    "attacks.evaluate.thresholds": ("count", "lower"),
    "attacks.evaluate.self_s": ("s", "lower"),
    "attacks.attack_lira.self_s": ("s", "lower"),
    "attacks.attack_loss_threshold.self_s": ("s", "lower"),
    "attacks.attack_dcr.self_s": ("s", "lower"),
    "attacks.attack_groundhog.self_s": ("s", "lower"),
    "attacks.save_report.self_s": ("s", "lower"),
    "attacks.save_roc_csv.self_s": ("s", "lower"),
    "core_stats.effective_epsilon_lower_bound.calls": ("count", "lower"),
    "core_stats.effective_epsilon_lower_bound.self_s": ("s", "lower"),
    "audit.audit_step_mechanism.trials": ("count", "lower"),
    "audit.audit_step_mechanism.self_s": ("s", "lower"),
    "audit.save_verdict.self_s": ("s", "lower"),
    "audit.eps_lower": ("eps", "higher"),
    "seeds.derive_seed.calls": ("count", "lower"),
    "seeds.derive_seed.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "trace.op_s": ("s", "lower"),
    "trace.untraced_op_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.absent_targets": ("count", "lower"),
}


# ---------------------------------------------------------------------------
# measurement

def _cpu_s() -> float:
    """CPU seconds of this process (all threads) plus waited-for children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


def time_setup(workload: str, seed: int, work: Path) -> tuple[float, Path]:
    """Median wall seconds of SETUP_REPEATS fresh interpreters that each
    import privaudit.cli and write the inputs; returns it and the inputs."""
    times = []
    for i in range(SETUP_REPEATS):
        d = work / f"inputs{i}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(d)],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), d


class Runner:
    """Runs and checks ops of one workload, counting attempts and failures."""

    def __init__(self, cli, wl: W.Workload, work: Path):
        self.cli, self.wl, self.work = cli, wl, work
        self.attempted = self.failed = 0

    def op(self, k: int, tracer: Tracer | None = None):
        """One op; returns (wall s, cpu s, report bytes), or None if it failed."""
        out = self.work / f"op{self.attempted}"
        op, argv = self.wl.argv(k, out)
        self.attempted += 1
        sink = io.StringIO()
        gc.collect()  # the previous op's garbage is not this op's cost
        try:
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(tracer)
                stack.enter_context(contextlib.redirect_stdout(sink))
                t0, c0 = time.perf_counter(), _cpu_s()
                code = self.cli.main(argv)
                wall, cpu = time.perf_counter() - t0, _cpu_s() - c0
            nbytes = self.wl.check(op, code, out)
        except Exception:  # any error is a failed op; keep measuring
            self.failed += 1
            print(f"op {self.attempted} ({op.name}) failed:", file=sys.stderr)
            traceback.print_exc()
            sys.stderr.write(sink.getvalue())
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return wall, cpu, nbytes


def measure(runner: Runner, seconds: float, trace: bool) -> dict[str, float]:
    """Repeat rounds (one op per config; untraced then traced with trace)
    until the next round would end past ``seconds``, at least MIN_OPS ops."""
    n_cfg = len(runner.wl.configs)
    walls, cpus, traced = defaultdict(list), defaultdict(list), defaultdict(list)
    layers, nbytes = [], []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    rounds = 0
    while True:
        t_round = time.perf_counter()
        for c in range(n_cfg):
            k = rounds * n_cfg + c
            r = runner.op(k)
            if r is not None:
                walls[c].append(r[0])
                cpus[c].append(r[1])
            if trace:
                r = runner.op(k, tracer)
                layer = tracer.take()
                if r is not None:
                    traced[c].append(r[0])
                    nbytes.append(r[2])
                    layers.append(layer)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds * n_cfg >= MIN_OPS and elapsed + (time.perf_counter() - t_round) > seconds:
            break
    if not walls or (trace and not layers):
        return {}
    for c, v in sorted(walls.items()):
        print(f"op wall s, {runner.wl.configs[c].name} ({len(v)} untraced ops): "
              + " ".join(f"{w:.3f}" for w in v))
    if not trace:
        return {
            "op_s": per_config_median(walls),
            "cpu_s": per_config_median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if tracer.absent:
        print("absent trace targets: " + ", ".join(tracer.absent))
    return layer_metrics(runner.wl, layers, walls, traced, nbytes, len(tracer.absent))


def per_config_median(samples: dict[int, list[float]]) -> float:
    """Mean over configs of each config's median, so that configs of unequal
    cost (the two step-audit modes) weigh equally whatever the op count."""
    return statistics.fmean(statistics.median(v) for v in samples.values())


def layer_metrics(wl: W.Workload, layers: list[dict], untraced: dict[int, list[float]],
                  traced: dict[int, list[float]], nbytes: list[int],
                  absent: int) -> dict[str, float]:
    """Per-layer metrics: the median over traced ops of each tracer value,
    plus ratios and the tracing overhead (traced minus untraced op_s)."""
    out = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    out["data.encode_record.calls_per_pool_row"] = (
        out["data.encode_record.calls"] / wl.run_rows if wl.run_rows else 0.0)
    out["audit.eps_lower"] = wl.eps_lower or 0.0
    out["cli.report_bytes"] = statistics.median(nbytes)
    out["trace.op_s"] = per_config_median(traced)
    out["trace.untraced_op_s"] = per_config_median(untraced)
    out["trace.overhead_s"] = out["trace.op_s"] - out["trace.untraced_op_s"]
    out["trace.absent_targets"] = absent
    return out


# ---------------------------------------------------------------------------
# provenance and output

def provenance() -> dict:
    import numpy
    import scipy

    sha = None
    if (W.ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(W.ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
        sha = r.stdout.strip() or None
    h = hashlib.sha256()
    for p in sorted(W.SRC.rglob("*.py")):
        h.update(p.relative_to(W.SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": h.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics}, sort_keys=True)


def run_one(args) -> int:
    cli = W.load_cli()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({W.WHY[args.workload]})")
    work = W.ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        metrics: dict[str, float] = {}
        if not args.trace:
            metrics["setup_s"], inputs = time_setup(args.workload, args.seed, work)
        else:
            inputs = work / "inputs"
            W.write_inputs(args.workload, args.seed, inputs)
        wl = W.Workload(args.workload, args.seed, inputs)
        runner = Runner(cli, wl, work)
        metrics.update(measure(runner, args.seconds, bool(args.trace)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("provenance " + json.dumps(provenance(), sort_keys=True))
    for name, digest in sorted(wl.digests.items()):
        print(f"report sha256 {name} {digest}")
    names = PER_LAYER if args.trace else END_TO_END
    units = {k: (v[0] if args.trace else v) for k, v in names.items()}
    complete = set(metrics) >= set(names)
    out = {k: {"value": metrics[k], "unit": units[k]} for k in names if k in metrics}
    for k, m in out.items():
        print(f"  {k:<48} {m['value']:.6g} {m['unit']}")
    fail_rate = runner.failed / runner.attempted
    print(f"  {'fail_rate':<48} {fail_rate:.6g} ({runner.failed}/{runner.attempted} ops)")
    correct = runner.failed == 0 and complete
    print(_result(correct, runner.attempted, runner.failed, out))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so that peak RSS and import state
    do not leak between them; prints each child's lines and a merged result."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(r.stderr)
        lines = r.stdout.splitlines()
        if r.returncode != 0 or not lines:
            print(f"workload {name} exited with {r.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        merged.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(_result(correct, attempted, failed, merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except W.SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
