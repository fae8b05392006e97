"""Paired benchmark runs: a parent revision against this checkout.

    python3 scripts/bench_pairs.py --parent <rev> --workload W --seeds 1-10
    python3 scripts/bench_pairs.py --parent <rev> --workload W --interleave 16

The committed files of <rev> are exported (``git archive``) into a temporary
directory outside the repository. Each seed is one pair: ``bench/run.py
--workload W --seed S --trace 0`` runs once in that export and once in this
checkout, and the side that runs first alternates from pair to pair. The
script prints every pair's end-to-end metrics, each side's median and
quartiles, the quartiles of the pairs' change/parent ratios, how many pairs
the change won, each metric's regression verdict, and whether the report
sha256 values of the two sides match. The export is removed on exit.

With ``--interleave N`` the script instead imports the export's
``privaudit`` and this checkout's, under two package names, into its own
process and, for each seed in turn, writes the workload's inputs once and
runs N pairs of ``cli.main`` ops, one op of each side per pair, the side that
runs first alternating. It prints each pair's wall and CPU seconds, and per
seed the median paired change/parent ratios of ``op_s`` and ``cpu_s``, each
metric's quartiles, paired-ratio quartiles, wins, losses and gain verdict
over the seed's pairs, and whether the two sides' reports are
byte-identical. Separate runs, minutes apart, cannot cancel a drift in the
host's speed; ops a second apart in one process can. A drift that slows
both ops of some pairs widens each side's interquartile range but leaves
those pairs' ratios where they were, so the ratio quartiles show a change
that the gain rule, on the sides' medians and the parent's spread, cannot
resolve.

A gain is claimed only when the change wins at least nine tenths of the
pairs (ties count for neither side) and the medians differ by more than the
parent's interquartile range. In either mode the script exits 1 when the
two sides' report bytes differ in any pair or seed, and 0 otherwise.

The verdict holds a metric to the relative bound BENCHMARK.json sets for
it: "regressed" when the change's median is worse than the parent's by more
than the bound; otherwise "unresolved" when the parent's own interquartile
range is wider than the bound and not every change run beats every parent
run; otherwise "within bound".
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    """'1-10' or '1,4,7' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def export(rev: str, into: Path) -> None:
    """The files committed at rev, written under into."""
    archive = into / "rev.tar"
    with open(archive, "wb") as f:
        subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                       stdout=f, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()


def run_bench(root: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """One benchmark run in root: its metrics, failed op count and digests."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    r = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=1800)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise RuntimeError(f"bench/run.py exited with {r.returncode} in {root}")
    result = json.loads(lines[-1])
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "failed": result["failed"],
        "digests": sorted(line.split(maxsplit=3)[2:] for line in lines
                          if line.startswith("report sha256 ")),
    }


def bounds() -> dict[str, float]:
    """Each end-to-end metric's relative regression bound in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3 of the runs."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def verdict(parent: list[float], change: list[float], bound: float) -> str:
    """The regression verdict of a lower-is-better metric against its
    relative bound, as the module docstring defines it."""
    pq = quartiles(parent)
    if quartiles(change)[1] - pq[1] > bound * pq[1]:
        return "regressed"
    if pq[2] - pq[0] > bound * pq[1] and max(change) >= min(parent):
        return "unresolved"
    return "within bound"


def summarize(name: str, parent: list[float], change: list[float],
              bound: float | None = None) -> str:
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    rq = quartiles([c / p for p, c in zip(parent, change)])
    iqr = pq[2] - pq[0]
    gap = pq[1] - cq[1]
    holds = wins >= 0.9 * len(parent) and gap > iqr
    judged = "" if bound is None else \
        f"  verdict at bound {bound:g}: {verdict(parent, change, bound)}"
    return (f"{name:<28} parent median {pq[1]:.4g} (q1 {pq[0]:.4g}, q3 {pq[2]:.4g})  "
            f"change median {cq[1]:.4g} (q1 {cq[0]:.4g}, q3 {cq[2]:.4g})  "
            f"change/parent {cq[1] / pq[1]:.3f} (paired q1 {rq[0]:.3f}, median {rq[1]:.3f}, "
            f"q3 {rq[2]:.3f})  wins {wins}/{len(parent)} "
            f"(losses {losses})  gap {gap:.4g} vs parent IQR {iqr:.4g}  "
            f"gain claimable: {'yes' if holds else 'no'}{judged}")


def load_tree_cli(src: Path, name: str):
    """The ``privaudit.cli`` of the source tree src, imported with the
    package named name, so that two trees' packages live in one process."""
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    init = src / "privaudit" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def load_bench():
    """This checkout's bench/run.py as a module; importing it limits numpy's
    compute threads as a benchmark run does, if numpy has not loaded yet."""
    bench = ROOT / "bench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def interleave(parent_src: Path, name: str, seed: int, pairs: int, size=None) -> dict:
    """pairs interleaved ops of the workload name on the parent tree's
    privaudit and this checkout's, in this process, each op timed and
    checked by the benchmark's Runner; prints every pair and returns each
    side's op_s and cpu_s per pair ("parent", "change"), the median paired
    change/parent ratios of op_s and cpu_s, and whether the two sides'
    report digests are equal."""
    bench = load_bench()
    size = size or bench.W.FULL
    clis = {"parent": load_tree_cli(parent_src, "privaudit_parent"),
            "change": load_tree_cli(ROOT / "src", "privaudit_change")}
    tmp = Path(tempfile.mkdtemp(prefix="bench-interleave-"))
    try:
        bench.W.write_inputs(name, seed, tmp / "inputs", size)
        runners = {}
        for side, cli in clis.items():
            (tmp / side).mkdir()
            workload = bench.W.Workload(name, seed, tmp / "inputs", size)
            runners[side] = bench.Runner(cli, workload, tmp / side)
        sides = {side: {"op_s": [], "cpu_s": []} for side in clis}
        for k in range(pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            times = {side: runners[side].op(k) for side in order}
            if None in times.values():
                raise RuntimeError(f"pair {k}: an op failed")
            for side, (wall, cpu, _) in times.items():
                sides[side]["op_s"].append(wall)
                sides[side]["cpu_s"].append(cpu)
            (pw, pc, _), (cw, cc, _) = times["parent"], times["change"]
            print(f"pair {k:<3} {order[0]} first  op_s {pw:.4g} -> {cw:.4g}  "
                  f"cpu_s {pc:.4g} -> {cc:.4g}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {m: statistics.median(c / p for p, c in zip(sides["parent"][m], sides["change"][m]))
              for m in ("op_s", "cpu_s")}
    result.update(sides)
    result["digests_equal"] = runners["parent"].wl.digests == runners["change"].wl.digests
    print(f"\n{name}, {pairs} interleaved pairs, seed {seed}: median paired change/parent "
          f"op_s {result['op_s']:.3f}, cpu_s {result['cpu_s']:.3f}; report bytes equal: "
          f"{'yes' if result['digests_equal'] else 'no'}")
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True,
                   help="a workload name bench/run.py accepts, or all")
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                   help="one pair per seed, e.g. 1-10 or 1,3,5 (default 1-10)")
    p.add_argument("--seconds", type=float, default=None,
                   help="run length passed to bench/run.py (default: its own)")
    p.add_argument("--interleave", type=int, default=None, metavar="N",
                   help="alternate N pairs of ops of both trees in this process, "
                        "on each seed, instead of paired benchmark runs")
    args = p.parse_args(argv)
    if args.interleave is not None and (args.interleave < 1 or args.workload == "all"):
        p.error("--interleave needs N >= 1 and one workload")

    # a terminated run still removes its export; the caller's handler comes
    # back on return, so an in-process caller does not keep this one
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        export(args.parent, tmp)
        if args.interleave is not None:
            results = {seed: interleave(tmp / "tree" / "src", args.workload, seed,
                                        args.interleave)
                       for seed in args.seeds}
            print(f"\n{args.workload}, {args.interleave} interleaved pairs per seed, "
                  f"parent {args.parent}")
            for seed, r in results.items():
                print(f"seed {seed:<4} median paired change/parent op_s {r['op_s']:.3f}, "
                      f"cpu_s {r['cpu_s']:.3f}; report bytes equal: "
                      f"{'yes' if r['digests_equal'] else 'no'}")
                for m in ("op_s", "cpu_s"):
                    print("  " + summarize(m, r["parent"][m], r["change"][m]))
            return 0 if all(r["digests_equal"] for r in results.values()) else 1
        sides = {"parent": tmp / "tree", "change": ROOT}
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_bench(sides[side], args.workload, seed, args.seconds))
            # end-to-end metrics, lower is better for each; prefixed by the
            # workload under --workload all
            pm, cm = runs["parent"][-1]["metrics"], runs["change"][-1]["metrics"]
            print(f"seed {seed:<4} {order[0]} first  " + "  ".join(
                f"{m} {pm[m]:.4g} -> {cm[m]:.4g}" for m in sorted(pm)), flush=True)

        print(f"\n{args.workload}, {len(args.seeds)} pairs, parent {args.parent}")
        limits = bounds()
        for m in sorted(runs["parent"][0]["metrics"]):
            # under --workload all a name is prefixed by its workload
            print(summarize(m, [r["metrics"][m] for r in runs["parent"]],
                            [r["metrics"][m] for r in runs["change"]],
                            limits.get(m.rpartition(".")[2])))
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        print(f"failed ops: parent {failed['parent']}, change {failed['change']}")
        same = all(a["digests"] == b["digests"]
                   for a, b in zip(runs["parent"], runs["change"]))
        print(f"report sha256 equal in every pair: {'yes' if same else 'no'}")
        for seed, a, b in zip(args.seeds, runs["parent"], runs["change"]):
            if a["digests"] != b["digests"]:
                print(f"  seed {seed}: parent {a['digests']} change {b['digests']}")
        return 0 if same else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
