"""Benchmark workloads: inputs generated from a seed, the CLI calls, and checks.

Each workload is a list of op configs. One op is one in-process call of
``privaudit.cli.main``; ops cycle through the configs. Every op's output is
checked: the exit code, that each report parses, workload-specific claims, and
that report bytes repeat exactly across the ops of one config within a run.

Run as a script (``python3 bench/workloads.py WORKLOAD SEED DIR``) it imports
``privaudit.cli`` and writes the workload's inputs into DIR; the benchmark
times that as its set-up.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Size:
    pool_rows: int = 2000
    t_runs: int = 128
    trials: int = 20_000     # step-audit trials per op
    n_samples: int = 1000    # synthetic rows per marginal run


FULL = Size()

# one line per workload: why the benchmark has it (mirrored in BENCHMARK.json)
WHY = {
    "attack_lira": "shadow-harness path: encoding, fingerprints, DP-SGD training "
                   "and per-sample gradients over 128 runs; evaluate sees few scores",
    "step_audit": "no data or model: the per-trial audit loop, noisy_aggregate and "
                  "evaluate over ~20k distinct thresholds do the work",
    "marginal_attack": "generative path without DP-SGD: 128k synthetic rows built "
                       "then read column by column by DCR and groundhog",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no source tree)."""


def load_cli():
    """Import ``privaudit.cli`` from this checkout's ``src`` and return it."""
    if not (SRC / "privaudit" / "cli.py").is_file():
        raise SetupError(f"no privaudit source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("privaudit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"privaudit.cli imported from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# inputs

SCHEMA = {"columns": [
    {"name": "age", "kind": "numeric", "min": 18.0, "max": 90.0},
    {"name": "income", "kind": "numeric", "min": 0.0, "max": 200000.0},
    {"name": "hours", "kind": "numeric", "min": 0.0, "max": 80.0},
    {"name": "score", "kind": "numeric", "min": -5.0, "max": 5.0},
    {"name": "region", "kind": "categorical", "levels": ["n", "e", "s", "w"]},
    {"name": "plan", "kind": "categorical", "levels": ["basic", "plus", "pro"]},
    {"name": "y", "kind": "categorical", "levels": ["no", "yes"]},
]}


def pool_rows(seed: int, n: int) -> list[list]:
    """n records with a label that depends on the features, so the model
    has something to learn. Same seed, same rows."""
    rng = np.random.default_rng([seed, 0x9E3779B9])
    u = rng.random((n, 4))
    region = rng.integers(0, 4, n)
    plan = rng.choice(3, size=n, p=[0.6, 0.3, 0.1])
    logit = 2.5 * u[:, 0] - 2.0 * u[:, 1] + 1.5 * u[:, 3] + 0.5 * plan - 1.0
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
    lo = np.array([18.0, 0.0, 0.0, -5.0])
    hi = np.array([90.0, 200000.0, 80.0, 5.0])
    x = lo + u * (hi - lo)
    levels = [c.get("levels") for c in SCHEMA["columns"]]
    return [
        [*(float(v) for v in x[i]), levels[4][region[i]], levels[5][plan[i]],
         levels[6][int(y[i])]]
        for i in range(n)
    ]


def _dpsgd(**over) -> dict:
    doc = {"clip_norm": 1.0, "noise_multiplier": 1.0, "sample_rate": 0.05,
           "steps": 40, "learning_rate": 1.0}
    doc.update(over)
    return doc


@dataclass(frozen=True)
class OpConfig:
    name: str
    argv: tuple[str, ...]   # CLI arguments without --out
    expect_exit: int
    config: dict


def _op_configs(workload: str, seed: int, d: Path, size: Size) -> list[OpConfig]:
    data = {"schema": str(d / "schema.json"), "dataset": str(d / "pool.csv"),
            "master_seed": seed}
    if workload == "attack_lira":
        cfg = {**data,
               "trainer": {"kind": "predictive", "label_column": "y",
                           "model_kind": "mlp", "hidden_dim": 16, "dpsgd": _dpsgd()},
               "attack": {"attacks": ["loss_threshold", "lira"], "t_runs": size.t_runs}}
        return [OpConfig("lira", ("attack", "--workers", "2"), 0, cfg)]
    if workload == "marginal_attack":
        cfg = {**data,
               "trainer": {"kind": "marginal", "noise_std": 2.0},
               "attack": {"attacks": ["dcr", "groundhog"], "t_runs": size.t_runs,
                          "n_samples": size.n_samples}}
        return [OpConfig("marginal", ("attack", "--workers", "2"), 0, cfg)]
    if workload == "step_audit":
        out = []
        for bug, code in (("none", 0), ("no_per_sample_clipping", 1)):
            cfg = {"master_seed": seed,
                   "trainer": {"dpsgd": _dpsgd(sample_rate=1.0, steps=1, bug_mode=bug)},
                   "audit": {"mode": "step_mechanism", "trials": size.trials}}
            out.append(OpConfig(bug, ("audit",), code, cfg))
        return out
    raise KeyError(workload)


def write_inputs(workload: str, seed: int, d: Path, size: Size = FULL) -> None:
    """Write the workload's schema, pool and op configs into d."""
    d.mkdir(parents=True, exist_ok=True)
    if workload != "step_audit":
        (d / "schema.json").write_text(json.dumps(SCHEMA))
        with open(d / "pool.csv", "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow([c["name"] for c in SCHEMA["columns"]])
            w.writerows(pool_rows(seed, size.pool_rows))
    for op in _op_configs(workload, seed, d, size):
        (d / f"{op.name}.json").write_text(json.dumps(op.config, sort_keys=True))


# ---------------------------------------------------------------------------
# ops and checks

class CheckFailed(AssertionError):
    pass


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


class Workload:
    """The ops of one workload over inputs already written to ``inputs``.

    Keeps, per config, the sha256 of the first op's report bytes; every later
    op of that config must reproduce them.
    """

    def __init__(self, name: str, seed: int, inputs: Path, size: Size = FULL):
        if name not in WHY:
            raise KeyError(name)
        self.size = size
        self.configs = _op_configs(name, seed, inputs, size)
        self.inputs = inputs
        self.digests: dict[str, str] = {}
        self.eps_lower: float | None = None
        # shadow runs x pool rows of one op, the base of calls_per_pool_row
        self.run_rows = 0 if name == "step_audit" else size.t_runs * size.pool_rows

    def argv(self, k: int, out: Path) -> tuple[OpConfig, list[str]]:
        op = self.configs[k % len(self.configs)]
        cfg = str(self.inputs / f"{op.name}.json")
        return op, [op.argv[0], "--config", cfg, *op.argv[1:], "--out", str(out)]

    def check(self, op: OpConfig, code: int, out: Path) -> int:
        """Check one op's outputs; return the bytes it wrote. Raises
        CheckFailed on any wrong output."""
        _check(code == op.expect_exit,
               f"{op.name}: exit code {code}, expected {op.expect_exit}")
        files = sorted(p for p in out.iterdir() if p.is_file())
        _check(bool(files), f"{op.name}: no output files")
        docs = {}
        for p in files:
            if p.suffix == ".json":
                try:
                    docs[p.name] = json.loads(p.read_text())
                except json.JSONDecodeError as e:
                    raise CheckFailed(f"{op.name}: {p.name} does not parse: {e}") from e
            elif p.suffix == ".csv":
                _check_roc_csv(p)
        if op.argv[0] == "attack":
            names = op.config["attack"]["attacks"]
            for a in names:
                _check(f"attack_{a}.json" in docs and (out / f"attack_{a}_roc.csv").is_file(),
                       f"{op.name}: missing report for {a}")
                rep = docs[f"attack_{a}.json"]
                _check(rep["attack"] == a and 0.0 <= rep["auc"] <= 1.0,
                       f"{op.name}: bad report header for {a}")
                _check(len(rep["operating_points"]) == 3, f"{op.name}: operating points")
        else:
            v = docs.get("audit.json")
            _check(v is not None, f"{op.name}: no audit.json")
            _check(v["trials"] == self.size.trials, f"{op.name}: trials {v['trials']}")
            eps, claimed = v["measured_lower_bound"], v["claimed"]["epsilon"]
            _check(isinstance(eps, float) and math.isfinite(eps),
                   f"{op.name}: eps_lower {eps!r}")
            if op.expect_exit == 0:
                _check(eps <= claimed, f"{op.name}: eps_lower {eps} > claimed {claimed}")
            else:
                _check(eps > claimed, f"{op.name}: bug not detected ({eps} <= {claimed})")
                self.eps_lower = v["operating_point"]["eps_lower"]
        digest = report_digest(out)
        first = self.digests.setdefault(op.name, digest)
        _check(digest == first, f"{op.name}: report bytes differ from the first op's")
        return sum(p.stat().st_size for p in files)


def _check_roc_csv(path: Path) -> None:
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    _check(rows and rows[0] == ["threshold", "fpr", "tpr"], f"{path.name}: header")
    for r in rows[1:]:
        _check(len(r) == 3, f"{path.name}: row {r}")
        _, fpr, tpr = (float(v) for v in r)
        _check(0.0 <= fpr <= 1.0 and 0.0 <= tpr <= 1.0, f"{path.name}: rates {r}")


def report_digest(out: Path) -> str:
    """sha256 over the report files' names and bytes. run_info.json carries a
    timestamp by design and is left out."""
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        if p.is_file() and p.name != "run_info.json":
            h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    load_cli()
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
