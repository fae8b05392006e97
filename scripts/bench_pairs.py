"""Paired benchmark runs: a parent revision against this checkout.

    python3 scripts/bench_pairs.py --parent <rev> --workload W --seeds 1-10

The committed files of <rev> are exported (``git archive``) into a temporary
directory outside the repository. Each seed is one pair: ``bench/run.py
--workload W --seed S --trace 0`` runs once in that export and once in this
checkout, and the side that runs first alternates from pair to pair. The
script prints every pair's end-to-end metrics, each side's median and
quartiles, how many pairs the change won, each metric's regression verdict,
and whether the report sha256 values of the two sides match. The export is
removed on exit.

A gain is claimed only when the change wins at least nine tenths of the
pairs (ties count for neither side) and the medians differ by more than the
parent's interquartile range.

The verdict holds a metric to the relative bound BENCHMARK.json sets for
it: "regressed" when the change's median is worse than the parent's by more
than the bound; otherwise "unresolved" when the parent's own interquartile
range is wider than the bound and not every change run beats every parent
run; otherwise "within bound".
"""

from __future__ import annotations

import argparse
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
    iqr = pq[2] - pq[0]
    gap = pq[1] - cq[1]
    holds = wins >= 0.9 * len(parent) and gap > iqr
    judged = "" if bound is None else \
        f"  verdict at bound {bound:g}: {verdict(parent, change, bound)}"
    return (f"{name:<28} parent median {pq[1]:.4g} (q1 {pq[0]:.4g}, q3 {pq[2]:.4g})  "
            f"change median {cq[1]:.4g} (q1 {cq[0]:.4g}, q3 {cq[2]:.4g})  "
            f"change/parent {cq[1] / pq[1]:.3f}  wins {wins}/{len(parent)} "
            f"(losses {losses})  gap {gap:.4g} vs parent IQR {iqr:.4g}  "
            f"gain claimable: {'yes' if holds else 'no'}{judged}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--workload", required=True,
                   help="a workload name bench/run.py accepts, or all")
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                   help="one pair per seed, e.g. 1-10 or 1,3,5 (default 1-10)")
    p.add_argument("--seconds", type=float, default=None,
                   help="run length passed to bench/run.py (default: its own)")
    args = p.parse_args(argv)

    # a terminated run still removes its export
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        export(args.parent, tmp)
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
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
