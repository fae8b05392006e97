"""Compare two privaudit output directories report by report.

    python3 scripts/report_diff.py A B [--rel 1e-12]
    python3 scripts/report_diff.py --verdicts A B

The reports are the ``*.json`` files, except ``run_info.json``, and the
``*_roc.csv`` files; model files and synthetic data are not compared. Both
directories must hold the same reports. Every JSON field must be equal,
except that a number anywhere under a ``threshold`` key, the threshold of
each (threshold, fpr, tpr) triple of a ``roc_hull`` (or ``roc``) list, and a
cell of a ROC file's ``threshold`` column may differ from the other side's by at most
--rel times the larger magnitude. The first difference is printed; the exit
code is 0 when there is none and 1 otherwise.

With --verdicts only what a verdict rests on is compared, for reports whose
bytes move on purpose: the status, pass flag and claim of each ``audit*.json``
and the attack, run count and operating-point names of each
``attack_*.json``. One line per such report is printed, and the exit code is
1 when any of them differs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def reports(d: Path) -> set[str]:
    """The report file names of an output directory."""
    return {p.name for p in d.iterdir() if p.is_file() and p.name != "run_info.json"
            and (p.suffix == ".json" or p.name.endswith("_roc.csv"))}


def close(a: float, b: float, rel: float) -> bool:
    """a and b equal, or within rel of the larger magnitude."""
    return a == b or (math.isfinite(a) and math.isfinite(b)
                      and abs(a - b) <= rel * max(abs(a), abs(b)))


def is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def keyed(doc):
    """The document with each triple of every roc_hull or roc list as a
    {threshold, fpr, tpr} object, so that its threshold is a number under a
    threshold key."""
    if isinstance(doc, dict):
        return {k: [dict(zip(("threshold", "fpr", "tpr"), r))
                    if isinstance(r, list) and len(r) == 3 else keyed(r) for r in v]
                if k in ("roc_hull", "roc") and isinstance(v, list) else keyed(v)
                for k, v in doc.items()}
    if isinstance(doc, list):
        return [keyed(v) for v in doc]
    return doc


def json_diff(a, b, rel: float, where: str = "", loose: bool = False) -> str | None:
    """The first difference between two parsed JSON values, or None. Under a
    threshold key (loose) numbers need only be close."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return f"{where or '.'}: keys {sorted(a)} != {sorted(b)}"
        for k in a:
            found = json_diff(a[k], b[k], rel, f"{where}.{k}", loose or k == "threshold")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{where}: {len(a)} items != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            found = json_diff(x, y, rel, f"{where}[{i}]", loose)
            if found:
                return found
        return None
    if loose and is_number(a) and is_number(b):
        equal = close(float(a), float(b), rel)
    else:
        equal = type(a) is type(b) and (a == b or a != a and b != b)  # NaN equals NaN
    return None if equal else f"{where}: {a!r} != {b!r}"


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def roc_diff(a: list[list[str]], b: list[list[str]], rel: float) -> str | None:
    """The first difference between two ROC tables, or None: cells equal as
    text, those of the threshold column close as numbers."""
    if len(a) != len(b):
        return f"{len(a) - 1} rows != {len(b) - 1}"
    if a and a[0] != b[0]:
        return f"header {a[0]} != {b[0]}"
    col = a[0].index("threshold") if a and "threshold" in a[0] else None
    for i, (x, y) in enumerate(zip(a[1:], b[1:]), 1):
        for j, (u, v) in enumerate(zip(x, y)):
            if u != v and not (j == col and close(float(u), float(v), rel)):
                return f"row {i}, column {a[0][j]!r}: {u} != {v}"
        if len(x) != len(y):
            return f"row {i}: {len(x)} cells != {len(y)}"
    return None


def diff(a: Path, b: Path, rel: float) -> str | None:
    """The first difference between the reports of two directories, or None."""
    names_a, names_b = reports(a), reports(b)
    if names_a != names_b:
        return f"reports differ: only in {a}: {sorted(names_a - names_b)}, " \
               f"only in {b}: {sorted(names_b - names_a)}"
    for name in sorted(names_a):
        if name.endswith(".json"):
            found = json_diff(*(keyed(json.loads((d / name).read_text())) for d in (a, b)), rel)
        else:
            found = roc_diff(read_csv(a / name), read_csv(b / name), rel)
        if found:
            return f"{name}: {found}"
    return None


def verdict(name: str, doc: dict) -> dict | None:
    """The fields of a report that its verdict rests on, or None for a
    report that holds no verdict."""
    if name.startswith("audit"):
        return {k: doc.get(k) for k in ("status", "passed", "claimed")}
    if name.startswith("attack_"):
        return {"attack": doc.get("attack"), "n_runs": doc.get("n_runs"),
                "operating_points": [p.get("name") for p in doc.get("operating_points", [])]}
    return None


def verdict_diff(a: Path, b: Path) -> bool:
    """Print each verdict report's fields, and both sides' where they differ;
    True when a report or one of its fields differs."""
    names_a, names_b = reports(a), reports(b)
    differs = names_a != names_b
    if differs:
        print(f"reports differ: only in {a}: {sorted(names_a - names_b)}, "
              f"only in {b}: {sorted(names_b - names_a)}")
    for name in sorted(n for n in names_a & names_b if n.endswith(".json")):
        va, vb = (verdict(name, json.loads((d / name).read_text())) for d in (a, b))
        if va is None:
            continue
        line = " ".join(f"{k}={v}" for k, v in va.items())
        if va != vb:
            differs = True
            line += "  !=  " + " ".join(f"{k}={v}" for k, v in vb.items())
        print(f"{name}: {line}")
    return differs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.add_argument("--rel", type=float, default=1e-12,
                   help="largest relative difference of a threshold (default 1e-12)")
    p.add_argument("--verdicts", action="store_true",
                   help="compare only audit verdicts and attack run counts and operating points")
    args = p.parse_args(argv)
    if args.verdicts:
        return 1 if verdict_diff(args.a, args.b) else 0
    found = diff(args.a, args.b, args.rel)
    print(found or f"{len(reports(args.a))} reports match")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
