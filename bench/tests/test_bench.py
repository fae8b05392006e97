"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

W.load_cli()

TINY = W.Size(pool_rows=60, t_runs=8, trials=2000, n_samples=50)


# ---------------------------------------------------------------------------
# self-time arithmetic

def test_covered_merges_overlaps_and_clips():
    assert T.covered(0.0, 10.0, []) == 0.0
    assert T.covered(0.0, 10.0, [(1, 3), (2, 6), (5, 8)]) == 7.0
    assert T.covered(0.0, 10.0, [(2, 4), (2.5, 3)]) == 2.0
    assert T.covered(2.0, 5.0, [(0, 3), (4, 9)]) == 2.0


def test_self_times_on_span_tree_with_overlapping_worker_spans():
    # root in the main thread; "a" nested in the main thread; "b" and "c" from
    # two worker threads overlap each other; "d" is nested in "b"
    spans = [
        ("root", 1, None, 0.0, 10.0),
        ("a", 2, 1, 1.0, 3.0),
        ("b", 3, 1, 2.0, 6.0),
        ("c", 4, 1, 5.0, 8.0),
        ("d", 5, 3, 3.0, 4.0),
        ("d", 6, None, 20.0, 20.5),
    ]
    st = T.self_times(spans)
    # children cover [1, 8]; summing them (2 + 4 + 3) would leave 1.0
    assert st["root"] == (1, 3.0)
    assert st["a"] == (1, 2.0)
    assert st["b"] == (1, 3.0)
    assert st["c"] == (1, 3.0)
    assert st["d"] == (2, 1.5)


# ---------------------------------------------------------------------------
# the tracer on the real package

def _tiny_pool():
    from privaudit.data import Dataset, Schema
    schema = Schema.from_json_dict(W.SCHEMA)
    rows = W.pool_rows(0, 20)
    enc = [[*r[:4], *(c["levels"].index(v) for c, v in zip(W.SCHEMA["columns"][4:], r[4:]))]
           for r in rows]
    return Dataset.from_rows(schema, enc)


def test_tracer_wraps_every_binding_and_restores_them():
    from privaudit import cli, data, shadow
    original = data.encode_record
    lira = cli.ATTACK_FNS["lira"]
    ds = _tiny_pool()
    with T.Tracer() as tr:
        assert shadow.encode_record is not original
        assert cli.ATTACK_FNS["lira"] is not lira
        shadow.dataset_fingerprint(ds)
    m = tr.take()
    assert shadow.encode_record is original and data.encode_record is original
    assert cli.ATTACK_FNS["lira"] is lira
    assert m["data.encode_record.calls"] == len(ds)
    assert m["shadow.dataset_fingerprint.calls"] == 1
    assert m["shadow.dataset_fingerprint.self_s"] >= 0.0
    assert tr.take()["data.encode_record.calls"] == 0


def test_absent_target_is_reported_not_raised():
    targets = (T.Target("data", "no_such_function"), T.Target("no_such_module", "f"),
               T.Target("seeds", "derive_seed"))
    with T.Tracer(targets) as tr:
        from privaudit import seeds
        seeds.derive_seed(1, "x")
    assert tr.absent == ["data.no_such_function", "no_such_module.f"]
    m = tr.take()
    assert m["data.no_such_function.calls"] == 0
    assert m["seeds.derive_seed.calls"] == 1


def test_worker_thread_spans_attach_to_the_main_thread_span():
    from privaudit import seeds

    def outer():
        ts = [threading.Thread(target=seeds.derive_seed, args=(i,)) for i in range(2)]
        for t in ts:
            t.start()
        for t in ts:
            t.join(timeout=30)
            assert not t.is_alive()

    with T.Tracer((T.Target("seeds", "derive_seed"),)) as tr:
        outer_wrapped = tr._wrap("outer", outer, {})
        outer_wrapped()
    by_name = {}
    for name, sid, parent, *_ in tr.spans:
        by_name.setdefault(name, []).append((sid, parent))
    (root, _), = by_name["outer"]
    assert [p for _, p in by_name["seeds.derive_seed"]] == [root, root]


# ---------------------------------------------------------------------------
# ratios and tiny runs of each workload

def test_layer_metrics_ratio_and_overhead(tmp_path):
    wl = W.Workload("attack_lira", 0, tmp_path, TINY)
    layers = [{"data.encode_record.calls": c} for c in (970.0, 980.0, 990.0)]
    m = run.layer_metrics(wl, layers, {0: [1.0, 2.0, 3.0]}, {0: [2.5, 2.5, 2.5]},
                          [10, 10, 10], 0)
    assert m["data.encode_record.calls_per_pool_row"] == 980.0 / (8 * 60)
    assert m["trace.overhead_s"] == 0.5
    assert m["cli.report_bytes"] == 10
    step = W.Workload("step_audit", 0, tmp_path, TINY)
    assert run.layer_metrics(step, layers, {0: [1.0]}, {0: [1.0]}, [1], 0)[
        "data.encode_record.calls_per_pool_row"] == 0.0


def test_per_config_median_weighs_configs_equally():
    assert run.per_config_median({0: [2.0, 1.0, 9.0]}) == 2.0
    assert run.per_config_median({0: [1.0, 2.0, 9.0], 1: [4.0, 4.0]}) == 3.0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_passes_checks(name, tmp_path):
    cli = W.load_cli()
    W.write_inputs(name, 3, tmp_path / "in", TINY)
    wl = W.Workload(name, 3, tmp_path / "in", TINY)
    runner = run.Runner(cli, wl, tmp_path)
    e2e = run.measure(runner, 0.0, trace=False)
    assert runner.failed == 0 and runner.attempted >= run.MIN_OPS
    assert set(e2e) == set(run.END_TO_END) - {"setup_s"}
    layer = run.measure(runner, 0.0, trace=True)
    assert runner.failed == 0
    assert set(layer) >= set(run.PER_LAYER)
    assert layer["trace.absent_targets"] == 0
    assert layer["data.encode_record.calls_per_pool_row"] == (
        layer["data.encode_record.calls"] / wl.run_rows if wl.run_rows else 0.0)
    assert len(wl.digests) == len(wl.configs)
    if name == "step_audit":
        assert layer["audit.eps_lower"] > 0.0


def test_check_rejects_changed_report_bytes(tmp_path):
    cli = W.load_cli()
    W.write_inputs("step_audit", 3, tmp_path / "in", TINY)
    wl = W.Workload("step_audit", 3, tmp_path / "in", TINY)
    op, argv = wl.argv(0, tmp_path / "out")
    assert cli.main(argv) == 0
    wl.check(op, 0, tmp_path / "out")
    with open(tmp_path / "out" / "audit.json", "a") as f:
        f.write(" ")
    with pytest.raises(W.CheckFailed):
        wl.check(op, 0, tmp_path / "out")
    with pytest.raises(W.CheckFailed):
        wl.check(op, 1, tmp_path / "out")


# ---------------------------------------------------------------------------
# contract

def test_benchmark_json_matches_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == W.WHY
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    r = subprocess.run([sys.executable, "bench/run.py", "--workload", "step_audit",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
