import importlib.util
import signal
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]  # IQR 2%
WIDE = [0.70, 1.30, 0.80, 1.20, 1.00, 0.75, 1.25, 0.90, 1.10, 1.00]   # IQR ~46%


def shifted(runs, by):
    return [r * by for r in runs]


@pytest.mark.parametrize("parent, change, want", [
    (TIGHT, shifted(TIGHT, 1.30), "regressed"),
    (TIGHT, shifted(TIGHT, 1.20), "within bound"),
    (TIGHT, shifted(TIGHT, 0.80), "within bound"),
    # a median worse beyond the bound regresses, however wide the spread
    (WIDE, shifted(WIDE, 1.30), "regressed"),
    (WIDE, WIDE, "unresolved"),
    (WIDE, shifted(WIDE, 0.90), "unresolved"),
    # a wide parent spread is resolved when every change run beats every parent run
    (WIDE, shifted(WIDE, 0.50), "within bound"),
    ([0.266] * 3, [0.341] * 3, "regressed"),  # +28% against a 25% bound
])
def test_verdict(parent, change, want):
    assert bench_pairs.verdict(parent, change, 0.25) == want


def test_every_end_to_end_metric_has_its_bound_and_verdict():
    limits = bench_pairs.bounds()
    assert limits == {"setup_s": 0.25, "op_s": 0.25, "cpu_s": 0.25, "peak_rss_mb": 0.05}
    line = bench_pairs.summarize("peak_rss_mb", TIGHT, shifted(TIGHT, 1.06), limits["peak_rss_mb"])
    assert line.endswith("verdict at bound 0.05: regressed")
    assert "verdict" not in bench_pairs.summarize("op_s", TIGHT, TIGHT)


def test_summary_prints_the_quartiles_of_the_paired_ratios():
    # pairs 6-9 ran on a host 50% slower: each side's spread widens and the
    # gain rule cannot tell, but every pair's ratio stays 0.8
    parent = TIGHT[:6] + shifted(TIGHT[6:], 1.5)
    line = bench_pairs.summarize("op_s", parent, shifted(parent, 0.8))
    assert "(paired q1 0.800, median 0.800, q3 0.800)  wins 10/10" in line
    assert line.endswith("gain claimable: no")
    line = bench_pairs.summarize("op_s", [1.0, 2.0, 4.0, 1.0], [0.5, 2.0, 6.0, 1.1])
    assert "(paired q1 0.625, median 1.050, q3 1.400)" in line


def test_interleave_runs_both_trees_in_one_process(monkeypatch, capsys):
    # both sides from this checkout, under the two package names, on a
    # small attack: every op is checked, and equal trees give equal reports
    monkeypatch.syspath_prepend(str(bench_pairs.ROOT / "bench"))
    import workloads

    src = bench_pairs.ROOT / "src"
    small = workloads.Size(pool_rows=200, t_runs=16)
    result = bench_pairs.interleave(src, "attack_lira", 3, 3, size=small)
    out = capsys.readouterr().out
    assert [line.split()[2] for line in out.splitlines() if line.startswith("pair ")] == \
        ["parent", "change", "parent"]
    assert "3 interleaved pairs" in out and result["digests_equal"]
    assert result["op_s"] > 0 and result["cpu_s"] > 0
    assert [len(result[side][m]) for side in ("parent", "change") for m in ("op_s", "cpu_s")] \
        == [3] * 4
    for side in ("parent", "change"):
        cli = sys.modules[f"privaudit_{side}.cli"]
        assert Path(cli.__file__).resolve().is_relative_to(src)
        assert sys.modules[f"privaudit_{side}.dpsgd"] is not sys.modules.get("privaudit.dpsgd")


def interleaved(op_s=0.5, digests_equal=True, parent=TIGHT, change=None):
    """An interleave result: each side's times per pair and the ratios."""
    change = shifted(TIGHT, 0.5) if change is None else change
    return {"op_s": op_s, "cpu_s": 0.6, "digests_equal": digests_equal,
            "parent": {"op_s": parent, "cpu_s": parent},
            "change": {"op_s": change, "cpu_s": shifted(parent, 0.6)}}


def test_interleave_runs_every_seed(monkeypatch, capsys):
    calls = []

    def fake_interleave(src, name, seed, pairs):
        calls.append((name, seed, pairs))
        return interleaved(op_s=0.5 + seed / 100, digests_equal=seed != 4)

    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "interleave", fake_interleave)
    # one seed's report bytes differ: exit 1
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "marginal_attack",
                             "--interleave", "3", "--seeds", "1,4-5"]) == 1
    assert calls == [("marginal_attack", seed, 3) for seed in (1, 4, 5)]
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("seed ")]
    assert lines == [
        "seed 1    median paired change/parent op_s 0.510, cpu_s 0.600; report bytes equal: yes",
        "seed 4    median paired change/parent op_s 0.540, cpu_s 0.600; report bytes equal: no",
        "seed 5    median paired change/parent op_s 0.550, cpu_s 0.600; report bytes equal: yes",
    ]


@pytest.mark.parametrize("change, verdict", [
    (shifted(TIGHT, 0.5), "wins 10/10 (losses 0)  gap 0.5 vs parent IQR 0.02  "
                          "gain claimable: yes"),
    # every pair won, but by less than the parent's spread
    (shifted(TIGHT, 0.995), "wins 10/10 (losses 0)  gap 0.005 vs parent IQR 0.02  "
                            "gain claimable: no"),
    # a median far better, but two pairs lost
    ([0.5] * 8 + [1.5, 1.5], "wins 8/10 (losses 2)  gap 0.5 vs parent IQR 0.02  "
                             "gain claimable: no"),
])
def test_interleave_prints_each_seeds_gain_verdict(monkeypatch, capsys, change, verdict):
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "interleave",
                        lambda src, name, seed, pairs: interleaved(change=change))
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "marginal_attack",
                             "--interleave", "10", "--seeds", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    at = out.index("seed 2    median paired change/parent op_s 0.500, cpu_s 0.600; "
                   "report bytes equal: yes")
    assert out[at + 1].startswith("  op_s ") and out[at + 1].endswith(verdict)
    assert out[at + 2].startswith("  cpu_s ") and out[at + 2].endswith("gain claimable: yes")


@pytest.mark.parametrize("differ, code", [(False, 0), (True, 1)])
def test_separate_runs_exit_1_on_a_report_byte_difference(monkeypatch, capsys, differ, code):
    def fake_run_bench(root, workload, seed, seconds):
        side = "parent" if root != bench_pairs.ROOT else "change"
        digest = "b" if differ and side == "change" and seed == 3 else "a"
        return {"metrics": {"op_s": 1.0}, "failed": 0,
                "digests": [["marginal", digest]]}

    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    assert bench_pairs.main(["--parent", "HEAD", "--workload", "marginal_attack",
                             "--seeds", "1-4"]) == code
    out = capsys.readouterr().out
    assert f"report sha256 equal in every pair: {'no' if differ else 'yes'}" in out
    assert ("  seed 3: parent [['marginal', 'a']] change [['marginal', 'b']]" in out) == differ


@pytest.mark.parametrize("fails", [False, True])
def test_main_restores_the_callers_sigterm_handler(monkeypatch, fails):
    def fake_interleave(src, name, seed, pairs):
        if fails:
            raise RuntimeError("op failed")
        return interleaved()

    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: None)
    monkeypatch.setattr(bench_pairs, "interleave", fake_interleave)
    before = signal.getsignal(signal.SIGTERM)
    argv = ["--parent", "HEAD", "--workload", "marginal_attack", "--interleave", "1",
            "--seeds", "1"]
    if fails:
        with pytest.raises(RuntimeError, match="op failed"):
            bench_pairs.main(argv)
    else:
        assert bench_pairs.main(argv) == 0
    assert signal.getsignal(signal.SIGTERM) is before
