import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "report_diff.py"
spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
report_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_diff)

REPORT = {
    "attack": "lira", "auc": 0.5458984375, "n_runs": 64,
    "operating_points": [{"name": "median", "threshold": -0.05942211331985811,
                          "fpr": 0.46875, "tpr": 0.53125, "counts": {"tp": 17, "fp": 15}}],
    "roc_hull": [["unbounded", 0.0, 0.0], [0.7554265369513913, 0.03125, 0.0]],
}
ROC = "threshold,fpr,tpr\ninf,0.0,0.0\n0.7554265369513913,0.03125,0.0\n"


def outputs(d: Path, report=REPORT, roc=ROC, run_info=None, extra=()) -> Path:
    d.mkdir()
    (d / "attack_lira.json").write_text(json.dumps(report))
    (d / "attack_lira_roc.csv").write_text(roc)
    (d / "run_info.json").write_text(json.dumps(run_info or {"argv": [str(d)]}))
    (d / "model.params").write_bytes(bytes(extra))
    return d


def changed(**fields):
    doc = json.loads(json.dumps(REPORT))
    for path, value in fields.items():
        *keys, last = path.split(".")
        node = doc
        for k in keys:
            node = node[int(k)] if k.isdigit() else node[k]
        node[int(last) if last.isdigit() else last] = value
    return doc


def run(a, b, *args, capsys):
    code = report_diff.main([str(a), str(b), *args])
    return code, capsys.readouterr().out.strip()


def test_identical_reports_match_whatever_run_info_and_models_say(tmp_path, capsys):
    a = outputs(tmp_path / "a")
    b = outputs(tmp_path / "b", run_info={"argv": ["other"]}, extra=b"\x01")
    assert run(a, b, capsys=capsys) == (0, "2 reports match")


@pytest.mark.parametrize("field, value", [
    ("operating_points.0.threshold", -0.05942211331985828),
    ("roc_hull.1.0", 0.7554265369513915),
])
def test_thresholds_may_move_within_rel(tmp_path, capsys, field, value):
    a = outputs(tmp_path / "a")
    b = outputs(tmp_path / "b", report=changed(**{field: value}))
    assert run(a, b, capsys=capsys)[0] == 0
    code, out = run(a, b, "--rel", "1e-16", capsys=capsys)
    assert code == 1 and out.startswith("attack_lira.json: ") and repr(value) in out


@pytest.mark.parametrize("field, value, where", [
    ("auc", 0.5458984376, ".auc"),
    ("operating_points.0.fpr", 0.46875000000000006, ".operating_points[0].fpr"),
    ("operating_points.0.counts.tp", 18, ".operating_points[0].counts.tp"),
    ("operating_points.0.threshold", -0.0595, ".operating_points[0].threshold"),
    ("operating_points.0.threshold", "-0.05942211331985811", ".operating_points[0].threshold"),
    ("roc_hull.1.1", 0.03125000000000001, ".roc_hull[1].fpr"),
    ("roc_hull.0.0", 1e300, ".roc_hull[0].threshold"),
    ("n_runs", 64.0, ".n_runs"),
])
def test_any_other_change_is_the_first_difference(tmp_path, capsys, field, value, where):
    a = outputs(tmp_path / "a")
    b = outputs(tmp_path / "b", report=changed(**{field: value}))
    code, out = run(a, b, capsys=capsys)
    assert code == 1 and out.startswith(f"attack_lira.json: {where}: ")


def test_nested_report_thresholds_may_move_within_rel(tmp_path, capsys):
    # an audit verdict holds its attack report under "report"
    a = outputs(tmp_path / "a", report={"verdict": "pass", "report": REPORT})
    moved = changed(**{"roc_hull.1.0": 0.7554265369513915,
                       "operating_points.0.threshold": -0.0594221133198582})
    b = outputs(tmp_path / "b", report={"verdict": "pass", "report": moved})
    assert run(a, b, capsys=capsys)[0] == 0
    c = outputs(tmp_path / "c", report={"verdict": "fail", "report": moved})
    assert run(a, c, capsys=capsys) == (1, "attack_lira.json: .verdict: 'pass' != 'fail'")


def test_full_roc_of_a_schema_1_report_keeps_loose_thresholds(tmp_path, capsys):
    old = {**REPORT, "roc": REPORT["roc_hull"]}
    del old["roc_hull"]
    a = outputs(tmp_path / "a", report=old)
    moved = json.loads(json.dumps(old))
    moved["roc"][1][0] = 0.7554265369513915
    assert run(a, outputs(tmp_path / "b", report=moved), capsys=capsys)[0] == 0
    moved["roc"][1][1] = 0.03125000000000001
    code, out = run(a, outputs(tmp_path / "c", report=moved), capsys=capsys)
    assert code == 1 and out.startswith("attack_lira.json: .roc[1].fpr: ")


def test_roc_file_threshold_column_within_rel_and_other_cells_exact(tmp_path, capsys):
    a = outputs(tmp_path / "a")
    b = outputs(tmp_path / "b", roc=ROC.replace("13,", "15,"))
    assert run(a, b, capsys=capsys)[0] == 0
    for fpr in ("0.03126", "0.031250000000000007"):  # exact outside the threshold column
        c = outputs(tmp_path / fpr, roc=ROC.replace("0.03125", fpr))
        code, out = run(a, c, capsys=capsys)
        assert code == 1 and out == f"attack_lira_roc.csv: row 2, column 'fpr': 0.03125 != {fpr}"
    d = outputs(tmp_path / "d", roc=ROC + "0.1,0.5,0.5\n")
    assert run(a, d, capsys=capsys) == (1, "attack_lira_roc.csv: 2 rows != 3")


def test_missing_or_extra_report_fails(tmp_path, capsys):
    a = outputs(tmp_path / "a")
    b = outputs(tmp_path / "b")
    (b / "audit.json").write_text("{}")
    code, out = run(a, b, capsys=capsys)
    assert code == 1 and "['audit.json']" in out
    (b / "audit.json").unlink()
    (b / "attack_lira_roc.csv").unlink()
    code, out = run(a, b, capsys=capsys)
    assert code == 1 and "['attack_lira_roc.csv']" in out


def test_verdicts_ignore_moved_bytes_but_not_a_moved_verdict(tmp_path, capsys):
    audit = {"audit": "step_mechanism", "status": "pass", "passed": True,
             "claimed": {"epsilon": 1.16, "delta": 0.1}, "measured_lower_bound": 0.0,
             "report": REPORT}

    def with_audit(d, report=REPORT, **fields):
        outputs(d, report=report)
        (d / "audit.json").write_text(json.dumps({**audit, **fields}))
        return d

    a = with_audit(tmp_path / "a")
    moved = with_audit(tmp_path / "b", report=changed(auc=0.75, **{"roc_hull.1.1": 0.5}),
                       measured_lower_bound=0.3)
    assert run(a, moved, capsys=capsys)[0] == 1
    code, out = run(a, moved, "--verdicts", capsys=capsys)
    assert code == 0 and out.splitlines() == [
        "attack_lira.json: attack=lira n_runs=64 operating_points=['median']",
        "audit.json: status=pass passed=True claimed={'epsilon': 1.16, 'delta': 0.1}",
    ]
    for name, d in [
        ("audit.json", with_audit(tmp_path / "c", status="fail", passed=False)),
        ("audit.json", with_audit(tmp_path / "d", claimed={"epsilon": 1.2, "delta": 0.1})),
        ("attack_lira.json", with_audit(tmp_path / "e", report=changed(n_runs=32))),
        ("attack_lira.json", with_audit(tmp_path / "f", report=changed(
            **{"operating_points.0.name": "fpr<=0.01"}))),
    ]:
        code, out = run(a, d, "--verdicts", capsys=capsys)
        assert code == 1 and [line for line in out.splitlines() if "!=" in line][0].startswith(name)
    (moved / "audit.json").unlink()
    code, out = run(a, moved, "--verdicts", capsys=capsys)
    assert code == 1 and "['audit.json']" in out
