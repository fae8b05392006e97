import json

import numpy as np
import pytest

from privaudit.cli import _pick_target, main
from privaudit.data import CategoricalColumn, Dataset, NumericColumn, Schema


@pytest.fixture
def workspace(tmp_path):
    sch = Schema((
        NumericColumn("x", 0.0, 1.0),
        CategoricalColumn("y", ("a", "b")),
    ))
    rng = np.random.default_rng(0)
    rows = [(float(u), int(u > 0.5)) for u in rng.uniform(size=60)]
    ds = Dataset.from_rows(sch, rows)
    (tmp_path / "schema.json").write_text(json.dumps(sch.to_json_dict()))
    ds.to_csv(tmp_path / "data.csv")
    return tmp_path


def base_config(ws, **over):
    cfg = {
        "schema_version": 1,
        "schema": str(ws / "schema.json"),
        "dataset": str(ws / "data.csv"),
        "master_seed": 7,
        "out": str(ws / "results"),
        "trainer": {
            "kind": "predictive",
            "label_column": "y",
            "dpsgd": {"clip_norm": 1.0, "noise_multiplier": 1.0,
                      "sample_rate": 0.2, "steps": 3, "learning_rate": 0.5},
        },
    }
    cfg.update(over)
    return cfg


def write_config(ws, cfg, name="config.json"):
    p = ws / name
    p.write_text(json.dumps(cfg))
    return str(p)


# ---------------------------------------------------------------------------
# usage errors

def test_usage_errors(tmp_path, capsys):
    assert main([]) == 3
    assert main(["frobnicate", "--config", "x"]) == 3
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "invalid JSON" in err


def test_config_field_path_in_error(workspace, capsys):
    cfg = base_config(workspace)
    cfg["trainer"]["dpsgd"]["clip_norm"] = -1.0
    assert main(["train", "--config", write_config(workspace, cfg)]) == 3
    assert "trainer.dpsgd" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train / synthesize

def test_train_predictive(workspace):
    path = write_config(workspace, base_config(workspace))
    assert main(["train", "--config", path]) == 0
    out = workspace / "results"
    assert (out / "model.params").exists()
    acct = json.loads((out / "accountant.json").read_text())
    assert acct["schema_version"] == 1
    assert acct["claimed"]["epsilon"] > 0
    # reruns are byte-identical
    blob = (out / "model.params").read_bytes()
    assert main(["train", "--config", path]) == 0
    assert (out / "model.params").read_bytes() == blob


def test_train_bug_mode_voids_guarantee(workspace):
    cfg = base_config(workspace)
    cfg["trainer"]["dpsgd"]["bug_mode"] = "no_noise"
    assert main(["train", "--config", write_config(workspace, cfg)]) == 0
    acct = json.loads((workspace / "results" / "accountant.json").read_text())
    assert acct["no_valid_guarantee"] is True
    assert "claimed" not in acct


def test_train_marginal_zero_noise_voids_guarantee(workspace):
    cfg = base_config(workspace, trainer={"kind": "marginal", "noise_std": 0.0})
    assert main(["train", "--config", write_config(workspace, cfg)]) == 0
    acct = json.loads((workspace / "results" / "accountant.json").read_text())
    assert acct["no_valid_guarantee"] is True
    assert "claimed" not in acct


def test_synthesize_marginal(workspace):
    cfg = base_config(workspace, trainer={"kind": "marginal", "noise_std": 1.0},
                      synthesize={"n_samples": 40})
    assert main(["synthesize", "--config", write_config(workspace, cfg)]) == 0
    out = workspace / "results"
    lines = (out / "synthetic.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 41
    assert (out / "synthesizer.gen").exists()
    acct = json.loads((out / "accountant.json").read_text())
    assert acct["claimed"]["epsilon"] > 0


def test_synthesize_requires_generative(workspace, capsys):
    cfg = base_config(workspace, synthesize={"n_samples": 5})
    assert main(["synthesize", "--config", write_config(workspace, cfg)]) == 3
    assert "marginal or gan" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# attack

def attack_config(ws, **over):
    cfg = base_config(ws)
    cfg["attack"] = {"attacks": ["loss_threshold", "lira"], "t_runs": 24}
    cfg.update(over)
    return cfg


def test_attack_two_reports(workspace):
    path = write_config(workspace, attack_config(workspace))
    assert main(["attack", "--config", path]) == 0
    out = workspace / "results"
    for name in ("loss_threshold", "lira"):
        assert (out / f"attack_{name}.json").exists()
        assert (out / f"attack_{name}_roc.csv").exists()
    doc = json.loads((out / "attack_lira.json").read_text())
    assert doc["schema_version"] == 1


def test_attack_dry_run(workspace, capsys):
    path = write_config(workspace, attack_config(workspace))
    assert main(["attack", "--config", path, "--dry-run"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # total = N * (T * N + T) with linear unit-cost models
    assert doc["total"] == 60 * (24 * 60 + 24)
    assert not (workspace / "results").exists()


def test_attack_deterministic_across_workers(workspace):
    path = write_config(workspace, attack_config(workspace))
    assert main(["attack", "--config", path, "--workers", "1"]) == 0
    blobs = {
        n: (workspace / "results" / f"attack_{n}.json").read_bytes()
        for n in ("loss_threshold", "lira")
    }
    assert main(["attack", "--config", path, "--workers", "8"]) == 0
    for n, blob in blobs.items():
        assert (workspace / "results" / f"attack_{n}.json").read_bytes() == blob


def test_attack_incompatible_rejected_before_training(workspace, capsys):
    cfg = attack_config(workspace)
    cfg["attack"]["attacks"] = ["dcr"]
    assert main(["attack", "--config", write_config(workspace, cfg)]) == 3
    assert "generative" in capsys.readouterr().err
    assert not (workspace / "results").exists()


def test_attack_generative(workspace):
    cfg = base_config(workspace, trainer={"kind": "marginal", "noise_std": 1.0})
    cfg["attack"] = {"attacks": ["dcr", "groundhog"], "t_runs": 16,
                     "n_samples": 50}
    assert main(["attack", "--config", write_config(workspace, cfg)]) == 0
    assert (workspace / "results" / "attack_dcr.json").exists()
    assert (workspace / "results" / "attack_groundhog.json").exists()


def test_attack_target_duplicated_in_data(tmp_path):
    # 60 rows over 8 distinct records: the selected target has several copies
    sch = Schema(tuple(CategoricalColumn(n, ("a", "b")) for n in ("p", "q", "y")))
    rng = np.random.default_rng(4)
    ds = Dataset.from_rows(sch, [tuple(rng.integers(2, size=3)) for _ in range(60)])
    (tmp_path / "schema.json").write_text(json.dumps(sch.to_json_dict()))
    ds.to_csv(tmp_path / "data.csv")
    cfg = base_config(tmp_path)
    cfg["attack"] = {"attacks": ["loss_threshold"], "t_runs": 8,
                     "target": {"strategy": "random"}}
    assert main(["attack", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "results" / "attack_loss_threshold.json").exists()

    target, pool = _pick_target(cfg, ds)
    copies = int(ds.matches(target).sum())
    assert copies > 1
    assert len(pool) == len(ds) - copies and not pool.matches(target).any()


# ---------------------------------------------------------------------------
# audit

def audit_config(ws, bug_mode="none"):
    cfg = base_config(ws)
    cfg["trainer"]["dpsgd"]["bug_mode"] = bug_mode
    cfg["audit"] = {"mode": "step_mechanism", "trials": 1000, "audit_delta": 0.1}
    return cfg


def test_audit_step_pass(workspace):
    path = write_config(workspace, audit_config(workspace))
    assert main(["audit", "--config", path]) == 0
    doc = json.loads((workspace / "results" / "audit.json").read_text())
    assert doc["status"] == "pass"


def test_audit_step_fail(workspace):
    path = write_config(workspace, audit_config(workspace, bug_mode="no_noise"))
    assert main(["audit", "--config", path]) == 1
    doc = json.loads((workspace / "results" / "audit.json").read_text())
    assert doc["status"] == "fail"


def test_audit_end_to_end_runs(workspace):
    cfg = base_config(workspace)
    cfg["audit"] = {"mode": "end_to_end", "t_runs": 24}
    assert main(["audit", "--config", write_config(workspace, cfg)]) in (0, 1, 2)
    assert (workspace / "results" / "audit.json").exists()


def test_audit_deterministic(workspace):
    path = write_config(workspace, audit_config(workspace))
    assert main(["audit", "--config", path]) == 0
    blob = (workspace / "results" / "audit.json").read_bytes()
    assert main(["audit", "--config", path]) == 0
    assert (workspace / "results" / "audit.json").read_bytes() == blob


def test_audit_bad_mode(workspace, capsys):
    cfg = base_config(workspace)
    cfg["audit"] = {"mode": "vibes"}
    assert main(["audit", "--config", write_config(workspace, cfg)]) == 3
    assert "audit.mode" in capsys.readouterr().err


def test_audit_gan_zero_steps_claims_zero(workspace):
    cfg = base_config(workspace)
    cfg["trainer"] = {"kind": "gan", "steps": 0, "dpsgd": cfg["trainer"]["dpsgd"]}
    cfg["audit"] = {"mode": "end_to_end", "t_runs": 20}
    path = write_config(workspace, cfg)
    assert main(["audit", "--config", path]) == 0
    doc = json.loads((workspace / "results" / "audit.json").read_text())
    assert doc["claimed"]["epsilon"] == 0.0 and doc["status"] == "pass"
    assert main(["train", "--config", path]) == 0
    acct = json.loads((workspace / "results" / "accountant.json").read_text())
    assert acct["claimed"]["epsilon"] == 0.0


# ---------------------------------------------------------------------------
# config keys

DPSGD_ALL_KEYS = {"clip_norm": 1.0, "noise_multiplier": 1.0, "sample_rate": 0.2,
                  "steps": 2, "learning_rate": 0.5, "bug_mode": "none"}


@pytest.mark.parametrize("trainer", [
    {"kind": "predictive", "label_column": "y", "dpsgd": DPSGD_ALL_KEYS,
     "model_kind": "mlp", "hidden_dim": 4, "init_scale": 0.1,
     "observability": "white_box"},
    {"kind": "marginal", "noise_std": 1.0, "bins": 5},
    {"kind": "gan", "dpsgd": DPSGD_ALL_KEYS, "latent_dim": 2, "gen_hidden": 4,
     "disc_hidden": 4, "gen_lr": 0.05, "steps": 2},
])
def test_every_documented_trainer_key_accepted(workspace, trainer):
    cfg = base_config(workspace, trainer=trainer)
    assert main(["train", "--config", write_config(workspace, cfg)]) == 0


def test_every_documented_audit_key_accepted(workspace):
    cfg = base_config(workspace)
    cfg["audit"] = {"mode": "step_mechanism", "trials": 200, "audit_delta": 0.1,
                    "slack": 0.0}
    assert main(["audit", "--config", write_config(workspace, cfg)]) == 0
    cfg["audit"] = {"mode": "end_to_end", "t_runs": 20, "canary": [1.0, "b"],
                    "slack": 0.5}
    assert main(["audit", "--config", write_config(workspace, cfg)]) in (0, 1, 2)


@pytest.mark.parametrize("command, section, key, message", [
    ("train", "trainer", "hiden_dim", "trainer: unknown key 'hiden_dim'"),
    ("train", "trainer", "steps", "trainer: unknown key 'steps'"),
    ("train", "dpsgd", "noise_multipler", "trainer.dpsgd: unknown key 'noise_multipler'"),
    ("audit", "audit", "trails", "audit: unknown key 'trails'"),
    ("audit", "audit", "t_runs", "audit: unknown key 't_runs'"),
])
def test_unknown_config_key_exits_3(workspace, capsys, command, section, key, message):
    cfg = base_config(workspace)
    cfg["audit"] = {"mode": "step_mechanism", "trials": 200}
    doc = {"trainer": cfg["trainer"], "dpsgd": cfg["trainer"]["dpsgd"],
           "audit": cfg["audit"]}[section]
    doc[key] = 1
    assert main([command, "--config", write_config(workspace, cfg)]) == 3
    assert message in capsys.readouterr().err
    assert not (workspace / "results").exists()


def test_unknown_key_in_generative_trainer_exits_3(workspace, capsys):
    for trainer in ({"kind": "marginal", "noise_sd": 1.0},
                    {"kind": "gan", "dpsgd": DPSGD_ALL_KEYS, "hidden_dim": 4}):
        cfg = base_config(workspace, trainer=trainer)
        assert main(["train", "--config", write_config(workspace, cfg)]) == 3
    err = capsys.readouterr().err
    assert "trainer: unknown key 'noise_sd'" in err
    assert "trainer: unknown key 'hidden_dim'" in err


# ---------------------------------------------------------------------------
# report

def test_report_empty_dir(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["attacks"] == [] and doc["audits"] == []


def test_report_merges_attack_and_audit(workspace, capsys):
    path = write_config(workspace, attack_config(workspace))
    assert main(["attack", "--config", path]) == 0
    apath = write_config(workspace, audit_config(workspace), "audit.json")
    assert main(["audit", "--config", apath]) == 0
    assert main(["report", "--out", str(workspace / "results")]) == 0
    doc = json.loads((workspace / "results" / "summary.json").read_text())
    assert {r["attack"] for r in doc["attacks"]} == {"loss_threshold", "lira"}
    assert doc["audits"][0]["status"] == "pass"
    txt = (workspace / "results" / "summary.txt").read_text()
    assert "lira" in txt and "step_mechanism" in txt


def test_report_low_fpr_point_is_smallest_target_fpr(tmp_path):
    def op(name, target_fpr, eps):
        return {"name": name, "target_fpr": target_fpr, "eps_point": eps, "eps_lower": eps}
    doc = {"attack": "lira", "auc": 0.5, "operating_points": [
        op("fpr<=0.01", 0.01, 3.0), op("fpr<=0.1", 0.1, 2.0), op("median", None, 1.0)]}
    (tmp_path / "attack_lira.json").write_text(json.dumps(doc))
    assert main(["report", "--out", str(tmp_path)]) == 0
    row = json.loads((tmp_path / "summary.json").read_text())["attacks"][0]
    assert row["eps_point"] == 3.0 and row["eps_lower"] == 3.0
