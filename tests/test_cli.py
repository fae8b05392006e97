import json

import numpy as np
import pytest

from privaudit import dpsgd
from privaudit.cli import _pick_target, main
from privaudit.data import CategoricalColumn, Dataset, NumericColumn, Schema, load_csv


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


@pytest.mark.parametrize("command", ["train", "synthesize", "audit", "report"])
def test_dry_run_only_on_attack(workspace, capsys, command):
    cfg = base_config(workspace, trainer={"kind": "marginal", "noise_std": 1.0})
    cfg["audit"] = {"mode": "step_mechanism", "trials": 200}
    path = write_config(workspace, cfg)
    assert main([command, "--config", path, "--dry-run"]) == 3
    assert "unrecognized arguments: --dry-run" in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["train", "synthesize", "report"])
def test_workers_only_on_attack_and_audit(workspace, capsys, command):
    cfg = base_config(workspace, trainer={"kind": "marginal", "noise_std": 1.0})
    assert main([command, "--config", write_config(workspace, cfg), "--workers", "2"]) == 3
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (workspace / "results").exists()


@pytest.mark.parametrize("command", ["attack", "audit"])
@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_workers_below_one_exits_3(workspace, capsys, command, value):
    path = write_config(workspace, attack_config(workspace))
    assert main([command, "--config", path, "--workers", value]) == 3
    assert "argument --workers: must be an integer >= 1" in capsys.readouterr().err
    assert not (workspace / "results").exists()


@pytest.mark.parametrize("command", ["attack", "audit"])
def test_output_bytes_independent_of_workers(workspace, monkeypatch, command):
    # two processes on any machine, over 4 (attack) or 8 (audit) lockstep blocks
    monkeypatch.setattr(dpsgd, "_cpu_count", lambda: 2)
    monkeypatch.setattr(dpsgd, "_BLOCK_ROWS", 40)
    cfg = attack_config(workspace, threat_model={"data_knowledge": "resampled_dataset"})
    cfg["trainer"].update(model_kind="mlp", hidden_dim=4, observability="white_box")
    cfg["audit"] = {"mode": "end_to_end", "t_runs": 24}
    path = write_config(workspace, cfg)
    runs = []
    for workers in ("1", "2"):
        out = workspace / f"workers{workers}"
        code = main([command, "--config", path, "--workers", workers, "--out", str(out)])
        runs.append((code, {p.name: p.read_bytes() for p in sorted(out.iterdir())
                            if p.name != "run_info.json"}))
    assert runs[0][1] and runs[0] == runs[1]


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


def test_attack_explicit_target_in_data_leaves_the_pool(workspace):
    data = load_csv(workspace / "data.csv", Schema.from_json_file(workspace / "schema.json"))
    x, y = data.rows[0]
    cfg = base_config(workspace)
    cfg["attack"] = {"attacks": ["loss_threshold"], "t_runs": 8,
                     "target": {"record": [x, ("a", "b")[y]]}}
    assert main(["attack", "--config", write_config(workspace, cfg)]) == 0
    assert (workspace / "results" / "attack_loss_threshold.json").exists()

    target, pool = _pick_target(cfg, data)
    assert target == data.rows[0]
    assert len(pool) == len(data) - 1 and not pool.matches(target).any()


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


@pytest.mark.parametrize("over, message", [
    ({"audit": {"mode": "end_to_end", "t_runs": 10}}, "audit.t_runs: t_runs must be >= 20"),
    ({"audit": {"mode": "end_to_end"}, "delta": 2.0}, "config.delta: delta must be in (0, 1)"),
])
def test_audit_end_to_end_bad_value_exits_3_before_output(workspace, capsys, over, message):
    cfg = base_config(workspace, **over)
    assert main(["audit", "--config", write_config(workspace, cfg)]) == 3
    assert message in capsys.readouterr().err
    assert not (workspace / "results").exists()


ZERO_NOISE_DPSGD = {"clip_norm": 1.0, "noise_multiplier": 0.0, "sample_rate": 0.2,
                    "steps": 3, "learning_rate": 0.5}


@pytest.mark.parametrize("trainer, message", [
    ({"kind": "predictive", "label_column": "y", "dpsgd": ZERO_NOISE_DPSGD},
     "audit: no valid guarantee exists without noise"),
    ({"kind": "gan", "dpsgd": ZERO_NOISE_DPSGD, "steps": 2},
     "audit: no valid guarantee exists without noise"),
    ({"kind": "marginal", "noise_std": 0.0}, "audit: noise_std must be > 0"),
])
def test_audit_end_to_end_without_a_claim_exits_3_before_training(
        workspace, capsys, monkeypatch, trainer, message):
    def no_training(*args, **kw):
        raise AssertionError("run_shadow_experiment called")
    monkeypatch.setattr("privaudit.audit.run_shadow_experiment", no_training)
    monkeypatch.setattr("privaudit.cli.run_shadow_experiment", no_training)
    cfg = base_config(workspace, trainer=trainer)
    cfg["audit"] = {"mode": "end_to_end", "t_runs": 20}
    assert main(["audit", "--config", write_config(workspace, cfg)]) == 3
    assert message in capsys.readouterr().err
    assert not (workspace / "results").exists()


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


@pytest.mark.parametrize("target", [{"strategy": "random"}, {"record": [0.25, "a"]}])
def test_every_documented_attack_key_accepted(workspace, target):
    # every top-level key, and every key of attack, attack.target and threat_model
    cfg = base_config(
        workspace, delta=0.01, confidence=0.9,
        threat_model={"model_access": "white_box", "data_knowledge": "resampled_dataset",
                      "architecture_known": True},
        attack={"attacks": ["lira"], "t_runs": 8, "n_samples": 10, "target": target},
        audit={"mode": "step_mechanism"}, synthesize={"n_samples": 5})
    assert main(["attack", "--config", write_config(workspace, cfg)]) == 0


@pytest.mark.parametrize("command, section, key, message", [
    ("train", "trainer", "hiden_dim", "trainer: unknown key 'hiden_dim'"),
    ("train", "trainer", "steps", "trainer: unknown key 'steps'"),
    ("train", "dpsgd", "noise_multipler", "trainer.dpsgd: unknown key 'noise_multipler'"),
    ("audit", "audit", "trails", "audit: unknown key 'trails'"),
    ("audit", "audit", "t_runs", "audit: unknown key 't_runs'"),
    ("audit", "config", "master_sed", "config: unknown key 'master_sed'"),
    ("train", "config", "seed", "config: unknown key 'seed'"),
    ("attack", "attack", "t_run", "attack: unknown key 't_run'"),
    # a typo must not reach the dry run, which would estimate the default t_runs
    ("attack --dry-run", "attack", "t_run", "attack: unknown key 't_run'"),
    ("attack", "target", "recrod", "attack.target: unknown key 'recrod'"),
    ("attack", "threat_model", "model_acess", "threat_model: unknown key 'model_acess'"),
    ("synthesize", "synthesize", "n_sample", "synthesize: unknown key 'n_sample'"),
])
def test_unknown_config_key_exits_3(workspace, capsys, command, section, key, message):
    cfg = base_config(workspace, threat_model={}, synthesize={})
    cfg["audit"] = {"mode": "step_mechanism", "trials": 200}
    cfg["attack"] = {"attacks": ["lira"], "t_runs": 24, "target": {"strategy": "random"}}
    doc = {"config": cfg, "trainer": cfg["trainer"], "dpsgd": cfg["trainer"]["dpsgd"],
           "audit": cfg["audit"], "attack": cfg["attack"],
           "target": cfg["attack"]["target"], "threat_model": cfg["threat_model"],
           "synthesize": cfg["synthesize"]}[section]
    doc[key] = 1
    assert main([*command.split(), "--config", write_config(workspace, cfg)]) == 3
    assert message in capsys.readouterr().err
    assert not (workspace / "results").exists()


@pytest.mark.parametrize("command, over, message", [
    ("audit", {"trainer": 5, "audit": {"mode": "step_mechanism"}}, "trainer: must be an object"),
    ("attack", {"attack": ["dcr"]}, "attack: must be an object"),
    ("attack", {"attack": {"attacks": ["lira"], "target": "random"}},
     "attack.target: must be an object"),
    ("attack", {"threat_model": "white_box", "attack": {"attacks": ["lira"]}},
     "threat_model: must be an object"),
    ("synthesize", {"synthesize": 40}, "synthesize: must be an object"),
])
def test_non_object_config_block_exits_3(workspace, capsys, command, over, message):
    cfg = base_config(workspace, **over)
    assert main([command, "--config", write_config(workspace, cfg)]) == 3
    assert message in capsys.readouterr().err
    assert not (workspace / "results").exists()


@pytest.mark.parametrize("command, section, key, value, message", [
    ("audit", "config", "master_seed", "x", "config.master_seed: invalid literal"),
    ("attack", "config", "confidence", "x", "config.confidence: could not convert"),
    ("attack", "attack", "t_runs", "x", "attack.t_runs: invalid literal"),
    ("attack", "attack", "n_samples", "x", "attack.n_samples: invalid literal"),
    ("audit", "audit", "trials", "x", "audit.trials: invalid literal"),
    ("audit", "audit", "audit_delta", "x", "audit.audit_delta: could not convert"),
    ("audit", "audit", "slack", "x", "audit.slack: could not convert"),
    ("audit", "audit", "slack", -1.0, "audit.slack: slack must be a finite number >= 0"),
    ("audit", "audit", "slack", float("nan"), "audit.slack: slack must be a finite number >= 0"),
    ("synthesize", "synthesize", "n_samples", "x", "synthesize.n_samples: invalid literal"),
    ("attack", "attack", "attacks", 5, "attack.attacks: must be a list of attack names"),
    ("attack", "attack", "attacks", "lira", "attack.attacks: must be a list of attack names"),
    ("train", "config", "delta", "x", "config.delta: could not convert"),
    ("attack", "config", "confidence", 1.5, "config.confidence: confidence must be in (0, 1)"),
    ("attack", "attack", "t_runs", 1, "attack.t_runs: need at least 2 shadow runs"),
    ("attack", "attack", "n_samples", 0, "attack.n_samples: n_samples must be >= 1"),
    ("attack", "attack", "n_samples", -1, "attack.n_samples: n_samples must be >= 1"),
    ("synthesize", "synthesize", "n_samples", -1, "synthesize.n_samples: n must be >= 0"),
    ("train", "trainer", "observability", "grey", "trainer: unknown observability 'grey'"),
    ("train", "trainer", "label_column", "x", "trainer: label column 'x' must be categorical"),
    ("attack", "attack", "target", {"record": [0.5, "b", 99, "junk"]},
     "attack.target.record: record has 4 values, schema has 2 columns"),
    ("audit", "config", "audit", {"mode": "end_to_end", "t_runs": 20,
                                  "canary": [0.5, "b", 99, "junk"]},
     "audit.canary: record has 4 values, schema has 2 columns"),
])
def test_bad_config_value_exits_3(workspace, capsys, command, section, key, value, message):
    cfg = base_config(workspace, synthesize={})
    cfg["audit"] = {"mode": "step_mechanism", "trials": 200}
    cfg["attack"] = {"attacks": ["lira"], "t_runs": 8}
    if command == "synthesize":
        cfg["trainer"] = {"kind": "marginal", "noise_std": 1.0}
    (cfg if section == "config" else cfg[section])[key] = value
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

def _assert_stdlib_indent_2(out):
    """Every JSON file in out has the bytes of json.dumps(sort_keys=True,
    indent=2) plus a newline."""
    names = sorted(p.name for p in out.glob("*.json"))
    for name in names:
        raw = (out / name).read_bytes()
        assert raw == (json.dumps(json.loads(raw), sort_keys=True, indent=2) + "\n").encode(), name
    return names


@pytest.mark.parametrize("trainer, attacks", [
    ({"kind": "predictive", "label_column": "y", "model_kind": "mlp", "hidden_dim": 4,
      "dpsgd": DPSGD_ALL_KEYS}, ["loss_threshold", "lira"]),
    ({"kind": "marginal", "noise_std": 1.0}, ["dcr", "groundhog"]),
    ({"kind": "gan", "dpsgd": DPSGD_ALL_KEYS, "steps": 2}, ["dcr", "groundhog"]),
])
def test_every_json_output_round_trips_through_stdlib(workspace, trainer, attacks):
    cfg = base_config(workspace, trainer=trainer, synthesize={"n_samples": 20})
    cfg["attack"] = {"attacks": attacks, "t_runs": 20, "n_samples": 30}
    cfg["audit"] = {"mode": "end_to_end", "t_runs": 20}
    path = write_config(workspace, cfg)
    commands = ["train", "attack", "audit", "report"]
    if trainer["kind"] != "predictive":
        commands.insert(1, "synthesize")
    for command in commands:
        assert main([command, "--config", path]) in (0, 1, 2), command
    names = _assert_stdlib_indent_2(workspace / "results")
    assert names == sorted(["accountant.json", "audit.json", "run_info.json", "summary.json",
                            *(f"attack_{a}.json" for a in attacks)])


def test_step_audit_json_round_trips_through_stdlib(workspace):
    cfg = audit_config(workspace)
    cfg["audit"]["trials"] = 20000
    path = write_config(workspace, cfg)
    assert main(["audit", "--config", path]) == 0
    assert main(["report", "--config", path]) == 0
    out = workspace / "results"
    assert _assert_stdlib_indent_2(out) == ["audit.json", "run_info.json", "summary.json"]
    # the ROC spans several of the writer's chunks
    assert len(json.loads((out / "audit.json").read_text())["report"]["roc"]) > 10000


def test_report_empty_dir(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["attacks"] == [] and doc["audits"] == []


def test_report_missing_out_dir_exits_3(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "nope")]) == 3
    assert "out: no such directory" in capsys.readouterr().err
    assert not (tmp_path / "nope").exists()


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
