import functools
import hashlib
import json
import math

import numpy as np
import pytest

from privaudit import cli, dpsgd
from privaudit.cli import _pick_target, build_trainer, main
from privaudit.core_stats import GdpParam, gdp_epsilon_of_delta
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
    assert doc["schema_version"] == 2


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


@pytest.mark.parametrize("trainer, attack, access, need", [
    ("marginal", "lira", "black_box_query", "pred_loss requires a predictive trainer"),
    ("marginal", "loss_threshold", "black_box_query", "pred_loss requires a predictive trainer"),
    ("gan", "lira", "white_box", "pred_loss requires a predictive trainer"),
    ("gan", "loss_threshold", "white_box", "pred_loss requires a predictive trainer"),
    ("predictive", "dcr", "black_box_query", "synth_dataset requires a generative trainer"),
    ("predictive", "groundhog", "white_box", "synth_dataset requires a generative trainer"),
    ("gan", "disc_loss", "black_box_query", "disc_loss requires white_box model access"),
    ("predictive", "disc_loss", "white_box", "disc_loss requires a GAN trainer"),
    ("marginal", "disc_loss", "white_box", "disc_loss requires a GAN trainer"),
])
def test_every_incompatible_attack_exits_3_before_training(workspace, capsys, monkeypatch,
                                                          trainer, attack, access, need):
    trainers = {"predictive": PREDICTIVE, "marginal": {"kind": "marginal", "noise_std": 1.0},
                "gan": GAN}
    cfg = base_config(workspace, trainer=trainers[trainer],
                      threat_model={"model_access": access})
    cfg["attack"] = {"attacks": [attack], "t_runs": 20}

    def no_training(*args):
        raise AssertionError("trained before the attack was checked")

    monkeypatch.setattr("privaudit.cli.run_shadow_experiment", no_training)
    assert main(["attack", "--config", write_config(workspace, cfg)]) == 3
    assert f"error: attack.attacks: {attack}: {need}" in capsys.readouterr().err
    assert not (workspace / "results").exists()


@pytest.mark.parametrize("trainer, attack", [("predictive", "lira"), ("marginal", "groundhog")])
@pytest.mark.parametrize("t_runs", [4, 7, 8])
def test_attack_that_splits_its_runs_needs_8_before_training(workspace, capsys, monkeypatch,
                                                            trainer, attack, t_runs):
    trainers = {"predictive": PREDICTIVE, "marginal": {"kind": "marginal", "noise_std": 1.0}}
    cfg = base_config(workspace, trainer=trainers[trainer])
    cfg["attack"] = {"attacks": [attack], "t_runs": t_runs, "n_samples": 10}
    path = write_config(workspace, cfg)
    # t_runs // 2 members; each class calibrates on its leading half
    too_few = {4: "class 0 has 1 calibration / 1 evaluation runs",
               7: "class 1 has 2 calibration / 1 evaluation runs"}.get(t_runs)
    if too_few is None:
        assert main(["attack", "--config", path]) == 0
        assert (workspace / "results" / f"attack_{attack}.json").exists()
        return

    def no_training(*args):
        raise AssertionError("trained before the run count was checked")

    monkeypatch.setattr("privaudit.cli.run_shadow_experiment", no_training)
    assert main(["attack", "--config", path]) == 3
    err = capsys.readouterr().err
    assert f"error: attack.t_runs: {attack}: too few runs: {too_few}, need >= 2 each" in err
    assert "Traceback" not in err
    assert not (workspace / "results").exists()


@pytest.mark.parametrize("kind", ["predictive", "marginal"])
@pytest.mark.parametrize("rows, knowledge", [
    # the target is the only row, so the pool is empty
    ([(0.5, 0)], "fixed_dataset"),
    # the pool keeps one row, and the out-runs resample n // 2 = 0 of it
    ([(0.5, 0), (0.75, 1)], "resampled_dataset"),
])
def test_attack_with_an_empty_training_run_exits_3(tmp_path, capsys, kind, rows, knowledge):
    sch = Schema((NumericColumn("x", 0.0, 1.0), CategoricalColumn("y", ("a", "b"))))
    (tmp_path / "schema.json").write_text(json.dumps(sch.to_json_dict()))
    Dataset.from_rows(sch, rows).to_csv(tmp_path / "data.csv")
    trainer = PREDICTIVE if kind == "predictive" else {"kind": "marginal", "noise_std": 1.0}
    cfg = base_config(tmp_path, trainer=trainer, threat_model={"data_knowledge": knowledge})
    # lira needs 8 runs for its calibration split; dcr does not split them
    attack, t_runs = ("lira", 8) if kind == "predictive" else ("dcr", 4)
    cfg["attack"] = {"attacks": [attack], "t_runs": t_runs, "target": {"record": [0.5, "a"]}}
    assert main(["attack", "--config", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    pool = len(rows) - 1
    assert f"error: attack: a pool of size {pool} leaves a target-out run no training rows" in err
    assert "Traceback" not in err
    assert not (tmp_path / "results").exists()


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
    ({"audit": {"mode": "end_to_end", "t_runs": 10}},
     "audit.t_runs: t_runs must be an integer >= 20, got 10"),
    ({"audit": {"mode": "end_to_end"}, "delta": 2.0},
     "config.delta: delta must be a number in (0, 1), got 2.0"),
    ({"audit": {"mode": "end_to_end", "t_runs": 24.5}},
     "audit.t_runs: t_runs must be an integer >= 20, got 24.5"),
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
# claims

def _refuse_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def _strict_json(path):
    """path's JSON document, refusing the non-standard NaN and Infinity."""
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


def _dpsgd_mu(sigma, rate, steps):
    """The closed-form mu of T Poisson-subsampled Gaussian steps."""
    return rate * math.sqrt(steps * math.expm1(1 / sigma**2))


CLAIM_CASES = [(kind, steps, bug.value)
               for kind, steps in [("predictive", None), ("gan", None), ("gan", 0),
                                   ("gan", 1), ("gan", 5), ("marginal", None), ("step", None)]
               for bug in dpsgd.BugMode if kind != "marginal" or bug == dpsgd.BugMode.NONE]


@pytest.mark.parametrize("kind, steps, bug", CLAIM_CASES)
def test_every_claim_site_matches_the_gdp_oracle(workspace, kind, steps, bug):
    # trainer.claimed_epsilon, accountant.json and audit.json against
    # gdp_epsilon_of_delta of the closed-form mu; every claim ignores the bug
    # mode, and the accountant names it instead of a claim
    cfg = base_config(workspace)
    dp = cfg["trainer"]["dpsgd"] | {"bug_mode": bug}
    cfg["trainer"] = {
        "predictive": {"kind": "predictive", "label_column": "y", "dpsgd": dp},
        "gan": {"kind": "gan", "dpsgd": dp} | ({} if steps is None else {"steps": steps}),
        "marginal": {"kind": "marginal", "noise_std": 2.0},
        "step": {"dpsgd": dp},
    }[kind]
    # base_config's sigma 1, rate 0.2 and 3 steps; the step audit claims one
    # step at rate 1, and the marginal synthesizer's mu is sqrt(k)/noise_std
    mu = GdpParam({
        "predictive": _dpsgd_mu(1.0, 0.2, 3),
        "gan": _dpsgd_mu(1.0, 0.2, 3 if steps is None else steps),
        "marginal": math.sqrt(2) / 2.0,
        "step": _dpsgd_mu(1.0, 1.0, 1),
    }[kind])
    out = workspace / "results"
    if kind == "step":
        cfg["audit"] = {"mode": "step_mechanism", "trials": 100, "audit_delta": 0.1}
        assert main(["audit", "--config", write_config(workspace, cfg)]) in (0, 1, 2)
        claimed = _strict_json(out / "audit.json")["claimed"]
        assert claimed == {"epsilon": gdp_epsilon_of_delta(mu, 0.1), "delta": 0.1}
        return
    n = 60
    trainer = build_trainer(cfg, Schema.from_json_file(workspace / "schema.json"))
    assert trainer.claimed_epsilon(n, 1 / n) == gdp_epsilon_of_delta(mu, 1 / n)

    cfg["audit"] = {"mode": "end_to_end", "t_runs": 20}
    path = write_config(workspace, cfg)
    assert main(["train", "--config", path]) == 0
    acct = _strict_json(out / "accountant.json")
    if bug == "none":
        assert acct["claimed"] == {"epsilon": gdp_epsilon_of_delta(mu, 1 / n), "delta": 1 / n}
    else:
        assert acct == {"schema_version": 1, "no_valid_guarantee": True,
                        "reason": f"bug_mode={bug}"}
    # the audit's records are the pool plus the canary
    assert main(["audit", "--config", path]) in (0, 1, 2)
    claimed = _strict_json(out / "audit.json")["claimed"]
    assert claimed == {"epsilon": gdp_epsilon_of_delta(mu, 1 / (n + 1)), "delta": 1 / (n + 1)}


def _predictive(sigma):
    return {"kind": "predictive", "label_column": "y",
            "dpsgd": ZERO_NOISE_DPSGD | {"noise_multiplier": sigma}}


@pytest.mark.parametrize("command, audit, trainer", [
    # sigma 0.03: e^(1/sigma^2) overflows a float; sigma 0.05 and noise_std
    # 1e-3 give a finite mu whose epsilon is past the accountant's range
    ("train", None, _predictive(0.03)),
    ("train", None, _predictive(0.05)),
    ("train", None, {"kind": "marginal", "noise_std": 1e-3}),
    ("audit", {"mode": "step_mechanism", "trials": 100}, _predictive(0.03)),
    ("audit", {"mode": "end_to_end", "t_runs": 20}, _predictive(0.03)),
    ("audit", {"mode": "end_to_end", "t_runs": 20}, {"kind": "marginal", "noise_std": 1e-3}),
], ids=["train-sigma0.03", "train-sigma0.05", "train-marginal", "step-sigma0.03",
        "end_to_end-sigma0.03", "end_to_end-marginal"])
def test_unbounded_claim_is_written_as_valid_json(workspace, command, audit, trainer):
    cfg = base_config(workspace, trainer=trainer)
    if audit is not None:
        cfg["audit"] = audit
    assert main([command, "--config", write_config(workspace, cfg)]) == 0
    name = "accountant.json" if command == "train" else "audit.json"
    assert _strict_json(workspace / "results" / name)["claimed"]["epsilon"] == "unbounded"


# ---------------------------------------------------------------------------
# config keys

DPSGD_ALL_KEYS = {"clip_norm": 1.0, "noise_multiplier": 1.0, "sample_rate": 0.2,
                  "steps": 2, "learning_rate": 0.5, "bug_mode": "none"}
DPSGD = {"clip_norm": 1.0, "noise_multiplier": 1.0, "sample_rate": 0.2, "steps": 3,
         "learning_rate": 0.5}
PREDICTIVE = {"kind": "predictive", "label_column": "y", "dpsgd": DPSGD}
GAN = {"kind": "gan", "dpsgd": DPSGD, "latent_dim": 2, "steps": 2}


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
    ("audit", "config", "master_seed", "x", "config.master_seed: master_seed must be an integer"),
    ("attack", "config", "confidence", "x",
     "config.confidence: confidence must be a number in (0, 1), got 'x'"),
    ("attack", "attack", "t_runs", "x", "attack.t_runs: t_runs must be an integer >= 2, got 'x'"),
    ("attack", "attack", "n_samples", "x", "attack.n_samples: n_samples must be an integer"),
    ("audit", "audit", "trials", "x", "audit.trials: trials must be an integer, got 'x'"),
    ("audit", "audit", "audit_delta", "x",
     "audit.audit_delta: audit_delta must be a number in (0, 1), got 'x'"),
    ("audit", "audit", "slack", "x", "audit.slack: slack must be a finite number >= 0, got 'x'"),
    ("audit", "audit", "slack", -1.0, "audit.slack: slack must be a finite number >= 0"),
    ("audit", "audit", "slack", float("nan"), "audit.slack: slack must be a finite number >= 0"),
    ("synthesize", "synthesize", "n_samples", "x", "synthesize.n_samples: n must be an integer"),
    ("attack", "attack", "attacks", 5, "attack.attacks: must be a list of attack names"),
    ("attack", "attack", "attacks", "lira", "attack.attacks: must be a list of attack names"),
    ("train", "config", "delta", "x", "config.delta: delta must be a number in (0, 1), got 'x'"),
    ("attack", "config", "confidence", 1.5,
     "config.confidence: confidence must be a number in (0, 1), got 1.5"),
    ("attack", "attack", "t_runs", 1, "attack.t_runs: t_runs must be an integer >= 2, got 1"),
    ("attack", "attack", "n_samples", 0,
     "attack.n_samples: n_samples must be an integer >= 1, got 0"),
    ("attack", "attack", "n_samples", -1,
     "attack.n_samples: n_samples must be an integer >= 1, got -1"),
    ("synthesize", "synthesize", "n_samples", -1,
     "synthesize.n_samples: n must be an integer >= 0, got -1"),
    ("train", "trainer", "observability", "grey", "trainer: unknown observability 'grey'"),
    ("train", "trainer", "label_column", "x", "trainer: label column 'x' must be categorical"),
    ("attack", "attack", "target", {"record": [0.5, "b", 99, "junk"]},
     "attack.target.record: record has 4 values, schema has 2 columns"),
    ("audit", "config", "audit", {"mode": "end_to_end", "t_runs": 20,
                                  "canary": [0.5, "b", 99, "junk"]},
     "audit.canary: record has 4 values, schema has 2 columns"),
    ("train", "config", "trainer", {"kind": "marginal", "noise_std": float("nan")},
     "trainer.noise_std: noise_std must be a finite number >= 0, got nan"),
    ("attack", "config", "trainer", {"kind": "marginal", "noise_std": float("nan")},
     "trainer.noise_std: noise_std must be a finite number >= 0, got nan"),
    ("synthesize", "trainer", "noise_std", float("inf"),
     "trainer.noise_std: noise_std must be a finite number >= 0, got inf"),
    ("synthesize", "trainer", "bins", 2.5, "trainer.bins: bins must be an integer >= 1, got 2.5"),
    ("synthesize", "trainer", "bins", True,
     "trainer.bins: bins must be an integer >= 1, got True"),
    ("synthesize", "trainer", "bins", 0, "trainer.bins: bins must be an integer >= 1, got 0"),
    ("train", "config", "trainer", PREDICTIVE | {"dpsgd": DPSGD | {"steps": 2.5}},
     "trainer.dpsgd.steps: steps must be an integer >= 1, got 2.5"),
    ("attack", "config", "trainer", PREDICTIVE | {"dpsgd": DPSGD | {"clip_norm": float("nan")}},
     "trainer.dpsgd.clip_norm: clip_norm must be a finite number > 0, got nan"),
    ("train", "config", "trainer",
     PREDICTIVE | {"dpsgd": DPSGD | {"learning_rate": float("nan")}},
     "trainer.dpsgd.learning_rate: learning_rate must be a finite number > 0, got nan"),
    ("train", "config", "trainer",
     PREDICTIVE | {"dpsgd": DPSGD | {"noise_multiplier": float("nan")}},
     "trainer.dpsgd.noise_multiplier: noise_multiplier must be a finite number >= 0, got nan"),
    ("train", "config", "trainer",
     PREDICTIVE | {"dpsgd": DPSGD | {"noise_multiplier": float("inf")}},
     "trainer.dpsgd.noise_multiplier: noise_multiplier must be a finite number >= 0, got inf"),
    ("train", "config", "trainer", PREDICTIVE | {"model_kind": "mlp", "hidden_dim": 2.5},
     "trainer.hidden_dim: hidden_dim must be an integer >= 1, got 2.5"),
    ("train", "config", "trainer", PREDICTIVE | {"init_scale": float("nan")},
     "trainer.init_scale: init_scale must be a finite number >= 0, got nan"),
    ("train", "config", "trainer", GAN | {"latent_dim": 2.5},
     "trainer.latent_dim: latent_dim must be an integer >= 1, got 2.5"),
    ("train", "config", "trainer", GAN | {"steps": 2.5},
     "trainer.steps: steps must be an integer, got 2.5"),
    ("train", "config", "trainer", GAN | {"steps": -1},
     "trainer.steps: steps must be an integer >= 0, got -1"),
    ("synthesize", "config", "trainer", GAN | {"gen_lr": float("nan")},
     "trainer.gen_lr: gen_lr must be a finite number > 0, got nan"),
    ("train", "config", "trainer", GAN | {"dpsgd": DPSGD | {"steps": 2.5}},
     "trainer.dpsgd.steps: steps must be an integer >= 1, got 2.5"),
    ("attack", "attack", "t_runs", 24.5, "attack.t_runs: t_runs must be an integer >= 2, got 24.5"),
    ("audit", "config", "master_seed", 7.5,
     "config.master_seed: master_seed must be an integer, got 7.5"),
    ("audit", "audit", "trials", 1000.5, "audit.trials: trials must be an integer, got 1000.5"),
    ("audit", "audit", "trials", 50, "audit.trials: trials must be an integer >= 100, got 50"),
    ("synthesize", "synthesize", "n_samples", 2.5, "synthesize.n_samples: n must be an integer"),
    # a level index must be an integer and no value may be a bool
    ("attack", "attack", "target", {"record": [0.5, 1.7]},
     "attack.target.record: column 'y': level index 1.7 is not an integer"),
    ("attack", "attack", "target", {"record": [True, 1]},
     "attack.target.record: column 'x': value True is not a number"),
    ("audit", "config", "audit", {"mode": "end_to_end", "t_runs": 20, "canary": [0.5, 1.7]},
     "audit.canary: column 'y': level index 1.7 is not an integer"),
    ("audit", "config", "audit", {"mode": "end_to_end", "t_runs": 20, "canary": [True, 1]},
     "audit.canary: column 'x': value True is not a number"),
    # a record is a list, and its numbers are numbers, not text
    ("attack", "attack", "target", {"record": "ab"},
     "attack.target.record: must be a list of values, got str"),
    ("attack", "attack", "target", {"record": ["0.25", "a"]},
     "attack.target.record: column 'x': value '0.25' is not a number"),
    ("attack", "attack", "target", {"record": ["abc", "a"]},
     "attack.target.record: column 'x': value 'abc' is not a number"),
    ("audit", "config", "audit", {"mode": "end_to_end", "t_runs": 20, "canary": "ab"},
     "audit.canary: must be a list of values, got str"),
    ("audit", "config", "audit", {"mode": "end_to_end", "t_runs": 20,
                                  "canary": {"x": 1.0, "y": "b"}},
     "audit.canary: must be a list of values, got dict"),
    ("audit", "config", "audit", {"mode": "end_to_end", "t_runs": 20, "canary": ["1.0", "b"]},
     "audit.canary: column 'x': value '1.0' is not a number"),
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


@pytest.mark.parametrize("command, over", [
    ("train", {}),
    ("train", {"delta": 0.1}),
    ("train", {"trainer": {"kind": "marginal", "noise_std": 1.0}}),
    ("train", {"trainer": GAN, "delta": 0.1}),
    ("synthesize", {"trainer": {"kind": "marginal", "noise_std": 1.0}}),
    ("synthesize", {"trainer": GAN}),
    ("attack", {"attack": {"attacks": ["lira"], "t_runs": 4}}),
    ("attack", {"attack": {"attacks": ["lira"], "target": {"record": [0.5, "a"]}}}),
    ("attack --dry-run", {"attack": {"attacks": ["lira"]}}),
    ("audit", {"audit": {"mode": "end_to_end", "t_runs": 20}}),
])
def test_dataset_with_no_rows_exits_3(workspace, capsys, command, over):
    (workspace / "data.csv").write_text("x,y\n")
    path = write_config(workspace, base_config(workspace, **over))
    assert main([*command.split(), "--config", path]) == 3
    assert f"error: dataset: {workspace / 'data.csv'}: no rows" in capsys.readouterr().err
    assert not (workspace / "results").exists()


@pytest.mark.parametrize("command, over", [
    ("train", {}),
    ("synthesize", {"trainer": {"kind": "marginal", "noise_std": 1.0}}),
    ("attack", {"attack": {"attacks": ["lira"], "t_runs": 4}}),
    ("audit", {"audit": {"mode": "end_to_end", "t_runs": 20}}),
])
@pytest.mark.parametrize("lo, hi, message", [
    (0.0, float("inf"), "max must be a finite number, got inf"),
    (float("-inf"), 1.0, "min must be a finite number, got -inf"),
    (float("nan"), 1.0, "min must be a finite number, got nan"),
    (-1e308, 1e308, "max - min must be finite, got [-1e+308, 1e+308]"),
])
def test_schema_with_non_finite_numeric_bounds_exits_3(workspace, capsys, command, over,
                                                       lo, hi, message):
    schema = {"columns": [{"name": "x", "kind": "numeric", "min": lo, "max": hi},
                          {"name": "y", "kind": "categorical", "levels": ["a", "b"]}]}
    (workspace / "schema.json").write_text(json.dumps(schema))
    path = write_config(workspace, base_config(workspace, **over))
    assert main([command, "--config", path]) == 3
    err = capsys.readouterr().err
    assert f"error: schema: {workspace / 'schema.json'}: column 'x': {message}" in err
    assert "Traceback" not in err
    assert not (workspace / "results").exists()


# every command's work, each refusing to run
WORK = ("privaudit.cli.run_shadow_experiment", "privaudit.audit.run_shadow_experiment",
        "privaudit.audit.audit_step_mechanism", "privaudit.dpsgd.PredictiveTrainer.fit",
        "privaudit.synthesizers.MarginalTrainer.fit", "privaudit.synthesizers.GanTrainer.fit")

# a config for each command, "step audit" being the audit that reads no data
COMMAND_CONFIG = {
    "train": {},
    "synthesize": {"trainer": {"kind": "marginal", "noise_std": 1.0}},
    "attack": {"attack": {"attacks": ["lira"], "t_runs": 8}},
    "audit": {"audit": {"mode": "end_to_end", "t_runs": 20}},
    "step audit": {"audit": {"mode": "step_mechanism", "trials": 200}},
}


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("work started")
    for name in WORK:
        monkeypatch.setattr(name, refuse)


def path_fault(ws, fault):
    """A path that names no readable file or directory, by the fault: a
    missing file, a directory, a path under a file, or an existing file."""
    (ws / "afile").write_text("not a directory\n")
    (ws / "adir").mkdir(exist_ok=True)
    return str({"missing": ws / "nope", "directory": ws / "adir",
                "under a file": ws / "afile" / "sub", "file": ws / "afile"}[fault])


def assert_config_error(capsys, ws, line):
    err = capsys.readouterr().err
    assert line in err.splitlines()
    assert "Traceback" not in err
    assert not (ws / "results").exists()
    assert (ws / "afile").read_text() == "not a directory\n"


@pytest.mark.parametrize("command", ["train", "synthesize", "attack", "audit"])
@pytest.mark.parametrize("key, fault, reason", [
    ("schema", "missing", None),
    ("schema", "directory", "Is a directory"),
    ("schema", "under a file", "Not a directory"),
    ("dataset", "directory", "Is a directory"),
    ("dataset", "under a file", "Not a directory"),
])
def test_unreadable_input_path_exits_3_before_any_work(workspace, capsys, no_work, command,
                                                       key, fault, reason):
    path = path_fault(workspace, fault)
    cfg = base_config(workspace, **COMMAND_CONFIG[command], **{key: path})
    assert main([command, "--config", write_config(workspace, cfg)]) == 3
    detail = f"no such file: {path}" if reason is None else f"cannot read {path}: {reason}"
    assert_config_error(capsys, workspace, f"error: {key}: {detail}")


def _decode_error(raw: bytes) -> str:
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as e:
        return str(e)
    raise AssertionError("raw is UTF-8")


@pytest.mark.parametrize("command", ["train", "synthesize", "attack", "audit"])
@pytest.mark.parametrize("key, raw, detail", [
    ("schema", b"5", "expected an object, got int"),
    ("schema", b"{}", "missing 'columns'"),
    ("schema", b'{"columns": 5}', "'columns' must be a list, got int"),
    ("schema", b'{"columns": [5]}', "columns[0] must be an object, got int"),
    # every other fault of a schema file names the file too
    ("schema", b'{"columns": [{"name": "x"}]}', "columns[0]: missing field 'kind'"),
    ("schema", b'{"columns": [{"name": "x", "kind": "text"}]}', "columns[0]: unknown kind 'text'"),
    ("schema", b'{"columns": [{"name": 3, "kind": "numeric", "min": 0, "max": 1}]}',
     "columns[0]: name must be a string, got 3"),
    ("schema", b'{"columns": [{"name": "x", "kind": "numeric", "min": false, "max": true}]}',
     "column 'x': min must be a finite number, got False"),
    ("schema", b'{"columns": [{"name": "x", "kind": "numeric", "min": "abc", "max": 1}]}',
     "column 'x': min must be a finite number, got 'abc'"),
    ("schema", b'{"columns": [{"name": "y", "kind": "categorical", "levels": "ab"}]}',
     "column 'y': levels must be a list of strings, got 'ab'"),
    ("schema", b'{"columns": [{"name": "y", "kind": "categorical", "levels": ["a", 1]}]}',
     "column 'y': levels must be a list of strings, got ['a', 1]"),
    ("schema", b'{"columns": [{"name": "y", "kind": "categorical", "levels": ["a"]},'
               b' {"name": "y", "kind": "categorical", "levels": ["b"]}]}',
     "duplicate column names in ['y', 'y']"),
    ("schema", b'{"columns": [], "note": "r\xe9sum\xe9"}', None),
    ("dataset", b"x,y\n0.5,\xe9\n", None),
])
def test_input_file_of_the_wrong_shape_or_encoding_exits_3_before_any_work(
        workspace, capsys, no_work, command, key, raw, detail):
    path = workspace / "input"
    path.write_bytes(raw)
    path_fault(workspace, "file")
    cfg = base_config(workspace, **COMMAND_CONFIG[command], **{key: str(path)})
    assert main([command, "--config", write_config(workspace, cfg)]) == 3
    detail = detail or f"not UTF-8 text: {_decode_error(raw)}"
    assert_config_error(capsys, workspace, f"error: {key}: {path}: {detail}")


@pytest.mark.parametrize("command", ["train", "synthesize", "attack", "audit", "report"])
@pytest.mark.parametrize("fault", ["directory", "under a file", "not UTF-8"])
def test_unreadable_config_exits_3_before_any_work(workspace, capsys, no_work, command, fault):
    if fault == "not UTF-8":
        path = str(workspace / "latin1.json")
        (workspace / "latin1.json").write_bytes(b'{"out": "r\xe9sultats"}')
        path_fault(workspace, "file")
        line = (f"error: config: {path}: not UTF-8 text: 'utf-8' codec can't decode byte "
                f"0xe9 in position 10: invalid continuation byte")
    else:
        path = path_fault(workspace, fault)
        reason = "Is a directory" if fault == "directory" else "Not a directory"
        line = f"error: config: cannot read {path}: {reason}"
    assert main([command, "--config", path]) == 3
    assert_config_error(capsys, workspace, line)


@pytest.mark.parametrize("command", list(COMMAND_CONFIG))
@pytest.mark.parametrize("fault", ["file", "under a file"])
@pytest.mark.parametrize("flag", [False, True])
def test_out_that_cannot_be_a_directory_exits_3_before_any_work(workspace, capsys, no_work,
                                                                command, fault, flag):
    out = path_fault(workspace, fault)
    cfg = base_config(workspace, **COMMAND_CONFIG[command])
    argv = [command.split()[-1], "--config", None]
    if flag:
        argv += ["--out", out]
    else:
        cfg["out"] = out
    argv[2] = write_config(workspace, cfg)
    assert main(argv) == 3
    assert_config_error(capsys, workspace, f"error: out: {workspace / 'afile'} is not a directory")


@pytest.mark.parametrize("value", ["false", "true", 0, 2, None])
def test_architecture_known_that_is_not_a_bool_exits_3_before_training(
        workspace, capsys, no_work, value):
    cfg = base_config(workspace, **COMMAND_CONFIG["attack"],
                      threat_model={"model_access": "white_box", "architecture_known": value})
    assert main(["attack", "--config", write_config(workspace, cfg)]) == 3
    err = capsys.readouterr().err
    assert (f"error: threat_model.architecture_known: architecture_known must be true or "
            f"false, got {value!r}" in err.splitlines())
    assert "Traceback" not in err and not (workspace / "results").exists()


def test_architecture_known_bool_is_written_to_every_report(workspace):
    for known in (True, False):
        cfg = base_config(workspace, attack={"attacks": ["loss_threshold"], "t_runs": 8},
                          threat_model={"architecture_known": known})
        assert main(["attack", "--config", write_config(workspace, cfg)]) == 0
        doc = json.loads((workspace / "results" / "attack_loss_threshold.json").read_text())
        assert doc["threat_model"]["architecture_known"] is known


# ---------------------------------------------------------------------------
# every number in a config is a JSON number

# the keys of the CLI tables whose values are not numbers
NOT_NUMBER_KEYS = {"schema", "dataset", "out", "trainer", "threat_model", "attack", "audit",
                   "synthesize", "attacks", "target", "kind", "label_column", "dpsgd",
                   "model_kind", "observability", "bug_mode", "mode", "canary"}

# a valid value of every number key, whichever table holds it
VALID_NUMBER = {
    "schema_version": 1, "master_seed": 7, "delta": 0.01, "confidence": 0.9, "t_runs": 20,
    "n_samples": 10, "clip_norm": 1.0, "noise_multiplier": 1.0, "sample_rate": 0.2, "steps": 2,
    "learning_rate": 0.5, "hidden_dim": 4, "init_scale": 0.1, "noise_std": 1.0, "bins": 5,
    "latent_dim": 2, "gen_hidden": 4, "disc_hidden": 4, "gen_lr": 0.05, "trials": 200,
    "audit_delta": 0.1, "slack": 0.5,
}

MARGINAL = {"kind": "marginal", "noise_std": 1.0}

# (error path, table, command, config over base_config, the table's block in a config)
TABLE_BLOCKS = [
    ("config", cli.CONFIG, "train", {}, lambda cfg: cfg),
    ("attack", cli.ATTACK, "attack", {"attack": {"attacks": ["lira"], "t_runs": 8}},
     lambda cfg: cfg["attack"]),
    ("synthesize", cli.SYNTHESIZE, "synthesize", {"trainer": MARGINAL, "synthesize": {}},
     lambda cfg: cfg["synthesize"]),
    ("trainer.dpsgd", cli.DPSGD, "train", {}, lambda cfg: cfg["trainer"]["dpsgd"]),
    *[("trainer", cli.TRAINER[kind], "train", {"trainer": trainer}, lambda cfg: cfg["trainer"])
      for kind, trainer in [("predictive", PREDICTIVE), ("marginal", MARGINAL), ("gan", GAN)]],
    *[("audit", cli.AUDIT[mode], "audit", {"audit": audit}, lambda cfg: cfg["audit"])
      for mode, audit in [("step_mechanism", {"mode": "step_mechanism"}),
                          ("end_to_end", {"mode": "end_to_end", "t_runs": 20})]],
]

NUMBER_CASES = [
    (path, key, value, command, over, block)
    for path, table, command, over, block in TABLE_BLOCKS
    for key in sorted(set(table) - NOT_NUMBER_KEYS)
    # the number as text, both bools, null and a list
    for value in [str(VALID_NUMBER[key]), True, False, None, [VALID_NUMBER[key]]]
]


def test_every_table_key_is_a_number_or_named_otherwise():
    keys = set().union(*(table for _, table, *_ in TABLE_BLOCKS))
    assert NOT_NUMBER_KEYS <= keys and keys - NOT_NUMBER_KEYS <= set(VALID_NUMBER)
    assert len(NUMBER_CASES) == 26 * 5


@pytest.mark.parametrize("path, key, value, command, over, block", NUMBER_CASES,
                         # the audit tables share a path; their mode tells them apart
                         ids=[f"{c[0]}.{c[1]}={c[2]!r}" + (f"-{c[4]['audit']['mode']}"
                                                           if "audit" in c[4] else "")
                              for c in NUMBER_CASES])
def test_a_number_key_given_anything_but_a_number_exits_3_before_any_work(
        workspace, capsys, no_work, path, key, value, command, over, block):
    cfg = base_config(workspace, **json.loads(json.dumps(over)))
    block(cfg)[key] = value
    assert main([command, "--config", write_config(workspace, cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}.{key}: ") and " must be " in err, err
    assert "Traceback" not in err and not (workspace / "results").exists()


def test_an_int_number_is_written_as_given(workspace):
    cfg = _step_audit_config(workspace, 1, "none")
    cfg["audit"]["trials"] = 200
    cfg["trainer"]["dpsgd"]["sample_rate"] = 1
    assert main(["audit", "--config", write_config(workspace, cfg)]) == 0
    provenance = json.loads((workspace / "results" / "audit.json").read_text())["provenance"]
    assert [provenance[k] for k in ("sample_rate", "clip_norm")] == [1, 1.0]
    assert [type(provenance[k]) for k in ("sample_rate", "clip_norm")] == [int, float]


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
    # of its 20,001 ROC rows the report holds those of the hull, +inf first
    hull = json.loads((out / "audit.json").read_text())["report"]["roc_hull"]
    assert 2 < len(hull) < 200
    assert hull[0] == ["unbounded", 0.0, 0.0] and hull[-1][1:] == [1.0, 1.0]


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


@pytest.mark.parametrize("name, body", [
    ("attack_x.json", "[]"),
    ("attack_x.json", "{not json"),
    ("attack_x.json", "\u00ff"),
    ("accountant.json", "{not json"),
    ("accountant.json", "[1]"),
    ("audit_x.json", '"text"'),
    ("audit_x.json", None),  # a directory
])
def test_report_lists_foreign_files_as_missing(tmp_path, capsys, name, body):
    if body is None:
        (tmp_path / name).mkdir()
    else:
        (tmp_path / name).write_text(body, encoding="latin-1")
    assert main(["report", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["missing"] == [name]
    assert doc["attacks"] == [] and doc["audits"] == []
    assert "Traceback" not in capsys.readouterr().err


def test_report_prints_absent_numbers_as_dash(tmp_path):
    (tmp_path / "accountant.json").write_text(json.dumps({"claimed": "none"}))
    (tmp_path / "attack_y.json").write_text(json.dumps(
        {"attack": "y", "operating_points": [{"target_fpr": "low"}, 3]}))
    (tmp_path / "audit.json").write_text(json.dumps({"status": "pass", "claimed": []}))
    assert main(["report", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert lines[1].split() == ["y", "-", "-", "-", "-"]
    assert lines[2].split() == ["-", "-", "-", "-", "-", "pass"]
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["missing"] == []
    assert doc["attacks"][0]["auc"] is None and doc["audits"][0]["claimed_epsilon"] is None


def test_report_low_fpr_point_is_smallest_target_fpr(tmp_path):
    def op(name, target_fpr, eps):
        return {"name": name, "target_fpr": target_fpr, "eps_point": eps, "eps_lower": eps}
    doc = {"attack": "lira", "auc": 0.5, "operating_points": [
        op("fpr<=0.01", 0.01, 3.0), op("fpr<=0.1", 0.1, 2.0), op("median", None, 1.0)]}
    (tmp_path / "attack_lira.json").write_text(json.dumps(doc))
    assert main(["report", "--out", str(tmp_path)]) == 0
    row = json.loads((tmp_path / "summary.json").read_text())["attacks"][0]
    assert row["eps_point"] == 3.0 and row["eps_lower"] == 3.0


def test_integral_float_counts_convert(workspace):
    # 3.0 steps and 4.0 hidden units train the model 3 and 4 do, byte for byte
    outputs = []
    for steps, hidden in ((3, 4), (3.0, 4.0)):
        trainer = PREDICTIVE | {"model_kind": "mlp", "hidden_dim": hidden,
                                "dpsgd": DPSGD | {"steps": steps}}
        out = workspace / f"results-{steps}"
        cfg = base_config(workspace, trainer=trainer, out=str(out))
        assert main(["train", "--config", write_config(workspace, cfg)]) == 0
        outputs.append([(out / f).read_bytes() for f in ("model.params", "accountant.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["train", "synthesize", "attack", "audit"])
def test_degenerate_marginal_exits_3(workspace, capsys, command):
    # noise this large zeroes every cell of column y after clamping in the
    # fit at master seed 13, and in some shadow run of 20
    cfg = base_config(workspace, master_seed=13, trainer={"kind": "marginal", "noise_std": 1e6})
    cfg["attack"] = {"attacks": ["dcr"], "t_runs": 20}
    cfg["audit"] = {"mode": "end_to_end", "t_runs": 20}
    assert main([command, "--config", write_config(workspace, cfg)]) == 3
    err = capsys.readouterr().err
    assert "error: trainer: degenerate marginal for column 'y': all cells zero" in err
    assert "Traceback" not in err
    assert not (workspace / "results").exists()


# ---------------------------------------------------------------------------
# what the reports mean, pinned

def _step_audit_config(ws, seed, bug_mode):
    return {"master_seed": seed, "out": str(ws / "results"),
            "trainer": {"dpsgd": {"clip_norm": 1.0, "noise_multiplier": 1.0, "sample_rate": 1.0,
                                  "steps": 1, "learning_rate": 1.0, "bug_mode": bug_mode}},
            "audit": {"mode": "step_mechanism", "trials": 20000}}


# case: (config of the workspace, the commands run in turn, their exit codes)
MEANING_CASES = {
    **{f"step audit {bug} seed {seed}": (
        functools.partial(_step_audit_config, seed=seed, bug_mode=bug), ["audit", "report"],
        [code, 0])
       for seed in (1, 2, 3) for bug, code in (("none", 0), ("no_per_sample_clipping", 1))},
    "end_to_end audit": (lambda ws: base_config(
        ws, audit={"mode": "end_to_end", "t_runs": 20}), ["train", "audit", "report"], [0, 0, 0]),
    "predictive attacks": (lambda ws: base_config(
        ws, attack={"attacks": ["loss_threshold", "lira"], "t_runs": 24}),
        ["train", "attack", "report"], [0, 0, 0]),
    "marginal attacks": (lambda ws: base_config(
        ws, trainer={"kind": "marginal", "noise_std": 1.0},
        attack={"attacks": ["dcr", "groundhog"], "t_runs": 20, "n_samples": 30}),
        ["train", "attack", "report"], [0, 0, 0]),
    "gan attack": (lambda ws: base_config(
        ws, trainer={"kind": "gan", "dpsgd": DPSGD_ALL_KEYS, "steps": 2},
        threat_model={"model_access": "white_box"},
        attack={"attacks": ["disc_loss"], "t_runs": 20}),
        ["train", "attack", "report"], [0, 0, 0]),
}

# sha256 of _meaning for each case, as the reports that wrote every ROC row
# under "roc" (schema_version 1) gave it
PINNED_MEANING = {
    "end_to_end audit":
        "39a80802ce134cd723ffe603cf2af42eec918f28e5ff164d92873dc3d94cc1cc",
    "gan attack":
        "b73a3f541bf092db6e5aeeddb91abf9057a9b19891faf11a78a45d85ccc95d7d",
    "marginal attacks":
        "72a3b0ff02154d8543b9f2e8cda5c45a9281b85f64fcf4e63e8f5b25bfa9aa1f",
    "predictive attacks":
        "ddb655eae4eb2ff882df797109f950ac64b9e250c8b842bbba1b1752177ba441",
    "step audit no_per_sample_clipping seed 1":
        "e6d1a6daa125e2b675fdbd541153fab99684d33fc583f275b6154b1026eb2c3f",
    "step audit no_per_sample_clipping seed 2":
        "c4d868253bf5c9fe8f8d7a7644d8df72e46a841af4c3728182b68c36e5a13bff",
    "step audit no_per_sample_clipping seed 3":
        "828a8035ead0963bdf7f0899162721c2049f377b8bb5cc9548b09b267200bd63",
    "step audit none seed 1":
        "ae0667fd462e1787875b5348743c9eb3f20fb807f662ac33488af403b5b13469",
    "step audit none seed 2":
        "3c0e875a1db3901346342fdc7e7df87a998ce0b3449c26e3c9798b28dbdb3e73",
    "step audit none seed 3":
        "14d80b6ff7a11bcf011cb1ebb1083b4e840685251af6ed4d2ddce40cccc9ef81",
}


def _meaning(out, codes) -> str:
    """The sha256 of what the reports in out mean: the exit codes; of each
    attack and audit report its status, bound, operating points and AUC; and
    the bytes of the ROC files, accountant.json and summary.json."""
    m = {"exit codes": codes}
    for p in sorted(out.iterdir()):
        if p.suffix == ".json" and p.name.startswith(("attack_", "audit")):
            doc = json.loads(p.read_text())
            report = doc.get("report", doc)
            m[p.name] = {"status": doc.get("status"),
                         "measured_lower_bound": doc.get("measured_lower_bound"),
                         "operating_point": doc.get("operating_point"),
                         "auc": report["auc"], "operating_points": report["operating_points"]}
        elif p.name.endswith("_roc.csv") or p.name in ("accountant.json", "summary.json"):
            m[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return hashlib.sha256(json.dumps(m, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(MEANING_CASES))
def test_reports_keep_their_meaning(workspace, case):
    build, commands, want = MEANING_CASES[case]
    path = write_config(workspace, build(workspace))
    codes = [main([command, "--config", path]) for command in commands]
    assert codes == want
    assert _meaning(workspace / "results", codes) == PINNED_MEANING[case]
