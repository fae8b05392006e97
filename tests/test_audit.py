import json
import math
import statistics
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from privaudit import audit as audit_mod, dpsgd
from privaudit.attacks import attack_dcr, attack_groundhog
from privaudit.audit import (
    AffineCost,
    audit_end_to_end,
    audit_step_mechanism,
    default_record_canary,
    estimate_mia_cost,
    exit_code,
    save_verdict,
    verdict_to_json_dict,
)
from privaudit.core_stats import GdpParam, gdp_epsilon_of_delta
from privaudit.data import CategoricalColumn, Dataset, NumericColumn, Schema
from privaudit.dpsgd import (
    _TAG_NOISE,
    BugMode,
    DpSgdConfig,
    PredictiveTrainer,
    _stream,
    noisy_aggregate,
)
from privaudit.seeds import derive_seed
from privaudit.shadow import (
    FIXED_DATASET,
    RESAMPLED_DATASET,
    ThreatModel,
    query_features,
    run_shadow_experiment,
)
from privaudit.synthesizers import MarginalSynthSpec, MarginalTrainer


def step_config(bug_mode=BugMode.NONE, sigma=1.0, sample_rate=0.1):
    return DpSgdConfig(clip_norm=1.0, noise_multiplier=sigma,
                       sample_rate=sample_rate, steps=1, learning_rate=0.1,
                       bug_mode=bug_mode)


# ---------------------------------------------------------------------------
# canaries

def test_canary_validation():
    with pytest.raises(ValueError, match="unit"):
        audit_step_mechanism(step_config(), direction=np.array([1.0, 1.0]), trials=200)
    # the default direction is the first basis vector of R^dim
    default = audit_step_mechanism(step_config(), trials=200, dim=5)
    e0 = audit_step_mechanism(step_config(), direction=[1.0, 0, 0, 0, 0], trials=200)
    assert verdict_to_json_dict(default) == verdict_to_json_dict(e0)


def test_default_record_canary():
    sch = Schema((
        NumericColumn("x", -3.0, 7.0),
        CategoricalColumn("c", ("a", "b", "z")),
    ))
    assert default_record_canary(sch) == (7.0, 2)
    ds = Dataset.from_rows(sch, [(0.0, 0), (1.0, 0), (2.0, 1), (3.0, 1), (4.0, 1)])
    # level "z" never occurs, so it is the rarest
    assert default_record_canary(sch, ds) == (7.0, 2)
    ds2 = Dataset.from_rows(sch, [(0.0, 0), (1.0, 1), (2.0, 1), (3.0, 2), (4.0, 2)])
    assert default_record_canary(sch, ds2) == (7.0, 0)


# ---------------------------------------------------------------------------
# cost estimator

def test_cost_estimate_exact():
    est = estimate_mia_cost(1000, 100, AffineCost(slope=1.0), AffineCost(slope=1.0))
    assert est.total == 100_100_000
    assert est.unit_cost_train == 1000
    assert est.unit_cost_attack == 100


def test_cost_estimate_t_zero():
    est = estimate_mia_cost(50, 0, AffineCost(slope=2.0), AffineCost(intercept=7.0))
    assert est.total == 50 * 7.0


def test_cost_estimate_quadratic_scaling():
    def total(n):
        return estimate_mia_cost(n, 10, AffineCost(slope=1.0), AffineCost()).total
    assert total(2000) / total(1000) == pytest.approx(4.0)


def test_cost_negative_coefficients():
    with pytest.raises(ValueError, match="non-negative"):
        AffineCost(slope=-1.0)


# ---------------------------------------------------------------------------
# step-mechanism audit

def test_step_audit_correct_passes():
    for seed in range(3):
        v = audit_step_mechanism(step_config(), trials=2000, delta=0.1,
                                 master_seed=seed)
        assert v.status == "pass"
        assert v.passed == (v.measured_lower_bound <= v.claimed.epsilon)


def test_step_audit_claim_oracle():
    v = audit_step_mechanism(step_config(sigma=1.5), trials=200, delta=0.05)
    mu = math.sqrt(math.exp(1.0 / 1.5**2) - 1.0)
    assert v.claimed.epsilon == pytest.approx(
        gdp_epsilon_of_delta(GdpParam(mu), 0.05), rel=1e-9)


@pytest.mark.parametrize("bug", [
    BugMode.NO_PER_SAMPLE_CLIPPING,
    BugMode.STATIC_NOISE,
    BugMode.NOISE_NOT_SCALED_TO_BATCH,
    BugMode.NO_NOISE,
])
def test_step_audit_flags_bug(bug):
    v = audit_step_mechanism(step_config(bug_mode=bug), trials=2000, delta=0.1,
                             master_seed=1)
    assert v.status == "fail"
    assert v.measured_lower_bound > v.claimed.epsilon


def test_step_audit_deterministic():
    a = audit_step_mechanism(step_config(), trials=400, delta=0.1, master_seed=9)
    b = audit_step_mechanism(step_config(), trials=400, delta=0.1, master_seed=9)
    assert a.measured_lower_bound == b.measured_lower_bound
    assert a.operating_point == b.operating_point
    assert verdict_to_json_dict(a) == verdict_to_json_dict(b)


@pytest.mark.parametrize("bug", list(BugMode))
def test_step_audit_batched_statistics_match_per_trial_loop(bug, monkeypatch):
    """Every trial's statistic equals one noisy_aggregate call on that trial's
    own batch, and does not depend on how many trials run alongside it."""
    rng = np.random.default_rng(5)
    dim, n_base, scale, seed = 6, 40, 7.0, 11
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)  # a unit canary off every axis
    base = rng.normal(size=(n_base, dim)) * rng.uniform(0.1, 5.0, size=(n_base, 1))
    cfg = step_config(bug_mode=bug, sample_rate=0.25)

    scored_runs = []
    evaluate = audit_mod.evaluate

    def capture(scored, *args, **kwargs):
        scored_runs.append(scored)
        return evaluate(scored, *args, **kwargs)

    monkeypatch.setattr(audit_mod, "evaluate", capture)
    for trials in (100, 257):
        audit_step_mechanism(cfg, direction, trials=trials, base_gradients=base,
                             canary_scale=scale, master_seed=seed)

    # reference: the per-trial loop, one full aggregation per trial, whose
    # noise is row t of one (trials, dim) draw of the mechanism's stream
    mech = replace(cfg, seed=derive_seed(seed, "mechanism"))
    with_canary = np.vstack([base, scale * cfg.clip_norm * direction])
    std = mech.noise_multiplier * mech.clip_norm

    def statistic(bit, noise_row):
        raw = with_canary if bit else base
        draw = SimpleNamespace(normal=lambda loc, scale, size: noise_row.reshape(size))
        with monkeypatch.context() as m:
            m.setattr(dpsgd, "_stream", lambda *key: draw)
            update, _, _, _ = noisy_aggregate(raw, len(raw), mech, n_base, step=0)
        return (update * direction).sum()

    for scored in scored_runs:
        noise = _stream(mech.seed, _TAG_NOISE, 0).normal(0.0, std, size=(len(scored.bits), dim))
        if bug == BugMode.STATIC_NOISE:
            noise[:] = noise[0]  # every trial replays the first one's draw
        ref = np.array([statistic(b, noise[t]) for t, b in enumerate(scored.bits)])
        assert scored.scores.tobytes() == ref.tobytes()
    short, long = scored_runs
    same = short.bits == long.bits[:100]
    assert short.scores[same].tobytes() == long.scores[:100][same].tobytes()


def test_step_audit_trials_are_uncorrelated(monkeypatch):
    """Adjacent trials draw disjoint noise, so an off-axis statistic shows no
    lag-1 correlation (it read 0.41 when trial t drew at Philox counter t)."""
    scored_runs = []
    evaluate = audit_mod.evaluate

    def capture(scored, *args, **kwargs):
        scored_runs.append(scored)
        return evaluate(scored, *args, **kwargs)

    monkeypatch.setattr(audit_mod, "evaluate", capture)
    audit_step_mechanism(step_config(), np.ones(8) / math.sqrt(8), trials=20_000,
                         master_seed=1)
    stats = scored_runs[0].scores
    assert abs(np.corrcoef(stats[:-1], stats[1:])[0, 1]) < 0.05


def test_step_audit_preconditions():
    with pytest.raises(ValueError, match="trials"):
        audit_step_mechanism(step_config(), trials=50)
    with pytest.raises(ValueError, match="noise_multiplier"):
        audit_step_mechanism(step_config(sigma=0.0), trials=200)


# ---------------------------------------------------------------------------
# end-to-end audit

@pytest.fixture
def flag_pool():
    sch = Schema((
        CategoricalColumn("flag", ("common", "rare")),
        CategoricalColumn("y", ("a", "b")),
    ))
    rng = np.random.default_rng(0)
    rows = [(0, int(rng.integers(2))) for _ in range(100)]
    return Dataset.from_rows(sch, rows)


def e2e_trainer(bug_mode=BugMode.NONE, sigma=3.0):
    cfg = DpSgdConfig(clip_norm=1.0, noise_multiplier=sigma, sample_rate=1.0,
                      steps=2, learning_rate=5.0, bug_mode=bug_mode)
    return PredictiveTrainer(label_column="y", config=cfg, init_scale=0.0)


FLAG_CANARY = (1, 1)


def test_e2e_correct_passes(flag_pool):
    v = audit_end_to_end(e2e_trainer(), flag_pool, FLAG_CANARY,
                         t_runs=60, master_seed=3)
    assert v.status == "pass"


def test_e2e_no_noise_fails(flag_pool):
    v = audit_end_to_end(e2e_trainer(BugMode.NO_NOISE), flag_pool, FLAG_CANARY,
                         t_runs=100, master_seed=3)
    assert v.status == "fail"
    assert v.report.auc == pytest.approx(1.0)


def test_e2e_measured_monotone_in_sigma(flag_pool):
    totals = []
    for sigma in (0.5, 1.0, 2.0):
        ms = [
            audit_end_to_end(e2e_trainer(sigma=sigma), flag_pool, FLAG_CANARY,
                             t_runs=60, master_seed=seed).measured_lower_bound
            for seed in range(6)
        ]
        totals.append(sum(ms))
    assert totals[0] >= totals[1] >= totals[2]


def test_e2e_generative_path(flag_pool):
    tr = MarginalTrainer(MarginalSynthSpec(noise_std=2.0), schema=flag_pool.schema)
    v = audit_end_to_end(tr, flag_pool, FLAG_CANARY, t_runs=24, master_seed=2)
    assert v.audit == "end_to_end"
    assert v.provenance["attack"] == "dcr+groundhog"
    assert math.isfinite(v.measured_lower_bound)


@pytest.mark.parametrize("knowledge", [FIXED_DATASET, RESAMPLED_DATASET])
def test_generative_score_is_the_max_of_standardized_dcr_and_groundhog(knowledge):
    sch = Schema((NumericColumn("x", 0.0, 1.0), CategoricalColumn("y", ("a", "b"))))
    rng = np.random.default_rng(4)
    pool = Dataset.from_rows(sch, [(float(u), int(u > 0.5)) for u in rng.uniform(size=60)])
    tr = MarginalTrainer(MarginalSynthSpec(noise_std=2.0), schema=sch)
    coll = run_shadow_experiment((1.0, 1), pool, tr, ThreatModel(data_knowledge=knowledge), 24, 6)
    fb = query_features(coll, "synth_dataset", {"n_samples": 20})
    d, g = attack_dcr(fb), attack_groundhog(fb)
    got = audit_mod._generative_scores(fb)

    def z(scores):
        v = scores.tolist()
        mean, sd = statistics.fmean(v), statistics.pstdev(v)
        return [(x - mean) / (sd if sd > 0 else 1.0) for x in v]

    # groundhog scores only its evaluation split, which is not a prefix of
    # the runs, so each run's DCR score is found by its run index
    assert len(set(d.scores.tolist())) > 2
    assert g.indices.tolist() != list(range(len(g.indices)))
    dz, gz = z(d.scores), z(g.scores)
    dcr_position = {int(i): k for k, i in enumerate(d.indices)}
    want = [max(dz[dcr_position[int(i)]], gz[k]) for k, i in enumerate(g.indices)]
    assert got.attack == "dcr+groundhog"
    assert got.indices.tolist() == g.indices.tolist()
    assert got.bits.tolist() == [int(coll.bits[i]) for i in g.indices]
    assert got.scores.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_e2e_deterministic(flag_pool):
    a = audit_end_to_end(e2e_trainer(), flag_pool, FLAG_CANARY, t_runs=30,
                         master_seed=5)
    b = audit_end_to_end(e2e_trainer(), flag_pool, FLAG_CANARY, t_runs=30,
                         master_seed=5, workers=4)
    assert verdict_to_json_dict(a) == verdict_to_json_dict(b)


def test_e2e_preconditions(flag_pool):
    with pytest.raises(ValueError, match="t_runs"):
        audit_end_to_end(e2e_trainer(), flag_pool, FLAG_CANARY, t_runs=10)


@pytest.mark.parametrize("slack", [-1.0, math.nan, math.inf])
def test_bad_slack_rejected_before_any_run(flag_pool, monkeypatch, slack):
    def no_run(*args, **kwargs):
        raise AssertionError("an audit ran with a bad slack")

    monkeypatch.setattr(audit_mod, "evaluate", no_run)
    monkeypatch.setattr(audit_mod, "run_shadow_experiment", no_run)
    with pytest.raises(ValueError, match="slack must be a finite number >= 0"):
        audit_step_mechanism(step_config(), trials=200, slack=slack)
    with pytest.raises(ValueError, match="slack must be a finite number >= 0"):
        audit_end_to_end(e2e_trainer(), flag_pool, FLAG_CANARY, t_runs=30, slack=slack)


# ---------------------------------------------------------------------------
# verdicts and exit codes

def test_verdict_serialization(tmp_path):
    v = audit_step_mechanism(step_config(), trials=200, delta=0.1, master_seed=0)
    save_verdict(tmp_path / "v.json", v)
    doc = json.loads((tmp_path / "v.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["audit"] == "step_mechanism"
    assert doc["passed"] is True
    assert doc["report"]["attack"] == "step_mechanism"
    # the nested report's ROC array is written as verdict_to_json_dict gives it
    assert doc == verdict_to_json_dict(v)
    assert (tmp_path / "v.json").read_text() == \
        json.dumps(verdict_to_json_dict(v), sort_keys=True, indent=2) + "\n"


def test_exit_codes(flag_pool):
    ok = audit_step_mechanism(step_config(), trials=400, delta=0.1, master_seed=0)
    assert exit_code(ok) == 0
    bad = audit_step_mechanism(step_config(bug_mode=BugMode.NO_NOISE),
                               trials=400, delta=0.1, master_seed=0)
    assert exit_code(bad) == 1
    # a generous slack downgrades the failure to inconclusive
    mid = audit_step_mechanism(step_config(bug_mode=BugMode.NO_NOISE),
                               trials=400, delta=0.1, master_seed=0, slack=100.0)
    assert mid.status == "inconclusive"
    assert exit_code(mid) == 2
