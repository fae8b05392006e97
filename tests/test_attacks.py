import json
import math

import numpy as np
import pytest

from privaudit.attacks import (
    AttackReport,
    GroundhogConfig,
    ScoredRuns,
    attack_dcr,
    attack_disc_loss,
    attack_groundhog,
    attack_lira,
    attack_loss_threshold,
    evaluate,
    gower_distance,
    groundhog_features,
    min_gower_distance,
    report_to_json_dict,
    save_report,
    save_roc_csv,
)
from privaudit.data import CategoricalColumn, Dataset, NumericColumn, Schema
from privaudit.shadow import FeatureBundle


def pred_bundle(losses, bits):
    return FeatureBundle(
        mode="pred_loss",
        features=tuple(float(v) for v in losses),
        bits=np.asarray(bits, dtype=int),
        target=(0.0,),
        schema=None,
    )


def synth_bundle(datasets, bits, target, schema):
    return FeatureBundle(
        mode="synth_dataset",
        features=tuple(datasets),
        bits=np.asarray(bits, dtype=int),
        target=target,
        schema=schema,
    )


# ---------------------------------------------------------------------------
# ScoredRuns invariants

def test_scored_runs_validation():
    with pytest.raises(ValueError, match="finite"):
        ScoredRuns(bits=[0, 1], scores=[0.0, np.nan], attack="x")
    with pytest.raises(ValueError, match="classes"):
        ScoredRuns(bits=[1, 1], scores=[0.0, 1.0], attack="x")
    with pytest.raises(ValueError, match="equal length"):
        ScoredRuns(bits=[0, 1], scores=[0.0], attack="x")


# ---------------------------------------------------------------------------
# loss threshold

def test_loss_threshold_all_equal_auc_half():
    fb = pred_bundle([2.0] * 10, [1, 0] * 5)
    rep = evaluate(attack_loss_threshold(fb), delta=0.0)
    assert rep.auc == pytest.approx(0.5)


def test_loss_threshold_separating_auc_one():
    bits = [1] * 5 + [0] * 5
    losses = [0.1, 0.2, 0.3, 0.4, 0.5, 1.1, 1.2, 1.3, 1.4, 1.5]
    rep = evaluate(attack_loss_threshold(pred_bundle(losses, bits)), delta=0.0)
    assert rep.auc == pytest.approx(1.0)


def test_loss_threshold_monotone_transform_invariant():
    rng = np.random.default_rng(0)
    losses = rng.exponential(size=30)
    bits = ([0, 1] * 15)[:30]
    a = attack_loss_threshold(pred_bundle(losses, bits))
    b = attack_loss_threshold(pred_bundle(np.expm1(losses) * 3 + 1, bits))
    assert np.array_equal(np.argsort(a.scores), np.argsort(b.scores))


def test_loss_threshold_wrong_mode():
    fb = FeatureBundle(mode="disc_loss", features=(1.0, 2.0),
                       bits=np.array([0, 1]), target=(), schema=None)
    with pytest.raises(ValueError, match="pred_loss"):
        attack_loss_threshold(fb)


# ---------------------------------------------------------------------------
# lira

def test_lira_identical_calibration_scores_zero():
    bits = [1, 0] * 6
    sc = attack_lira(pred_bundle([3.0] * 12, bits))
    assert np.allclose(sc.scores, 0.0)
    assert evaluate(sc, delta=0.0).auc == pytest.approx(0.5)


def test_lira_separated_gaussians_auc():
    rng = np.random.default_rng(7)
    bits = np.array([1, 0] * 100)
    losses = np.where(bits == 1, rng.normal(0, 1, 200), rng.normal(10, 1, 200))
    rep = evaluate(attack_lira(pred_bundle(losses, bits)), delta=0.0)
    assert rep.auc > 0.99
    assert rep.n_runs == 100  # evaluation split only


def test_lira_variance_floor():
    # identical calibration losses within each group must not divide by zero
    bits = [1, 1, 1, 1, 0, 0, 0, 0]
    losses = [1.0, 1.0, 5.0, 4.0, 2.0, 2.0, 3.0, 6.0]
    sc = attack_lira(pred_bundle(losses, bits))
    assert np.all(np.isfinite(sc.scores))


def test_lira_too_few_runs():
    with pytest.raises(ValueError, match="too few"):
        attack_lira(pred_bundle([1.0] * 6, [1, 0] * 3))


def test_lira_indices_cover_evaluation_split():
    bits = [1, 0] * 8
    sc = attack_lira(pred_bundle(np.arange(16.0), bits))
    assert len(sc.indices) == len(sc.scores) == 8
    assert all(b == bits[i] for i, b in zip(sc.indices, sc.bits))


# ---------------------------------------------------------------------------
# dcr

@pytest.fixture
def cat4_schema():
    return Schema(tuple(CategoricalColumn(f"c{i}", ("a", "b")) for i in range(4)))


def test_gower_hand_value(cat4_schema):
    assert gower_distance(cat4_schema, (0, 0, 0, 0), (1, 0, 0, 0)) == pytest.approx(0.25)


def test_gower_symmetric_and_bounded():
    sch = Schema((
        NumericColumn("x", -2.0, 6.0),
        CategoricalColumn("c", ("p", "q", "r")),
        NumericColumn("y", 0.0, 1.0),
    ))
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = (rng.uniform(-2, 6), int(rng.integers(3)), rng.uniform())
        b = (rng.uniform(-2, 6), int(rng.integers(3)), rng.uniform())
        d = gower_distance(sch, a, b)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(gower_distance(sch, b, a))
        assert gower_distance(sch, a, a) == 0.0


def test_min_gower_matches_scalar(cat4_schema):
    rng = np.random.default_rng(5)
    rows = [tuple(int(v) for v in rng.integers(2, size=4)) for _ in range(30)]
    ds = Dataset.from_rows(cat4_schema, rows)
    target = (0, 1, 0, 1)
    expect = min(gower_distance(cat4_schema, target, r) for r in rows)
    assert min_gower_distance(cat4_schema, target, ds) == pytest.approx(expect)


def test_dcr_target_present_max_score(cat4_schema):
    target = (0, 1, 0, 1)
    hit = Dataset.from_rows(cat4_schema, [(1, 1, 1, 1), target])
    miss = Dataset.from_rows(cat4_schema, [(1, 0, 1, 0)])
    fb = synth_bundle([hit, miss], [1, 0], target, cat4_schema)
    sc = attack_dcr(fb)
    assert sc.scores[0] == 0.0
    assert sc.scores[0] > sc.scores[1]


def test_dcr_empty_dataset_errors(cat4_schema):
    fb = synth_bundle(
        [Dataset.from_rows(cat4_schema, []), Dataset.from_rows(cat4_schema, [(0, 0, 0, 0)])],
        [1, 0], (0, 0, 0, 0), cat4_schema)
    with pytest.raises(ValueError, match="empty"):
        attack_dcr(fb)


# ---------------------------------------------------------------------------
# groundhog

@pytest.fixture
def num_schema():
    return Schema((NumericColumn("x", 0.0, 100.0),))


def make_shifted_bundle(num_schema, n_runs=24, lo=30.0, hi=70.0, sd=1.0, seed=0):
    rng = np.random.default_rng(seed)
    bits = np.array([1, 0] * (n_runs // 2))
    datasets = []
    for b in bits:
        mean = hi if b else lo
        vals = np.clip(rng.normal(mean, sd, size=20), 0, 100)
        datasets.append(Dataset.from_rows(num_schema, [(float(v),) for v in vals]))
    return synth_bundle(datasets, bits, (50.0,), num_schema)


def test_groundhog_planted_shift(num_schema):
    rep = evaluate(attack_groundhog(make_shifted_bundle(num_schema)), delta=0.0)
    assert rep.auc > 0.99


def test_groundhog_feature_length():
    sch = Schema((
        NumericColumn("x", 0.0, 1.0),
        CategoricalColumn("c", ("a", "b", "z")),
        NumericColumn("y", 0.0, 1.0),
    ))
    ds = Dataset.from_rows(sch, [(0.5, 0, 0.25), (0.75, 2, 0.5)])
    assert groundhog_features(ds).size == 3 + 3 + 3
    assert groundhog_features(ds, include_correlations=True).size == 3 + 3 + 3 + 1


def test_groundhog_row_order_invariant(num_schema):
    vals = [(float(v),) for v in np.linspace(1, 99, 17)]
    a = groundhog_features(Dataset.from_rows(num_schema, vals))
    b = groundhog_features(Dataset.from_rows(num_schema, list(reversed(vals))))
    assert np.allclose(a, b)


def test_groundhog_too_few_runs(num_schema):
    fb = make_shifted_bundle(num_schema, n_runs=6)
    with pytest.raises(ValueError, match="too few"):
        attack_groundhog(fb)


# ---------------------------------------------------------------------------
# disc loss

def test_disc_loss_equal_scores_auc_half():
    fb = FeatureBundle(mode="disc_loss", features=(0.7,) * 8,
                       bits=np.array([1, 0] * 4), target=(), schema=None)
    assert evaluate(attack_disc_loss(fb), delta=0.0).auc == pytest.approx(0.5)


def test_disc_loss_separating():
    fb = FeatureBundle(mode="disc_loss", features=(0.1, 0.9, 0.2, 0.8),
                       bits=np.array([1, 0, 1, 0]), target=(), schema=None)
    assert evaluate(attack_disc_loss(fb), delta=0.0).auc == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_random_scores():
    rng = np.random.default_rng(11)
    sc = ScoredRuns(bits=np.array([0, 1] * 200),
                    scores=rng.normal(size=400), attack="rand")
    rep = evaluate(sc, delta=0.0, confidence=0.95)
    assert abs(rep.auc - 0.5) < 0.05
    assert all(op.eps_lower == 0.0 for op in rep.operating_points)


def test_evaluate_perfect_separation_oracle():
    bits = np.array([1] * 100 + [0] * 100)
    scores = bits.astype(float)
    rep = evaluate(ScoredRuns(bits=bits, scores=scores, attack="sep"),
                   delta=0.0, confidence=0.95)
    op = rep.operating_points[-1]  # fpr<=0.01 picks the separating threshold
    assert op.counts.tp == 100 and op.counts.tn == 100
    assert math.isinf(op.eps_point)
    # oracle: exact arithmetic chain through the one-sided CP limit for 0/100
    # at budget (1-0.95)/2: upper limit a = 1 - 0.025^(1/100) for both rates
    a = 1.0 - 0.025 ** (1.0 / 100)
    assert op.eps_lower == pytest.approx(math.log((1.0 - a) / a), rel=1e-9)


def test_evaluate_reversed_scores_auc_symmetry():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=60)  # continuous, ties have probability zero
    bits = np.array([0, 1] * 30)
    a = evaluate(ScoredRuns(bits=bits, scores=scores, attack="x"), delta=0.0)
    b = evaluate(ScoredRuns(bits=bits, scores=-scores, attack="x"), delta=0.0)
    assert a.auc + b.auc == pytest.approx(1.0, abs=1e-9)


def test_evaluate_roc_monotone_and_bounded():
    rng = np.random.default_rng(4)
    sc = ScoredRuns(bits=rng.integers(2, size=50) | np.array([1] + [0] * 49),
                    scores=rng.normal(size=50), attack="x")
    rep = evaluate(sc, delta=0.0)
    fprs = [p[1] for p in rep.roc]
    tprs = [p[2] for p in rep.roc]
    assert all(0.0 <= v <= 1.0 for v in fprs + tprs)
    assert fprs == sorted(fprs)
    assert tprs == sorted(tprs)


def test_evaluate_cp_bound_never_exceeds_point():
    rng = np.random.default_rng(9)
    for trial in range(30):
        n = int(rng.integers(4, 40)) * 2
        bits = np.array([0, 1] * (n // 2))
        sc = ScoredRuns(bits=bits, scores=rng.normal(size=n), attack="x")
        rep = evaluate(sc, delta=0.0)
        for op in rep.operating_points:
            assert op.eps_lower <= op.eps_point


def test_evaluate_operating_point_respects_fpr_budget():
    rng = np.random.default_rng(13)
    bits = np.array([0, 1] * 100)
    sc = ScoredRuns(bits=bits, scores=rng.normal(size=200) + bits, attack="x")
    rep = evaluate(sc, delta=0.0, operating_points=("median", 0.2, 0.05))
    for op in rep.operating_points[1:]:
        assert op.fpr <= op.target_fpr
        # no lower threshold would have stayed within the budget
        lower = [p for p in rep.roc if p[0] < op.threshold]
        assert all(p[1] > op.target_fpr for p in lower)


# ---------------------------------------------------------------------------
# serialization

def test_report_json_and_csv(tmp_path):
    bits = np.array([1] * 20 + [0] * 20)
    rep = evaluate(ScoredRuns(bits=bits, scores=bits.astype(float), attack="sep"),
                   delta=1e-3)
    save_report(tmp_path / "r.json", rep)
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["attack"] == "sep"
    assert doc["schema_version"] == 1
    # infinities render as a JSON-safe marker
    assert doc["roc"][0][0] == "unbounded"
    assert any(op["eps_point"] == "unbounded" for op in doc["operating_points"])
    save_roc_csv(tmp_path / "r.csv", rep)
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert len(lines) == 1 + len(rep.roc)
