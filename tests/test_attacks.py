import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privaudit.attacks import (
    AttackReport,
    GroundhogConfig,
    OperatingPoint,
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
from privaudit.core_stats import (
    ConfusionCounts,
    GdpParam,
    effective_epsilon_lower_bound,
    effective_epsilon_point,
    error_rates,
    gdp_epsilon_of_delta,
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


def _reference_evaluate(scored, delta, confidence, operating_points):
    """Per-threshold recount: at each distinct score, count the runs scored at
    or above it. O(n^2), kept as the oracle for evaluate's cumulative counts."""
    bits, scores = scored.bits, scored.scores

    def counts_at(thr):
        pred = scores >= thr
        return ConfusionCounts(
            tp=int(np.sum(pred & (bits == 1))), fp=int(np.sum(pred & (bits == 0))),
            tn=int(np.sum(~pred & (bits == 0))), fn=int(np.sum(~pred & (bits == 1))))

    def rates(c):
        return c.fp / (c.fp + c.tn), c.tp / (c.tp + c.fn)

    roc = [(math.inf, 0.0, 0.0)]
    for t in np.unique(scores)[::-1]:
        roc.append((float(t), *rates(counts_at(float(t)))))
    auc = float(np.trapezoid([p[2] for p in roc], [p[1] for p in roc]))
    ops = []
    for op in operating_points:
        if op == "median":
            thr, name, target = float(np.median(scores)), "median", None
        else:
            target = float(op)
            ok = [p for p in roc[1:] if p[1] <= target]
            thr = min(p[0] for p in ok) if ok else math.inf
            name = f"fpr<={target:g}"
        c = counts_at(thr)
        fpr, tpr = rates(c)
        ops.append(OperatingPoint(
            name=name, threshold=thr, counts=c, fpr=fpr, tpr=tpr,
            eps_point=effective_epsilon_point(error_rates(c), delta),
            eps_lower=effective_epsilon_lower_bound(c, delta, confidence),
            target_fpr=target))
    return AttackReport(attack=scored.attack, threat_model=None, delta=delta,
                        confidence=confidence, auc=auc, roc=tuple(roc),
                        operating_points=tuple(ops), n_runs=len(bits))


# signed zeros, extreme magnitudes and subnormals, drawn from a small pool so
# that ties are common
_SPECIAL_SCORES = (-0.0, 0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e-300,
                   1e300, -1e300, 1.7976931348623157e308)


@st.composite
def _scored_runs(draw):
    n = draw(st.integers(2, 60))
    value = st.one_of(st.sampled_from(_SPECIAL_SCORES),
                      st.floats(allow_nan=False, allow_infinity=False))
    pool = draw(st.lists(value, min_size=1, max_size=n))
    scores = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    n_pos = draw(st.integers(1, n - 1))  # unbalanced classes included
    bits = draw(st.permutations([1] * n_pos + [0] * (n - n_pos)))
    return ScoredRuns(bits=np.array(bits), scores=np.array(scores), attack="x")


def _bits_of(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # median of ~1e308
@settings(max_examples=200, deadline=None)
@given(scored=_scored_runs(),
       ops=st.lists(st.one_of(st.just("median"), st.floats(-0.1, 1.1)),
                    min_size=1, max_size=4))
@example(scored=ScoredRuns(bits=np.array([1, 0, 1, 0]),
                           scores=np.array([-0.0, 0.0, 0.0, -0.0]), attack="x"),
         ops=["median", 0.5, 0.0])
@example(scored=ScoredRuns(bits=np.array([0, 1, 0]),
                           scores=np.array([0.0, -0.0, 1.0]), attack="x"),
         ops=["median", 0.01])
@example(scored=ScoredRuns(bits=np.array([1, 0]), scores=np.array([3.0, 3.0]),
                           attack="x"),
         ops=["median", 0.1, 0.01])
def test_evaluate_matches_per_threshold_recount(scored, ops):
    got = evaluate(scored, 1e-3, 0.95, operating_points=tuple(ops))
    ref = _reference_evaluate(scored, 1e-3, 0.95, tuple(ops))
    # bit-equal, signed zeros included: the representative threshold of a
    # -0.0/0.0 tie is whichever np.unique keeps
    assert _bits_of(got.roc) == _bits_of(ref.roc)
    assert _bits_of([got.auc]) == _bits_of([ref.auc])
    assert len(got.operating_points) == len(ref.operating_points)
    for g, r in zip(got.operating_points, ref.operating_points):
        assert (g.name, g.counts, g.target_fpr) == (r.name, r.counts, r.target_fpr)
        assert (_bits_of([g.threshold, g.fpr, g.tpr, g.eps_point, g.eps_lower])
                == _bits_of([r.threshold, r.fpr, r.tpr, r.eps_point, r.eps_lower]))
    assert json.dumps(report_to_json_dict(got)) == json.dumps(report_to_json_dict(ref))


def test_evaluate_low_fpr_bound_covers_exact_gdp_curve():
    """Monte Carlo coverage: scores from an exact mu-GDP pair (out ~ N(0,1),
    in ~ N(mu,1)) have true eps(delta) = gdp_epsilon_of_delta(mu, delta), so a
    valid lower bound may exceed it in at most 1 - confidence of repetitions."""
    rng = np.random.default_rng(20241)
    confidence, delta, n, reps = 0.95, 0.01, 1000, 300
    bits = np.repeat([0, 1], n)
    for mu in (0.5, 1.0, 3.0):
        eps_true = gdp_epsilon_of_delta(GdpParam(mu), delta)
        lower = np.empty(reps)
        for r in range(reps):
            scores = rng.standard_normal(2 * n) + mu * bits
            rep = evaluate(ScoredRuns(bits=bits, scores=scores, attack="gdp"),
                           delta, confidence)
            op = min((op for op in rep.operating_points if op.target_fpr is not None),
                     key=lambda op: op.target_fpr)
            lower[r] = op.eps_lower
        exceed = float(np.mean(lower > eps_true))
        # half the allowed rate: a bound that is only just valid fails here
        assert exceed <= (1.0 - confidence) / 2, (mu, exceed)
    # the bound is not vacuous: a strong signal yields a clearly positive bound
    assert np.median(lower) > 2.0


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
