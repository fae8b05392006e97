import functools
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privaudit import attacks, models
from privaudit import data as data_mod
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
    groundhog_features,
    min_gower_distance,
    report_to_json_dict,
    save_report,
    save_roc_csv,
    write_json,
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
from privaudit.shadow import (
    FIXED_DATASET,
    RESAMPLED_DATASET,
    FeatureBundle,
    ThreatModel,
    query_features,
    run_shadow_experiment,
)
from privaudit.synthesizers import (
    GanTrainer,
    MarginalSynthSpec,
    MarginalTrainer,
    gan_spec_for_schema,
)


def pred_bundle(losses, bits):
    return FeatureBundle(
        mode="pred_loss",
        features=np.asarray(losses, dtype=np.float64),
        bits=np.asarray(bits, dtype=int),
        target=(0.0,),
        schema=None,
    )


def synth_bundle(datasets, bits, target, schema):
    """A bundle of datasets of one length, as run-axis arrays."""
    return FeatureBundle(
        mode="synth_dataset",
        features=tuple(np.stack(c) for c in zip(*(ds.columns for ds in datasets))),
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
    fb = FeatureBundle(mode="disc_loss", features=np.array([1.0, 2.0]),
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
    assert sc.indices.dtype.kind == "i"
    assert len(sc.indices) == len(sc.scores) == 8
    assert all(b == bits[i] for i, b in zip(sc.indices, sc.bits))


# ---------------------------------------------------------------------------
# dcr

def gower_distance(schema: Schema, a, b) -> float:
    """Mean over columns: |delta|/range for numeric, 0/1 mismatch for
    categorical. One pair of records at a time, the oracle of
    min_gower_distance."""
    total = 0.0
    for col, va, vb in zip(schema.columns, a, b):
        if isinstance(col, NumericColumn):
            total += abs(va - vb) / (col.hi - col.lo)
        else:
            total += 0.0 if int(va) == int(vb) else 1.0
    return total / len(schema.columns)


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
    miss = Dataset.from_rows(cat4_schema, [(1, 0, 1, 0)] * 2)
    fb = synth_bundle([hit, miss], [1, 0], target, cat4_schema)
    sc = attack_dcr(fb)
    assert sc.scores[0] == 0.0
    assert sc.scores[0] > sc.scores[1]


def test_dcr_empty_dataset_errors(cat4_schema):
    fb = synth_bundle([Dataset.from_rows(cat4_schema, [])] * 8, [1, 0] * 4, (0, 0, 0, 0),
                      cat4_schema)
    # groundhog, which reads the same arrays, refuses them too
    for attack in (attack_dcr, attack_groundhog):
        with pytest.raises(ValueError, match="empty synthetic dataset"):
            attack(fb)
    with pytest.raises(ValueError, match="empty synthetic dataset"):
        min_gower_distance(cat4_schema, (0, 0, 0, 0), Dataset.from_rows(cat4_schema, []))


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
    fb = FeatureBundle(mode="disc_loss", features=np.full(8, 0.7),
                       bits=np.array([1, 0] * 4), target=(), schema=None)
    assert evaluate(attack_disc_loss(fb), delta=0.0).auc == pytest.approx(0.5)


def test_disc_loss_separating():
    fb = FeatureBundle(mode="disc_loss", features=np.array([0.1, 0.9, 0.2, 0.8]),
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

    roc, points = [(math.inf, 0.0, 0.0)], [(0, 0)]
    for t in np.unique(scores)[::-1]:
        c = counts_at(float(t))
        roc.append((float(t), *rates(c)))
        points.append((c.fp, c.tp))
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
                        confidence=confidence, auc=auc, roc=np.array(roc),
                        hull=np.array(_chain_hull(points), dtype=np.intp),
                        operating_points=tuple(ops), n_runs=len(bits))


def _chain_hull(points):
    """Andrew's monotone chain over every point, in Python ints: the indices
    of the upper hull's vertices of points sorted by (x, y), a point on an
    edge left out."""
    hull = []
    for i, (x, y) in enumerate(points):
        while len(hull) > 1:
            (ox, oy), (ax, ay) = points[hull[-2]], points[hull[-1]]
            if (ax - ox) * (y - ay) < (ay - oy) * (x - ax):
                break
            hull.pop()
        hull.append(i)
    return hull


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
    assert got.hull.tolist() == ref.hull.tolist()
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
    assert doc["schema_version"] == 2
    assert "roc" not in doc
    # infinities render as a JSON-safe marker
    assert doc["roc_hull"] == [["unbounded", 0.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    assert any(op["eps_point"] == "unbounded" for op in doc["operating_points"])
    save_roc_csv(tmp_path / "r.csv", rep)
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert len(lines) == 1 + len(rep.roc)


def _hull_points(steps):
    """The integer ROC points of steps: from (0, 0), step k adds steps[k] =
    (negatives, positives) runs, as one threshold of the sweep does."""
    x = np.cumsum([0] + [neg for neg, _ in steps]).astype(np.int64)
    y = np.cumsum([0] + [pos for _, pos in steps]).astype(np.int64)
    return x, y


# a run that is concave but for one steep last segment: each pruning pass
# finds only the point before that segment to drop
_CONCAVE_THEN_STEEP = [(1, k) for k in range(60, 0, -1)] + [(1, 10_000)]


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
                      min_size=1, max_size=80))
@example(steps=[(3, 5)])  # all scores equal
@example(steps=[(0, 5), (4, 0)])  # perfect separation
@example(steps=[(4, 0), (0, 5)])  # inverted separation
@example(steps=[(0, 1)] * 20 + [(1, 0)] + [(0, 1)] * 20)  # one negative
@example(steps=_CONCAVE_THEN_STEEP)
@example(steps=[(1, 1)] * 50)  # every point on one chord
# one pass drops one point of five, and the chain then meets points on a hull edge
@example(steps=[(1, 3), (1, 1), (0, 2), (3, 3), (2, 1), (3, 0)])
def test_upper_hull_matches_monotone_chain(steps):
    x, y = _hull_points(steps)
    want = _chain_hull(list(zip(x.tolist(), y.tolist())))
    assert attacks._upper_hull(x, y).tolist() == want


def test_upper_hull_of_a_long_concave_run_ending_steep():
    steps = [(1, k) for k in range(5000, 0, -1)] + [(1, 10**9)]
    x, y = _hull_points(steps)
    assert attacks._upper_hull(x, y).tolist() == [0, len(steps)]
    steps[-1] = (1, 0)  # without the steep segment every point is a vertex
    x, y = _hull_points(steps)
    assert attacks._upper_hull(x, y).tolist() == list(range(len(steps) + 1))


def _runs_of(steps):
    """Scored runs whose sweep takes the steps of _hull_points: step k's runs
    share the k-th highest score."""
    bits = [b for neg, pos in steps for b in [0] * neg + [1] * pos]
    scores = [-float(k) for k, (neg, pos) in enumerate(steps) for _ in range(neg + pos)]
    return ScoredRuns(bits=np.array(bits), scores=np.array(scores), attack="x")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # median of ~1e308
@settings(max_examples=100, deadline=None)
@given(scored=_scored_runs())
@example(scored=_runs_of([(3, 5)]))
@example(scored=_runs_of([(0, 5), (4, 0)]))
@example(scored=_runs_of([(4, 0), (0, 5)]))
@example(scored=_runs_of(_CONCAVE_THEN_STEEP))
@example(scored=ScoredRuns(bits=np.array([1, 0, 1, 0]),
                           scores=np.array([-0.0, 0.0, 0.0, -0.0]), attack="x"))
def test_written_hull_rows_are_rows_of_the_roc(tmp_path_factory, scored):
    rep = evaluate(scored, 1e-3)
    assert rep.hull.tolist() == _reference_evaluate(scored, 1e-3, 0.95, ()).hull.tolist()
    path = tmp_path_factory.mktemp("hull") / "r.json"
    save_report(path, rep)
    rows = json.loads(path.read_text())["roc_hull"]
    assert rows[0] == ["unbounded", 0.0, 0.0]
    assert rows[-1][1:] == [1.0, 1.0]
    written = [[math.inf if v == "unbounded" else v for v in row] for row in rows]
    # bit-equal, in ROC order, to the rows evaluate chose
    assert _bits_of(written) == _bits_of(rep.roc[rep.hull])
    roc_rows = {_bits_of(row) for row in rep.roc}
    assert all(_bits_of(row) in roc_rows for row in written)
    assert np.all(np.diff(rep.hull) > 0)


_GROUP_VALUES = (-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0, 5e-324)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_score_groups_equal_searchsorted_of_unique(data):
    value = st.sampled_from(_GROUP_VALUES) | st.floats(allow_nan=True, allow_infinity=True)
    pool = data.draw(st.lists(value, min_size=1, max_size=8))
    scores = np.array(data.draw(st.lists(st.sampled_from(pool), max_size=40)), dtype=np.float64)
    want = np.searchsorted(np.unique(scores), scores)
    assert attacks._score_groups(scores).tolist() == want.tolist()


def _stdlib_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


# signed zeros, subnormals, and the neighbours of 1e-4 and 1e16, where
# float.__repr__ switches between positional and exponent notation
_FLOAT_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-4,
                 9.999999999999999e-05, 1.0000000000000002e-04, 1e16,
                 9999999999999998.0, 1.0000000000000002e16, -1e16, 0.5, 1.0, math.nan)

_JSON_TEXT = st.text() | st.sampled_from(["", "\x00", "a\x00b", "],\x00[", "], [", "]", '"]'])
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
                 | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(_FLOAT_VALUES)
                 | _JSON_TEXT)
_ROWS = st.lists(_JSON_SCALARS, max_size=4) | st.lists(_JSON_SCALARS, max_size=4).map(tuple)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | st.lists(_ROWS, max_size=12),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=30)


@given(doc=_JSON_DOCS)
@settings(max_examples=300, deadline=None)
def test_write_json_bytes_equal_stdlib_indent_2(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("wj") / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == _stdlib_bytes(doc)


def test_long_roc_writes_its_hull_and_every_csv_row(tmp_path):
    rng = np.random.default_rng(28)
    bits = np.repeat([0, 1], 10_000)
    rep = evaluate(ScoredRuns(bits=bits, scores=rng.normal(size=bits.size) + bits,
                              attack="x"), delta=1e-3)
    assert rep.roc.shape == (20_001, 3)
    save_report(tmp_path / "r.json", rep)
    doc = json.loads((tmp_path / "r.json").read_text())
    assert 2 < len(doc["roc_hull"]) == len(rep.hull) < 200
    save_roc_csv(tmp_path / "r.csv", rep)
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 1 + len(rep.roc)


def test_saved_report_is_its_json_dict(tmp_path):
    # ties and a signed-zero score included
    rng = np.random.default_rng(21)
    n = 4000
    scores = np.round(rng.normal(size=n), 3)
    scores[:2] = (-0.0, 0.0)
    rep = evaluate(ScoredRuns(bits=np.arange(n) % 2, scores=scores, attack="x"), delta=1e-3)
    assert rep.roc.shape == (len(np.unique(scores)) + 1, 3) and rep.roc.dtype == np.float64
    save_report(tmp_path / "r.json", rep)
    doc = report_to_json_dict(rep)
    assert json.loads((tmp_path / "r.json").read_text()) == doc
    assert (tmp_path / "r.json").read_bytes() == _stdlib_bytes(doc)


def test_write_json_rejects_non_str_keys(tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "k.json", {"a": {1: 2}})
    with pytest.raises(TypeError):
        write_json(tmp_path / "k.json", {"a": [({"b": 1}, {2: 3})]})


# ---------------------------------------------------------------------------
# features on run-axis arrays against the per-run references

def min_gower_per_run(schema, target, ds):
    """The per-run reference for one synthetic dataset."""
    acc = np.zeros(len(ds), dtype=np.float64)
    for col, vals, v in zip(schema.columns, ds.columns, target):
        if isinstance(col, NumericColumn):
            acc += np.abs(vals - v) / (col.hi - col.lo)
        else:
            acc += (vals != int(v)).astype(np.float64)
    return float(acc.min()) / len(schema.columns)


def groundhog_features_per_run(ds, include_correlations=False):
    """The per-run reference for one synthetic dataset."""
    feats, numeric = [], []
    for col, vals in zip(ds.schema.columns, ds.columns):
        if isinstance(col, NumericColumn):
            feats += [float(vals.mean()), float(np.median(vals)), float(vals.var())]
            numeric.append(vals)
        else:
            feats += (np.bincount(vals, minlength=len(col.levels)) / len(ds)).tolist()
    if include_correlations and len(numeric) > 1:
        # only the pairs of a constant column have no correlation; they read 0
        with np.errstate(divide="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            c = np.corrcoef(np.stack(numeric))
        feats += np.nan_to_num(c[np.triu_indices(len(numeric), k=1)]).tolist()
    return np.array(feats, dtype=np.float64)


def test_correlations_zero_only_the_pairs_of_a_constant_column():
    schema = Schema(tuple(NumericColumn(name, 0.0, 10.0) for name in "abc"))
    ds = Dataset(schema, ([1, 2, 3, 4], [2, 4, 6, 8.1], [5, 5, 5, 5]))
    corr = groundhog_features(ds, include_correlations=True)[9:]
    assert corr[0] == pytest.approx(0.9999, abs=1e-4) and corr[0] < 1.0
    assert corr[1:].tolist() == [0.0, 0.0]
    assert attacks._correlations(np.stack(ds.columns)).tobytes() == corr.tobytes()


MIXED = Schema((
    NumericColumn("x", -2.0, 6.0),
    CategoricalColumn("c", ("p", "q", "r")),
    NumericColumn("y", 0.0, 1.0),
    NumericColumn("z", -1.0, 1.0),
))


@st.composite
def synthetic_runs(draw):
    """Run-axis columns of MIXED, read-only, and a chunk size in cells that
    gives chunks of one run, of a few runs with a short last chunk, or of
    every run."""
    t_runs = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 19]))
    n = draw(st.sampled_from([1, 2, 7, 8, 33, 300]))
    chunk_cells = draw(st.sampled_from([1, 3 * n, data_mod.RUN_CHUNK_CELLS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    runs = []
    for _ in range(t_runs):
        # few distinct values: ties, repeated medians and constant columns
        y = rng.choice([0.0, 0.25, 1.0], size=n) if rng.random() < 0.3 else rng.random(n)
        runs.append((rng.uniform(-2, 6, n), rng.integers(0, 3, n), y,
                     np.full(n, -0.5) if rng.random() < 0.3 else rng.uniform(-1, 1, n)))
    columns = tuple(np.stack(c) for c in zip(*runs))
    for c in columns:
        c.setflags(write=False)
    return columns, chunk_cells


@settings(max_examples=60, deadline=None)
@given(case=synthetic_runs(), corr=st.booleans())
def test_run_axis_features_bit_equal_to_per_run(case, corr):
    columns, chunk_cells = case
    target = (0.5, 1, 0.25, 0.0)
    runs = [Dataset(MIXED, tuple(c[r] for c in columns)) for r in range(len(columns[0]))]
    # the one-run cases against the per-run references, then the run-axis
    # values against the one-run cases
    want = np.stack([groundhog_features(ds, corr) for ds in runs])
    want_dcr = [min_gower_distance(MIXED, target, ds) for ds in runs]
    assert [w.tobytes() for w in want] == [
        groundhog_features_per_run(ds, corr).tobytes() for ds in runs]
    assert want_dcr == [min_gower_per_run(MIXED, target, ds) for ds in runs]

    fb = FeatureBundle(mode="synth_dataset", features=columns,
                       bits=np.arange(len(runs)) % 2, target=target, schema=MIXED)
    with mock.patch.object(data_mod, "RUN_CHUNK_CELLS", chunk_cells):
        got = attacks._groundhog(MIXED, columns, corr)
        assert got.tobytes() == want.tobytes()
        if len(runs) < 2:
            return
        assert attack_dcr(fb).scores.tobytes() == np.array([-d for d in want_dcr]).tobytes()
        if len(runs) >= 8:
            cfg = GroundhogConfig(steps=5, include_correlations=corr)
            with mock.patch.object(attacks, "_groundhog", lambda schema, cols, c: want):
                want_scores = groundhog_scores_generic(fb, cfg)
            assert attack_groundhog(fb, cfg).scores.tobytes() == want_scores.tobytes()


# ---------------------------------------------------------------------------
# groundhog's row medians and fit against their generic references

@st.composite
def median_rows(draw):
    """A (runs, n) array: rows of distinct values, of ties, or constant,
    some holding NaN or ±inf, and a chunk size in cells that hands the rows
    out one, a few or all at a time."""
    n = draw(st.sampled_from([1, 2, 3, 8, 999, 1000]))
    runs = draw(st.integers(1, 9))
    chunk_cells = draw(st.sampled_from([1, 3 * n, data_mod.RUN_CHUNK_CELLS]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rows = []
    for _ in range(runs):
        kind = rng.integers(0, 3)
        if kind == 0:  # near overflow and subnormal magnitudes included
            with np.errstate(over="ignore"):
                row = rng.normal(size=n) * rng.choice([1.0, 1e308, 1e-310])
        elif kind == 1:  # ties, zeros of both signs among them
            row = rng.choice([-1.5, -0.0, 0.0, 0.25, 3.0], size=n)
        else:
            row = np.full(n, rng.choice([-2.0, 0.0, 7.5]))
        for special in (np.nan, np.inf, -np.inf):
            if rng.random() < 0.2:
                row[rng.integers(0, n, size=rng.integers(1, 3))] = special
        rows.append(row)
    return np.stack(rows), chunk_cells


@settings(max_examples=150, deadline=None)
@given(case=median_rows())
@example(case=(np.array([[np.nan, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]]), 8))
@example(case=(np.array([[1.0, np.inf, -np.inf]]), 3))
@example(case=(np.array([[1.7e308, 1.6e308], [5e-324, 5e-324]]), 2))  # sum, then halve
def test_row_medians_equal_np_median(case):
    vals, chunk_cells = case
    vals.setflags(write=False)  # as run-axis features are
    with mock.patch.object(data_mod, "RUN_CHUNK_CELLS", chunk_cells):
        chunks = data_mod.run_chunks(*vals.shape)
    for chunk in chunks:
        view = vals[chunk]  # the row views _groundhog reads
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf, overflow
            want = np.median(view, axis=1)
            got = attacks._row_medians(view)
        assert np.array_equal(got, want, equal_nan=True)
        # bit for bit, but for the sign of a zero median, which np.median
        # leaves unspecified too (see _row_medians)
        number = ~np.isnan(want) & (want != 0)
        assert got[number].tobytes() == want[number].tobytes()


def groundhog_scores_generic(fb, cfg):
    """The reference: groundhog's scores from the generic gradient path,
    models.batch_gradient_factors(...).weighted_sum(ones) per step."""
    cal = attacks._split_stratified(fb.bits, cfg.holdout_fraction)
    feats = attacks._groundhog(fb.schema, fb.features, cfg.include_correlations)
    mu = feats[cal].mean(axis=0)
    sd = np.maximum(feats[cal].std(axis=0), 1e-8)
    z = (feats - mu) / sd
    spec = models.ModelSpec(kind=models.LOGISTIC, input_dim=z.shape[1], num_classes=2,
                            init_scale=0.0)
    params = models.init_params(spec)
    x, y = z[cal], fb.bits[cal]
    ones = np.ones(len(y))
    for _ in range(cfg.steps):
        g = models.batch_gradient_factors(spec, params, x, y).weighted_sum(ones)
        params = params - cfg.learning_rate * (g / len(y))
    logits = models.forward_logits(spec, params, z[~cal])
    return logits[:, 1] - logits[:, 0]


@functools.cache
def generative_bundle(kind, knowledge):
    rng = np.random.default_rng(11)
    pool = Dataset.from_rows(MIXED, [
        (float(rng.uniform(-2, 6)), int(rng.integers(0, 3)), float(rng.random()),
         float(rng.uniform(-1, 1))) for _ in range(40)])
    if kind == "marginal":
        trainer = MarginalTrainer(MarginalSynthSpec(noise_std=2.0), schema=MIXED)
    else:
        trainer = GanTrainer(gan_spec_for_schema(MIXED, latent_dim=2, gen_hidden=4,
                                                 disc_hidden=4, steps=3))
    coll = run_shadow_experiment((5.5, 2, 0.95, -0.9), pool, trainer,
                                 ThreatModel(data_knowledge=knowledge), 24, 3)
    return query_features(coll, "synth_dataset", {"n_samples": 30})


@pytest.mark.parametrize("kind", ["marginal", "gan"])
@pytest.mark.parametrize("knowledge", [FIXED_DATASET, RESAMPLED_DATASET])
@pytest.mark.parametrize("steps", [0, 1, 5, 300])
@pytest.mark.parametrize("lr", [0.05, 0.5, 1, 3.0])
@pytest.mark.parametrize("corr", [False, True])
def test_groundhog_fit_bit_equal_to_generic_path(kind, knowledge, steps, lr, corr):
    fb = generative_bundle(kind, knowledge)
    cfg = GroundhogConfig(steps=steps, learning_rate=lr, include_correlations=corr)
    got = attack_groundhog(fb, cfg).scores
    assert got.tobytes() == groundhog_scores_generic(fb, cfg).tobytes()
