import itertools
import math
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privaudit import attacks, dpsgd, models, synthesizers
from privaudit.data import CategoricalColumn, Dataset, NumericColumn, Schema
from privaudit.dpsgd import (
    _TAG_NOISE,
    _TAG_SAMPLE,
    BugMode,
    DpSgdConfig,
    PredictiveTrainer,
    clip_and_sum,
    clip_per_sample,
    features_and_labels,
    train,
    train_lockstep,
    _poisson_rows,
    _stream,
    _update,
)
from privaudit.models import LOGISTIC, MLP, GradientFactors, ModelSpec, init_params, n_params
from privaudit.shadow import FeatureBundle


def cfg(**kw):
    base = dict(clip_norm=1.0, noise_multiplier=1.0, sample_rate=0.5,
                steps=5, learning_rate=0.1, seed=3)
    base.update(kw)
    return DpSgdConfig(**base)


def one_step(spec, params, x, y, config, n_total, step):
    """One DP-SGD step of one run through _update, in fresh arrays: (new
    params, grad_sum, noise, max_sample_norm), each without the run axis."""
    out = _update(spec, params[None], np.asarray(x, dtype=np.float64)[None],
                  np.asarray(y, dtype=int)[None], [len(y)], config, [n_total], step,
                  [config.seed], None)
    return tuple(a[0] for a in out)


@pytest.fixture
def toy_xy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] > 0).astype(int)
    return x, y


# ---------------------------------------------------------------------------
# counter-based streams

def fresh_stream(seed, tag, counter):
    key = np.array([seed % 2**64, tag], dtype=np.uint64)
    words = np.array([0, counter, 0, 0], dtype=np.uint64)  # the counter in word 1
    return np.random.Generator(np.random.Philox(key=key, counter=words))


def draw(gen, kind, size):
    if kind == "uint32":  # half-word draws leave a buffered uint32 behind on odd sizes
        return gen.integers(0, 2**32, size=size, dtype=np.uint32)
    return getattr(gen, kind)(size=size)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), tag=st.integers(0, 2**64 - 1),
       counter=st.integers(0, 2**64 - 1), size=st.integers(0, 40).map(lambda k: 2 * k + 1),
       kind=st.sampled_from(["random", "normal", "uint32"]))
def test_stream_draws_equal_a_fresh_philox(seed, tag, counter, size, kind):
    assert np.array_equal(draw(_stream(seed, tag, counter), kind, size),
                          draw(fresh_stream(seed, tag, counter), kind, size))


def test_interleaved_streams_do_not_corrupt_each_other():
    # each call re-seats the shared generator; a stream left mid-block or with
    # a buffered half word must not leak into the next one
    calls = [(1, _TAG_NOISE, 0, "uint32", 3), (2, _TAG_SAMPLE, 5, "random", 7),
             (1, _TAG_NOISE, 0, "normal", 5), (2**64 - 1, _TAG_NOISE, 1, "uint32", 1),
             (2, _TAG_SAMPLE, 5, "random", 7), (1, _TAG_NOISE, 0, "uint32", 3)]
    for seed, tag, counter, kind, size in calls:
        assert np.array_equal(draw(_stream(seed, tag, counter), kind, size),
                              draw(fresh_stream(seed, tag, counter), kind, size))


def test_consecutive_step_streams_share_no_values():
    for tag in (_TAG_NOISE, _TAG_SAMPLE):
        a = _stream(7, tag, 0).normal(size=12)
        b = _stream(7, tag, 1).normal(size=12)
        assert not np.isin(b, a).any()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 3000),
       rate=st.floats(1e-4, 1.0, exclude_max=True))
def test_poisson_rows_are_sorted_distinct_rows(seed, n, rate):
    rows = _poisson_rows(_stream(seed, _TAG_SAMPLE, 0), n, rate)
    assert rows.ndim == 1 and np.all(np.diff(rows) > 0)
    assert rows.size == 0 or (rows[0] >= 0 and rows[-1] < n)


def test_poisson_rows_at_rate_one_keep_every_row():
    for n in (0, 1, 57):
        assert np.array_equal(_poisson_rows(_stream(3, _TAG_SAMPLE, 0), n, 1.0), np.arange(n))


def test_poisson_rows_top_up_a_short_first_draw():
    class UnitGaps:  # every gap 1: each draw covers only as many rows as it has gaps
        calls = 0

        def geometric(self, p, size):
            self.calls += 1
            return np.ones(size, dtype=np.int64)

    gen = UnitGaps()
    assert np.array_equal(_poisson_rows(gen, 500, 0.05), np.arange(500))
    assert gen.calls > 1


def test_poisson_rows_draw_the_sampling_rate():
    n, rate = 1000, 0.3
    counts = np.zeros(n)
    for step in range(2000):
        counts[_poisson_rows(_stream(5, _TAG_SAMPLE, step), n, rate)] += 1
    # each row's inclusion count is Binomial(2000, 0.3): std about 20.5
    assert abs(counts.mean() / 2000 - rate) < 0.003
    assert np.all(np.abs(counts - 600) < 6 * 20.5)


@pytest.mark.parametrize("rate", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("short", [False, True])
def test_block_rows_equal_poisson_rows_run_by_run(monkeypatch, rate, short):
    if short:  # first draws of 3 gaps: every run but the one-row one is topped up
        monkeypatch.setattr(dpsgd, "_first_draw", lambda n, rate: 3)
    seeds = [3, 2**64 - 1, 17, 99, 5]
    n_total = [1, 57, 2000, 2001, 300]
    for step in (0, 7):
        rows, sizes = dpsgd._block_rows(seeds, n_total, rate, step)
        assert rows.shape[0] == len(seeds)
        for k, (s, n) in enumerate(zip(seeds, n_total)):
            want = _poisson_rows(_stream(s, _TAG_SAMPLE, step), n, rate)
            assert sizes[k] == len(want) and rows[k, : len(want)].tobytes() == want.tobytes()
            assert np.all(rows[k, len(want) :] >= n)


@pytest.mark.parametrize("std", [0.0, 5e-324, 1e-300, 0.75, 1.0, 3.3e7, 1e300])
def test_scaled_standard_draws_equal_normal_bit_for_bit(std):
    # privatize's per-run noise: standard draws into each row, then the block
    # scaled as 0 + std * z, normal(0, std)'s arithmetic operation for operation
    z = _stream(4, _TAG_NOISE, 9).standard_normal(size=5000)
    want = _stream(4, _TAG_NOISE, 9).normal(0.0, std, size=5000)
    assert (0.0 + std * z).tobytes() == want.tobytes()
    config = cfg(noise_multiplier=std, clip_norm=1.0)
    seeds = [8, 2**64 - 1, 0]
    _, noise = dpsgd.privatize(np.zeros((3, 257)), 1, config, 10, step=4, seed=seeds)
    for row, s in zip(noise, seeds):
        assert row.tobytes() == _stream(s, _TAG_NOISE, 4).normal(0.0, std, size=257).tobytes()


def test_privatize_one_stream_fills_rows_with_consecutive_draws():
    config = cfg(noise_multiplier=1.5, clip_norm=0.5)
    _, noise = dpsgd.privatize(np.zeros((5, 3)), 1, config, 10, step=4)
    want = _stream(config.seed, _TAG_NOISE, 4).normal(0.0, 0.75, size=(5, 3))
    assert np.array_equal(noise, want)
    _, first = dpsgd.privatize(np.zeros((2, 3)), 1, config, 10, step=4)
    assert np.array_equal(first, want[:2])
    # per-row seeds: row k is its own stream's first draw
    _, lockstep = dpsgd.privatize(np.zeros((2, 3)), 1, config, 10, step=4, seed=[8, 9])
    for row, s in zip(lockstep, [8, 9]):
        assert np.array_equal(row, _stream(s, _TAG_NOISE, 4).normal(0.0, 0.75, size=3))
    # static noise replays step 0's first row on every row and every step
    static = replace(config, bug_mode=BugMode.STATIC_NOISE)
    _, replayed = dpsgd.privatize(np.zeros((5, 3)), 1, static, 10, step=4)
    row0 = _stream(config.seed, _TAG_NOISE, 0).normal(0.0, 0.75, size=3)
    assert np.array_equal(replayed, np.tile(row0, (5, 1)))


# ---------------------------------------------------------------------------
# clipping

def test_clip_large_gradient():
    g = np.array([3.0, 4.0])  # norm 5
    out = clip_per_sample(g, 2.5)
    assert np.linalg.norm(out) == pytest.approx(2.5)
    assert out == pytest.approx(g / 2.0)


def test_clip_small_gradient_unchanged():
    g = np.array([0.3, 0.4])
    assert clip_per_sample(g, 1.0) == pytest.approx(g)


def test_clip_zero_vector():
    assert np.all(clip_per_sample(np.zeros(4), 1.0) == 0.0)


def dense_clip_and_sum(raw, config, max_norm=True):
    """clip_and_sum on dense gradients as it was before it took factors,
    with its two helpers: the arithmetic the step audit relies on."""
    def row_norms(rows, squares=None):
        return np.sqrt(np.add.reduce(np.multiply(rows, rows, out=squares), axis=-1))

    def weighted_row_sum(rows, weights):
        if rows.shape[-1] < 2:
            return (rows * weights[..., None]).sum(axis=-2)
        return np.einsum("...bp,...b->...p", rows, weights)

    raw = np.asarray(raw, dtype=np.float64)
    c = config.clip_norm
    if config.bug_mode == BugMode.NO_PER_SAMPLE_CLIPPING:
        sums = raw.sum(axis=-2)
        grad_sum = np.reshape([clip_per_sample(g, c) for g in sums.reshape(-1, sums.shape[-1])],
                              sums.shape)
        norms = row_norms(raw) if max_norm else None
    else:
        buffer = np.empty_like(raw)  # the squares, then the clipped rows and theirs
        factors = np.minimum(1.0, c / np.maximum(row_norms(raw, buffer), 1e-300))
        grad_sum = weighted_row_sum(raw, factors)
        norms = None
        if max_norm:
            norms = row_norms(np.multiply(raw, factors[..., None], out=buffer), buffer)
    if norms is None:
        return grad_sum, None
    max_sample_norm = norms.max(axis=-1, initial=0.0)
    return grad_sum, (float(max_sample_norm) if raw.ndim == 2 else max_sample_norm)


def as_bytes(out):
    grad_sum, max_norm = out
    return grad_sum.tobytes(), None if max_norm is None else np.asarray(max_norm).tobytes()


def clipped_terms(raw, config):
    """The magnitudes of the terms a clipped grad_sum adds up, summed per
    column: each row times its own clipping factor, or times the sum's when
    the sum is clipped instead."""
    c = config.clip_norm
    if config.bug_mode == BugMode.NO_PER_SAMPLE_CLIPPING:
        norms = np.linalg.norm(raw.sum(axis=-2), axis=-1)[..., None]
    else:
        norms = np.linalg.norm(raw, axis=-1)
    return np.abs(raw * np.minimum(1.0, c / np.maximum(norms, 1e-300))[..., None]).sum(axis=-2)


@settings(max_examples=200, deadline=None)
@given(bug=st.sampled_from(list(BugMode)), lead=st.integers(0, 3), rows=st.integers(0, 40),
       cols=st.integers(1, 70), max_norm=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_dense_rows_stay_within_tolerance_of_the_dense_arithmetic(bug, lead, rows, cols,
                                                                 max_norm, seed):
    # dense rows are one layer of factors with an empty right factor; its
    # norms and sums take other reduction orders than the dense arithmetic did
    rng = np.random.default_rng(seed)
    shape = (lead,) * (lead > 0) + (rows, cols)
    raw = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape[:-1] + (1,))
    if lead:
        raw[:, rng.integers(0, rows + 1):] = 0.0  # padding rows
    config = cfg(clip_norm=float(rng.choice([1e-3, 1.0, 1e3])), bug_mode=bug)
    got_sum, got_norm = clip_and_sum(raw, config, max_norm)
    want_sum, want_norm = dense_clip_and_sum(raw, config, max_norm)
    assert got_sum.shape == want_sum.shape and np.shape(got_norm) == np.shape(want_norm)
    assert np.all(np.abs(got_sum - want_sum) <= 1e-14 * clipped_terms(raw, config))
    assert (got_norm is None) == (want_norm is None) == (not max_norm)
    if max_norm:
        assert np.all(np.abs(np.subtract(got_norm, want_norm)) <= 1e-14 * np.abs(want_norm))


@pytest.mark.parametrize("bug", list(BugMode))
def test_step_audit_batches_keep_the_dense_arithmetic_bit_for_bit(bug):
    # the step audit's default batches, one -50 C row along the canary
    # direction plus zeros, with and without the canary row: the one path
    # gives them the bits the dense arithmetic did, so step audit reports hold
    for clip, scale, dim in itertools.product([1e-3, 0.7, 1.0, 3.0, 1e3],
                                              [0.5, 1.0, 2.0, 100.0, 1e4], [1, 8, 33]):
        config = cfg(clip_norm=clip, bug_mode=bug)
        base = np.zeros((200, dim))
        base[0, 0] = -50.0 * clip
        canary = np.zeros(dim)
        canary[0] = scale * clip
        for raw in (base, np.vstack([base, canary])):
            for max_norm in (True, False):
                assert as_bytes(clip_and_sum(raw, config, max_norm)) == \
                    as_bytes(dense_clip_and_sum(raw, config, max_norm))


@st.composite
def factored_batch(draw):
    """The gradient factors of a real model on a batch, with or without a run
    axis and padding rows: logistic or MLP, small widths or those of the
    35-feature, 34-hidden WIDE schema, empty and one-row runs."""
    kind = draw(st.sampled_from([LOGISTIC, MLP]))
    d, h, c = draw(st.sampled_from([(2, 3, 2), (5, 4, 3), (35, 34, 3)]))
    spec = ModelSpec(kind, input_dim=d, num_classes=c, hidden_dim=h if kind == MLP else 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.one_of(st.none(), st.lists(st.integers(0, 6), min_size=1, max_size=4)))
    lead = () if sizes is None else (len(sizes),)
    b = draw(st.integers(0, 6)) if sizes is None else max(sizes)
    params = rng.normal(size=lead + (n_params(spec),)) * 10.0 ** rng.integers(-2, 2)
    x = rng.normal(size=lead + (b, d)) * 10.0 ** rng.integers(-3, 4, size=lead + (b, 1))
    y = rng.integers(0, c, size=lead + (b,))
    return models.batch_gradient_factors(spec, params, x, y, sizes)


@settings(max_examples=300, deadline=None)
@given(factors=factored_batch(), bug=st.sampled_from(list(BugMode)),
       clip=st.sampled_from([1e-3, 0.1, 1.0, 10.0, 1e4]))
@example(  # a subnormal left factor: its clipped terms underflow on both paths
    factors=GradientFactors(((np.array([[5.309225e-317, 1.0, -1.0]]),
                              np.array([[358.57141709, -195.27493913, -1303.28026818,
                                         -40.74625012, -612.79362601]])),)),
    bug=BugMode.NONE, clip=1e-3)
def test_factored_clip_and_sum_matches_dense(factors, bug, clip):
    # a sum's rounding error is relative to the sum of its terms' magnitudes
    config = cfg(clip_norm=clip, bug_mode=bug)
    dense = factors.dense()
    got_sum, got_norm = clip_and_sum(factors, config)
    want_sum, want_norm = clip_and_sum(dense, config)
    assert got_sum.shape == want_sum.shape and np.shape(got_norm) == np.shape(want_norm)
    # The relative bound misses underflow: below 2**-1022 a product keeps only
    # an absolute accuracy of 2**-1075, half the least subnormal. A clipped
    # term is (w * left) * right here, where the first rounding error is
    # scaled by |right|, and w * (left * right) on the dense path, w <= 1; with
    # two roundings a side, a term differs by at most 2**-1075 * (|right| + 3)
    # <= 2**-1073 * (|right| + 1). A bias term has right = 1. The dense
    # expansion of the factors with unit left factors lays out those |right|
    # and 1 column by column.
    unit = GradientFactors(tuple((np.ones_like(a), b) for a, b in factors.layers))
    underflow = 2.0 ** -1073 * (np.abs(unit.dense()) + 1.0).sum(axis=-2)
    assert np.all(np.abs(got_sum - want_sum)
                  <= 1e-12 * np.abs(dense).sum(axis=-2) + underflow)
    # below 1.5e-154 a norm's squares are subnormal and lose bits on both paths
    assert np.allclose(got_norm, want_norm, rtol=1e-12, atol=1e-150)
    assert clip_and_sum(factors, config, max_norm=False)[0].tobytes() == got_sum.tobytes()


@pytest.mark.parametrize("bug", [BugMode.NONE, BugMode.NO_NOISE])
def test_clipped_norms_stay_within_the_clip_norm(bug):
    # raw norms from 1e-6 C to 1e6 C, as factors and as a traced step
    c = 0.7
    rng = np.random.default_rng(4)
    scales = np.logspace(-6, 6, 49) * c
    left, right = rng.normal(size=(49, 3)), rng.normal(size=(49, 4))
    left *= (scales / np.sqrt((left ** 2).sum(1) * ((right ** 2).sum(1) + 1)))[:, None]
    factors = GradientFactors(((left, right),))
    assert factors.row_norms() == pytest.approx(scales, rel=1e-12)
    config = cfg(clip_norm=c, bug_mode=bug)
    assert clip_and_sum(factors, config)[1] <= c * (1 + 1e-12)
    assert clip_and_sum(factors.dense(), config)[1] <= c * (1 + 1e-12)
    spec = ModelSpec(LOGISTIC, input_dim=4, num_classes=3, init_scale=0.0)
    x = rng.normal(size=(49, 4)) * (scales / c)[:, None]
    for k in range(0, 49, 7):
        *_, max_norm = one_step(spec, init_params(spec), x[k : k + 7],
                                rng.integers(0, 3, size=7), config, 49, k)
        assert max_norm <= c * (1 + 1e-12)


@pytest.mark.parametrize("bug, kind", [
    *itertools.product(list(BugMode), [LOGISTIC, MLP, "fit_gan"]),
    (BugMode.NONE, "attack_groundhog"),
])
def test_training_never_builds_dense_gradients(toy_xy, monkeypatch, kind, bug):
    def refuse(self):
        raise AssertionError("a gradient step built the dense per-sample gradients")

    monkeypatch.setattr(GradientFactors, "dense", refuse)
    x, y = toy_xy
    if kind == "fit_gan":
        schema = Schema((NumericColumn("x", -5.0, 5.0), CategoricalColumn("c", ("a", "b"))))
        ds = Dataset.from_rows(schema, [(float(v), int(c)) for v, c in zip(x[:, 0], y)])
        spec = synthesizers.gan_spec_for_schema(schema, latent_dim=2, gen_hidden=4,
                                                disc_hidden=4, disc_config=cfg(bug_mode=bug))
        art = synthesizers.fit_gan(ds, spec)
        assert all(np.all(np.isfinite(art.state[k])) for k in ("gen_params", "disc_params"))
    elif kind == "attack_groundhog":
        schema = Schema((NumericColumn("x", -5.0, 5.0),))
        bits = np.arange(24) % 2
        runs = np.stack([x[:, k % 3] + b for k, b in enumerate(bits)])
        fb = FeatureBundle(mode="synth_dataset", features=(runs,), bits=bits,
                           target=(0.0,), schema=schema)
        assert np.all(np.isfinite(attacks.attack_groundhog(fb).scores))
    else:
        spec = ModelSpec(kind, input_dim=3, num_classes=2, hidden_dim=4 if kind == MLP else 0)
        art = train(spec, x, y, cfg(bug_mode=bug), "white_box")
        assert len(art.trace.steps) == 5 and np.all(np.isfinite(art.params))


# ---------------------------------------------------------------------------
# one DP-SGD step

def test_plain_sgd_step_when_no_noise():
    spec = ModelSpec(LOGISTIC, input_dim=2, num_classes=2, seed=1)
    params = init_params(spec)
    config = cfg(noise_multiplier=0.0, bug_mode=BugMode.NO_NOISE,
                 sample_rate=1.0, clip_norm=100.0)
    x = np.array([[1.0, -1.0]])
    y = np.array([1])
    from privaudit.models import per_sample_gradient
    g = per_sample_gradient(spec, params, x[0], 1)
    new, _, noise, _ = one_step(spec, params, x, y, config, 1, 0)
    assert new == pytest.approx(params - 0.1 * g)
    assert noise == pytest.approx(np.zeros(params.size))


def test_empty_batch_is_pure_noise_update():
    spec = ModelSpec(LOGISTIC, input_dim=2, num_classes=2, seed=1)
    params = init_params(spec)
    config = cfg(sample_rate=0.5)
    n_total = 10
    new, grad_sum, noise, _ = one_step(spec, params, np.zeros((0, 2)), np.zeros(0, dtype=int),
                                       config, n_total, 0)
    expected = params - config.learning_rate * noise / (0.5 * n_total)
    assert new == pytest.approx(expected)
    assert np.all(grad_sum == 0.0)


def test_update_noise_std_monte_carlo():
    # over many repetitions with a fixed batch, the per-coordinate noise std
    # of the update matches sigma*C*lr/(p*N) within 3%
    spec = ModelSpec(LOGISTIC, input_dim=2, num_classes=2, init_scale=0.0, seed=1)
    params = init_params(spec)
    n_total, p, sigma, c, lr = 20, 0.5, 1.0, 2.0, 0.3
    reps = 10_000
    updates = np.zeros((reps, params.size))
    for r in range(reps):
        config = cfg(noise_multiplier=sigma, clip_norm=c, sample_rate=p,
                     learning_rate=lr, seed=r)
        new = one_step(spec, params, np.zeros((0, 2)), np.zeros(0, dtype=int),
                       config, n_total, 0)[0]
        updates[r] = new - params
    want = sigma * c * lr / (p * n_total)
    got = updates.std(axis=0)
    assert np.all(np.abs(got - want) / want < 0.03)


def test_static_noise_bug_repeats_step0_noise():
    spec = ModelSpec(LOGISTIC, input_dim=2, num_classes=2, seed=1)
    params = init_params(spec)
    config = cfg(bug_mode=BugMode.STATIC_NOISE)
    empty = np.zeros((0, 2)), np.zeros(0, dtype=int)
    noise0 = one_step(spec, params, *empty, config, 10, 0)[2]
    noise5 = one_step(spec, params, *empty, config, 10, 5)[2]
    assert np.array_equal(noise0, noise5)
    good = cfg(bug_mode=BugMode.NONE, seed=config.seed)
    assert not np.array_equal(noise0, one_step(spec, params, *empty, good, 10, 5)[2])


def test_aggregate_clipping_bug():
    spec = ModelSpec(LOGISTIC, input_dim=1, num_classes=2, init_scale=0.0, seed=1)
    params = init_params(spec)
    # two identical strong samples: per-sample clipping caps each at C, the
    # buggy mode caps the whole aggregate at C
    x = np.array([[1.0], [1.0]])
    y = np.array([1, 1])
    base = cfg(noise_multiplier=0.0, bug_mode=BugMode.NO_NOISE, clip_norm=0.1,
               sample_rate=1.0)
    sum_good = one_step(spec, params, x, y, base, 2, 0)[1]
    assert np.linalg.norm(sum_good) == pytest.approx(0.2, abs=1e-9)
    buggy = replace(base, bug_mode=BugMode.NO_PER_SAMPLE_CLIPPING)
    # NO_PER_SAMPLE_CLIPPING still zeroes no noise here (sigma=0 draws noise):
    sum_bug = one_step(spec, params, x, y, buggy, 2, 0)[1]
    assert np.linalg.norm(sum_bug) <= 0.1 + 1e-9


def test_noise_not_scaled_to_batch_bug():
    spec = ModelSpec(LOGISTIC, input_dim=2, num_classes=2, seed=1)
    params = init_params(spec)
    n_total, p = 100, 0.1
    good = cfg(sample_rate=p, seed=9)
    bug = cfg(sample_rate=p, seed=9, bug_mode=BugMode.NOISE_NOT_SCALED_TO_BATCH)
    # realized batch of 50 >> p*N = 10 shrinks the noise under the bug
    x = np.zeros((50, 2)); y = np.zeros(50, dtype=int)
    spec0 = ModelSpec(LOGISTIC, input_dim=2, num_classes=2, init_scale=0.0, seed=1)
    p0 = init_params(spec0)
    new_g, sum_g, noise_g, _ = one_step(spec0, p0, x, y, good, n_total, 0)
    new_b, sum_b, noise_b, _ = one_step(spec0, p0, x, y, bug, n_total, 0)
    assert np.array_equal(noise_g, noise_b)
    lr = good.learning_rate
    expected_g = p0 - lr * (sum_g + noise_g) / (p * n_total)
    # buggy mode divides only the noise by the realized batch size (50)
    expected_b = p0 - lr * (sum_b / (p * n_total) + noise_b / 50)
    assert new_g == pytest.approx(expected_g, abs=1e-12)
    assert new_b == pytest.approx(expected_b, abs=1e-12)


# ---------------------------------------------------------------------------
# train

def test_train_deterministic(toy_xy):
    x, y = toy_xy
    spec = ModelSpec(LOGISTIC, input_dim=3, num_classes=2, seed=4)
    a = train(spec, x, y, cfg())
    b = train(spec, x, y, cfg())
    assert np.array_equal(a.params, b.params)


def test_train_trace_only_when_white_box(toy_xy):
    x, y = toy_xy
    spec = ModelSpec(LOGISTIC, input_dim=3, num_classes=2, seed=4)
    assert train(spec, x, y, cfg()).trace is None
    art = train(spec, x, y, cfg(), observability="white_box")
    assert art.trace is not None and len(art.trace.steps) == 5


def test_traced_clipped_norms_bounded(toy_xy):
    x, y = toy_xy
    spec = ModelSpec(LOGISTIC, input_dim=3, num_classes=2, seed=4)
    c = 0.05
    art = train(spec, x, y, cfg(clip_norm=c, steps=20), observability="white_box")
    for st in art.trace.steps:
        assert st.max_sample_norm <= c + 1e-9


def test_lockstep_runs_may_differ_only_in_seeds(toy_xy):
    x, y = toy_xy
    spec = ModelSpec(LOGISTIC, input_dim=3, num_classes=2, seed=4)
    rows = [np.arange(40), np.arange(20)]
    arts = train_lockstep([spec, replace(spec, seed=5)], x, y, rows, [cfg(), cfg(seed=8)])
    assert [a.spec.seed for a in arts] == [4, 5]
    with pytest.raises(ValueError, match="only in their seeds"):
        train_lockstep([spec, spec], x, y, rows, [cfg(), cfg(steps=6)])


def test_a_run_with_no_rows_is_refused(toy_xy):
    # the update divides by the expected batch p*N, which is 0 for such a run;
    # an empty batch of a run with rows stays legal
    x, y = toy_xy
    spec = ModelSpec(LOGISTIC, input_dim=3, num_classes=2, seed=4)
    with pytest.raises(ValueError, match="empty dataset"):
        train_lockstep([spec, spec], x, y, [np.arange(40), np.arange(0)], [cfg(), cfg()])
    with pytest.raises(ValueError, match="empty dataset"):
        train(spec, x[:0], y[:0], cfg())
    schema = Schema((NumericColumn("x", 0.0, 1.0), CategoricalColumn("y", ("a", "b"))))
    trainer = PredictiveTrainer(label_column="y", config=cfg())
    with pytest.raises(ValueError, match="empty dataset"):
        trainer.fit(Dataset.from_rows(schema, []), 1)


def test_run_rows_outside_x_are_refused(toy_xy):
    x, y = toy_xy
    spec = ModelSpec(LOGISTIC, input_dim=3, num_classes=2)
    for bad in ([0, 40], [-1, 3]):
        with pytest.raises(IndexError, match="40 rows"):
            train_lockstep([spec], x, y, [np.array(bad)], [cfg()])


@pytest.mark.parametrize("block_runs", [1, 3])
def test_traces_and_params_are_fresh_arrays(monkeypatch, block_runs):
    # the WIDE widths (35 inputs, 34 hidden units); the largest run samples
    # 3 expected rows a step, so _BLOCK_ROWS 3 * block_runs makes the blocks
    handed = []

    class Recording(models.Workspace):
        def array(self, role, shape):
            handed.append(super().array(role, shape))
            return handed[-1]

    monkeypatch.setattr(models, "Workspace", Recording)
    monkeypatch.setattr(dpsgd, "_BLOCK_ROWS", 3 * block_runs)
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(30, 35)), rng.integers(0, 3, size=30)
    spec = ModelSpec(MLP, input_dim=35, num_classes=3, hidden_dim=34)
    arts = train_lockstep([replace(spec, seed=k) for k in range(6)], x, y,
                          [np.arange(30) if k % 2 else np.arange(k, 30, 2) for k in range(6)],
                          [cfg(sample_rate=0.1, steps=4, seed=k) for k in range(6)], "white_box")
    assert handed
    for art in arts:
        steps = [[s.indices, s.grad_sum, s.noise, s.params_after] for s in art.trace.steps]
        for arr in [art.params, *(a for step in steps for a in step)]:
            assert not any(np.shares_memory(arr, h) for h in handed)
        for t, step in enumerate(steps):
            later = [a for other in steps[t + 1 :] for a in other]
            assert not any(np.shares_memory(a, b) for a in step for b in later)


def test_poisson_inclusion_frequency():
    n, p, steps = 8, 0.3, 10_000
    x = np.zeros((n, 1)); y = np.zeros(n, dtype=int)
    spec = ModelSpec(LOGISTIC, input_dim=1, num_classes=2, init_scale=0.0)
    config = cfg(sample_rate=p, steps=steps, noise_multiplier=0.0,
                 bug_mode=BugMode.NO_NOISE, seed=17)
    art = train(spec, x, y, config, observability="white_box")
    counts = np.zeros(n)
    for st in art.trace.steps:
        counts[st.indices] += 1
    freq = counts / steps
    sd = math.sqrt(p * (1 - p) / steps)
    assert np.all(np.abs(freq - p) <= 3 * sd)


# ---------------------------------------------------------------------------
# predictive trainer adapter

@pytest.fixture
def labeled_ds():
    schema = Schema((
        NumericColumn("x1", -5.0, 5.0),
        NumericColumn("x2", -5.0, 5.0),
        CategoricalColumn("y", ("no", "yes")),
    ))
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(30):
        a, b = rng.uniform(-5, 5, size=2)
        rows.append((a, b, int(a + b > 0)))
    return Dataset.from_rows(schema, rows)


def test_features_and_labels_shapes(labeled_ds):
    x, y = features_and_labels(labeled_ds, "y")
    assert x.shape == (30, 2)
    assert set(y) <= {0, 1}


def test_predictive_trainer_fit_and_loss(labeled_ds):
    trainer = PredictiveTrainer(label_column="y", config=cfg(steps=10))
    art = trainer.fit(labeled_ds, seed=42)
    assert art.kind == "predictive"
    loss = trainer.target_losses([art], labeled_ds.schema, labeled_ds.rows[0])[0]
    assert loss >= 0.0
    art2 = trainer.fit(labeled_ds, seed=42)
    assert np.array_equal(art.params, art2.params)


def test_target_losses_encode_the_record_once(labeled_ds, monkeypatch):
    trainer = PredictiveTrainer(label_column="y", config=cfg(steps=3))
    arts = trainer.fit_runs(labeled_ds, [np.arange(30), np.arange(10)], [1, 2])
    record = labeled_ds.rows[4]
    want = [trainer.target_losses([a], labeled_ds.schema, record)[0] for a in arts]
    calls = []
    encode = dpsgd.features_and_labels
    monkeypatch.setattr(dpsgd, "features_and_labels", lambda *a: calls.append(1) or encode(*a))
    assert trainer.target_losses(arts, labeled_ds.schema, record) == want and len(calls) == 1



# ---------------------------------------------------------------------------
# worker processes

def lockstep_bytes(arts):
    return [(a.params.tobytes(), [(s.indices.tobytes(), s.grad_sum.tobytes(), s.noise.tobytes(),
                                   s.params_after.tobytes(), s.max_sample_norm)
                                  for s in a.trace.steps]) for a in arts]


@pytest.mark.parametrize("kind, hidden_dim", [(LOGISTIC, 0), ("mlp", 6)])
def test_lockstep_bit_equal_at_every_worker_count(toy_xy, monkeypatch, tmp_path, kind, hidden_dim):
    x, y = toy_xy
    monkeypatch.setattr(dpsgd, "_cpu_count", lambda: 8)  # 3 and 5 processes on any machine
    spec = ModelSpec(kind, input_dim=3, num_classes=2, hidden_dim=hidden_dim)
    specs = [replace(spec, seed=k) for k in range(7)]
    configs = [cfg(seed=10 + k) for k in range(7)]
    rows = [np.arange(40) if k % 2 else np.arange(k, 40, 2) for k in range(7)]
    log = tmp_path / "blocks"
    train_block = dpsgd._train_block

    def spy(block_specs, *args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {block_specs[0].seed}\n")
        return train_block(block_specs, *args)

    monkeypatch.setattr(dpsgd, "_train_block", spy)
    want = lockstep_bytes(train_lockstep(specs, x, y, rows, configs, "white_box"))
    # the largest run samples 20 expected rows a step: 7 blocks of one run,
    # or 3 blocks of (3, 3, 1) runs
    for block_rows, firsts in ((20, list(range(7))), (60, [0, 3, 6])):
        monkeypatch.setattr(dpsgd, "_BLOCK_ROWS", block_rows)
        for workers in (1, 2, 3, 5):
            log.write_text("")
            arts = train_lockstep(specs, x, y, rows, configs, "white_box", workers=workers)
            assert lockstep_bytes(arts) == want
            calls = [line.split() for line in log.read_text().splitlines()]
            processes = min(workers, len(firsts))
            assert sorted(int(s) for _, s in calls) == firsts
            assert len({pid for pid, _ in calls}) == processes
            # this process trains the first contiguous range
            mine = [int(s) for pid, s in calls if pid == str(os.getpid())]
            assert mine == firsts[: len(firsts) // processes]
    assert multiprocessing.active_children() == []


def test_wide_lockstep_runs_equal_their_one_run_training(monkeypatch):
    # an input width past 32 and 32 hidden units: BLAS rounds a hidden row
    # over 32 rows differently than over 40, so a run padded to 32 rows whose
    # product took in a neighbour's 40 would show. Runs of 150 and 151 rows
    # (a target out and in) share the cap 32 at the mean batch, which about a
    # third of the steps overflow
    monkeypatch.setattr(dpsgd, "_cpu_count", lambda: 8)
    monkeypatch.setattr(dpsgd, "_PAD_SIGMAS", 0.0)
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(151, 33)), rng.integers(0, 3, size=151)
    spec = ModelSpec(MLP, input_dim=33, num_classes=3, hidden_dim=32)
    specs = [replace(spec, seed=k) for k in range(6)]
    configs = [cfg(sample_rate=0.2, steps=6, seed=20 + k) for k in range(6)]
    rows = [np.sort(rng.choice(151, size=150 + k % 2, replace=False)) for k in range(6)]
    alone = [train(s, x[r], y[r], c, "white_box") for s, r, c in zip(specs, rows, configs)]
    sizes = [len(step.indices) for art in alone for step in art.trace.steps]
    assert dpsgd._pad_caps([150, 151], 0.2) == [32, 32] and min(sizes) <= 32 < max(sizes)
    want = lockstep_bytes(alone)
    # the largest run samples 30.2 expected rows a step: blocks of 1, 3 and 6 runs
    for block_rows in (31, 91, 1536):
        monkeypatch.setattr(dpsgd, "_BLOCK_ROWS", block_rows)
        for workers in (1, 2, 3):
            arts = train_lockstep(specs, x, y, rows, configs, "white_box", workers=workers)
            assert lockstep_bytes(arts) == want


@pytest.fixture
def four_blocks(toy_xy, monkeypatch):
    """Trains four one-run blocks in two processes, this one taking the
    blocks of seeds 0 and 1; on_block(seed) runs before each block."""
    x, y = toy_xy
    monkeypatch.setattr(dpsgd, "_cpu_count", lambda: 2)
    monkeypatch.setattr(dpsgd, "_BLOCK_ROWS", 20)
    spec = ModelSpec(LOGISTIC, input_dim=3, num_classes=2)
    train_block = dpsgd._train_block

    def run(on_block):
        def patched(specs, *args):
            on_block(specs[0].seed)
            return train_block(specs, *args)

        monkeypatch.setattr(dpsgd, "_train_block", patched)
        return train_lockstep([replace(spec, seed=k) for k in range(4)], x, y,
                              [np.arange(40)] * 4, [cfg(seed=k) for k in range(4)], workers=2)
    return run


def test_child_error_raised_in_parent(four_blocks):
    parent = os.getpid()

    def on_block(seed):
        if seed == 3 and os.getpid() != parent:
            raise ArithmeticError("block of seed 3 failed")

    with pytest.raises(ArithmeticError, match="block of seed 3 failed"):
        four_blocks(on_block)
    assert multiprocessing.active_children() == []


def test_child_that_dies_raises_runtime_error(four_blocks):
    parent = os.getpid()

    def on_block(seed):
        if os.getpid() != parent:
            os._exit(7)

    with pytest.raises(RuntimeError, match="exited with code 7"):
        four_blocks(on_block)
    assert multiprocessing.active_children() == []


def test_parent_error_stops_the_children(four_blocks):
    parent = os.getpid()

    def on_block(seed):
        if os.getpid() == parent:
            raise ArithmeticError("block in this process failed")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(ArithmeticError, match="block in this process failed"):
        four_blocks(on_block)
    assert time.monotonic() - start < 30  # the sleeping child was stopped, not waited for
    assert multiprocessing.active_children() == []


def test_process_count_never_exceeds_workers_blocks_or_cpus(monkeypatch):
    cpus = dpsgd._cpu_count()
    assert dpsgd._process_count(10**6, 43) == min(cpus, 43)
    assert dpsgd._process_count(10**6, 1) == 1
    assert dpsgd._process_count(1, 43) == 1
    monkeypatch.setattr(dpsgd, "_cpu_count", lambda: 4)
    assert dpsgd._process_count(10**6, 43) == 4
    assert dpsgd._process_count(3, 43) == 3
    assert dpsgd._process_count(5, 2) == 2
    with pytest.raises(ValueError, match="workers must be >= 1"):
        dpsgd._process_count(0, 43)
    monkeypatch.delattr(os, "fork")  # no fork start method: one process
    assert dpsgd._process_count(10**6, 43) == 1
