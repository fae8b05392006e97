import math
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privaudit import dpsgd
from privaudit.core_stats import GdpParam, gdp_delta_of_epsilon
from privaudit.data import CategoricalColumn, Dataset, NumericColumn, Schema
from privaudit.dpsgd import (
    _TAG_NOISE,
    _TAG_SAMPLE,
    BugMode,
    DpSgdConfig,
    NoValidGuaranteeError,
    PredictiveTrainer,
    claimed_privacy,
    clip_per_sample,
    features_and_labels,
    noisy_batch_update,
    train,
    train_lockstep,
    _stream,
    _weighted_row_sum,
)
from privaudit.models import LOGISTIC, ModelSpec, init_params


def cfg(**kw):
    base = dict(clip_norm=1.0, noise_multiplier=1.0, sample_rate=0.5,
                steps=5, learning_rate=0.1, seed=3)
    base.update(kw)
    return DpSgdConfig(**base)


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
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


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


@pytest.mark.xfail(strict=True, reason=(
    "the step sits in Philox counter word 0, which advances once per 4-draw block, "
    "so step s+1's stream is step s's shifted by four draws"))
def test_consecutive_step_streams_share_no_values():
    for tag in (_TAG_NOISE, _TAG_SAMPLE):
        a = _stream(7, tag, 0).normal(size=12)
        b = _stream(7, tag, 1).normal(size=12)
        assert not np.isin(b, a).any()


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


@settings(max_examples=200, deadline=None)
@given(lead=st.integers(0, 3), rows=st.integers(0, 130), cols=st.integers(1, 260),
       seed=st.integers(0, 2**32 - 1))
def test_weighted_row_sum_equals_the_sum_of_weighted_rows(lead, rows, cols, seed):
    # clip_and_sum's grad_sum skips the clipped-rows array; its bits must not move
    rng = np.random.default_rng(seed)
    shape = (lead,) * (lead > 0) + (rows, cols)
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6)
    w = np.minimum(1.0, 2 * rng.random(shape[:-1]))
    assert _weighted_row_sum(x, w).tobytes() == (x * w[..., None]).sum(axis=-2).tobytes()


# ---------------------------------------------------------------------------
# noisy_batch_update

def test_plain_sgd_step_when_no_noise():
    spec = ModelSpec(LOGISTIC, input_dim=2, num_classes=2, seed=1)
    params = init_params(spec)
    config = cfg(noise_multiplier=0.0, bug_mode=BugMode.NO_NOISE,
                 sample_rate=1.0, clip_norm=100.0)
    x = np.array([[1.0, -1.0]])
    y = np.array([1])
    from privaudit.models import per_sample_gradient
    g = per_sample_gradient(spec, params, x[0], 1)
    new, st = noisy_batch_update(spec, params, x, y, np.array([0]), config, 1, 0)
    assert new == pytest.approx(params - 0.1 * g)
    assert st.noise == pytest.approx(np.zeros(params.size))


def test_empty_batch_is_pure_noise_update():
    spec = ModelSpec(LOGISTIC, input_dim=2, num_classes=2, seed=1)
    params = init_params(spec)
    config = cfg(sample_rate=0.5)
    n_total = 10
    new, st = noisy_batch_update(spec, params, np.zeros((0, 2)), np.zeros(0, dtype=int),
                                 np.array([], dtype=int), config, n_total, 0)
    expected = params - config.learning_rate * st.noise / (0.5 * n_total)
    assert new == pytest.approx(expected)
    assert np.all(st.grad_sum == 0.0)


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
        new, _ = noisy_batch_update(spec, params, np.zeros((0, 2)),
                                    np.zeros(0, dtype=int), np.array([], dtype=int),
                                    config, n_total, 0)
        updates[r] = new - params
    want = sigma * c * lr / (p * n_total)
    got = updates.std(axis=0)
    assert np.all(np.abs(got - want) / want < 0.03)


def test_static_noise_bug_repeats_step0_noise():
    spec = ModelSpec(LOGISTIC, input_dim=2, num_classes=2, seed=1)
    params = init_params(spec)
    config = cfg(bug_mode=BugMode.STATIC_NOISE)
    _, st0 = noisy_batch_update(spec, params, np.zeros((0, 2)), np.zeros(0, dtype=int),
                                np.array([], dtype=int), config, 10, 0)
    _, st5 = noisy_batch_update(spec, params, np.zeros((0, 2)), np.zeros(0, dtype=int),
                                np.array([], dtype=int), config, 10, 5)
    assert np.array_equal(st0.noise, st5.noise)
    good = cfg(bug_mode=BugMode.NONE, seed=config.seed)
    _, ok5 = noisy_batch_update(spec, params, np.zeros((0, 2)), np.zeros(0, dtype=int),
                                np.array([], dtype=int), good, 10, 5)
    assert not np.array_equal(st0.noise, ok5.noise)


def test_aggregate_clipping_bug():
    spec = ModelSpec(LOGISTIC, input_dim=1, num_classes=2, init_scale=0.0, seed=1)
    params = init_params(spec)
    # two identical strong samples: per-sample clipping caps each at C, the
    # buggy mode caps the whole aggregate at C
    x = np.array([[1.0], [1.0]])
    y = np.array([1, 1])
    base = cfg(noise_multiplier=0.0, bug_mode=BugMode.NO_NOISE, clip_norm=0.1,
               sample_rate=1.0)
    _, st_good = noisy_batch_update(spec, params, x, y, np.array([0, 1]), base, 2, 0)
    assert np.linalg.norm(st_good.grad_sum) == pytest.approx(0.2, abs=1e-9)
    buggy = replace(base, bug_mode=BugMode.NO_PER_SAMPLE_CLIPPING)
    # NO_PER_SAMPLE_CLIPPING still zeroes no noise here (sigma=0 draws noise):
    _, st_bug = noisy_batch_update(spec, params, x, y, np.array([0, 1]), buggy, 2, 0)
    assert np.linalg.norm(st_bug.grad_sum) <= 0.1 + 1e-9


def test_noise_not_scaled_to_batch_bug():
    spec = ModelSpec(LOGISTIC, input_dim=2, num_classes=2, seed=1)
    params = init_params(spec)
    n_total, p = 100, 0.1
    good = cfg(sample_rate=p, seed=9)
    bug = cfg(sample_rate=p, seed=9, bug_mode=BugMode.NOISE_NOT_SCALED_TO_BATCH)
    # realized batch of 50 >> p*N = 10 shrinks the noise under the bug
    x = np.zeros((50, 2)); y = np.zeros(50, dtype=int)
    idx = np.arange(50)
    spec0 = ModelSpec(LOGISTIC, input_dim=2, num_classes=2, init_scale=0.0, seed=1)
    p0 = init_params(spec0)
    new_g, st_g = noisy_batch_update(spec0, p0, x, y, idx, good, n_total, 0)
    new_b, st_b = noisy_batch_update(spec0, p0, x, y, idx, bug, n_total, 0)
    assert np.array_equal(st_g.noise, st_b.noise)
    lr = good.learning_rate
    expected_g = p0 - lr * (st_g.grad_sum + st_g.noise) / (p * n_total)
    # buggy mode divides only the noise by the realized batch size (50)
    expected_b = p0 - lr * (st_b.grad_sum / (p * n_total) + st_b.noise / 50)
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


def test_large_noise_accountant_epsilon_vanishes():
    pp = claimed_privacy(cfg(noise_multiplier=1e4), 40, 1e-3)
    assert pp.epsilon == pytest.approx(0.0, abs=1e-6)


def test_accountant_matches_bisection_oracle():
    config = cfg(noise_multiplier=1.0, sample_rate=1.0, steps=1)
    pp = claimed_privacy(config, 10, 0.1)
    mu = GdpParam(math.sqrt(math.e - 1.0))
    # independent bisection against the delta curve
    lo, hi = 0.0, 20.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gdp_delta_of_epsilon(mu, mid) > 0.1:
            lo = mid
        else:
            hi = mid
    assert pp.epsilon == pytest.approx(hi, abs=1e-8)


def test_accountant_monotonic():
    base = dict(clip_norm=1.0, sample_rate=0.1, learning_rate=0.1, seed=0)
    e1 = claimed_privacy(DpSgdConfig(noise_multiplier=1.0, steps=100, **base), 1000, 1e-5).epsilon
    e2 = claimed_privacy(DpSgdConfig(noise_multiplier=2.0, steps=100, **base), 1000, 1e-5).epsilon
    e3 = claimed_privacy(DpSgdConfig(noise_multiplier=1.0, steps=200, **base), 1000, 1e-5).epsilon
    assert e2 < e1 < e3


def test_accountant_hand_composition():
    # recompute mu directly from the closed form for sigma=2, p=0.01, T=100
    sigma, p, steps, delta = 2.0, 0.01, 100, 1e-5
    mu = p * math.sqrt(steps * (math.exp(1.0 / sigma**2) - 1.0))
    from privaudit.core_stats import gdp_epsilon_of_delta
    want = gdp_epsilon_of_delta(GdpParam(mu), delta)
    got = claimed_privacy(DpSgdConfig(clip_norm=1.0, noise_multiplier=sigma,
                                      sample_rate=p, steps=steps,
                                      learning_rate=0.1), 10_000, delta)
    assert got.epsilon == pytest.approx(want, abs=1e-10)


def test_claimed_privacy_refuses_bug_modes():
    with pytest.raises(NoValidGuaranteeError, match="no valid guarantee"):
        claimed_privacy(cfg(bug_mode=BugMode.NO_NOISE), 100, 1e-3)


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
    loss = trainer.target_loss(art, labeled_ds.rows[0])
    assert loss >= 0.0
    art2 = trainer.fit(labeled_ds, seed=42)
    assert np.array_equal(art.params, art2.params)



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
