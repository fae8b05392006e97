import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privaudit import dpsgd, shadow, synthesizers
from privaudit.data import CategoricalColumn, Dataset, NumericColumn, Schema
from privaudit.dpsgd import BugMode, DpSgdConfig, PredictiveTrainer
from privaudit.shadow import (
    BLACK_BOX,
    FIXED_DATASET,
    RESAMPLED_DATASET,
    WHITE_BOX,
    ShadowCollection,
    ThreatModel,
    check_features,
    dataset_fingerprint,
    query_features,
    run_shadow_experiment,
)
from privaudit.synthesizers import (
    GanTrainer,
    MarginalSynthSpec,
    MarginalTrainer,
    gan_spec_for_schema,
)


@pytest.fixture
def schema():
    return Schema((
        NumericColumn("x", 0.0, 1.0),
        CategoricalColumn("y", ("neg", "pos")),
    ))


@pytest.fixture
def pool(schema):
    rng = np.random.default_rng(3)
    rows = [(float(rng.uniform()), int(rng.integers(2))) for _ in range(40)]
    return Dataset.from_rows(schema, rows)


@pytest.fixture
def target():
    # not in the pool: pool values are generic uniforms, this is exact 0.5
    return (0.5, 1)


@pytest.fixture
def trainer():
    cfg = DpSgdConfig(clip_norm=1.0, noise_multiplier=1.0, sample_rate=0.5,
                      steps=2, learning_rate=0.1)
    return PredictiveTrainer(label_column="y", config=cfg)


def test_threat_model_validation():
    ThreatModel()
    with pytest.raises(ValueError, match="model_access"):
        ThreatModel(model_access="clairvoyant")
    with pytest.raises(ValueError, match="data_knowledge"):
        ThreatModel(data_knowledge="psychic")
    with pytest.raises(ValueError, match="architecture"):
        ThreatModel(model_access=WHITE_BOX, architecture_known=False)


@pytest.mark.parametrize("access", [BLACK_BOX, WHITE_BOX])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, 2, None])
def test_architecture_known_must_be_a_bool(access, value):
    with pytest.raises(ValueError, match=f"architecture_known must be true or false, "
                                         f"got {value!r}"):
        ThreatModel(model_access=access, architecture_known=value)


def test_bits_stratified(pool, target, trainer):
    for t_runs in (8, 9, 20):
        coll = run_shadow_experiment(target, pool, trainer, ThreatModel(),
                                     t_runs, master_seed=5)
        assert int(coll.bits.sum()) == t_runs // 2
        assert coll.bits.shape == (t_runs,) and coll.bits.dtype.kind == "i"
        for field in (coll.seeds, coll.artifacts):
            assert len(field) == t_runs
        assert list(coll.seeds) == [shadow.derive_seed(5, t) for t in range(t_runs)]
        with pytest.raises(ValueError, match="read-only"):
            coll.bits[0] = 1 - coll.bits[0]


def test_target_in_pool_rejected(pool, trainer):
    with pytest.raises(ValueError, match="pool"):
        run_shadow_experiment(pool.rows[0], pool, trainer, ThreatModel(), 4, 0)


def test_fixed_dataset_fingerprints(pool, target, trainer):
    each = FitEachRun(trainer)
    coll = run_shadow_experiment(target, pool, each, ThreatModel(), 10, 2)
    assert_run_rows(each, coll, len(pool), FIXED_DATASET)
    fps = [dataset_fingerprint(each.data.take(r)) for r in each.run_rows]
    fp_out = {fp for fp, b in zip(fps, coll.bits) if b == 0}
    fp_in = {fp for fp, b in zip(fps, coll.bits) if b == 1}
    # fixed-dataset runs train on exactly two datasets: pool and pool+target
    assert fp_out == {dataset_fingerprint(pool)}
    assert fp_in == {dataset_fingerprint(pool.with_record(target))}


def test_resampled_dataset_fingerprints(pool, target, trainer):
    tm = ThreatModel(data_knowledge=RESAMPLED_DATASET)
    each = FitEachRun(trainer)
    coll = run_shadow_experiment(target, pool, each, tm, 10, 2)
    assert_run_rows(each, coll, len(pool), RESAMPLED_DATASET)
    # half-size subsamples drawn per run: the datasets should not all collide
    assert len({dataset_fingerprint(each.data.take(r)) for r in each.run_rows}) > 2


def test_fingerprint_order_invariant(pool):
    rev = Dataset.from_rows(pool.schema, reversed(pool.rows))
    assert dataset_fingerprint(pool) == dataset_fingerprint(rev)


def test_master_seed_determinism(pool, target, trainer):
    for knowledge in (FIXED_DATASET, RESAMPLED_DATASET):
        tm = ThreatModel(data_knowledge=knowledge)
        fits = [FitEachRun(trainer) for _ in range(3)]
        a, b, c = (run_shadow_experiment(target, pool, each, tm, 6, seed)
                   for each, seed in zip(fits, (17, 17, 18)))
        assert np.array_equal(a.bits, b.bits)
        assert a.seeds == b.seeds
        rows = [[r.tobytes() for r in each.run_rows] for each in fits]
        assert rows[0] == rows[1]
        if knowledge == RESAMPLED_DATASET:
            # runs of another master seed draw other subsamples
            assert rows[0] != rows[2]
        for ra, rb in zip(a.artifacts, b.artifacts, strict=True):
            assert np.array_equal(ra.params, rb.params)
        assert any(
            not np.array_equal(ra.params, rc.params)
            for ra, rc in zip(a.artifacts, c.artifacts)
        )


def test_worker_count_invariance(pool, target, trainer):
    tm = ThreatModel(data_knowledge=RESAMPLED_DATASET)
    a = run_shadow_experiment(target, pool, trainer, tm, 8, 23, workers=1)
    b = run_shadow_experiment(target, pool, trainer, tm, 8, 23, workers=4)
    assert np.array_equal(a.bits, b.bits)
    assert a.seeds == b.seeds
    for ra, rb in zip(a.artifacts, b.artifacts, strict=True):
        assert np.array_equal(ra.params, rb.params)


def test_every_run_trains_in_the_calling_thread(pool, target, trainer):
    fit_threads = []

    class RecordingTrainer:
        def fit_runs(self, data, run_rows, seeds, workers=1):
            assert workers == 4
            fit_threads.append(threading.get_ident())
            return [trainer.fit(data.take(r), s) for r, s in zip(run_rows, seeds)]

    coll = run_shadow_experiment(target, pool, RecordingTrainer(), ThreatModel(), 6, 3,
                                 workers=4)
    assert fit_threads == [threading.get_ident()]
    assert len(coll.artifacts) == 6


def test_pred_loss_features(pool, target, trainer):
    coll = run_shadow_experiment(target, pool, trainer, ThreatModel(), 6, 1)
    fb = query_features(coll, "pred_loss")
    assert fb.mode == "pred_loss"
    assert len(fb.features) == 6
    assert all(np.isfinite(v) and v >= 0.0 for v in fb.features)
    assert np.array_equal(fb.bits, coll.bits)
    # recomputable from the stored artifacts
    for art, v in zip(coll.artifacts, fb.features, strict=True):
        assert trainer.target_losses([art], pool.schema, target)[0] == pytest.approx(v)


def test_pred_loss_requires_predictive(pool, target, schema):
    tr = MarginalTrainer(MarginalSynthSpec(noise_std=0.0), schema=schema)
    coll = run_shadow_experiment(target, pool, tr, ThreatModel(), 4, 1)
    with pytest.raises(ValueError, match="predictive"):
        query_features(coll, "pred_loss")


def test_synth_dataset_features(pool, target, schema):
    tr = MarginalTrainer(MarginalSynthSpec(noise_std=0.0), schema=schema)
    coll = run_shadow_experiment(target, pool, tr, ThreatModel(), 4, 9)
    fb = query_features(coll, "synth_dataset", {"n_samples": 25})
    assert [c.shape for c in fb.features] == [(4, 25), (4, 25)]
    # deterministic per run, distinct across runs
    fb2 = query_features(coll, "synth_dataset", {"n_samples": 25})
    assert all(np.array_equal(a, b) for a, b in zip(fb.features, fb2.features))
    assert not np.array_equal(fb.features[0][0], fb.features[0][1])


@pytest.mark.parametrize("mode, kind, knowledge", [
    ("pred_loss", "predictive", FIXED_DATASET),
    ("pred_loss", "predictive", RESAMPLED_DATASET),
    ("synth_dataset", "marginal", FIXED_DATASET),
    ("synth_dataset", "marginal", RESAMPLED_DATASET),
    ("synth_dataset", "gan", FIXED_DATASET),
    ("disc_loss", "gan", RESAMPLED_DATASET),
])
def test_features_are_read_only_run_axis_values_aligned_with_bits(
        pool, target, schema, trainer, mode, kind, knowledge):
    tr = {"predictive": trainer, "gan": gan_trainer(schema),
          "marginal": MarginalTrainer(MarginalSynthSpec(noise_std=1.0), schema=schema)}[kind]
    t_runs = 5
    coll = run_shadow_experiment(target, pool, tr,
                                 ThreatModel(model_access=WHITE_BOX, data_knowledge=knowledge),
                                 t_runs, 2)
    for field in (coll.bits, coll.seeds, coll.artifacts):
        assert len(field) == t_runs
    fb = query_features(coll, mode, {"n_samples": 7})
    assert fb.bits is coll.bits and not fb.bits.flags.writeable
    assert coll.schema == pool.schema and fb.schema is coll.schema
    if mode == "synth_dataset":
        assert [c.shape for c in fb.features] == [(t_runs, 7), (t_runs, 7)]
        assert not any(c.flags.writeable for c in fb.features)
        # run t's records are the ones sample draws from its artifact alone
        for t, art in enumerate(coll.artifacts):
            ds = synthesizers.sample(art, 7, shadow.derive_seed(coll.master_seed, "query", t))
            assert ds.provenance == f"synthetic:{kind}"
            for c, rows in zip(ds.columns, fb.features):
                assert c.tobytes() == rows[t].tobytes()
        return
    assert fb.features.shape == (t_runs,) and fb.features.dtype == np.float64
    assert not fb.features.flags.writeable
    one = ((lambda art: tr.target_losses([art], coll.schema, target)[0]) if mode == "pred_loss"
           else (lambda art: synthesizers.disc_loss(art, target)))
    assert fb.features.tolist() == [one(art) for art in coll.artifacts]


def test_disc_loss_requires_white_box(pool, target, trainer):
    coll = run_shadow_experiment(target, pool, trainer, ThreatModel(), 4, 1)
    with pytest.raises(ValueError, match="white_box"):
        query_features(coll, "disc_loss")


def test_unknown_mode(pool, target, trainer):
    coll = run_shadow_experiment(target, pool, trainer, ThreatModel(), 4, 1)
    with pytest.raises(ValueError, match="mode"):
        query_features(coll, "telepathy")


def gan_trainer(schema):
    dp = DpSgdConfig(clip_norm=1.0, noise_multiplier=1.0, sample_rate=0.3, steps=3,
                     learning_rate=0.5)
    return GanTrainer(gan_spec_for_schema(schema, latent_dim=2, gen_hidden=4, disc_hidden=4,
                                          disc_config=dp))


def _allowed(check, *args):
    try:
        check(*args)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("access", [BLACK_BOX, WHITE_BOX])
def test_check_features_is_one_rule_for_every_trainer(schema, trainer, access):
    marginal = MarginalTrainer(MarginalSynthSpec(noise_std=1.0), schema=schema)
    gan = gan_trainer(schema)
    tm = ThreatModel(model_access=access)
    supplied = {(mode, name) for mode in ("pred_loss", "synth_dataset", "disc_loss")
                for name, tr in (("predictive", trainer), ("marginal", marginal), ("gan", gan))
                if _allowed(check_features, mode, tr, tm)}
    want = {("pred_loss", "predictive"), ("synth_dataset", "marginal"), ("synth_dataset", "gan")}
    if access == WHITE_BOX:
        want.add(("disc_loss", "gan"))
    assert supplied == want
    with pytest.raises(ValueError, match="unknown feature mode"):
        check_features("telepathy", trainer, tm)


@pytest.mark.parametrize("knowledge, rows", [(FIXED_DATASET, 0), (RESAMPLED_DATASET, 1)])
def test_pool_that_leaves_a_run_no_rows_is_rejected_before_training(
        schema, target, knowledge, rows):
    pool = Dataset.from_rows(schema, [(0.25, 0)] * rows)
    fits = []

    class Recording:
        def fit_runs(self, data, run_rows, seeds, workers=1):
            fits.append(len(run_rows))

    with pytest.raises(ValueError, match=f"a pool of size {rows} leaves a target-out run no"):
        run_shadow_experiment(target, pool, Recording(), ThreatModel(data_knowledge=knowledge),
                              4, 1)
    assert fits == []
    # two rows leave every resampled run one: the smallest pool that trains
    two = Dataset.from_rows(schema, [(0.25, 0), (0.75, 1)])
    coll = run_shadow_experiment(target, two, MarginalTrainer(MarginalSynthSpec(1.0), schema),
                                 ThreatModel(data_knowledge=RESAMPLED_DATASET), 4, 1)
    assert len(coll.artifacts) == 4


# ---------------------------------------------------------------------------
# lockstep training

# 35 feature columns and 34 hidden units: inner widths past 32, where BLAS
# rounding depends on the row count; 10% sampling of 15 or 16 rows gives
# empty and one-row batches
WIDE = Schema((
    NumericColumn("x", 0.0, 1.0),
    CategoricalColumn("c", tuple(f"l{i}" for i in range(34))),
    CategoricalColumn("y", ("a", "b", "c")),
))


class FitEachRun:
    """The per-run reference: fit_runs fits each run's own rows alone with
    the wrapped trainer's fit, and records the pool-plus-target data it was
    given, each run's rows of it and each run's seed."""

    def __init__(self, trainer):
        self.trainer = trainer
        self.data = None
        self.run_rows = []
        self.seeds = []

    def fit_runs(self, data, run_rows, seeds, workers=1):
        self.data = data
        out = []
        for rows, seed in zip(run_rows, seeds, strict=True):
            self.run_rows.append(rows)
            self.seeds.append(seed)
            out.append(self.trainer.fit(data.take(rows), seed))
        return out


def assert_run_rows(each, coll, n, knowledge):
    """The rows and seed each run of coll was fit on, as recorded by the
    FitEachRun each, are those the bits and the data knowledge say: row n of
    the data is the target, which a run takes last iff its bit is 1; under
    fixed_dataset every other row, under resampled_dataset a sorted
    half-size subsample of them that is not the same for every run."""
    assert each.seeds == list(coll.seeds)
    assert each.data.matches(coll.target).tolist() == [False] * n + [True]
    bases = []
    for rows, b in zip(each.run_rows, coll.bits, strict=True):
        assert rows.dtype.kind == "i"
        base = rows[:-1] if b else rows
        if b:
            assert rows[-1] == n
        if knowledge == FIXED_DATASET:
            assert np.array_equal(rows, np.arange(n + b))
        else:
            assert len(base) == n // 2 and np.all(np.diff(base) > 0)
            assert 0 <= base.min() and base.max() < n
        bases.append(base.tobytes())
    if knowledge == RESAMPLED_DATASET:
        assert len(set(bases)) > 1


def run_bytes(coll):
    """Each run's parameters and traced steps, as bytes."""
    return [(art.params.tobytes(),
             [(st.indices.tobytes(), st.grad_sum.tobytes(), st.noise.tobytes(),
               st.params_after.tobytes(), st.max_sample_norm) for st in art.trace.steps])
            for art in coll.artifacts]


@pytest.mark.parametrize("bug", list(BugMode))
@pytest.mark.parametrize("model_kind, hidden_dim", [("logistic_regression", 0), ("mlp", 34)])
@settings(max_examples=3, deadline=None)
@given(master_seed=st.integers(0, 2**32))
def test_run_bit_equal_alone_and_at_every_block_size(bug, model_kind, hidden_dim, master_seed):
    rng = np.random.default_rng(master_seed)
    # few distinct records, so the pool and each run's rows repeat some
    pool = Dataset.from_rows(WIDE, [(float(rng.integers(2)) / 2, int(rng.integers(3)),
                                     int(rng.integers(3))) for _ in range(30)])
    cfg = DpSgdConfig(clip_norm=0.5, noise_multiplier=1.0, sample_rate=0.1, steps=4,
                      learning_rate=0.5, bug_mode=bug)
    trainer = PredictiveTrainer(label_column="y", config=cfg, model_kind=model_kind,
                                hidden_dim=hidden_dim, observability="white_box")
    target, t_runs = (0.5, 3, 1), 7
    blocks = []
    train_block = dpsgd._train_block

    def spy(specs, *args):
        blocks.append(len(specs))
        return train_block(specs, *args)

    for knowledge, largest in ((FIXED_DATASET, 31), (RESAMPLED_DATASET, 16)):
        tm = ThreatModel(data_knowledge=knowledge)
        each = FitEachRun(trainer)
        alone = run_shadow_experiment(target, pool, each, tm, t_runs, master_seed)
        assert_run_rows(each, alone, len(pool), knowledge)
        want = run_bytes(alone)
        for block, sizes in ((1, [1] * 7), (3, [3, 3, 1]), (t_runs, [7])):
            blocks.clear()
            with pytest.MonkeyPatch.context() as mp:
                # a block takes _BLOCK_ROWS // (largest run's expected batch) runs
                mp.setattr(dpsgd, "_train_block", spy)
                mp.setattr(dpsgd, "_BLOCK_ROWS", (block + 0.5) * largest * cfg.sample_rate)
                coll = run_shadow_experiment(target, pool, trainer, tm, t_runs, master_seed)
            assert blocks == sizes
            assert run_bytes(coll) == want


@pytest.mark.parametrize("model_kind, hidden_dim", [("logistic_regression", 0), ("mlp", 34)])
def test_runs_bit_equal_at_every_worker_count(monkeypatch, model_kind, hidden_dim):
    monkeypatch.setattr(dpsgd, "_cpu_count", lambda: 8)  # 3 and 5 processes on any machine
    rng = np.random.default_rng(11)
    pool = Dataset.from_rows(WIDE, [(float(rng.integers(2)) / 2, int(rng.integers(3)),
                                     int(rng.integers(3))) for _ in range(30)])
    cfg = DpSgdConfig(clip_norm=0.5, noise_multiplier=1.0, sample_rate=0.1, steps=4,
                      learning_rate=0.5)
    trainer = PredictiveTrainer(label_column="y", config=cfg, model_kind=model_kind,
                                hidden_dim=hidden_dim, observability="white_box")
    target, t_runs = (0.5, 3, 1), 7
    for knowledge, largest in ((FIXED_DATASET, 31), (RESAMPLED_DATASET, 16)):
        tm = ThreatModel(model_access=WHITE_BOX, data_knowledge=knowledge)
        want = run_bytes(run_shadow_experiment(target, pool, trainer, tm, t_runs, 9))
        # 7 blocks of one run, or 3 blocks of (3, 3, 1) runs
        for block in (1, 3):
            monkeypatch.setattr(dpsgd, "_BLOCK_ROWS", (block + 0.5) * largest * cfg.sample_rate)
            for workers in (1, 2, 3, 5):
                coll = run_shadow_experiment(target, pool, trainer, tm, t_runs, 9, workers=workers)
                assert run_bytes(coll) == want


# ---------------------------------------------------------------------------
# marginal runs

def _probs_bytes(art):
    return [p.tobytes() for p in art.state["probs"]]


@pytest.mark.parametrize("knowledge", [FIXED_DATASET, RESAMPLED_DATASET])
def test_marginal_fit_runs_bit_equal_to_fitting_each_run(pool, target, schema, knowledge):
    tr = MarginalTrainer(MarginalSynthSpec(noise_std=1.5, bins=4), schema=schema)
    tm = ThreatModel(data_knowledge=knowledge)
    each = FitEachRun(tr)
    alone = run_shadow_experiment(target, pool, each, tm, 9, 5)
    coll = run_shadow_experiment(target, pool, tr, tm, 9, 5, workers=3)
    assert list(map(_probs_bytes, coll.artifacts)) == list(map(_probs_bytes, alone.artifacts))
    assert_run_rows(each, alone, len(pool), knowledge)


# ---------------------------------------------------------------------------
# GAN runs

def _gan_bytes(coll):
    return [(art.state["gen_params"].tobytes(), art.state["disc_params"].tobytes())
            for art in coll.artifacts]


@pytest.mark.parametrize("knowledge", [FIXED_DATASET, RESAMPLED_DATASET])
def test_gan_fit_runs_bit_equal_to_fitting_each_run(pool, target, schema, knowledge,
                                                     monkeypatch):
    tr = gan_trainer(schema)
    tm = ThreatModel(model_access=WHITE_BOX, data_knowledge=knowledge)
    each = FitEachRun(tr)
    alone = run_shadow_experiment(target, pool, each, tm, 7, 5)
    assert_run_rows(each, alone, len(pool), knowledge)
    want = _gan_bytes(alone)
    fits = []
    fit_gan = synthesizers.fit_gan

    def counting(ds, spec):
        fits.append(len(ds))
        return fit_gan(ds, spec)

    monkeypatch.setattr(synthesizers, "fit_gan", counting)
    coll = run_shadow_experiment(target, pool, tr, tm, 7, 5, workers=3)
    assert _gan_bytes(coll) == want
    # every run was fit here, in this process: workers forks nothing
    baseline = len(pool) // 2 if knowledge == RESAMPLED_DATASET else len(pool)
    assert fits == [baseline + b for b in coll.bits]
