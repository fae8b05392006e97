import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privaudit import dpsgd
from privaudit.data import CategoricalColumn, Dataset, NumericColumn, Schema
from privaudit.dpsgd import BugMode, DpSgdConfig, PredictiveTrainer
from privaudit.shadow import (
    FIXED_DATASET,
    RESAMPLED_DATASET,
    WHITE_BOX,
    ShadowCollection,
    ThreatModel,
    dataset_fingerprint,
    query_features,
    run_shadow_experiment,
)
from privaudit.synthesizers import MarginalSynthSpec, MarginalTrainer


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


def test_bits_stratified(pool, target, trainer):
    for t_runs in (8, 9, 20):
        coll = run_shadow_experiment(target, pool, trainer, ThreatModel(),
                                     t_runs, master_seed=5)
        assert int(coll.bits.sum()) == t_runs // 2
        assert len(coll.runs) == t_runs
        assert [r.index for r in coll.runs] == list(range(t_runs))


def test_target_in_pool_rejected(pool, trainer):
    with pytest.raises(ValueError, match="pool"):
        run_shadow_experiment(pool.rows[0], pool, trainer, ThreatModel(), 4, 0)


def test_fixed_dataset_fingerprints(pool, target, trainer):
    coll = run_shadow_experiment(target, pool, trainer, ThreatModel(), 10, 2)
    fp_out = {r.fingerprint for r in coll.runs if r.bit == 0}
    fp_in = {r.fingerprint for r in coll.runs if r.bit == 1}
    # fixed-dataset runs train on exactly two datasets: pool and pool+target
    assert fp_out == {dataset_fingerprint(pool)}
    assert len(fp_in) == 1
    assert fp_in.isdisjoint(fp_out)


def test_resampled_dataset_fingerprints(pool, target, trainer):
    tm = ThreatModel(data_knowledge=RESAMPLED_DATASET)
    coll = run_shadow_experiment(target, pool, trainer, tm, 10, 2)
    # half-size subsamples drawn per run: fingerprints should not all collide
    assert len({r.fingerprint for r in coll.runs}) > 2


def test_fingerprint_order_invariant(pool):
    rev = Dataset.from_rows(pool.schema, reversed(pool.rows))
    assert dataset_fingerprint(pool) == dataset_fingerprint(rev)


def test_master_seed_determinism(pool, target, trainer):
    a = run_shadow_experiment(target, pool, trainer, ThreatModel(), 6, 17)
    b = run_shadow_experiment(target, pool, trainer, ThreatModel(), 6, 17)
    c = run_shadow_experiment(target, pool, trainer, ThreatModel(), 6, 18)
    assert np.array_equal(a.bits, b.bits)
    for ra, rb in zip(a.runs, b.runs):
        assert ra.seed == rb.seed
        assert np.array_equal(ra.artifact.params, rb.artifact.params)
    assert any(
        not np.array_equal(ra.artifact.params, rc.artifact.params)
        for ra, rc in zip(a.runs, c.runs)
    )


def test_worker_count_invariance(pool, target, trainer):
    tm = ThreatModel(data_knowledge=RESAMPLED_DATASET)
    a = run_shadow_experiment(target, pool, trainer, tm, 8, 23, workers=1)
    b = run_shadow_experiment(target, pool, trainer, tm, 8, 23, workers=4)
    assert np.array_equal(a.bits, b.bits)
    for ra, rb in zip(a.runs, b.runs):
        assert ra.index == rb.index
        assert ra.fingerprint == rb.fingerprint
        assert np.array_equal(ra.artifact.params, rb.artifact.params)


def test_every_run_trains_in_the_calling_thread(pool, target, trainer):
    fit_threads = []

    class RecordingTrainer:
        def fit(self, ds, seed):
            fit_threads.append(threading.get_ident())
            return trainer.fit(ds, seed)

    run_shadow_experiment(target, pool, RecordingTrainer(), ThreatModel(), 6, 3, workers=4)
    assert fit_threads == [threading.get_ident()] * 6


def test_pred_loss_features(pool, target, trainer):
    coll = run_shadow_experiment(target, pool, trainer, ThreatModel(), 6, 1)
    fb = query_features(coll, "pred_loss")
    assert fb.mode == "pred_loss"
    assert len(fb.features) == 6
    assert all(np.isfinite(v) and v >= 0.0 for v in fb.features)
    assert np.array_equal(fb.bits, coll.bits)
    # recomputable from the stored artifacts
    for r, v in zip(coll.runs, fb.features):
        assert trainer.target_loss(r.artifact, target) == pytest.approx(v)


def test_pred_loss_requires_predictive(pool, target, schema):
    tr = MarginalTrainer(MarginalSynthSpec(noise_std=0.0), schema=schema)
    coll = run_shadow_experiment(target, pool, tr, ThreatModel(), 4, 1)
    with pytest.raises(ValueError, match="predictive"):
        query_features(coll, "pred_loss")


def test_synth_dataset_features(pool, target, schema):
    tr = MarginalTrainer(MarginalSynthSpec(noise_std=0.0), schema=schema)
    coll = run_shadow_experiment(target, pool, tr, ThreatModel(), 4, 9)
    fb = query_features(coll, "synth_dataset", {"n_samples": 25})
    assert all(isinstance(d, Dataset) and len(d) == 25 for d in fb.features)
    # deterministic per run, distinct across runs
    fb2 = query_features(coll, "synth_dataset", {"n_samples": 25})
    assert all(a.rows == b.rows for a, b in zip(fb.features, fb2.features))
    assert fb.features[0].rows != fb.features[1].rows


def test_disc_loss_requires_white_box(pool, target, trainer):
    coll = run_shadow_experiment(target, pool, trainer, ThreatModel(), 4, 1)
    with pytest.raises(ValueError, match="white_box"):
        query_features(coll, "disc_loss")


def test_unknown_mode(pool, target, trainer):
    coll = run_shadow_experiment(target, pool, trainer, ThreatModel(), 4, 1)
    with pytest.raises(ValueError, match="mode"):
        query_features(coll, "telepathy")



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
    """A trainer without fit_runs: the harness fits it one run at a time."""

    def __init__(self, trainer):
        self.trainer = trainer
        self.fingerprints = []

    def fit(self, ds, seed):
        self.fingerprints.append(dataset_fingerprint(ds))
        return self.trainer.fit(ds, seed)


def run_bytes(run):
    art = run.artifact
    steps = [(st.indices.tobytes(), st.grad_sum.tobytes(), st.noise.tobytes(),
              st.params_after.tobytes(), st.max_sample_norm) for st in art.trace.steps]
    return run.fingerprint, art.params.tobytes(), steps


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
        assert [r.fingerprint for r in alone.runs] == each.fingerprints
        want = [run_bytes(r) for r in alone.runs]
        for block, sizes in ((1, [1] * 7), (3, [3, 3, 1]), (t_runs, [7])):
            blocks.clear()
            with pytest.MonkeyPatch.context() as mp:
                # a block takes _BLOCK_ROWS // (largest run's expected batch) runs
                mp.setattr(dpsgd, "_train_block", spy)
                mp.setattr(dpsgd, "_BLOCK_ROWS", (block + 0.5) * largest * cfg.sample_rate)
                coll = run_shadow_experiment(target, pool, trainer, tm, t_runs, master_seed)
            assert blocks == sizes
            assert [run_bytes(r) for r in coll.runs] == want


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
        want = [run_bytes(r) for r in run_shadow_experiment(target, pool, trainer, tm, t_runs, 9).runs]
        # 7 blocks of one run, or 3 blocks of (3, 3, 1) runs
        for block in (1, 3):
            monkeypatch.setattr(dpsgd, "_BLOCK_ROWS", (block + 0.5) * largest * cfg.sample_rate)
            for workers in (1, 2, 3, 5):
                coll = run_shadow_experiment(target, pool, trainer, tm, t_runs, 9, workers=workers)
                assert [run_bytes(r) for r in coll.runs] == want
