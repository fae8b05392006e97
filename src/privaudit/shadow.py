"""Shadow-modeling harness.

Repeatedly trains target-in/target-out artifacts under controlled randomness
and hands labeled material to the attacks. Every trainer fits the independent
runs in one ``fit_runs`` call: the predictive one in lockstep blocks, which
forked processes may share, the marginal one from one binning pass and the GAN
run by run, both in the calling thread. Each run depends only on the master
seed and its index t, and the collection and the attack features hold the runs
as run-axis values: entry t of each field belongs to run t.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Schema, count_value, row_keys
from .seeds import derive_seed
from .synthesizers import GanTrainer, disc_loss, sample_runs

__all__ = [
    "ThreatModel",
    "ShadowCollection",
    "FeatureBundle",
    "run_shadow_experiment",
    "check_features",
    "query_features",
    "dataset_fingerprint",
    "shadow_run_count",
    "query_sample_count",
]

BLACK_BOX = "black_box_query"
WHITE_BOX = "white_box"
FIXED_DATASET = "fixed_dataset"
RESAMPLED_DATASET = "resampled_dataset"


@dataclass(frozen=True)
class ThreatModel:
    model_access: str = BLACK_BOX
    data_knowledge: str = FIXED_DATASET
    architecture_known: bool = True

    def __post_init__(self):
        if self.model_access not in (BLACK_BOX, WHITE_BOX):
            raise ValueError(f"unknown model_access {self.model_access!r}")
        if self.data_knowledge not in (FIXED_DATASET, RESAMPLED_DATASET):
            raise ValueError(f"unknown data_knowledge {self.data_knowledge!r}")
        if not isinstance(self.architecture_known, bool):
            raise ValueError(f"architecture_known must be true or false, "
                             f"got {self.architecture_known!r}")
        if self.model_access == WHITE_BOX and not self.architecture_known:
            raise ValueError("white_box access implies architecture_known")


@dataclass(frozen=True)
class ShadowCollection:
    """The trained runs: run t's membership bit (a read-only int array),
    seed and artifact are entry t of each field; schema is the pool's."""

    target: tuple
    schema: Schema
    threat_model: ThreatModel
    bits: np.ndarray
    seeds: tuple[int, ...]
    artifacts: tuple
    master_seed: int
    trainer: object = None


@dataclass(frozen=True)
class FeatureBundle:
    """Per-run attack features, aligned with the collection's run order.

    features is a float64 (runs,) array for pred_loss and disc_loss, and for
    synth_dataset the runs' synthetic records as read-only run-axis arrays,
    one (runs, n) array per schema column."""

    mode: str
    features: np.ndarray | tuple[np.ndarray, ...]
    bits: np.ndarray
    target: tuple
    schema: object
    threat_model: ThreatModel | None = None


def dataset_fingerprint(ds: Dataset) -> str:
    """Hash of the row multiset; invariant under row order."""
    return hashlib.sha256(np.sort(row_keys(ds)).tobytes()).hexdigest()


def shadow_run_count(value) -> int:
    """value as a number of shadow runs: an int of at least 2."""
    return count_value("t_runs", value, 2)


def query_sample_count(value) -> int:
    """value as the rows of one synth_dataset query: an int of at least 1,
    since a query of no rows leaves the attack nothing to score."""
    return count_value("n_samples", value, 1)


def _stratified_bits(n: int, seed: int) -> np.ndarray:
    """Exactly floor(n/2) ones, shuffled deterministically.

    Deliberately not i.i.d. coin flips: stratification wastes no trials and
    the hypothesis test is conditional on group sizes either way.
    """
    bits = np.zeros(n, dtype=int)
    bits[: n // 2] = 1
    rng = np.random.default_rng(seed)
    rng.shuffle(bits)
    return bits


def run_shadow_experiment(
    target: tuple,
    pool: Dataset,
    trainer,
    tm: ThreatModel,
    t_runs: int,
    master_seed: int,
    workers: int = 1,
) -> ShadowCollection:
    """Train t_runs shadow artifacts with the target in or out.

    Per run t: s_t = derive_seed(master_seed, t); the baseline training set is
    the pool itself (fixed_dataset) or a half-size subsample drawn from s_t
    (resampled_dataset); the target is appended iff b_t = 1; training uses s_t.
    A pool that leaves some run no rows is rejected before any training.
    The trainer's ``fit_runs(data, run_rows, seeds, workers)`` gets every
    run's rows of pool-plus-target and seed in one call: the predictive
    trainer steps them in lockstep blocks and trains the blocks in up to
    ``workers`` processes, this one and forked children; the marginal trainer
    bins every row once and fits each run from its rows' cells, and the GAN
    trainer fits run by run, both in this thread. Either way run t depends
    only on master_seed and t, and not on ``workers``.
    """
    shadow_run_count(t_runs)
    target = Dataset.from_rows(pool.schema, [target]).rows[0]
    if pool.matches(target).any():
        raise ValueError("target record must not be present in the pool")
    # row n is the target: a run takes its pool rows in order, then row n iff b_t = 1
    n = len(pool)
    with_target = pool.with_record(target)

    bits = _stratified_bits(t_runs, derive_seed(master_seed, "bits"))
    seeds = [derive_seed(master_seed, t) for t in range(t_runs)]
    run_rows = []
    for t, s_t in enumerate(seeds):
        if tm.data_knowledge == RESAMPLED_DATASET:
            rng = np.random.default_rng(derive_seed(s_t, "subsample"))
            idx = np.sort(rng.choice(n, size=n // 2, replace=False))
        else:
            idx = np.arange(n)
        run_rows.append(np.append(idx, n) if bits[t] else idx)
    if min(map(len, run_rows)) == 0:
        raise ValueError(f"a pool of size {n} leaves a target-out run no training rows")

    artifacts = trainer.fit_runs(with_target, run_rows, seeds, workers)
    bits.setflags(write=False)
    return ShadowCollection(
        target=target,
        schema=pool.schema,
        threat_model=tm,
        bits=bits,
        seeds=tuple(seeds),
        artifacts=tuple(artifacts),
        master_seed=master_seed,
        trainer=trainer,
    )


def check_features(mode: str, trainer, tm: ThreatModel) -> None:
    """Raise ValueError unless the trainer, under the threat model, can
    supply the feature mode: the one rule the CLI and query_features share."""
    if mode not in ("pred_loss", "synth_dataset", "disc_loss"):
        raise ValueError(f"unknown feature mode {mode!r}")
    if mode == "disc_loss" and tm.model_access != WHITE_BOX:
        raise ValueError("disc_loss requires white_box model access")
    if mode == "disc_loss" and not isinstance(trainer, GanTrainer):
        raise ValueError("disc_loss requires a GAN trainer")
    kind = "predictive" if mode == "pred_loss" else "generative"
    if getattr(trainer, "kind", None) != kind:
        raise ValueError(f"{mode} requires a {kind} trainer")


def query_features(collection: ShadowCollection, mode: str, query_config: dict | None = None) -> FeatureBundle:
    """Extract per-run attack features, once check_features allows the mode,
    as read-only run-axis values.

    pred_loss: loss of the target under each trained model.
    synth_dataset: query_config['n_samples'] synthetic records per run, all
    runs sampled into one set of run-axis arrays (sample_runs).
    disc_loss: discriminator loss at the target (white-box GAN only).
    """
    qc = dict(query_config or {})
    trainer = collection.trainer
    check_features(mode, trainer, collection.threat_model)

    arts = collection.artifacts
    if mode == "synth_dataset":
        n = query_sample_count(qc.get("n_samples", 100))
        feats = sample_runs(arts, n, [derive_seed(collection.master_seed, "query", t)
                                      for t in range(len(arts))])
        for c in feats:
            c.setflags(write=False)
    else:
        losses = (trainer.target_losses(arts, collection.schema, collection.target)
                  if mode == "pred_loss" else [disc_loss(a, collection.target) for a in arts])
        feats = np.array(losses, dtype=np.float64)
        feats.setflags(write=False)

    return FeatureBundle(
        mode=mode,
        features=feats,
        bits=collection.bits,
        target=collection.target,
        schema=collection.schema,
        threat_model=collection.threat_model,
    )
