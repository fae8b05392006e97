"""Shadow-modeling harness.

Repeatedly trains target-in/target-out artifacts under controlled randomness
and hands labeled material to the attacks. Runs are independent. The
predictive ones train in lockstep blocks, which forked processes may share;
the others train in the calling thread. The collection is ordered by run
index and each run depends only on the master seed and its index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .data import Dataset, row_keys
from .dpsgd import PredictiveTrainer
from .seeds import derive_seed
from .synthesizers import disc_loss, sample

__all__ = [
    "ThreatModel",
    "ShadowRun",
    "ShadowCollection",
    "FeatureBundle",
    "run_shadow_experiment",
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
        if self.model_access == WHITE_BOX and not self.architecture_known:
            raise ValueError("white_box access implies architecture_known")


@dataclass(frozen=True)
class ShadowRun:
    index: int
    bit: int
    artifact: object
    seed: int
    fingerprint: str


@dataclass(frozen=True)
class ShadowCollection:
    target: tuple
    threat_model: ThreatModel
    runs: tuple[ShadowRun, ...]
    master_seed: int
    trainer: object = None

    @property
    def bits(self) -> np.ndarray:
        return np.array([r.bit for r in self.runs], dtype=int)


@dataclass(frozen=True)
class FeatureBundle:
    """Per-run attack features, aligned with the collection's run order."""

    mode: str
    features: tuple
    bits: np.ndarray
    target: tuple
    schema: object
    threat_model: ThreatModel | None = None


def dataset_fingerprint(ds: Dataset) -> str:
    """Hash of the row multiset; invariant under row order."""
    return _fingerprint(np.sort(row_keys(ds)))


def _fingerprint(sorted_keys: np.ndarray) -> str:
    return hashlib.sha256(sorted_keys.tobytes()).hexdigest()


def shadow_run_count(value) -> int:
    """value as a number of shadow runs: an int of at least 2."""
    t_runs = int(value)
    if t_runs < 2:
        raise ValueError(f"need at least 2 shadow runs, got {value}")
    return t_runs


def query_sample_count(value) -> int:
    """value as the rows of one synth_dataset query: an int of at least 1,
    since a query of no rows leaves the attack nothing to score."""
    n = int(value)
    if n < 1:
        raise ValueError(f"n_samples must be >= 1, got {value}")
    return n


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
    A trainer with ``fit_runs(data, run_rows, seeds, workers)`` gets every
    run's rows of pool-plus-target and seed in one call: the predictive
    trainer steps them in lockstep blocks and trains the blocks in up to
    ``workers`` processes, this one and forked children. Any other trainer
    is fit run by run in this thread. Either way run t depends only on
    master_seed and t, and not on ``workers``.
    """
    shadow_run_count(t_runs)
    target = pool.schema.validate_record(target)
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

    # a run's rows are distinct, so its sorted keys are the sorted keys of all
    # rows filtered to its own: one sort serves every run's fingerprint
    keys = row_keys(with_target)
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def fingerprint(rows):
        member = np.zeros(n + 1, dtype=bool)
        member[rows] = True
        return _fingerprint(sorted_keys[member[order]])

    fit_runs = getattr(trainer, "fit_runs", None)
    if fit_runs is not None:
        artifacts = fit_runs(with_target, run_rows, seeds, workers)
    else:
        artifacts = [trainer.fit(with_target.take(r), s) for r, s in zip(run_rows, seeds)]
    runs = tuple(
        ShadowRun(
            index=t,
            bit=int(bits[t]),
            artifact=artifacts[t],
            seed=seeds[t],
            fingerprint=fingerprint(run_rows[t]),
        )
        for t in range(t_runs)
    )
    return ShadowCollection(
        target=target,
        threat_model=tm,
        runs=runs,
        master_seed=master_seed,
        trainer=trainer,
    )


def query_features(collection: ShadowCollection, mode: str, query_config: dict | None = None) -> FeatureBundle:
    """Extract per-run attack features.

    pred_loss: loss of the target under each trained model.
    synth_dataset: a synthetic dataset of query_config['n_samples'] rows per run.
    disc_loss: discriminator loss at the target (white-box GAN only).
    """
    qc = dict(query_config or {})
    trainer = collection.trainer

    if mode == "pred_loss":
        if not isinstance(trainer, PredictiveTrainer):
            raise ValueError("pred_loss requires a predictive trainer")
        feats = tuple(
            trainer.target_loss(r.artifact, collection.target) for r in collection.runs
        )
        schema = collection.runs[0].artifact.meta["schema"]
    elif mode == "synth_dataset":
        if getattr(trainer, "kind", None) != "generative":
            raise ValueError("synth_dataset requires a generative trainer")
        n = query_sample_count(qc.get("n_samples", 100))
        feats = tuple(
            sample(r.artifact, n, derive_seed(collection.master_seed, "query", r.index))
            for r in collection.runs
        )
        schema = collection.runs[0].artifact.schema
    elif mode == "disc_loss":
        if collection.threat_model.model_access != WHITE_BOX:
            raise ValueError("disc_loss requires white_box model access")
        if any(getattr(r.artifact, "kind", None) != "gan" for r in collection.runs):
            raise ValueError("disc_loss requires GAN artifacts")
        feats = tuple(disc_loss(r.artifact, collection.target) for r in collection.runs)
        schema = collection.runs[0].artifact.schema
    else:
        raise ValueError(f"unknown feature mode {mode!r}")

    return FeatureBundle(
        mode=mode,
        features=feats,
        bits=collection.bits,
        target=collection.target,
        schema=schema,
        threat_model=collection.threat_model,
    )
