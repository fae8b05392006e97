"""DP-SGD training loop with deliberately breakable internals.

Per-sample clipping, Gaussian noising of the aggregated batch gradient,
Poisson subsampling, and a Gaussian-DP accountant. The bug modes are
first-class configuration: they reproduce, exactly as named, the classic
implementation mistakes that privacy audits are supposed to catch, and the
audit module uses them as positive controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import models
from .core_stats import PrivacyParams, gdp_epsilon_of_delta, subsampled_gdp_mu
from .data import CategoricalColumn, Dataset, Schema, encode
from .models import ModelSpec
from .seeds import derive_seed

__all__ = [
    "BugMode",
    "DpSgdConfig",
    "StepTrace",
    "TrainingTrace",
    "TrainedArtifact",
    "NoValidGuaranteeError",
    "clip_per_sample",
    "clip_and_sum",
    "privatize",
    "noisy_aggregate",
    "noisy_batch_update",
    "train",
    "claimed_privacy",
    "features_and_labels",
    "PredictiveTrainer",
]

# stream tags for the counter-based Philox noise/sampling streams
_TAG_NOISE = 0xA11CE
_TAG_SAMPLE = 0xB0B


class NoValidGuaranteeError(RuntimeError):
    """Raised when asking for a privacy claim from a broken configuration."""


class BugMode(str, Enum):
    NONE = "none"
    NO_PER_SAMPLE_CLIPPING = "no_per_sample_clipping"
    STATIC_NOISE = "static_noise"
    NOISE_NOT_SCALED_TO_BATCH = "noise_not_scaled_to_batch"
    NO_NOISE = "no_noise"


@dataclass(frozen=True)
class DpSgdConfig:
    clip_norm: float
    noise_multiplier: float
    sample_rate: float
    steps: int
    learning_rate: float
    seed: int = 0
    bug_mode: BugMode = BugMode.NONE

    def __post_init__(self):
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0")
        if self.noise_multiplier < 0:
            raise ValueError("noise_multiplier must be >= 0")
        if not (0.0 < self.sample_rate <= 1.0):
            raise ValueError("sample_rate must be in (0, 1]")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


@dataclass(frozen=True)
class StepTrace:
    indices: np.ndarray          # sampled batch row indices
    grad_sum: np.ndarray         # pre-noise aggregated (clipped) gradient
    noise: np.ndarray            # the exact Gaussian draw applied
    params_after: np.ndarray
    max_sample_norm: float       # largest per-sample norm after clipping


@dataclass(frozen=True)
class TrainingTrace:
    steps: tuple[StepTrace, ...]


@dataclass(frozen=True)
class TrainedArtifact:
    kind: str                    # "predictive" or "generative"
    spec: ModelSpec
    params: np.ndarray
    trace: TrainingTrace | None
    privacy: PrivacyParams | None
    meta: dict = field(default_factory=dict)


def _stream(seed: int, tag: int, counter: int) -> np.random.Generator:
    key = np.array([seed % 2**64, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def clip_per_sample(grad: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale the gradient down to at most the clip norm, preserving direction."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be > 0")
    norm = float(np.linalg.norm(grad))
    if norm <= clip_norm:
        return np.array(grad, dtype=np.float64)
    return np.asarray(grad, dtype=np.float64) * (clip_norm / norm)


def _clip_rows(grads: np.ndarray, clip_norm: float) -> np.ndarray:
    norms = np.linalg.norm(grads, axis=1)
    factors = np.minimum(1.0, clip_norm / np.maximum(norms, 1e-300))
    return grads * factors[:, None]


def clip_and_sum(raw: np.ndarray, config: DpSgdConfig) -> tuple[np.ndarray, float]:
    """The deterministic half of a DP-SGD aggregation.

    Sums the per-sample clipped gradients and returns (grad_sum,
    max_sample_norm). NO_PER_SAMPLE_CLIPPING clips the sum instead, so one
    oversized sample can move it arbitrarily far.
    """
    raw = np.asarray(raw, dtype=np.float64)
    c = config.clip_norm
    if config.bug_mode == BugMode.NO_PER_SAMPLE_CLIPPING:
        grad_sum = clip_per_sample(raw.sum(axis=0), c)
        max_sample_norm = float(np.linalg.norm(raw, axis=1).max()) if len(raw) else 0.0
    else:
        clipped = _clip_rows(raw, c)
        grad_sum = clipped.sum(axis=0)
        max_sample_norm = float(np.linalg.norm(clipped, axis=1).max()) if len(clipped) else 0.0
    return grad_sum, max_sample_norm


def privatize(
    grad_sum: np.ndarray,
    n_realized,
    config: DpSgdConfig,
    n_total: int,
    step,
) -> tuple[np.ndarray, np.ndarray]:
    """The randomized half of a DP-SGD aggregation: returns (update, noise).

    Correct mode adds Gaussian noise with per-coordinate std sigma*C to the
    clipped sum and divides by the EXPECTED batch size p*N. Normalizing the
    noise by the realized size instead would break the sensitivity argument,
    which is exactly what NOISE_NOT_SCALED_TO_BATCH simulates.

    grad_sum may carry a leading trial axis, shape (K, dim), with n_realized
    and step of shape (K,); row k then gets the noise the unbatched call
    would draw at step[k], so each row is independent of K.
    """
    grad_sum = np.asarray(grad_sum, dtype=np.float64)
    std = config.noise_multiplier * config.clip_norm
    mode = config.bug_mode

    noise = np.zeros(grad_sum.shape)
    rows = noise.reshape(-1, noise.shape[-1])  # a view: one row per trial
    if mode == BugMode.STATIC_NOISE:
        rows[:] = _stream(config.seed, _TAG_NOISE, 0).normal(0.0, std, size=rows.shape[1])
    elif mode != BugMode.NO_NOISE:
        for row, counter in zip(rows, np.ravel(step).tolist(), strict=True):
            row[:] = _stream(config.seed, _TAG_NOISE, counter).normal(0.0, std, size=row.size)

    expected_batch = config.sample_rate * n_total
    if mode == BugMode.NOISE_NOT_SCALED_TO_BATCH:
        realized = np.maximum(n_realized, 1)
        update = grad_sum / expected_batch + noise / np.expand_dims(realized, -1)
    else:
        update = (grad_sum + noise) / expected_batch
    return update, noise


def noisy_aggregate(
    raw: np.ndarray,
    n_realized: int,
    config: DpSgdConfig,
    n_total: int,
    step: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The privatized aggregation at the heart of a DP-SGD step.

    Takes raw per-sample gradients and returns (update, grad_sum, noise,
    max_sample_norm): clip_and_sum followed by privatize. The audit module
    drives those two halves directly with adversarial gradients, so every bug
    mode is exercised through the same code path the trainer uses.
    """
    grad_sum, max_sample_norm = clip_and_sum(raw, config)
    update, noise = privatize(grad_sum, n_realized, config, n_total, step)
    return update, grad_sum, noise, max_sample_norm


def noisy_batch_update(
    spec: ModelSpec,
    params: np.ndarray,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    indices: np.ndarray,
    config: DpSgdConfig,
    n_total: int,
    step: int,
) -> tuple[np.ndarray, StepTrace]:
    """One DP-SGD step on an already-sampled batch."""
    if len(indices) > 0:
        raw = models.batch_per_sample_gradients(spec, params, batch_x, batch_y)
    else:
        raw = np.zeros((0, params.size))

    update, grad_sum, noise, max_sample_norm = noisy_aggregate(
        raw, len(indices), config, n_total, step
    )
    new_params = params - config.learning_rate * update
    trace = StepTrace(
        indices=np.asarray(indices, dtype=np.int64),
        grad_sum=grad_sum,
        noise=noise,
        params_after=new_params,
        max_sample_norm=max_sample_norm,
    )
    return new_params, trace


def _check_observability(observability: str) -> None:
    if observability not in ("black_box", "white_box"):
        raise ValueError(f"unknown observability {observability!r}")


def train(
    spec: ModelSpec,
    x: np.ndarray,
    y: np.ndarray,
    config: DpSgdConfig,
    observability: str = "black_box",
    delta: float | None = None,
    meta: dict | None = None,
) -> TrainedArtifact:
    """Run T steps of DP-SGD over the encoded dataset (x, y).

    Seed-deterministic end to end: the Poisson batch draws and the noise come
    from counter-based streams keyed by (config.seed, step).
    """
    _check_observability(observability)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    n = x.shape[0]
    params = models.init_params(spec)
    steps: list[StepTrace] = []
    for step in range(config.steps):
        srng = _stream(config.seed, _TAG_SAMPLE, step)
        mask = srng.random(n) < config.sample_rate
        idx = np.nonzero(mask)[0]
        params, st = noisy_batch_update(
            spec, params, x[idx], y[idx], idx, config, n, step
        )
        if observability == "white_box":
            steps.append(st)

    privacy = None
    if config.bug_mode == BugMode.NONE and config.noise_multiplier > 0 and delta is not None:
        privacy = claimed_privacy(config, n, delta)

    return TrainedArtifact(
        kind="predictive",
        spec=spec,
        params=params,
        trace=TrainingTrace(tuple(steps)) if observability == "white_box" else None,
        privacy=privacy,
        meta=dict(meta or {}),
    )


def claimed_privacy(config: DpSgdConfig, n: int, delta: float) -> PrivacyParams:
    """Accountant output for a correct configuration.

    Composes the per-step Gaussian mechanisms in mu-GDP and inverts the
    delta(eps) curve at the caller's delta.
    """
    if config.bug_mode != BugMode.NONE:
        raise NoValidGuaranteeError(
            f"no valid guarantee exists for bug_mode={config.bug_mode.value}"
        )
    if config.noise_multiplier <= 0:
        raise NoValidGuaranteeError("no valid guarantee exists without noise")
    mu = subsampled_gdp_mu(config.noise_multiplier, config.sample_rate, config.steps)
    eps = gdp_epsilon_of_delta(mu, delta)
    return PrivacyParams(epsilon=eps, delta=delta)


# ---------------------------------------------------------------------------
# dataset plumbing for predictive training

def features_and_labels(ds: Dataset, label_column: str) -> tuple[np.ndarray, np.ndarray]:
    """Split an encoded dataset into feature matrix and integer labels."""
    col = ds.schema.column(label_column)
    if not isinstance(col, CategoricalColumn):
        raise ValueError(f"label column {label_column!r} must be categorical")
    em = encode(ds)
    ci = ds.schema.names.index(label_column)
    a, b = em.spans[ci]
    keep = np.r_[0:a, b:em.matrix.shape[1]].astype(int)
    return em.matrix[:, keep], ds.columns[ci]


@dataclass(frozen=True)
class PredictiveTrainer:
    """Shadow-harness adapter: trains a predictive model via DP-SGD.

    One categorical column serves as the label; all remaining columns are the
    encoded features.
    """

    label_column: str
    config: DpSgdConfig
    model_kind: str = models.LOGISTIC
    hidden_dim: int = 0
    init_scale: float = 0.1
    observability: str = "black_box"
    delta: float | None = None

    kind = "predictive"

    def __post_init__(self):
        _check_observability(self.observability)

    def model_spec(self, schema: Schema, seed: int) -> ModelSpec:
        col = schema.column(self.label_column)
        if not isinstance(col, CategoricalColumn):
            raise ValueError(f"label column {self.label_column!r} must be categorical")
        if len(col.levels) < 2:
            raise ValueError(f"label column {self.label_column!r} needs >= 2 levels")
        width = schema.encoded_width - len(col.levels)
        return ModelSpec(
            kind=self.model_kind,
            input_dim=width,
            num_classes=len(col.levels),
            hidden_dim=self.hidden_dim,
            init_scale=self.init_scale,
            seed=derive_seed(seed, "init"),
        )

    def fit(self, ds: Dataset, seed: int) -> TrainedArtifact:
        spec = self.model_spec(ds.schema, seed)
        cfg = replace(self.config, seed=derive_seed(seed, "dpsgd"))
        x, y = features_and_labels(ds, self.label_column)
        art = train(
            spec, x, y, cfg,
            observability=self.observability,
            delta=self.delta,
            meta={"label_column": self.label_column, "schema": ds.schema},
        )
        return art

    def claimed_epsilon(self, n: int, delta: float) -> float:
        """Accountant claim, computed as if any configured bug were absent."""
        cfg = replace(self.config, bug_mode=BugMode.NONE)
        return claimed_privacy(cfg, n, delta).epsilon

    def target_loss(self, artifact: TrainedArtifact, record) -> float:
        one = Dataset.from_rows(artifact.meta["schema"], [record])
        x, y = features_and_labels(one, self.label_column)
        return models.per_example_loss(artifact.spec, artifact.params, x[0], int(y[0]))
