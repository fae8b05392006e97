"""DP-SGD training loop with deliberately breakable internals.

Per-sample clipping, Gaussian noising of the aggregated batch gradient,
Poisson subsampling, and a Gaussian-DP accountant. The bug modes are
first-class configuration: they reproduce, exactly as named, the classic
implementation mistakes that privacy audits are supposed to catch, and the
audit module uses them as positive controls.
"""

from __future__ import annotations

import os
import threading
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
    "train_lockstep",
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
    meta: dict = field(default_factory=dict)


class _Philox(threading.local):
    """One Philox generator per thread, with a state template to re-seat it."""

    def __init__(self):
        self.bits = np.random.Philox(0)
        self.gen = np.random.Generator(self.bits)
        self.counter = np.zeros(4, dtype=np.uint64)
        self.key = np.zeros(2, dtype=np.uint64)
        self.state = {"bit_generator": "Philox",
                      "state": {"counter": self.counter, "key": self.key},
                      "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                      "has_uint32": 0, "uinteger": 0}


_philox = _Philox()


def _stream(seed: int, tag: int, counter: int) -> np.random.Generator:
    """The counter-based Philox stream keyed (seed, tag), at the counter.

    Its draws equal those of a fresh ``Philox(key=[seed, tag], counter=counter)``:
    the thread's one bit generator is re-seated to that state, with an empty
    buffer, which costs a fraction of building one. The generator is shared,
    so draw from it before the next _stream call and never hold it across
    another stream's draw.
    """
    p = _philox
    p.counter[0] = counter
    p.key[0] = seed % 2**64
    p.key[1] = tag
    p.bits.state = p.state
    return p.gen


def clip_per_sample(grad: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale the gradient down to at most the clip norm, preserving direction."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be > 0")
    norm = float(np.linalg.norm(grad))
    if norm <= clip_norm:
        return np.array(grad, dtype=np.float64)
    return np.asarray(grad, dtype=np.float64) * (clip_norm / norm)


def _row_norms(rows: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """np.linalg.norm(rows, axis=-1), the same reduction bit for bit, with
    the squares written into the given buffer when there is one."""
    return np.sqrt(np.add.reduce(np.multiply(rows, rows, out=squares), axis=-1))


def _weighted_row_sum(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(rows * weights[..., None]).sum(axis=-2), bit for bit, without the
    product array. For each column einsum adds the weighted rows in row
    order, as that sum does; over a single column it would take a SIMD dot
    product instead, so that case keeps the sum."""
    if rows.shape[-1] < 2:
        return (rows * weights[..., None]).sum(axis=-2)
    return np.einsum("...bp,...b->...p", rows, weights)


def clip_and_sum(raw: np.ndarray, config: DpSgdConfig, max_norm: bool = True):
    """The deterministic half of a DP-SGD aggregation.

    Sums the per-sample clipped gradients and returns (grad_sum,
    max_sample_norm). NO_PER_SAMPLE_CLIPPING clips the sum instead, so one
    oversized sample can move it arbitrarily far. With max_norm False the
    pass over the clipped rows' norms is skipped and max_sample_norm is None.

    raw may carry a leading run axis, shape (K, B, dim), with zero rows after
    each run's batch; a zero row adds nothing to a sum or a maximum norm, so
    grad_sum is (K, dim) and max_sample_norm (K,), each run's row as the
    unbatched call on its own rows gives it.
    """
    raw = np.asarray(raw, dtype=np.float64)
    c = config.clip_norm
    if config.bug_mode == BugMode.NO_PER_SAMPLE_CLIPPING:
        sums = raw.sum(axis=-2)
        grad_sum = np.reshape([clip_per_sample(g, c) for g in sums.reshape(-1, sums.shape[-1])],
                              sums.shape)
        norms = _row_norms(raw) if max_norm else None
    else:
        buffer = np.empty_like(raw)  # the squares, then the clipped rows and theirs
        factors = np.minimum(1.0, c / np.maximum(_row_norms(raw, buffer), 1e-300))
        grad_sum = _weighted_row_sum(raw, factors)
        norms = None
        if max_norm:
            norms = _row_norms(np.multiply(raw, factors[..., None], out=buffer), buffer)
    if norms is None:
        return grad_sum, None
    max_sample_norm = norms.max(axis=-1, initial=0.0)
    return grad_sum, (float(max_sample_norm) if raw.ndim == 2 else max_sample_norm)


def privatize(
    grad_sum: np.ndarray,
    n_realized,
    config: DpSgdConfig,
    n_total,
    step,
    seed=None,
) -> tuple[np.ndarray, np.ndarray]:
    """The randomized half of a DP-SGD aggregation: returns (update, noise).

    Correct mode adds Gaussian noise with per-coordinate std sigma*C to the
    clipped sum and divides by the EXPECTED batch size p*N. Normalizing the
    noise by the realized size instead would break the sensitivity argument,
    which is exactly what NOISE_NOT_SCALED_TO_BATCH simulates.

    grad_sum may carry a leading axis, shape (K, dim), of audit trials or
    lockstep runs; n_realized, n_total, step and seed (config.seed when None)
    are then scalars or of shape (K,). Row k gets the noise the unbatched call
    would draw with seed[k] at step[k], so each row is independent of K.
    """
    grad_sum = np.asarray(grad_sum, dtype=np.float64)
    std = config.noise_multiplier * config.clip_norm
    mode = config.bug_mode

    noise = np.zeros(grad_sum.shape)
    rows = noise.reshape(-1, noise.shape[-1])  # a view: one row per trial or run
    if mode != BugMode.NO_NOISE:
        if mode == BugMode.STATIC_NOISE:
            step = 0  # every step replays step 0's draw
        seeds = [config.seed] * len(rows) if seed is None else [int(s) for s in seed]
        counters = np.broadcast_to(step, len(rows)).tolist()
        for row, s, counter in zip(rows, seeds, counters, strict=True):
            row[:] = _stream(s, _TAG_NOISE, counter).normal(0.0, std, size=row.size)

    expected_batch = np.expand_dims(config.sample_rate * np.asarray(n_total, dtype=np.float64), -1)
    if mode == BugMode.NOISE_NOT_SCALED_TO_BATCH:
        realized = np.maximum(n_realized, 1)
        update = grad_sum / expected_batch + noise / np.expand_dims(realized, -1)
    else:
        update = (grad_sum + noise) / expected_batch
    return update, noise


def noisy_aggregate(
    raw: np.ndarray,
    n_realized,
    config: DpSgdConfig,
    n_total,
    step,
    seed=None,
    max_norm: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | np.ndarray | None]:
    """The privatized aggregation at the heart of a DP-SGD step.

    Takes raw per-sample gradients and returns (update, grad_sum, noise,
    max_sample_norm): clip_and_sum followed by privatize, each with an
    optional leading run axis. The audit module drives those two halves
    directly with adversarial gradients, so every bug mode is exercised
    through the same code path the trainer uses.
    """
    grad_sum, max_sample_norm = clip_and_sum(raw, config, max_norm)
    update, noise = privatize(grad_sum, n_realized, config, n_total, step, seed)
    return update, grad_sum, noise, max_sample_norm


def _update(spec, params, x, y, sizes, config, n_total, step, seeds, max_norm=True):
    """One DP-SGD step of K runs in lockstep: params (K, P), x (K, B, d) and
    y (K, B), padded after each run's sizes[k] rows. Returns (new params,
    grad_sum, noise, max_sample_norm), each with the run axis."""
    if x.shape[1] > 0:
        raw = models.batch_per_sample_gradients(spec, params, x, y, sizes)
    else:
        raw = np.zeros((len(params), 0, params.shape[-1]))
    update, grad_sum, noise, max_sample_norm = noisy_aggregate(
        raw, sizes, config, n_total, step, seeds, max_norm
    )
    return params - config.learning_rate * update, grad_sum, noise, max_sample_norm


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
    new_params, grad_sum, noise, max_sample_norm = _update(
        spec, params[None], np.asarray(batch_x, dtype=np.float64)[None],
        np.asarray(batch_y, dtype=int)[None], [len(indices)], config,
        [n_total], step, [config.seed],
    )
    trace = StepTrace(
        indices=np.asarray(indices, dtype=np.int64),
        grad_sum=grad_sum[0],
        noise=noise[0],
        params_after=new_params[0],
        max_sample_norm=float(max_sample_norm[0]),
    )
    return new_params[0], trace


def _check_observability(observability: str) -> None:
    if observability not in ("black_box", "white_box"):
        raise ValueError(f"unknown observability {observability!r}")


# Runs trained in lockstep share each step's zero-padded (runs, batch,
# params) gradient block. One block takes as many runs as fit this many
# expected sampled rows per step: larger blocks outgrow the caches, so the
# memory-bound step gains nothing per run and peak memory grows with the runs.
_BLOCK_ROWS = 384


def train(
    spec: ModelSpec,
    x: np.ndarray,
    y: np.ndarray,
    config: DpSgdConfig,
    observability: str = "black_box",
) -> TrainedArtifact:
    """Run T steps of DP-SGD over the encoded dataset (x, y): the one-run
    case of train_lockstep."""
    return train_lockstep([spec], x, y, [np.arange(len(x))], [config], observability)[0]


def train_lockstep(
    specs: list[ModelSpec],
    x: np.ndarray,
    y: np.ndarray,
    run_rows: list[np.ndarray],
    configs: list[DpSgdConfig],
    observability: str = "black_box",
    meta: dict | None = None,
    workers: int = 1,
) -> list[TrainedArtifact]:
    """Train run k on the rows run_rows[k] of (x, y) with specs[k] and
    configs[k], the runs stepping together in blocks.

    The specs and the configs may differ only in their seeds. Seed-
    deterministic end to end: run k's Poisson batch draws and noise come from
    counter-based streams keyed by (configs[k].seed, step), and its artifact
    is bit for bit the one it gets when trained alone. The blocks are dealt
    to _process_count(workers, blocks) processes, so the artifacts do not
    depend on workers either.
    """
    _check_observability(observability)
    if (len({replace(s, seed=0) for s in specs}) > 1
            or len({replace(c, seed=0) for c in configs}) > 1):
        raise ValueError("lockstep runs may differ only in their seeds")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    config = configs[0]
    white_box = observability == "white_box"
    largest = max(len(r) for r in run_rows) * config.sample_rate
    block = max(1, int(_BLOCK_ROWS // max(largest, 1.0)))
    blocks = [slice(start, start + block) for start in range(0, len(specs), block)]

    def train_blocks(some):
        return [_train_block(specs[b], x, y, run_rows[b], configs[b], white_box) for b in some]

    out = []
    for runs, (params, traces) in zip(blocks, _fan_out(train_blocks, blocks, workers)):
        for k, spec in enumerate(specs[runs]):
            out.append(TrainedArtifact(
                kind="predictive",
                spec=spec,
                params=params[k].copy(),
                trace=TrainingTrace(tuple(traces[k])) if white_box else None,
                meta=dict(meta or {}),
            ))
    return out


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _process_count(workers: int, tasks: int) -> int:
    """The processes that share tasks at the given workers: no more than
    the tasks or the CPUs, and one where the fork start method does not exist."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(workers, tasks, _cpu_count()))


def _fan_out(fn, tasks: list, workers: int) -> list:
    """fn(some_tasks) over contiguous ranges of tasks, one range per process,
    the result lists joined in task order.

    This process takes the first range; each other range goes to a forked
    child, which inherits fn and its inputs and sends back only its result.
    A child's exception is raised here, a child that dies without a result
    raises RuntimeError, and every child is joined either way.
    """
    n = _process_count(workers, len(tasks))
    bounds = [len(tasks) * i // n for i in range(n + 1)]
    ranges = [tasks[a:b] for a, b in zip(bounds, bounds[1:])]
    if n == 1:
        return fn(ranges[0])
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for some in ranges[1:]:
            receive, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_result, args=(fn, some, send))
            child.start()
            send.close()  # the child now holds the only write end: its exit is EOF here
            children.append((child, receive))
        out = fn(ranges[0])
        for child, receive in children:
            try:
                ok, result = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"training process {child.pid} exited with code "
                                   f"{child.exitcode} before sending its result") from None
            if not ok:
                raise result
            out.extend(result)
        return out
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()


def _send_result(fn, tasks, send) -> None:
    """A forked child's work: (True, fn(tasks)), or (False, its exception)."""
    try:
        send.send((True, fn(tasks)))
    except Exception as e:
        send.send((False, e))


def _train_block(specs, x, y, run_rows, configs, white_box):
    """T lockstep steps of a block of runs: returns the (K, P) final params
    and, with white_box, each run's step traces."""
    config = configs[0]
    seeds = [c.seed for c in configs]
    n_total = [len(r) for r in run_rows]
    params = np.stack([models.init_params(s) for s in specs])
    traces = [[] for _ in specs]
    for step in range(config.steps):
        idx = [np.flatnonzero(_stream(s, _TAG_SAMPLE, step).random(n) < config.sample_rate)
               for s, n in zip(seeds, n_total)]
        sizes = [len(i) for i in idx]
        rows = np.zeros((len(idx), max(sizes)), dtype=np.intp)
        for k, (r, i) in enumerate(zip(run_rows, idx)):
            rows[k, : len(i)] = r[i]
        params, grad_sum, noise, max_norm = _update(
            specs[0], params, x[rows], y[rows], sizes, config, n_total, step, seeds, white_box
        )
        if white_box:
            for k, t in enumerate(traces):
                t.append(StepTrace(indices=idx[k], grad_sum=grad_sum[k], noise=noise[k],
                                   params_after=params[k], max_sample_norm=float(max_norm[k])))
    return params, traces


def claimed_privacy(config: DpSgdConfig, n: int, delta: float) -> PrivacyParams:
    """Accountant output for a correct configuration: the one place a DP-SGD
    claim is computed.

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
        return self.fit_runs(ds, [np.arange(len(ds))], [seed])[0]

    def fit_runs(self, data: Dataset, run_rows, seeds, workers: int = 1) -> list[TrainedArtifact]:
        """One artifact per run, trained in lockstep from one encoding of
        data by up to workers processes: run k equals
        fit(data.take(run_rows[k]), seeds[k])."""
        x, y = features_and_labels(data, self.label_column)
        return train_lockstep(
            [self.model_spec(data.schema, s) for s in seeds], x, y, list(run_rows),
            [replace(self.config, seed=derive_seed(s, "dpsgd")) for s in seeds],
            observability=self.observability,
            meta={"label_column": self.label_column, "schema": data.schema},
            workers=workers,
        )

    def claimed_epsilon(self, n: int, delta: float) -> float:
        """Accountant claim, computed as if any configured bug were absent."""
        cfg = replace(self.config, bug_mode=BugMode.NONE)
        return claimed_privacy(cfg, n, delta).epsilon

    def target_loss(self, artifact: TrainedArtifact, record) -> float:
        one = Dataset.from_rows(artifact.meta["schema"], [record])
        x, y = features_and_labels(one, self.label_column)
        return models.per_example_loss(artifact.spec, artifact.params, x[0], int(y[0]))
