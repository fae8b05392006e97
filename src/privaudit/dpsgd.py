"""DP-SGD training loop with deliberately breakable internals.

Per-sample clipping, Gaussian noising of the aggregated batch gradient and
Poisson subsampling. The bug modes are first-class configuration: they
reproduce, exactly as named, the classic implementation mistakes that privacy
audits are supposed to catch, and the audit module uses them as positive
controls.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import models
from .core_stats import gdp_epsilon_of_delta, subsampled_gdp_mu
from .data import CategoricalColumn, Dataset, Schema, check_finite, count_value, encode, fraction
from .models import ModelSpec
from .seeds import derive_seed

__all__ = [
    "BugMode",
    "DpSgdConfig",
    "StepTrace",
    "TrainingTrace",
    "TrainedArtifact",
    "clip_per_sample",
    "clip_and_sum",
    "privatize",
    "noisy_aggregate",
    "train",
    "train_lockstep",
    "features_and_labels",
    "PredictiveTrainer",
]

# stream tags for the counter-based Philox noise/sampling streams
_TAG_NOISE = 0xA11CE
_TAG_SAMPLE = 0xB0B


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
        check_finite("clip_norm", self.clip_norm)
        check_finite("noise_multiplier", self.noise_multiplier, positive=False)
        fraction("sample_rate", self.sample_rate, one=True)
        object.__setattr__(self, "steps", count_value("steps", self.steps, 1))
        check_finite("learning_rate", self.learning_rate)


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


# the one Philox generator _stream re-seats, and the state template it writes
_PHILOX = np.random.Philox(0)
_PHILOX_GEN = np.random.Generator(_PHILOX)
_PHILOX_COUNTER = np.zeros(4, dtype=np.uint64)
_PHILOX_KEY = np.zeros(2, dtype=np.uint64)
_PHILOX_STATE = {"bit_generator": "Philox",
                 "state": {"counter": _PHILOX_COUNTER, "key": _PHILOX_KEY},
                 "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}


def _stream(seed: int, tag: int, counter: int) -> np.random.Generator:
    """The counter-based Philox stream keyed (seed, tag), at the counter.

    The counter sits in Philox counter word 1. Word 0 starts at 0 and counts
    the stream's 4-draw blocks, so no two (seed, tag, counter) streams share
    a draw short of 2**64 blocks. Its draws equal those of a fresh
    ``Philox(key=[seed, tag], counter=[0, counter, 0, 0])``: the module's one
    bit generator is re-seated to that state, with an empty buffer, which
    costs a fraction of building one. The generator is shared, so draw from
    it before the next _stream call and never hold it across another
    stream's draw.
    """
    _PHILOX_COUNTER[1] = counter
    _PHILOX_KEY[0] = seed % 2**64
    _PHILOX_KEY[1] = tag
    _PHILOX.state = _PHILOX_STATE
    return _PHILOX_GEN


def _first_draw(n: int, rate: float) -> int:
    """The gaps _poisson_rows draws first: four standard deviations above the
    mean count, so that a top-up is rare."""
    return int(n * rate + 4.0 * (n * rate) ** 0.5) + 8


def _poisson_rows(gen: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """Poisson subsampling of rows 0..n-1: the sorted rows a Bernoulli(rate)
    trial per row keeps, read off the process's geometric(rate) gaps, so it
    takes about rate*n draws rather than n uniforms. A first draw that falls
    short of row n is topped up with further gaps; rate 1 keeps every row."""
    if rate >= 1.0:
        return np.arange(n)
    size = _first_draw(n, rate)
    ends = np.cumsum(gen.geometric(rate, size))  # 1-based positions of kept rows
    while ends[-1] < n:
        ends = np.concatenate([ends, ends[-1] + np.cumsum(gen.geometric(rate, size))])
    return ends[: np.searchsorted(ends, n, side="right")] - 1


def _block_rows(seeds, n_total, rate: float, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Each run's _poisson_rows from its (seed, _TAG_SAMPLE, step) stream,
    for a block of runs at once: (rows, sizes), run k's rows the first
    sizes[k] entries of rows[k] and every later entry at least n_total[k].

    The runs' first draws of gaps go into one array, whose cumulative sums
    and kept counts are taken once; a run whose first draw falls short of
    its last row is drawn again by _poisson_rows, which tops it up.
    """
    n = np.asarray(n_total)
    draws = [_first_draw(m, rate) for m in n_total]
    gaps = np.empty((len(n), max(draws)), dtype=np.int64)
    for g, seed, d, m in zip(gaps, seeds, draws, n_total):
        g[:d] = _stream(seed, _TAG_SAMPLE, step).geometric(rate, d)
        if d < len(g):
            g[d:] = m  # past the run's last row
    rows = np.cumsum(gaps, axis=1, out=gaps)
    rows -= 1
    sizes = np.count_nonzero(rows < n[:, None], axis=1)
    short = np.flatnonzero(rows[np.arange(len(n)), np.subtract(draws, 1)] < n - 1).tolist()
    if short:
        full = {k: _poisson_rows(_stream(seeds[k], _TAG_SAMPLE, step), n_total[k], rate)
                for k in short}
        width = max(rows.shape[1], *map(len, full.values()))
        rows = np.pad(rows, ((0, 0), (0, width - rows.shape[1])), constant_values=n.max())
        for k, r in full.items():
            rows[k, : len(r)] = r
            rows[k, len(r) :] = n_total[k]
            sizes[k] = len(r)
    return rows, sizes


def clip_per_sample(grad: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale the gradient down to at most the clip norm, preserving direction."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be > 0")
    norm = float(np.linalg.norm(grad))
    if norm <= clip_norm:
        return np.array(grad, dtype=np.float64)
    return np.asarray(grad, dtype=np.float64) * (clip_norm / norm)


def clip_and_sum(raw, config: DpSgdConfig, max_norm: bool = True):
    """The deterministic half of a DP-SGD aggregation.

    Sums the per-sample clipped gradients and returns (grad_sum,
    max_sample_norm). NO_PER_SAMPLE_CLIPPING clips the sum instead, so one
    oversized sample can move it arbitrarily far. With max_norm False
    max_sample_norm is None.

    raw is the per-sample gradients' models.GradientFactors, whose norms come
    from the factors' norms and whose (weighted) sum is a matmul per run. A
    dense (rows, dim) array is taken as one layer whose right factor is
    empty. Either may carry a leading run axis, shape (K, B, dim), with zero
    rows after each run's batch; a zero row adds nothing to a sum or a
    maximum norm, so grad_sum is (K, dim) and max_sample_norm (K,), each
    run's row as the unbatched call on its own rows gives it.
    """
    if not isinstance(raw, models.GradientFactors):
        rows = np.asarray(raw, dtype=np.float64)
        raw = models.GradientFactors(((rows, np.zeros(rows.shape[:-1] + (0,))),))
    c = config.clip_norm
    if config.bug_mode == BugMode.NO_PER_SAMPLE_CLIPPING:
        sums = raw.weighted_sum(np.ones(raw.shape[:-1]))
        grad_sum = np.reshape([clip_per_sample(g, c) for g in sums.reshape(-1, sums.shape[-1])],
                              sums.shape)
        norms = raw.row_norms() if max_norm else None
    else:
        norms = raw.row_norms()
        weights = np.minimum(1.0, c / np.maximum(norms, 1e-300))
        grad_sum = raw.weighted_sum(weights)
        norms = norms * weights if max_norm else None
    if norms is None:
        return grad_sum, None
    max_sample_norm = norms.max(axis=-1, initial=0.0)
    return grad_sum, (float(max_sample_norm) if len(raw.shape) == 2 else max_sample_norm)


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
    lockstep runs; n_realized and n_total are then scalars or of shape (K,).
    With seed None every row draws from config.seed's stream at the step:
    row k is that stream's k-th run of dim consecutive draws, all K taken in
    one call, so the first rows do not depend on K. With seed of shape (K,)
    row k is the unbatched call's draw with seed[k] at the step. STATIC_NOISE
    replays step 0 on every step and, with seed None, the first row's draw
    on every row.
    """
    grad_sum = np.asarray(grad_sum, dtype=np.float64)
    std = config.noise_multiplier * config.clip_norm
    mode = config.bug_mode

    noise = np.zeros(grad_sum.shape)
    rows = noise.reshape(-1, noise.shape[-1])  # a view: one row per trial or run
    if mode != BugMode.NO_NOISE:
        static = mode == BugMode.STATIC_NOISE
        step = 0 if static else step
        if seed is None:
            shape = (1 if static else len(rows), rows.shape[1])
            rows[:] = _stream(config.seed, _TAG_NOISE, step).normal(0.0, std, size=shape)
        else:
            for row, s in zip(rows, seed, strict=True):
                _stream(int(s), _TAG_NOISE, step).standard_normal(out=row)
            # normal(0, std) returns 0 + std * z for each standard draw z:
            # the same two operations, here once for every row
            np.add(np.multiply(rows, std, out=rows), 0.0, out=rows)

    expected_batch = np.expand_dims(config.sample_rate * np.asarray(n_total, dtype=np.float64), -1)
    if mode == BugMode.NOISE_NOT_SCALED_TO_BATCH:
        realized = np.maximum(n_realized, 1)
        update = grad_sum / expected_batch + noise / np.expand_dims(realized, -1)
    else:
        update = (grad_sum + noise) / expected_batch
    return update, noise


def noisy_aggregate(
    raw,
    n_realized,
    config: DpSgdConfig,
    n_total,
    step,
    seed=None,
    max_norm: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | np.ndarray | None]:
    """The privatized aggregation at the heart of a DP-SGD step.

    Takes raw per-sample gradients as clip_and_sum takes them and returns
    (update, grad_sum, noise, max_sample_norm): clip_and_sum followed by
    privatize, each with an optional leading run axis. The audit module
    drives those two halves directly with adversarial gradients, so every
    bug mode is exercised through the same code path the trainer uses.
    """
    grad_sum, max_sample_norm = clip_and_sum(raw, config, max_norm)
    update, noise = privatize(grad_sum, n_realized, config, n_total, step, seed)
    return update, grad_sum, noise, max_sample_norm


def _update(spec, params, x, y, sizes, config, n_total, step, seeds, ws, max_norm=True,
            lengths=None):
    """One DP-SGD step of K runs in lockstep: params (K, P), x (K, B, d) and
    y (K, B), padded after each run's sizes[k] rows and computed over its
    first lengths[k] (sizes[k] when lengths is None). The step's activations
    and gradient factors are arrays of the workspace ws (fresh ones when it
    is None). Returns (new params, grad_sum, noise, max_sample_norm), each
    with the run axis and each a fresh array."""
    factors = models.batch_gradient_factors(spec, params, x, y, sizes, ws, lengths)
    update, grad_sum, noise, max_sample_norm = noisy_aggregate(
        factors, sizes, config, n_total, step, seeds, max_norm
    )
    return params - config.learning_rate * update, grad_sum, noise, max_sample_norm


def _check_observability(observability: str) -> None:
    if observability not in ("black_box", "white_box"):
        raise ValueError(f"unknown observability {observability!r}")


# Runs trained in lockstep share each step's padded (runs, batch, width)
# activations and gradient factors; no (runs, batch, params) block is built.
# One block takes as many runs as fit this many expected sampled rows per
# step. On the 128-run benchmark attack (an MLP with 226 parameters, about 100
# expected rows per run, --workers 2; a 2-vCPU x86_64 VM), 2304 rows (23 runs
# a block, 6 blocks, 3 per process) took about 0.94x the op wall time of 1536
# (2 x 20 interleaved op pairs each) for 1.6 MB (3%) more peak memory; 3072
# rows took 2.7 MB (6%) more.
_BLOCK_ROWS = 2304

# A run's batch is padded to its cap, this many standard deviations of its
# Poisson batch size above the mean, on every step it does not overflow it
# (see _pad_caps). A smaller cap pads fewer rows but overflows more often: in
# the pairs above, 2 and 3 took the same time within the spread between
# pairs, and 4 about 1.03x that.
_PAD_SIGMAS = 2.0


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
    workers: int = 1,
) -> list[TrainedArtifact]:
    """Train run k on the rows run_rows[k] of (x, y) with specs[k] and
    configs[k], the runs stepping together in blocks.

    Every run needs at least one row: the update divides by the expected
    batch p*N. The specs and the configs may differ only in their seeds. Seed-
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
    if min(map(len, run_rows)) == 0:
        raise ValueError("cannot train a model on an empty dataset")
    x = np.asarray(x, dtype=np.float64)
    if any(r.min() < 0 or r.max() >= len(x) for r in run_rows):
        raise IndexError(f"run rows must index the {len(x)} rows of x")
    y = np.asarray(y, dtype=int)
    config = configs[0]
    white_box = observability == "white_box"
    largest = max(len(r) for r in run_rows) * config.sample_rate
    block = max(1, int(_BLOCK_ROWS // max(largest, 1.0)))
    blocks = [slice(start, start + block) for start in range(0, len(specs), block)]

    def train_blocks(some):
        # one workspace per process, made after the fork, for all its blocks
        ws = models.Workspace()
        return [_train_block(specs[b], x, y, run_rows[b], configs[b], white_box, ws)
                for b in some]

    out = []
    for runs, (params, traces) in zip(blocks, _fan_out(train_blocks, blocks, workers)):
        for k, spec in enumerate(specs[runs]):
            out.append(TrainedArtifact(
                kind="predictive",
                spec=spec,
                params=params[k].copy(),
                trace=TrainingTrace(tuple(traces[k])) if white_box else None,
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
        # SIGKILL: a child that inherited a Python-level SIGTERM handler can
        # drop a SIGTERM sent just after the fork and run its whole range
        for child, _ in children:
            child.kill()
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


def _pad_caps(n_total, rate: float) -> list[int]:
    """Each run's padded batch length short of an overflow: the rows a run
    of n expects a step, rate*n, plus _PAD_SIGMAS standard deviations,
    rounded up to a multiple of 8."""
    return [-(-math.ceil(rate * n + _PAD_SIGMAS * math.sqrt(rate * (1.0 - rate) * n)) // 8) * 8
            for n in n_total]


def _train_block(specs, x, y, run_rows, configs, white_box, ws):
    """T lockstep steps of a block of runs, each step's scratch arrays taken
    from the workspace ws: returns the (K, P) final params and, with
    white_box, each run's step traces, none of which is an array of ws.

    Each step a run's batch is padded with its own last row to its cap, or,
    when the batch overflows the cap, to its size rounded up to a multiple
    of 8: a length that the run alone decides, so its arithmetic is that of
    the run trained alone, and a block's runs normally share one shape.
    """
    config = configs[0]
    seeds = [c.seed for c in configs]
    n_total = [len(r) for r in run_rows]
    caps = _pad_caps(n_total, config.sample_rate)
    # every run's rows side by side, flat, for one gather a step; a pick past
    # a run's rows takes its last row
    pool = np.concatenate(run_rows)
    first = np.cumsum([0] + n_total[:-1])[:, None]
    last = first + np.asarray(n_total)[:, None] - 1
    params = np.stack([models.init_params(s) for s in specs])
    traces = [[] for _ in specs]
    for step in range(config.steps):
        picks, sizes = _block_rows(seeds, n_total, config.sample_rate, step)
        lengths = [max(cap, -(-m // 8) * 8) for cap, m in zip(caps, sizes.tolist())]
        width = max(lengths)
        if picks.shape[1] < width:
            picks = np.pad(picks, ((0, 0), (0, width - picks.shape[1])), constant_values=max(n_total))
        rows = pool[np.minimum(np.add(picks[:, :width], first), last)]
        # train_lockstep checked the rows, and "clip" writes straight into out
        batch = np.take(x, rows, axis=0, mode="clip", out=ws.array("x", rows.shape + x.shape[1:]))
        params, grad_sum, noise, max_norm = _update(
            specs[0], params, batch, y[rows], sizes, config, n_total, step, seeds, ws, white_box,
            lengths,
        )
        if white_box:
            for k, t in enumerate(traces):
                t.append(StepTrace(indices=picks[k, : sizes[k]].copy(), grad_sum=grad_sum[k],
                                   noise=noise[k], params_after=params[k],
                                   max_sample_norm=float(max_norm[k])))
    return params, traces


# ---------------------------------------------------------------------------
# dataset plumbing for predictive training

def features_and_labels(ds: Dataset, label_column: str) -> tuple[np.ndarray, np.ndarray]:
    """Split an encoded dataset into feature matrix and integer labels."""
    col = ds.schema.column(label_column)
    if not isinstance(col, CategoricalColumn):
        raise ValueError(f"label column {label_column!r} must be categorical")
    m = encode(ds)
    ci = ds.schema.names.index(label_column)
    a, b = ds.schema.encoded_spans()[ci]
    keep = np.r_[0:a, b:m.shape[1]].astype(int)
    return m[:, keep], ds.columns[ci]


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
            workers=workers,
        )

    def claimed_epsilon(self, n: int, delta: float) -> float:
        """Accountant claim at delta for the configured sigma, rate and steps,
        as if any configured bug were absent; n does not enter it."""
        c = self.config
        return gdp_epsilon_of_delta(
            subsampled_gdp_mu(c.noise_multiplier, c.sample_rate, c.steps), delta)

    def target_losses(self, artifacts: list[TrainedArtifact], schema: Schema, record) -> list[float]:
        """Each artifact's loss on record, a record of the schema the
        artifacts were trained on, which is encoded once."""
        x, y = features_and_labels(Dataset.from_rows(schema, [record]), self.label_column)
        return [models.per_example_loss(a.spec, a.params, x[0], int(y[0])) for a in artifacts]
