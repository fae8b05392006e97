"""Differentiable predictive models with exact analytic gradients.

Logistic regression and a one-hidden-layer tanh MLP over a flat float64
parameter vector. Everything is a pure function of (spec, params, input).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import check_finite, count_value

__all__ = [
    "ModelSpec",
    "Workspace",
    "n_params",
    "init_params",
    "predict",
    "forward_logits",
    "per_example_loss",
    "batch_losses",
    "GradientFactors",
    "batch_gradient_factors",
    "per_sample_gradient",
    "batch_per_sample_gradients",
    "backprop_logits",
    "save_params",
    "load_params",
]

LOGISTIC = "logistic_regression"
MLP = "mlp"


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int = 2
    hidden_dim: int = 0
    init_scale: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (LOGISTIC, MLP):
            raise ValueError(f"unknown model kind {self.kind!r}")
        object.__setattr__(self, "input_dim", count_value("input_dim", self.input_dim, 1))
        object.__setattr__(self, "num_classes", count_value("num_classes", self.num_classes, 1))
        # an mlp needs hidden units; logistic regression ignores hidden_dim
        object.__setattr__(self, "hidden_dim", count_value(
            "hidden_dim", self.hidden_dim, 1 if self.kind == MLP else 0))
        check_finite("init_scale", self.init_scale, positive=False)


def n_params(spec: ModelSpec) -> int:
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == LOGISTIC:
        return c * d + c
    return h * d + h + c * h + c


def _unpack(spec: ModelSpec, params: np.ndarray):
    """Weight views of a parameter vector, or of a (K, P) stack of them."""
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    lead = params.shape[:-1]
    if spec.kind == LOGISTIC:
        w = params[..., : c * d].reshape(lead + (c, d))
        b = params[..., c * d : c * d + c]
        return w, b
    at = 0
    w1 = params[..., at : at + h * d].reshape(lead + (h, d)); at += h * d
    b1 = params[..., at : at + h]; at += h
    w2 = params[..., at : at + c * h].reshape(lead + (c, h)); at += c * h
    b2 = params[..., at : at + c]
    return w1, b1, w2, b2


def init_params(spec: ModelSpec) -> np.ndarray:
    """Entries i.i.d. uniform in [-init_scale, init_scale], seed-deterministic."""
    rng = np.random.default_rng(spec.seed)
    return rng.uniform(-spec.init_scale, spec.init_scale, size=n_params(spec))


def _check_input(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[-1] != spec.input_dim:
        raise ValueError(f"input width {x.shape[-1]} != input_dim {spec.input_dim}")
    return x


class Workspace:
    """Scratch arrays that a loop reuses from one step to the next.

    array(role, shape) returns a C-contiguous float64 array of that shape
    from the front of the role's own flat buffer, which grows geometrically
    and is handed out again by the next request for the role. Reusing the
    memory keeps the allocator from returning it to the kernel on every
    step and faulting it in again on the next. An array holds whatever its
    last user left, so the caller writes every entry it reads, arrays alive
    together have distinct roles, and nothing handed out may outlive the
    step that asked for it.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get(role)
        if buffer is None or buffer.size < size:
            buffer = np.empty(size if buffer is None else max(size, 2 * buffer.size))
            self._buffers[role] = buffer
        return buffer[:size].reshape(shape)


def _scratch(ws: Workspace | None, role: str, shape: tuple[int, ...]) -> np.ndarray:
    """ws's array for role, or a fresh one without a workspace."""
    return np.empty(shape) if ws is None else ws.array(role, shape)


def _common_length(lengths, rows: int) -> int:
    """The length that most runs share, or rows when lengths is None."""
    return rows if lengths is None else max(set(lengths), key=lengths.count)


def _matmul(a: np.ndarray, b: np.ndarray, lengths=None, ws=None, role=None) -> np.ndarray:
    """a @ b, written into ws's array for role; with a leading run axis, run
    k's product over its first lengths[k] rows only (every row when lengths
    is None), and zero rows after them.

    BLAS rounds a row's dot products differently with the number of rows it
    is handed (one row goes through gemv, and wide inner dimensions are
    blocked by row count), so each run is multiplied in a call of exactly
    its own shape, and its values do not depend on the block. The runs of
    the most common length share one stacked np.matmul, which gives every
    slice the bits of its own 2D call; each other run takes a call of its own.
    """
    out = _scratch(ws, role, a.shape[:-1] + b.shape[-1:])
    rows = a.shape[-2]
    common = _common_length(lengths, rows)
    np.matmul(a[..., :common, :], b, out=out[..., :common, :])
    for k, m in enumerate(lengths or ()):
        if m != common:
            np.matmul(a[k, :m], b[k], out=out[k, :m])
        if m < rows:
            out[k, m:] = 0.0
    return out


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray, lengths=None, ws=None):
    """The logits and the (input, hidden) cache, run k's taken over its first
    lengths[k] rows as _matmul takes them; the activations are ws's "hidden"
    and "logits" arrays."""
    x = _check_input(spec, x)

    def affine(a, w, b, role):  # a @ w.T + b
        z = _matmul(a, np.swapaxes(w, -1, -2), lengths, ws, role)
        return np.add(z, b[..., None, :], out=z)

    if spec.kind == LOGISTIC:
        w, b = _unpack(spec, params)
        return affine(x, w, b, "logits"), (x, None)
    w1, b1, w2, b2 = _unpack(spec, params)
    hidden = affine(x, w1, b1, "hidden")
    np.tanh(hidden, out=hidden)
    return affine(hidden, w2, b2, "logits"), (x, hidden)


def forward_logits(spec: ModelSpec, params: np.ndarray, x) -> np.ndarray:
    """Raw pre-softmax outputs, shape (n, num_classes)."""
    z, _ = _forward(spec, params, x)
    return z


def _softmax(z: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """exp(z - max) / sum over the last axis, bit for bit as numpy's
    reductions give it, in ws's "probs" array.

    A reduction or a broadcast over a short last axis runs once per row. Up
    to 7 classes numpy adds the axis left to right, so every step is taken a
    class column at a time; from 8 it adds in pairwise blocks, and its
    reductions are kept.
    """
    c = z.shape[-1]
    e = _scratch(ws, "probs", z.shape)
    if c > 7:
        np.exp(np.subtract(z, z.max(axis=-1, keepdims=True), out=e), out=e)
        return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)
    acc = _scratch(ws, "column", z.shape[:-1])  # the max, then the sum
    np.copyto(acc, z[..., 0])
    for j in range(1, c):
        np.maximum(acc, z[..., j], out=acc)
    for j in range(c):
        np.subtract(z[..., j], acc, out=e[..., j])
    np.exp(e, out=e)
    np.copyto(acc, e[..., 0])
    for j in range(1, c):
        np.add(acc, e[..., j], out=acc)
    for j in range(c):
        np.divide(e[..., j], acc, out=e[..., j])
    return e


def predict(spec: ModelSpec, params: np.ndarray, x) -> np.ndarray:
    """Softmax class probabilities for one input (1-d) or a batch (2-d)."""
    squeeze = np.asarray(x).ndim == 1
    p = _softmax(forward_logits(spec, params, x))
    return p[0] if squeeze else p


def batch_losses(spec: ModelSpec, params: np.ndarray, x, labels) -> np.ndarray:
    """Per-example cross-entropy at the true labels, shape (n,)."""
    z, _ = _forward(spec, params, x)
    labels = np.asarray(labels, dtype=int)
    shifted = z - z.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    return logz - shifted[np.arange(z.shape[0]), labels]


def per_example_loss(spec: ModelSpec, params: np.ndarray, x, label: int) -> float:
    return float(batch_losses(spec, params, np.asarray(x)[None, :], [label])[0])


def _outer(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Per-row outer products of a and b, written into out's last axis."""
    np.einsum("...i,...j->...ij", a, b, out=out.reshape(a.shape + b.shape[-1:]))


@dataclass(frozen=True)
class GradientFactors:
    """Per-sample gradients of a batch, one (left, right) pair per layer.

    Row b's gradient of a layer is its weight gradient left[b] ⊗ right[b]
    followed by its bias gradient left[b], the layers in parameter order, so
    no (rows, n_params) array is needed to clip or sum them. With a leading
    run axis, left is (K, B, out) and right (K, B, in), run k's rows are its
    first lengths[k] (all B when lengths is None), and every row after them
    has a zero left factor. The factors may be arrays of workspace, which
    weighted_sum also takes its scratch arrays from.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    lengths: tuple[int, ...] | None = None
    workspace: Workspace | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of the dense gradients: (..., rows, n_params)."""
        left = self.layers[0][0]
        return left.shape[:-1] + (sum(a.shape[-1] * (b.shape[-1] + 1) for a, b in self.layers),)

    def dense(self) -> np.ndarray:
        """The gradients as one (..., rows, n_params) array."""
        grads = np.empty(self.shape)
        at = 0
        for left, right in self.layers:
            n = left.shape[-1] * right.shape[-1]
            _outer(left, right, grads[..., at : at + n])
            grads[..., at + n : at + n + left.shape[-1]] = left
            at += n + left.shape[-1]
        return grads

    def row_norms(self) -> np.ndarray:
        """Each row's gradient norm, shape (..., rows): a layer's part of the
        squared norm is |left|^2 * (|right|^2 + 1)."""
        sq = sum(np.einsum("...i,...i->...", a, a) * (np.einsum("...i,...i->...", b, b) + 1.0)
                 for a, b in self.layers)
        return np.sqrt(sq)

    def weighted_sum(self, weights: np.ndarray) -> np.ndarray:
        """The sum of the rows' gradients, each scaled by its weight (weights
        has shape (..., rows)), shape (..., n_params).

        A layer's weight-gradient sum is left.T @ right over exactly each
        run's rows, the runs grouped into calls as _matmul groups them, so a
        run's sum does not depend on the other runs in its block.
        """
        lead, p = self.shape[:-2], self.shape[-1]
        out = np.empty(lead + (p,))
        runs = out.reshape(-1, p)  # a view: one row per run
        ws = self.workspace
        at = 0
        for left, right in self.layers:
            left = np.multiply(left, weights[..., None], out=_scratch(ws, "scaled", left.shape))
            width, n = left.shape[-1], left.shape[-1] * right.shape[-1]
            # a column of ones after right takes the bias sum into the same matmul
            augmented = _scratch(ws, "augmented", right.shape[:-1] + (right.shape[-1] + 1,))
            augmented[..., :-1] = right
            augmented[..., -1] = 1.0
            left = left.reshape((len(runs),) + left.shape[-2:])
            right = augmented.reshape((len(runs),) + augmented.shape[-2:])
            sums = _scratch(ws, "sums", (len(runs), width, right.shape[-1]))
            common = _common_length(self.lengths, left.shape[1])
            np.matmul(np.swapaxes(left[:, :common], 1, 2), right[:, :common], out=sums)
            for k, m in enumerate(self.lengths or ()):
                if m != common:
                    np.matmul(left[k, :m].T, right[k, :m], out=sums[k])
            runs[:, at : at + n] = sums[..., :-1].reshape(len(runs), n)
            runs[:, at + n : at + n + width] = sums[..., -1]
            at += n + width
        return out


def _backward(spec: ModelSpec, params: np.ndarray, cache, d_logits: np.ndarray, lengths=None,
              ws=None):
    """Per-sample parameter gradients given d(loss)/d(logits), as factors,
    and the gradient at the first layer's output."""
    x, hidden = cache
    lengths = None if lengths is None else tuple(lengths)
    if spec.kind == LOGISTIC:
        return GradientFactors(((d_logits, x),), lengths, ws), d_logits
    _, _, w2, _ = _unpack(spec, params)
    d_act = _matmul(d_logits, w2, lengths, ws, "d_act")
    slope = np.multiply(hidden, hidden, out=_scratch(ws, "slope", hidden.shape))
    np.multiply(d_act, np.subtract(1.0, slope, out=slope), out=d_act)
    return GradientFactors(((d_act, x), (d_logits, hidden)), lengths, ws), d_act


def batch_gradient_factors(spec: ModelSpec, params: np.ndarray, x, labels, sizes=None,
                           ws: Workspace | None = None, lengths=None) -> GradientFactors:
    """The factors of each per-example loss's exact gradient.

    With a leading run axis, params is (K, n_params), x is (K, B, input_dim),
    labels is (K, B), and run k's batch is its first sizes[k] rows. The run
    is computed over its first lengths[k] rows (sizes[k] when lengths is
    None), the rows after its batch padding whose gradient is zero. Every
    run's factors equal, bit for bit, those of the one-run call on its first
    lengths[k] rows. With a workspace, the run axis's activations and factors
    are its arrays, valid until its next use.
    """
    lengths = sizes if lengths is None else lengths
    z, cache = _forward(spec, params, x, lengths, ws)
    d_logits = _softmax(z, ws)
    labels = np.asarray(labels, dtype=int)
    # a padding row with no loss gradient has a zero parameter gradient
    padding = None if sizes is None else \
        np.arange(d_logits.shape[1]) >= np.asarray(sizes)[:, None]
    for j in range(d_logits.shape[-1]):  # p - onehot, a class column at a time
        column = d_logits[..., j]
        np.subtract(column, labels == j, out=column)
        if padding is not None:
            np.copyto(column, 0.0, where=padding)
    factors, _ = _backward(spec, params, cache, d_logits, lengths, ws)
    return factors


def batch_per_sample_gradients(spec: ModelSpec, params: np.ndarray, x, labels,
                               sizes=None, lengths=None) -> np.ndarray:
    """Exact gradients of each per-example loss, shape (n, n_params): the
    dense expansion of batch_gradient_factors, whose arguments it takes.
    With a run axis the result is (K, B, n_params), zero after each run's
    batch."""
    return batch_gradient_factors(spec, params, x, labels, sizes, lengths=lengths).dense()


def per_sample_gradient(spec: ModelSpec, params: np.ndarray, x, label: int) -> np.ndarray:
    return batch_per_sample_gradients(spec, params, np.asarray(x)[None, :], [label])[0]


def backprop_logits(spec: ModelSpec, params: np.ndarray, x,
                    d_logits) -> tuple[GradientFactors, np.ndarray]:
    """Backpropagate an upstream gradient on the raw outputs.

    Returns (the per-sample parameter gradients' factors, input gradients
    (n, input_dim)). Used when the model's raw outputs feed a downstream loss,
    e.g. a generator network inside a GAN.
    """
    _, cache = _forward(spec, params, x)
    factors, d_first = _backward(spec, params, cache, np.asarray(d_logits, dtype=np.float64))
    return factors, d_first @ _unpack(spec, params)[0]


# ---------------------------------------------------------------------------
# serialization: one JSON header line, then little-endian float64 payload

def save_params(path, spec: ModelSpec, params: np.ndarray) -> None:
    header = {**asdict(spec), "n_params": int(params.size)}
    with open(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        f.write(np.asarray(params, dtype="<f8").tobytes())


def load_params(path) -> tuple[ModelSpec, np.ndarray]:
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        raw = f.read()
    n = header.pop("n_params")
    spec = ModelSpec(**header)
    params = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if params.size != n:
        raise ValueError(f"parameter payload has {params.size} entries, header says {n}")
    return spec, params
