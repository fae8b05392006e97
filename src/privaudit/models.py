"""Differentiable predictive models with exact analytic gradients.

Logistic regression and a one-hidden-layer tanh MLP over a flat float64
parameter vector. Everything is a pure function of (spec, params, input).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelSpec",
    "n_params",
    "init_params",
    "predict",
    "forward_logits",
    "per_example_loss",
    "batch_losses",
    "per_sample_gradient",
    "batch_per_sample_gradients",
    "input_gradient",
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
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.kind == MLP and self.hidden_dim < 1:
            raise ValueError("mlp requires hidden_dim >= 1")
        if self.init_scale < 0:
            raise ValueError("init_scale must be >= 0")


def n_params(spec: ModelSpec) -> int:
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == LOGISTIC:
        return c * d + c
    return h * d + h + c * h + c


def _unpack(spec: ModelSpec, params: np.ndarray):
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if spec.kind == LOGISTIC:
        w = params[: c * d].reshape(c, d)
        b = params[c * d : c * d + c]
        return w, b
    at = 0
    w1 = params[at : at + h * d].reshape(h, d); at += h * d
    b1 = params[at : at + h]; at += h
    w2 = params[at : at + c * h].reshape(c, h); at += c * h
    b2 = params[at : at + c]
    return w1, b1, w2, b2


def init_params(spec: ModelSpec) -> np.ndarray:
    """Entries i.i.d. uniform in [-init_scale, init_scale], seed-deterministic."""
    rng = np.random.default_rng(spec.seed)
    return rng.uniform(-spec.init_scale, spec.init_scale, size=n_params(spec))


def _check_input(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != spec.input_dim:
        raise ValueError(f"input width {x.shape[1]} != input_dim {spec.input_dim}")
    return x


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    x = _check_input(spec, x)
    if spec.kind == LOGISTIC:
        w, b = _unpack(spec, params)
        return x @ w.T + b, (x, None)
    w1, b1, w2, b2 = _unpack(spec, params)
    hidden = np.tanh(x @ w1.T + b1)
    return hidden @ w2.T + b2, (x, hidden)


def forward_logits(spec: ModelSpec, params: np.ndarray, x) -> np.ndarray:
    """Raw pre-softmax outputs, shape (n, num_classes)."""
    z, _ = _forward(spec, params, x)
    return z


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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


def _backward(spec: ModelSpec, params: np.ndarray, cache, d_logits: np.ndarray):
    """Per-sample parameter and input gradients given d(loss)/d(logits)."""
    x, hidden = cache
    n = x.shape[0]
    if spec.kind == LOGISTIC:
        w, _ = _unpack(spec, params)
        gw = np.einsum("nc,nd->ncd", d_logits, x).reshape(n, -1)
        grads = np.concatenate([gw, d_logits], axis=1)
        d_input = d_logits @ w
        return grads, d_input
    w1, _, w2, _ = _unpack(spec, params)
    d_hidden = d_logits @ w2
    d_act = d_hidden * (1.0 - hidden * hidden)
    gw1 = np.einsum("nh,nd->nhd", d_act, x).reshape(n, -1)
    gw2 = np.einsum("nc,nh->nch", d_logits, hidden).reshape(n, -1)
    grads = np.concatenate([gw1, d_act, gw2, d_logits], axis=1)
    d_input = d_act @ w1
    return grads, d_input


def batch_per_sample_gradients(spec: ModelSpec, params: np.ndarray, x, labels) -> np.ndarray:
    """Exact gradients of each per-example loss, shape (n, n_params)."""
    z, cache = _forward(spec, params, x)
    labels = np.asarray(labels, dtype=int)
    d_logits = _softmax(z)
    d_logits[np.arange(z.shape[0]), labels] -= 1.0
    grads, _ = _backward(spec, params, cache, d_logits)
    return grads


def per_sample_gradient(spec: ModelSpec, params: np.ndarray, x, label: int) -> np.ndarray:
    return batch_per_sample_gradients(spec, params, np.asarray(x)[None, :], [label])[0]


def input_gradient(spec: ModelSpec, params: np.ndarray, x, label: int) -> np.ndarray:
    """Gradient of the per-example loss with respect to the input features."""
    z, cache = _forward(spec, params, np.asarray(x)[None, :])
    d_logits = _softmax(z)
    d_logits[0, int(label)] -= 1.0
    _, d_input = _backward(spec, params, cache, d_logits)
    return d_input[0]


def backprop_logits(spec: ModelSpec, params: np.ndarray, x, d_logits) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate an upstream gradient on the raw outputs.

    Returns (per-sample parameter gradients (n, n_params), input gradients
    (n, input_dim)). Used when the model's raw outputs feed a downstream loss,
    e.g. a generator network inside a GAN.
    """
    _, cache = _forward(spec, params, x)
    return _backward(spec, params, cache, np.asarray(d_logits, dtype=np.float64))


# ---------------------------------------------------------------------------
# serialization: one JSON header line, then little-endian float64 payload

def save_params(path, spec: ModelSpec, params: np.ndarray) -> None:
    header = {
        "kind": spec.kind,
        "input_dim": spec.input_dim,
        "num_classes": spec.num_classes,
        "hidden_dim": spec.hidden_dim,
        "init_scale": spec.init_scale,
        "seed": spec.seed,
        "n_params": int(params.size),
    }
    with open(path, "wb") as f:
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        f.write(np.asarray(params, dtype="<f8").tobytes())


def load_params(path) -> tuple[ModelSpec, np.ndarray]:
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        raw = f.read()
    spec = ModelSpec(
        kind=header["kind"],
        input_dim=header["input_dim"],
        num_classes=header["num_classes"],
        hidden_dim=header["hidden_dim"],
        init_scale=header["init_scale"],
        seed=header["seed"],
    )
    params = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if params.size != header["n_params"]:
        raise ValueError(f"parameter payload has {params.size} entries, header says {header['n_params']}")
    return spec, params
