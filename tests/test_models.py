import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privaudit import models
from privaudit.models import (
    LOGISTIC,
    MLP,
    ModelSpec,
    backprop_logits,
    batch_gradient_factors,
    batch_losses,
    batch_per_sample_gradients,
    init_params,
    load_params,
    n_params,
    per_example_loss,
    per_sample_gradient,
    predict,
    save_params,
)


def rand_spec(kind, rng):
    return ModelSpec(
        kind=kind,
        input_dim=int(rng.integers(1, 6)),
        num_classes=int(rng.integers(2, 5)),
        hidden_dim=int(rng.integers(1, 5)) if kind == MLP else 0,
        init_scale=0.5,
        seed=int(rng.integers(0, 2**31)),
    )


def finite_difference_grad(spec, params, x, label, step=1e-5):
    g = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy(); up[i] += step
        dn = params.copy(); dn[i] -= step
        g[i] = (per_example_loss(spec, up, x, label) - per_example_loss(spec, dn, x, label)) / (2 * step)
    return g


# ---------------------------------------------------------------------------
# init

def test_init_deterministic():
    spec = ModelSpec(LOGISTIC, input_dim=3, num_classes=2, seed=7)
    assert np.array_equal(init_params(spec), init_params(spec))


def test_init_different_seeds_differ():
    a = init_params(ModelSpec(LOGISTIC, 3, seed=1))
    b = init_params(ModelSpec(LOGISTIC, 3, seed=2))
    assert not np.array_equal(a, b)


def test_init_scale_zero_is_zero_vector():
    spec = ModelSpec(MLP, input_dim=3, hidden_dim=4, init_scale=0.0)
    assert np.all(init_params(spec) == 0.0)


def test_init_bounded_support():
    spec = ModelSpec(MLP, input_dim=10, hidden_dim=20, num_classes=3, init_scale=0.25, seed=5)
    p = init_params(spec)
    assert np.all(np.abs(p) <= 0.25)
    assert p.size == n_params(spec)


# ---------------------------------------------------------------------------
# loss and prediction

def test_zero_params_loss_is_ln_c():
    for c in (2, 3, 7):
        spec = ModelSpec(LOGISTIC, input_dim=4, num_classes=c, init_scale=0.0)
        params = init_params(spec)
        loss = per_example_loss(spec, params, np.ones(4), 0)
        assert loss == pytest.approx(math.log(c), abs=1e-12)


def test_strong_logits_loss_vanishes():
    spec = ModelSpec(LOGISTIC, input_dim=2, num_classes=2)
    # weights pushing class 1 hard
    params = np.array([0.0, 0.0, 50.0, 50.0, 0.0, 0.0])
    loss = per_example_loss(spec, params, np.ones(2), 1)
    assert loss < 1e-8


def test_predict_uniform_at_zero_params():
    spec = ModelSpec(MLP, input_dim=3, hidden_dim=4, num_classes=5, init_scale=0.0)
    p = predict(spec, init_params(spec), np.ones(3))
    assert p == pytest.approx([0.2] * 5, abs=1e-12)


def test_predict_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    spec = ModelSpec(LOGISTIC, input_dim=3, num_classes=4, seed=1)
    params = init_params(spec)
    x = rng.normal(size=3)
    p = predict(spec, params, x)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all((p > 0) & (p < 1))
    # adding a constant to every logit (shift all biases) leaves probs fixed
    w_size = 4 * 3
    shifted = params.copy()
    shifted[w_size:] += 13.0
    assert predict(spec, shifted, x) == pytest.approx(p, abs=1e-9)


def test_dimension_mismatch_errors():
    spec = ModelSpec(LOGISTIC, input_dim=3)
    with pytest.raises(ValueError, match="input_dim"):
        per_example_loss(spec, init_params(spec), np.ones(4), 0)


# ---------------------------------------------------------------------------
# gradients vs finite differences

@pytest.mark.parametrize("kind", [LOGISTIC, MLP])
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        spec = rand_spec(kind, rng)
        params = init_params(spec) + rng.normal(scale=0.3, size=n_params(spec))
        x = rng.normal(size=spec.input_dim)
        label = int(rng.integers(spec.num_classes))
        g = per_sample_gradient(spec, params, x, label)
        fd = finite_difference_grad(spec, params, x, label)
        denom = max(np.linalg.norm(fd), 1e-8)
        worst = max(worst, np.linalg.norm(g - fd) / denom)
    assert worst < 1e-5


def test_gradient_zero_at_separable_minimum():
    # logistic regression fixture at a strict minimum: symmetric two-point
    # problem pushed to saturation has vanishing gradient
    spec = ModelSpec(LOGISTIC, input_dim=1, num_classes=2)
    params = np.array([-400.0, 400.0, 0.0, 0.0])  # w0=-400, w1=400
    g1 = per_sample_gradient(spec, params, np.array([1.0]), 1)
    g0 = per_sample_gradient(spec, params, np.array([-1.0]), 0)
    assert np.linalg.norm(g1) < 1e-8
    assert np.linalg.norm(g0) < 1e-8


def test_logistic_gradient_closed_form():
    rng = np.random.default_rng(9)
    spec = ModelSpec(LOGISTIC, input_dim=3, num_classes=4, seed=3)
    params = init_params(spec)
    x = rng.normal(size=3)
    label = 2
    p = predict(spec, params, x)
    onehot = np.zeros(4); onehot[label] = 1.0
    dz = p - onehot
    expected = np.concatenate([np.outer(dz, x).ravel(), dz])
    got = per_sample_gradient(spec, params, x, label)
    assert got == pytest.approx(expected, abs=1e-12)


def test_batch_gradients_match_single():
    rng = np.random.default_rng(5)
    spec = ModelSpec(MLP, input_dim=4, hidden_dim=3, num_classes=3, seed=11)
    params = init_params(spec)
    X = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    batch = batch_per_sample_gradients(spec, params, X, y)
    for i in range(6):
        single = per_sample_gradient(spec, params, X[i], int(y[i]))
        assert batch[i] == pytest.approx(single, abs=1e-12)


@pytest.mark.parametrize("kind", [LOGISTIC, MLP])
def test_run_axis_gradients_equal_unbatched_bit_for_bit(kind):
    # inner widths past 32 and one-row batches take BLAS paths whose rounding
    # depends on the row count, so each run must be computed over exactly the
    # rows its one-run call gets: its batch, or its batch padded to its length
    rng = np.random.default_rng(8)
    spec = ModelSpec(kind, input_dim=37, num_classes=3, hidden_dim=34 if kind == MLP else 0)
    sizes = [5, 1, 0, 9, 2]
    for lengths in (None, [8, 8, 8, 16, 2]):
        k, b = len(sizes), max(lengths or sizes)
        params = rng.normal(size=(k, n_params(spec)))
        x = rng.normal(size=(k, b, spec.input_dim))
        y = rng.integers(0, 3, size=(k, b))
        stacked = batch_per_sample_gradients(spec, params, x, y, sizes, lengths)
        assert stacked.shape == (k, b, n_params(spec))
        for run, (m, length) in enumerate(zip(sizes, lengths or sizes)):
            alone = batch_per_sample_gradients(
                spec, params[run : run + 1], x[run : run + 1, :length],
                y[run : run + 1, :length], [m], [length])[0]
            assert stacked[run, :length].tobytes() == alone.tobytes()
            assert np.all(stacked[run, m:] == 0.0)


@pytest.mark.parametrize("rows", [0, 1, 2, 5, 8, 33, 130])
@pytest.mark.parametrize("d_in, d_out", [(1, 1), (1, 35), (35, 1), (7, 16), (16, 2),
                                         (35, 34), (34, 35)])
def test_stacked_matmul_slices_equal_their_2d_calls(rows, d_in, d_out):
    # the numpy property that lets _matmul and weighted_sum multiply the runs
    # of one length in one call: each slice of a stacked np.matmul written
    # through out= views has the bits of the 2D call of its shape
    rng = np.random.default_rng(1000 * rows + 40 * d_in + d_out)
    k, b = 4, rows + 3
    scale = 10.0 ** rng.integers(-3, 4, size=(k, b, 1))
    # forward: a @ w.T, w an (out, in) view into each run's parameter vector
    a = rng.normal(size=(k, b, d_in)) * scale
    params = rng.normal(size=(k, d_out * d_in + 5))
    w = params[:, : d_out * d_in].reshape(k, d_out, d_in)
    out = np.full((k, b, d_out), np.nan)
    np.matmul(a[:, :rows], np.swapaxes(w, 1, 2), out=out[:, :rows])
    for run in range(k):
        assert out[run, :rows].tobytes() == (a[run, :rows] @ w[run].T).tobytes()
    # reduction over the rows: left.T @ right
    left = rng.normal(size=(k, b, d_out)) * scale
    right = rng.normal(size=(k, b, d_in + 1))
    sums = np.full((k + 1, d_out, d_in + 1), np.nan)
    np.matmul(np.swapaxes(left[:, :rows], 1, 2), right[:, :rows], out=sums[1:])
    for run in range(k):
        assert sums[run + 1].tobytes() == (left[run, :rows].T @ right[run, :rows]).tobytes()


def reduce_softmax(z):
    """The softmax as numpy's reductions over the class axis give it."""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("classes", range(1, 10))
def test_column_softmax_equals_the_reduce_form_bit_for_bit(classes):
    rng = np.random.default_rng(classes)
    z = rng.normal(size=(3, 40, classes)) * 10.0 ** rng.integers(-3, 4, size=(3, 40, 1))
    z[0, :8] = rng.normal(size=(8, 1))  # every class tied
    z[0, 8:16, : (classes + 1) // 2] = 2.5  # ties at the max
    z[0, 16, :] = -0.0
    z[0, 17, ::2] = 0.0
    z[1] = -1e4 + rng.normal(size=(40, classes)) * 10.0 ** rng.integers(0, 3, size=(40, 1))
    z[2, :20] *= 1e300  # exp of the shifted logits underflows to 0
    z[2, 20:] -= 740.0  # near the subnormal range of exp
    want = reduce_softmax(z)
    assert models._softmax(z).tobytes() == want.tobytes()
    assert models._softmax(z, models.Workspace()).tobytes() == want.tobytes()
    assert models._softmax(z[1, 0]).tobytes() == want[1, 0].tobytes()


def test_workspace_arrays_are_contiguous_per_role_and_grow():
    ws = models.Workspace()
    shapes = [(3, 5, 2), (0, 4), (2, 7), (4, 5, 3), (1,), (3, 5, 2)]
    for shape in shapes:
        a, b = ws.array("a", shape), ws.array("b", shape)
        for arr in (a, b):
            assert arr.shape == shape and arr.dtype == np.float64
            assert arr.flags.c_contiguous
        a[...], b[...] = 1.0, 2.0
        # distinct roles never share memory, whatever either has grown to
        assert not np.shares_memory(a, b) and np.all(a == 1.0)
    # a request no larger than the buffer reuses it; a larger one at least
    # doubles it, so a slowly growing role reallocates rarely
    first = ws.array("c", (10,))
    assert np.shares_memory(ws.array("c", (2, 5)), first)
    grown = ws.array("c", (11,))
    assert not np.shares_memory(grown, first)
    assert np.shares_memory(ws.array("c", (20,)), grown)
    assert not np.shares_memory(ws.array("c", (21,)), grown)


def dense_reference(spec, params, x, d_logits, sizes=None):
    """The dense per-sample gradients as the models module wrote them before
    it returned factors: each layer's outer products and bias rows written
    into one (..., rows, n_params) array."""
    z, (x, hidden) = models._forward(spec, params, x, sizes)
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    grads = np.empty(x.shape[:-1] + (params.shape[-1],))

    def outer(a, b, out):
        np.einsum("...i,...j->...ij", a, b, out=out.reshape(a.shape + b.shape[-1:]))

    if spec.kind == LOGISTIC:
        outer(d_logits, x, grads[..., : c * d])
        grads[..., c * d :] = d_logits
        return grads
    _, _, w2, _ = models._unpack(spec, params)
    d_act = models._matmul(d_logits, w2, sizes) * (1.0 - hidden * hidden)
    at = h * d
    outer(d_act, x, grads[..., :at])
    grads[..., at : at + h] = d_act
    at += h
    outer(d_logits, hidden, grads[..., at : at + c * h])
    grads[..., at + c * h :] = d_logits
    return grads


@st.composite
def gradient_case(draw):
    """A model, its parameters and a batch: with or without a run axis, runs
    of 0 to 5 rows, small widths or the 35-input, 34-hidden ones past BLAS's
    row-count-dependent blocking."""
    kind = draw(st.sampled_from([LOGISTIC, MLP]))
    d, h = draw(st.sampled_from([(3, 2), (35, 34)]))
    spec = ModelSpec(kind, input_dim=d, num_classes=draw(st.integers(2, 3)),
                     hidden_dim=h if kind == MLP else 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.one_of(st.none(), st.lists(st.integers(0, 5), min_size=1, max_size=4)))
    lead = () if sizes is None else (len(sizes),)
    b = draw(st.integers(0, 5)) if sizes is None else max(sizes)
    params = rng.normal(size=lead + (n_params(spec),))
    x = rng.normal(size=lead + (b, d)) * 10.0 ** rng.integers(-3, 4)
    y = rng.integers(0, spec.num_classes, size=lead + (b,))
    return spec, params, x, y, sizes


@settings(max_examples=150, deadline=None)
@given(case=gradient_case())
def test_dense_expansion_of_factors_is_the_dense_gradient_bit_for_bit(case):
    spec, params, x, y, sizes = case
    d_logits = models._softmax(models._forward(spec, params, x, sizes)[0])
    d_logits[(*np.indices(y.shape, sparse=True), y)] -= 1.0
    if sizes is not None:
        d_logits[np.arange(d_logits.shape[1]) >= np.asarray(sizes)[:, None]] = 0.0
    want = dense_reference(spec, params, x, d_logits, sizes)
    factors = batch_gradient_factors(spec, params, x, y, sizes)
    assert factors.shape == want.shape
    assert factors.dense().tobytes() == want.tobytes()
    assert batch_per_sample_gradients(spec, params, x, y, sizes).tobytes() == want.tobytes()
    # backprop_logits expands the factors of any upstream gradient
    if sizes is None:
        up = np.random.default_rng(1).normal(size=d_logits.shape)
        assert backprop_logits(spec, params, x, up)[0].dense().tobytes() == \
            dense_reference(spec, params, x, up).tobytes()


def test_input_gradient_finite_difference():
    # backprop_logits maps the cross-entropy's d(loss)/d(logits) = p - onehot
    # back to the input, as the GAN's generator update does
    rng = np.random.default_rng(21)
    spec = ModelSpec(MLP, input_dim=3, hidden_dim=4, num_classes=2, seed=2)
    params = init_params(spec) + rng.normal(scale=0.2, size=n_params(spec))
    x = rng.normal(size=3)
    d_logits = predict(spec, params, x) - np.eye(2)[1]
    _, g = backprop_logits(spec, params, x[None], d_logits[None])
    g = g[0]
    fd = np.zeros(3)
    for i in range(3):
        up = x.copy(); up[i] += 1e-6
        dn = x.copy(); dn[i] -= 1e-6
        fd[i] = (per_example_loss(spec, params, up, 1) - per_example_loss(spec, params, dn, 1)) / 2e-6
    assert g == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_backprop_logits_chain_rule():
    # scalar check: sum of logits as the downstream loss
    rng = np.random.default_rng(3)
    spec = ModelSpec(MLP, input_dim=2, hidden_dim=3, num_classes=2, seed=8)
    params = init_params(spec)
    x = rng.normal(size=(1, 2))
    grads = backprop_logits(spec, params, x, np.ones((1, 2)))[0].dense()
    from privaudit.models import forward_logits
    fd = np.zeros(params.size)
    for i in range(params.size):
        up = params.copy(); up[i] += 1e-6
        dn = params.copy(); dn[i] -= 1e-6
        fd[i] = (forward_logits(spec, up, x).sum() - forward_logits(spec, dn, x).sum()) / 2e-6
    assert grads[0] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_batch_losses_match_single():
    rng = np.random.default_rng(17)
    spec = ModelSpec(LOGISTIC, input_dim=3, num_classes=3, seed=4)
    params = init_params(spec)
    X = rng.normal(size=(5, 3))
    y = [0, 1, 2, 1, 0]
    bl = batch_losses(spec, params, X, y)
    for i in range(5):
        assert bl[i] == pytest.approx(per_example_loss(spec, params, X[i], y[i]), abs=1e-12)


# ---------------------------------------------------------------------------
# serialization

def test_params_roundtrip(tmp_path):
    spec = ModelSpec(MLP, input_dim=3, hidden_dim=2, num_classes=2, init_scale=0.3, seed=77)
    params = init_params(spec)
    p = tmp_path / "model.bin"
    save_params(p, spec, params)
    spec2, params2 = load_params(p)
    assert spec2 == spec
    assert np.array_equal(params, params2)
