"""The layer classes against brute-force oracles and central finite
differences. Forward oracles build a layer, assign its W/R/b and call
forward.

The FD helper treats a layer as loss(x, params) = sum(forward(...) * R) for a
fixed random R, so backward() must reproduce the numerical directional
derivatives of that scalar. Its forwards are training forwards, the only
ones that keep what backward reads; conv, maxpool, dense and LSTM compute
the same values in both modes.
"""

import numpy as np
import pytest

from emorec.nn.layers import (
    Conv1DLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    LSTMLayer,
    MaxPool1DLayer,
    _activate,
    _lstm_scan,
    glorot_uniform,
    softmax_cross_entropy,
)
from emorec.errors import InputTooShort, NoForwardState, NonFiniteOutput, ShapeMismatch
from emorec.rng import bulk_uniform

rng = np.random.default_rng(314)

EPS = 1e-6
TOL = 1e-4


def conv1d_brute(x, kernel, bias, padding):
    b, length, c_in = x.shape
    k, _, c_out = kernel.shape
    if padding == "same":
        left = (k - 1) // 2
        xp = np.pad(x, ((0, 0), (left, k - 1 - left), (0, 0)))
        out_len = length
    else:
        xp = x
        out_len = length - k + 1
    y = np.zeros((b, out_len, c_out))
    for bi in range(b):
        for t in range(out_len):
            for co in range(c_out):
                acc = bias[co]
                for dk in range(k):
                    for ci in range(c_in):
                        acc += xp[bi, t + dk, ci] * kernel[dk, ci, co]
                y[bi, t, co] = acc
    return y


def built(layer, in_shape, seed=0):
    layer.build(in_shape, seed)
    return layer


def conv_layer(kernel, bias, padding, length):
    """A linear Conv1DLayer carrying the given kernel (K, C_in, C_out) and bias."""
    k, c_in, c_out = kernel.shape
    layer = built(Conv1DLayer(c_out, k, padding, "linear"), (length, c_in))
    layer.W, layer.b = kernel, bias
    return layer


def lstm_layer(w, r, b, t_len):
    """An LSTMLayer carrying the given W (D, 4U), R (U, 4U) and b (4U,)."""
    layer = built(LSTMLayer(r.shape[0]), (t_len, w.shape[0]))
    layer.W, layer.R, layer.b = w, r, b
    return layer


def rel_err(a, b):
    denom = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))
    return np.max(np.abs(a - b)) / denom


def fd_check(layer, x, seed=0):
    """Backward vs central differences on every parameter and on the input."""
    y = layer.forward(x, train=True, seed=seed)
    readout = np.random.default_rng(7).standard_normal(y.shape)
    dx = layer.backward(readout)

    def loss():
        return float(np.sum(layer.forward(x, train=True, seed=seed) * readout))

    worst = 0.0
    for (name, p), g in zip(layer.params(), layer.grads()):
        flat = p.reshape(-1)
        picks = np.random.default_rng(11).choice(flat.size, size=min(6, flat.size), replace=False)
        for j in picks:
            keep = flat[j]
            flat[j] = keep + EPS
            up = loss()
            flat[j] = keep - EPS
            down = loss()
            flat[j] = keep
            num = (up - down) / (2 * EPS)
            worst = max(worst, abs(num - g.reshape(-1)[j]) / max(1.0, abs(num)))

    flat_x = x.reshape(-1)
    picks = np.random.default_rng(13).choice(flat_x.size, size=min(6, flat_x.size), replace=False)
    for j in picks:
        keep = flat_x[j]
        flat_x[j] = keep + EPS
        up = loss()
        flat_x[j] = keep - EPS
        down = loss()
        flat_x[j] = keep
        num = (up - down) / (2 * EPS)
        worst = max(worst, abs(num - dx.reshape(-1)[j]) / max(1.0, abs(num)))
    return worst


# ---- forward oracles ----


@pytest.mark.parametrize("padding", ["same", "valid"])
def test_conv1d_matches_brute_force(padding):
    x = rng.standard_normal((2, 7, 3))
    kernel = rng.standard_normal((3, 3, 2))
    bias = rng.standard_normal(2)
    got = conv_layer(kernel, bias, padding, 7).forward(x)
    ref = conv1d_brute(x, kernel, bias, padding)
    assert got.shape == ref.shape
    assert rel_err(got, ref) < 1e-12


def test_conv1d_delta_kernel_is_identity():
    x = rng.standard_normal((1, 6, 2))
    kernel = np.zeros((1, 2, 2))
    kernel[0] = np.eye(2)
    y = conv_layer(kernel, np.zeros(2), "same", 6).forward(x)
    assert np.allclose(y, x, atol=1e-15)


def test_conv1d_zero_kernel_gives_bias():
    x = rng.standard_normal((2, 5, 3))
    bias = np.array([1.5, -2.0])
    y = conv_layer(np.zeros((3, 3, 2)), bias, "same", 5).forward(x)
    assert np.allclose(y, np.broadcast_to(bias, y.shape), atol=1e-15)


def test_conv1d_shape_mismatch():
    x = rng.standard_normal((2, 5, 3))
    layer = conv_layer(rng.standard_normal((3, 4, 2)), np.zeros(2), "same", 5)
    with pytest.raises(ShapeMismatch):
        layer.forward(x)


def test_maxpool_worked_example():
    x = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 0.0, 6.0, 2.0, 1.0]).reshape(1, 9, 1)
    layer = built(MaxPool1DLayer(pool=3, stride=2), (9, 1))
    y = layer.forward(x, train=True)
    assert y.reshape(-1).tolist() == [3.0, 5.0, 6.0, 6.0]
    # each window's gradient lands on its argmax: positions 1, 3, 6, 6
    dx = layer.backward(np.ones_like(y))
    assert dx.reshape(-1).tolist() == np.bincount([1, 3, 6, 6], minlength=9).tolist()


def test_maxpool_rejects_short_input():
    with pytest.raises(InputTooShort):
        MaxPool1DLayer(pool=5, stride=2).build((4, 1), seed=0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: built(Conv1DLayer(4, 3), (6, 2)).forward(np.zeros((6, 2))),
        lambda: built(MaxPool1DLayer(pool=2, stride=2), (6, 2)).forward(np.zeros((6, 2))),
        lambda: built(LSTMLayer(2), (5, 3)).forward(np.zeros((5, 3))),
        lambda: built(DenseLayer(3), (6,)).forward(np.zeros(6)),
        lambda: softmax_cross_entropy(np.zeros(8), np.eye(8)[0]),
    ],
    ids=["conv1d", "maxpool1d", "lstm", "dense", "softmax_cross_entropy"],
)
def test_kernels_reject_unbatched_input(call):
    with pytest.raises(ShapeMismatch):
        call()


def test_dense_oracle():
    x = rng.standard_normal((4, 6))
    w = rng.standard_normal((6, 3))
    b = rng.standard_normal(3)
    for activation, ref in (("linear", x @ w + b), ("relu", np.maximum(0.0, x @ w + b))):
        layer = built(DenseLayer(3, activation), (6,))
        layer.W, layer.b = w, b
        assert np.allclose(layer.forward(x), ref, atol=1e-15)


def test_dropout_modes():
    x = rng.standard_normal((8, 100))
    layer = DropoutLayer(0.5)
    kept_all = DropoutLayer(0.0)
    assert np.array_equal(kept_all.forward(x, train=True, seed=1), x)
    assert np.array_equal(kept_all.backward(x).view(np.uint64), x.view(np.uint64))
    assert np.array_equal(layer.forward(x, train=False, seed=1), x)
    y = layer.forward(x, train=True, seed=1)
    assert np.array_equal(y, layer.forward(x, train=True, seed=1))
    zeros = np.mean(y == 0.0)
    assert 0.4 < zeros < 0.6
    survivors = y[y != 0.0]
    originals = x[y != 0.0]
    assert np.allclose(survivors, originals / 0.5, atol=1e-15)


def test_dropout_preserves_mean_scale():
    x = np.ones((1, 200_000))
    y = DropoutLayer(0.3).forward(x, train=True, seed=5)
    # inverted scaling keeps the expectation: mean stays near 1
    assert abs(float(y.mean()) - 1.0) < 0.01


@pytest.mark.parametrize("rate", [0.3, 0.5])
def test_dropout_mask_oracle(rate):
    # own generator, so the module-level stream keeps its values
    x = np.random.default_rng(80).standard_normal((4, 30))
    y = DropoutLayer(rate).forward(x, train=True, seed=21)
    mask = (bulk_uniform(21, x.size) >= rate).reshape(x.shape) / (1 - rate)
    assert np.array_equal(y, x * mask)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_dropout_backward_applies_the_training_mask(rate):
    local = np.random.default_rng(81)
    x, dy = local.standard_normal((4, 30)), local.standard_normal((4, 30))
    layer = DropoutLayer(rate)
    with pytest.raises(NoForwardState):
        layer.backward(dy)
    layer.forward(x, train=True, seed=21)
    mask = (bulk_uniform(21, x.size) >= rate).reshape(x.shape) / (1 - rate)
    assert np.array_equal(layer.backward(dy).view(np.uint64), (dy * mask).view(np.uint64))


@pytest.mark.parametrize("rate", [-0.1, 1.0])
def test_dropout_rejects_rate_outside_unit_interval(rate):
    with pytest.raises(ValueError):
        DropoutLayer(rate)


def test_lstm_zero_params_give_zero_state():
    x = rng.standard_normal((2, 5, 3))
    h = lstm_layer(np.zeros((3, 16)), np.zeros((4, 16)), np.zeros(16), 5).forward(x)
    assert np.allclose(h, 0.0, atol=1e-15)


def test_lstm_single_step_oracle():
    # one step of the gate equations written out longhand
    d, u = 2, 3
    w = rng.standard_normal((d, 4 * u))
    r = rng.standard_normal((u, 4 * u))
    b = rng.standard_normal(4 * u)
    x = rng.standard_normal((1, 1, d))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = x[0, 0] @ w + b  # h0 = 0
    i, f, g, o = z[:u], z[u : 2 * u], z[2 * u : 3 * u], z[3 * u :]
    c = sig(i) * np.tanh(g)
    expected = sig(o) * np.tanh(c)
    got = lstm_layer(w, r, b, 1).forward(x)
    assert np.allclose(got[0], expected, atol=1e-12)


def test_lstm_two_step_recurrence():
    d, u = 2, 2
    w = 0.1 * rng.standard_normal((d, 4 * u))
    r = 0.1 * rng.standard_normal((u, 4 * u))
    b = 0.1 * rng.standard_normal(4 * u)
    x = rng.standard_normal((1, 2, d))

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = np.zeros(u)
    c = np.zeros(u)
    for t in range(2):
        z = x[0, t] @ w + h @ r + b
        i, f, g, o = z[:u], z[u : 2 * u], z[2 * u : 3 * u], z[3 * u :]
        c = sig(f) * c + sig(i) * np.tanh(g)
        h = sig(o) * np.tanh(c)
    got = lstm_layer(w, r, b, 2).forward(x)
    assert np.allclose(got[0], h, atol=1e-12)


def test_softmax_cross_entropy_values():
    logits = np.zeros((3, 8))
    target = np.eye(8)[:3]
    loss, probs = softmax_cross_entropy(logits, target)
    assert np.allclose(loss, np.log(8.0), atol=1e-12)
    assert np.allclose(probs, 1.0 / 8.0, atol=1e-12)
    # shift invariance
    loss2, probs2 = softmax_cross_entropy(logits + 1000.0, target)
    assert np.allclose(loss2, loss, atol=1e-9)
    assert np.allclose(probs2, probs, atol=1e-12)


def test_softmax_cross_entropy_gradient_identity():
    logits = rng.standard_normal((5, 8))
    target = np.eye(8)[rng.integers(0, 8, 5)]
    _, probs = softmax_cross_entropy(logits, target)
    # numerical dL/dlogits for the summed loss
    num = np.zeros_like(logits)
    for i in range(5):
        for j in range(8):
            up = logits.copy()
            up[i, j] += EPS
            down = logits.copy()
            down[i, j] -= EPS
            num[i, j] = (
                softmax_cross_entropy(up, target)[0].sum()
                - softmax_cross_entropy(down, target)[0].sum()
            ) / (2 * EPS)
    assert rel_err(num, probs - target) < TOL


def test_glorot_bounds_and_determinism():
    w = glorot_uniform((50, 20), 50, 20, seed=4)
    bound = np.sqrt(6.0 / 70.0)
    assert np.max(np.abs(w)) <= bound
    assert np.array_equal(w, glorot_uniform((50, 20), 50, 20, seed=4))
    assert not np.array_equal(w, glorot_uniform((50, 20), 50, 20, seed=5))


# ---- gradient spot checks (the exhaustive gate lives in the acceptance suite) ----


def test_conv_layer_gradients():
    for trial in range(3):
        layer = built(Conv1DLayer(3, 3, "same", "relu"), (8, 2), seed=trial)
        x = np.random.default_rng(trial).standard_normal((2, 8, 2))
        assert fd_check(layer, x) < TOL


def test_conv_layer_valid_padding_gradients():
    layer = built(Conv1DLayer(2, 3, "valid", "linear"), (7, 2), seed=1)
    x = rng.standard_normal((2, 7, 2))
    assert fd_check(layer, x) < TOL


def test_maxpool_layer_gradients():
    for trial in range(3):
        layer = built(MaxPool1DLayer(3, 2), (9, 2), seed=0)
        x = np.random.default_rng(20 + trial).standard_normal((2, 9, 2))
        assert fd_check(layer, x) < TOL


def test_dropout_layer_gradients():
    layer = built(DropoutLayer(0.4), (12,), seed=0)
    x = rng.standard_normal((3, 12))
    assert fd_check(layer, x, seed=99) < TOL


def test_flatten_layer_gradients():
    layer = built(FlattenLayer(), (4, 3), seed=0)
    x = rng.standard_normal((2, 4, 3))
    assert fd_check(layer, x) < TOL


def test_dense_layer_gradients():
    for activation in ("relu", "linear"):
        layer = built(DenseLayer(5, activation), (7,), seed=2)
        x = rng.standard_normal((3, 7))
        assert fd_check(layer, x) < TOL


def test_lstm_layer_gradients():
    layer = built(LSTMLayer(4), (6, 3), seed=3)
    x = rng.standard_normal((2, 6, 3))
    assert fd_check(layer, x) < TOL


@pytest.mark.parametrize("train", [True, False])
def test_non_finite_output_raises(train):
    layer = DenseLayer(4)
    layer.build((3,), seed=0)
    layer.W[0, 0] = np.inf
    with pytest.raises(NonFiniteOutput):
        layer.forward(np.ones((2, 3)), train=train)


# ---- grouped taps: shapes where one product covers several taps ----
# Each case draws from its own generator so the module-level stream above
# keeps its values.

GROUPED_SHAPES = [(1, 6, 5), (2, 5, 5)]  # (C_in, C_out, K): groups of 5, and of 2, 2, 1


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("c_in,c_out,k", GROUPED_SHAPES)
def test_conv1d_grouped_taps_match_brute_force(c_in, c_out, k, padding):
    local = np.random.default_rng(c_in * 100 + c_out)
    x = local.standard_normal((3, 9, c_in))
    kernel = local.standard_normal((k, c_in, c_out))
    bias = local.standard_normal(c_out)
    got = conv_layer(kernel, bias, padding, 9).forward(x)
    ref = conv1d_brute(x, kernel, bias, padding)
    assert got.shape == ref.shape
    assert rel_err(got, ref) < 1e-12


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("c_in,c_out,k", GROUPED_SHAPES)
def test_conv_layer_grouped_taps_gradients(c_in, c_out, k, padding):
    layer = built(Conv1DLayer(c_out, k, padding, "relu"), (9, c_in), seed=4)
    x = np.random.default_rng(40 + c_in).standard_normal((2, 9, c_in))
    assert fd_check(layer, x) < TOL


@pytest.mark.parametrize("pool,stride", [(5, 2), (3, 2), (3, 1)])
def test_maxpool_ties_go_to_first_maximum(pool, stride):
    local = np.random.default_rng(50 + pool)
    x = np.maximum(0.0, local.standard_normal((3, 23, 4)))
    x[:, 4:12] = 0.0  # whole windows of ReLU zeros: every position ties
    x[1, 15:18, 2] = 5.0  # a tie between nonzero maxima
    layer = built(MaxPool1DLayer(pool, stride), (23, 4))
    y = layer.forward(x, train=True)
    win = np.lib.stride_tricks.sliding_window_view(x, pool, axis=1)[:, ::stride]
    arg = np.argmax(win, axis=3)
    assert np.array_equal(y, np.take_along_axis(win, arg[..., None], axis=3)[..., 0])
    # backward(ones) counts, per input position, the windows routed to it
    idx = stride * np.arange(win.shape[1])[None, :, None] + arg
    routed = np.zeros_like(x)
    b, _, c = np.indices(idx.shape, sparse=True)
    np.add.at(routed, (b, idx, c), 1.0)
    assert np.array_equal(layer.backward(np.ones_like(y)), routed)
    # np.add.at adds in window order; a weighted dy pins that summation order
    dy = local.standard_normal(y.shape)
    routed = np.zeros_like(x)
    np.add.at(routed, (b, idx, c), dy)
    assert np.array_equal(layer.backward(dy), routed)


# ---- LSTM backward against the per-step form ----
# The layer forms dW, dR and dx once over all T*B rows; this oracle
# accumulates them step by step. Own generator, so the module-level stream
# above keeps its values.


def lstm_backward_per_step(x, w, r, b, dh):
    """(dW, dR, db, dx) by backpropagation through time, each step adding
    its products into the accumulators."""
    bsz, t_len, _ = x.shape
    u = r.shape[0]
    h, c, cache = np.zeros((bsz, u)), np.zeros((bsz, u)), []
    for t in range(t_len):
        z = x[:, t, :] @ w + h @ r + b
        i = 0.5 + 0.5 * np.tanh(0.5 * z[:, :u])
        f = 0.5 + 0.5 * np.tanh(0.5 * z[:, u : 2 * u])
        g = np.tanh(z[:, 2 * u : 3 * u])
        o = 0.5 + 0.5 * np.tanh(0.5 * z[:, 3 * u :])
        c_prev, h_prev = c, h
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        cache.append((i, f, g, o, c_prev, h_prev, tc))
    dw, dr, db = np.zeros_like(w), np.zeros_like(r), np.zeros_like(b)
    dx, dc = np.zeros_like(x), np.zeros((bsz, u))
    for t in range(t_len - 1, -1, -1):
        i, f, g, o, c_prev, h_prev, tc = cache[t]
        do = dh * tc
        dct = dh * o * (1.0 - tc * tc) + dc
        di = dct * g
        dg = dct * i
        df = dct * c_prev
        dc = dct * f
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)],
            axis=1,
        )
        dw += x[:, t, :].T @ dz
        dr += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ w.T
        dh = dz @ r.T
    return dw, dr, db, dx


@pytest.mark.parametrize(
    "bsz,t_len,bias,input_grad",
    [
        pytest.param(1, 1, 0.1, True, id="1-1"),
        pytest.param(3, 7, 0.1, True, id="3-7"),
        pytest.param(12, 20, 0.1, True, id="12-20"),
        # |b| ~ 8 saturates the gates: their derivatives sit near 0
        pytest.param(4, 9, 8.0, True, id="saturated"),
        pytest.param(3, 5, 0.1, False, id="no_input_grad"),
    ],
)
def test_lstm_backward_matches_per_step_oracle(bsz, t_len, bias, input_grad):
    d, u = 5, 6
    local = np.random.default_rng(70 + t_len)
    layer = built(LSTMLayer(u), (t_len, d), seed=9)
    layer.input_grad = input_grad
    if bias > 1.0:
        layer.b = bias * np.sign(local.standard_normal(4 * u)) + 0.1 * local.standard_normal(4 * u)
    else:
        layer.b += bias * local.standard_normal(4 * u)
    x = local.standard_normal((bsz, t_len, d))
    dh = local.standard_normal((bsz, u))
    layer.forward(x, train=True)
    dx = layer.backward(dh)
    ref = lstm_backward_per_step(x, layer.W, layer.R, layer.b, dh)
    got = (layer.dW, layer.dR, layer.db, dx)
    if not input_grad:
        assert dx is None
        got, ref = got[:3], ref[:3]
    for g, want in zip(got, ref):
        assert g.shape == want.shape
        assert rel_err(g, want) < 1e-12


def test_lstm_backward_rounds_like_the_oracle():
    # one step of one sample: db is that step's dz, which the layer forms in
    # the oracle's per-gate order, so the two agree bit for bit even with
    # saturated gates, where a reassociated derivative would differ
    d, u = 5, 6
    local = np.random.default_rng(79)
    layer = built(LSTMLayer(u), (1, d), seed=9)
    layer.b = 8.0 * np.sign(local.standard_normal(4 * u)) + 0.1 * local.standard_normal(4 * u)
    x = local.standard_normal((1, 1, d))
    dh = local.standard_normal((1, u))
    layer.forward(x, train=True)
    layer.backward(dh)
    db = lstm_backward_per_step(x, layer.W, layer.R, layer.b, dh)[2]
    assert np.array_equal(layer.db.view(np.uint64), db.view(np.uint64))


# ---- LSTM scan against the gate-by-gate form ----
# The scan halves the sigmoid gates' columns of W, R and b once and activates
# each step's gates with one tanh. Halving is exact, so its gates, hidden
# states and cell states equal this copy of the gate-by-gate scan bit for bit.
# Own generator, so the module-level stream above keeps its values.


def lstm_scan_gate_by_gate(x, w, r, b):
    """(gates, hs, cs) with each gate activated on its own slice of z."""
    bsz, t_len, _ = x.shape
    u = r.shape[0]

    def sigmoid(v):
        return 0.5 + 0.5 * np.tanh(0.5 * v)

    gates = np.empty((t_len, bsz, 4 * u))
    hs = np.zeros((t_len + 1, bsz, u))
    c = np.zeros((bsz, u))
    cs = [c]
    for t in range(t_len):
        z = x[:, t, :] @ w + hs[t] @ r + b
        zt = gates[t]
        zt[:, :u] = i = sigmoid(z[:, :u])
        zt[:, u : 2 * u] = f = sigmoid(z[:, u : 2 * u])
        zt[:, 2 * u : 3 * u] = g = np.tanh(z[:, 2 * u : 3 * u])
        zt[:, 3 * u :] = o = sigmoid(z[:, 3 * u :])
        c = f * c + i * g
        np.multiply(o, np.tanh(c), out=hs[t + 1])
        cs.append(c)
    return gates, hs, np.array(cs)


@pytest.mark.parametrize(
    "bsz,t_len,bias",
    [(1, 1, 0.1), (4, 23, 0.1), (12, 20, 0.1), (4, 23, 30.0)],
    ids=["1-1", "4-23", "12-20", "saturated"],
)
def test_lstm_scan_is_bit_identical_to_gate_by_gate(bsz, t_len, bias):
    d, u = 40, 128  # the preset's MFCC width and units
    local = np.random.default_rng(90 + bsz + t_len)
    w = local.standard_normal((d, 4 * u)) / np.sqrt(d)
    r = local.standard_normal((u, 4 * u)) / np.sqrt(u)
    b = bias * local.standard_normal(4 * u)
    x = local.standard_normal((bsz, t_len, d))
    gates, hs, cs = _lstm_scan(x, w, r, b)
    assert gates.shape == (t_len, 4, bsz, u)
    gates_by_row = gates.transpose(0, 2, 1, 3).reshape(t_len, bsz, 4 * u)
    want = lstm_scan_gate_by_gate(x, w, r, b)
    for name, g, ref in zip(("gates", "hs", "cs"), (gates_by_row, hs, cs), want):
        assert g.shape == ref.shape, name
        assert np.array_equal(g.view(np.uint64), ref.view(np.uint64)), name
    if bias > 1.0:
        sig = gates[:, [0, 1, 3]]
        assert np.mean(np.minimum(sig, 1.0 - sig) < 1e-12) > 0.2  # many gates pinned at 0 or 1
    # scoring keeps one gate block and two alternating state slots
    gates, hs, cs = _lstm_scan(x, w, r, b, keep=False)
    assert gates.shape == (1, 4, bsz, u) and hs.shape == cs.shape == (2, bsz, u)
    assert np.array_equal(hs[t_len % 2].view(np.uint64), want[1][-1].view(np.uint64))


# ---- evaluation forwards keep nothing ----
# Own generator, so the module-level stream above keeps its values.


# kind: (a built layer, the shape of its input batch)
STATEFUL = {
    "conv1d": (lambda: built(Conv1DLayer(4, 3), (9, 2), seed=1), (3, 9, 2)),
    "maxpool1d": (lambda: built(MaxPool1DLayer(3, 2), (9, 2)), (3, 9, 2)),
    "dense": (lambda: built(DenseLayer(5, "relu"), (6,), seed=2), (3, 6)),
    "lstm": (lambda: built(LSTMLayer(4), (7, 3), seed=3), (3, 7, 3)),
    "flatten": (lambda: built(FlattenLayer(), (4, 3)), (2, 4, 3)),
}
# dropout's evaluation forward is the identity, so it joins only the
# backward test
NEEDS_TRAINING_FORWARD = {**STATEFUL, "dropout": (lambda: DropoutLayer(0.3), (3, 6))}


def kept_arrays(layer):
    """The private attributes holding an array, or a tuple of them."""
    return [
        name
        for name, v in vars(layer).items()
        if name.startswith("_") and isinstance(v, (np.ndarray, tuple))
    ]


@pytest.mark.parametrize("kind", STATEFUL)
def test_evaluation_forward_equals_training_forward_and_keeps_nothing(kind):
    make, shape = STATEFUL[kind]
    layer, x = make(), np.random.default_rng(120).standard_normal(shape)
    trained = layer.forward(x, train=True)
    assert kept_arrays(layer)
    scored = layer.forward(x, train=False)
    assert np.array_equal(scored.view(np.uint64), trained.view(np.uint64))
    assert kept_arrays(layer) == []


@pytest.mark.parametrize("kind", NEEDS_TRAINING_FORWARD)
def test_backward_needs_a_training_forward(kind):
    make, shape = NEEDS_TRAINING_FORWARD[kind]
    x = np.random.default_rng(121).standard_normal(shape)
    dy = np.ones(make().forward(x).shape)
    # no forward; an evaluation forward; one after a training forward
    for forwards in ((), (False,), (True, False)):
        layer = make()
        for train in forwards:
            layer.forward(x, train=train)
        with pytest.raises(NoForwardState) as err:
            layer.backward(dy)
        assert str(err.value) == f"{kind} backward needs a preceding forward(train=True)"


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: _activate(np.zeros(2), "tanh"), ValueError),
        (lambda: softmax_cross_entropy(np.zeros((2, 8)), np.zeros((2, 7))), ShapeMismatch),
        (lambda: Conv1DLayer(4, 3, padding="full"), ValueError),
        (lambda: Conv1DLayer(4, 5, padding="valid").build((3, 1), 0), ShapeMismatch),
        (lambda: DenseLayer(3).build((4, 2), 0), ShapeMismatch),
        (lambda: built(DenseLayer(3), (4,)).forward(np.zeros((2, 5))), ShapeMismatch),
        (lambda: LSTMLayer(3).build((5,), 0), ShapeMismatch),
    ],
    ids=[
        "unknown_activation",
        "loss_shapes",
        "conv_padding",
        "conv_valid_kernel_too_long",
        "dense_input_not_flat",
        "dense_input_width",
        "lstm_input_not_2d",
    ],
)
def test_guards_reject_bad_arguments(call, error):
    with pytest.raises(error):
        call()
