"""The layer classes against brute-force oracles and central finite
differences. Forward oracles build a layer, assign its W/R/b and call
forward.

The FD helper treats a layer as loss(x, params) = sum(forward(...) * R) for a
fixed random R, so backward() must reproduce the numerical directional
derivatives of that scalar. Its forwards are training forwards, the only
ones that keep what backward reads; conv, maxpool, dense and LSTM compute
the same values in both modes.
"""

import threading

import numpy as np
import pytest

from emorec.nn.layers import (
    Conv1DLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    Layer,
    LSTMLayer,
    MaxPool1DLayer,
    _activate,
    _lstm_scan,
    glorot_uniform,
    softmax_cross_entropy,
)
from emorec.errors import InputTooShort, NoForwardState, NonFiniteOutput, ShapeMismatch
from emorec.nn import layers as layers_module
from emorec.nn.model import (
    _KINDS,
    Model,
    ModelSpec,
    build_model,
    cnn_preset,
    lstm_preset,
    step_helper,
)
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
    for p, g in [(getattr(layer, n), getattr(layer, "d" + n)) for n in layer.param_names]:
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

# (C_in, C_out, K): groups of 5 taps; of 2, 2 and 1; and of 2, 2 and 1 over
# three channels, where a group's columns run tap-major
GROUPED_SHAPES = [(1, 6, 5), (2, 5, 5), (3, 7, 5)]


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


@pytest.mark.parametrize("pool,stride", [(5, 2), (3, 2), (3, 1), (3, 3), (2, 1)])
def test_maxpool_ties_go_to_first_maximum(pool, stride):
    local = np.random.default_rng(50 + pool)
    x = np.maximum(0.0, local.standard_normal((3, 23, 4)))
    x[:, 4:12] = 0.0  # whole windows of ReLU zeros: every position ties
    x[1, 15:18, 2] = 5.0  # a tie between nonzero maxima
    inputs = [x]
    # integer values tie within windows in every row of batches of 2, 5 and
    # 12, -0.0 ties with +0.0, and overlapping windows share their slots
    for batch in (2, 5, 12):
        ints = np.random.default_rng(pool * 10 + stride + batch).integers(-2, 3, (batch, 23, 4))
        inputs.append(np.where(ints == 0, -0.0, ints.astype(float)))
    layer = built(MaxPool1DLayer(pool, stride), (23, 4))
    for x in inputs:
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
        assert same_bits(layer.backward(dy), routed)


def test_maxpool_offsets_wider_than_a_byte_route_like_brute_force():
    # pool 300: a window's first maximum can sit past offset 255
    pool, length = 300, 310
    local = np.random.default_rng(55)
    x = local.integers(-2, 3, (2, length, 3)).astype(float)
    x[0, 290, 0] = x[0, 296, 0] = 9.0  # tied late maxima: all 11 windows pick 290
    x[1, 270:, 1] = 7.0  # a late run of ties
    layer = built(MaxPool1DLayer(pool, 1), (length, 3))
    y = layer.forward(x, train=True)
    assert layer._first.dtype == np.uint16 and layer._first.max() > 255
    dy = local.standard_normal(y.shape)
    routed = np.zeros_like(x)
    for bi in range(x.shape[0]):
        for w in range(y.shape[1]):  # increasing window order
            for ci in range(x.shape[2]):
                window = list(x[bi, w : w + pool, ci])
                first = window.index(max(window))
                assert y[bi, w, ci] == window[first]
                routed[bi, w + first, ci] += dy[bi, w, ci]
    assert same_bits(layer.backward(dy), routed)


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


# ---- a training forward keeps what backward reads, and no more ----


def kept(layer):
    """{name: array} of the private arrays the layer holds."""
    return {
        name: v
        for name, v in vars(layer).items()
        if name.startswith("_") and isinstance(v, np.ndarray)
    }


# kind: (a built layer, its input batch shape, the float arrays it keeps)
KEEPERS = {
    "conv_relu": (lambda: built(Conv1DLayer(4, 3), (9, 2), seed=1), (3, 9, 2), {"_xp"}),
    "conv_linear": (lambda: built(Conv1DLayer(4, 3, "same", "linear"), (9, 2)), (3, 9, 2), {"_xp"}),
    "dense_relu": (lambda: built(DenseLayer(5, "relu"), (6,), seed=2), (3, 6), {"_x"}),
    "dense_linear": (lambda: built(DenseLayer(5), (6,), seed=2), (3, 6), {"_x"}),
    "maxpool": (lambda: built(MaxPool1DLayer(3, 2), (9, 2)), (3, 9, 2), set()),
}


@pytest.mark.parametrize("kind", KEEPERS)
def test_a_training_forward_keeps_a_mask_not_its_float_output(kind):
    # a ReLU layer keeps the bool mask y > 0 and a linear one keeps no
    # output; a max-pool keeps a 1-byte first-max offset per window
    make, shape, floats = KEEPERS[kind]
    layer = make()
    y = layer.forward(np.random.default_rng(122).standard_normal(shape), train=True)
    arrays = kept(layer)
    assert {name for name, v in arrays.items() if v.dtype == np.float64} == floats
    small = {name: v for name, v in arrays.items() if name not in floats}
    if kind.endswith("relu"):
        assert list(small) == ["_mask"] and small["_mask"].dtype == bool
        assert np.array_equal(small["_mask"], y > 0)
    elif kind == "maxpool":
        assert list(small) == ["_first"] and small["_first"].dtype == np.uint8
        assert small["_first"].shape == y.shape
    else:
        assert small == {}


def test_a_cnn_training_step_keeps_the_conv_inputs_and_a_byte_per_activation():
    # the cnn preset at a 42-wide input and a 49-row step. Beside the padded
    # conv inputs, the float arrays kept are the dense inputs and dropout's
    # scaled masks, which backward multiplies by: 3.5 KB of the 106 KB a row
    # keeps; keeping the float outputs would take 407 KB)
    model = build_model(cnn_preset(42), (42, 1), seed=3)
    a = np.random.default_rng(123).standard_normal((49, 42, 1))
    bound = 0
    for i, layer in enumerate(model.layers):
        if isinstance(layer, Conv1DLayer):
            bound += (a.shape[1] + layer.kernel_size - 1) * a[:, 0].nbytes
        elif isinstance(layer, (DenseLayer, DropoutLayer)):
            bound += a.nbytes
        a = layer.forward(a, train=True, seed=i)
        bound += a.size  # a byte per activation
    held = sum(v.nbytes for layer in model.layers for v in kept(layer).values())
    assert held <= bound


@pytest.mark.parametrize("spec, shape", [(cnn_preset(12), (12, 1)), (lstm_preset(6), (7, 3))])
def test_backward_writes_the_gradients_into_the_arrays_build_made(spec, shape):
    model = build_model(spec, shape, seed=5)
    grads = model.gradients()
    assert all(not g.any() for g in grads)
    local = np.random.default_rng(124)
    for step in range(2):
        model.forward(local.standard_normal((3, *shape)), train=True, step_seed=step)
        model.backward(local.standard_normal((3, 8)))
        assert all(a is b for a, b in zip(model.gradients(), grads, strict=True))
    assert all(g.any() for g in grads)


# each kind that builds a layer: its constructor arguments and an input shape it builds at
BUILD_CASES = {
    "conv1d": ((4, 3, "same", "relu"), (6, 2)),
    "maxpool1d": ((2, 2), (6, 3)),
    "dropout": ((0.5,), (5,)),
    "flatten": ((), (3, 2)),
    "dense": ((3, "relu"), (5,)),
    "lstm": ((3,), (4, 2)),
}


@pytest.mark.parametrize("kind", sorted(k for k, (cls, _) in _KINDS.items() if cls))
def test_build_makes_a_zeroed_gradient_buffer_for_each_parameter(kind):
    cls = _KINDS[kind][0]
    assert cls.build is Layer.build  # a kind sets its parameters in _init, never a buffer
    args, in_shape = BUILD_CASES[kind]
    layer = cls(*args)
    layer.build(in_shape, seed=3)
    for n in layer.param_names:
        p, g = getattr(layer, n), getattr(layer, "d" + n)
        assert (g.shape, g.dtype) == (p.shape, p.dtype)
        assert not g.any() and not np.shares_memory(g, p)
    # a kind without parameters gains no "d" attribute
    assert sorted(a for a in vars(layer) if a.startswith("d")) == sorted(
        "d" + n for n in layer.param_names
    )


def test_build_gives_a_new_kind_its_buffers_from_param_names():
    class Affine(Layer):
        name = "affine"
        param_names = ("scale", "shift")

        def _init(self, in_shape, seed):
            self.scale = np.full(in_shape, float(seed))
            self.shift = np.ones(in_shape[-1], dtype=np.float32)
            return in_shape[::-1]

    layer = Affine()
    assert layer.build((2, 5), seed=4) == (5, 2)
    assert (layer.dscale.shape, layer.dscale.dtype) == ((2, 5), np.float64)
    assert (layer.dshift.shape, layer.dshift.dtype) == ((5,), np.float32)
    assert not layer.dscale.any() and not layer.dshift.any()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: _activate(np.zeros(2), "tanh"), ValueError),
        (lambda: softmax_cross_entropy(np.zeros((2, 8)), np.zeros((2, 7))), ShapeMismatch),
        (lambda: Conv1DLayer(4, 3, padding="full"), ValueError),
        (lambda: Conv1DLayer(4, 3, activation="tanh"), ValueError),
        (lambda: DenseLayer(4, activation="tanh"), ValueError),
        (lambda: Conv1DLayer(4, 5, padding="valid").build((3, 1), 0), ShapeMismatch),
        (lambda: DenseLayer(3).build((4, 2), 0), ShapeMismatch),
        (lambda: built(DenseLayer(3), (4,)).forward(np.zeros((2, 5))), ShapeMismatch),
        (lambda: LSTMLayer(3).build((5,), 0), ShapeMismatch),
    ],
    ids=[
        "unknown_activation",
        "loss_shapes",
        "conv_padding",
        "conv_activation",
        "dense_activation",
        "conv_valid_kernel_too_long",
        "dense_input_not_flat",
        "dense_input_width",
        "lstm_input_not_2d",
    ],
)
def test_guards_reject_bad_arguments(call, error):
    with pytest.raises(error):
        call()


# ---- the helper thread: the same bits with and without it ----

# (C_in, C_out, K, length, padding, input_grad): the cnn preset's four conv
# layers at a 42-wide input (one group of 5 taps, then three layers of five
# one-tap groups), one group of 5 taps over one input channel, and groups
# of 4 and 1 taps over two input channels. A forward splits from 64 output
# rows, at a multiple of 32 rows: mostly inside an output position
HELPER_CASES = [
    (1, 256, 5, 42, "same", False),
    (1, 8, 5, 9, "same", True),
    (256, 256, 5, 19, "same", True),
    (256, 128, 5, 8, "same", True),
    (128, 64, 5, 2, "same", True),
    (2, 8, 5, 9, "same", True),
    (2, 8, 5, 9, "valid", True),
    (2, 8, 5, 9, "same", False),
    (2, 8, 5, 13, "same", False),
]


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_beside_reraises_a_helper_raise_after_now_has_run():
    from concurrent.futures import ThreadPoolExecutor

    raised, calls = threading.Event(), []

    def late():
        calls.append(("late", threading.get_ident()))
        raised.set()
        raise ValueError("late failed")

    def now():
        assert raised.wait(10)  # late has raised while now still runs
        calls.append(("now", threading.get_ident()))

    with ThreadPoolExecutor(max_workers=1) as helper:
        with pytest.raises(ValueError, match="late failed"):
            layers_module.beside(helper, late, now)
    me = threading.get_ident()
    assert [name for name, _ in calls] == ["late", "now"]
    assert calls[0][1] != me and calls[1][1] == me


def test_beside_without_a_helper_runs_late_then_now_on_this_thread():
    calls = []

    def call(name):
        return lambda: calls.append((name, threading.get_ident())) or name

    me = threading.get_ident()
    assert layers_module.beside(None, call("late"), call("now")) == "now"
    assert calls == [("late", me), ("now", me)]


def lend(*layers):
    """step_helper for these layers alone, as one model would lend it."""
    return step_helper(Model(ModelSpec("layers", ()), (), 0, list(layers)))


@pytest.mark.parametrize("batch", [1, 4, 6, 12, 49])
@pytest.mark.parametrize("c_in,c_out,k,length,padding,input_grad", HELPER_CASES)
def test_conv_helper_changes_no_bit(
    c_in, c_out, k, length, padding, input_grad, batch, split_all
):
    layer = built(Conv1DLayer(c_out, k, padding), (length, c_in), seed=6)
    layer.input_grad = input_grad
    local = np.random.default_rng(c_in * 1000 + c_out + batch)
    x = local.standard_normal((batch, length, c_in))
    x[x < -1.5] = -0.0  # negative zeros in the input, beside the relu's zeros in y
    out_len = length if padding == "same" else length - k + 1
    dy = local.standard_normal((batch, out_len, c_out))

    def step():
        scored = layer.forward(x)
        y = layer.forward(x, train=True)
        dx = layer.backward(dy)
        # copies: backward writes dW and db into the same arrays every step
        return [scored, y, layer.dW.copy(), layer.db.copy()] + ([] if dx is None else [dx])

    alone = step()
    threads = threading.active_count()
    with lend(layer):
        helped = step()
        # the helper starts where the forward splits, or where there is an
        # input gradient to compute beside the weight gradient
        splits = out_len * batch >= 2 * layers_module._ROW_ALIGN
        assert threading.active_count() == threads + (input_grad or splits)
    assert threading.active_count() == threads and layer.helper is None
    assert len(helped) == len(alone) == 4 + input_grad
    assert all(same_bits(a, b) for a, b in zip(alone, helped))


# (layer, input (L, C), batch, whether the helper takes a half): the cnn
# preset's second conv layer at a 42-wide input, at the 49-row training
# batch and the 6-row scoring batch of a 16-clip run
THRESHOLD_CASES = {
    "conv_training_batch": (lambda: Conv1DLayer(256, 5), (19, 256), 49, True),
    "conv_scoring_batch": (lambda: Conv1DLayer(256, 5), (19, 256), 6, False),
}


@pytest.mark.parametrize("case", sorted(THRESHOLD_CASES))
def test_a_helper_takes_a_half_only_above_the_work_threshold(case):
    make, shape, batch, split = THRESHOLD_CASES[case]
    layer = built(make(), shape, seed=1)
    x = np.random.default_rng(4).standard_normal((batch, *shape))
    threads = threading.active_count()
    with lend(layer):
        layer.forward(x, train=True)
        assert threading.active_count() == threads + split


# the products of the preset's conv layers at B = 1, 6, 12 and 49 (output
# rows L_out*B at 42-wide inputs, columns C_in*taps, and C_out)
PRODUCT_SHAPES = [
    (out_len * b, cols, c_out)
    for b in (1, 6, 12, 49)
    for out_len, cols, c_out in ((42, 5, 256), (19, 256, 256), (8, 256, 128), (2, 128, 64))
]


@pytest.mark.parametrize("m,kk,n", PRODUCT_SHAPES)
def test_a_product_cut_at_the_row_alignment_gives_each_row_the_same_bits(m, kk, n):
    # what the split conv forward rests on, on the BLAS kernel this suite
    # runs on at one BLAS thread (the CLI's and CI's pin): A @ B computed
    # as two row blocks cut at a multiple of _ROW_ALIGN rows. OpenBLAS's
    # Haswell and Zen kernels give other bits at cuts that are not
    # multiples of 4, and a 1-row block goes to gemv.
    align = layers_module._ROW_ALIGN
    local = np.random.default_rng(m * 7 + kk + n)
    a, w = local.standard_normal((m, kk)), local.standard_normal((kk, n))
    a[a < -2.0] = -0.0
    whole = a @ w
    for cut in {align, m // 2 // align * align, (m - 2) // align * align}:
        if 0 < cut <= m - 2:
            parts = np.concatenate([a[:cut] @ w, a[cut:] @ w])
            assert same_bits(parts, whole), cut


@pytest.mark.parametrize("batch", [1, 2, 5, 12])
@pytest.mark.parametrize("pool,stride", [(5, 2), (3, 3), (2, 1)])
def test_maxpool_helper_changes_no_bit(pool, stride, batch, split_all):
    # a max-pool has no helper half: a lent helper, even with no work
    # threshold, starts no thread for it, so it cannot change a bit. The
    # values of these pools are pinned in
    # test_maxpool_ties_go_to_first_maximum
    layer = built(MaxPool1DLayer(pool, stride), (23, 4))
    x = np.random.default_rng(batch).standard_normal((batch, 23, 4))
    threads = threading.active_count()
    with lend(layer, built(Conv1DLayer(4, 1), (23, 4))):  # lent only beside a conv layer
        layer.backward(np.ones_like(layer.forward(x, train=True)))
        assert threading.active_count() == threads
    assert layer.helper is None
