"""Layer kernels against brute-force oracles and central finite differences.

The FD helper treats a layer as loss(x, params) = sum(forward(...) * R) for a
fixed random R, so backward() must reproduce the numerical directional
derivatives of that scalar.
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
    conv1d_forward,
    dense_forward,
    dropout,
    glorot_uniform,
    lstm_forward,
    maxpool1d_forward,
    relu,
    softmax_cross_entropy,
)
from emorec.errors import InputTooShort, NonFiniteOutput, ShapeMismatch

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


def rel_err(a, b):
    denom = max(1.0, np.max(np.abs(a)), np.max(np.abs(b)))
    return np.max(np.abs(a - b)) / denom


def fd_check(layer, x, train=False, seed=0):
    """Backward vs central differences on every parameter and on the input."""
    y = layer.forward(x, train=train, seed=seed)
    readout = np.random.default_rng(7).standard_normal(y.shape)
    dx = layer.backward(readout)

    def loss():
        return float(np.sum(layer.forward(x, train=train, seed=seed) * readout))

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
    got = conv1d_forward(x, kernel, bias, padding)
    ref = conv1d_brute(x, kernel, bias, padding)
    assert got.shape == ref.shape
    assert rel_err(got, ref) < 1e-12


def test_conv1d_delta_kernel_is_identity():
    x = rng.standard_normal((1, 6, 2))
    kernel = np.zeros((1, 2, 2))
    kernel[0] = np.eye(2)
    y = conv1d_forward(x, kernel, np.zeros(2), "same")
    assert np.allclose(y, x, atol=1e-15)


def test_conv1d_zero_kernel_gives_bias():
    x = rng.standard_normal((2, 5, 3))
    bias = np.array([1.5, -2.0])
    y = conv1d_forward(x, np.zeros((3, 3, 2)), bias, "same")
    assert np.allclose(y, np.broadcast_to(bias, y.shape), atol=1e-15)


def test_conv1d_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        conv1d_forward(rng.standard_normal((2, 5, 3)), rng.standard_normal((3, 4, 2)), np.zeros(2))


def test_maxpool_worked_example():
    x = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 0.0, 6.0, 2.0, 1.0]).reshape(1, 9, 1)
    y, idx = maxpool1d_forward(x, pool=3, stride=2)
    assert y.reshape(-1).tolist() == [3.0, 5.0, 6.0, 6.0]
    assert idx.reshape(-1).tolist() == [1, 3, 6, 6]


def test_maxpool_rejects_short_input():
    with pytest.raises(InputTooShort):
        maxpool1d_forward(np.zeros((1, 4, 1)), pool=5, stride=2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: conv1d_forward(np.zeros((6, 2)), np.zeros((3, 2, 4)), np.zeros(4)),
        lambda: maxpool1d_forward(np.zeros((6, 2)), pool=2, stride=2),
        lambda: lstm_forward(
            np.zeros((5, 3)), {"W": np.zeros((3, 8)), "R": np.zeros((2, 8)), "b": np.zeros(8)}
        ),
        lambda: dense_forward(np.zeros(6), np.zeros((6, 3)), np.zeros(3)),
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
    assert np.allclose(dense_forward(x, w, b, "linear"), x @ w + b, atol=1e-15)
    assert np.allclose(dense_forward(x, w, b, "relu"), relu(x @ w + b), atol=1e-15)


def test_dropout_modes():
    x = rng.standard_normal((8, 100))
    assert np.array_equal(dropout(x, 0.0, "train", seed=1), x)
    assert np.array_equal(dropout(x, 0.5, "eval", seed=1), x)
    y = dropout(x, 0.5, "train", seed=1)
    assert np.array_equal(y, dropout(x, 0.5, "train", seed=1))
    zeros = np.mean(y == 0.0)
    assert 0.4 < zeros < 0.6
    survivors = y[y != 0.0]
    originals = x[y != 0.0]
    assert np.allclose(survivors, originals / 0.5, atol=1e-15)


def test_dropout_preserves_mean_scale():
    x = np.ones((1, 200_000))
    y = dropout(x, 0.3, "train", seed=5)
    # inverted scaling keeps the expectation: mean stays near 1
    assert abs(float(y.mean()) - 1.0) < 0.01


def test_lstm_zero_params_give_zero_state():
    x = rng.standard_normal((2, 5, 3))
    params = {"W": np.zeros((3, 16)), "R": np.zeros((4, 16)), "b": np.zeros(16)}
    h = lstm_forward(x, params)
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
    got = lstm_forward(x, {"W": w, "R": r, "b": b})
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
    got = lstm_forward(x, {"W": w, "R": r, "b": b})
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


# ---- each trained layer's forward is its functional kernel ----


def _conv_case(padding):
    layer = built(Conv1DLayer(3, 3, padding, "relu"), (8, 2), seed=5)
    x = rng.standard_normal((2, 8, 2))
    return layer.forward(x), relu(conv1d_forward(x, layer.W, layer.b, padding))


def _conv_single_channel_case():
    # C_in = 1 puts every tap in one product; own generator, see GROUPED_SHAPES
    layer = built(Conv1DLayer(6, 5, "same", "relu"), (9, 1), seed=8)
    x = np.random.default_rng(41).standard_normal((2, 9, 1))
    return layer.forward(x), relu(conv1d_forward(x, layer.W, layer.b, "same"))


def _dense_case():
    layer = built(DenseLayer(4, "relu"), (6,), seed=6)
    x = rng.standard_normal((3, 6))
    return layer.forward(x), dense_forward(x, layer.W, layer.b, "relu")


def _lstm_case():
    layer = built(LSTMLayer(4), (5, 3), seed=7)
    x = rng.standard_normal((2, 5, 3))
    return layer.forward(x), lstm_forward(x, {"W": layer.W, "R": layer.R, "b": layer.b})


def _dropout_case():
    layer = built(DropoutLayer(0.3), (40,), seed=0)
    x = rng.standard_normal((3, 40))
    return layer.forward(x, train=True, seed=21), dropout(x, 0.3, "train", 21)


@pytest.mark.parametrize(
    "case",
    [
        lambda: _conv_case("same"),
        lambda: _conv_case("valid"),
        _dense_case,
        _lstm_case,
        _dropout_case,
        _conv_single_channel_case,
    ],
    ids=["conv_same", "conv_valid", "dense", "lstm", "dropout", "conv_single_channel"],
)
def test_layer_forward_equals_kernel(case):
    got, ref = case()
    assert np.array_equal(got, ref)


# ---- gradient spot checks (the exhaustive gate lives in the acceptance suite) ----


def built(layer, in_shape, seed=0):
    layer.build(in_shape, seed)
    return layer


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
    assert fd_check(layer, x, train=True, seed=99) < TOL


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
    got = conv1d_forward(x, kernel, bias, padding)
    ref = conv1d_brute(x, kernel, bias, padding)
    assert got.shape == ref.shape
    assert rel_err(got, ref) < 1e-12


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("c_in,c_out,k", GROUPED_SHAPES)
def test_conv_layer_grouped_taps_gradients(c_in, c_out, k, padding):
    layer = built(Conv1DLayer(c_out, k, padding, "relu"), (9, c_in), seed=4)
    x = np.random.default_rng(40 + c_in).standard_normal((2, 9, c_in))
    assert fd_check(layer, x) < TOL


@pytest.mark.parametrize("pool,stride", [(5, 2), (3, 2)])
def test_maxpool_ties_go_to_first_maximum(pool, stride):
    local = np.random.default_rng(50 + pool)
    x = relu(local.standard_normal((3, 23, 4)))
    x[:, 4:12] = 0.0  # whole windows of ReLU zeros: every position ties
    x[1, 15:18, 2] = 5.0  # a tie between nonzero maxima
    y, idx = maxpool1d_forward(x, pool, stride)
    win = np.lib.stride_tricks.sliding_window_view(x, pool, axis=1)[:, ::stride]
    arg = np.argmax(win, axis=3)
    assert np.array_equal(y, np.take_along_axis(win, arg[..., None], axis=3)[..., 0])
    assert np.array_equal(idx, stride * np.arange(win.shape[1])[None, :, None] + arg)
