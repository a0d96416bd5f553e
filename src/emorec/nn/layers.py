"""The trained layers: Conv1D, MaxPool1D, Dropout, Flatten, Dense and LSTM,
each with one forward and one backward, and the softmax cross-entropy head.

Everything runs in float64 and is written batched: inputs carry a leading
batch axis. The brute-force and longhand oracles in the test suite drive the
layer classes themselves, and analytic gradients for every layer are gated
by central finite-difference checks. Every conv, dense and LSTM output is
checked for NaN/inf, which raises NonFiniteOutput.
"""

from __future__ import annotations

import numpy as np

from ..errors import InputTooShort, NonFiniteOutput, ShapeMismatch
from ..rng import bulk_uniform, derive_seed


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteOutput(f"non-finite values in {name} output")


def _batch(x, ndim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != ndim:
        raise ShapeMismatch(f"expected a batched {ndim}-dim input, got {x.ndim} dims")
    return x


def _activate(v: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(0.0, v)
    if activation == "linear":
        return v
    raise ValueError(f"unknown activation {activation!r}")


def _tap_groups(k: int, c_in: int, c_out: int) -> list[tuple[int, int]]:
    """Runs of consecutive taps [t0, t1) that share one matrix product. A
    group holds at most c_out // c_in taps, so its column block is never
    wider than the output it produces; with one tap the block is a view."""
    g = max(1, min(k, c_out // c_in))
    return [(t0, min(k, t0 + g)) for t0 in range(0, k, g)]


def _tap_columns(xt: np.ndarray, t0: int, t1: int, out_len: int) -> np.ndarray:
    """(out_len*B, C_in*g) columns of taps t0..t1-1 from the length-major
    padded input xt (Lp, B, C_in); column ci*g + j holds tap t0 + j."""
    win = np.lib.stride_tricks.sliding_window_view(xt[t0 : t1 + out_len - 1], t1 - t0, axis=0)
    return win.reshape(out_len * xt.shape[1], -1)


def _tap_weights(kernel: np.ndarray, t0: int, t1: int) -> np.ndarray:
    """Kernel rows matching _tap_columns: (C_in*g, C_out)."""
    return kernel[t0:t1].transpose(1, 0, 2).reshape(-1, kernel.shape[2])


def _conv1d(x, kernel, bias, padding: str) -> tuple[np.ndarray, np.ndarray]:
    """The conv kernel: (xt, y) with xt the zero-padded input in length-major
    (Lp, B, C_in) layout, kept for backprop, and y the (B, L_out, C_out)
    output as a view of a length-major buffer. Each tap group is one 2-D
    product over L_out*B rows.

    x: (B, L, C_in); kernel: (K, C_in, C_out); bias: (C_out,). 'same' keeps
    L; 'valid' yields L - K + 1.
    """
    x = _batch(x, 3)
    k, c_in, c_out = kernel.shape
    b, length, _ = x.shape
    if x.shape[2] != c_in:
        raise ShapeMismatch(f"input has {x.shape[2]} channels, kernel wants {c_in}")
    if padding == "same":
        left = (k - 1) // 2
        xt = np.zeros((length + k - 1, b, c_in))
    else:
        left = 0
        xt = np.empty((length, b, c_in))
    xt[left : left + length] = x.transpose(1, 0, 2)
    out_len = xt.shape[0] - k + 1
    y = np.empty((out_len, b, c_out))
    rows = y.reshape(out_len * b, c_out)
    for i, (t0, t1) in enumerate(_tap_groups(k, c_in, c_out)):
        cols, w = _tap_columns(xt, t0, t1, out_len), _tap_weights(kernel, t0, t1)
        if i == 0:
            np.matmul(cols, w, out=rows)
        else:
            rows += cols @ w
    rows += bias
    return xt, y.transpose(1, 0, 2)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 0.5 + 0.5 * np.tanh(0.5 * v)


def _lstm_scan(x: np.ndarray, w: np.ndarray, r: np.ndarray, b: np.ndarray):
    """Run the LSTM recurrence over x (B, T, D). Returns the gates (T, B, 4U),
    activated and in [i, f, g, o] order, the hidden states (T+1, B, U) with
    h[0] = 0 and h[T] the final state, and per step lists of the cell states
    c[0..T] (c[0] = 0) and tanh(c[1..T])."""
    bsz, t_len, _ = x.shape
    units = r.shape[0]
    gates = np.empty((t_len, bsz, 4 * units))
    hs = np.zeros((t_len + 1, bsz, units))
    c = np.zeros((bsz, units))
    cs, tcs = [c], []
    for t in range(t_len):
        z = x[:, t, :] @ w + hs[t] @ r + b
        zt = gates[t]
        zt[:, :units] = i = _sigmoid(z[:, :units])
        zt[:, units : 2 * units] = f = _sigmoid(z[:, units : 2 * units])
        zt[:, 2 * units : 3 * units] = g = np.tanh(z[:, 2 * units : 3 * units])
        zt[:, 3 * units :] = o = _sigmoid(z[:, 3 * units :])
        c = f * c + i * g
        tc = np.tanh(c)
        np.multiply(o, tc, out=hs[t + 1])
        cs.append(c)
        tcs.append(tc)
    return gates, hs, cs, tcs


def softmax_cross_entropy(logits, target) -> tuple[np.ndarray, np.ndarray]:
    """(per-sample loss, probs) with max-shifted exponents.

    logits/target: (B, C); target rows are one-hot. The gradient of the
    summed loss w.r.t. logits is probs - target.
    """
    logits = _batch(logits, 2)
    target = np.asarray(target, dtype=np.float64)
    if logits.shape != target.shape:
        raise ShapeMismatch("logits and target shapes differ")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    loss = -(target * (shifted - np.log(e.sum(axis=1, keepdims=True)))).sum(axis=1)
    return loss, probs


# --------------------------------------------------------------------------
# Stateful layers (forward caches + backward)
# --------------------------------------------------------------------------


class Layer:
    """Common surface: build(in_shape, seed) -> out_shape; forward(x, train,
    seed); backward(dy) -> dx, setting the parameter gradients.

    input_grad is cleared by build_model on a model's first layer, whose dx
    nothing reads: a conv or LSTM layer then skips that product and its
    backward returns None."""

    name = "layer"
    input_grad = True

    def build(self, in_shape: tuple, seed: int) -> tuple:
        return in_shape

    def params(self) -> list[tuple[str, np.ndarray]]:
        return []

    def grads(self) -> list[np.ndarray]:
        return []

    def forward(self, x: np.ndarray, train: bool = False, seed: int = 0) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def glorot_uniform(shape: tuple, fan_in: int, fan_out: int, seed: int) -> np.ndarray:
    """Uniform in +-sqrt(6 / (fan_in + fan_out)) from the documented generator."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    u = bulk_uniform(seed, int(np.prod(shape)))
    return ((2.0 * u - 1.0) * bound).reshape(shape)


class Conv1DLayer(Layer):
    name = "conv1d"

    def __init__(self, filters: int, kernel: int, padding: str = "same", activation: str = "relu"):
        if padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {padding!r}")
        self.filters = filters
        self.kernel_size = kernel
        self.padding = padding
        self.activation = activation
        self.W = None
        self.b = None

    def build(self, in_shape, seed):
        length, c_in = in_shape
        if self.padding == "valid" and self.kernel_size > length:
            raise ShapeMismatch(f"kernel {self.kernel_size} exceeds input length {length}")
        fan = self.kernel_size * c_in, self.kernel_size * self.filters
        self.W = glorot_uniform(
            (self.kernel_size, c_in, self.filters), fan[0], fan[1], derive_seed(seed, 0)
        )
        self.b = np.zeros(self.filters)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        out_len = length if self.padding == "same" else length - self.kernel_size + 1
        return (out_len, self.filters)

    def params(self):
        return [("W", self.W), ("b", self.b)]

    def grads(self):
        return [self.dW, self.db]

    def forward(self, x, train=False, seed=0):
        self._xt, y = _conv1d(x, self.W, self.b, self.padding)
        self._xp = self._xt.transpose(1, 0, 2)  # (B, Lp, C_in) view; bench/tracer.py reads its shape
        y = _activate(y, self.activation)
        self._out_len = y.shape[1]
        self._y = y
        _check_finite(self.name, y)
        return y

    def backward(self, dy):
        xt, w = self._xt, self.W
        k, c_in, c_out = w.shape
        out_len, b = self._out_len, xt.shape[1]
        # dy with the ReLU mask applied, transposed to length-major in one pass
        dyt = np.empty((out_len, b, c_out))
        if self.activation == "relu":
            np.multiply(dy, self._y > 0, out=dyt.transpose(1, 0, 2))
        else:
            dyt.transpose(1, 0, 2)[...] = dy
        rows = dyt.reshape(out_len * b, c_out)
        self.db = rows.sum(axis=0)
        self.dW = np.empty_like(w)
        dxt = np.zeros_like(xt) if self.input_grad else None
        for t0, t1 in _tap_groups(k, c_in, c_out):
            g = t1 - t0
            cols = _tap_columns(xt, t0, t1, out_len)
            self.dW[t0:t1] = (cols.T @ rows).reshape(c_in, g, c_out).transpose(1, 0, 2)
            if dxt is None:
                continue
            dcols = (rows @ _tap_weights(w, t0, t1).T).reshape(out_len, b, c_in, g)
            for j in range(g):
                dxt[t0 + j : t0 + j + out_len] += dcols[..., j]
        if dxt is None:
            return None
        if self.padding == "same":
            left = (k - 1) // 2
            dxt = dxt[left : left + out_len]
        return dxt.transpose(1, 0, 2)


class MaxPool1DLayer(Layer):
    name = "maxpool1d"

    def __init__(self, pool: int, stride: int):
        self.pool = pool
        self.stride = stride

    def build(self, in_shape, seed):
        length, channels = in_shape
        if length < self.pool:
            raise InputTooShort(f"pooling window {self.pool} exceeds input length {length}")
        return ((length - self.pool) // self.stride + 1, channels)

    def forward(self, x, train=False, seed=0):
        """Window maxima, keeping the absolute argmax of each window for
        backward. Ties go to the first maximum in the window, as np.argmax
        does. x must be finite: every conv output is checked before it is
        pooled, and a NaN window has no position equal to its maximum."""
        x = _batch(x, 3)
        pool, stride = self.pool, self.stride
        win = np.lib.stride_tricks.sliding_window_view(x, pool, axis=1)[:, ::stride]  # (B, L', C, pool)
        y = win.max(axis=3)
        arg = np.zeros(y.shape, dtype=np.intp)
        for j in range(pool - 1, -1, -1):  # the last write, the lowest j, wins
            np.copyto(arg, j, where=win[..., j] == y)
        self._idx = stride * np.arange(win.shape[1])[None, :, None] + arg
        self._in_shape = x.shape
        return y

    def backward(self, dy):
        b, out_len, c = dy.shape
        _, length, _ = self._in_shape
        # overlapping windows can route several gradients to one input slot,
        # so scatter with a flat bincount
        bi = np.repeat(np.arange(b), out_len * c)
        ci = np.tile(np.arange(c), b * out_len)
        flat = (bi * length + self._idx.ravel()) * c + ci
        dx = np.bincount(flat, weights=dy.ravel(), minlength=b * length * c)
        return dx.reshape(b, length, c)


class DropoutLayer(Layer):
    name = "dropout"

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate

    def forward(self, x, train=False, seed=0):
        """Inverted dropout: training zeroes with probability `rate` and
        scales survivors by 1/(1-rate); eval is the identity."""
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        self._mask = (bulk_uniform(seed, x.size) >= self.rate).reshape(x.shape) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, dy):
        return dy if self._mask is None else dy * self._mask


class FlattenLayer(Layer):
    name = "flatten"

    def build(self, in_shape, seed):
        return (int(np.prod(in_shape)),)

    def forward(self, x, train=False, seed=0):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._in_shape)


class DenseLayer(Layer):
    name = "dense"

    def __init__(self, units: int, activation: str = "linear"):
        self.units = units
        self.activation = activation
        self.W = None
        self.b = None

    def build(self, in_shape, seed):
        if len(in_shape) != 1:
            raise ShapeMismatch(f"dense needs a flat input, got shape {in_shape}")
        d = in_shape[0]
        self.W = glorot_uniform((d, self.units), d, self.units, derive_seed(seed, 0))
        self.b = np.zeros(self.units)
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        return (self.units,)

    def params(self):
        return [("W", self.W), ("b", self.b)]

    def grads(self):
        return [self.dW, self.db]

    def forward(self, x, train=False, seed=0):
        """activation(x @ W + b); x: (B, D)."""
        self._x = x = _batch(x, 2)
        if x.shape[1] != self.W.shape[0]:
            raise ShapeMismatch(f"input width {x.shape[1]} != weight rows {self.W.shape[0]}")
        self._y = _activate(x @ self.W + self.b, self.activation)
        _check_finite(self.name, self._y)
        return self._y

    def backward(self, dy):
        if self.activation == "relu":
            dy = dy * (self._y > 0)
        self.dW = self._x.T @ dy
        self.db = dy.sum(axis=0)
        return dy @ self.W.T


class LSTMLayer(Layer):
    """Sequence-to-vector LSTM with full backpropagation through time."""

    name = "lstm"

    def __init__(self, units: int):
        self.units = units
        self.W = None
        self.R = None
        self.b = None

    def build(self, in_shape, seed):
        if len(in_shape) != 2:
            raise ShapeMismatch(f"lstm needs a (T, D) input, got shape {in_shape}")
        _, d = in_shape
        u = self.units
        self.W = glorot_uniform((d, 4 * u), d, 4 * u, derive_seed(seed, 0))
        self.R = glorot_uniform((u, 4 * u), u, 4 * u, derive_seed(seed, 1))
        self.b = np.zeros(4 * u)
        self.b[u : 2 * u] = 1.0  # forget-gate bias starts open
        self.dW = np.zeros_like(self.W)
        self.dR = np.zeros_like(self.R)
        self.db = np.zeros_like(self.b)
        return (u,)

    def params(self):
        return [("W", self.W), ("R", self.R), ("b", self.b)]

    def grads(self):
        return [self.dW, self.dR, self.db]

    def forward(self, x, train=False, seed=0):
        self._x = x = _batch(x, 3)
        self._cache = None  # free the previous batch's steps before the scan
        self._cache = _lstm_scan(x, self.W, self.R, self.b)
        h = self._cache[1][-1]
        _check_finite(self.name, h)
        return h

    def backward(self, dh):
        """The recurrence carries only dh and dc; each step's dz overwrites
        its gates, and the weight gradients (and dx) are one product each
        over all T*B rows after the loop."""
        x = self._x
        b, t_len, d = x.shape
        u = self.units
        gates, hs, cs, tcs = self._cache
        self._cache = None
        rt = np.ascontiguousarray(self.R.T)
        dc = np.zeros((b, u))
        for t in range(t_len - 1, -1, -1):
            z, tc = gates[t], tcs[t]
            i, f, g, o = z[:, :u], z[:, u : 2 * u], z[:, 2 * u : 3 * u], z[:, 3 * u :]
            do = dh * tc
            dct = dh * o * (1.0 - tc * tc) + dc
            di = dct * g
            dg = dct * i
            df = dct * cs[t]
            dc = dct * f
            # each slice reads only its own gate, so dz can overwrite them in turn
            z[:, :u] = di * i * (1.0 - i)
            z[:, u : 2 * u] = df * f * (1.0 - f)
            z[:, 2 * u : 3 * u] = dg * (1.0 - g * g)
            z[:, 3 * u :] = do * o * (1.0 - o)
            dh = z @ rt
        dz = gates.reshape(t_len * b, 4 * u)
        self.dW = x.transpose(1, 0, 2).reshape(t_len * b, d).T @ dz
        self.dR = hs[:-1].reshape(t_len * b, u).T @ dz
        self.db = dz.sum(axis=0)
        if not self.input_grad:
            return None
        return (dz @ self.W.T).reshape(t_len, b, d).transpose(1, 0, 2)
