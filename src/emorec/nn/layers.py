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

from ..errors import InputTooShort, NoForwardState, NonFiniteOutput, ShapeMismatch
from ..rng import bulk_uniform, derive_seed


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteOutput(f"non-finite values in {name} output")


def _kept(layer: Layer, state):
    """What the layer's last forward(train=True) kept for its backward."""
    if state is None:
        raise NoForwardState(f"{layer.name} backward needs a preceding forward(train=True)")
    return state


def _check_sizes(layer: Layer, **sizes: int) -> None:
    for field, size in sizes.items():
        if size < 1:
            raise ValueError(f"{layer.name} {field} must be at least 1, got {size}")


def _batch(x, ndim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != ndim:
        raise ShapeMismatch(f"expected a batched {ndim}-dim input, got {x.ndim} dims")
    return x


def _activate(v: np.ndarray, activation: str) -> np.ndarray:
    """The activation of a fresh pre-activation v, written over it. ReLU
    keeps numpy's argument order, maximum(0.0, v), so a zero or negative
    zero in v comes out with the bits it has without `out`."""
    if activation == "relu":
        return np.maximum(0.0, v, out=v)
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
    """(out_len*B, g*C_in) columns of taps t0..t1-1 from the length-major
    padded input xt (Lp, B, C_in); column j*C_in + ci holds tap t0 + j of
    channel ci, so kernel[t0:t1].reshape(-1, C_out) holds the matching rows."""
    win = np.lib.stride_tricks.sliding_window_view(xt[t0 : t1 + out_len - 1], t1 - t0, axis=0)
    return win.swapaxes(2, 3).reshape(out_len * xt.shape[1], -1)


# A conv forward of fewer multiply-adds runs whole: below it the handoff
# costs more than the half saves. Measured at the cnn preset's shapes at a
# 42-wide input, a 49-row training step beside 6-row scoring, split and
# whole alternating (BENCH_step_helper.json, thresholds), so a 6-row scoring
# batch (37M in its largest layer) runs whole.
_SPLIT_MACS = 50_000_000

# A split conv forward cuts its rows at a multiple of this. A BLAS kernel
# may compute a row's bits by the row's place in its unroll of the rows: at
# one thread, every x86 kernel of OpenBLAS 0.3.31 keeps each row's bits
# across a cut at a multiple of 4, and Haswell and older ones change them
# across other cuts (README, Determinism). 32 leaves room for wider unrolls.
_ROW_ALIGN = 32


def beside(helper, late, now):
    """late() on the helper beside now() on this thread; returns now()'s
    value once both are done, re-raising what late() raised. Without a
    helper, late() then now() on this thread."""
    if helper is None:
        late()
        return now()
    pending = helper.submit(late)
    value = now()
    pending.result()
    return value


def _lstm_scan(x: np.ndarray, w: np.ndarray, r: np.ndarray, b: np.ndarray, keep: bool = True):
    """Run the LSTM recurrence over x (B, T, D). Returns the gates
    (T, 4, B, U), gate-major: step t's activated i, f, g and o are the
    contiguous blocks gates[t, 0..3]; the hidden states (T+1, B, U) with
    h[0] = 0 and h[T] the final state; and the cell states (T+1, B, U) with
    c[0] = 0. tanh(c) is not kept: backward recomputes it, bit for bit.

    With keep False (scoring, where nothing runs backward) every step writes
    its gates into one (1, 4, B, U) block, and h and c alternate between two
    slots: step t reads slot t % n and writes slot (t + 1) % n, with n = T+1
    when keeping and 2 when not. The operations are the same either way, so
    h[T] = hs[T % n] is bit-identical.

    sigmoid(z) = 0.5 + 0.5 * tanh(z / 2), so the i, f and o columns of W, R
    and b are halved once (exact: a power of two) and one tanh activates a
    step's gates. The loop allocates nothing."""
    bsz, t_len, d = x.shape
    u = r.shape[0]
    half = np.full(4 * u, 0.5)
    half[2 * u : 3 * u] = 1.0
    # (4, D, U) and (4, U, U) stacks: each product writes the step's four
    # gate blocks, and every later operation runs on contiguous blocks
    w = np.ascontiguousarray((w * half).reshape(d, 4, u).transpose(1, 0, 2))
    r = np.ascontiguousarray((r * half).reshape(u, 4, u).transpose(1, 0, 2))
    bias = np.repeat((b * half).reshape(4, 1, u), bsz, axis=1)  # a broadcast add costs 2x
    m, n = (t_len, t_len + 1) if keep else (1, 2)
    gates = np.empty((m, 4, bsz, u))
    hs = np.zeros((n, bsz, u))
    cs = np.zeros((n, bsz, u))
    hr, ig, tc = np.empty((4, bsz, u)), np.empty((bsz, u)), np.empty((bsz, u))
    for t in range(t_len):
        z = gates[t % m]
        h0, h1, c0, c1 = hs[t % n], hs[(t + 1) % n], cs[t % n], cs[(t + 1) % n]
        np.matmul(x[:, t, :], w, out=z)
        z += np.matmul(h0, r, out=hr)
        z += bias
        np.tanh(z, out=z)
        for s in (z[:2], z[3]):  # i, f and o
            s *= 0.5
            s += 0.5
        i, f, g, o = z
        np.multiply(f, c0, out=c1)
        c1 += np.multiply(i, g, out=ig)
        np.multiply(o, np.tanh(c1, out=tc), out=h1)
    return gates, hs, cs


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
# Stateful layers (training forward state + backward)
# --------------------------------------------------------------------------


class Layer:
    """Common surface: build(in_shape, seed) -> out_shape; forward(x, train,
    seed); backward(dy) -> dx, writing the parameter gradients. backward may
    write over dy.

    Only forward(train=True) keeps what backward reads. forward(train=False)
    keeps no array and drops what an earlier training forward kept, so a
    backward after it raises NoForwardState.

    input_grad is cleared by build_model on a model's first layer, whose dx
    nothing reads: a conv or LSTM layer then skips that product and its
    backward returns None."""

    name = "layer"
    input_grad = True
    param_names: tuple[str, ...] = ()  # the arrays _init sets, in checkpoint order
    helper = None  # the executor step_helper lends while it runs

    def build(self, in_shape: tuple, seed: int) -> tuple:
        """_init, then for each n in param_names a zeroed "d" + n, n's gradient buffer."""
        out_shape = self._init(in_shape, seed)
        for n in self.param_names:
            setattr(self, "d" + n, np.zeros_like(getattr(self, n)))
        return out_shape

    def _init(self, in_shape: tuple, seed: int) -> tuple:
        return in_shape

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
    param_names = ("W", "b")

    def __init__(self, filters: int, kernel: int, padding: str = "same", activation: str = "relu"):
        _check_sizes(self, filters=filters, kernel=kernel)
        if padding not in ("same", "valid"):
            raise ValueError(f"unknown padding {padding!r}")
        if activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation {activation!r}")
        self.filters = filters
        self.kernel_size = kernel
        self.padding = padding
        self.activation = activation
        self._xp = self._mask = None

    def _init(self, in_shape, seed):
        length, c_in = in_shape
        if self.padding == "valid" and self.kernel_size > length:
            raise ShapeMismatch(f"kernel {self.kernel_size} exceeds input length {length}")
        fan = self.kernel_size * c_in, self.kernel_size * self.filters
        self.W = glorot_uniform(
            (self.kernel_size, c_in, self.filters), fan[0], fan[1], derive_seed(seed, 0)
        )
        self.b = np.zeros(self.filters)
        out_len = length if self.padding == "same" else length - self.kernel_size + 1
        return (out_len, self.filters)

    def forward(self, x, train=False, seed=0):
        """x: (B, L, C_in) -> (B, L_out, C_out); 'same' keeps L, 'valid'
        yields L - K + 1. Each tap group is one 2-D product over the L_out*B
        rows of a length-major output, from the padded length-major input.

        With a helper, output rows [mid, L_out*B) are computed on it while
        this thread computes [0, mid): each half runs every tap group in
        order into its own block of rows, then adds the bias. mid is a
        nonzero multiple of _ROW_ALIGN, so neither half is a 1-row product
        (which numpy sends to gemv) and every row has the unsplit bits."""
        self._xp = self._mask = None  # free the previous batch's state first
        x = _batch(x, 3)
        k, c_in, c_out = self.W.shape
        b, length, _ = x.shape
        if x.shape[2] != c_in:
            raise ShapeMismatch(f"input has {x.shape[2]} channels, kernel wants {c_in}")
        if self.padding == "same":
            left = (k - 1) // 2
            xt = np.zeros((length + k - 1, b, c_in))
        else:
            left = 0
            xt = np.empty((length, b, c_in))
        xt[left : left + length] = x.transpose(1, 0, 2)
        out_len = xt.shape[0] - k + 1
        y = np.empty((out_len, b, c_out))
        rows = y.reshape(out_len * b, c_out)
        groups = _tap_groups(k, c_in, c_out)

        def fill(r0, r1):  # output rows [r0, r1), of positions [p0, p1)
            part = rows[r0:r1]
            p0, p1 = r0 // b, -(-r1 // b)
            for i, (t0, t1) in enumerate(groups):
                cols = _tap_columns(xt[p0 : p1 + k - 1], t0, t1, p1 - p0)[r0 - p0 * b : r1 - p0 * b]
                w = self.W[t0:t1].reshape(-1, c_out)
                if i == 0:
                    np.matmul(cols, w, out=part)
                else:
                    part += cols @ w
            part += self.b

        n = out_len * b
        mid = n // 2 // _ROW_ALIGN * _ROW_ALIGN
        if self.helper is None or mid == 0 or n * k * c_in * c_out < _SPLIT_MACS:
            fill(0, n)
        else:
            beside(self.helper, lambda: fill(mid, n), lambda: fill(0, mid))
        y = _activate(y.transpose(1, 0, 2), self.activation)
        self._out_len = out_len
        _check_finite(self.name, y)
        if train:
            # (B, Lp, C_in) view of the padded input: backward reads it, bench/tracer.py its shape
            self._xp = xt.transpose(1, 0, 2)
            self._mask = y > 0 if self.activation == "relu" else None
        return y

    def backward(self, dy):
        """Each tap group's weight gradient is one product cols.T @ rows,
        written straight into dW's rows of those taps. With a helper and an
        input gradient to compute, the helper runs the weight products
        while this thread runs the input-gradient ones and adds them into
        dx in group and tap order, as without one. Every group's input
        product is written into one buffer, and a tap adds only the rows
        that land inside the unpadded dx."""
        xt, w = _kept(self, self._xp).transpose(1, 0, 2), self.W
        k, c_in, c_out = w.shape
        out_len, b = self._out_len, xt.shape[1]
        left, length = ((k - 1) // 2, out_len) if self.padding == "same" else (0, xt.shape[0])
        # dy with the ReLU mask applied, as length-major rows: written over a
        # length-major float dy (a max-pool's dx), else into a length-major
        # copy in the same pass
        dyt = dy.transpose(1, 0, 2)
        if not (dyt.flags.c_contiguous and dyt.flags.writeable and dyt.dtype == np.float64):
            dyt = np.empty((out_len, b, c_out))
            if self.activation != "relu":
                dyt.transpose(1, 0, 2)[...] = dy
        if self.activation == "relu":
            np.multiply(dy, self._mask, out=dyt.transpose(1, 0, 2))
        rows = dyt.reshape(out_len * b, c_out)
        np.sum(rows, axis=0, out=self.db)
        dw = self.dW
        groups = _tap_groups(k, c_in, c_out)

        def weights():
            for t0, t1 in groups:
                cols = _tap_columns(xt, t0, t1, out_len)
                np.matmul(cols.T, rows, out=dw[t0:t1].reshape(-1, c_out))

        def inputs():
            # after the hand-off, so the helper starts first
            dxt = np.zeros((length, b, c_in))
            buf = np.empty(out_len * b * groups[0][1] * c_in)  # the first group is the widest
            for t0, t1 in groups:
                dcols = buf[: out_len * b * (t1 - t0) * c_in].reshape(out_len * b, -1)
                np.matmul(rows, w[t0:t1].reshape(-1, c_out).T, out=dcols)
                dcols = dcols.reshape(out_len, b, t1 - t0, c_in)
                for t in range(t0, t1):  # output o lands on input o + t - left
                    lo, hi = max(0, left - t), min(out_len, length + left - t)
                    dxt[lo + t - left : hi + t - left] += dcols[lo:hi, :, t - t0]
            return dxt

        if not self.input_grad:  # nothing to run beside the weight products
            weights()
            return None
        return beside(self.helper, weights, inputs).transpose(1, 0, 2)


class MaxPool1DLayer(Layer):
    name = "maxpool1d"

    def __init__(self, pool: int, stride: int):
        _check_sizes(self, pool=pool, stride=stride)
        self.pool = pool
        self.stride = stride
        self._shape = self._first = None

    def _init(self, in_shape, seed):
        length, channels = in_shape
        if length < self.pool:
            raise InputTooShort(f"pooling window {self.pool} exceeds input length {length}")
        return ((length - self.pool) // self.stride + 1, channels)

    def forward(self, x, train=False, seed=0):
        """Window maxima. A training forward keeps x's shape and each
        window's first-max offset: the number of its leading positions that
        are != its maximum, the position np.argmax picks, in the smallest
        unsigned type that holds pool - 1. A NaN window would route to its
        last position, but none reaches the pool: every conv output is
        checked first."""
        self._shape = self._first = None
        x = _batch(x, 3)
        win = np.lib.stride_tricks.sliding_window_view(x, self.pool, axis=1)[:, :: self.stride]
        y = win.max(axis=3)
        if train:
            first = np.zeros(y.shape, dtype=np.min_scalar_type(self.pool - 1))
            missed = np.ones(y.shape, dtype=bool)
            for j in range(self.pool - 1):
                missed &= win[..., j] != y
                first += missed
            self._shape, self._first = x.shape, first
        return y

    def backward(self, dy):
        """Routes each window's gradient to its first maximum in one
        scatter over the slots of a length-major (L, B, C) buffer and
        returns its (B, L, C) view. The slots are laid out like dy and
        both are raveled in dy's memory order, so neither is copied. A slot
        belongs to one row and one channel, so in any layout of dy the
        windows that share it add their gradients in increasing window
        order, starting from +0.0."""
        first = _kept(self, self._first)
        b, length, c = self._shape
        n_win = first.shape[1]
        slot = np.empty_like(dy, dtype=np.intp)
        # intp by name: numpy 1.x would keep first * (b*c) in first's uint8 for a small b*c
        np.multiply(first, b * c, out=slot, dtype=np.intp)
        slot += np.arange(c)
        slot += (np.arange(n_win) * (self.stride * b * c))[:, None]
        slot += (np.arange(b) * c)[:, None, None]
        dx = np.bincount(slot.ravel("K"), weights=np.ravel(dy, "K"), minlength=length * b * c)
        return dx.reshape(length, b, c).transpose(1, 0, 2)


class DropoutLayer(Layer):
    name = "dropout"

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate
        self._mask = None

    def forward(self, x, train=False, seed=0):
        """Inverted dropout: training zeroes with probability `rate`, scales
        survivors by 1/(1-rate) and keeps that mask for backward; eval is the
        identity."""
        self._mask = None
        if not train:
            return x
        survives = bulk_uniform(seed, x.size) >= self.rate
        self._mask = survives.reshape(x.shape) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, dy):
        return dy * _kept(self, self._mask)


class FlattenLayer(Layer):
    name = "flatten"

    def __init__(self):
        self._in_shape = None

    def _init(self, in_shape, seed):
        return (int(np.prod(in_shape)),)

    def forward(self, x, train=False, seed=0):
        self._in_shape = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(_kept(self, self._in_shape))


class DenseLayer(Layer):
    name = "dense"
    param_names = ("W", "b")

    def __init__(self, units: int, activation: str = "linear"):
        _check_sizes(self, units=units)
        if activation not in ("relu", "linear"):
            raise ValueError(f"unknown activation {activation!r}")
        self.units = units
        self.activation = activation
        self._x = self._mask = None

    def _init(self, in_shape, seed):
        if len(in_shape) != 1:
            raise ShapeMismatch(f"dense needs a flat input, got shape {in_shape}")
        d = in_shape[0]
        self.W = glorot_uniform((d, self.units), d, self.units, derive_seed(seed, 0))
        self.b = np.zeros(self.units)
        return (self.units,)

    def forward(self, x, train=False, seed=0):
        """activation(x @ W + b); x: (B, D)."""
        self._x = self._mask = None
        x = _batch(x, 2)
        if x.shape[1] != self.W.shape[0]:
            raise ShapeMismatch(f"input width {x.shape[1]} != weight rows {self.W.shape[0]}")
        y = _activate(x @ self.W + self.b, self.activation)
        _check_finite(self.name, y)
        if train:
            self._x = x
            self._mask = y > 0 if self.activation == "relu" else None
        return y

    def backward(self, dy):
        x = _kept(self, self._x)
        if self.activation == "relu":
            dy = dy * self._mask
        np.matmul(x.T, dy, out=self.dW)
        np.sum(dy, axis=0, out=self.db)
        return dy @ self.W.T


class LSTMLayer(Layer):
    """Sequence-to-vector LSTM with full backpropagation through time."""

    name = "lstm"
    param_names = ("W", "R", "b")

    def __init__(self, units: int):
        _check_sizes(self, units=units)
        self.units = units
        self._x = self._cache = None

    def _init(self, in_shape, seed):
        if len(in_shape) != 2:
            raise ShapeMismatch(f"lstm needs a (T, D) input, got shape {in_shape}")
        _, d = in_shape
        u = self.units
        self.W = glorot_uniform((d, 4 * u), d, 4 * u, derive_seed(seed, 0))
        self.R = glorot_uniform((u, 4 * u), u, 4 * u, derive_seed(seed, 1))
        self.b = np.zeros(4 * u)
        self.b[u : 2 * u] = 1.0  # forget-gate bias starts open
        return (u,)

    def forward(self, x, train=False, seed=0):
        self._x = self._cache = None  # free the previous batch's steps before the scan
        x = _batch(x, 3)
        gates, hs, cs = _lstm_scan(x, self.W, self.R, self.b, keep=train)
        h = hs[x.shape[1] % hs.shape[0]]
        _check_finite(self.name, h)
        if train:
            self._x, self._cache = x, (gates, hs, cs)
        return h

    def backward(self, dh):
        """The recurrence carries only dh and dc. Each step forms dz as one
        multiplier row times one derivative row, [dct*g*i, dct*c*f, dct*i,
        dh*tanh(c)*o] * [1-i, 1-f, 1-g*g, 1-o], taking each product in the
        gate-by-gate order so that every gradient rounds as it does there,
        and writes it over its gate blocks in [i, f, g, o] column order.
        The gates buffer then holds dz as (T*B, 4U) rows, and the weight
        gradients (and dx) are one product each over them."""
        gates, hs, cs = _kept(self, self._cache)
        self._cache = None  # _x stays: bench/tracer.py reads its shape after backward
        x = self._x
        b, t_len, d = x.shape
        u = self.units
        rt = np.ascontiguousarray(self.R.T)
        dh = np.array(dh, dtype=np.float64)  # the loop overwrites it
        dc, dct, tc, tc2 = np.zeros((b, u)), np.empty((b, u)), np.empty((b, u)), np.empty((b, u))
        mul, der = np.empty((4, b, u)), np.empty((4, b, u))
        for t in range(t_len - 1, -1, -1):
            act = gates[t]
            i, f, g, o = act
            np.tanh(cs[t + 1], out=tc)
            # dct = dh * o * (1 - tanh(c)^2) + dc
            np.multiply(dh, o, out=dct)
            np.multiply(tc, tc, out=tc2)
            dct *= np.subtract(1.0, tc2, out=tc2)
            dct += dc
            np.multiply(dct, g, out=mul[0])
            np.multiply(dct, cs[t], out=mul[1])
            np.multiply(dct, i, out=mul[2])
            np.multiply(dh, tc, out=mul[3])
            mul[:2] *= act[:2]
            mul[3] *= o
            np.multiply(dct, f, out=dc)
            np.subtract(1.0, act, out=der)
            np.multiply(g, g, out=der[2])
            np.subtract(1.0, der[2], out=der[2])
            dz = act.reshape(b, 4 * u)  # the step's memory, reread as [i, f, g, o] rows
            np.multiply(mul.transpose(1, 0, 2), der.transpose(1, 0, 2), out=dz.reshape(b, 4, u))
            np.matmul(dz, rt, out=dh)
        dz = gates.reshape(t_len * b, 4 * u)
        np.matmul(x.transpose(1, 0, 2).reshape(t_len * b, d).T, dz, out=self.dW)
        np.matmul(hs[:-1].reshape(t_len * b, u).T, dz, out=self.dR)
        np.sum(dz, axis=0, out=self.db)
        if not self.input_grad:
            return None
        return (dz @ self.W.T).reshape(t_len, b, d).transpose(1, 0, 2)
