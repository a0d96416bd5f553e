"""Adam with bias correction, operating in place on parameter arrays."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import beside


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    lr: float = 1e-3
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


# Elements per block of the update: the six arrays one block touches
# (parameter, gradient, both moments and two scratch arrays) take 768 KB, so
# the update's fourteen passes over a block run from cache.
_BLOCK = 16384


def adam_update(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState, helper=None
) -> None:
    """One Adam step: p -= lr * m_hat / (sqrt(v_hat) + eps). Moments are
    allocated lazily on the first call; parameters update in place.

    Each parameter is updated block by block, every operation writing into
    the moments or into two scratch arrays, in the order of the expression
    above, so the result is bit-identical to the allocating form. With a
    helper, every array of two blocks or more has its later half of blocks
    updated on it while this thread updates the rest: each element goes
    through the same operations either way."""
    if len(params) != len(grads):
        raise ValueError("params and grads must align")
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    state.t += 1
    here, there = [], []
    for arrays in zip(params, grads, state.m, state.v):
        n = arrays[0].size
        cut = -(-n // _BLOCK) // 2 * _BLOCK if helper else 0  # half its blocks, rounded down
        here.append((arrays, 0, cut if cut else n))
        if cut:
            there.append((arrays, cut, n))
    if there:
        beside(helper, lambda: _update(there, state), lambda: _update(here, state))
    else:
        _update(here, state)


def _update(spans, state: AdamState) -> None:
    """The update over each (arrays, start, stop) span: the elements
    [start, stop) of (parameter, gradient, m, v) in iteration order."""
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    scratch_a, scratch_b = np.empty(_BLOCK), np.empty(_BLOCK)
    for arrays, start, stop in spans:
        blocks = np.nditer(
            arrays,
            flags=["external_loop", "buffered", "zerosize_ok", "ranged"],
            op_flags=[["readwrite"], ["readonly"], ["readwrite"], ["readwrite"]],
            buffersize=_BLOCK,
        )
        blocks.iterrange = (start, stop)
        with blocks:
            for p, g, m, v in blocks:
                a, b = scratch_a[: p.size], scratch_b[: p.size]
                m *= BETA1
                m += np.multiply(1.0 - BETA1, g, out=a)
                v *= BETA2
                np.multiply(1.0 - BETA2, g, out=a)
                v += np.multiply(a, g, out=a)
                np.divide(m, bc1, out=a)
                np.multiply(state.lr, a, out=a)
                np.divide(v, bc2, out=b)
                np.sqrt(b, out=b)
                b += EPS
                p -= np.divide(a, b, out=a)
