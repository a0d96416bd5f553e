"""Deterministic random number generation with a documented, portable algorithm.

Every random decision in the pipeline (splits, augmentation noise, weight
init, dropout masks, batch shuffles) flows through the generators in this
module, so a run is a pure function of its seeds and two implementations of
the same algorithms produce identical experiments.

Algorithms, exactly as implemented:

* SplitMix64 (Steele, Lea & Flood): state advances by the 64-bit constant
  0x9E3779B97F4A7C15; each output is the advanced state passed through the
  xor-shift-multiply finalizer (>>30 * 0xBF58476D1CE4E5B9, >>27 *
  0x94D049BB133111EB, >>31). Used for seeding and for counter-mode bulk
  streams: output i of seed s is mix64(s + (i+1)*0x9E3779B97F4A7C15 mod 2^64).

* xoshiro256** (Blackman & Vigna): 256-bit state seeded from four successive
  SplitMix64 outputs; next() returns rotl(s1*5, 7)*9 and applies the standard
  xor-shift state transition with rotl(s3, 45). Used for the Fisher-Yates
  shuffles behind dataset splits and per-epoch batch orders.

* Bounded integers are next() mod bound; the modulo bias is accepted and part
  of the documented contract (portability over statistical perfection).

* Uniform doubles are (u64 >> 11) * 2^-53 in [0, 1).

* Normals come from Box-Muller over counter-mode SplitMix64 pairs, with
  (u64 >> 11 + 1) * 2^-53 in (0, 1] feeding the log.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit value."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def splitmix64_stream(seed: int, n: int) -> list[int]:
    """First n outputs of SplitMix64 seeded with `seed`."""
    out = []
    state = seed & _MASK64
    for _ in range(n):
        state = (state + _GAMMA) & _MASK64
        out.append(mix64(state))
    return out


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic child seed: fold each index through the SplitMix64 counter.

    derive_seed(s, i) equals output i of the SplitMix64 stream seeded with s,
    so children are independent for distinct index tuples.
    """
    s = seed & _MASK64
    for ix in indices:
        s = mix64((s + ((ix + 1) * _GAMMA)) & _MASK64)
    return s


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """Scalar xoshiro256** stream; the shuffle generator of the toolkit."""

    def __init__(self, seed: int):
        s = splitmix64_stream(seed, 4)
        if not any(s):
            s[0] = _GAMMA  # all-zero state is invalid for xoshiro
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randint(self, bound: int) -> int:
        """Integer in [0, bound) via next() mod bound."""
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: for i = n-1..1, swap items[i] with items[j],
        j = next() mod (i+1)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        idx = list(range(n))
        self.shuffle(idx)
        return idx


def _counter_u64(seed: int, n: int) -> np.ndarray:
    """Vectorized counter-mode SplitMix64: outputs 0..n-1 of seed."""
    i = np.arange(1, n + 1, dtype=np.uint64)
    x = np.uint64(seed & _MASK64) + i * np.uint64(_GAMMA)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def bulk_uniform(seed: int, n: int) -> np.ndarray:
    """n uniform doubles in [0, 1) from the counter-mode SplitMix64 stream."""
    return (_counter_u64(seed, n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def bulk_normal(seed: int, n: int) -> np.ndarray:
    """n standard normals via Box-Muller over counter-mode SplitMix64 pairs."""
    m = (n + 1) // 2
    u = _counter_u64(seed, 2 * m)
    u1 = ((u[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53  # (0, 1]
    u2 = (u[m:] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * math.pi * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
    return z[:n]
