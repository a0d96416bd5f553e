"""Periodized orthonormal discrete wavelet transform and subband statistics.

Analysis convention: a[n] = sum_k h[k] x[(2n+k) mod N], and likewise d[n]
with the highpass g. The highpass is derived from the lowpass by the
quadrature mirror relation g[k] = (-1)^k h[L-1-k], which makes the transform
orthonormal; synthesis is its transpose, giving perfect reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import OddLength, TooManyLevels, TooShort

# Orthonormal lowpass decomposition filters, normalized so coefficients sum
# to sqrt(2). The 8-tap filter is the standard Daubechies extremal-phase
# member with four vanishing moments.
_HAAR_LO = [0.7071067811865476, 0.7071067811865476]
_DB4_LO = [
    0.23037781330885523,
    0.7148465705525415,
    0.6308807679295904,
    -0.02798376941698385,
    -0.18703481171888114,
    0.030841381835986965,
    0.032883011666982945,
    -0.010597401784997278,
]

_FAMILIES = {"haar": _HAAR_LO, "db4": _DB4_LO}


def quadrature_mirror(lowpass: np.ndarray) -> np.ndarray:
    """g[k] = (-1)^k h[L-1-k]."""
    h = np.asarray(lowpass, dtype=np.float64)
    signs = np.where(np.arange(h.shape[0]) % 2 == 0, 1.0, -1.0)
    return signs * h[::-1]


@dataclass(frozen=True)
class WaveletSpec:
    family: str = "db4"
    levels: int = 5
    dec_lo: np.ndarray = field(init=False, repr=False)
    dec_hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown wavelet family {self.family!r}")
        if self.levels < 1:
            raise ValueError("levels must be positive")
        lo = np.array(_FAMILIES[self.family], dtype=np.float64)
        object.__setattr__(self, "dec_lo", lo)
        object.__setattr__(self, "dec_hi", quadrature_mirror(lo))

    @property
    def filter_len(self) -> int:
        return self.dec_lo.shape[0]

    def max_levels(self, n: int) -> int:
        """Deepest decomposition n samples support: the last step's input,
        n / 2^(levels-1), must hold one filter, so n >= filter_len * 2^(levels-1)."""
        return (n // self.filter_len).bit_length()


def dwt_level(x: np.ndarray, spec: WaveletSpec) -> tuple[np.ndarray, np.ndarray]:
    """One periodized analysis step: (approximation, detail), each length N/2."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    L = spec.filter_len
    if n % 2 != 0:
        raise OddLength(f"DWT level needs an even length, got {n}")
    if n < L:
        raise TooShort(f"DWT level needs length >= {L}, got {n}")
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(L)[None, :]) % n
    windows = x[idx]
    return windows @ spec.dec_lo, windows @ spec.dec_hi


def idwt_level(approx: np.ndarray, detail: np.ndarray, spec: WaveletSpec) -> np.ndarray:
    """Inverse of dwt_level: the transpose of the orthonormal analysis
    operator, so synthesis reuses the analysis filters."""
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if approx.shape != detail.shape:
        raise ValueError("approx and detail must have equal length")
    n = 2 * approx.shape[0]
    x = np.zeros(n)
    pos = 2 * np.arange(approx.shape[0])
    for k in range(spec.filter_len):
        p = (pos + k) % n
        x[p] += spec.dec_lo[k] * approx + spec.dec_hi[k] * detail
    return x


def _padded_length(n: int, levels: int) -> int:
    block = 1 << levels
    return ((n + block - 1) // block) * block


def wavedec(x: np.ndarray, spec: WaveletSpec) -> list[np.ndarray]:
    """Multilevel decomposition: bands [a_L, d_L, d_{L-1}, ..., d_1].

    The input is zero-padded to a multiple of 2^levels, so the total
    coefficient count equals the padded length. Raises TooManyLevels when the
    unpadded length cannot support the requested depth.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    L = spec.filter_len
    if n < L:
        raise TooShort(f"need at least {L} samples, got {n}")
    if spec.levels > spec.max_levels(n):
        raise TooManyLevels(
            f"{spec.levels} levels need length >= {L * 2 ** (spec.levels - 1)}, got {n}"
        )
    padded = np.zeros(_padded_length(n, spec.levels))
    padded[:n] = x
    details = []
    approx = padded
    for _ in range(spec.levels):
        approx, detail = dwt_level(approx, spec)
        details.append(detail)
    return [approx] + details[::-1]


def waverec(bands: list[np.ndarray], spec: WaveletSpec) -> np.ndarray:
    """Inverse of wavedec; returns the padded-length signal."""
    if len(bands) != spec.levels + 1:
        raise ValueError(f"expected {spec.levels + 1} bands, got {len(bands)}")
    approx = np.asarray(bands[0], dtype=np.float64)
    for detail in bands[1:]:
        approx = idwt_level(approx, detail, spec)
    return approx


def band_names(levels: int) -> list[str]:
    return [f"a{levels}"] + [f"d{j}" for j in range(levels, 0, -1)]


def wavelet_features(x, spec: WaveletSpec | None = None) -> tuple[np.ndarray, list[str]]:
    """Per-band [log(1e-12 + energy), mean |coef|, std of coefs] feature vector.

    D = 3 * (levels + 1); schema names follow dwt_<band>_<stat> with bands
    a{L}, d{L} .. d{1} and stats loge, absmean, std, over a sample array.
    """
    spec = spec or WaveletSpec()
    bands = wavedec(x, spec)
    values = []
    schema = []
    for name, coefs in zip(band_names(spec.levels), bands):
        energy = float(np.sum(coefs ** 2))
        values.extend([np.log(1e-12 + energy), float(np.mean(np.abs(coefs))), float(np.std(coefs))])
        schema.extend([f"dwt_{name}_loge", f"dwt_{name}_absmean", f"dwt_{name}_std"])
    return np.array(values), schema
