"""Mel filterbank and MFCC extraction.

Pipeline per frame: power spectrum |STFT|^2 -> triangular mel filterbank ->
natural log with an energy floor -> orthonormal DCT-II -> first n_mfcc
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateFilter
from .fourier import StftConfig, stft


def hz_to_mel(f):
    """m = 2595 log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelConfig:
    n_mels: int = 40
    fmin_hz: float = 0.0
    fmax_hz: float = 8000.0
    n_mfcc: int = 40
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.n_mels < 1:
            raise ValueError("n_mels must be positive")
        if not 0 <= self.fmin_hz < self.fmax_hz:
            raise ValueError("need 0 <= fmin < fmax")
        if not 1 <= self.n_mfcc <= self.n_mels:
            raise ValueError("need 1 <= n_mfcc <= n_mels")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")


def mel_filter_centers_hz(cfg: MelConfig) -> np.ndarray:
    """n_mels + 2 band edges, equispaced on the mel axis between fmin and fmax."""
    mels = np.linspace(hz_to_mel(cfg.fmin_hz), hz_to_mel(cfg.fmax_hz), cfg.n_mels + 2)
    return mel_to_hz(mels)


def mel_filterbank(cfg: MelConfig, n_fft: int, rate: int) -> np.ndarray:
    """Triangular filter weights, shape (n_mels, n_fft/2 + 1).

    Filter m rises linearly from edge m-1 to its center (edge m) and falls to
    edge m+1, evaluated at the FFT bin frequencies k * rate / n_fft. Raises
    DegenerateFilter if any filter ends up with no positive weight, which
    happens when adjacent centers collapse onto the same bin. Two cases are
    caught before the matrix is built: band edges that collapse outright, and
    more filters than twice the bins (filters 0, 2, 4, ... cover disjoint
    bands, so each needs a bin of its own).
    """
    if cfg.fmax_hz > rate / 2:
        raise ValueError("fmax above Nyquist")
    n_bins = n_fft // 2 + 1
    if cfg.n_mels > 2 * n_bins:
        raise DegenerateFilter(
            f"{cfg.n_mels} mel filters need at least {(cfg.n_mels + 1) // 2} bins, "
            f"n_fft={n_fft} has {n_bins}"
        )
    edges = mel_filter_centers_hz(cfg)
    if np.any(np.diff(edges) <= 0.0):
        raise DegenerateFilter(f"mel band edges collapse between {cfg.fmin_hz} and {cfg.fmax_hz} Hz")
    bin_hz = np.arange(n_bins) * (rate / n_fft)
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_hz[None, :] - lo) / (mid - lo)
    falling = (hi - bin_hz[None, :]) / (hi - mid)
    fb = np.maximum(0.0, np.minimum(rising, falling))
    if np.any(fb.max(axis=1) <= 0.0):
        dead = int(np.argmax(fb.max(axis=1) <= 0.0))
        raise DegenerateFilter(
            f"mel filter {dead} has no positive weight at n_fft={n_fft}, rate={rate}"
        )
    return fb


_dct_cache: dict[tuple[int, int], np.ndarray] = {}


def dct_ii(x: np.ndarray, n_out: int) -> np.ndarray:
    """Orthonormal DCT-II along the last axis, truncated to n_out coefficients.

    c[k] = a(k) sum_n x[n] cos(pi (2n+1) k / (2N)), a(0) = sqrt(1/N),
    a(k>0) = sqrt(2/N).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if n_out > n:
        raise ValueError("n_out must not exceed input length")
    key = (n, n_out)
    basis = _dct_cache.get(key)
    if basis is None:
        k = np.arange(n_out)[:, None]
        m = np.arange(n)[None, :]
        basis = np.cos(np.pi * (2 * m + 1) * k / (2 * n))
        alpha = np.full(n_out, np.sqrt(2.0 / n))
        alpha[0] = np.sqrt(1.0 / n)
        basis = alpha[:, None] * basis
        _dct_cache[key] = basis
    return x @ basis.T


def mfcc(
    x,
    stft_cfg: StftConfig | None = None,
    mel_cfg: MelConfig | None = None,
    *,
    rate: int,
    fb: np.ndarray | None = None,
) -> np.ndarray:
    """MFCC matrix of shape (T, n_mfcc) of a sample array at `rate` Hz. `fb`
    is mel_filterbank(mel_cfg, stft_cfg.n_fft, rate), built here when None,
    so a caller running many clips on one grid builds it once."""
    stft_cfg = stft_cfg or StftConfig()
    mel_cfg = mel_cfg or MelConfig()
    spec = stft(x, stft_cfg)
    power = (spec.real ** 2 + spec.imag ** 2).T  # (T, bins)
    if fb is None:
        fb = mel_filterbank(mel_cfg, stft_cfg.n_fft, rate)
    energies = power @ fb.T
    logged = np.log(np.maximum(energies, mel_cfg.log_floor))
    return dct_ii(logged, mel_cfg.n_mfcc)


def mfcc_summary(m: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Per-coefficient mean over frames with its column schema."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1:
        raise ValueError("need a (T, n_mfcc) matrix with T >= 1")
    values = m.mean(axis=0)
    schema = [f"mfcc_{i:02d}" for i in range(m.shape[1])]
    return values, schema
