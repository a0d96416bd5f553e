"""Framing, windows, power-of-two FFT, and the short-time Fourier transform.

`fft` is numpy's FFT behind the package's power-of-two length contract;
`stft` runs numpy's real-input FFT over the whole windowed frame batch in one
call. Both are verified in the test suite against a naive O(N^2) DFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NonPowerOfTwoLength

def as_samples(x) -> np.ndarray:
    """Accept a raw sample sequence or any clip object with a .samples field."""
    if hasattr(x, "samples"):
        x = x.samples
    return np.asarray(x, dtype=np.float64)


def rate_of(x, rate=None) -> int:
    """Sample rate from an explicit argument or the clip's own field."""
    if rate is None and hasattr(x, "sample_rate_hz"):
        rate = x.sample_rate_hz
    if rate is None:
        raise ValueError("a sample rate is required when passing raw samples")
    return int(rate)


def fft(z: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Complex FFT along the last axis (numpy.fft), for power-of-two lengths.

    Forward: Z[k] = sum_n z[n] exp(-2i pi k n / N). Inverse applies the
    conjugate transform scaled by 1/N, so fft(fft(z), inverse=True) == z.
    Accepts a 1-D sequence or a batch with the transform axis last.

    Raises NonPowerOfTwoLength unless N is a power of two.
    """
    a = np.asarray(z, dtype=np.complex128)
    n = a.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise NonPowerOfTwoLength(f"FFT length must be a power of two, got {n}")
    return np.fft.ifft(a) if inverse else np.fft.fft(a)


def frame_signal(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Slice x into overlapping frames, shape (T, frame_len).

    T = floor((len - frame_len) / hop) + 1 when len >= frame_len; a shorter
    signal yields a single zero-padded frame. Samples past the last full
    frame are dropped. Full frames are a read-only view of x, not a copy.
    """
    if frame_len < 1 or hop < 1:
        raise ValueError("frame_len and hop must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < frame_len:
        frame = np.zeros(frame_len)
        frame[:n] = x
        return frame[None, :]
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]


def window(kind: str, n: int) -> np.ndarray:
    """Periodic analysis window of length n (kind: hann or hamming)."""
    t = 2.0 * np.pi * np.arange(n) / n
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(t)
    if kind == "hamming":
        return 0.54 - 0.46 * np.cos(t)
    raise ValueError(f"unknown window {kind!r}")


@dataclass(frozen=True)
class StftConfig:
    """Short-time analysis grid: n_fft must be a power of two, hop <= n_fft."""

    n_fft: int = 1024
    hop: int = 256
    window: str = "hann"

    def __post_init__(self):
        if self.n_fft < 2 or (self.n_fft & (self.n_fft - 1)) != 0:
            raise ValueError("n_fft must be a power of two")
        if not 1 <= self.hop <= self.n_fft:
            raise ValueError("hop must satisfy 1 <= hop <= n_fft")
        if self.window not in ("hann", "hamming"):
            raise ValueError("window must be hann or hamming")


def stft(clip, cfg: StftConfig | None = None) -> np.ndarray:
    """Complex STFT matrix of shape (n_fft/2 + 1, T); column t is the
    windowed FFT of frame t, bins 0..n_fft/2. Accepts a clip or raw samples."""
    cfg = cfg or StftConfig()
    frames = frame_signal(as_samples(clip), cfg.n_fft, cfg.hop)
    w = window(cfg.window, cfg.n_fft)
    return np.fft.rfft(frames * w, axis=1).T
