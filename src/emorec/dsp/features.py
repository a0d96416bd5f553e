"""Clip-level feature extraction: MFCC summaries, wavelet statistics, and
the framewise envelope descriptors (zero-crossing rate, RMS energy)."""

from __future__ import annotations

import numpy as np

from .fourier import StftConfig, frame_signal
from .mel import MelConfig, mfcc, mfcc_summary
from .wavelet import WaveletSpec, wavelet_features

MODES = ("mfcc", "wavelet", "combined")


def zcr(frames) -> np.ndarray:
    """Zero-crossing rate of each frame of a (T, L) batch: the fraction of
    adjacent sample pairs with differing sign, sign(0) counted as +."""
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("zcr needs a (T, L) frame batch with L >= 2")
    signs = np.where(x >= 0.0, 1.0, -1.0)
    return np.mean(signs[:, 1:] != signs[:, :-1], axis=1)


def rms(frames) -> np.ndarray:
    """Root-mean-square energy of each frame of a (T, L) batch."""
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("rms needs a (T, L) frame batch with L >= 1")
    return np.sqrt(np.mean(x ** 2, axis=1))


def mfcc_sequence(
    clip, stft_cfg: StftConfig | None = None, mel_cfg: MelConfig | None = None
) -> np.ndarray:
    """Framewise MFCC matrix (frames, n_mfcc) of an AudioClip, for sequence models."""
    return mfcc(clip.samples, stft_cfg, mel_cfg, rate=clip.sample_rate_hz)


def extract(
    clip,
    mode: str = "mfcc",
    stft_cfg: StftConfig | None = None,
    mel_cfg: MelConfig | None = None,
    wavelet_spec: WaveletSpec | None = None,
) -> tuple[np.ndarray, list[str]]:
    """Fixed-length feature vector plus its column schema for an AudioClip.

    mfcc     -> 40 time-averaged cepstra + mean zcr + mean rms      (D = 42)
    wavelet  -> 3 stats per subband over 5 levels + zcr + rms       (D = 20)
    combined -> union of the two schemas, scalars included once     (D = 60)

    The zcr/rms means are taken over the same frame grid as the STFT. The
    clip's samples and rate are unwrapped here, once; the kernels below take
    sample arrays.
    """
    if mode not in MODES:
        raise ValueError(f"unknown feature mode {mode!r}; expected one of {MODES}")
    stft_cfg = stft_cfg or StftConfig()
    mel_cfg = mel_cfg or MelConfig()
    wavelet_spec = wavelet_spec or WaveletSpec()
    samples = clip.samples

    frames = frame_signal(samples, stft_cfg.n_fft, stft_cfg.hop)
    scalars = np.array([np.mean(zcr(frames)), np.mean(rms(frames))])

    parts: list[np.ndarray] = []
    schema: list[str] = []
    if mode in ("mfcc", "combined"):
        values, names = mfcc_summary(mfcc(samples, stft_cfg, mel_cfg, rate=clip.sample_rate_hz))
        parts.append(values)
        schema.extend(names)
        parts.append(scalars)
        schema.extend(["zcr", "rms"])
    if mode in ("wavelet", "combined"):
        values, names = wavelet_features(samples, wavelet_spec)
        parts.append(values)
        schema.extend(names)
        if mode == "wavelet":
            parts.append(scalars)
            schema.extend(["zcr", "rms"])
    return np.concatenate(parts), schema
