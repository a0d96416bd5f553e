"""Clip-level feature extraction: MFCC summaries, wavelet statistics, and
the framewise envelope descriptors (zero-crossing rate, RMS energy)."""

from __future__ import annotations

import numpy as np

from .fourier import StftConfig, as_samples, frame_signal
from .mel import MelConfig, mfcc, mfcc_summary
from .wavelet import WaveletSpec, wavelet_features

MODES = ("mfcc", "wavelet", "combined")


def zcr(frames) -> np.ndarray | float:
    """Zero-crossing rate per frame: fraction of adjacent sample pairs with
    differing sign, sign(0) counted as +. A 1-D input is one frame and yields
    a scalar; a (T, L) batch yields a length-T vector."""
    x = np.asarray(frames, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] < 2:
        raise ValueError("zcr needs frames of length >= 2")
    signs = np.where(x >= 0.0, 1.0, -1.0)
    rates = np.mean(signs[:, 1:] != signs[:, :-1], axis=1)
    return float(rates[0]) if single else rates


def rms(frames) -> np.ndarray | float:
    """Root-mean-square energy per frame; scalar for a single 1-D frame."""
    x = np.asarray(frames, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] < 1:
        raise ValueError("rms needs frames of length >= 1")
    values = np.sqrt(np.mean(x ** 2, axis=1))
    return float(values[0]) if single else values


def mfcc_sequence(
    clip, stft_cfg: StftConfig | None = None, mel_cfg: MelConfig | None = None
) -> np.ndarray:
    """Framewise MFCC matrix (frames, n_mfcc) of an AudioClip, for sequence models."""
    return mfcc(clip, stft_cfg, mel_cfg)


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

    The zcr/rms means are taken over the same frame grid as the STFT.
    """
    if mode not in MODES:
        raise ValueError(f"unknown feature mode {mode!r}; expected one of {MODES}")
    stft_cfg = stft_cfg or StftConfig()
    mel_cfg = mel_cfg or MelConfig()
    wavelet_spec = wavelet_spec or WaveletSpec()
    samples = as_samples(clip)

    frames = frame_signal(samples, stft_cfg.n_fft, stft_cfg.hop)
    scalars = np.array([np.mean(zcr(frames)), np.mean(rms(frames))])

    parts: list[np.ndarray] = []
    schema: list[str] = []
    if mode in ("mfcc", "combined"):
        values, names = mfcc_summary(mfcc(clip, stft_cfg, mel_cfg))
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
