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
    clip,
    stft_cfg: StftConfig | None = None,
    mel_cfg: MelConfig | None = None,
    fb: np.ndarray | None = None,
) -> np.ndarray:
    """Framewise MFCC matrix (frames, n_mfcc) of an AudioClip, for sequence
    models; `fb` is passed on to mfcc."""
    return mfcc(clip.samples, stft_cfg, mel_cfg, rate=clip.sample_rate_hz, fb=fb)


def extract(
    clip,
    modes,
    cepstra: np.ndarray | None = None,
    stft_cfg: StftConfig | None = None,
    wavelet_spec: WaveletSpec | None = None,
) -> dict[str, tuple[np.ndarray, list[str]]]:
    """{mode: (fixed-length feature vector, column schema)} of an AudioClip
    for every mode in `modes`.

    mfcc     -> 40 time-averaged cepstra + mean zcr + mean rms      (D = 42)
    wavelet  -> 3 stats per subband over 5 levels + zcr + rms       (D = 20)
    combined -> the mfcc row, then the wavelet row without zcr/rms  (D = 60)

    `cepstra` is the clip's mfcc_sequence matrix on the `stft_cfg` frame
    grid. The mfcc and combined modes need it and use its frame means, so
    no MFCC is computed here. The zcr/rms means are taken over the same
    grid, and the modes share one zcr/rms pass and one wavelet analysis.
    """
    wanted = set(modes)
    if not wanted or not wanted <= set(MODES):
        raise ValueError(f"feature modes must be a non-empty selection of {MODES}, got {modes!r}")
    stft_cfg = stft_cfg or StftConfig()
    frames = frame_signal(clip.samples, stft_cfg.n_fft, stft_cfg.hop)
    scalars = np.array([np.mean(zcr(frames)), np.mean(rms(frames))])
    rows = {}
    if wanted & {"mfcc", "combined"}:
        if cepstra is None or len(cepstra) != len(frames):
            raise ValueError("the mfcc and combined modes need the clip's cepstra on its frame grid")
        values, names = mfcc_summary(cepstra)
        rows["mfcc"] = (np.concatenate([values, scalars]), names + ["zcr", "rms"])
    if wanted & {"wavelet", "combined"}:
        values, names = wavelet_features(clip.samples, wavelet_spec or WaveletSpec())
        rows["wavelet"] = (np.concatenate([values, scalars]), names + ["zcr", "rms"])
        if "combined" in wanted:
            row, schema = rows["mfcc"]
            rows["combined"] = (np.concatenate([row, values]), schema + names)
    return {m: rows[m] for m in modes}
