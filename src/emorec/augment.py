"""Label-preserving audio augmentation: noise injection, phase-vocoder time
stretching, and pitch shifting.

All three transforms are deterministic. Noise realizations come from the
package's documented counter-mode generator, seeded per record, so results
do not depend on processing order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip, ClipRecord, FrontEndMemo, crop_or_pad, resample_ratio
from .dsp.fourier import StftConfig, fft, stft, window
from .errors import ClipTooShort
from .rng import bulk_normal, derive_seed

VOCODER_CFG = StftConfig(n_fft=1024, hop=256, window="hann")


@dataclass(frozen=True)
class AugmentPlan:
    """Which transforms to apply when expanding a manifest.

    noise_rate is a fraction of the clip's peak, at most 1. noise_rate 0,
    empty stretch_rates, and empty pitch_semitones disable the corresponding
    transform.
    """

    noise_rate: float
    stretch_rates: tuple[float, ...]
    pitch_semitones: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if not 0 <= self.noise_rate <= 1:
            raise ValueError(f"noise_rate {self.noise_rate} outside [0, 1]")
        for r in self.stretch_rates:
            if not 0.5 <= r <= 2.0:
                raise ValueError(f"stretch rate {r} outside [0.5, 2.0]")
        for s in self.pitch_semitones:
            if not -12.0 <= s <= 12.0:
                raise ValueError(f"pitch shift {s} outside [-12, 12] semitones")


def add_noise(clip: AudioClip, rate: float, seed: int) -> AudioClip:
    """x + rate * max|x| * g with g i.i.d. standard normal from `seed`."""
    if rate < 0:
        raise ValueError("noise rate must be >= 0")
    x = clip.samples
    g = bulk_normal(seed, x.shape[0])
    return AudioClip(x + rate * np.max(np.abs(x)) * g, clip.sample_rate_hz)


def _analyse(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (magnitudes, phases), shape (bins, T >= 2), of x's vocoder
    STFT. A lone frame is followed by a copy advanced by each bin's expected
    per-hop rotation, so the interpolation grid always has a right neighbor."""
    spec = stft(x, VOCODER_CFG)  # (bins, T)
    if spec.shape[1] < 2:
        spec = np.stack([spec[:, 0], spec[:, 0] * np.exp(1j * _omega(spec.shape[0]))], axis=1)
    mags, phases = np.abs(spec), np.angle(spec)
    mags.flags.writeable = phases.flags.writeable = False
    return mags, phases


def _omega(bins: int) -> np.ndarray:
    """Each bin's expected phase advance over one hop."""
    return 2.0 * np.pi * VOCODER_CFG.hop * np.arange(bins) / VOCODER_CFG.n_fft


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum of (S, L) frames placed hop apart, for L a multiple of hop. The
    hop-long pieces go in decreasing offset order, so each output sample
    adds its frames in frame order, bit for bit as a bincount over the
    frames' positions would."""
    s_count, length = frames.shape
    y = np.zeros(hop * (s_count - 1) + length)
    for offset in range(length - hop, -1, -hop):
        piece = y[offset : offset + s_count * hop].reshape(s_count, hop)
        piece += frames[:, offset : offset + hop]
    return y


def _phase_vocoder(x: np.ndarray, rate: float, memo: FrontEndMemo | None = None) -> np.ndarray:
    """Change duration by 1/rate at constant pitch.

    Frame magnitudes are linearly reinterpolated onto an analysis grid walked
    at `rate` steps per synthesis hop while phase advances accumulate from
    each bin's deviation around its expected per-hop rotation. Frames are
    resynthesized by inverse FFT and overlap-add with squared-window
    normalization, then trimmed/padded to round(len/rate). The analysis of
    x comes from `memo` when given, so every variant of one source shares it.
    """
    n = x.shape[0]
    if n < VOCODER_CFG.n_fft:
        raise ClipTooShort(f"need at least {VOCODER_CFG.n_fft} samples, got {n}")
    mags, phases = memo.analysis(x, _analyse) if memo is not None else _analyse(x)
    bins, frames = mags.shape
    omega = _omega(bins)

    steps = np.arange(int(np.floor((frames - 1) / rate)) + 1) * rate
    k = np.minimum(steps.astype(np.intp), frames - 2)
    frac = steps - k
    mag = (1.0 - frac) * mags[:, k] + frac * mags[:, k + 1]

    dphi = phases[:, k + 1] - phases[:, k] - omega[:, None]
    dphi -= 2.0 * np.pi * np.round(dphi / (2.0 * np.pi))
    advance = omega[:, None] + dphi
    phase = phases[:, [0]] + np.concatenate(
        [np.zeros((bins, 1)), np.cumsum(advance[:, :-1], axis=1)], axis=1
    )

    half = mag * np.exp(1j * phase)  # (bins, S)
    full = np.concatenate([half, np.conj(half[-2:0:-1, :])], axis=0)
    rebuilt = fft(full.T, inverse=True).real  # (S, n_fft)
    w = window(VOCODER_CFG.window, VOCODER_CFG.n_fft)
    rebuilt *= w

    y = _overlap_add(rebuilt, VOCODER_CFG.hop)
    norm = _overlap_add(np.broadcast_to(w * w, rebuilt.shape), VOCODER_CFG.hop)
    y /= np.maximum(norm, 1e-12)

    return crop_or_pad(y, int(round(n / rate)))


def time_stretch(clip: AudioClip, rate: float, memo: FrontEndMemo | None = None) -> AudioClip:
    """Scale duration by 1/rate (rate > 1 plays faster) at constant pitch."""
    if not 0.5 <= rate <= 2.0:
        raise ValueError(f"stretch rate {rate} outside [0.5, 2.0]")
    return AudioClip(_phase_vocoder(clip.samples, rate, memo), clip.sample_rate_hz)


def pitch_shift(clip: AudioClip, semitones: float, memo: FrontEndMemo | None = None) -> AudioClip:
    """Scale a tone's frequency by 2^(semitones/12) at constant duration:
    stretch time by that factor, then resample the slack away."""
    if not -12.0 <= semitones <= 12.0:
        raise ValueError(f"pitch shift {semitones} outside [-12, 12] semitones")
    if semitones == 0.0:
        return AudioClip(clip.samples.copy(), clip.sample_rate_hz)
    factor = 2.0 ** (semitones / 12.0)
    stretched = _phase_vocoder(clip.samples, 1.0 / factor, memo)
    shifted = resample_ratio(stretched, 1.0 / factor, memo)
    return AudioClip(crop_or_pad(shifted, clip.samples.shape[0]), clip.sample_rate_hz)


# --------------------------------------------------------------------------
# Manifest expansion and provenance tags
# --------------------------------------------------------------------------

_NOISE_RE = re.compile(r"^noise\(rate=([^,]+),seed=(\d+)\)$")
_STRETCH_RE = re.compile(r"^stretch\(rate=([^)]+)\)$")
_PITCH_RE = re.compile(r"^pitch\(semitones=([^)]+)\)$")


def expand(records: list[ClipRecord], plan: AugmentPlan) -> list[ClipRecord]:
    """Every original plus one record per (original x enabled transform).

    Augmented records keep the source path, dataset, emotion, and speaker;
    only provenance differs. The noise seed is derived from (plan.seed,
    original index) and baked into the tag, so rendering is order-independent.
    """
    if not records:
        raise ValueError("expand needs a non-empty record list")
    out = []
    for i, rec in enumerate(records):
        if rec.provenance != "original":
            raise ValueError(f"expand consumes originals only, got {rec.provenance!r}")
        out.append(rec)
        variants = []
        if plan.noise_rate > 0:
            seed = derive_seed(plan.seed, i)
            variants.append(f"noise(rate={plan.noise_rate!r},seed={seed})")
        variants.extend(f"stretch(rate={r!r})" for r in plan.stretch_rates)
        variants.extend(f"pitch(semitones={s!r})" for s in plan.pitch_semitones)
        for tag in variants:
            out.append(ClipRecord(rec.path, rec.dataset, rec.emotion, rec.speaker, tag))
    return out


def realize(clip: AudioClip, provenance: str, memo: FrontEndMemo | None = None) -> AudioClip:
    """Apply the transform encoded in a provenance tag to its decoded source;
    the vocoder and pitch resampler reuse what `memo` holds, when given."""
    if provenance == "original":
        return AudioClip(clip.samples.copy(), clip.sample_rate_hz)
    m = _NOISE_RE.match(provenance)
    if m:
        return add_noise(clip, float(m.group(1)), int(m.group(2)))
    m = _STRETCH_RE.match(provenance)
    if m:
        return time_stretch(clip, float(m.group(1)), memo)
    m = _PITCH_RE.match(provenance)
    if m:
        return pitch_shift(clip, float(m.group(1)), memo)
    raise ValueError(f"unparseable provenance tag: {provenance!r}")
