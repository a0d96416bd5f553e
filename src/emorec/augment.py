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

from .audio_io import AudioClip, ClipRecord, crop_or_pad, resample_ratio
from .dsp.fourier import StftConfig, fft, stft, window
from .errors import ClipTooShort
from .rng import bulk_normal, derive_seed

DEFAULT_NOISE_RATE = 0.035
DEFAULT_STRETCH_RATES = (0.8, 1.2)
DEFAULT_PITCH_SEMITONES = (-2.0, 2.0)

VOCODER_CFG = StftConfig(n_fft=1024, hop=256, window="hann")


@dataclass(frozen=True)
class AugmentPlan:
    """Which transforms to apply when expanding a manifest.

    noise_rate is a fraction of the clip's peak, at most 1. noise_rate 0,
    empty stretch_rates, and empty pitch_semitones disable the corresponding
    transform.
    """

    noise_rate: float = DEFAULT_NOISE_RATE
    stretch_rates: tuple[float, ...] = DEFAULT_STRETCH_RATES
    pitch_semitones: tuple[float, ...] = DEFAULT_PITCH_SEMITONES
    seed: int = 0

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
    if rate == 0.0:
        return AudioClip(x.copy(), clip.sample_rate_hz)
    g = bulk_normal(seed, x.shape[0])
    return AudioClip(x + rate * np.max(np.abs(x)) * g, clip.sample_rate_hz)


def _phase_vocoder(x: np.ndarray, rate: float) -> np.ndarray:
    """Change duration by 1/rate at constant pitch.

    Frame magnitudes are linearly reinterpolated onto an analysis grid walked
    at `rate` steps per synthesis hop while phase advances accumulate from
    each bin's deviation around its expected per-hop rotation. Frames are
    resynthesized by inverse FFT and overlap-add with squared-window
    normalization, then trimmed/padded to round(len/rate).
    """
    n = x.shape[0]
    if n < VOCODER_CFG.n_fft:
        raise ClipTooShort(f"need at least {VOCODER_CFG.n_fft} samples, got {n}")
    spec = stft(x, VOCODER_CFG)  # (bins, T)
    bins = spec.shape[0]
    omega = 2.0 * np.pi * VOCODER_CFG.hop * np.arange(bins) / VOCODER_CFG.n_fft
    if spec.shape[1] < 2:
        # duplicate the lone frame with its expected phase advance so the
        # interpolation grid below always has a right neighbor
        spec = np.stack([spec[:, 0], spec[:, 0] * np.exp(1j * omega)], axis=1)
    mags = np.abs(spec)
    phases = np.angle(spec)
    frames = spec.shape[1]

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

    # overlap-add; bincount sums each output sample's frames in frame order
    s_count = rebuilt.shape[0]
    pos = (VOCODER_CFG.hop * np.arange(s_count)[:, None] + np.arange(VOCODER_CFG.n_fft)).ravel()
    y = np.bincount(pos, weights=rebuilt.ravel())
    norm = np.bincount(pos, weights=np.tile(w * w, s_count))
    y /= np.maximum(norm, 1e-12)

    return crop_or_pad(y, int(round(n / rate)))


def time_stretch(clip: AudioClip, rate: float) -> AudioClip:
    """Scale duration by 1/rate (rate > 1 plays faster) at constant pitch."""
    if not 0.5 <= rate <= 2.0:
        raise ValueError(f"stretch rate {rate} outside [0.5, 2.0]")
    return AudioClip(_phase_vocoder(clip.samples, rate), clip.sample_rate_hz)


def pitch_shift(clip: AudioClip, semitones: float) -> AudioClip:
    """Scale a tone's frequency by 2^(semitones/12) at constant duration:
    stretch time by that factor, then resample the slack away."""
    if not -12.0 <= semitones <= 12.0:
        raise ValueError(f"pitch shift {semitones} outside [-12, 12] semitones")
    if semitones == 0.0:
        return AudioClip(clip.samples.copy(), clip.sample_rate_hz)
    factor = 2.0 ** (semitones / 12.0)
    stretched = _phase_vocoder(clip.samples, 1.0 / factor)
    shifted = resample_ratio(stretched, 1.0 / factor)
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


def realize(clip: AudioClip, provenance: str) -> AudioClip:
    """Apply the transform encoded in a provenance tag to its decoded source."""
    if provenance == "original":
        return AudioClip(clip.samples.copy(), clip.sample_rate_hz)
    m = _NOISE_RE.match(provenance)
    if m:
        return add_noise(clip, float(m.group(1)), int(m.group(2)))
    m = _STRETCH_RE.match(provenance)
    if m:
        return time_stretch(clip, float(m.group(1)))
    m = _PITCH_RE.match(provenance)
    if m:
        return pitch_shift(clip, float(m.group(1)))
    raise ValueError(f"unparseable provenance tag: {provenance!r}")
