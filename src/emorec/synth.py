"""Deterministic synthetic speech-like corpus for desk-scale testing.

The real corpora are license-restricted, so each of the 8 classes gets its
own harmonic template: a fundamental, a spectral tilt over six partials, and
an amplitude-modulation rate. Takes within a class vary by seeded phase,
small fundamental jitter, level, and a noise floor — enough that a split
generalizes along class structure, not memorized samples.

Files are written with the hyphen-field naming that scan_dataset_detailed
reads as 'ravdess', so the generated tree drops into any pipeline config.
"""

from __future__ import annotations

import os

import numpy as np

from .audio_io import EMOTIONS, AudioClip, write_wav
from .rng import Xoshiro256StarStar, bulk_normal, derive_seed

N_PARTIALS = 6


def class_template(class_idx: int) -> dict:
    """Per-class acoustic parameters; classes are spaced widely enough that
    take-level jitter never crosses them."""
    if not 0 <= class_idx < len(EMOTIONS):
        raise ValueError(f"class index {class_idx} out of range")
    return {
        "f0_hz": 140.0 + 42.0 * class_idx,
        "tilt": 0.25 + 0.09 * class_idx,
        "am_hz": 1.0 + 0.7 * class_idx,
        "am_depth": 0.45,
    }


def synth_clip(
    class_idx: int,
    take: int,
    seed: int = 0,
    rate: int = 16000,
    seconds: float = 3.0,
) -> AudioClip:
    """One deterministic take of the class template."""
    tpl = class_template(class_idx)
    take_seed = derive_seed(seed, class_idx, take)
    rng = Xoshiro256StarStar(take_seed)
    f0 = tpl["f0_hz"] * (1.0 + 0.03 * (2.0 * rng.random() - 1.0))
    level = 0.5 + 0.3 * rng.random()
    am_phase = 2.0 * np.pi * rng.random()

    n = int(round(rate * seconds))
    t = np.arange(n) / rate
    x = np.zeros(n)
    for h in range(1, N_PARTIALS + 1):
        phase = 2.0 * np.pi * rng.random()
        x += (tpl["tilt"] ** (h - 1)) * np.sin(2.0 * np.pi * f0 * h * t + phase)
    x *= 1.0 + tpl["am_depth"] * np.sin(2.0 * np.pi * tpl["am_hz"] * t + am_phase)
    x *= level / np.max(np.abs(x))
    x += 0.008 * bulk_normal(derive_seed(take_seed, 1), n)
    return AudioClip(x, rate)


def generate_corpus(
    root,
    clips_per_class: int = 20,
    seconds: float = 3.0,
    rate: int = 16000,
    seed: int = 0,
) -> list[str]:
    """Write clips_per_class takes for each of the 8 classes under root.

    Returns the written paths (sorted). Filenames follow the hyphen-field
    convention with the emotion in the third field, so scanning the tree as
    'ravdess' recovers the intended labels.
    """
    os.makedirs(root, exist_ok=True)
    paths = []
    for class_idx in range(len(EMOTIONS)):
        for take in range(1, clips_per_class + 1):
            clip = synth_clip(class_idx, take, seed=seed, rate=rate, seconds=seconds)
            actor = (take - 1) % 24 + 1
            name = f"03-01-{class_idx + 1:02d}-01-01-{take:02d}-{actor:02d}.wav"
            path = os.path.join(root, name)
            write_wav(path, clip)
            paths.append(path)
    return sorted(paths)
