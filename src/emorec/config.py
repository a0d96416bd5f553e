"""Experiment configuration: a flat `key = value` text format with a closed
key set (unknown keys are fatal, protecting replayability).

Grammar: one `key = value` pair per line; blank lines and lines starting
with '#' are ignored; values never span lines; list values are
comma-separated; booleans are `true`/`false`. The full key table lives in
the README.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .audio_io import MAX_WAV_SAMPLES
from .augment import VOCODER_CFG, AugmentPlan
from .dataset import SplitSpec
from .dsp.features import MODES
from .dsp.fourier import StftConfig
from .dsp.mel import MelConfig, mel_filterbank
from .dsp.wavelet import WaveletSpec
from .errors import ConfigError, DegenerateFilter

_VALID_MODELS = ("cnn", "lstm")


@dataclass
class ExperimentConfig:
    # corpus roots; empty string disables a corpus
    cremad_root: str = ""
    ravdess_root: str = ""
    savee_root: str = ""
    tess_root: str = ""
    # decoding/normalization
    rate: int = 16000
    clip_seconds: float = 3.0
    # augmentation
    augment: bool = True
    noise_rate: float = 0.035
    stretch_rates: tuple = (0.8, 1.2)
    pitch_semitones: tuple = (-2.0, 2.0)
    # features
    feature_mode: str = "mfcc"
    feature_modes: tuple = ("mfcc", "wavelet", "combined")
    n_fft: int = 1024
    hop: int = 256
    window: str = "hann"
    n_mels: int = 40
    n_mfcc: int = 40
    fmin_hz: float = 0.0
    fmax_hz: float = 8000.0
    log_floor: float = 1e-10
    wavelet_family: str = "db4"
    wavelet_levels: int = 5
    # split
    test_fraction: float = 0.25
    split_shuffle: bool = True
    # model/training
    model: str = "cnn"
    models: tuple = ("cnn", "lstm")
    lstm_units: int = 128
    epochs: int = 50
    batch_size: int = 64
    lr: float = 0.001
    # four independent seed streams
    seed_augment: int = 0
    seed_init: int = 0
    seed_shuffle: int = 0
    seed_dropout: int = 0

    # ---- assembly helpers -------------------------------------------------

    def enabled_corpora(self) -> list[tuple[str, str]]:
        roots = [
            ("cremad", self.cremad_root),
            ("ravdess", self.ravdess_root),
            ("savee", self.savee_root),
            ("tess", self.tess_root),
        ]
        return [(name, root) for name, root in roots if root]

    def stft_cfg(self) -> StftConfig:
        return StftConfig(n_fft=self.n_fft, hop=self.hop, window=self.window)

    def mel_cfg(self) -> MelConfig:
        return MelConfig(
            n_mels=self.n_mels,
            fmin_hz=self.fmin_hz,
            fmax_hz=self.fmax_hz,
            n_mfcc=self.n_mfcc,
            log_floor=self.log_floor,
        )

    def wavelet_spec(self) -> WaveletSpec:
        return WaveletSpec(family=self.wavelet_family, levels=self.wavelet_levels)

    def augment_plan(self) -> AugmentPlan | None:
        if not self.augment:
            return None
        plan = AugmentPlan(
            noise_rate=self.noise_rate,
            stretch_rates=tuple(self.stretch_rates),
            pitch_semitones=tuple(self.pitch_semitones),
            seed=self.seed_augment,
        )
        if plan.noise_rate == 0 and not plan.stretch_rates and not plan.pitch_semitones:
            return None
        return plan

    def split_spec(self) -> SplitSpec:
        return SplitSpec(
            test_fraction=self.test_fraction, seed=self.seed_shuffle, shuffle=self.split_shuffle
        )

    # ---- validation -------------------------------------------------------

    def validate(self) -> None:
        if self.rate <= 0:
            raise ConfigError("rate must be positive")
        if self.clip_seconds <= 0:
            raise ConfigError("clip_seconds must be positive")
        if self.feature_mode not in MODES:
            raise ConfigError(f"feature_mode must be one of {MODES}")
        if not self.feature_modes:
            raise ConfigError("feature_modes needs at least one name")
        for m in self.feature_modes:
            if m not in MODES:
                raise ConfigError(f"feature_modes entry {m!r} not in {MODES}")
        if self.model not in _VALID_MODELS:
            raise ConfigError(f"model must be one of {_VALID_MODELS}")
        if not self.models:
            raise ConfigError("models needs at least one name")
        for m in self.models:
            if m not in _VALID_MODELS:
                raise ConfigError(f"models entry {m!r} not in {_VALID_MODELS}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        try:
            clip_samples = int(round(self.rate * self.clip_seconds))
        except OverflowError as exc:
            raise ConfigError("rate * clip_seconds is too large to represent") from exc
        if clip_samples > MAX_WAV_SAMPLES:
            raise ConfigError(f"rate * clip_seconds exceeds the {MAX_WAV_SAMPLES} samples a WAV holds")
        if self.lstm_units < 1:
            raise ConfigError("lstm_units must be >= 1")
        if clip_samples < self.n_fft:
            raise ConfigError("clip_seconds * rate must hold at least n_fft samples")
        try:
            self.stft_cfg()
            mel_filterbank(self.mel_cfg(), self.n_fft, self.rate)
            wspec = self.wavelet_spec()
            self.split_spec()
            plan = self.augment_plan()
        except (ValueError, DegenerateFilter) as exc:
            raise ConfigError(str(exc)) from exc
        deepest = wspec.max_levels(clip_samples)
        if self.wavelet_levels > deepest:
            raise ConfigError(
                f"wavelet_levels = {self.wavelet_levels} needs clip_seconds * rate >= "
                f"{wspec.filter_len} * 2^(levels - 1); {clip_samples} samples allow {deepest}"
            )
        vocoded = plan is not None and bool(plan.stretch_rates or plan.pitch_semitones)
        if vocoded and clip_samples < VOCODER_CFG.n_fft:
            raise ConfigError(f"stretch and pitch need clip_seconds * rate >= {VOCODER_CFG.n_fft}")
        if not self.enabled_corpora():
            raise ConfigError("no corpus root configured (set e.g. ravdess_root)")
        for name, root in self.enabled_corpora():
            if not os.path.isdir(root):
                raise ConfigError(f"{name}_root does not exist: {root}")

    def resolved_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                text = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
            elif isinstance(v, bool):
                text = "true" if v else "false"
            elif isinstance(v, float):
                text = repr(v)
            else:
                text = str(v)
            lines.append(f"{f.name} = {text}")
        return "\n".join(lines) + "\n"


def _parse_scalar(raw: str, kind: type):
    if kind is bool:
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ValueError(raw)
    if kind is float and not math.isfinite(float(raw)):
        raise ValueError(raw)
    return kind(raw)


def _parse_value(key: str, raw: str, default):
    """`raw` parsed with the type of the field's default; list elements take
    the type of the default's elements."""
    try:
        if not isinstance(default, tuple):
            return _parse_scalar(raw, type(default))
        if raw.strip().lower() in ("", "none"):
            return ()
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        return tuple(_parse_scalar(p, type(default[0])) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config_text(text: str) -> ExperimentConfig:
    """The config `text` describes; a key set twice takes its last value."""
    cfg = ExperimentConfig()
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in defaults:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        setattr(cfg, key, _parse_value(key, raw, defaults[key]))
    return cfg


def load_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse a config file with key=value overrides appended to its lines,
    so an override wins over the file's value for the same key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    extra = [f"{k} = {v}" for k, v in (overrides or {}).items()]
    return parse_config_text("\n".join([text, *extra]))
