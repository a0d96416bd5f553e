"""WAV decoding, resampling, and corpus scanning.

Every pipeline stage consumes AudioClip: mono float64 samples in [-1, 1]
plus a sample rate. Corpus directories are scanned into ClipRecord lists
using each collection's published filename convention; labels land in one
canonical 8-emotion set.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .artifacts import read_csv, write_csv
from .errors import (
    EmptyAudio,
    EmptyScan,
    MalformedContainer,
    UnknownLabelCode,
    UnsupportedEncoding,
)

# Canonical label order. Index positions are load-bearing: one-hot columns,
# confusion-matrix axes, and histogram rows all follow this order.
EMOTIONS = ("neutral", "calm", "happy", "sad", "angry", "fear", "disgust", "surprise")
EMOTION_INDEX = {name: i for i, name in enumerate(EMOTIONS)}

DATASETS = ("cremad", "ravdess", "savee", "tess")

PIPELINE_RATE_HZ = 16000
CLIP_SECONDS = 3.0


@dataclass
class AudioClip:
    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")


@dataclass(frozen=True)
class ClipRecord:
    path: str
    dataset: str
    emotion: str
    speaker: str = ""
    provenance: str = "original"

    def __post_init__(self):
        if self.emotion not in EMOTION_INDEX:
            raise UnknownLabelCode(f"not a canonical emotion: {self.emotion!r}")


# --------------------------------------------------------------------------
# WAV container
# --------------------------------------------------------------------------

_PCM = 1
_IEEE_FLOAT = 3
_EXTENSIBLE = 0xFFFE
# WAVE_FORMAT_EXTENSIBLE names its encoding with a subformat GUID at fmt
# bytes 24..40: the two-byte format code, then this fixed tail
_SUBFORMAT_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def read_wav(path) -> AudioClip:
    """Decode a RIFF/WAVE file: PCM 8/16/24/32-bit or IEEE float-32, mono or
    stereo (stereo is mean-mixed). Integer samples are scaled by 1/2^(bits-1).
    A WAVE_FORMAT_EXTENSIBLE header decodes as its PCM or float subformat.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise MalformedContainer(f"not a RIFF/WAVE file: {path}")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise MalformedContainer(
                f"chunk {chunk_id!r} declares {size} bytes but only {len(body)} remain: {path}"
            )
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
            break
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data is None:
        raise MalformedContainer(f"missing fmt/data chunk: {path}")
    if len(fmt) < 16:
        raise MalformedContainer(f"fmt chunk too short ({len(fmt)} bytes): {path}")

    audio_format, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt, 0
    )
    if audio_format == _EXTENSIBLE and len(fmt) >= 40 and fmt[26:40] == _SUBFORMAT_TAIL:
        (audio_format,) = struct.unpack_from("<H", fmt, 24)
    if audio_format not in (_PCM, _IEEE_FLOAT):
        raise UnsupportedEncoding(f"unsupported format tag {audio_format}: {path}")
    if channels not in (1, 2):
        raise UnsupportedEncoding(f"unsupported channel count {channels}: {path}")
    if rate <= 0:
        raise MalformedContainer(f"nonpositive sample rate in header: {path}")

    if audio_format == _IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedEncoding(f"float WAV must be 32-bit, got {bits}: {path}")
        raw = np.frombuffer(data[: len(data) - len(data) % 4], dtype="<f4")
        if not np.all(np.isfinite(raw)):
            raise MalformedContainer(f"non-finite float samples: {path}")
        x = raw.astype(np.float64)
    elif bits == 8:
        x = (np.frombuffer(data, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    elif bits == 16:
        raw = np.frombuffer(data[: len(data) - len(data) % 2], dtype="<i2")
        x = raw.astype(np.float64) / 32768.0
    elif bits == 24:
        usable = len(data) - len(data) % 3
        b = np.frombuffer(data[:usable], dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        v = np.where(v >= 1 << 23, v - (1 << 24), v)
        x = v.astype(np.float64) / float(1 << 23)
    elif bits == 32:
        raw = np.frombuffer(data[: len(data) - len(data) % 4], dtype="<i4")
        x = raw.astype(np.float64) / float(1 << 31)
    else:
        raise UnsupportedEncoding(f"unsupported bit depth {bits}: {path}")

    if channels == 2:
        x = x[: x.shape[0] - x.shape[0] % 2].reshape(-1, 2).mean(axis=1)
    if x.shape[0] == 0:
        raise EmptyAudio(f"zero audio frames: {path}")
    return AudioClip(x, int(rate))


def write_wav(path, clip: AudioClip) -> None:
    """Write mono 16-bit PCM. Samples are clipped to [-1, 1] and quantized by
    round(x * 32768), so values read back from a prior read_wav round-trip
    bit-identically at 16-bit precision."""
    x = np.clip(np.asarray(clip.samples, dtype=np.float64), -1.0, 1.0)
    q = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    payload = q.tobytes()
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, _PCM, 1, clip.sample_rate_hz, clip.sample_rate_hz * 2, 2, 16),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)


# --------------------------------------------------------------------------
# Resampling and length normalization
# --------------------------------------------------------------------------

_SINC_TAPS = 32  # taps per side
_CHUNK_OUTPUTS = 4096  # outputs per weight block; temporaries scale with this, not the clip


def resample_ratio(x: np.ndarray, ratio: float) -> np.ndarray:
    """Band-limited reinterpolation onto a grid `ratio` times as dense, using
    a Hann-windowed sinc kernel (32 taps per side). The kernel cutoff scales
    with min(1, ratio) so decimation is anti-aliased; per-output tap
    normalization keeps DC exact. Output length = round(len * ratio).

    Output i sits at t = i / ratio on the input grid; with f = t - floor(t)
    and tap offset r in [-31, 32], its weight is proportional to
    sin(pi c (r - f)) * (1 + cos(pi (r - f) / 32)) / (r - f), c the cutoff
    (the sinc and Hann constants cancel in the normalization). Expanding the
    sin/cos of the differences separates it into 6 per-tap rows and 6
    per-output coefficients, so a chunk's weights are one (m, 6) @ (6, 64)
    product and one division instead of m * 64 sin/cos evaluations."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    out_len = int(np.floor(n * ratio + 0.5))
    if out_len == 0:
        raise EmptyAudio("resampling would produce zero samples")
    pc, ph = np.pi * min(1.0, ratio), np.pi / _SINC_TAPS  # pi times the cutoff; the Hann rate
    pad = _SINC_TAPS + 1
    xp = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    windows = sliding_window_view(xp, 2 * _SINC_TAPS)  # row base + 2 is x[base - 31 : base + 33]
    r = np.arange(-_SINC_TAPS + 1, _SINC_TAPS + 1, dtype=np.float64)
    sin_c, cos_c = np.sin(pc * r), np.cos(pc * r)
    cos_h, sin_h = np.cos(ph * r), np.sin(ph * r)
    taps = np.stack([sin_c, sin_c * cos_h, sin_c * sin_h, cos_c, cos_c * cos_h, cos_c * sin_h])
    center = _SINC_TAPS - 1  # column of r = 0; r = 1 is the next one
    out = np.empty(out_len)
    for start in range(0, out_len, _CHUNK_OUTPUTS):
        stop = min(start + _CHUNK_OUTPUTS, out_len)
        t = np.arange(start, stop) / ratio  # output positions on the input grid
        base = np.floor(t).astype(np.intp)
        f = t - base
        a, b = np.cos(pc * f), np.sin(pc * f)
        cf, sf = np.cos(ph * f), np.sin(ph * f)
        coef = np.stack([a, a * cf, a * sf, -b, -b * cf, -b * sf], axis=1)
        w = coef @ taps
        with np.errstate(invalid="ignore"):  # f == 0 makes the r = 0 tap 0/0
            w /= r - f[:, None]
        w[f == 0.0, center] = 2.0 * pc  # the limit at r - f = 0
        # As f -> 1 the r = 1 tap's separable sum cancels to a tiny difference
        # of O(1) terms; evaluate that one tap directly.
        d = 1.0 - f
        w[:, center + 1] = np.sin(pc * d) * (1.0 + np.cos(ph * d)) / d
        out[start:stop] = np.einsum("ij,ij->i", w, windows[base + 2]) / w.sum(axis=1)
    return out


def resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """Rate conversion via resample_ratio; same rate returns a copy."""
    if target_hz <= 0:
        raise ValueError("target_hz must be positive")
    if target_hz == clip.sample_rate_hz:
        return AudioClip(clip.samples.copy(), target_hz)
    return AudioClip(resample_ratio(clip.samples, target_hz / clip.sample_rate_hz), target_hz)


def crop_or_pad(x: np.ndarray, n: int) -> np.ndarray:
    """A new array of exactly n samples: x truncated, or zero-padded at the end."""
    out = np.zeros(n)
    m = min(n, x.shape[0])
    out[:m] = x[:m]
    return out


def fix_length(clip: AudioClip, seconds: float = CLIP_SECONDS) -> AudioClip:
    """Truncate or zero-pad (at the end) to an exact duration from offset 0."""
    n = int(round(clip.sample_rate_hz * seconds))
    return AudioClip(crop_or_pad(clip.samples, n), clip.sample_rate_hz)


def load_clip(
    path, rate: int = PIPELINE_RATE_HZ, seconds: float | None = CLIP_SECONDS
) -> AudioClip:
    """read_wav -> resample to the pipeline rate -> optional fixed length."""
    clip = resample(read_wav(path), rate)
    return fix_length(clip, seconds) if seconds is not None else clip


# --------------------------------------------------------------------------
# Filename conventions -> canonical labels
# --------------------------------------------------------------------------

_RAVDESS_CODES = {f"{i + 1:02d}": name for i, name in enumerate(EMOTIONS)}
_CREMAD_CODES = {
    "ANG": "angry",
    "DIS": "disgust",
    "FEA": "fear",
    "HAP": "happy",
    "NEU": "neutral",
    "SAD": "sad",
}
_SAVEE_CODES = {
    "a": "angry",
    "d": "disgust",
    "f": "fear",
    "h": "happy",
    "n": "neutral",
    "sa": "sad",
    "su": "surprise",
}
_TESS_WORDS = {
    "neutral": "neutral",
    "happy": "happy",
    "sad": "sad",
    "angry": "angry",
    "fear": "fear",
    "disgust": "disgust",
    "ps": "surprise",
    "surprise": "surprise",
}


def _parse_ravdess(stem: str, parent: str) -> tuple[str, str]:
    parts = stem.split("-")
    if len(parts) < 3 or parts[2] not in _RAVDESS_CODES:
        raise UnknownLabelCode(f"not a recognized emotion field: {stem!r}")
    speaker = parts[6] if len(parts) >= 7 else ""
    return _RAVDESS_CODES[parts[2]], speaker


def _parse_cremad(stem: str, parent: str) -> tuple[str, str]:
    parts = stem.split("_")
    if len(parts) < 3 or parts[2] not in _CREMAD_CODES:
        raise UnknownLabelCode(f"not a recognized emotion token: {stem!r}")
    return _CREMAD_CODES[parts[2]], parts[0]


def _parse_savee(stem: str, parent: str) -> tuple[str, str]:
    # Files ship either as <speaker dir>/a01.wav or flattened as DC_a01.wav.
    parts = stem.split("_")
    code_field = parts[-1]
    speaker = parts[0] if len(parts) > 1 else parent
    prefix = ""
    for ch in code_field:
        if ch.isdigit():
            break
        prefix += ch
    if prefix.lower() not in _SAVEE_CODES:
        raise UnknownLabelCode(f"not a recognized letter prefix: {stem!r}")
    return _SAVEE_CODES[prefix.lower()], speaker


def _parse_tess(stem: str, parent: str) -> tuple[str, str]:
    parts = stem.split("_")
    word = parts[-1].lower()
    if word not in _TESS_WORDS:
        raise UnknownLabelCode(f"not a recognized suffix word: {stem!r}")
    speaker = parts[0] if len(parts) > 1 else ""
    return _TESS_WORDS[word], speaker


_PARSERS = {
    "ravdess": _parse_ravdess,
    "cremad": _parse_cremad,
    "savee": _parse_savee,
    "tess": _parse_tess,
}


def parse_label(filename: str, dataset: str) -> tuple[str, str]:
    """(emotion, speaker) from a corpus filename; raises UnknownLabelCode."""
    if dataset not in _PARSERS:
        raise ValueError(f"unknown dataset {dataset!r}; expected one of {DATASETS}")
    stem = os.path.splitext(os.path.basename(filename))[0]
    parent = os.path.basename(os.path.dirname(os.path.abspath(filename)))
    return _PARSERS[dataset](stem, parent)


def scan_dataset_detailed(root, dataset: str) -> tuple[list[ClipRecord], list[tuple[str, str]]]:
    """All labeled .wav records under root plus (path, reason) skips, in
    lexicographic path order. Repeated scans are byte-identical."""
    if dataset not in _PARSERS:
        raise ValueError(f"unknown dataset {dataset!r}; expected one of {DATASETS}")
    if not os.path.isdir(root):
        raise FileNotFoundError(f"dataset root does not exist: {root}")
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in filenames:
            if name.lower().endswith(".wav"):
                paths.append(os.path.join(dirpath, name))
    paths.sort()
    records, skipped = [], []
    for p in paths:
        try:
            emotion, speaker = parse_label(p, dataset)
        except UnknownLabelCode as exc:
            skipped.append((p, str(exc)))
            continue
        records.append(ClipRecord(p, dataset, emotion, speaker, "original"))
    return records, skipped


def scan_dataset(root, dataset: str) -> list[ClipRecord]:
    """scan_dataset_detailed minus the skip report; raises EmptyScan on zero
    records."""
    records, _ = scan_dataset_detailed(root, dataset)
    if not records:
        raise EmptyScan(f"no labeled .wav files under {root}")
    return records


# --------------------------------------------------------------------------
# Manifest CSV
# --------------------------------------------------------------------------

MANIFEST_HEADER = ["path", "dataset", "emotion", "speaker", "provenance"]


def write_manifest(records: list[ClipRecord], path) -> None:
    rows = ([r.path, r.dataset, r.emotion, r.speaker, r.provenance] for r in records)
    write_csv(path, MANIFEST_HEADER, rows)


def read_manifest(path) -> list[ClipRecord]:
    header, rows = read_csv(path)
    if header != MANIFEST_HEADER:
        raise ValueError(f"bad manifest header in {path}: {header}")
    records = []
    for row in rows:
        if len(row) != 5:
            raise ValueError(f"bad manifest row in {path}: {row}")
        records.append(ClipRecord(*row))
    return records
