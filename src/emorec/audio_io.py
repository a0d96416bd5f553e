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
    MalformedContainer,
    UnknownLabelCode,
    UnsupportedEncoding,
)

# Canonical label order. Index positions are load-bearing: one-hot columns,
# confusion-matrix axes, and histogram rows all follow this order.
EMOTIONS = ("neutral", "calm", "happy", "sad", "angry", "fear", "disgust", "surprise")
EMOTION_INDEX = {name: i for i, name in enumerate(EMOTIONS)}

DATASETS = ("cremad", "ravdess", "savee", "tess")

# the longest 16-bit mono clip whose RIFF size field, 36 + 2n, fits in 32 bits
MAX_WAV_SAMPLES = (2**32 - 1 - 36) // 2
# the highest rate whose 16-bit mono byte rate, 2 * rate, fits in 32 bits
MAX_WAV_RATE = (2**32 - 1) // 2
# telephone speech; a clip recorded below it is not speech this pipeline reads
MIN_CLIP_RATE = 8000


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
    bit-identically at 16-bit precision. Raises ValueError for a clip longer
    than MAX_WAV_SAMPLES, a rate above MAX_WAV_RATE or a non-finite sample."""
    if clip.samples.size > MAX_WAV_SAMPLES:
        raise ValueError(f"a 16-bit mono WAV holds at most {MAX_WAV_SAMPLES} samples")
    if clip.sample_rate_hz > MAX_WAV_RATE:
        raise ValueError(f"a 16-bit mono WAV has a rate of at most {MAX_WAV_RATE} Hz")
    if not np.all(np.isfinite(clip.samples)):
        raise ValueError("a 16-bit PCM WAV holds only finite samples")
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
_MAX_PERIOD = 2 * _SINC_TAPS  # longest phase cycle given its own weight rows


def _sinc_weights(f: np.ndarray, pc: float, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized kernel weights, one 64-tap row per output phase f in [0, 1),
    for pc = pi times the cutoff: the 6 per-phase coefficients @ the 6
    separable per-tap rows, divided by r - f (see resample_ratio). Written
    into `out` when given."""
    ph = np.pi / _SINC_TAPS  # the Hann rate
    r = np.arange(-_SINC_TAPS + 1, _SINC_TAPS + 1, dtype=np.float64)
    center = _SINC_TAPS - 1  # column of r = 0; r = 1 is the next one
    sin_c, cos_c = np.sin(pc * r), np.cos(pc * r)
    cos_h, sin_h = np.cos(ph * r), np.sin(ph * r)
    taps = np.stack([sin_c, sin_c * cos_h, sin_c * sin_h, cos_c, cos_c * cos_h, cos_c * sin_h])
    a, b = np.cos(pc * f), np.sin(pc * f)
    cf, sf = np.cos(ph * f), np.sin(ph * f)
    coef = np.stack([a, a * cf, a * sf, -b, -b * cf, -b * sf], axis=1)
    w = np.matmul(coef, taps, out=out)
    with np.errstate(invalid="ignore"):  # f == 0 makes the r = 0 tap 0/0
        w /= r - f[:, None]
    w[f == 0.0, center] = 2.0 * pc  # the limit at r - f = 0
    # As f -> 1 the r = 1 tap's separable sum cancels to a tiny difference
    # of O(1) terms; evaluate that one tap directly.
    d = 1.0 - f
    w[:, center + 1] = np.sin(pc * d) * (1.0 + np.cos(ph * d)) / d
    return w


def _phase_cycle(ratio: float, out_len: int):
    """(base, f, q) of the first p outputs when the phases of all out_len
    outputs repeat every p <= 64 outputs, each cycle q input samples further
    on: f[i + p] == f[i] and base[i + p] == base[i] + q. None otherwise.

    Positions are the float t = i / ratio the per-output path uses, so a
    cycle is taken only where those floats repeat exactly."""
    head = np.arange(_MAX_PERIOD + 1) / ratio
    zeros = np.flatnonzero(head[1:] == np.floor(head[1:]))
    if zeros.size == 0:
        return None
    p = int(zeros[0]) + 1
    q = int(head[p])
    for start in range(0, out_len - p, _CHUNK_OUTPUTS):
        i = np.arange(start, min(start + _CHUNK_OUTPUTS, out_len - p))
        t, later = i / ratio, (i + p) / ratio
        base, later_base = np.floor(t), np.floor(later)
        if not (np.array_equal(later - later_base, t - base) and np.all(later_base - base == q)):
            return None
    base = np.floor(head[:p])
    return base.astype(np.intp), head[:p] - base, q


class FrontEndMemo:
    """What one extraction block reuses across its records, built as first
    asked for and read-only after: resample_ratio's chunk-path weights (rows,
    row sums, window indices) keyed by (ratio, first output), one full chunk
    of outputs each, for chunks that start below `cap`; and the analysis of
    the last source that `analysis` was asked about. Chunks from `cap` on
    get their weights per call, so the memo is bounded by `cap`, never by a
    clip's length; create one per block and drop it after.
    """

    def __init__(self, cap: int):
        self.cap = cap
        self.chunks: dict[tuple[float, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._source = None  # (samples, analysis)

    def analysis(self, x: np.ndarray, build):
        """build(x), computed once while x stays the samples asked about."""
        if self._source is None or self._source[0] is not x:
            self._source = (x, build(x))
        return self._source[1]


def _weight_chunk(ratio: float, pc: float, start: int, stop: int, out=None):
    """(weight rows, row sums, window indices) of outputs start..stop-1."""
    t = np.arange(start, stop) / ratio  # output positions on the input grid
    base = np.floor(t).astype(np.intp)
    w = _sinc_weights(t - base, pc, out=out)
    return w, w.sum(axis=1), base + 2  # window row base + 2 is x[base - 31 : base + 33]


def resample_ratio(x: np.ndarray, ratio: float, memo: FrontEndMemo | None = None) -> np.ndarray:
    """Band-limited reinterpolation onto a grid `ratio` times as dense, using
    a Hann-windowed sinc kernel (32 taps per side). The kernel cutoff scales
    with min(1, ratio) so decimation is anti-aliased; per-output tap
    normalization keeps DC exact. Output length = round(len * ratio).

    Output i sits at t = i / ratio on the input grid; with f = t - floor(t)
    and tap offset r in [-31, 32], its weight is proportional to
    sin(pi c (r - f)) * (1 + cos(pi (r - f) / 32)) / (r - f), c the cutoff
    (the sinc and Hann constants cancel in the normalization). Expanding the
    sin/cos of the differences separates it into 6 per-tap rows and 6
    per-output coefficients, so a block's weights are one (m, 6) @ (6, 64)
    product and one division instead of m * 64 sin/cos evaluations.

    When the phases repeat every p <= 64 outputs (48, 32, 24, 96 or 8 kHz to
    16 kHz), the p weight rows are built once and phase j is applied to
    every p-th window; otherwise the weights are built per output, in chunks
    of 4096, taken from `memo` for the chunks that start below memo.cap when
    one is given. All three give the same bits."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"resample_ratio takes 1-D samples, got shape {x.shape}")
    if not (np.isfinite(ratio) and ratio > 0):
        raise ValueError(f"resample ratio must be finite and > 0, got {ratio!r}")
    n = x.shape[0]
    out_len = int(np.floor(n * ratio + 0.5))
    if out_len == 0:
        raise EmptyAudio("resampling would produce zero samples")
    pc = np.pi * min(1.0, ratio)  # pi times the cutoff
    pad = _SINC_TAPS + 1
    xp = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    windows = sliding_window_view(xp, 2 * _SINC_TAPS)
    out = np.empty(out_len)
    cycle = _phase_cycle(ratio, out_len)
    if cycle is not None:
        base, f, q = cycle
        p = base.shape[0]
        w = _sinc_weights(f, pc)
        for j in range(p):
            rows = windows[base[j] + 2 :: q][: len(range(j, out_len, p))]
            out[j::p] = np.einsum("ij,ij->i", np.broadcast_to(w[j], rows.shape), rows) / w[j].sum()
        return out
    block = None  # the weight block that every chunk built per call reuses
    for start in range(0, out_len, _CHUNK_OUTPUTS):
        m = min(_CHUNK_OUTPUTS, out_len - start)
        if memo is not None and start < memo.cap:
            if (ratio, start) not in memo.chunks:
                chunk = _weight_chunk(ratio, pc, start, start + _CHUNK_OUTPUTS)
                for a in chunk:
                    a.flags.writeable = False
                memo.chunks[ratio, start] = chunk
            w, sums, idx = (a[:m] for a in memo.chunks[ratio, start])
        else:
            # a block per chunk let the allocator hand the heap top back to
            # the OS and fault it in again: three times the page faults on 1 s
            # clips at pitch-shift ratios
            if block is None:
                block = np.empty((m, 2 * _SINC_TAPS))
            w, sums, idx = _weight_chunk(ratio, pc, start, start + m, out=block[:m])
        out[start : start + m] = np.einsum("ij,ij->i", w, windows[idx]) / sums
    return out


def crop_or_pad(x: np.ndarray, n: int) -> np.ndarray:
    """A new array of exactly n samples: x truncated, or zero-padded at the end."""
    out = np.zeros(n)
    m = min(n, x.shape[0])
    out[:m] = x[:m]
    return out


def load_clip(path, rate: int) -> AudioClip:
    """read_wav, resampled to `rate` when the header rate differs. A header
    rate below MIN_CLIP_RATE raises UnsupportedEncoding before the resampler
    could blow a small file up into a huge clip."""
    clip = read_wav(path)
    if clip.sample_rate_hz < MIN_CLIP_RATE:
        raise UnsupportedEncoding(
            f"sample rate {clip.sample_rate_hz} Hz is below {MIN_CLIP_RATE} Hz: {path}"
        )
    if clip.sample_rate_hz == rate:
        return clip
    return AudioClip(resample_ratio(clip.samples, rate / clip.sample_rate_hz), rate)


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
    lexicographic path order: a path that is not valid UTF-8 is skipped, as
    is one whose label does not parse. Repeated scans are byte-identical."""
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
            p.encode("utf-8")  # the manifest stores paths as UTF-8
            emotion, speaker = parse_label(p, dataset)
        except UnicodeEncodeError:
            skipped.append((p, "path is not valid UTF-8"))
            continue
        except UnknownLabelCode as exc:
            skipped.append((p, str(exc)))
            continue
        records.append(ClipRecord(p, dataset, emotion, speaker, "original"))
    return records, skipped


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
