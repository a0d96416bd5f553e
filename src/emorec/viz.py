"""Figure-content exporters: waveplot CSV, spectrogram PGM/CSV, and the
class histogram. Everything is a deterministic byte stream; styling is left
to whatever plotter reads the CSVs."""

from __future__ import annotations

import numpy as np

from .artifacts import replacing, write_csv
from .audio_io import EMOTIONS, AudioClip, ClipRecord
from .dsp.fourier import StftConfig, stft, window
from .errors import EmptyAudio, IoFailure

DB_FLOOR = -80.0
_POWER_EPS = 1e-12


def waveplot_export(clip: AudioClip, out_path, max_points: int) -> None:
    """CSV of (time_s, amplitude), one row per sample.

    A clip longer than max_points is bucketed instead, and each bucket emits
    its min and max (at their true times), so the global extrema survive
    decimation.
    """
    x = clip.samples
    if x.shape[0] == 0:
        raise EmptyAudio("cannot plot an empty clip")
    rate = float(clip.sample_rate_hz)
    if max_points < 2:
        raise ValueError("max_points must be at least 2")
    rows: list[tuple[int, float]] = []
    if x.shape[0] <= max_points:
        rows = [(i, float(x[i])) for i in range(x.shape[0])]
    else:
        buckets = max_points // 2
        edges = np.linspace(0, x.shape[0], buckets + 1).astype(np.intp)
        for b in range(buckets):
            lo, hi = edges[b], edges[b + 1]
            seg = x[lo:hi]
            pts = sorted({lo + int(np.argmin(seg)), lo + int(np.argmax(seg))})
            rows.extend((i, float(x[i])) for i in pts)
    try:
        csv_rows = ([repr(float(i) / rate), repr(float(v))] for i, v in rows)
        write_csv(out_path, ["time_s", "amplitude"], csv_rows)
    except OSError as exc:
        raise IoFailure(f"cannot write waveplot: {exc}") from exc


def spectrogram_db(clip: AudioClip, cfg: StftConfig | None = None) -> np.ndarray:
    """dB matrix (n_fft/2+1, T): 10*log10(power + 1e-12) clipped to
    [DB_FLOOR, 0], with power calibrated so a full-scale sine at a bin
    center reaches ~0 dB ((2|Z| / sum(window))^2)."""
    cfg = cfg or StftConfig()
    spec = stft(clip.samples, cfg)
    wsum = window(cfg.window, cfg.n_fft).sum()
    power = (2.0 * np.abs(spec) / wsum) ** 2
    db = 10.0 * np.log10(power + _POWER_EPS)
    return np.clip(db, DB_FLOOR, 0.0)


def spectrogram_export(clip: AudioClip, cfg: StftConfig | None, out_base) -> tuple[str, str]:
    """Write <out_base>.pgm and <out_base>.csv; returns both paths.

    PGM: P5, maxval 255, dB linearly mapped from [DB_FLOOR, 0] to 0..255.
    The image's bottom row is bin 0 (DC); frequency grows upward. The CSV
    keeps bin order 0..n_fft/2 top-to-bottom with a leading bin_hz column.
    """
    cfg = cfg or StftConfig()
    if clip.samples.shape[0] < cfg.n_fft:
        raise EmptyAudio(f"need at least n_fft={cfg.n_fft} samples for a spectrogram")
    db = spectrogram_db(clip, cfg)
    bins, frames = db.shape
    pixels = np.round((db - DB_FLOOR) / (0.0 - DB_FLOOR) * 255.0).astype(np.uint8)
    pgm_path, csv_path = str(out_base) + ".pgm", str(out_base) + ".csv"
    try:
        with replacing(pgm_path, "wb") as fh:
            fh.write(f"P5\n{frames} {bins}\n255\n".encode("ascii"))
            fh.write(pixels[::-1, :].tobytes())  # bin 0 at the image bottom
        bin_hz = np.arange(bins) * (clip.sample_rate_hz / cfg.n_fft)
        rows = ([repr(float(hz))] + [repr(float(v)) for v in row] for hz, row in zip(bin_hz, db))
        write_csv(csv_path, ["bin_hz"] + [f"frame_{t}" for t in range(frames)], rows)
    except OSError as exc:
        raise IoFailure(f"cannot write spectrogram: {exc}") from exc
    return pgm_path, csv_path


def class_histogram(records: list[ClipRecord], out_path=None) -> dict[str, int]:
    """Counts per canonical emotion (zero-filled, canonical order); also
    written as CSV when out_path is given."""
    counts = {name: 0 for name in EMOTIONS}
    for r in records:
        counts[r.emotion] += 1
    if out_path is not None:
        try:
            write_csv(out_path, ["emotion", "count"], ([name, counts[name]] for name in EMOTIONS))
        except OSError as exc:
            raise IoFailure(f"cannot write histogram: {exc}") from exc
    return counts
