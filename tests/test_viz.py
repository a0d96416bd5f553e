"""Figure exporters: waveplot CSV (with extrema-preserving decimation),
spectrogram PGM/CSV, and the class histogram."""

import csv

import numpy as np
import pytest

from emorec.audio_io import AudioClip, ClipRecord
from emorec.dsp.fourier import StftConfig
from emorec.errors import EmptyAudio
from emorec.viz import (
    DB_FLOOR,
    class_histogram,
    spectrogram_db,
    spectrogram_export,
    waveplot_export,
)


def tone(freq=440.0, rate=16000, seconds=0.5, amp=1.0):
    t = np.arange(int(rate * seconds)) / rate
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), rate)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_waveplot_full_resolution(tmp_path):
    clip = AudioClip(np.array([0.0, 0.5, -0.25]), 100)
    path = tmp_path / "wave.csv"
    waveplot_export(clip, path, max_points=3)
    rows = read_rows(path)
    assert rows[0] == ["time_s", "amplitude"]
    assert [float(r[0]) for r in rows[1:]] == [0.0, 0.01, 0.02]
    assert [float(r[1]) for r in rows[1:]] == [0.0, 0.5, -0.25]
    assert "np." not in path.read_text()


def test_waveplot_last_time_is_n_minus_1_over_rate(tmp_path):
    clip = tone(seconds=0.25)
    path = tmp_path / "wave.csv"
    waveplot_export(clip, path, max_points=clip.samples.shape[0])
    rows = read_rows(path)
    assert float(rows[-1][0]) == (clip.samples.shape[0] - 1) / 16000


def test_waveplot_decimation_keeps_global_extrema(tmp_path):
    rng = np.random.default_rng(11)
    x = rng.standard_normal(50_000)
    x[31_337] = 9.0
    x[40_001] = -9.0
    clip = AudioClip(x, 16000)
    path = tmp_path / "wave.csv"
    waveplot_export(clip, path, max_points=400)
    rows = read_rows(path)[1:]
    assert len(rows) <= 400
    amps = [float(r[1]) for r in rows]
    assert max(amps) == 9.0
    assert min(amps) == -9.0
    times = [float(r[0]) for r in rows]
    assert times == sorted(times)


def test_waveplot_guards(tmp_path):
    with pytest.raises(EmptyAudio):
        waveplot_export(AudioClip(np.zeros(0), 16000), tmp_path / "x.csv", max_points=2)
    with pytest.raises(ValueError):
        waveplot_export(tone(), tmp_path / "x.csv", max_points=1)


def test_spectrogram_db_range_and_peak():
    clip = tone(freq=1000.0)
    db = spectrogram_db(clip)
    assert db.shape[0] == 513
    assert db.min() >= DB_FLOOR and db.max() <= 0.0
    # full-scale sine should be near 0 dB at its bin
    peak_bin = int(np.argmax(db.mean(axis=1)))
    assert peak_bin == round(1000.0 * 1024 / 16000)
    assert db[peak_bin].max() > -3.0


def test_spectrogram_export_pgm_and_csv(tmp_path):
    clip = tone(freq=2000.0)
    pgm_path, csv_path = spectrogram_export(clip, None, tmp_path / "spec")

    blob = open(pgm_path, "rb").read()
    frames = (clip.samples.shape[0] - 1024) // 256 + 1
    header = f"P5\n{frames} 513\n255\n".encode()
    assert blob.startswith(header)
    assert len(blob) == len(header) + frames * 513

    pixels = np.frombuffer(blob[len(header) :], dtype=np.uint8).reshape(513, frames)
    # rows are flipped: brightest image row should sit at bins-1-peak_bin
    peak_bin = round(2000.0 * 1024 / 16000)
    assert int(np.argmax(pixels.mean(axis=1))) == 513 - 1 - peak_bin

    rows = read_rows(csv_path)
    assert rows[0] == ["bin_hz"] + [f"frame_{t}" for t in range(frames)]
    assert len(rows) == 1 + 513
    assert float(rows[1][0]) == 0.0
    assert float(rows[2][0]) == pytest.approx(16000 / 1024)
    brightest = max(range(513), key=lambda k: float(rows[1 + k][1]))
    assert brightest == peak_bin


def test_spectrogram_zero_clip_hits_floor(tmp_path):
    clip = AudioClip(np.zeros(4096), 16000)
    pgm_path, _ = spectrogram_export(clip, None, tmp_path / "flat")
    blob = open(pgm_path, "rb").read()
    body = blob.split(b"\n255\n", 1)[1]
    assert set(body) == {0}


def test_spectrogram_needs_one_window():
    with pytest.raises(EmptyAudio):
        spectrogram_export(AudioClip(np.zeros(512), 16000), StftConfig(), "/tmp/nope")


def test_class_histogram_zero_filled(tmp_path):
    records = [
        ClipRecord("a.wav", "ravdess", "angry", "01"),
        ClipRecord("b.wav", "ravdess", "angry", "02"),
        ClipRecord("c.wav", "tess", "sad", "OAF"),
    ]
    path = tmp_path / "counts.csv"
    counts = class_histogram(records, path)
    assert counts["angry"] == 2 and counts["sad"] == 1 and counts["happy"] == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "emotion,count"
    assert lines[1] == "neutral,0"
    assert lines[5] == "angry,2"
    assert len(lines) == 9
