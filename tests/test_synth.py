"""Synthetic corpus generator: determinism, labeling, and class structure."""

import os

import numpy as np
import pytest

from emorec.audio_io import EMOTIONS, MIN_CLIP_RATE, load_clip, read_wav, scan_dataset_detailed
from emorec.synth import class_template, generate_corpus, synth_clip


def test_class_template_range():
    assert class_template(0)["f0_hz"] == 140.0
    assert class_template(7)["f0_hz"] == 140.0 + 42.0 * 7
    with pytest.raises(ValueError):
        class_template(8)
    with pytest.raises(ValueError):
        class_template(-1)


def test_synth_clip_shape_and_determinism():
    a = synth_clip(2, 1, seed=5, seconds=0.5)
    b = synth_clip(2, 1, seed=5, seconds=0.5)
    assert a.sample_rate_hz == 16000
    assert a.samples.shape == (8000,)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, synth_clip(2, 2, seed=5, seconds=0.5).samples)
    assert not np.array_equal(a.samples, synth_clip(2, 1, seed=6, seconds=0.5).samples)


def test_classes_have_distinct_fundamentals():
    def dominant_hz(clip):
        n = clip.samples.shape[0]
        mag = np.abs(np.fft.rfft(clip.samples * np.hanning(n)))
        return np.argmax(mag) * clip.sample_rate_hz / n

    for class_idx in (0, 3, 7):
        f0 = class_template(class_idx)["f0_hz"]
        clip = synth_clip(class_idx, 1, seconds=1.0)
        # dominant partial is f0 or a low harmonic of it; jitter is <=3%
        measured = dominant_hz(clip)
        harmonic = round(measured / f0)
        assert 1 <= harmonic <= 6
        assert abs(measured - harmonic * f0) <= 0.05 * harmonic * f0


def test_generate_corpus_scannable(tmp_path):
    root = tmp_path / "synth"
    paths = generate_corpus(root, clips_per_class=2, seconds=0.2)
    assert len(paths) == 16
    assert all(os.path.exists(p) for p in paths)
    assert paths == sorted(paths)

    records, skipped = scan_dataset_detailed(str(root), "ravdess")
    assert len(records) == 16 and skipped == []
    by_emotion = {}
    for r in records:
        by_emotion.setdefault(r.emotion, []).append(r)
    assert set(by_emotion) == set(EMOTIONS)
    assert all(len(v) == 2 for v in by_emotion.values())


def test_generate_corpus_deterministic_bytes(tmp_path):
    a = generate_corpus(tmp_path / "a", clips_per_class=1, seconds=0.2, seed=3)
    b = generate_corpus(tmp_path / "b", clips_per_class=1, seconds=0.2, seed=3)
    for pa, pb in zip(a, b):
        assert open(pa, "rb").read() == open(pb, "rb").read()


def test_generated_wavs_round_trip_float(tmp_path):
    paths = generate_corpus(tmp_path / "c", clips_per_class=1, seconds=0.2)
    clip = read_wav(paths[0])
    direct = synth_clip(0, 1, seconds=0.2)
    assert clip.sample_rate_hz == 16000
    # PCM16 storage: within half a quantization step of the direct render
    assert np.allclose(clip.samples, direct.samples, atol=1.0 / 65536)


@pytest.mark.parametrize("rate", [MIN_CLIP_RATE - 1, 4000])
def test_a_rate_no_run_reads_raises_before_anything_is_written(tmp_path, rate):
    with pytest.raises(ValueError, match=f"{rate} Hz is below {MIN_CLIP_RATE} Hz"):
        synth_clip(0, 1, rate=rate, seconds=0.5)
    root = tmp_path / "lowrate"
    with pytest.raises(ValueError, match=f"{rate} Hz is below {MIN_CLIP_RATE} Hz"):
        generate_corpus(root, clips_per_class=1, seconds=0.5, rate=rate)
    assert not root.exists()
    # the floor itself is a rate every run reads
    paths = generate_corpus(tmp_path / "floor", clips_per_class=1, seconds=0.5, rate=MIN_CLIP_RATE)
    assert load_clip(paths[0], MIN_CLIP_RATE).samples.shape == (4000,)
