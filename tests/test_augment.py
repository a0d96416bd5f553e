"""Noise calibration, vocoder stretch/pitch behavior, and manifest expansion."""

import numpy as np
import pytest

from emorec import augment
from emorec.audio_io import AudioClip, ClipRecord, FrontEndMemo
from emorec.augment import (
    AugmentPlan,
    _overlap_add,
    add_noise,
    expand,
    pitch_shift,
    realize,
    time_stretch,
)
from emorec.dsp.fourier import window
from emorec.errors import ClipTooShort
from emorec.rng import bulk_normal, derive_seed

RATE = 16000


def tone(freq=440.0, seconds=3.0, amp=0.5):
    t = np.arange(int(RATE * seconds)) / RATE
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), RATE)


def dominant_hz(x, rate=RATE):
    n = 8192
    seg = x[len(x) // 2 - n // 2 : len(x) // 2 + n // 2] * np.hanning(n)
    return float(np.argmax(np.abs(np.fft.rfft(seg))) * rate / n)


# ---- noise ----


def test_noise_rate_zero_is_identity_copy():
    clip = tone(seconds=0.5)
    out = add_noise(clip, 0.0, seed=9)
    assert np.array_equal(out.samples, clip.samples)
    assert out.samples is not clip.samples


def test_noise_deterministic_and_seeded():
    clip = tone(seconds=0.5)
    a = add_noise(clip, 0.035, seed=1)
    b = add_noise(clip, 0.035, seed=1)
    c = add_noise(clip, 0.035, seed=2)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_noise_amplitude_calibration():
    clip = tone(seconds=3.0)
    rate = AugmentPlan().noise_rate
    noisy = add_noise(clip, rate, seed=3)
    residual = noisy.samples - clip.samples
    target = rate * np.max(np.abs(clip.samples))
    measured = np.sqrt(np.mean(residual**2))
    assert abs(measured / target - 1.0) < 0.03


def test_noise_scales_linearly():
    clip = tone(seconds=0.5)
    r1 = add_noise(clip, 0.02, seed=4).samples - clip.samples
    r2 = add_noise(clip, 0.04, seed=4).samples - clip.samples
    # equality up to the rounding lost in (x + noise) - x
    assert np.allclose(r2, 2.0 * r1, rtol=0, atol=1e-12)


# ---- stretch ----


def test_stretch_output_lengths():
    clip = tone(seconds=1.0)
    n = clip.samples.shape[0]
    assert time_stretch(clip, 1.0).samples.shape[0] == n
    assert time_stretch(clip, 0.8).samples.shape[0] == round(n / 0.8)
    assert time_stretch(clip, 1.2).samples.shape[0] == round(n / 1.2)


def test_stretch_boundary_rates_accepted():
    clip = tone(seconds=1.0)
    n = clip.samples.shape[0]
    assert time_stretch(clip, 2.0).samples.shape[0] == round(n / 2.0)
    assert time_stretch(clip, 0.5).samples.shape[0] == round(n / 0.5)


def test_stretch_rejects_out_of_range():
    clip = tone(seconds=0.5)
    for rate in (0.49, 2.01, 0.0, -1.0):
        with pytest.raises(ValueError):
            time_stretch(clip, rate)


def test_stretch_preserves_pitch():
    clip = tone(440.0, seconds=3.0)
    for rate in (0.8, 1.2):
        out = time_stretch(clip, rate)
        assert abs(dominant_hz(out.samples) - 440.0) < 4.0


def test_stretch_requires_one_frame():
    with pytest.raises(ClipTooShort):
        time_stretch(AudioClip(np.zeros(512), RATE), 0.8)


def bincount_overlap_add(frames, hop):
    """The oracle: every frame sample summed at its output position by
    np.bincount, which adds each position's samples in frame order."""
    s_count, length = frames.shape
    pos = (hop * np.arange(s_count)[:, None] + np.arange(length)).ravel()
    return np.bincount(pos, weights=np.ravel(frames))


@pytest.mark.parametrize("count", [1, 2, 3, 61])
def test_strided_overlap_add_matches_bincount(count):
    gen = np.random.default_rng(count)
    # magnitudes 16 decades apart: any other order of the adds rounds differently
    frames = gen.standard_normal((count, 1024)) * 10.0 ** gen.uniform(-8, 8, (count, 1024))
    assert np.array_equal(_overlap_add(frames, 256), bincount_overlap_add(frames, 256))
    squared = np.broadcast_to(window("hann", 1024) ** 2, (count, 1024))
    assert np.array_equal(_overlap_add(squared, 256), bincount_overlap_add(squared, 256))


@pytest.mark.parametrize("n", [1024, 1500, 48000])
def test_variants_on_a_shared_analysis_equal_fresh_calls(n, monkeypatch):
    gen = np.random.default_rng(n)
    clip, other = (AudioClip(gen.standard_normal(n), RATE) for _ in range(2))

    def variants(c, memo=None):
        return [time_stretch(c, r, memo).samples for r in (0.8, 1.2)] + [
            pitch_shift(c, s, memo).samples for s in (-2.0, 2.0)
        ]

    fresh = {id(c): variants(c) for c in (clip, other)}
    analyses, real_stft = [], augment.stft
    monkeypatch.setattr(augment, "stft", lambda x, cfg: analyses.append(x) or real_stft(x, cfg))
    memo = FrontEndMemo(n)
    # the second source replaces the first's analysis; the first is redone on return
    for c in (clip, clip, other, clip):
        for got, want in zip(variants(c, memo), fresh[id(c)]):
            assert np.array_equal(got, want)
    assert [x is c.samples for x, c in zip(analyses, (clip, other, clip))] == [True] * 3
    assert len(analyses) == 3


# ---- pitch ----


def test_pitch_zero_is_identity_copy():
    clip = tone(seconds=0.5)
    out = pitch_shift(clip, 0.0)
    assert np.array_equal(out.samples, clip.samples)
    assert out.samples is not clip.samples


def test_pitch_shift_length_preserved():
    clip = tone(seconds=1.0)
    for semis in (-2.0, 2.0, 7.0):
        assert pitch_shift(clip, semis).samples.shape[0] == clip.samples.shape[0]


def test_pitch_octaves():
    clip = tone(440.0, seconds=3.0)
    up = pitch_shift(clip, 12.0)
    down = pitch_shift(clip, -12.0)
    assert abs(dominant_hz(up.samples) - 880.0) < 6.0
    assert abs(dominant_hz(down.samples) - 220.0) < 6.0


def test_pitch_two_semitones():
    clip = tone(440.0, seconds=3.0)
    out = pitch_shift(clip, 2.0)
    assert abs(dominant_hz(out.samples) - 440.0 * 2 ** (2 / 12)) < 6.0


def test_pitch_rejects_out_of_range():
    clip = tone(seconds=0.5)
    with pytest.raises(ValueError):
        pitch_shift(clip, 12.5)


# ---- plan / expansion ----


def rec(i, emotion="happy"):
    return ClipRecord(path=f"/c/{i:02d}.wav", dataset="ravdess", emotion=emotion, speaker=str(i))


def test_plan_validation():
    with pytest.raises(ValueError):
        AugmentPlan(noise_rate=-0.1)
    with pytest.raises(ValueError):
        AugmentPlan(stretch_rates=(0.4,))
    with pytest.raises(ValueError):
        AugmentPlan(pitch_semitones=(13.0,))
    AugmentPlan(stretch_rates=(0.5, 2.0))  # closed interval boundaries are fine


def test_expand_counts_and_grouping():
    records = [rec(i) for i in range(10)]
    plan = AugmentPlan(seed=0)
    expanded = expand(records, plan)
    # 1 original + noise + 2 stretches + 2 pitches per record
    assert len(expanded) == 60
    for i in range(10):
        group = expanded[6 * i : 6 * (i + 1)]
        assert all(r.path == records[i].path for r in group)
        assert group[0].provenance == "original"
        tags = [r.provenance for r in group[1:]]
        assert tags[0].startswith("noise(rate=0.035,seed=")
        assert "stretch(rate=0.8)" in tags and "stretch(rate=1.2)" in tags
        assert "pitch(semitones=-2.0)" in tags and "pitch(semitones=2.0)" in tags
        assert all(r.emotion == "happy" and r.speaker == records[i].speaker for r in group)


def test_expand_noise_seed_is_per_record():
    records = [rec(i) for i in range(3)]
    expanded = expand(records, AugmentPlan(seed=5))
    noise_tags = [r.provenance for r in expanded if r.provenance.startswith("noise")]
    assert len(set(noise_tags)) == 3
    assert f"seed={derive_seed(5, 0)}" in noise_tags[0]


def test_expand_rejects_augmented_input():
    bad = ClipRecord(
        path="/c/x.wav", dataset="ravdess", emotion="sad", provenance="noise(rate=0.035,seed=1)"
    )
    with pytest.raises(ValueError):
        expand([bad], AugmentPlan())


def test_expand_disabled_transforms():
    records = [rec(0)]
    plan = AugmentPlan(noise_rate=0.0, stretch_rates=(), pitch_semitones=())
    assert [r.provenance for r in expand(records, plan)] == ["original"]


def test_realize_round_trip():
    clip = tone(seconds=1.5)
    plan = AugmentPlan(seed=11)
    records = expand([rec(0)], plan)
    outputs = [realize(clip, r.provenance) for r in records]
    assert np.array_equal(outputs[0].samples, clip.samples)
    # realize is deterministic per tag
    for r, out in zip(records, outputs):
        assert np.array_equal(realize(clip, r.provenance).samples, out.samples)
    # and the noise tag reproduces direct add_noise with the derived seed
    noise_rec = records[1]
    direct = add_noise(clip, plan.noise_rate, seed=derive_seed(plan.seed, 0))
    assert np.array_equal(outputs[1].samples, direct.samples)


def test_realize_rejects_unknown_tag():
    with pytest.raises(ValueError):
        realize(tone(seconds=0.5), "reverb(level=3)")


@pytest.mark.parametrize(
    "call",
    [
        lambda: add_noise(AudioClip(np.ones(64), 16000), -0.01, 0),
        lambda: expand([], AugmentPlan()),
    ],
    ids=["negative_noise_rate", "expand_nothing"],
)
def test_guards_reject_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
