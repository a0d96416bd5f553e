"""Frame-level descriptors and the three extraction modes."""

import numpy as np
import pytest

from emorec.audio_io import AudioClip
from emorec.dsp import MODES, extract, mfcc, rms, zcr
from emorec.dsp.fourier import StftConfig, frame_signal
from emorec.dsp.wavelet import wavelet_features
from emorec.rng import bulk_normal


def make_clip(seed=0, seconds=1.0, rate=16000):
    return AudioClip(bulk_normal(seed, int(rate * seconds)), rate)


def test_zcr_worked_examples():
    assert zcr(np.array([[1.0, -1.0, 1.0, -1.0]])) == [1.0]
    # signs: +, -, +(zero counts as non-negative), + -> 2 changes / 3 pairs
    assert abs(zcr(np.array([[0.3, -0.2, 0.0, 0.4]]))[0] - 2.0 / 3.0) < 1e-15
    assert zcr(np.ones((1, 10))) == [0.0]


def test_rms_worked_example():
    assert abs(rms(np.array([[3.0, 4.0, 0.0, 0.0]]))[0] - 2.5) < 1e-15
    assert rms(np.zeros((1, 8))) == [0.0]


def test_framewise_vectorization():
    frames = np.stack([
        np.array([1.0, -1.0, 1.0, -1.0]),
        np.array([1.0, 1.0, 1.0, 1.0]),
    ])
    z = zcr(frames)
    assert z.shape == (2,)
    assert z[0] == 1.0 and z[1] == 0.0
    r = rms(frames)
    assert np.allclose(r, [1.0, 1.0])


def test_zcr_needs_two_samples():
    with pytest.raises(ValueError):
        zcr(np.array([[1.0]]))


def test_modes_tuple():
    assert MODES == ("mfcc", "wavelet", "combined")
    with pytest.raises(ValueError):
        extract(make_clip(), mode="plp")


def test_extract_dimensions_and_schemas():
    clip = make_clip(1)
    v_m, s_m = extract(clip, mode="mfcc")
    v_w, s_w = extract(clip, mode="wavelet")
    v_c, s_c = extract(clip, mode="combined")
    assert v_m.shape == (42,) and len(s_m) == 42
    assert v_w.shape == (20,) and len(s_w) == 20
    assert v_c.shape == (60,) and len(s_c) == 60

    assert s_m[:2] == ["mfcc_00", "mfcc_01"]
    assert s_m[-2:] == ["zcr", "rms"]
    assert s_w[-2:] == ["zcr", "rms"]
    assert s_w[0] == "dwt_a5_loge"
    # combined = mfcc schema then the wavelet block, duplicates dropped
    assert s_c == s_m + s_w[:-2]
    assert len(set(s_c)) == 60


def test_combined_is_concatenation():
    clip = make_clip(2)
    v_m, _ = extract(clip, mode="mfcc")
    v_w, _ = extract(clip, mode="wavelet")
    v_c, _ = extract(clip, mode="combined")
    assert np.array_equal(v_c[:42], v_m)
    assert np.array_equal(v_c[42:], v_w[:18])


def test_extract_composes_from_parts():
    clip = make_clip(3)
    stft_cfg = StftConfig()
    v, schema = extract(clip, mode="mfcc", stft_cfg=stft_cfg)

    seq = mfcc(clip.samples, stft_cfg, rate=clip.sample_rate_hz)
    frames = frame_signal(clip.samples, stft_cfg.n_fft, stft_cfg.hop)
    expected_mfcc = seq.mean(axis=0)
    expected_zcr = float(np.mean(zcr(frames)))
    expected_rms = float(np.mean(rms(frames)))
    assert np.allclose(v[:40], expected_mfcc, atol=1e-12)
    assert abs(v[40] - expected_zcr) < 1e-12
    assert abs(v[41] - expected_rms) < 1e-12

    v_w, _ = extract(clip, mode="wavelet")
    dwt_vals, _ = wavelet_features(clip.samples)
    assert np.allclose(v_w[:18], dwt_vals, atol=1e-12)
    assert abs(v_w[18] - expected_zcr) < 1e-12
    assert abs(v_w[19] - expected_rms) < 1e-12


def test_extract_deterministic():
    clip = make_clip(4)
    a, _ = extract(clip, mode="combined")
    b, _ = extract(clip, mode="combined")
    assert np.array_equal(a, b)


def test_extract_distinguishes_signals():
    v1, _ = extract(make_clip(5), mode="mfcc")
    v2, _ = extract(make_clip(6), mode="mfcc")
    assert not np.array_equal(v1, v2)
