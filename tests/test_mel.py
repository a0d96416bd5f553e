"""Mel scale, filterbank, DCT, and MFCC checks. The DCT oracle is a direct
double-loop summation; the MFCC oracle recomposes the pipeline stagewise."""

import numpy as np
import pytest

from emorec.audio_io import AudioClip
from emorec.dsp.fourier import StftConfig, stft
from emorec.dsp.mel import (
    MelConfig,
    dct_ii,
    hz_to_mel,
    mel_filter_centers_hz,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    mfcc_summary,
)
from emorec.errors import DegenerateFilter
from emorec.rng import bulk_normal

rng = np.random.default_rng(77)


def dct_ii_direct(x, n_out):
    """Orthonormal DCT-II by explicit summation."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m = x.shape[1]
    out = np.zeros((x.shape[0], n_out))
    for k in range(n_out):
        scale = np.sqrt(1.0 / m) if k == 0 else np.sqrt(2.0 / m)
        for n in range(m):
            out[:, k] += x[:, n] * np.cos(np.pi * k * (2 * n + 1) / (2 * m))
        out[:, k] *= scale
    return out


def test_mel_scale_anchor_points():
    assert hz_to_mel(0.0) == 0.0
    assert abs(hz_to_mel(700.0) - 2595.0 * np.log10(2.0)) < 1e-12
    for f in (0.0, 100.0, 700.0, 4000.0, 8000.0):
        assert abs(mel_to_hz(hz_to_mel(f)) - f) < 1e-9


def test_mel_scale_monotone():
    f = np.linspace(0, 8000, 200)
    m = hz_to_mel(f)
    assert np.all(np.diff(m) > 0)


def test_dct_matches_direct_summation():
    x = rng.standard_normal((3, 40))
    got = dct_ii(x, 40)
    ref = dct_ii_direct(x, 40)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_dct_truncation():
    x = rng.standard_normal(32)
    assert np.max(np.abs(dct_ii(x, 13) - dct_ii_direct(x, 13)[0])) < 1e-10


def test_dct_is_orthonormal():
    basis = dct_ii(np.eye(24), 24)  # rows are transformed unit vectors
    gram = basis @ basis.T
    assert np.max(np.abs(gram - np.eye(24))) < 1e-12


def test_filter_centers_equispaced_in_mel():
    cfg = MelConfig(n_mels=40, fmin_hz=0.0, fmax_hz=8000.0)
    centers = mel_filter_centers_hz(cfg)
    assert centers.shape == (42,)
    assert centers[0] == 0.0
    assert abs(centers[-1] - 8000.0) < 1e-9
    mels = hz_to_mel(centers)
    steps = np.diff(mels)
    assert np.max(np.abs(steps - steps[0])) < 1e-9


def test_filterbank_shape_and_support():
    cfg = MelConfig(n_mels=40)
    fb = mel_filterbank(cfg, n_fft=1024, rate=16000)
    assert fb.shape == (40, 513)
    assert np.all(fb >= 0.0)
    assert np.all(fb <= 1.0 + 1e-12)
    centers = mel_filter_centers_hz(cfg)
    freqs = np.arange(513) * 16000 / 1024
    for i in (0, 17, 39):
        inside = (freqs > centers[i]) & (freqs < centers[i + 2])
        assert np.all(fb[i][~inside] == 0.0)
        assert fb[i].max() > 0.0


def test_filterbank_rejects_fmax_beyond_nyquist():
    with pytest.raises(ValueError):
        mel_filterbank(MelConfig(fmax_hz=9000.0), n_fft=1024, rate=16000)


def test_filterbank_degenerate_when_too_dense():
    # far more filters than spectral bins collapses triangle supports
    with pytest.raises(DegenerateFilter):
        mel_filterbank(MelConfig(n_mels=60, fmax_hz=4000.0), n_fft=64, rate=8000)


def test_filterbank_rejects_before_building():
    # collapsed band edges would divide by zero; a bank this large would not fit in memory
    with pytest.raises(DegenerateFilter):
        mel_filterbank(MelConfig(fmax_hz=1e-308), n_fft=1024, rate=16000)
    with pytest.raises(DegenerateFilter):
        mel_filterbank(MelConfig(n_mels=10**12, n_mfcc=1), n_fft=64, rate=16000)


def test_mfcc_stagewise_composition():
    rate = 16000
    x = bulk_normal(3, rate)
    stft_cfg = StftConfig()
    mel_cfg = MelConfig()
    got = mfcc(x, stft_cfg, mel_cfg, rate=rate)

    spec = stft(x, stft_cfg)
    power = (np.abs(spec) ** 2).T
    fb = mel_filterbank(mel_cfg, stft_cfg.n_fft, rate)
    logged = np.log(np.maximum(power @ fb.T, mel_cfg.log_floor))
    ref = dct_ii_direct(logged, mel_cfg.n_mfcc)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) < 1e-8


def test_mfcc_shape_and_clip_input():
    rate = 16000
    clip = AudioClip(bulk_normal(9, rate), rate)
    m = mfcc(clip.samples, rate=clip.sample_rate_hz)
    frames = (rate - 1024) // 256 + 1
    assert m.shape == (frames, 40)


def test_mfcc_zero_signal_hits_floor():
    m = mfcc(np.zeros(4096), rate=16000)
    # every mel energy clamps to the log floor, so frames are identical
    assert np.max(np.abs(m - m[0])) == 0.0
    assert abs(m[0, 0] - np.log(1e-10) * np.sqrt(40)) < 1e-9
    assert np.max(np.abs(m[0, 1:])) < 1e-9


def test_mfcc_amplitude_scaling_moves_only_c0():
    # doubling amplitude adds 2*ln(2) to every log-mel energy, which the
    # orthonormal DCT routes entirely into coefficient 0
    rate = 16000
    x = bulk_normal(4, rate)  # broadband keeps all bands above the floor
    a = mfcc(x, rate=rate)
    b = mfcc(2.0 * x, rate=rate)
    assert np.max(np.abs(b[:, 1:] - a[:, 1:])) < 1e-9
    expected_shift = 2.0 * np.log(2.0) * np.sqrt(40)
    assert np.max(np.abs(b[:, 0] - a[:, 0] - expected_shift)) < 1e-9


def test_mfcc_summary():
    m = rng.standard_normal((7, 40))
    values, schema = mfcc_summary(m)
    assert values.shape == (40,)
    assert np.allclose(values, m.mean(axis=0))
    assert schema[0] == "mfcc_00" and schema[-1] == "mfcc_39"
    with pytest.raises(ValueError):
        mfcc_summary(np.zeros((0, 40)))


def test_mel_config_validation():
    with pytest.raises(ValueError):
        MelConfig(n_mels=0)
    with pytest.raises(ValueError):
        MelConfig(fmin_hz=500.0, fmax_hz=100.0)
    with pytest.raises(ValueError):
        MelConfig(log_floor=0.0)
