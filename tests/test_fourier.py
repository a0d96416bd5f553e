"""FFT/STFT checks against a naive DFT and numpy.fft as independent routes."""

import numpy as np
import pytest

from emorec.dsp.fourier import StftConfig, fft, frame_signal, stft, window
from emorec.errors import NonPowerOfTwoLength

rng = np.random.default_rng(1234)


def naive_dft(x):
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    k = np.arange(n)
    twiddle = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return twiddle @ x


@pytest.mark.parametrize("n", [1, 2, 4, 8, 32, 256, 1024])
def test_fft_matches_naive_dft(n):
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = fft(x)
    ref = naive_dft(x)
    assert np.max(np.abs(got - ref)) < 1e-9


def test_fft_matches_numpy():
    x = rng.standard_normal(512)
    assert np.max(np.abs(fft(x) - np.fft.fft(x))) < 1e-9


def test_fft_impulse_and_constant():
    impulse = np.zeros(16)
    impulse[0] = 1.0
    assert np.allclose(fft(impulse), np.ones(16), atol=1e-12)
    const = np.ones(16)
    spectrum = fft(const)
    assert abs(spectrum[0] - 16.0) < 1e-12
    assert np.max(np.abs(spectrum[1:])) < 1e-12


def test_fft_linearity():
    a = rng.standard_normal(64)
    b = rng.standard_normal(64)
    lhs = fft(2.0 * a + 3.0 * b)
    rhs = 2.0 * fft(a) + 3.0 * fft(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_parseval():
    x = rng.standard_normal(256)
    spectrum = fft(x)
    assert abs(np.sum(x * x) - np.sum(np.abs(spectrum) ** 2) / 256) < 1e-8


def test_ifft_round_trip():
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    assert np.max(np.abs(fft(fft(x), inverse=True) - x)) < 1e-12


def test_fft_batched_equals_rowwise():
    x = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
    batched = fft(x)
    for row in range(5):
        assert np.max(np.abs(batched[row] - fft(x[row]))) < 1e-12


def test_fft_rejects_non_power_of_two():
    with pytest.raises(NonPowerOfTwoLength):
        fft(np.zeros(12))


def test_window_values():
    hann4 = window("hann", 4)
    assert np.allclose(hann4, [0.0, 0.5, 1.0, 0.5], atol=1e-15)
    hamming4 = window("hamming", 4)
    assert np.allclose(hamming4, [0.08, 0.54, 1.0, 0.54], atol=1e-12)
    with pytest.raises(ValueError):
        window("blackman", 8)


def test_window_is_periodic():
    w = window("hann", 64)
    # periodic: w[k] == w[N-k] for k >= 1, and w[0] == 0
    assert w[0] == 0.0
    assert np.allclose(w[1:], w[:0:-1], atol=1e-15)


def test_frame_signal_slices():
    x = np.arange(10.0)
    frames = frame_signal(x, frame_len=4, hop=2)
    assert frames.shape == (4, 4)
    assert np.array_equal(frames[0], [0, 1, 2, 3])
    assert np.array_equal(frames[1], [2, 3, 4, 5])
    assert np.array_equal(frames[3], [6, 7, 8, 9])


def test_frame_signal_short_input_zero_pads():
    frames = frame_signal(np.array([1.0, 2.0]), frame_len=5, hop=2)
    assert frames.shape == (1, 5)
    assert np.array_equal(frames[0], [1.0, 2.0, 0.0, 0.0, 0.0])


def test_stft_shape_and_peak_bin():
    rate = 16000
    t = np.arange(rate) / rate
    x = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    cfg = StftConfig(n_fft=1024, hop=256)
    spec = stft(x, cfg)
    frames = (rate - 1024) // 256 + 1
    assert spec.shape == (513, frames)
    peak = int(np.argmax(np.abs(spec[:, frames // 2])))
    assert abs(peak - round(440.0 * 1024 / rate)) <= 1


@pytest.mark.parametrize("kind", ["hann", "hamming"])
def test_stft_matches_naive_dft(kind):
    cfg = StftConfig(n_fft=64, hop=16, window=kind)
    x = rng.standard_normal(300)
    spec = stft(x, cfg)
    frames = frame_signal(x, 64, 16) * window(kind, 64)
    assert spec.shape == (33, frames.shape[0])
    for t, frame in enumerate(frames):
        assert np.max(np.abs(spec[:, t] - naive_dft(frame)[:33])) < 1e-9


def test_stft_config_validation():
    with pytest.raises(ValueError):
        StftConfig(n_fft=1000, hop=256)
    with pytest.raises(ValueError):
        StftConfig(n_fft=1024, hop=0)


@pytest.mark.parametrize("frame_len, hop", [(0, 1), (4, 0)], ids=["frame_len", "hop"])
def test_frame_signal_rejects_a_non_positive_size(frame_len, hop):
    with pytest.raises(ValueError):
        frame_signal(np.zeros(8), frame_len, hop)
