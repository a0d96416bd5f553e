"""Filter identities, Haar closed forms, perfect reconstruction, and band
energy conservation for the periodized DWT."""

import numpy as np
import pytest

from emorec.dsp.wavelet import (
    WaveletSpec,
    band_names,
    dwt_level,
    idwt_level,
    quadrature_mirror,
    wavedec,
    wavelet_features,
    waverec,
)
from emorec.errors import OddLength, TooManyLevels, TooShort

rng = np.random.default_rng(2024)

ROOT2 = np.sqrt(2.0)


def test_quadrature_mirror_identity():
    for family in ("haar", "db4"):
        spec = WaveletSpec(family=family)
        h = np.asarray(spec.dec_lo)
        g = np.asarray(spec.dec_hi)
        length = h.shape[0]
        expected = np.array([(-1.0) ** k * h[length - 1 - k] for k in range(length)])
        assert np.max(np.abs(g - expected)) < 1e-12
        # same relation via the standalone helper
        assert np.max(np.abs(quadrature_mirror(h) - expected)) < 1e-12


def test_filter_normalization():
    for family in ("haar", "db4"):
        spec = WaveletSpec(family=family)
        h = np.asarray(spec.dec_lo)
        g = np.asarray(spec.dec_hi)
        assert abs(h.sum() - ROOT2) < 1e-12
        assert abs(g.sum()) < 1e-12
        assert abs(np.sum(h * h) - 1.0) < 1e-12


def test_db4_even_shift_orthogonality():
    h = np.asarray(WaveletSpec(family="db4").dec_lo)
    shifted = np.zeros_like(h)
    shifted[:-2] = h[2:]
    assert abs(np.dot(h, shifted)) < 1e-12


def test_haar_closed_form():
    spec = WaveletSpec(family="haar", levels=1)
    a, d = dwt_level(np.array([3.0, 1.0]), spec)
    assert abs(a[0] - 4.0 / ROOT2) < 1e-12
    assert abs(d[0] - 2.0 / ROOT2) < 1e-12

    x = np.array([1.0, 2.0, 3.0, 4.0])
    a, d = dwt_level(x, spec)
    assert np.allclose(a, [3.0 / ROOT2, 7.0 / ROOT2], atol=1e-12)
    assert np.allclose(d, [-1.0 / ROOT2, -1.0 / ROOT2], atol=1e-12)


def test_single_level_round_trip():
    for family in ("haar", "db4"):
        spec = WaveletSpec(family=family)
        for n in (16, 64, 250):
            x = rng.standard_normal(n if n % 2 == 0 else n + 1)
            a, d = dwt_level(x, spec)
            assert a.shape[0] == d.shape[0] == x.shape[0] // 2
            back = idwt_level(a, d, spec)
            assert np.max(np.abs(back - x)) < 1e-10


def test_dwt_level_input_checks():
    spec = WaveletSpec(family="db4")
    with pytest.raises(OddLength):
        dwt_level(np.zeros(9), spec)
    with pytest.raises(TooShort):
        dwt_level(np.zeros(4), spec)  # shorter than the filter


def test_wavedec_band_shapes():
    spec = WaveletSpec(family="db4", levels=5)
    bands = wavedec(rng.standard_normal(256), spec)
    assert [b.shape[0] for b in bands] == [8, 8, 16, 32, 64, 128]
    assert band_names(5) == ["a5", "d5", "d4", "d3", "d2", "d1"]


def test_wavedec_too_many_levels():
    with pytest.raises(TooManyLevels):
        wavedec(np.zeros(96), WaveletSpec(family="db4", levels=5))


def test_multilevel_perfect_reconstruction():
    for family in ("haar", "db4"):
        for levels in (1, 2, 3, 5):
            spec = WaveletSpec(family=family, levels=levels)
            n = 2 ** (levels + 4)
            x = rng.standard_normal(n)
            rebuilt = waverec(wavedec(x, spec), spec)
            assert rebuilt.shape[0] == n
            assert np.max(np.abs(rebuilt - x)) < 1e-9


def test_reconstruction_with_padding():
    # 98 is not a multiple of 2^2: wavedec pads with zeros, waverec returns
    # the padded length, and the prefix must reproduce the input
    spec = WaveletSpec(family="db4", levels=2)
    x = rng.standard_normal(98)
    rebuilt = waverec(wavedec(x, spec), spec)
    assert rebuilt.shape[0] == 100
    assert np.max(np.abs(rebuilt[:98] - x)) < 1e-9
    assert np.max(np.abs(rebuilt[98:])) < 1e-9


def test_parseval_energy_conservation():
    for family in ("haar", "db4"):
        spec = WaveletSpec(family=family, levels=4)
        x = rng.standard_normal(512)
        bands = wavedec(x, spec)
        band_energy = sum(float(np.sum(b * b)) for b in bands)
        assert abs(band_energy - float(np.sum(x * x))) < 1e-8


def test_haar_dc_concentrates_in_approximation():
    spec = WaveletSpec(family="haar", levels=3)
    bands = wavedec(np.full(64, 5.0), spec)
    # constant signal: all detail coefficients vanish
    for d in bands[1:]:
        assert np.max(np.abs(d)) < 1e-12
    assert np.allclose(bands[0], 5.0 * ROOT2**3, atol=1e-12)


def test_wavelet_features_layout():
    x = rng.standard_normal(4096)
    values, schema = wavelet_features(x)
    assert values.shape == (18,)
    assert schema[0] == "dwt_a5_loge"
    assert schema[1] == "dwt_a5_absmean"
    assert schema[2] == "dwt_a5_std"
    assert schema[-3:] == ["dwt_d1_loge", "dwt_d1_absmean", "dwt_d1_std"]

    spec = WaveletSpec(levels=5)
    bands = wavedec(x, spec)
    assert abs(values[0] - np.log(1e-12 + np.sum(bands[0] ** 2))) < 1e-12
    assert abs(values[1] - np.mean(np.abs(bands[0]))) < 1e-12
    assert abs(values[2] - np.std(bands[0])) < 1e-12


def test_wavelet_features_deterministic():
    x = rng.standard_normal(2048)
    v1, _ = wavelet_features(x)
    v2, _ = wavelet_features(x)
    assert np.array_equal(v1, v2)


def test_spec_validation():
    with pytest.raises(ValueError):
        WaveletSpec(family="sym8")
    with pytest.raises(ValueError):
        WaveletSpec(levels=0)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda spec: idwt_level(np.zeros(4), np.zeros(3), spec), ValueError),
        (lambda spec: wavedec(np.zeros(4), spec), TooShort),
        (lambda spec: waverec([np.zeros(8)] * 2, spec), ValueError),
    ],
    ids=["idwt_band_lengths", "wavedec_shorter_than_filter", "waverec_band_count"],
)
def test_transforms_reject_inputs_they_cannot_use(call, error):
    with pytest.raises(error):
        call(WaveletSpec(family="db4", levels=3))
