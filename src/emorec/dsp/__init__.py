"""Signal-processing kernels: FFT/STFT, mel cepstra, wavelets, descriptors."""

from .fourier import StftConfig, fft, frame_signal, stft, window
from .mel import MelConfig, dct_ii, hz_to_mel, mel_filterbank, mel_to_hz, mfcc, mfcc_summary
from .features import MODES, extract, mfcc_sequence, rms, zcr
from .wavelet import (
    WaveletSpec,
    band_names,
    dwt_level,
    idwt_level,
    quadrature_mirror,
    wavedec,
    wavelet_features,
    waverec,
)

__all__ = [
    "StftConfig",
    "fft",
    "frame_signal",
    "window",
    "stft",
    "MelConfig",
    "hz_to_mel",
    "mel_to_hz",
    "mel_filterbank",
    "dct_ii",
    "mfcc",
    "mfcc_summary",
    "MODES",
    "extract",
    "mfcc_sequence",
    "zcr",
    "rms",
    "WaveletSpec",
    "quadrature_mirror",
    "band_names",
    "dwt_level",
    "idwt_level",
    "wavedec",
    "waverec",
    "wavelet_features",
]
