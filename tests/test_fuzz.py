"""Seeded mutation fuzzing of the two untrusted inputs: WAV files and config
text. Whatever the mutation, read_wav may only raise an EmorecError (and
otherwise returns finite samples), and parsing plus validate may only raise
ConfigError. The mutations come from the package's own xoshiro256** stream,
so every case replays from its seed."""

import struct

import numpy as np

from emorec.audio_io import AudioClip, read_wav, write_wav
from emorec.config import parse_config_text
from emorec.errors import ConfigError, EmorecError
from emorec.rng import Xoshiro256StarStar

# WAVE_FORMAT_EXTENSIBLE subformat GUID of 16-bit PCM
PCM_GUID = b"\x01\x00\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def plain_wav(path) -> bytes:
    write_wav(path, AudioClip(np.sin(np.arange(64) / 3.0) * 0.5, 16000))
    return path.read_bytes()


def extensible_wav() -> bytes:
    payload = struct.pack("<64h", *range(-32, 32))
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 16000, 32000, 2, 16, 22, 16, 1) + PCM_GUID
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _write(path, blob: bytes):
    path.write_bytes(blob)
    return str(path)


def mutate_wav(blob: bytes, g: Xoshiro256StarStar) -> bytes:
    b = bytearray(blob)
    kind = g.randint(4)
    if kind == 0:  # header byte flips
        for _ in range(1 + g.randint(4)):
            b[g.randint(min(len(b), 72))] = g.randint(256)
    elif kind == 1:  # truncation
        del b[g.randint(len(b)) :]
    elif kind == 2:  # rewritten RIFF, fmt or data chunk size
        offset = (4, 16, blob.find(b"data") + 4)[g.randint(3)]
        value = (0, 1, 15, 39, 0xFFFFFFFF, g.randint(1 << 32))[g.randint(6)]
        struct.pack_into("<I", b, offset, value)
    else:  # rewritten format field: tag, channels, rate, bits, cbSize, subformat code
        offset, width = ((20, 2), (22, 2), (24, 4), (34, 2), (36, 2), (44, 2))[g.randint(6)]
        value = (0, 1, 2, 3, 0xFFFE, (1 << 8 * width) - 1, g.randint(1 << 8 * width))[g.randint(7)]
        struct.pack_into("<H" if width == 2 else "<I", b, offset, value)
    return bytes(b)


def test_wav_mutations_raise_only_emorec_errors(tmp_path):
    bases = [plain_wav(tmp_path / "plain.wav"), extensible_wav()]
    for base in bases:
        assert read_wav(_write(tmp_path / "base.wav", base)).samples.shape == (64,)
    g = Xoshiro256StarStar(2024)
    decoded = 0
    for case in range(1500):
        blob = mutate_wav(bases[case % 2], g)
        path = _write(tmp_path / "m.wav", blob)
        try:
            clip = read_wav(path)
        except EmorecError:
            continue
        decoded += 1
        assert np.all(np.isfinite(clip.samples)), f"case {case}: non-finite samples"
    assert 0 < decoded < 1500  # both outcomes were exercised


NUMERIC_KEYS = (
    "rate", "clip_seconds", "noise_rate", "stretch_rates", "pitch_semitones",
    "n_fft", "hop", "n_mels", "n_mfcc", "fmin_hz", "fmax_hz", "log_floor",
    "wavelet_levels", "test_fraction", "lstm_units", "epochs", "batch_size", "lr",
    "seed_augment", "seed_shuffle",
)
EXTREMES = (
    "0", "-1", "1", "1e308", "-1e308", "1e-308", "0.5", "2", str(2**31), str(2**63),
    str(10**30), "1" + "0" * 400, "nan", "inf", "", "x",
)
KNOWN_BAD = (
    "feature_mode = wavelet\nwavelet_levels = 13",
    "n_mels = 128\nn_fft = 256\nhop = 128",
)
TEXT_ALPHABET = "0123456789.-e=,# \nabnx_"


def base_text(root) -> str:
    return f"ravdess_root = {root}\nclip_seconds = 1.0\nn_fft = 512\nhop = 128\nwavelet_levels = 5\n"


def _validate(text: str) -> bool:
    try:
        parse_config_text(text).validate()
    except ConfigError:
        return False
    return True


def test_config_mutations_raise_only_config_errors(tmp_path):
    base = base_text(tmp_path)
    assert _validate(base)
    accepted = 0
    for key in NUMERIC_KEYS:
        for value in EXTREMES:
            accepted += _validate(base + f"{key} = {value}\n")
    for bad in KNOWN_BAD:
        assert not _validate(base + bad + "\n")
    g = Xoshiro256StarStar(7)
    for _ in range(1500):
        text = list(base)
        for _ in range(1 + g.randint(3)):
            pos = g.randint(len(text))
            op = g.randint(3)
            ch = TEXT_ALPHABET[g.randint(len(TEXT_ALPHABET))]
            if op == 0:
                text[pos] = ch
            elif op == 1:
                text.insert(pos, ch)
            else:
                del text[pos]
        accepted += _validate("".join(text))
    assert accepted > 0
