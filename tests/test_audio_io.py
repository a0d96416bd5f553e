"""Container parsing, quantization scales, resampling, label conventions,
and corpus scanning. WAV fixtures are assembled byte by byte with struct so
the decoder is exercised against an independent writer."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from emorec import audio_io
from emorec.audio_io import (
    DATASETS,
    EMOTION_INDEX,
    EMOTIONS,
    MAX_WAV_RATE,
    MAX_WAV_SAMPLES,
    MIN_CLIP_RATE,
    AudioClip,
    ClipRecord,
    FrontEndMemo,
    _phase_cycle,
    crop_or_pad,
    load_clip,
    parse_label,
    read_manifest,
    read_wav,
    resample_ratio,
    scan_dataset_detailed,
    write_manifest,
    write_wav,
)
from emorec.errors import (
    EmptyAudio,
    MalformedContainer,
    UnknownLabelCode,
    UnsupportedEncoding,
)

rng = np.random.default_rng(4321)


# the subformat GUID of WAVE_FORMAT_EXTENSIBLE after its two-byte format code
GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def wav_bytes(payload, fmt=1, channels=1, rate=16000, bits=16, extra_chunks=b"", subformat=None):
    """A WAV file; with a 16-byte subformat GUID the fmt chunk is the 40-byte
    WAVE_FORMAT_EXTENSIBLE form (tag 0xFFFE) and `fmt` is ignored."""
    block = channels * bits // 8
    tag = fmt if subformat is None else 0xFFFE
    fmt_body = struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)
    if subformat is not None:
        fmt_body += struct.pack("<HHI", 22, bits, (1 << channels) - 1) + subformat
    header = b"".join([
        b"RIFF",
        struct.pack("<I", 4 + 8 + len(fmt_body) + len(extra_chunks) + 8 + len(payload)),
        b"WAVE",
        extra_chunks,
        b"fmt ",
        struct.pack("<I", len(fmt_body)),
        fmt_body,
        b"data",
        struct.pack("<I", len(payload)),
        payload,
    ])
    return header


def write_bytes(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)
    return str(path)


# ---- decoding ----


def test_constants():
    assert EMOTIONS == ("neutral", "calm", "happy", "sad", "angry", "fear", "disgust", "surprise")
    assert EMOTION_INDEX["angry"] == 4
    assert DATASETS == ("cremad", "ravdess", "savee", "tess")


def test_pcm16_scale(tmp_path):
    payload = struct.pack("<4h", 16384, -16384, 32767, -32768)
    clip = read_wav(write_bytes(tmp_path / "a.wav", wav_bytes(payload)))
    assert clip.sample_rate_hz == 16000
    assert np.allclose(clip.samples, [0.5, -0.5, 32767 / 32768, -1.0], atol=0)


def test_pcm8_scale(tmp_path):
    payload = bytes([128, 192, 64, 255])
    clip = read_wav(write_bytes(tmp_path / "b.wav", wav_bytes(payload, bits=8)))
    assert np.allclose(clip.samples, [0.0, 0.5, -0.5, 127 / 128], atol=0)


def test_pcm24_sign_extension(tmp_path):
    def pack24(v):
        return struct.pack("<i", v & 0xFFFFFF)[:3]

    payload = pack24(1 << 22) + pack24(-(1 << 22)) + pack24(0)
    clip = read_wav(write_bytes(tmp_path / "c.wav", wav_bytes(payload, bits=24)))
    assert np.allclose(clip.samples, [0.5, -0.5, 0.0], atol=0)


def test_pcm32_scale(tmp_path):
    payload = struct.pack("<2i", 1 << 29, -(1 << 29))
    clip = read_wav(write_bytes(tmp_path / "d.wav", wav_bytes(payload, bits=32)))
    assert np.allclose(clip.samples, [0.25, -0.25], atol=0)


def test_float32(tmp_path):
    payload = struct.pack("<3f", 0.25, -1.5, 0.0)
    clip = read_wav(write_bytes(tmp_path / "e.wav", wav_bytes(payload, fmt=3, bits=32)))
    assert np.allclose(clip.samples, [0.25, -1.5, 0.0], atol=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_float32_rejects_non_finite(tmp_path, bad):
    blob = wav_bytes(struct.pack("<3f", 0.25, bad, 0.0), fmt=3, bits=32)
    with pytest.raises(MalformedContainer):
        read_wav(write_bytes(tmp_path / "e2.wav", blob))


@pytest.mark.parametrize(
    "fmt, bits, payload",
    [
        (1, 16, struct.pack("<4h", 16384, -16384, 32767, -32768)),
        (3, 32, struct.pack("<3f", 0.25, -1.5, 0.0)),
    ],
    ids=["pcm16", "float32"],
)
def test_extensible_decodes_like_plain_tag(tmp_path, fmt, bits, payload):
    plain = read_wav(write_bytes(tmp_path / "p.wav", wav_bytes(payload, fmt=fmt, bits=bits)))
    ext_blob = wav_bytes(payload, bits=bits, subformat=struct.pack("<H", fmt) + GUID_TAIL)
    ext = read_wav(write_bytes(tmp_path / "x.wav", ext_blob))
    assert ext.sample_rate_hz == plain.sample_rate_hz
    assert np.array_equal(ext.samples, plain.samples)


def test_extensible_rejects_other_subformats(tmp_path):
    payload = struct.pack("<2h", 1, 2)
    for guid in (
        struct.pack("<H", 2) + GUID_TAIL,  # ADPCM
        struct.pack("<H", 1) + b"\x11" * 14,  # not a format-code GUID
    ):
        with pytest.raises(UnsupportedEncoding):
            read_wav(write_bytes(tmp_path / "u.wav", wav_bytes(payload, subformat=guid)))
    # the extensible tag without the 24 extension bytes names no subformat
    with pytest.raises(UnsupportedEncoding):
        read_wav(write_bytes(tmp_path / "v.wav", wav_bytes(payload, fmt=0xFFFE)))


def test_stereo_mean_mix(tmp_path):
    payload = struct.pack("<4h", 1000, 3000, -2000, 2000)
    clip = read_wav(write_bytes(tmp_path / "f.wav", wav_bytes(payload, channels=2)))
    assert np.allclose(clip.samples, [2000 / 32768, 0.0], atol=0)


def test_extra_chunks_skipped_with_word_alignment(tmp_path):
    # odd-sized LIST chunk forces the word-alignment path
    extra = b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00"
    payload = struct.pack("<2h", 100, -100)
    clip = read_wav(write_bytes(tmp_path / "g.wav", wav_bytes(payload, extra_chunks=extra)))
    assert clip.samples.shape == (2,)


def test_malformed_containers(tmp_path):
    with pytest.raises(MalformedContainer):
        read_wav(write_bytes(tmp_path / "h1.wav", b"RIFFxxxx"))
    with pytest.raises(MalformedContainer):
        read_wav(write_bytes(tmp_path / "h2.wav", b"FORM" + b"\x00" * 20))
    # truncated data chunk: declares more bytes than present
    blob = wav_bytes(struct.pack("<2h", 1, 2))
    blob = blob[:-2]
    with pytest.raises(MalformedContainer):
        read_wav(write_bytes(tmp_path / "h3.wav", blob))
    # no data chunk at all
    no_data = b"RIFF" + struct.pack("<I", 4 + 24) + b"WAVE" + b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16
    )
    with pytest.raises(MalformedContainer):
        read_wav(write_bytes(tmp_path / "h4.wav", no_data))


def test_unsupported_encodings(tmp_path):
    with pytest.raises(UnsupportedEncoding):
        read_wav(write_bytes(tmp_path / "i1.wav", wav_bytes(b"\x00" * 8, fmt=2)))
    with pytest.raises(UnsupportedEncoding):
        read_wav(write_bytes(tmp_path / "i2.wav", wav_bytes(b"\x00" * 8, channels=4)))
    with pytest.raises(UnsupportedEncoding):
        read_wav(write_bytes(tmp_path / "i3.wav", wav_bytes(b"\x00" * 8, bits=12)))


def test_empty_audio(tmp_path):
    with pytest.raises(EmptyAudio):
        read_wav(write_bytes(tmp_path / "j.wav", wav_bytes(b"")))


def test_write_read_round_trip(tmp_path):
    x = rng.uniform(-1.0, 1.0, 2000)
    clip = AudioClip(x, 16000)
    path = tmp_path / "k.wav"
    write_wav(path, clip)
    back = read_wav(path)
    assert back.sample_rate_hz == 16000
    assert np.max(np.abs(back.samples - x)) <= 2.0**-15

    # decode is a pure function of the bytes
    again = read_wav(path)
    assert np.array_equal(back.samples, again.samples)

    # a quantized signal round-trips bit-identically
    write_wav(tmp_path / "k2.wav", back)
    assert np.array_equal(read_wav(tmp_path / "k2.wav").samples, back.samples)


def test_write_wav_rejects_clip_over_riff_limit(tmp_path):
    # the RIFF size field 36 + 2n is a 32-bit unsigned int
    assert 36 + 2 * MAX_WAV_SAMPLES <= 2**32 - 1 < 36 + 2 * (MAX_WAV_SAMPLES + 1)
    # a broadcast view allocates nothing: the check runs before the samples are read
    clip = AudioClip(np.broadcast_to(0.0, MAX_WAV_SAMPLES + 1), 16000)
    path = tmp_path / "long.wav"
    with pytest.raises(ValueError, match="at most"):
        write_wav(path, clip)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_wav_rejects_non_finite_samples(tmp_path, bad):
    # the int16 cast would write NaN as silence and inf as full scale
    path = tmp_path / "bad.wav"
    with pytest.raises(ValueError, match="finite"):
        write_wav(path, AudioClip([0.1, bad, 0.2], 16000))
    assert os.listdir(tmp_path) == []


def test_write_wav_rate_limit_is_the_byte_rate_field(tmp_path):
    # the byte rate, 2 * rate for 16-bit mono, is a 32-bit unsigned int
    assert 2 * MAX_WAV_RATE <= 2**32 - 1 < 2 * (MAX_WAV_RATE + 1)
    path = tmp_path / "fast.wav"
    with pytest.raises(ValueError, match="rate of at most"):
        write_wav(path, AudioClip(np.zeros(2), MAX_WAV_RATE + 1))
    assert not path.exists()
    write_wav(path, AudioClip(np.zeros(2), MAX_WAV_RATE))
    rate, byte_rate = struct.unpack_from("<II", path.read_bytes(), 24)
    assert (rate, byte_rate) == (MAX_WAV_RATE, 2 * MAX_WAV_RATE)


# ---- resampling ----


def test_resample_identity(tmp_path, monkeypatch):
    # a clip already at the pipeline rate is the decoded clip, unresampled
    path = tmp_path / "same.wav"
    write_wav(path, AudioClip(0.5 * rng.uniform(-1, 1, 1000), 16000))

    def no_resample(x, ratio):
        raise AssertionError("resampled a clip already at the pipeline rate")

    monkeypatch.setattr(audio_io, "resample_ratio", no_resample)
    out = load_clip(path, 16000)
    assert out.sample_rate_hz == 16000
    assert np.array_equal(out.samples, read_wav(path).samples)


def test_resample_output_length():
    x = rng.standard_normal(48000)
    assert resample_ratio(x, 1.0 / 3.0).shape[0] == 16000
    assert resample_ratio(x, 0.5).shape[0] == 24000
    assert resample_ratio(np.zeros(101), 2.0).shape[0] == 202


def test_resample_dc_preserved():
    x = np.full(4000, 0.7)
    y = resample_ratio(x, 16000 / 44100)
    interior = y[30:-30]
    assert np.max(np.abs(interior - 0.7)) < 1e-3


def test_resample_tone_frequency():
    rate_in, rate_out = 48000, 16000
    t = np.arange(rate_in) / rate_in
    x = np.sin(2 * np.pi * 440.0 * t)
    y = resample_ratio(x, rate_out / rate_in)
    assert y.shape[0] == rate_out
    seg = y[2048 : 2048 + 8192] * np.hanning(8192)
    spectrum = np.abs(np.fft.rfft(seg))
    peak_hz = np.argmax(spectrum) * rate_out / 8192
    assert abs(peak_hz - 440.0) < 4.0
    # amplitude survives within a few percent mid-stream
    mid = y[1000:-1000]
    assert abs(np.max(np.abs(mid)) - 1.0) < 0.05


def test_crop_or_pad():
    x = np.arange(10.0)
    padded = crop_or_pad(x, 20)
    assert padded.shape == (20,)
    assert np.array_equal(padded[:10], x)
    assert np.all(padded[10:] == 0.0)
    trimmed = crop_or_pad(x, 5)
    assert np.array_equal(trimmed, np.arange(5.0))
    assert not np.shares_memory(crop_or_pad(x, 10), x)


def test_load_clip(tmp_path):
    x = 0.3 * np.sin(2 * np.pi * 200 * np.arange(22050) / 22050)
    write_wav(tmp_path / "m.wav", AudioClip(x, 22050))
    clip = load_clip(tmp_path / "m.wav", 16000)
    # decoded and resampled, never cropped: the crop to clip_seconds happens
    # once per record, after augmentation
    assert clip.sample_rate_hz == 16000
    assert clip.samples.shape == (16000,)


@pytest.mark.parametrize("rate, frames", [(10, 100), (1, 100_000)])
def test_load_clip_rejects_a_rate_below_telephone_speech(tmp_path, monkeypatch, rate, frames):
    # at 16 kHz the 244-byte 10 Hz file would decode to 160000 samples and
    # the 200 KB 1 Hz file to 1.6e9 (12.8 GB): the rate must be refused
    # before the resampler allocates anything
    def no_resample(x, ratio):
        raise AssertionError("resampled a clip whose rate should have been refused")

    monkeypatch.setattr(audio_io, "resample_ratio", no_resample)
    path = tmp_path / "slow.wav"
    path.write_bytes(wav_bytes(np.zeros(frames, "<i2").tobytes(), rate=rate))
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedEncoding) as info:
            load_clip(path, 16000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"sample rate {rate} Hz is below 8000 Hz: {path}"
    assert peak < 4e6


def test_load_clip_accepts_telephone_speech(tmp_path):
    write_wav(tmp_path / "phone.wav", AudioClip(np.zeros(800), MIN_CLIP_RATE))
    clip = load_clip(tmp_path / "phone.wav", 16000)
    assert MIN_CLIP_RATE == 8000 and clip.samples.shape == (1600,)


# ---- labels ----


def test_ravdess_labels():
    emotion, speaker = parse_label("03-01-05-01-01-01-01.wav", "ravdess")
    assert (emotion, speaker) == ("angry", "01")
    assert parse_label("03-01-01-01-02-02-07.wav", "ravdess")[0] == "neutral"
    assert parse_label("03-01-08-02-01-01-24.wav", "ravdess") == ("surprise", "24")
    with pytest.raises(UnknownLabelCode):
        parse_label("03-01-09-01-01-01-01.wav", "ravdess")
    with pytest.raises(UnknownLabelCode):
        parse_label("notravdess.wav", "ravdess")


def test_cremad_labels():
    assert parse_label("1001_DFA_ANG_XX.wav", "cremad") == ("angry", "1001")
    assert parse_label("1090_ITS_NEU_XX.wav", "cremad") == ("neutral", "1090")
    assert parse_label("1002_IEO_DIS_HI.wav", "cremad")[0] == "disgust"
    with pytest.raises(UnknownLabelCode):
        parse_label("1001_DFA_CAL_XX.wav", "cremad")


def test_savee_labels():
    assert parse_label("DC_a01.wav", "savee") == ("angry", "DC")
    assert parse_label("JE_sa06.wav", "savee")[0] == "sad"
    assert parse_label("KL_su12.wav", "savee")[0] == "surprise"
    assert parse_label("JK_n22.wav", "savee")[0] == "neutral"
    assert parse_label("DC_h03.wav", "savee")[0] == "happy"
    with pytest.raises(UnknownLabelCode):
        parse_label("DC_x01.wav", "savee")


def test_tess_labels():
    assert parse_label("OAF_back_ps.wav", "tess") == ("surprise", "OAF")
    assert parse_label("YAF_dog_angry.wav", "tess") == ("angry", "YAF")
    assert parse_label("OAF_young_fear.wav", "tess")[0] == "fear"
    with pytest.raises(UnknownLabelCode):
        parse_label("OAF_word_bored.wav", "tess")


def test_parse_label_rejects_unknown_dataset():
    with pytest.raises(ValueError):
        parse_label("x.wav", "iemocap")


def test_clip_record_validates_emotion():
    with pytest.raises(UnknownLabelCode):
        ClipRecord(path="x.wav", dataset="ravdess", emotion="bored")


# ---- scanning / manifest ----


def make_tree(tmp_path):
    root = tmp_path / "rav"
    (root / "Actor_01").mkdir(parents=True)
    (root / "Actor_02").mkdir()
    tone = AudioClip(0.1 * np.sin(np.arange(4000) / 5.0), 16000)
    write_wav(root / "Actor_01" / "03-01-03-01-01-01-01.wav", tone)
    write_wav(root / "Actor_02" / "03-01-04-01-01-01-02.wav", tone)
    write_wav(root / "Actor_02" / "03-01-99-01-01-01-02.wav", tone)  # bad label
    (root / "Actor_01" / "readme.txt").write_text("not audio")
    (root / "Actor_01" / "broken.wav").write_bytes(b"RIFFjunk")
    return root


def test_scan_dataset_detailed(tmp_path):
    root = make_tree(tmp_path)
    records, skipped = scan_dataset_detailed(root, "ravdess")
    assert [r.emotion for r in records] == ["happy", "sad"]
    assert all(r.provenance == "original" for r in records)
    assert all(r.dataset == "ravdess" for r in records)
    skipped_names = {os.path.basename(p) for p, _ in skipped}
    assert skipped_names == {"03-01-99-01-01-01-02.wav", "broken.wav"}
    # deterministic ordering
    again, _ = scan_dataset_detailed(root, "ravdess")
    assert [r.path for r in again] == [r.path for r in records]


def test_scan_dataset_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        scan_dataset_detailed(tmp_path / "missing", "ravdess")
    with pytest.raises(ValueError, match="unknown dataset"):
        scan_dataset_detailed(tmp_path, "iemocap")
    # an empty root is an empty scan, not an error: the caller decides
    empty = tmp_path / "empty"
    empty.mkdir()
    assert scan_dataset_detailed(empty, "ravdess") == ([], [])


def test_manifest_round_trip(tmp_path):
    root = make_tree(tmp_path)
    records, _ = scan_dataset_detailed(root, "ravdess")
    path = tmp_path / "manifest.csv"
    write_manifest(records, path)
    back = read_manifest(path)
    assert back == records
    header = path.read_text().splitlines()[0]
    assert header == "path,dataset,emotion,speaker,provenance"


def test_read_manifest_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_manifest(path)


def direct_resample(x, ratio):
    """The resampler's kernel evaluated directly: np.sinc times a Hann window
    over 64 taps around floor(t), normalized per output."""
    out_len = int(np.floor(x.shape[0] * ratio + 0.5))
    cutoff = min(1.0, ratio)
    xp = np.concatenate([np.zeros(33), x, np.zeros(33)])
    t = np.arange(out_len) / ratio
    idx = np.floor(t).astype(np.intp)[:, None] + np.arange(-31, 33)[None, :]
    d = idx - t[:, None]
    w = cutoff * np.sinc(cutoff * d) * (0.5 + 0.5 * np.cos(np.pi * d / 32))
    w /= w.sum(axis=1, keepdims=True)
    return np.sum(w * xp[idx + 33], axis=1)


@pytest.mark.parametrize(
    "ratio",
    [
        1 / 3,
        2 / 3,
        1 / 6,
        16000 / 44100,
        2 ** (2 / 12),
        2 ** (-2 / 12),
        0.5,  # every output sits on an input sample: the r - f == 0 tap
        2.0,  # every other output does
        1 / (2 - 1e-9),  # output 1 lands 1e-9 below an input sample: f -> 1
    ],
)
def test_resample_matches_direct_oracle(ratio):
    gen = np.random.default_rng(2024)
    # out_len 1, both sides of the 4096-output chunk edge, and three chunks
    for target in (1, 4095, 4096, 4097, 2 * 4096 + 123):
        n = max(1, int(np.ceil((target - 0.5) / ratio)))
        while int(np.floor(n * ratio + 0.5)) < target:
            n += 1
        x = gen.standard_normal(n)
        got = resample_ratio(x, ratio)
        want = direct_resample(x, ratio)
        assert got.shape == want.shape and got.shape[0] - target < 2
        assert np.max(np.abs(got - want)) < 1e-12


def test_resample_matches_direct_oracle_far_from_start():
    # 16000/44100 has no phase cycle within 64 outputs; its phases come from
    # the float positions i / ratio, which drift from the exact 160/441 ones
    x = np.random.default_rng(2025).standard_normal(71663)
    got = resample_ratio(x, 16000 / 44100)
    want = direct_resample(x, 16000 / 44100)
    assert got.shape == want.shape == (26000,)
    assert np.max(np.abs(got - want)) < 1e-12


def test_resample_memory_scales_with_chunk():
    # 10 s at 48 kHz to 16 kHz: the temporaries must follow the chunk, not the clip
    x = np.random.default_rng(7).standard_normal(480000)
    tracemalloc.start()
    try:
        resample_ratio(x, 16000 / 48000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def chunk_loop_resample(x, ratio):
    """resample_ratio as it was before repeating phases shared weight rows:
    every output's 64 weights built per chunk of 4096 outputs."""
    n = x.shape[0]
    out_len = int(np.floor(n * ratio + 0.5))
    pc, ph = np.pi * min(1.0, ratio), np.pi / 32
    xp = np.concatenate([np.zeros(33), x, np.zeros(33)])
    windows = np.lib.stride_tricks.sliding_window_view(xp, 64)
    r = np.arange(-31, 33, dtype=np.float64)
    sin_c, cos_c = np.sin(pc * r), np.cos(pc * r)
    cos_h, sin_h = np.cos(ph * r), np.sin(ph * r)
    taps = np.stack([sin_c, sin_c * cos_h, sin_c * sin_h, cos_c, cos_c * cos_h, cos_c * sin_h])
    out = np.empty(out_len)
    for start in range(0, out_len, 4096):
        stop = min(start + 4096, out_len)
        t = np.arange(start, stop) / ratio
        base = np.floor(t).astype(np.intp)
        f = t - base
        a, b = np.cos(pc * f), np.sin(pc * f)
        cf, sf = np.cos(ph * f), np.sin(ph * f)
        coef = np.stack([a, a * cf, a * sf, -b, -b * cf, -b * sf], axis=1)
        w = coef @ taps
        with np.errstate(invalid="ignore"):
            w /= r - f[:, None]
        w[f == 0.0, 31] = 2.0 * pc
        d = 1.0 - f
        w[:, 32] = np.sin(pc * d) * (1.0 + np.cos(ph * d)) / d
        out[start:stop] = np.einsum("ij,ij->i", w, windows[base + 2]) / w.sum(axis=1)
    return out


@pytest.mark.parametrize(
    "ratio, period",
    [(1 / 3, 1), (1 / 2, 1), (2.0, 2), (2 / 3, 2), (1 / 6, 1)],
)
def test_repeating_phases_match_chunk_loop(ratio, period):
    gen = np.random.default_rng(99)
    # one output (fewer than the period at 2/3), both sides of the chunk
    # edge, and 480000 samples
    lengths = [int(np.ceil(m / ratio)) for m in (0.5, 4095, 4096, 4097, 2 * 4096 + 5)]
    for n in lengths + [480000]:
        x = gen.standard_normal(n)
        cycle = _phase_cycle(ratio, int(np.floor(n * ratio + 0.5)))
        assert cycle is not None and cycle[0].shape[0] == period
        assert np.array_equal(resample_ratio(x, ratio), chunk_loop_resample(x, ratio))


@pytest.mark.parametrize(
    "ratio",
    [
        16000 / 44100,
        16000 / 22050,
        16000 / 176400,  # output 40 sits on an input sample, but output 41 breaks the cycle
        2 ** (2 / 12),
        2 ** (-2 / 12),
    ],
)
def test_other_ratios_keep_the_chunk_loop(ratio):
    x = np.random.default_rng(100).standard_normal(20000)
    assert _phase_cycle(ratio, int(np.floor(x.shape[0] * ratio + 0.5))) is None
    assert np.array_equal(resample_ratio(x, ratio), chunk_loop_resample(x, ratio))


@pytest.mark.parametrize(
    "ratio", [2 ** (1 / 12), 2 ** (-1 / 12), 2 ** (2 / 12), 2 ** (-2 / 12), 16000 / 44100]
)
def test_memoized_weights_match_chunk_loop(ratio):
    gen = np.random.default_rng(101)
    # a first request, a longer one past a chunk edge, a shorter one, and
    # one past the cap, whose chunks from 12288 on are built per call
    clips = [gen.standard_normal(int(np.ceil(n / ratio))) for n in (5000, 8500, 3000, 20000)]
    memos = []
    for order in (clips, clips[::-1]):
        memo = FrontEndMemo(9000)
        for x in order:
            assert np.array_equal(resample_ratio(x, ratio, memo), chunk_loop_resample(x, ratio))
        # ceil(cap / 4096) full chunks, whatever the order of the requests
        assert sorted(memo.chunks) == [(ratio, 0), (ratio, 4096), (ratio, 8192)]
        assert all(len(sums) == 4096 for _, sums, _ in memo.chunks.values())
        assert not any(a.flags.writeable for chunk in memo.chunks.values() for a in chunk)
        memos.append(memo)
    first, second = (
        {key: b"".join(a.tobytes() for a in chunk) for key, chunk in memo.chunks.items()}
        for memo in memos
    )
    assert first == second


@pytest.mark.parametrize("ratio", [1 / 3, 2 / 3])
def test_repeating_phases_never_touch_the_memo(ratio):
    memo = FrontEndMemo(48000)
    x = np.random.default_rng(102).standard_normal(30000)
    assert np.array_equal(resample_ratio(x, ratio, memo), chunk_loop_resample(x, ratio))
    assert memo.chunks == {}


@pytest.mark.parametrize("ratio", [float("nan"), -1.0, 0.0, float("inf"), -float("inf")])
def test_resample_rejects_bad_ratio(ratio):
    with pytest.raises(ValueError, match="finite and > 0"):
        resample_ratio(np.ones(100), ratio)


@pytest.mark.parametrize("shape", [(), (10, 2), (2, 10, 1)])
def test_resample_rejects_non_1d_input(shape):
    with pytest.raises(ValueError, match="1-D"):
        resample_ratio(np.ones(shape), 0.5)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: resample_ratio(np.zeros(1), 0.1), EmptyAudio),
        (lambda: AudioClip(np.zeros(4), 0), ValueError),
        (lambda: AudioClip(np.zeros(4), -16000), ValueError),
    ],
    ids=["resample_to_nothing", "clip_rate_zero", "clip_rate_negative"],
)
def test_guards_reject_bad_arguments(call, error):
    with pytest.raises(error):
        call()


def test_read_manifest_rejects_a_short_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("path,dataset,emotion,speaker,provenance\na.wav,ravdess,happy,01\n")
    with pytest.raises(ValueError, match="bad manifest row"):
        read_manifest(path)
