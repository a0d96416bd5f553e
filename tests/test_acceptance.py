"""Release gate: one test per shipping criterion, each printing a single
[PASS]/[FAIL] line (emitted with capture suspended so the report is visible
in ordinary pytest runs).

Tolerances and time budgets here are pinned on purpose — loosening them is a
release decision, not a refactor.
"""

import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from emorec.augment import AugmentPlan, add_noise, expand, pitch_shift, time_stretch
from emorec.audio_io import EMOTIONS, AudioClip, load_clip, scan_dataset_detailed
from emorec.cli import main as cli_main
from emorec.dataset import (
    SplitSpec,
    apply_standardizer,
    fit_standardizer,
    one_hot,
    split_indices,
    split_rows,
)
from emorec.dsp.features import extract, mfcc_sequence
from emorec.dsp.fourier import StftConfig, fft, frame_signal, stft, window
from emorec.dsp.mel import MelConfig, dct_ii, mel_filterbank, mfcc
from emorec.dsp.wavelet import WaveletSpec, quadrature_mirror, wavedec, waverec
from emorec.nn.layers import (
    Conv1DLayer,
    DenseLayer,
    DropoutLayer,
    FlattenLayer,
    LSTMLayer,
    MaxPool1DLayer,
    softmax_cross_entropy,
)
from emorec.nn.model import build_model, cnn_preset, lstm_preset
from emorec.nn.train import train
from emorec.synth import generate_corpus


@contextmanager
def criterion(name, cap=None):
    def emit(verdict):
        line = f"[{verdict}] {name}\n"
        if cap is not None:
            with cap.disabled():
                sys.stdout.write(line)
                sys.stdout.flush()
        else:
            sys.stdout.write(line)
            sys.stdout.flush()

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def tone(freq, seconds=1.0, rate=16000, amp=0.8):
    t = np.arange(int(rate * seconds)) / rate
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), rate)


def dominant_hz(samples, rate):
    n = samples.shape[0]
    mag = np.abs(np.fft.rfft(samples * np.hanning(n)))
    return np.argmax(mag) * rate / n


# -------------------------------------------------------------------------
# 1. spectral front end: FFT, DCT-II, and composed MFCC against references
# -------------------------------------------------------------------------


def test_spectral_front_end_accuracy(capfd):
    started = time.perf_counter()
    with criterion("spectral front end: fft<1e-9 dct<1e-10 mfcc<1e-8 in <30s", capfd):
        rng = np.random.default_rng(1001)

        for n in (1, 2, 4, 8, 32, 128, 512, 1024):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            k = np.arange(n)
            dft_matrix = np.exp(-2j * np.pi * np.outer(k, k) / n)
            naive = dft_matrix @ z
            assert np.max(np.abs(fft(z) - naive)) < 1e-9

        for rows, n in ((1, 8), (5, 40), (3, 17)):
            x = rng.standard_normal((rows, n))
            k = np.arange(n)
            direct = np.zeros((rows, n))
            for out_k in range(n):
                basis = np.cos(np.pi * (2 * k + 1) * out_k / (2 * n))
                scale = np.sqrt((1 if out_k == 0 else 2) / n)
                direct[:, out_k] = scale * (x * basis).sum(axis=1)
            assert np.max(np.abs(dct_ii(x, n) - direct)) < 1e-10

        clip = tone(300.0, seconds=1.5)
        clip = AudioClip(clip.samples + 0.1 * rng.standard_normal(clip.samples.shape[0]), 16000)
        scfg, mcfg = StftConfig(), MelConfig()
        got = mfcc(clip.samples, scfg, mcfg, rate=clip.sample_rate_hz)

        frames = frame_signal(clip.samples, scfg.n_fft, scfg.hop) * window("hann", scfg.n_fft)
        spec = np.fft.rfft(frames, axis=1)
        power = np.abs(spec) ** 2
        energies = power @ mel_filterbank(mcfg, scfg.n_fft, 16000).T
        logged = np.log(np.maximum(energies, mcfg.log_floor))
        n_mels = logged.shape[1]
        k = np.arange(n_mels)
        staged = np.zeros((logged.shape[0], mcfg.n_mfcc))
        for out_k in range(mcfg.n_mfcc):
            basis = np.cos(np.pi * (2 * k + 1) * out_k / (2 * n_mels))
            scale = np.sqrt((1 if out_k == 0 else 2) / n_mels)
            staged[:, out_k] = scale * (logged * basis).sum(axis=1)
        assert got.shape == staged.shape
        assert np.max(np.abs(got - staged)) < 1e-8

        assert time.perf_counter() - started < 30.0


# -------------------------------------------------------------------------
# 2. wavelet transform: perfect reconstruction, energy, mirror filters
# -------------------------------------------------------------------------


def test_wavelet_reconstruction(capfd):
    with criterion("wavelet: reconstruction<1e-9 energy<1e-8 mirror<1e-12", capfd):
        rng = np.random.default_rng(2002)
        for family in ("haar", "db4"):
            spec1 = WaveletSpec(family=family, levels=1)
            g = quadrature_mirror(spec1.dec_lo)
            h = spec1.dec_lo
            expected = np.array([(-1.0) ** k * h[len(h) - 1 - k] for k in range(len(h))])
            assert np.max(np.abs(g - expected)) < 1e-12

            for levels in range(1, 6):
                spec = WaveletSpec(family=family, levels=levels)
                min_n = spec.filter_len * 2 ** (levels - 1)
                for n in (min_n, 173 + min_n, 1024, 4096):
                    x = rng.standard_normal(n)
                    bands = wavedec(x, spec)
                    back = waverec(bands, spec)[:n]
                    assert np.max(np.abs(back - x)) < 1e-9
                    band_energy = sum(float(np.sum(b * b)) for b in bands)
                    padded = float(np.sum(x * x))  # zero pad adds no energy
                    assert abs(band_energy - padded) / max(1.0, padded) < 1e-8


# -------------------------------------------------------------------------
# 3. augmentation semantics and determinism
# -------------------------------------------------------------------------


def test_augmentation_behavior(capfd):
    started = time.perf_counter()
    with criterion("augmentation: identity/pitch/stretch semantics, deterministic, <60s", capfd):
        clip = tone(440.0, seconds=1.0)

        silent = add_noise(clip, 0.0, seed=9)
        assert np.array_equal(silent.samples, clip.samples)

        n1 = add_noise(clip, 0.035, seed=4)
        n2 = add_noise(clip, 0.035, seed=4)
        assert np.array_equal(n1.samples, n2.samples)
        assert not np.array_equal(n1.samples, add_noise(clip, 0.035, seed=5).samples)

        up = pitch_shift(clip, 12.0)
        assert up.samples.shape[0] == clip.samples.shape[0]
        f_in = dominant_hz(clip.samples, 16000)
        f_out = dominant_hz(up.samples, 16000)
        bin_hz = 16000 / clip.samples.shape[0]
        assert abs(f_out - 2 * f_in) <= bin_hz + 1e-9

        fast = time_stretch(clip, 2.0)
        assert abs(fast.samples.shape[0] - clip.samples.shape[0] / 2) <= 256
        again = time_stretch(clip, 2.0)
        assert np.array_equal(fast.samples, again.samples)

        p1 = pitch_shift(clip, -2.0)
        p2 = pitch_shift(clip, -2.0)
        assert np.array_equal(p1.samples, p2.samples)

        assert time.perf_counter() - started < 60.0


# -------------------------------------------------------------------------
# 4. gradient gate: central differences across every layer type
# -------------------------------------------------------------------------

FD_EPS = 1e-6
FD_TOL = 1e-4
FD_INSTANCES = 20


def _fd_worst(layer, x, seed=0):
    y = layer.forward(x, train=True, seed=seed)
    readout = np.random.default_rng(7).standard_normal(y.shape)
    dx = layer.backward(readout)

    def loss():
        return float(np.sum(layer.forward(x, train=True, seed=seed) * readout))

    worst = 0.0
    tensors = [(getattr(layer, n), getattr(layer, "d" + n)) for n in layer.param_names]
    tensors.append((x, dx))
    for p, g in tensors:
        flat, gflat = p.reshape(-1), g.reshape(-1)
        picks = np.random.default_rng(11).choice(
            flat.size, size=min(6, flat.size), replace=False
        )
        for j in picks:
            keep = flat[j]
            flat[j] = keep + FD_EPS
            up = loss()
            flat[j] = keep - FD_EPS
            down = loss()
            flat[j] = keep
            num = (up - down) / (2 * FD_EPS)
            worst = max(worst, abs(num - gflat[j]) / max(1.0, abs(num)))
    return worst


def test_gradient_gate(capfd):
    started = time.perf_counter()
    with criterion(f"gradients: every layer type, {FD_INSTANCES} instances, rel err<1e-4, <120s", capfd):
        rng = np.random.default_rng(4004)

        def build(layer, shape):
            layer.build(shape, seed=int(rng.integers(0, 2**31)))
            batch = int(rng.integers(1, 4))
            return layer, rng.standard_normal((batch, *shape))

        for i in range(FD_INSTANCES):
            length, c_in = int(rng.integers(4, 9)), int(rng.integers(1, 4))
            layer, x = build(
                Conv1DLayer(
                    filters=int(rng.integers(1, 5)),
                    kernel=int(rng.integers(1, 4)),
                    padding=("same", "valid")[i % 2],
                    activation=("relu", "linear")[(i // 2) % 2],
                ),
                (length, c_in),
            )
            assert _fd_worst(layer, x) < FD_TOL

            layer, x = build(
                MaxPool1DLayer(pool=int(rng.integers(2, 4)), stride=int(rng.integers(1, 3))),
                (int(rng.integers(5, 10)), int(rng.integers(1, 4))),
            )
            assert _fd_worst(layer, x) < FD_TOL

            layer, x = build(
                DropoutLayer(rate=float(rng.choice([0.2, 0.3, 0.5]))),
                (int(rng.integers(3, 8)),),
            )
            assert _fd_worst(layer, x, seed=int(rng.integers(0, 1000))) < FD_TOL

            layer, x = build(FlattenLayer(), (int(rng.integers(2, 6)), int(rng.integers(1, 4))))
            assert _fd_worst(layer, x) < FD_TOL

            layer, x = build(
                DenseLayer(units=int(rng.integers(1, 8)), activation=("relu", "linear")[i % 2]),
                (int(rng.integers(2, 9)),),
            )
            assert _fd_worst(layer, x) < FD_TOL

            layer, x = build(
                LSTMLayer(units=int(rng.integers(2, 6))),
                (int(rng.integers(2, 5)), int(rng.integers(1, 4))),
            )
            assert _fd_worst(layer, x) < FD_TOL

            # output stage: d(sum losses)/d logits == probs - onehot
            b, k = int(rng.integers(1, 5)), 8
            logits = rng.standard_normal((b, k))
            y = np.eye(k)[rng.integers(0, k, size=b)]
            _, probs = softmax_cross_entropy(logits, y)
            num = np.zeros_like(logits)
            for r in range(b):
                for c in range(k):
                    for sgn in (1.0, -1.0):
                        pert = logits.copy()
                        pert[r, c] += sgn * FD_EPS
                        losses, _ = softmax_cross_entropy(pert, y)
                        num[r, c] += sgn * float(losses.sum()) / (2 * FD_EPS)
            assert np.max(np.abs(num - (probs - y))) < FD_TOL

        assert time.perf_counter() - started < 120.0


# -------------------------------------------------------------------------
# 5. pipeline determinism: two identical runs, identical artifact bytes
# -------------------------------------------------------------------------


def test_pipeline_determinism(tmp_path, capfd):
    with criterion("pipeline: repeated runs byte-identical (report.csv, confusion.csv)", capfd):
        corpus = tmp_path / "corpus"
        generate_corpus(corpus, clips_per_class=2, seconds=1.0)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"ravdess_root = {corpus}\nclip_seconds = 1.0\nepochs = 2\nbatch_size = 16\n"
        )
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert cli_main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            outs.append(out)
        for artifact in ("report.csv", "confusion.csv"):
            b1 = (outs[0] / artifact).read_bytes()
            b2 = (outs[1] / artifact).read_bytes()
            assert b1 == b2, artifact


# -------------------------------------------------------------------------
# 6. synthetic separability: both presets learn the 8-class toy corpus
# -------------------------------------------------------------------------


def test_synthetic_separability(tmp_path, capfd):
    started = time.perf_counter()
    with criterion("separability: 160 clips, 30 epochs, cnn>=0.90 lstm>=0.80, <600s", capfd):
        corpus = tmp_path / "corpus"
        generate_corpus(corpus, clips_per_class=20, seconds=3.0)
        records, _ = scan_dataset_detailed(str(corpus), "ravdess")
        assert len(records) == 160

        vectors, sequences, labels = [], [], []
        for r in records:
            clip = load_clip(r.path, 16000)
            assert clip.samples.shape == (48000,)  # generated at exactly 3 s
            cepstra = mfcc_sequence(clip)
            vectors.append(extract(clip, ("mfcc",), cepstra)["mfcc"][0])
            sequences.append(cepstra)
            labels.append(r.emotion)
        x = np.vstack(vectors)
        seqs = np.stack(sequences)
        y = one_hot(labels)

        tr, te = split_indices(len(records), SplitSpec(0.25, seed=0, shuffle=True))

        std = fit_standardizer(x[tr])
        x_tr = apply_standardizer(std, x[tr])[:, :, None]
        x_te = apply_standardizer(std, x[te])[:, :, None]
        cnn = build_model(cnn_preset(x.shape[1]), (x.shape[1], 1), seed=0)
        cnn_report = train(cnn, x_tr, y[tr], x_te, y[te], epochs=30, batch_size=64)
        assert cnn_report.test_accuracy >= 0.90, cnn_report.test_accuracy

        n_coef = seqs.shape[2]
        frame_std = fit_standardizer(seqs[tr].reshape(-1, n_coef))
        s_tr = apply_standardizer(frame_std, seqs[tr].reshape(-1, n_coef)).reshape(seqs[tr].shape)
        s_te = apply_standardizer(frame_std, seqs[te].reshape(-1, n_coef)).reshape(seqs[te].shape)
        lstm = build_model(lstm_preset(128), seqs.shape[1:], seed=0)
        lstm_report = train(lstm, s_tr, y[tr], s_te, y[te], epochs=30, batch_size=64)
        assert lstm_report.test_accuracy >= 0.80, lstm_report.test_accuracy

        assert time.perf_counter() - started < 600.0


# -------------------------------------------------------------------------
# 7. data hygiene: standardization, one-hot, split replay, leakage guard
# -------------------------------------------------------------------------


def test_data_hygiene(capfd):
    with criterion("data hygiene: mean<1e-9 |std-1|<1e-6, one-hot, split replay, leakage", capfd):
        rng = np.random.default_rng(7007)
        x = 3.0 + 10.0 * rng.standard_normal((257, 23))
        std = fit_standardizer(x)
        z = apply_standardizer(std, x)
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-6

        labels = [EMOTIONS[i % 8] for i in range(40)]
        onehot = one_hot(labels)
        assert np.array_equal(onehot.sum(axis=1), np.ones(40))
        assert np.all((onehot == 0) | (onehot == 1))

        spec = SplitSpec(0.25, seed=0, shuffle=True)
        assert split_indices(100, spec) == split_indices(100, spec)
        tr, te = split_indices(100, spec)
        assert sorted(tr + te) == list(range(100))
        assert len(te) == 25

        from emorec.audio_io import ClipRecord

        originals = [
            ClipRecord(f"clip_{i:02d}.wav", "ravdess", EMOTIONS[i % 8], f"{i % 4}")
            for i in range(24)
        ]
        plan = AugmentPlan(noise_rate=0.035, stretch_rates=(0.8,), pitch_semitones=(2.0,), seed=0)
        expanded = expand(originals, plan)
        kept_train, kept_test = split_rows(expanded, SplitSpec(0.25, seed=0, shuffle=True))
        test_paths = set()
        for i in kept_test:
            assert expanded[i].provenance == "original"
            test_paths.add(expanded[i].path)
        train_paths = {expanded[i].path for i in kept_train}
        assert not train_paths & test_paths


# -------------------------------------------------------------------------
# 8. full-scale smoke: documented procedure, not an executed gate
# -------------------------------------------------------------------------


def test_full_scale_smoke_documented(capfd):
    with criterion("full-scale smoke: procedure documented in README", capfd):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        text = open(readme, encoding="utf-8").read().lower()
        assert "full-scale smoke" in text
        assert "compare" in text
