"""End-to-end CLI coverage driven through main(argv) in-process.

A session-scoped synthetic corpus (conftest.tiny_corpus) keeps these fast;
training cells run at tiny epoch counts since convergence is covered
elsewhere."""

import csv
import json
import os

import pytest

from emorec.cli import main


@pytest.fixture(scope="session")
def cfg_path(tiny_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    path.write_text(
        f"ravdess_root = {tiny_corpus}\n"
        "clip_seconds = 1.0\n"
        "epochs = 2\n"
        "batch_size = 16\n"
        "stretch_rates = 0.8\n"
        "pitch_semitones = 2\n"
    )
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert "usage" in (captured.out + captured.err).lower()


def test_scan(cfg_path, tmp_path, capsys):
    out = tmp_path / "scan"
    assert main(["scan", "--config", cfg_path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "scanned 24 clips" in stdout

    manifest = read_csv(out / "manifest.csv")
    assert manifest[0] == ["path", "dataset", "emotion", "speaker", "provenance"]
    assert len(manifest) == 25
    assert all(row[4] == "original" for row in manifest[1:])

    counts = read_csv(out / "class_counts.csv")
    assert counts[0] == ["emotion", "count"]
    assert all(row[1] == "3" for row in counts[1:])


def test_scan_without_out_still_prints(cfg_path, capsys):
    assert main(["scan", "--config", cfg_path]) == 0
    assert "scanned" in capsys.readouterr().out


def test_augment_manifest(cfg_path, tmp_path):
    out = tmp_path / "aug"
    assert main(["augment", "--config", cfg_path, "--out", str(out)]) == 0
    rows = read_csv(out / "manifest.csv")
    assert rows[0] == ["path", "dataset", "emotion", "speaker", "provenance"]
    # noise + one stretch + one pitch per original: 24 * 4
    assert len(rows) == 1 + 24 * 4
    variants = {row[4].split("(")[0] for row in rows[1:]}
    assert variants == {"original", "noise", "stretch", "pitch"}


def test_extract_features(cfg_path, tmp_path):
    out = tmp_path / "feats"
    assert main(["extract", "--config", cfg_path, "--out", str(out)]) == 0
    rows = read_csv(out / "features.csv")
    header = rows[0]
    assert len(header) == 42 + 2  # mfcc schema + emotion + provenance
    assert header[0] == "mfcc_00"
    assert header[40:] == ["zcr", "rms", "emotion", "provenance"]
    assert len(rows) == 1 + 24 * 4
    float(rows[1][0])  # numeric payload parses


def test_run_writes_all_artifacts(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    for name in (
        "resolved_config.txt",
        "MANIFEST",
        "manifest.csv",
        "features.csv",
        "split.json",
        "train.csv",
        "test.csv",
        "standardizer.json",
        "model.ckpt",
        "report.csv",
        "timing.csv",
        "confusion.csv",
        "notes.txt",
    ):
        assert (out / name).exists(), name

    manifest_lines = (out / "MANIFEST").read_text().splitlines()
    assert all(line.endswith(" ok") for line in manifest_lines if line)

    split = json.loads((out / "split.json").read_text())
    assert split["test_fraction"] == 0.25
    assert split["shuffle"] is True
    assert not set(split["train"]) & set(split["test"])

    report = read_csv(out / "report.csv")
    assert report[0] == ["epoch", "loss", "train_acc", "test_acc"]
    assert len(report) == 3  # 2 epochs

    notes = (out / "notes.txt").read_text()
    assert "model = cnn" in notes and "feature_mode = mfcc" in notes


def test_run_determinism_byte_identical(cfg_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", cfg_path, "--out", str(out1), "--quiet"]) == 0
    assert main(["run", "--config", cfg_path, "--out", str(out2), "--quiet"]) == 0
    for name in ("report.csv", "confusion.csv", "features.csv", "model.ckpt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_seed_override_changes_model(cfg_path, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    base = ["run", "--config", cfg_path, "--quiet"]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2), "--seed-override", "init=5"]) == 0
    assert (out1 / "model.ckpt").read_bytes() != (out2 / "model.ckpt").read_bytes()
    # data pipeline seeds untouched -> identical features
    assert (out1 / "features.csv").read_bytes() == (out2 / "features.csv").read_bytes()


def test_bad_seed_override_exits_2(cfg_path, tmp_path):
    assert (
        main(
            ["run", "--config", cfg_path, "--out", str(tmp_path / "x"), "--seed-override", "foo=1"]
        )
        == 2
    )


def test_missing_config_exits_2(tmp_path):
    assert main(["scan", "--config", str(tmp_path / "none.cfg")]) == 2


def test_missing_root_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"ravdess_root = {tmp_path}/absent\n")
    assert main(["scan", "--config", str(cfg)]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = yes\n")
    assert main(["scan", "--config", str(cfg)]) == 2


def test_invalid_config_exits_2_with_one_error_line(tiny_corpus, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\nhop = 2048\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_viz_by_emotion(cfg_path, tmp_path):
    out = tmp_path / "viz"
    assert main(["viz", "--config", cfg_path, "--out", str(out), "emotion=angry"]) == 0
    assert (out / "waveplot.csv").exists()
    assert (out / "spectrogram.pgm").exists()
    assert (out / "spectrogram.csv").exists()
    assert (out / "class_counts.csv").exists()
    assert open(out / "spectrogram.pgm", "rb").read(3) == b"P5\n"
    # default decimation budget
    assert len(read_csv(out / "waveplot.csv")) <= 1 + 2000


def test_viz_selector_errors(cfg_path, tmp_path):
    out = str(tmp_path / "v")
    assert main(["viz", "--config", cfg_path, "--out", out, "angry"]) == 2  # no '='
    assert main(["viz", "--config", cfg_path, "--out", out, "emotion=bored"]) == 2
    assert main(["viz", "--config", cfg_path, "--out", out, "path=zzz-no-such"]) == 1


def test_synth_command(tmp_path):
    out = tmp_path / "synth"
    args = ["synth", "--out", str(out), "--clips-per-class", "1", "--seconds", "0.2"]
    assert main(args) == 0
    assert len(os.listdir(out)) == 8
    assert main(["synth", "--out", str(out), "--clips-per-class", "0"]) == 2


def test_compare_grid(tiny_corpus, tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        f"ravdess_root = {tiny_corpus}\n"
        "clip_seconds = 1.0\n"
        "epochs = 1\n"
        "batch_size = 16\n"
        "augment = false\n"
        "feature_modes = mfcc, wavelet\n"
        "models = cnn\n"
    )
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0

    rows = read_csv(out / "comparison.csv")
    assert rows[0] == ["feature_mode", "model", "test_accuracy", "epochs", "seconds_per_epoch"]
    assert [(r[0], r[1]) for r in rows[1:]] == [("mfcc", "cnn"), ("wavelet", "cnn")]

    recalls = read_csv(out / "per_class_recall.csv")
    assert recalls[0] == ["feature_mode", "model", "emotion", "recall"]
    assert len(recalls) == 1 + 2 * 8

    for mode in ("mfcc", "wavelet"):
        for name in ("report", "timing", "confusion"):
            assert (out / f"{name}_{mode}_cnn.csv").exists()
