"""End-to-end CLI coverage driven through main(argv) in-process.

A session-scoped synthetic corpus (conftest.tiny_corpus) keeps these fast;
training cells run at tiny epoch counts since convergence is covered
elsewhere."""

import csv
import json
import os

import numpy as np
import pytest

from emorec import cli
from emorec.cli import main
from emorec.dataset import read_standardizer
from emorec.nn import load_checkpoint


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


def assert_stages_ok(out, stages):
    assert (out / "MANIFEST").read_text().splitlines() == [f"{s} ok" for s in stages]
    assert (out / "resolved_config.txt").exists()


def non_timing_artifacts(out):
    """Every artifact but timing*.csv, with comparison.csv's
    seconds_per_epoch column dropped: the bytes two identical runs share."""
    artifacts = {}
    for name in sorted(os.listdir(out)):
        if name.startswith("timing"):
            continue
        if name == "comparison.csv":
            rows = read_csv(out / name)
            col = rows[0].index("seconds_per_epoch")
            artifacts[name] = [r[:col] + r[col + 1 :] for r in rows]
        else:
            artifacts[name] = (out / name).read_bytes()
    return artifacts


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
    assert_stages_ok(out, ["scan", "augment", "extract"])


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
    a1, a2 = non_timing_artifacts(out1), non_timing_artifacts(out2)
    assert len(a1) == 12 and a1.keys() == a2.keys()
    for name in a1:
        assert a1[name] == a2[name], name


@pytest.mark.parametrize("model, axis", [("lstm", -1), ("cnn", 0)])
def test_run_standardizer_matches_model_input(tiny_corpus, tmp_path, model, axis):
    """standardizer.json holds what the model's inputs were scaled with: per
    coefficient for the lstm's (frames, n_mfcc) sequences, per column for
    the cnn's (D, 1) rows."""
    cfg = tmp_path / "std.cfg"
    cfg.write_text(
        f"ravdess_root = {tiny_corpus}\n"
        "clip_seconds = 1.0\n"
        "epochs = 1\n"
        "augment = false\n"
        f"model = {model}\n"
    )
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    std = read_standardizer(out / "standardizer.json")
    width = load_checkpoint(out / "model.ckpt").input_shape[axis]
    assert len(std.schema) == std.mean.shape[0] == width


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


@pytest.mark.parametrize("bad", ["stretch_rates = 0.8, abc", "clip_seconds = nan"])
def test_unparsable_value_exits_2_with_one_error_line(tiny_corpus, tmp_path, capsys, bad):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\n{bad}\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad value")


def test_overflowing_config_exits_2_with_one_error_line(tiny_corpus, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\nclip_seconds = 1e308\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "bad",
    [
        "feature_mode = wavelet\nwavelet_levels = 13",
        "n_mels = 128\nn_fft = 256\nhop = 128",
    ],
    ids=["wavelet_too_deep", "mel_filter_without_bin"],
)
def test_config_that_fails_extraction_exits_2_at_validate(tiny_corpus, tmp_path, capsys, bad):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\nclip_seconds = 1.0\n{bad}\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not (tmp_path / "r" / "MANIFEST").exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_degenerate_split_fails_before_extraction(tiny_corpus, tmp_path, capsys, command):
    cfg = tmp_path / "split.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\nclip_seconds = 1.0\ntest_fraction = 1e-9\n")
    out = tmp_path / "r"
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: test_fraction 1e-09 leaves an empty side")
    states = dict(line.split() for line in (out / "MANIFEST").read_text().splitlines())
    assert states["augment"] == "ok" and states["extract"] == "pending"
    assert states["split"] == "failed"
    assert not (out / "features.csv").exists()


def test_non_finite_features_name_their_clip(tiny_corpus, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "noise.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\nclip_seconds = 1.0\n")
    out = tmp_path / "r"
    real_extract, calls = cli.extract, []

    def nan_for_second_record(clip, **kwargs):
        # expand puts each original's variants right after it, so the second
        # record is the first clip's noisy variant
        vec, schema = real_extract(clip, **kwargs)
        calls.append(None)
        return (np.full_like(vec, np.nan) if len(calls) == 2 else vec), schema

    monkeypatch.setattr(cli, "extract", nan_for_second_record)
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: non-finite features for ")
    assert tiny_corpus in lines[0] and "(provenance noise" in lines[0]
    states = dict(line.split() for line in (out / "MANIFEST").read_text().splitlines())
    assert states["extract"] == "failed"


def test_all_skipped_corpus_reports_skips_before_error(tmp_path, capsys):
    root = tmp_path / "corpus"
    root.mkdir()
    for name in ("03-01-09-01-01-01-01.wav", "03-01-10-01-01-01-02.wav"):
        (root / name).write_bytes(b"")  # emotion codes 09/10 do not exist
    cfg = tmp_path / "skip.cfg"
    cfg.write_text(f"ravdess_root = {root}\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("warning: skipped ") for line in lines[:2])
    assert lines[2].startswith("error: no decodable labeled clips")
    assert (tmp_path / "r" / "MANIFEST").read_text().splitlines()[0] == "scan failed"


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


@pytest.mark.parametrize(
    "flags",
    [
        ["--seconds", "0"],
        ["--seconds", "-1"],
        ["--seconds", "inf"],
        ["--rate", "0"],
        ["--rate", "1", "--seconds", "0.4"],
    ],
    ids=["seconds_zero", "seconds_negative", "seconds_inf", "rate_zero", "no_sample"],
)
def test_synth_rejects_bad_flags(tmp_path, capsys, flags):
    out = tmp_path / "synth"
    capsys.readouterr()
    assert main(["synth", "--out", str(out), "--clips-per-class", "1", *flags]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --")
    assert not out.exists()


@pytest.mark.parametrize("points", ["1", "0"])
def test_viz_rejects_max_points_below_two(cfg_path, tmp_path, capsys, points):
    out = tmp_path / "v"
    capsys.readouterr()
    args = ["viz", "--config", cfg_path, "--out", str(out), "emotion=angry", "--max-points", points]
    assert main(args) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: --max-points must be >= 2"]
    assert not out.exists()


COMPARE_STAGES = ["scan", "augment", "extract", "split", "train", "report"]


def write_grid_cfg(path, corpus, models):
    path.write_text(
        f"ravdess_root = {corpus}\n"
        "clip_seconds = 1.0\n"
        "epochs = 1\n"
        "batch_size = 16\n"
        "augment = false\n"
        "feature_modes = mfcc, wavelet\n"
        f"models = {models}\n"
    )
    return str(path)


def test_compare_grid(tiny_corpus, tmp_path):
    cfg = write_grid_cfg(tmp_path / "grid.cfg", tiny_corpus, "cnn")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert_stages_ok(out, COMPARE_STAGES)

    rows = read_csv(out / "comparison.csv")
    assert rows[0] == ["feature_mode", "model", "test_accuracy", "epochs", "seconds_per_epoch"]
    assert [(r[0], r[1]) for r in rows[1:]] == [("mfcc", "cnn"), ("wavelet", "cnn")]

    recalls = read_csv(out / "per_class_recall.csv")
    assert recalls[0] == ["feature_mode", "model", "emotion", "recall"]
    assert len(recalls) == 1 + 2 * 8

    for mode in ("mfcc", "wavelet"):
        for name in ("report", "timing", "confusion"):
            assert (out / f"{name}_{mode}_cnn.csv").exists()


def test_compare_determinism_byte_identical(tiny_corpus, tmp_path):
    cfg = write_grid_cfg(tmp_path / "grid.cfg", tiny_corpus, "cnn, lstm")
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["compare", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    a1, a2 = non_timing_artifacts(out1), non_timing_artifacts(out2)
    assert len(a1) == 5 + 4 * 2 and a1.keys() == a2.keys()  # 4 cells: report_, confusion_
    for name in a1:
        assert a1[name] == a2[name], name


def test_compare_failed_cell_marks_train_failed(tiny_corpus, tmp_path, monkeypatch, capsys):
    train_cell = cli._train_cell

    def failing_on_wavelet(cfg, model_name, shape, data, log):
        if shape[0] == 20:  # the wavelet schema
            raise RuntimeError("injected failure")
        return train_cell(cfg, model_name, shape, data, log)

    monkeypatch.setattr(cli, "_train_cell", failing_on_wavelet)
    cfg = write_grid_cfg(tmp_path / "grid.cfg", tiny_corpus, "cnn")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    states = dict(line.split() for line in (out / "MANIFEST").read_text().splitlines())
    assert states == {s: "failed" if s == "train" else "ok" for s in COMPARE_STAGES}
    assert [r[:2] for r in read_csv(out / "comparison.csv")[1:]] == [["mfcc", "cnn"]]
    assert "cell wavelet_cnn failed: injected failure" in capsys.readouterr().err


def test_compare_failed_cell_names_exception_type(tiny_corpus, tmp_path, monkeypatch, capsys):
    # a programming error in a cell must not read like an ordinary failure
    monkeypatch.setattr(cli, "_train_cell", lambda cfg, model_name: None)
    cfg = write_grid_cfg(tmp_path / "grid.cfg", tiny_corpus, "cnn")
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    cells = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error: cell ")]
    assert len(cells) == 2 and all(ln.endswith("(TypeError)") for ln in cells)
