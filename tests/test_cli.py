"""End-to-end CLI coverage driven through main(argv) in-process.

A session-scoped synthetic corpus (conftest.tiny_corpus) keeps these fast;
training cells run at tiny epoch counts since convergence is covered
elsewhere."""

import argparse
import csv
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from emorec import augment, cli, host, synth
from emorec.audio_io import (
    EMOTIONS,
    AudioClip,
    FrontEndMemo,
    crop_or_pad,
    load_clip,
    read_manifest,
    scan_dataset_detailed,
    write_wav,
)
from emorec.cli import main
from emorec.config import ExperimentConfig, load_config
from emorec.dataset import (
    FeatureTable,
    SplitSpec,
    apply_standardizer,
    fit_standardizer,
    one_hot,
    read_features_csv,
    read_standardizer,
    split_hash,
    split_indices,
    split_rows,
)
from emorec.dsp import features
from emorec.errors import NonFiniteOutput
from emorec.nn.model import load_checkpoint
from emorec.nn.train import evaluate, write_confusion_csv

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_augment_with_augmentation_off_lists_originals(tiny_corpus, tmp_path, capsys):
    cfg = tmp_path / "off.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\naugment = false\n")
    out = tmp_path / "aug"
    capsys.readouterr()
    assert main(["augment", "--config", str(cfg), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0] == "augmentation disabled by config; manifest carries originals only"
    assert stdout[1] == "24 originals -> 24 rows after expansion"
    rows = read_csv(out / "manifest.csv")
    assert len(rows) == 1 + 24 and all(row[4] == "original" for row in rows[1:])


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


def test_a_finished_run_splits_again_from_its_manifest(cfg_path, tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    records = read_manifest(out / "manifest.csv")
    assert any(r.provenance != "original" for r in records)
    # row i of manifest.csv and row i of features.csv are the same clip variant
    features = read_features_csv(out / "features.csv")
    assert [(r.emotion, r.provenance) for r in records] == list(
        zip(features.y, features.provenance)
    )
    split = json.loads((out / "split.json").read_text())
    tr_idx, te_idx = split_rows(records, load_config(cfg_path).split_spec())
    assert (tr_idx, te_idx) == (split["train"], split["test"])
    held_out = {records[i].path for i in te_idx}
    assert not any(records[i].path in held_out for i in tr_idx)


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


# (model, feature mode, rows, table width, frames): the lstm on mfcc reads
# (rows, frames, 40) framewise sequences, a flat cnn cell its table's rows
# as (width, 1) sequences
PREPARED_CELLS = [("lstm", "mfcc", 200, 60, 184), ("cnn", "combined", 4000, 60, 2)]
PREPARED_IDS = ["lstm_sequences", "cnn_rows"]


def cell_inputs(rows, width, frames):
    """A table of rows x width, (rows, frames, 40) sequences and a seeded split."""
    gen = np.random.default_rng(rows)
    table = FeatureTable(
        gen.standard_normal((rows, width)) * 3.0 + 1.0,
        [EMOTIONS[i % len(EMOTIONS)] for i in range(rows)],
        [f"c{j}" for j in range(width)],
        ["original"] * rows,
    )
    sequences = gen.standard_normal((rows, frames, 40)) * 2.0 - 5.0
    return table, sequences, split_indices(rows, SplitSpec(seed=3))


@pytest.mark.parametrize("model, mode, rows, width, frames", PREPARED_CELLS, ids=PREPARED_IDS)
def test_prepare_cell_leaves_the_table_and_sequences_unchanged(model, mode, rows, width, frames):
    # compare's later cells read the same table and sequences
    table, sequences, (tr, te) = cell_inputs(rows, width, frames)
    kept = table.X.tobytes(), sequences.tobytes()
    cli._prepare_cell(model, mode, table, sequences, tr, te)
    assert (table.X.tobytes(), sequences.tobytes()) == kept


@pytest.mark.parametrize("model, mode, rows, width, frames", PREPARED_CELLS, ids=PREPARED_IDS)
def test_prepare_cell_standardizes_bit_for_bit_as_the_allocating_form(
    model, mode, rows, width, frames
):
    table, sequences, (tr, te) = cell_inputs(rows, width, frames)
    std, shape, (x_tr, _, x_te, _), _ = cli._prepare_cell(model, mode, table, sequences, tr, te)
    x = sequences if model == "lstm" else table.X
    assert shape == (x.shape[1:] if model == "lstm" else (width, 1))
    want_std = fit_standardizer(x[tr].reshape(-1, x.shape[-1]))
    assert (std.mean.tobytes(), std.scale.tobytes()) == (
        want_std.mean.tobytes(),
        want_std.scale.tobytes(),
    )
    for got, idx in ((x_tr, tr), (x_te, te)):
        want = apply_standardizer(want_std, x[idx]).reshape((-1, *shape))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model, mode, rows, width, frames", PREPARED_CELLS, ids=PREPARED_IDS)
def test_prepare_cell_peaks_under_two_and_a_half_train_copies(model, mode, rows, width, frames):
    # the train and test copies (1 + 1/3 at this split): fit_standardizer's
    # temporary holds 8 columns, and standardizing into the copies adds no
    # array of their size
    table, sequences, (tr, te) = cell_inputs(rows, width, frames)
    train_bytes = (sequences if model == "lstm" else table.X)[tr].nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._prepare_cell(model, mode, table, sequences, tr, te)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * train_bytes


@pytest.mark.parametrize(
    "model, mode, settings",
    [
        ("cnn", "mfcc", "stretch_rates = 0.8\npitch_semitones = 2\n"),
        ("lstm", "wavelet", "augment = false\n"),
    ],
    ids=["cnn_mfcc", "lstm_wavelet"],
)
def test_a_finished_run_rescores_from_its_own_artifacts(
    tiny_corpus, tmp_path, model, mode, settings
):
    # the flat-row cells: test.csv holds exactly the rows the model scored
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"ravdess_root = {tiny_corpus}\nclip_seconds = 1.0\nepochs = 2\nbatch_size = 16\n"
        f"model = {model}\nfeature_mode = {mode}\n" + settings
    )
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    network = load_checkpoint(out / "model.ckpt")
    test = read_features_csv(out / "test.csv")
    x = apply_standardizer(read_standardizer(out / "standardizer.json"), test.X)
    accuracy, confusion = evaluate(network, x.reshape((-1, *network.input_shape)), one_hot(test.y))
    write_confusion_csv(confusion, tmp_path / "confusion.csv")
    assert (tmp_path / "confusion.csv").read_bytes() == (out / "confusion.csv").read_bytes()
    assert f"test accuracy = {accuracy!r}" in (out / "notes.txt").read_text().splitlines()


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


@pytest.mark.parametrize("command", ["augment", "extract"])
@pytest.mark.parametrize(
    "value", ["1\naugment = false", "1\nrate = 8000"], ids=["sets_augment", "sets_rate"]
)
def test_a_seed_override_that_is_not_one_integer_exits_2(
    cfg_path, tmp_path, capsys, command, value
):
    # an override is a value, never config text: it cannot set another key
    out = tmp_path / "o"
    capsys.readouterr()
    argv = [command, "--config", cfg_path, "--out", str(out), "--seed-override", f"init={value}"]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad value for 'seed_init'")
    assert not out.exists()


def test_a_seed_override_beats_the_files_seed(tiny_corpus, tmp_path):
    cfg = tmp_path / "exp.cfg"
    settings = "clip_seconds = 1.0\naugment = false\nseed_init = 4"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\n{settings}")
    out = tmp_path / "x"
    argv = ["extract", "--config", str(cfg), "--out", str(out), "--seed-override", "init= 5 "]
    assert main(argv) == 0
    assert "seed_init = 5" in (out / "resolved_config.txt").read_text().splitlines()


# argv each command accepts; the flags below would parse and do nothing there
ACCEPTED_ARGV = {
    "scan": ["--config", "x.cfg"],
    "augment": ["--config", "x.cfg"],
    "extract": ["--config", "x.cfg", "--out", "o"],
    "viz": ["--config", "x.cfg", "--out", "o", "emotion=angry"],
    "synth": ["--out", "o"],
}


@pytest.mark.parametrize(
    "command, flag",
    [(c, "--quiet") for c in ("scan", "augment", "extract", "viz", "synth")]
    + [(c, "--seed-override init=1") for c in ("scan", "viz", "synth")],
)
def test_flags_a_command_does_not_read_exit_2(command, flag, capsys):
    cli.build_parser().parse_args([command] + ACCEPTED_ARGV[command])
    with pytest.raises(SystemExit) as exc:
        main([command] + ACCEPTED_ARGV[command] + flag.split())
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["augment", "extract", "run", "compare"])
def test_seed_override_help_names_an_integer_value(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--seed-override NAME=INTEGER" in capsys.readouterr().out


def _accepted(p):
    """The flags a subparser accepts, and its positionals upper-cased as README writes them."""
    return {s for a in p._actions for s in a.option_strings or [a.dest.upper()]}


def test_readme_cli_tables_match_the_parser():
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1].split("\n### ", 1)[0]
    actions = cli.build_parser()._actions
    subparsers = next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices
    assert list(subparsers) == list(cli._COMMANDS)
    rows = [line for line in section.splitlines() if line.startswith("| `emorec ")]
    assert [row.split("`")[1].split()[1] for row in rows] == list(cli._COMMANDS)

    # the sentence above the tables: who takes --config, and who requires --out
    m = re.search(
        r"Every subcommand but (.*?) takes `--config FILE`, and every one takes\s+"
        r"`--out DIR` \(required by (.*?)\)",
        section,
        re.S,
    )
    assert m, "README's --config/--out sentence is missing"
    without_config, out_required = (re.findall(r"`(\w+)`", g) for g in m.groups())
    options = {
        n: {s: a for a in p._actions for s in a.option_strings} for n, p in subparsers.items()
    }
    assert [n for n, o in options.items() if "--config" not in o] == without_config
    assert [n for n, o in options.items() if o["--out"].required] == out_required

    # the flag table: each flag's "accepted by" cell is exactly its subparsers
    listed = set()
    for line in section.split("| flag | accepted by |", 1)[1].splitlines()[2:]:
        if not line.startswith("| "):
            break
        flag_cell, by_cell = line.split("|")[1:3]
        flags = [t.split()[0] for t in re.findall(r"`([^`]+)`", flag_cell)]
        flags = [f for f in flags if f.startswith("--") or f.isupper()]
        by = re.findall(r"`(\w+)`", by_cell)
        for flag in flags:
            assert [n for n, p in subparsers.items() if flag in _accepted(p)] == by, flag
        listed.update(flags)
    everywhere = {"-h", "--help", "--config", "--out"}
    assert set().union(*map(_accepted, subparsers.values())) - everywhere == listed


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


def test_config_that_is_not_utf8_exits_2_with_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"ravdess_root = \xff\xfe\n")
    capsys.readouterr()
    assert main(["scan", "--config", str(cfg)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read config")


@pytest.mark.parametrize("key, value", [("feature_modes", "mfcc, plp"), ("models", "cnn, gru")])
def test_an_unknown_grid_entry_exits_2_at_validate(tiny_corpus, tmp_path, capsys, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\n{key} = {value}\n")
    capsys.readouterr()
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key} entry")
    assert not (tmp_path / "c").exists()


def test_an_out_that_is_a_file_exits_1_with_one_error_line(cfg_path, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    capsys.readouterr()
    assert main(["scan", "--config", cfg_path, "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_a_wav_name_that_is_not_utf8_is_skipped(tiny_corpus, tmp_path, capfd):
    """Such a name cannot go into the UTF-8 manifest: scan reports it on
    stderr and writes the manifest without it."""
    root = tmp_path / "corpus"
    root.mkdir()
    good = sorted(os.listdir(tiny_corpus))[0]
    shutil.copy(os.path.join(tiny_corpus, good), root / good)
    bad = os.path.join(os.fsencode(root), good[:-5].encode() + b"\xe9.wav")
    try:
        shutil.copy(os.path.join(tiny_corpus, good), bad)
    except OSError:
        pytest.skip("this filesystem refuses a file name that is not UTF-8")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"ravdess_root = {root}\n")
    out = tmp_path / "scan"
    capfd.readouterr()
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: skipped ")
    assert err[0].endswith(": path is not valid UTF-8")
    assert [row[0] for row in read_csv(out / "manifest.csv")[1:]] == [str(root / good)]


def test_invalid_config_exits_2_with_one_error_line(tiny_corpus, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\nhop = 2048\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_fmax_above_half_the_rate_exits_2_naming_fmax_hz(tiny_corpus, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\nrate = 16000\nfmax_hz = 9000\n")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: fmax_hz ")
    assert not (tmp_path / "r").exists()


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


@pytest.mark.parametrize("key", ["feature_modes", "models"])
def test_compare_with_an_empty_grid_axis_exits_2_at_validate(tiny_corpus, tmp_path, capsys, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\nclip_seconds = 1.0\n{key} = none\n")
    capsys.readouterr()
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {key} needs at least one name"]
    assert not (tmp_path / "c" / "MANIFEST").exists()


@pytest.mark.parametrize(
    "command, fraction, error",
    [
        pytest.param(command, fraction, error, id=command + suffix)
        for suffix, fraction, error in [
            # the size rule: no test row at all
            ("", "1e-9", "error: test_fraction 1e-09 leaves an empty side for n=144"),
            # the leakage exclusion: every train row is a variant of a test clip
            ("-leakage", "0.99", "error: leakage exclusion emptied one side of the split"),
        ]
        for command in ("run", "compare")
    ],
)
def test_degenerate_split_fails_before_extraction(
    tiny_corpus, tmp_path, capsys, command, fraction, error
):
    cfg = tmp_path / "split.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\nclip_seconds = 1.0\ntest_fraction = {fraction}\n")
    out = tmp_path / "r"
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [error]
    states = dict(line.split() for line in (out / "MANIFEST").read_text().splitlines())
    assert states["augment"] == "ok" and states["extract"] == "pending"
    assert states["split"] == "failed"
    assert not (out / "features.csv").exists()


def test_non_finite_features_name_their_clip(tiny_corpus, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "noise.cfg"
    cfg.write_text(f"ravdess_root = {tiny_corpus}\nclip_seconds = 1.0\n")
    out = tmp_path / "r"
    real_extract, calls = cli.extract, []

    def nan_for_second_record(*args):
        # expand puts each original's variants right after it, so the second
        # record is the first clip's noisy variant
        rows = real_extract(*args)
        calls.append(None)
        if len(calls) != 2:
            return rows
        return {m: (np.full_like(vec, np.nan), schema) for m, (vec, schema) in rows.items()}

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


def test_viz_into_an_unwritable_waveplot_exits_1(cfg_path, tmp_path, capsys):
    out = tmp_path / "viz"
    (out / "waveplot.csv").mkdir(parents=True)
    capsys.readouterr()
    assert main(["viz", "--config", cfg_path, "--out", str(out), "emotion=angry"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write waveplot")
    assert sorted(os.listdir(out)) == ["waveplot.csv"]


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
        ["--rate", "7999"],
        ["--rate", "8000", "--seconds", "5e-5"],
        ["--seconds", "1e300"],
        ["--rate", "16000", "--seconds", "134218"],  # 2 147 488 000 samples
        ["--rate", "3000000000", "--seconds", "1e-9"],  # byte rate 6e9 > 2**32 - 1
    ],
    ids=[
        "seconds_zero",
        "seconds_negative",
        "seconds_inf",
        "rate_zero",
        "rate_below_min",
        "no_sample",
        "seconds_huge",
        "over_wav_limit",
        "rate_over_wav_limit",
    ],
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

    split = json.loads((out / "split.json").read_text())
    assert split["hash"] == split_hash(split["train"], split["test"])


@pytest.mark.parametrize("modes", [("combined", "wavelet", "mfcc"), ("mfcc", "combined", "wavelet")])
def test_combined_rows_come_from_the_mfcc_and_wavelet_rows(tiny_corpus, monkeypatch, modes):
    records = scan_dataset_detailed(tiny_corpus, "ravdess")[0][:3]
    cfg = ExperimentConfig(ravdess_root=tiny_corpus, clip_seconds=1.0)
    alone, _ = cli._materialize(records, cfg, ("combined",), False)
    real_extract, asked = cli.extract, []

    def counting_extract(clip, modes, *args):
        asked.append(tuple(modes))
        return real_extract(clip, modes, *args)

    monkeypatch.setattr(cli, "extract", counting_extract)
    tables, _ = cli._materialize(records, cfg, modes, False)
    assert asked == [modes] * len(records)
    assert list(tables) == list(modes)
    assert np.array_equal(tables["combined"].X, alone["combined"].X)
    assert tables["combined"].schema == alone["combined"].schema
    # the mfcc row, then the wavelet row without its trailing zcr/rms
    joined = np.hstack([tables["mfcc"].X, tables["wavelet"].X[:, :-2]])
    assert np.array_equal(tables["combined"].X, joined)
    assert tables["combined"].schema == tables["mfcc"].schema + tables["wavelet"].schema[:-2]


def test_compare_determinism_byte_identical(tiny_corpus, tmp_path):
    cfg = write_grid_cfg(tmp_path / "grid.cfg", tiny_corpus, "cnn, lstm")
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["compare", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["compare", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    a1, a2 = non_timing_artifacts(out1), non_timing_artifacts(out2)
    assert len(a1) == 6 + 4 * 2 and a1.keys() == a2.keys()  # 4 cells: report_, confusion_
    for name in a1:
        assert a1[name] == a2[name], name


def test_compare_failed_cell_marks_train_failed(tiny_corpus, tmp_path, monkeypatch, capsys):
    train_cell = cli._train_cell

    def failing_on_wavelet(cfg, model_name, shape, data, log, helper):
        if shape[0] == 20:  # the wavelet schema
            raise RuntimeError("injected failure")
        return train_cell(cfg, model_name, shape, data, log, helper)

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


# ---- extraction on every usable CPU ----


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """8 half-second clips, one per class: 8 source files, so 3 CPUs get
    uneven blocks of runs."""
    root = tmp_path_factory.mktemp("small")
    synth.generate_corpus(root, clips_per_class=1, seconds=0.5)
    return str(root)


def pin_cpus(monkeypatch, n):
    """Report n CPUs in the affinity mask; returns the pids forked from here."""
    forks, real_fork = [], os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(host, "_PROC_CGROUP", os.devnull)  # no cgroup quota caps the n
    monkeypatch.setattr(os, "fork", recording_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# extraction forks only for a manifest with augmented variants; the compare
# and lstm cases keep one stretch and one pitch variant to stay small
PARALLEL_CASES = {
    "run_default_augmentation": ("run", "model = cnn\n"),
    "compare_modes": (
        "compare",
        "stretch_rates = 0.8\npitch_semitones = 2\n"
        "feature_modes = mfcc, wavelet, combined\nmodels = cnn\n",
    ),
    "run_lstm_sequences": ("run", "stretch_rates = 0.8\npitch_semitones = 2\nmodel = lstm\n"),
}


@pytest.mark.parametrize("case", sorted(PARALLEL_CASES))
def test_artifacts_do_not_depend_on_the_cpu_count(small_corpus, tmp_path, monkeypatch, case):
    command, settings = PARALLEL_CASES[case]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\nepochs = 1\nbatch_size = 8\n"
        + settings
    )
    artifacts = {}
    for cpus in (1, 2, 3):
        forks = pin_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        # compare_modes also trains its three cells on up to three CPUs
        training = min(cpus, 3) - 1 if command == "compare" else 0
        assert len(forks) == cpus - 1 + training
        artifacts[cpus] = non_timing_artifacts(out)
    assert len(artifacts[1]) == 12
    assert artifacts[2] == artifacts[1] and artifacts[3] == artifacts[1]
    assert_no_child_left()


# (command, CPUs, settings, training forks, step helpers started): run gets
# a helper on a second CPU; compare only where every training process has
# two CPUs, so its three cells on two CPUs, in two processes, get none
HELPER_CASES = {
    "run_on_2_cpus": ("run", 2, "model = cnn\n", 0, 1),
    "run_on_1_cpu": ("run", 1, "model = cnn\n", 0, 0),
    "compare_3_cells_on_2_cpus": (
        "compare",
        2,
        "feature_modes = mfcc, wavelet, combined\nmodels = cnn\n",
        1,
        0,
    ),
    "compare_1_cell_on_2_cpus": ("compare", 2, "feature_modes = mfcc\nmodels = cnn\n", 0, 1),
    "run_lstm_on_2_cpus": ("run", 2, "model = lstm\n", 0, 0),
}


@pytest.mark.parametrize("case", sorted(HELPER_CASES))
def test_a_conv_helper_runs_only_on_a_spare_cpu(small_corpus, tmp_path, monkeypatch, case):
    command, cpus, settings, training_forks, helpers = HELPER_CASES[case]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\nepochs = 1\nbatch_size = 8\n"
        "augment = false\n" + settings
    )
    # every thread started, here or in a forked training worker, is named in one file
    started, real_start = tmp_path / "threads.txt", threading.Thread.start

    def recording_start(thread):
        with open(started, "a", encoding="utf-8") as fh:
            fh.write(thread.name + "\n")
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    forks = pin_cpus(monkeypatch, cpus)
    threads = threading.active_count()
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    names = started.read_text().split() if started.exists() else []
    assert [n for n in names if n.startswith("emorec-")] == ["emorec-step_0"] * helpers
    assert len(forks) == training_forks  # augment = false: extraction does not fork
    assert threading.active_count() == threads
    assert_no_child_left()


def v1_quota(directory, quota, period="100000\n"):
    """A v1 cpu controller's two quota files in `directory` under the root."""
    return {f"{directory}cpu.cfs_quota_us": quota, f"{directory}cpu.cfs_period_us": period}


# (the process's /proc/self/cgroup, None for no such file; the files under
# the cgroup root and their text; CPUs the process may use with 4 in its mask)
QUOTA_CASES = {
    "v2_root": ("0::/\n", {"cpu.max": "150000 100000\n"}, 2),
    "v2_own_cgroup": (
        "0::/system.slice/a.service\n",
        {"system.slice/a.service/cpu.max": "100000 100000\n"},
        1,
    ),
    "v2_tightest_ancestor": (
        "0::/a/b\n",
        {"cpu.max": "max 100000\n", "a/cpu.max": "150000 100000\n", "a/b/cpu.max": "300000 100000\n"},
        2,
    ),
    "v2_quota_over_the_mask": ("0::/\n", {"cpu.max": "800000 100000\n"}, 4),
    "v2_max": ("0::/\n", {"cpu.max": "max 100000\n"}, 4),
    "v2_malformed": ("0::/\n", {"cpu.max": "100000\n"}, 4),
    "v2_other_cgroup": ("0::/a\n", {"b/cpu.max": "100000 100000\n"}, 4),
    "v1_container_root": ("4:cpu,cpuacct:/docker/0123\n", v1_quota("cpu/", "50000\n"), 1),
    "v1_own_cgroup": ("4:cpuacct,cpu:/jobs/a\n", v1_quota("cpu/jobs/a/", "250000\n"), 3),
    "v1_none": ("4:cpu,cpuacct:/\n", v1_quota("cpu/", "-1\n"), 4),
    "v1_malformed": ("4:cpu,cpuacct:/\n", v1_quota("cpu/", "half\n"), 4),
    "v1_period_missing": ("4:cpu,cpuacct:/\n", {"cpu/cpu.cfs_quota_us": "50000\n"}, 4),
    "v1_cpuacct_is_not_cpu": ("3:cpuacct:/\n", v1_quota("cpu/", "50000\n"), 4),
    "malformed_line_skipped": ("garbage\n0::/\n", {"cpu.max": "100000 100000\n"}, 1),
    "no_proc_file": (None, {"cpu.max": "100000 100000\n"}, 4),
    "none": ("0::/\n1:cpu:/\n", {}, 4),
}


@pytest.mark.parametrize("case", sorted(QUOTA_CASES))
def test_the_cpu_count_honours_a_cgroup_quota(tmp_path, monkeypatch, case):
    proc, files, cpus = QUOTA_CASES[case]
    for name, text in files.items():
        (tmp_path / "root" / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "root" / name).write_text(text)
    if proc is not None:
        (tmp_path / "cgroup").write_text(proc)
    pin_cpus(monkeypatch, 4)
    monkeypatch.setattr(host, "_PROC_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(host, "_CGROUP_ROOT", str(tmp_path / "root"))
    assert host._cpus() == cpus
    assert host._spare_cpu(2) == (cpus >= 4) and host._spare_cpu(1) == (cpus >= 2)


def test_a_one_cpu_quota_starts_no_helper_and_forks_no_worker(small_corpus, tmp_path, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\nepochs = 1\nbatch_size = 8\n"
        "model = cnn\n"
    )
    started, real_start = [], threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    forks = pin_cpus(monkeypatch, 2)
    (tmp_path / "cgroup").write_text("0::/\n")
    (tmp_path / "cpu.max").write_text("100000 100000\n")
    monkeypatch.setattr(host, "_PROC_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(host, "_CGROUP_ROOT", str(tmp_path))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    # default augmentation: on 2 usable CPUs extraction would fork a worker
    assert forks == [] and [n for n in started if n.startswith("emorec-")] == []


@pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
def test_without_the_os_calls_a_run_is_serial_with_the_same_bytes(
    small_corpus, tmp_path, monkeypatch, missing
):
    # README, Determinism: where Python has no os.sched_getaffinity or no
    # os.fork, extraction and training run serially and give the same bytes
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\nepochs = 1\nbatch_size = 8\n"
        "model = cnn\n"
    )
    pin_cpus(monkeypatch, 1)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "one"), "--quiet"]) == 0
    started, real_start = [], threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    forks = pin_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, missing)
    assert host._cpus() == 1
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "none"), "--quiet"]) == 0
    # default augmentation: on 2 usable CPUs extraction would fork a worker
    assert forks == [] and [n for n in started if n.startswith("emorec-")] == []
    assert non_timing_artifacts(tmp_path / "none") == non_timing_artifacts(tmp_path / "one")


def test_artifacts_do_not_depend_on_the_cpus_with_the_blas_threads_unset(tmp_path):
    # emorec pins one BLAS thread itself, so two processes with no BLAS
    # variable set, one on one CPU and one on two, write the same bytes
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) < 2:
        pytest.skip("needs 2 CPUs in the affinity mask")
    synth.generate_corpus(tmp_path / "corpus", clips_per_class=1, seconds=3.0)
    cfg = tmp_path / "exp.cfg"
    settings = "augment = false\nfeature_mode = combined\nepochs = 1\n"
    cfg.write_text(f"ravdess_root = {tmp_path / 'corpus'}\n{settings}")
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    artifacts = []
    for mask in ({cpus[0]}, {cpus[0], cpus[1]}):
        out = tmp_path / f"cpus{len(mask)}"
        subprocess.run(
            [sys.executable, "-m", "emorec", "run", "--config", str(cfg), "--out", str(out)],
            env=env,
            check=True,
            capture_output=True,
            preexec_fn=lambda: os.sched_setaffinity(0, mask),
        )
        artifacts.append(non_timing_artifacts(out))
    assert artifacts[0] == artifacts[1]


LOADS_FUTURES = """
import os, sys
os.sched_setaffinity(0, {cpus})
from emorec.cli import main
assert main(["run", "--config", {cfg!r}, "--out", {out!r}, "--quiet"]) == 0
print("concurrent.futures" in sys.modules)
"""


# (model, CPUs, whether the run ends with concurrent.futures loaded): only a
# lent step helper imports it
FUTURES_CASES = [("lstm", 1, False), ("lstm", 2, False), ("cnn", 1, False), ("cnn", 2, True)]


@pytest.mark.parametrize(
    "model, cpus, loaded", FUTURES_CASES, ids=[f"{m}_on_{n}_cpus" for m, n, _ in FUTURES_CASES]
)
def test_concurrent_futures_loads_only_with_a_step_helper(
    small_corpus, tmp_path, model, cpus, loaded
):
    if not hasattr(os, "sched_setaffinity") or host._cpus() < cpus:
        pytest.skip(f"needs {cpus} CPUs")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\nepochs = 1\naugment = false\n"
        f"model = {model}\n"
    )
    mask = set(sorted(os.sched_getaffinity(0))[:cpus])
    script = LOADS_FUTURES.format(cpus=mask, cfg=str(cfg), out=str(tmp_path / "out"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.stdout.split()[-1] == str(loaded)


def test_artifacts_do_not_depend_on_the_malloc_thresholds(small_corpus, tmp_path):
    # one run where emorec fixes glibc's thresholds itself, one where a
    # variable in the environment makes it leave them alone
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\nepochs = 1\n")
    malloc = (*host._MALLOC_VARIABLES, "GLIBC_TUNABLES")
    clean = {k: v for k, v in os.environ.items() if k not in malloc}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    clean["PYTHONPATH"] = os.pathsep.join(p for p in (src, clean.get("PYTHONPATH")) if p)
    artifacts = []
    for name, env in (("own", clean), ("user", {**clean, "MALLOC_MMAP_THRESHOLD_": "131072"})):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "emorec", "run", "--config", str(cfg), "--out", str(out)],
            env=env,
            check=True,
            capture_output=True,
        )
        artifacts.append(non_timing_artifacts(out))
    assert "manifest.csv" in artifacts[0] and artifacts[0] == artifacts[1]


# ---- glibc allocator policy ----


def fake_glibc(monkeypatch, calls, fail=None):
    """Replace ctypes.CDLL with a C library whose mallopt and malloc_trim
    record (name, *args) in `calls`. fail="load" makes CDLL raise OSError,
    fail="mallopt" gives a library without mallopt."""

    class Function:
        def __init__(self, name):
            self.name = name

        def __call__(self, *args):
            calls.append((self.name, *args))
            return 1

    class Library:
        def __init__(self, name):
            assert name is None
            if fail == "load":
                raise OSError("no C library")
            if fail != "mallopt":
                self.mallopt = Function("mallopt")
            self.malloc_trim = Function("malloc_trim")

    monkeypatch.setattr(host.ctypes, "CDLL", Library)
    for name in (*host._MALLOC_VARIABLES, "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)


def test_main_fixes_both_malloc_thresholds_trim_first(monkeypatch):
    calls = []
    fake_glibc(monkeypatch, calls)
    # a tunable outside glibc.malloc is not an allocator setting
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.optional_static_tls=512")
    assert main([]) == 2
    assert calls == [("mallopt", -1, 1 << 30), ("mallopt", -3, 32 << 20)]


@pytest.mark.parametrize(
    "name, value",
    [
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("GLIBC_TUNABLES", "glibc.rtld.nns=2:glibc.malloc.mmap_threshold=131072"),
    ],
    ids=["trim_variable", "mmap_variable", "tunable"],
)
def test_an_allocator_setting_in_the_environment_wins(monkeypatch, name, value):
    calls = []
    fake_glibc(monkeypatch, calls)
    monkeypatch.setenv(name, value)
    assert main([]) == 2
    assert calls == []


@pytest.mark.parametrize("fail", ["load", "mallopt"])
def test_run_without_glibc_malloc_still_succeeds(small_corpus, tmp_path, monkeypatch, fail):
    calls = []
    fake_glibc(monkeypatch, calls, fail)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\nepochs = 1\naugment = false\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x"), "--quiet"]) == 0
    assert calls == []


@pytest.mark.parametrize(
    "command, settings",
    [
        ("scan", ""),
        ("extract", ""),
        ("run", ""),
        ("compare", "feature_modes = mfcc\nmodels = cnn\n"),
    ],
)
def test_extraction_memory_is_trimmed_once_when_extract_ends(
    small_corpus, tmp_path, monkeypatch, command, settings
):
    calls = []
    fake_glibc(monkeypatch, calls)
    materialize = cli._materialize

    def recording_materialize(*args):
        calls.append(("extract",))
        return materialize(*args)

    monkeypatch.setattr(cli, "_materialize", recording_materialize)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\nepochs = 1\naugment = false\n"
        + settings
    )
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    after_main = [c for c in calls if c[0] != "mallopt"]
    assert after_main == ([] if command == "scan" else [("extract",), ("malloc_trim", 0)])


@pytest.mark.parametrize(
    "files, settings, rows", [(1, "", 6), (8, "augment = false\n", 8)], ids=["one_file", "no_variants"]
)
def test_one_source_file_or_no_variants_never_forks(
    small_corpus, tmp_path, monkeypatch, files, settings, rows
):
    root = tmp_path / "corpus"
    root.mkdir()
    for name in sorted(os.listdir(small_corpus))[:files]:
        shutil.copy(os.path.join(small_corpus, name), root / name)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"ravdess_root = {root}\nclip_seconds = 0.5\n" + settings)
    forks = pin_cpus(monkeypatch, 3)
    out = tmp_path / "x"
    assert main(["extract", "--config", str(cfg), "--out", str(out)]) == 0
    assert forks == [] and len(read_csv(out / "features.csv")) == 1 + rows


@pytest.mark.parametrize(
    "command, settings",
    [
        ("run", "model = lstm\n"),
        ("compare", "feature_modes = combined, wavelet, mfcc\nmodels = cnn, lstm\n"),
    ],
    ids=["run_lstm_mfcc", "compare_three_modes"],
)
def test_each_record_gets_one_mfcc_pass_and_one_extract(
    small_corpus, tmp_path, monkeypatch, command, settings
):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\nepochs = 1\nbatch_size = 8\n"
        "stretch_rates = 0.8\npitch_semitones = 2\n" + settings
    )
    calls, seen = {"mfcc": 0, "extract": 0}, []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    real_materialize = cli._materialize

    def recording_materialize(records, cfg, modes, want_sequences):
        tables, sequences = real_materialize(records, cfg, modes, want_sequences)
        seen.append((records, cfg, tables))
        return tables, sequences

    pin_cpus(monkeypatch, 1)  # serial extraction: every call is made in this process
    monkeypatch.setattr(features, "mfcc", counted("mfcc", features.mfcc))
    monkeypatch.setattr(cli, "extract", counted("extract", cli.extract))
    monkeypatch.setattr(cli, "_materialize", recording_materialize)
    out = tmp_path / "x"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    records = len(read_csv(out / "manifest.csv")) - 1
    assert records == 32 and calls == {"mfcc": records, "extract": records}

    # every table, combined included, holds the bytes of a one-mode extraction
    [(expanded, run_cfg, tables)] = seen
    for mode, table in tables.items():
        alone = real_materialize(expanded, run_cfg, (mode,), False)[0][mode]
        assert np.array_equal(table.X, alone.X) and table.schema == alone.schema


def test_the_first_failing_record_fails_alike_on_any_cpu_count(
    small_corpus, tmp_path, monkeypatch, capsys
):
    # 10 source files: the one at index 4 is too short for the vocoder and
    # the last is not a WAV. 2 CPUs extract file 4 in this process, 3 CPUs
    # in the first child while the second child fails on file 9; either
    # way the error is file 4's, as in the serial loop.
    root = tmp_path / "corpus"
    shutil.copytree(small_corpus, root)
    write_wav(root / "03-01-04-01-01-99-01.wav", AudioClip(np.zeros(512), 16000))
    (root / "03-01-08-01-01-99-01.wav").write_bytes(b"not a wav")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"ravdess_root = {root}\nclip_seconds = 0.5\n")
    outcomes = {}
    for cpus in (1, 2, 3):
        forks = pin_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        capsys.readouterr()
        code = main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
        states = dict(line.split() for line in (out / "MANIFEST").read_text().splitlines())
        outcomes[cpus] = (code, capsys.readouterr().err.splitlines(), states["extract"])
        assert len(forks) == cpus - 1
        # the split stage wrote its record before extraction began
        assert states["split"] == "ok" and (out / "split.json").exists()
    short = root / "03-01-04-01-01-99-01.wav"
    expected = f"error: need at least 1024 samples, got 512 in {short} (provenance stretch(rate=0.8))"
    assert outcomes[1] == (1, [expected], "failed")
    assert outcomes[2] == outcomes[1] and outcomes[3] == outcomes[1]
    assert_no_child_left()


def test_a_worker_that_dies_fails_the_run_with_one_line(small_corpus, tmp_path, monkeypatch, capsys):
    parent, real_extract = os.getpid(), cli.extract

    def dying_extract(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_extract(*args)

    monkeypatch.setattr(cli, "extract", dying_extract)
    forks = pin_cpus(monkeypatch, 2)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\n")
    out = tmp_path / "r"
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: an extraction worker ended without sending its rows (killed by signal 9)"
    ]
    states = dict(line.split() for line in (out / "MANIFEST").read_text().splitlines())
    assert states["extract"] == "failed" and len(forks) == 1
    assert_no_child_left()


def test_an_interrupt_leaves_no_worker_behind(small_corpus, tmp_path, monkeypatch):
    parent, real_extract = os.getpid(), cli.extract

    def interrupted_extract(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real_extract(*args)

    monkeypatch.setattr(cli, "extract", interrupted_extract)
    forks = pin_cpus(monkeypatch, 3)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\n")
    with pytest.raises(KeyboardInterrupt):
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "r"), "--quiet"])
    assert len(forks) == 2
    assert_no_child_left()


# ---- compare's cells on every usable CPU ----

SIX_CELLS = [f"{m}_{n}" for m in ("mfcc", "wavelet", "combined") for n in ("cnn", "lstm")]


def mixed_length_records(root, seconds, seed):
    """Expanded records (default augmentation) of one source per class, the
    lengths cycling through `seconds`."""
    root.mkdir()
    for k, length in enumerate(seconds):
        part = root.parent / f"{root.name}_take{k}"
        synth.generate_corpus(part, clips_per_class=1, seconds=length, seed=seed)
        for name in sorted(os.listdir(part))[k :: len(seconds)]:
            os.replace(part / name, root / name)
    cfg = ExperimentConfig(ravdess_root=str(root), clip_seconds=1.0)
    records, _ = scan_dataset_detailed(root, "ravdess")
    return augment.expand(records, cfg.augment_plan()), cfg


def per_record_rows(records, cfg, modes):
    """Each record decoded, realized without a memo and extracted on its own."""
    stft_cfg, mel_cfg = cfg.stft_cfg(), cfg.mel_cfg()
    rows, sequences = {m: [] for m in modes}, []
    for rec in records:
        variant = augment.realize(load_clip(rec.path, cfg.rate), rec.provenance)
        clip = AudioClip(crop_or_pad(variant.samples, round(cfg.rate * cfg.clip_seconds)), cfg.rate)
        cepstra = features.mfcc_sequence(clip, stft_cfg, mel_cfg)
        extracted = features.extract(clip, modes, cepstra, stft_cfg, cfg.wavelet_spec())
        for m, (row, _) in extracted.items():
            rows[m].append(row)
        sequences.append(cepstra)
    return {m: np.array(r) for m, r in rows.items()}, np.stack(sequences)


@pytest.mark.parametrize("cpus", [1, 2])
def test_materialize_equals_per_record_realize_and_keeps_no_memo(tmp_path, monkeypatch, cpus):
    # sources of 0.9, 1.0 and 1.4 s at clip_seconds = 1.0: the pitch
    # resampler's outputs end below, at and past the memo's 16000-output cap
    first = mixed_length_records(tmp_path / "a", (0.9, 1.0, 1.4), seed=3)
    second = mixed_length_records(tmp_path / "b", (1.4, 0.9), seed=4)
    modes = ("mfcc", "wavelet", "combined")
    memos, analyses, real_stft = [], [], augment.stft

    class RecordedMemo(FrontEndMemo):
        def __init__(self, cap):
            super().__init__(cap)
            memos.append((cap, weakref.ref(self)))

    monkeypatch.setattr(cli, "FrontEndMemo", RecordedMemo)
    monkeypatch.setattr(augment, "stft", lambda x, cfg: analyses.append(x) or real_stft(x, cfg))
    forks = pin_cpus(monkeypatch, cpus)
    # the second corpus, extracted after the first in this process, must
    # equal its own per-record extraction: nothing outlives a call
    for records, cfg in (first, second):
        memos.clear()
        analyses.clear()
        tables, sequences = cli._materialize(records, cfg, modes, True)
        analysed = len(analyses)
        want_rows, want_sequences = per_record_rows(records, cfg, modes)
        for m in modes:
            assert tables[m].X.tobytes() == want_rows[m].tobytes()
        assert sequences.tobytes() == want_sequences.tobytes()
        # one memo, in this process's block, freed when the call returned
        assert [(cap, ref()) for cap, ref in memos] == [(16000, None)]
        if cpus == 1:  # one vocoder analysis per source file
            assert analysed == len({r.path for r in records}) == 8
    assert len(forks) == 2 * (cpus - 1)
    assert_no_child_left()


def write_six_cell_cfg(path, corpus):
    """cnn and lstm over three modes without variants: extraction stays in
    this process, so every fork trains cells."""
    path.write_text(
        f"ravdess_root = {corpus}\nclip_seconds = 0.5\nepochs = 1\nbatch_size = 8\n"
        "augment = false\nfeature_modes = mfcc, wavelet, combined\nmodels = cnn, lstm\n"
    )
    return str(path)


def test_cell_blocks_fill_longest_first():
    # grid_cnn48k's cells in cell order: mfcc (D=42), wavelet (20), combined (60)
    # each block lists its cells in cell order, so one block trains the grid in order
    assert cli._cell_blocks([42, 20, 60], 1) == [[0, 1, 2]]
    assert cli._cell_blocks([42, 20, 60], 2) == [[2], [0, 1]]
    assert cli._cell_blocks([42, 20, 60], 3) == [[2], [0], [1]]
    # equal sizes keep cell order, and a tie in load goes to the first block
    assert cli._cell_blocks([5, 5, 5, 5], 2) == [[0, 2], [1, 3]]


def test_compare_bytes_and_output_do_not_depend_on_the_cpu_count(
    small_corpus, tmp_path, monkeypatch, capsys
):
    cfg = write_six_cell_cfg(tmp_path / "exp.cfg", small_corpus)
    artifacts, stdout = {}, {}
    for cpus in (1, 2, 3):
        forks = pin_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        capsys.readouterr()
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
        stdout[cpus] = capsys.readouterr().out.splitlines()
        assert len(forks) == min(cpus, 6) - 1
        artifacts[cpus] = non_timing_artifacts(out)
    assert len(artifacts[1]) == 6 + 2 * 6  # report_ and confusion_ per cell
    assert artifacts[2] == artifacts[1] and artifacts[3] == artifacts[1]
    assert stdout[2] == stdout[1] and stdout[3] == stdout[1]
    heads = [ln.split(":")[0] for ln in stdout[1] if ln.startswith("--- ")]
    assert heads == [f"--- {tag}" for tag in SIX_CELLS]
    assert [ln.split()[0] for ln in stdout[1][:12]] == ["---", "epoch"] * 6
    assert_no_child_left()


def test_a_one_cpu_grid_prints_each_cell_as_it_trains(small_corpus, tmp_path, monkeypatch, capsys):
    real_train_cell, printed = cli._train_cell, []

    def recording_train_cell(*args):
        # the first word of each stdout line printed since the previous cell began
        printed.append([ln.split()[0] for ln in capsys.readouterr().out.splitlines()])
        return real_train_cell(*args)

    monkeypatch.setattr(cli, "_train_cell", recording_train_cell)
    forks = pin_cpus(monkeypatch, 1)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\nepochs = 1\nbatch_size = 8\n"
        "augment = false\nfeature_modes = mfcc, wavelet, combined\nmodels = cnn\n"
    )
    capsys.readouterr()
    assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
    # each cell's header comes before it trains, and its epoch line before the next cell's
    assert printed == [["---"], ["epoch", "---"], ["epoch", "---"]]
    assert forks == []


def test_a_failing_cell_fails_alike_on_any_cpu_count(small_corpus, tmp_path, monkeypatch, capsys):
    real_train_cell = cli._train_cell

    def failing_on_wavelet_cnn(cfg, model_name, shape, data, log, helper):
        # wavelet_cnn is trained in a child on 2 and 3 CPUs
        if model_name == "cnn" and shape[0] == 20:
            raise NonFiniteOutput("injected non-finite loss")
        return real_train_cell(cfg, model_name, shape, data, log, helper)

    monkeypatch.setattr(cli, "_train_cell", failing_on_wavelet_cnn)
    cfg = write_six_cell_cfg(tmp_path / "exp.cfg", small_corpus)
    outcomes = {}
    for cpus in (1, 2, 3):
        forks = pin_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        capsys.readouterr()
        code = main(["compare", "--config", cfg, "--out", str(out), "--quiet"])
        states = dict(line.split() for line in (out / "MANIFEST").read_text().splitlines())
        files = sorted(name for name in os.listdir(out) if name.startswith(("report_", "timing_")))
        outcomes[cpus] = (code, capsys.readouterr().err.splitlines(), states["train"], files)
        assert len(forks) == min(cpus, 6) - 1
    others = [tag for tag in SIX_CELLS if tag != "wavelet_cnn"]
    assert outcomes[1] == (
        1,
        [
            "error: cell wavelet_cnn failed: injected non-finite loss (NonFiniteOutput)",
            "error: 1 cell(s) failed: wavelet_cnn",
        ],
        "failed",
        sorted(f"{kind}_{tag}.csv" for kind in ("report", "timing") for tag in others),
    )
    assert outcomes[2] == outcomes[1] and outcomes[3] == outcomes[1]
    assert_no_child_left()


def test_a_training_worker_that_dies_fails_compare_with_one_line(
    small_corpus, tmp_path, monkeypatch, capsys
):
    parent, real_train_cell = os.getpid(), cli._train_cell

    def dying_train_cell(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_train_cell(*args)

    monkeypatch.setattr(cli, "_train_cell", dying_train_cell)
    forks = pin_cpus(monkeypatch, 2)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"ravdess_root = {small_corpus}\nclip_seconds = 0.5\nepochs = 1\naugment = false\n"
        "feature_modes = mfcc, wavelet, combined\nmodels = cnn\n"
    )
    out = tmp_path / "c"
    capsys.readouterr()
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: a training worker ended without sending its cells (killed by signal 9)"
    ]
    states = dict(line.split() for line in (out / "MANIFEST").read_text().splitlines())
    assert (states["train"], states["report"], len(forks)) == ("failed", "pending", 1)
    # this process trained combined_cnn, the largest cell, and kept its files;
    # the child died before it finished mfcc_cnn or wavelet_cnn
    kept = sorted(n for n in os.listdir(out) if n.endswith(".csv") and n != "manifest.csv")
    assert kept == ["confusion_combined_cnn.csv", "report_combined_cnn.csv", "timing_combined_cnn.csv"]
    assert_no_child_left()
