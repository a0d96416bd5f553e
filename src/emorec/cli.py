"""Command-line harness: scan / augment / extract / run / compare / viz /
synth subcommands over the library pipeline.

Exit codes: 0 success, 1 runtime failure (I/O, malformed data, training
errors), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

import numpy as np

from . import augment as aug
from . import synth, viz
from .artifacts import write_csv, write_json, write_lines
from .audio_io import (
    EMOTIONS,
    fix_length,
    load_clip,
    scan_dataset_detailed,
    write_manifest,
)
from .config import ExperimentConfig, load_config
from .dataset import (
    FeatureTable,
    apply_standardizer,
    fit_standardizer,
    one_hot,
    split_hash,
    split_indices,
    split_rows,
    write_features_csv,
    write_standardizer,
)
from .dsp import extract, mfcc_sequence
from .errors import ClipNotFound, ConfigError, EmorecError, EmptyScan, NonFiniteOutput
from .nn import (
    build_model,
    cnn_preset,
    lstm_preset,
    save_checkpoint,
    train,
    write_confusion_csv,
    write_report_csv,
    write_timing_csv,
)

_SEED_STREAMS = ("augment", "init", "shuffle", "dropout")


# --------------------------------------------------------------------------
# Shared plumbing
# --------------------------------------------------------------------------


def _load_cfg(args) -> ExperimentConfig:
    overrides = {}
    for item in args.seed_override or []:
        name, sep, value = item.partition("=")
        if not sep or name not in _SEED_STREAMS:
            raise ConfigError(
                f"--seed-override expects one of {_SEED_STREAMS} as name=value, got {item!r}"
            )
        overrides[f"seed_{name}"] = value
    cfg = load_config(args.config, overrides)
    cfg.validate()
    return cfg


def _scan_all(cfg: ExperimentConfig):
    """Labeled clips under every enabled root. Skipped files are reported on
    stderr before an empty scan raises, so that error comes with its causes."""
    records = []
    for name, root in cfg.enabled_corpora():
        recs, skips = scan_dataset_detailed(root, name)
        records.extend(recs)
        for path, reason in skips:
            print(f"warning: skipped {path}: {reason}", file=sys.stderr)
    if not records:
        raise EmptyScan("no decodable labeled clips under the configured roots")
    return records


def _expand_records(cfg: ExperimentConfig, records):
    plan = cfg.augment_plan()
    return (aug.expand(records, plan) if plan else list(records)), plan


def _materialize(records, cfg: ExperimentConfig, modes, want_sequences: bool):
    """Decode + realize each record once, extracting every requested mode.

    Returns ({mode: FeatureTable}, sequences or None). Records are grouped
    by source path (expand keeps variants adjacent), so each file is decoded
    a single time. A non-finite feature raises NonFiniteOutput naming the
    record that produced it.
    """
    stft_cfg, mel_cfg = cfg.stft_cfg(), cfg.mel_cfg()
    wspec = cfg.wavelet_spec()
    rows = {m: [] for m in modes}
    schemas = {}
    seq_rows = [] if want_sequences else None
    labels = [r.emotion for r in records]
    provenance = [r.provenance for r in records]
    paths = [r.path for r in records]
    cached_path, cached_clip = None, None
    for rec in records:
        if rec.path != cached_path:
            cached_clip = load_clip(rec.path, rate=cfg.rate, seconds=None)
            cached_path = rec.path
        clip = fix_length(aug.realize(cached_clip, rec.provenance), cfg.clip_seconds)
        feats = []
        for m in modes:
            vec, schema = extract(clip, mode=m, stft_cfg=stft_cfg, mel_cfg=mel_cfg, wavelet_spec=wspec)
            rows[m].append(vec)
            schemas[m] = schema
            feats.append(vec)
        if want_sequences:
            seq_rows.append(mfcc_sequence(clip, stft_cfg, mel_cfg))
            feats.append(seq_rows[-1])
        if not all(np.all(np.isfinite(f)) for f in feats):
            raise NonFiniteOutput(
                f"non-finite features for {rec.path} (provenance {rec.provenance})"
            )
    tables = {
        m: FeatureTable(np.array(rows[m]), labels, schemas[m], provenance, paths)
        for m in modes
    }
    sequences = np.stack(seq_rows) if want_sequences else None
    return tables, sequences


def _prepare_cell(model_name, mode, train_tab, test_tab, sequences, tr_idx, te_idx):
    """The fitted standardizer, input shape, standardized (x_tr, y_tr, x_te,
    y_te) and notes for one (model, feature mode) cell.

    The lstm on mfcc reads framewise sequences, standardized per coefficient
    over train frames. Every other cell reads flat feature rows standardized
    per column and reshaped to (D, 1) sequences. Both come out as
    (N, *shape), the model's declared input layout.
    """
    notes = []
    if model_name == "lstm" and mode == "mfcc":
        x_tr, x_te = sequences[tr_idx], sequences[te_idx]
        n_coef = x_tr.shape[2]
        std = fit_standardizer(
            x_tr.reshape(-1, n_coef), [f"mfcc_{i:02d}" for i in range(n_coef)]
        )
        shape = x_tr.shape[1:]
        notes.append(
            f"lstm consumed framewise mfcc sequences {shape}, standardized per "
            "coefficient over train frames"
        )
    else:
        x_tr, x_te = train_tab.X, test_tab.X
        std = fit_standardizer(x_tr, train_tab.schema)
        shape = (x_tr.shape[1], 1)
        if model_name == "lstm":
            notes.append(f"lstm consumed the {mode} vector as a ({shape[0]}, 1) sequence")
    x_tr, x_te = (apply_standardizer(std, x).reshape((-1,) + shape) for x in (x_tr, x_te))
    return std, shape, (x_tr, one_hot(train_tab.y), x_te, one_hot(test_tab.y)), notes


def _train_cell(cfg, model_name, shape, data, log):
    spec = cnn_preset(shape[0]) if model_name == "cnn" else lstm_preset(cfg.lstm_units)
    model = build_model(spec, shape, seed=cfg.seed_init)
    report = train(
        model,
        *data,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        lr=cfg.lr,
        shuffle_seed=cfg.seed_shuffle,
        dropout_seed=cfg.seed_dropout,
        log=log,
    )
    return model, report


class _StageLog:
    """Progressive stage states written to MANIFEST inside the run dir. A
    stage entered again takes the state of its last entry."""

    def __init__(self, path, stages):
        self.path = path
        self.states = {s: "pending" for s in stages}
        self._flush()

    def _flush(self):
        write_lines(self.path, (f"{name} {state}" for name, state in self.states.items()))

    def mark(self, name, state):
        self.states[name] = state
        self._flush()

    @contextlib.contextmanager
    def stage(self, name):
        try:
            yield
        except BaseException:
            self.mark(name, "failed")
            raise
        self.mark(name, "ok")


def _stage_inputs(args, cfg: ExperimentConfig, later_stages, modes, models):
    """The prologue of extract, run and compare: write resolved_config.txt,
    open MANIFEST with scan, augment, extract and `later_stages`, then scan,
    expand (manifest.csv) and extract every mode in `modes` from one decode
    per clip. When a split follows, its row-count rule is checked before
    extraction. Framewise MFCC sequences are extracted when an lstm in
    `models` reads mfcc.

    Returns (stage log, expanded records, {mode: FeatureTable}, sequences or None).
    """
    os.makedirs(args.out, exist_ok=True)
    write_lines(os.path.join(args.out, "resolved_config.txt"), cfg.resolved_text().splitlines())
    log = _StageLog(
        os.path.join(args.out, "MANIFEST"), ["scan", "augment", "extract", *later_stages]
    )
    with log.stage("scan"):
        records = _scan_all(cfg)
    with log.stage("augment"):
        expanded, _ = _expand_records(cfg, records)
        write_manifest(expanded, os.path.join(args.out, "manifest.csv"))
    if "split" in later_stages:
        # the split's size rule reads only the row count, so a split with an
        # empty side fails here, before any clip is decoded
        try:
            split_indices(len(expanded), cfg.split_spec())
        except EmorecError:  # TooFewRows or DegenerateSplit
            log.mark("split", "failed")
            raise
    with log.stage("extract"):
        want_sequences = "lstm" in models and "mfcc" in modes
        tables, sequences = _materialize(expanded, cfg, modes, want_sequences)
    return log, expanded, tables, sequences


def _write_split_json(path, spec, tr_idx, te_idx) -> None:
    payload = {
        "test_fraction": spec.test_fraction,
        "seed": spec.seed,
        "shuffle": spec.shuffle,
        "train": list(map(int, tr_idx)),
        "test": list(map(int, te_idx)),
        "hash": split_hash(tr_idx, te_idx),
    }
    write_json(path, payload)


def _per_class_recall(confusion: np.ndarray) -> list[float]:
    sums = confusion.sum(axis=1)
    return [
        float(confusion[i, i] / sums[i]) if sums[i] else 0.0 for i in range(len(EMOTIONS))
    ]


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_scan(args) -> int:
    cfg = _load_cfg(args)
    records = _scan_all(cfg)
    counts = viz.class_histogram(records)
    print(f"scanned {len(records)} clips from {len(cfg.enabled_corpora())} corpus root(s)")
    for emotion in EMOTIONS:
        print(f"  {emotion:<9} {counts[emotion]}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_manifest(records, os.path.join(args.out, "manifest.csv"))
        viz.class_histogram(records, os.path.join(args.out, "class_counts.csv"))
        print(f"wrote {os.path.join(args.out, 'manifest.csv')}")
    return 0


def cmd_augment(args) -> int:
    cfg = _load_cfg(args)
    records = _scan_all(cfg)
    expanded, plan = _expand_records(cfg, records)
    if plan is None:
        print("augmentation disabled by config; manifest carries originals only")
    print(f"{len(records)} originals -> {len(expanded)} rows after expansion")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_manifest(expanded, os.path.join(args.out, "manifest.csv"))
        viz.class_histogram(expanded, os.path.join(args.out, "class_counts.csv"))
        print(f"wrote {os.path.join(args.out, 'manifest.csv')}")
    return 0


def cmd_extract(args) -> int:
    cfg = _load_cfg(args)
    mode = cfg.feature_mode
    log, _, tables, _ = _stage_inputs(args, cfg, [], (mode,), ())
    table = tables[mode]
    with log.stage("extract"):
        write_features_csv(table, os.path.join(args.out, "features.csv"))
    print(
        f"extracted {table.X.shape[0]} x {table.X.shape[1]} {mode} features "
        f"-> {os.path.join(args.out, 'features.csv')}"
    )
    return 0


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    out, mode = args.out, cfg.feature_mode
    log, expanded, tables, sequences = _stage_inputs(
        args, cfg, ["split", "standardize", "train", "report"], (mode,), (cfg.model,)
    )
    table = tables[mode]
    echo = print if not args.quiet else None

    with log.stage("extract"):
        write_features_csv(table, os.path.join(out, "features.csv"))
    with log.stage("split"):
        sspec = cfg.split_spec()
        tr_idx, te_idx = split_rows(table, sspec)
        _write_split_json(os.path.join(out, "split.json"), sspec, tr_idx, te_idx)
        train_tab, test_tab = table.take(tr_idx), table.take(te_idx)
        write_features_csv(train_tab, os.path.join(out, "train.csv"))
        write_features_csv(test_tab, os.path.join(out, "test.csv"))
    with log.stage("standardize"):
        std, shape, data, cell_notes = _prepare_cell(
            cfg.model, mode, train_tab, test_tab, sequences, tr_idx, te_idx
        )
        write_standardizer(std, os.path.join(out, "standardizer.json"))
    with log.stage("train"):
        model, report = _train_cell(cfg, cfg.model, shape, data, echo)
        save_checkpoint(model, os.path.join(out, "model.ckpt"))
    with log.stage("report"):
        write_report_csv(report, os.path.join(out, "report.csv"))
        write_timing_csv(report, os.path.join(out, "timing.csv"))
        write_confusion_csv(report.confusion, os.path.join(out, "confusion.csv"))
        notes = [
            f"model = {cfg.model}",
            f"feature_mode = {mode}",
            f"rows: {len(expanded)} total, {len(tr_idx)} train, {len(te_idx)} test",
            f"split hash = {split_hash(tr_idx, te_idx)}",
            f"augmentation = {'on' if cfg.augment_plan() else 'off'}",
            f"test accuracy = {report.test_accuracy!r}",
        ]
        notes.extend(cell_notes)
        notes.extend(report.notes)
        write_lines(os.path.join(out, "notes.txt"), notes)
    print(f"test accuracy {report.test_accuracy:.4f}; artifacts in {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    out = args.out
    modes = tuple(dict.fromkeys(cfg.feature_modes))
    model_names = tuple(dict.fromkeys(cfg.models))
    log, _, tables, sequences = _stage_inputs(
        args, cfg, ["split", "train", "report"], modes, model_names
    )
    echo = print if not args.quiet else None

    # every table holds the same records in the same order, so one split
    # serves every feature mode
    with log.stage("split"):
        tr_idx, te_idx = split_rows(tables[modes[0]], cfg.split_spec())
    comparison_rows, recall_rows, failures = [], [], []
    with log.stage("train"):
        for mode in modes:
            train_tab, test_tab = tables[mode].take(tr_idx), tables[mode].take(te_idx)
            for model_name in model_names:
                tag = f"{mode}_{model_name}"
                try:
                    _, shape, data, _ = _prepare_cell(
                        model_name, mode, train_tab, test_tab, sequences, tr_idx, te_idx
                    )
                    if echo:
                        echo(f"--- {tag}: input {shape}, {len(tr_idx)} train rows")
                    _, report = _train_cell(cfg, model_name, shape, data, echo)
                except Exception as exc:  # keep the remaining grid cells alive
                    failures.append(tag)
                    kind = type(exc).__name__
                    print(f"error: cell {tag} failed: {exc} ({kind})", file=sys.stderr)
                    continue
                # written per cell, so a grid stopped midway keeps its finished cells
                write_report_csv(report, os.path.join(out, f"report_{tag}.csv"))
                write_timing_csv(report, os.path.join(out, f"timing_{tag}.csv"))
                write_confusion_csv(report.confusion, os.path.join(out, f"confusion_{tag}.csv"))
                mean_seconds = float(np.mean(report.seconds)) if report.seconds else 0.0
                comparison_rows.append(
                    [mode, model_name, repr(report.test_accuracy), report.epochs, f"{mean_seconds:.6f}"]
                )
                for emotion, recall in zip(EMOTIONS, _per_class_recall(report.confusion)):
                    recall_rows.append([mode, model_name, emotion, repr(recall)])
    if failures:
        log.mark("train", "failed")
    with log.stage("report"):
        header = ["feature_mode", "model", "test_accuracy", "epochs", "seconds_per_epoch"]
        write_csv(os.path.join(out, "comparison.csv"), header, comparison_rows)
        header = ["feature_mode", "model", "emotion", "recall"]
        write_csv(os.path.join(out, "per_class_recall.csv"), header, recall_rows)

    for row in comparison_rows:
        print(f"{row[0]:<9} {row[1]:<5} test_accuracy={float(row[2]):.4f}")
    if failures:
        print(f"error: {len(failures)} cell(s) failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def cmd_viz(args) -> int:
    cfg = _load_cfg(args)
    key, sep, value = args.selector.partition("=")
    if not sep or key not in ("emotion", "path"):
        raise ConfigError(f"selector must be emotion=<name> or path=<substring>, got {args.selector!r}")
    if key == "emotion" and value not in EMOTIONS:
        raise ConfigError(f"unknown emotion {value!r}; expected one of {', '.join(EMOTIONS)}")
    if args.max_points < 2:
        raise ConfigError("--max-points must be >= 2")
    records = _scan_all(cfg)
    if key == "emotion":
        matches = [r for r in records if r.emotion == value]
    else:
        matches = [r for r in records if value in r.path]
    if not matches:
        raise ClipNotFound(f"no scanned clip matches {args.selector!r}")
    rec = matches[0]
    clip = load_clip(rec.path, rate=cfg.rate, seconds=None)
    os.makedirs(args.out, exist_ok=True)
    wave_path = os.path.join(args.out, "waveplot.csv")
    viz.waveplot_export(clip, wave_path, max_points=args.max_points)
    pgm_path, spec_csv = viz.spectrogram_export(
        clip, cfg.stft_cfg(), os.path.join(args.out, "spectrogram")
    )
    viz.class_histogram(records, os.path.join(args.out, "class_counts.csv"))
    print(f"selected {rec.path} ({rec.emotion}, {rec.dataset})")
    print(f"wrote {wave_path}, {pgm_path}, {spec_csv}")
    return 0


def cmd_synth(args) -> int:
    if args.clips_per_class < 1:
        raise ConfigError("--clips-per-class must be >= 1")
    if args.rate < 1:
        raise ConfigError("--rate must be >= 1")
    if not args.seconds > 0:
        raise ConfigError("--seconds must be positive")
    samples = args.rate * args.seconds
    if not math.isfinite(samples) or round(samples) < 1:
        raise ConfigError("--rate * --seconds must round to a finite count of at least one sample")
    paths = synth.generate_corpus(
        args.out,
        clips_per_class=args.clips_per_class,
        seconds=args.seconds,
        rate=args.rate,
        seed=args.seed,
    )
    print(f"wrote {len(paths)} synthetic clips under {args.out} (scannable as ravdess)")
    return 0


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


def _common_parser(require_out: bool, with_config: bool = True) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    if with_config:
        p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", required=require_out, default=None, help="output directory")
    p.add_argument(
        "--seed-override",
        action="append",
        metavar="NAME=VALUE",
        help="override one seed stream (augment, init, shuffle, dropout); repeatable",
    )
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emorec",
        description="Speech emotion recognition experiments: deterministic "
        "feature extraction and from-scratch model training.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("scan", parents=[_common_parser(False)], help="index corpus roots")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser(
        "augment", parents=[_common_parser(False)], help="write the expanded clip manifest"
    )
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser(
        "extract", parents=[_common_parser(True)], help="extract features to csv"
    )
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser(
        "run", parents=[_common_parser(True)], help="full pipeline: scan to trained model"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "compare",
        parents=[_common_parser(True)],
        help="train every configured feature mode x model cell",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "viz", parents=[_common_parser(True)], help="export waveform/spectrogram for one clip"
    )
    p.add_argument("selector", help="emotion=<name> or path=<substring>")
    p.add_argument("--max-points", type=int, default=2000, help="waveplot decimation budget")
    p.set_defaults(func=cmd_viz)

    p = sub.add_parser(
        "synth",
        parents=[_common_parser(True, with_config=False)],
        help="generate a small synthetic labeled corpus",
    )
    p.add_argument("--clips-per-class", type=int, default=20)
    p.add_argument("--seconds", type=float, default=3.0)
    p.add_argument("--rate", type=int, default=16000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmorecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
