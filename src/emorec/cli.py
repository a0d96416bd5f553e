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

# one BLAS thread unless the caller set a count, before numpy loads: the
# thread count changes a matrix product's bits (README, Determinism)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import augment as aug
from . import synth, viz
from .artifacts import write_csv, write_json, write_lines
from .audio_io import (
    EMOTIONS,
    MAX_WAV_RATE,
    MAX_WAV_SAMPLES,
    AudioClip,
    FrontEndMemo,
    crop_or_pad,
    load_clip,
    scan_dataset_detailed,
    write_manifest,
)
from .config import ExperimentConfig, _parse_value, load_config
from .dataset import (
    FeatureTable,
    apply_standardizer,
    fit_standardizer,
    one_hot,
    split_hash,
    split_rows,
    write_features_csv,
    write_standardizer,
)
from .dsp.features import extract, mfcc_sequence
from .dsp.mel import mel_filterbank
from .errors import ClipNotFound, ConfigError, EmorecError, EmptyScan, NonFiniteOutput
from .host import _cpus, _fork_map, _keep_freed_memory, _return_freed_memory, _spare_cpu
from .nn.model import build_model, cnn_preset, lstm_preset, save_checkpoint, step_helper
from .nn.train import train, write_confusion_csv, write_report_csv, write_timing_csv

_SEED_STREAMS = ("augment", "init", "shuffle", "dropout")


# --------------------------------------------------------------------------
# Shared plumbing
# --------------------------------------------------------------------------


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    for item in getattr(args, "seed_override", None) or []:
        name, sep, value = item.partition("=")
        if not sep or name not in _SEED_STREAMS:
            raise ConfigError(
                f"--seed-override expects one of {_SEED_STREAMS} as name=value, got {item!r}"
            )
        # a value of the key's type, never config text: it can set no other key
        key = f"seed_{name}"
        setattr(cfg, key, _parse_value(key, value, getattr(cfg, key)))
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


def _extract_rows(records, cfg: ExperimentConfig, modes, want_sequences: bool):
    """Features of `records` in order: ({mode: schema}, [({mode: row}, cepstra
    or None) per record]). Consecutive records of one source path (expand
    keeps variants adjacent) share one decode. A clip's cepstra come from one
    mfcc_sequence call and extract derives every mode's row from them; a
    record keeps them only for sequences. A variant that cannot be realized
    and the first record with non-finite features raise an error naming it.

    The block builds one mel filterbank and one FrontEndMemo: the pitch
    resampler's weights per ratio, bounded by clip_seconds * rate outputs,
    and the vocoder analysis of the decoded source, which all of its
    variants share. Both are dropped when this returns.
    """
    stft_cfg, mel_cfg, wspec = cfg.stft_cfg(), cfg.mel_cfg(), cfg.wavelet_spec()
    need_cepstra = want_sequences or bool({"mfcc", "combined"} & set(modes))
    fb = mel_filterbank(mel_cfg, stft_cfg.n_fft, cfg.rate) if need_cepstra else None
    n = int(round(cfg.rate * cfg.clip_seconds))
    memo = FrontEndMemo(n)
    schemas, rows = {}, []
    cached_path, cached_clip = None, None
    for rec in records:
        where = f"{rec.path} (provenance {rec.provenance})"
        if rec.path != cached_path:
            cached_clip = load_clip(rec.path, cfg.rate)
            cached_path = rec.path
        try:
            variant = aug.realize(cached_clip, rec.provenance, memo)
        except EmorecError as exc:
            raise type(exc)(f"{exc} in {where}") from exc
        clip = AudioClip(crop_or_pad(variant.samples, n), cfg.rate)
        cepstra = mfcc_sequence(clip, stft_cfg, mel_cfg, fb) if need_cepstra else None
        features = extract(clip, modes, cepstra, stft_cfg, wspec)
        vectors = {m: row for m, (row, _) in features.items()}
        kept = cepstra if want_sequences else None
        if not all(np.all(np.isfinite(a)) for a in [*vectors.values(), kept] if a is not None):
            raise NonFiniteOutput(f"non-finite features for {where}")
        schemas = {m: schema for m, (_, schema) in features.items()}
        rows.append((vectors, kept))
    return schemas, rows


def _materialize(records, cfg: ExperimentConfig, modes, want_sequences: bool):
    """Decode + realize each record once, extracting every requested mode.

    Returns ({mode: FeatureTable}, sequences or None). The records are cut
    into contiguous runs of one source path. When they carry augmented
    variants, the runs go in one block per usable CPU, extracted in forked
    children (host._fork_map) and joined in record order, so the rows, and the
    first error raised, do not depend on the number of CPUs. Without
    variants a file holds one front-end pass, too little to pay for a fork
    (README, Determinism), and one block runs here.
    """
    starts = [i for i, r in enumerate(records) if i == 0 or r.path != records[i - 1].path]
    varied = any(r.provenance != "original" for r in records)
    n = min(_cpus(), len(starts)) if varied else 1
    cuts = [0] + [starts[k * len(starts) // n] for k in range(1, n)] + [len(records)]
    parts = _fork_map(
        lambda block: _extract_rows(block, cfg, modes, want_sequences),
        [records[a:b] for a, b in zip(cuts, cuts[1:])],
        "an extraction worker ended without sending its rows",
    )
    schemas = parts[0][0]
    rows = [row for _, block in parts for row in block]
    labels = [r.emotion for r in records]
    provenance = [r.provenance for r in records]
    tables = {
        m: FeatureTable(np.array([r[m] for r, _ in rows]), labels, schemas[m], provenance)
        for m in modes
    }
    sequences = np.stack([c for _, c in rows]) if want_sequences else None
    return tables, sequences


def _reads_sequences(model_name, mode) -> bool:
    """Whether a cell reads framewise sequences: only the lstm on mfcc does."""
    return model_name == "lstm" and mode == "mfcc"


def _prepare_cell(model_name, mode, table, sequences, tr_idx, te_idx):
    """The fitted standardizer, input shape, standardized (x_tr, y_tr, x_te,
    y_te) and notes for one (model, feature mode) cell, split by row index.

    The lstm on mfcc reads the framewise sequences (N, T, n_mfcc), every
    other cell the mode's table rows as (D, 1) sequences. The last axis is
    standardized over train entries, named by the table's leading columns
    (the mfcc table's cepstral ones for sequences), and both sides come out
    as (N, *shape), the model's declared input layout. Both sides are
    standardized in their own fancy-indexed copies; `table` and `sequences`
    are only read, so compare's later cells see them as extracted.
    """
    seq = _reads_sequences(model_name, mode)
    x = sequences if seq else table.X
    shape = x.shape[1:] if seq else (x.shape[1], 1)
    x_tr, x_te = x[tr_idx], x[te_idx]
    std = fit_standardizer(x_tr.reshape(-1, x.shape[-1]), table.schema[: x.shape[-1]])
    x_tr, x_te = (apply_standardizer(std, v, out=v).reshape((-1, *shape)) for v in (x_tr, x_te))
    y_tr, y_te = (one_hot([table.y[i] for i in idx]) for idx in (tr_idx, te_idx))
    notes = []
    if seq:
        notes.append(
            f"lstm consumed framewise mfcc sequences {shape}, standardized per "
            "coefficient over train frames"
        )
    elif model_name == "lstm":
        notes.append(f"lstm consumed the {mode} vector as a ({shape[0]}, 1) sequence")
    return std, shape, (x_tr, y_tr, x_te, y_te), notes


def _train_cell(cfg, model_name, shape, data, log, helper):
    """Build and train one cell's model; with helper, the model has one
    helper thread while it trains (step_helper). The callers grant one only
    to a process with a spare CPU (host._spare_cpu): a second thread on a
    CPU that another process trains on slows both."""
    spec = cnn_preset(shape[0]) if model_name == "cnn" else lstm_preset(cfg.lstm_units)
    model = build_model(spec, shape, seed=cfg.seed_init)
    with step_helper(model) if helper else contextlib.nullcontext():
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


def _cell_blocks(sizes, n):
    """Cell indices in n blocks, filled longest-first: each cell, in decreasing
    size (ties in cell order), joins the least-loaded block (ties to the first).
    Each block lists its cells in cell order; the blocks depend only on sizes and n."""
    blocks, loads = [[] for _ in range(n)], [0] * n
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        k = loads.index(min(loads))
        blocks[k].append(i)
        loads[k] += sizes[i]
    return [sorted(block) for block in blocks]


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
    per clip. When a split follows, it is computed and written to split.json
    before extraction. Framewise MFCC sequences are extracted when a cell of
    `models` x `modes` reads them (_reads_sequences).

    Returns (stage log, {mode: FeatureTable}, sequences or None,
    (train, test) row indices or None).
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
    split = None
    if "split" in later_stages:
        # the split reads only the expanded records, so a split with an
        # empty side fails here, before any clip is decoded
        with log.stage("split"):
            split = split_rows(expanded, cfg.split_spec())
            _write_split_json(os.path.join(args.out, "split.json"), cfg.split_spec(), *split)
    with log.stage("extract"):
        want_sequences = any(_reads_sequences(m, mode) for m in models for mode in modes)
        tables, sequences = _materialize(expanded, cfg, modes, want_sequences)
    # the front-end memo and the extraction buffers are free now; with host's
    # fixed trim threshold they would stay in the heap through training
    _return_freed_memory()
    return log, tables, sequences, split


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


def _write_records(out, records) -> None:
    """The --out of scan and augment: manifest.csv and class_counts.csv."""
    os.makedirs(out, exist_ok=True)
    write_manifest(records, os.path.join(out, "manifest.csv"))
    viz.class_histogram(records, os.path.join(out, "class_counts.csv"))
    print(f"wrote {os.path.join(out, 'manifest.csv')}")


def cmd_scan(args, cfg: ExperimentConfig) -> int:
    records = _scan_all(cfg)
    counts = viz.class_histogram(records)
    print(f"scanned {len(records)} clips from {len(cfg.enabled_corpora())} corpus root(s)")
    for emotion in EMOTIONS:
        print(f"  {emotion:<9} {counts[emotion]}")
    if args.out:
        _write_records(args.out, records)
    return 0


def cmd_augment(args, cfg: ExperimentConfig) -> int:
    records = _scan_all(cfg)
    expanded, plan = _expand_records(cfg, records)
    if plan is None:
        print("augmentation disabled by config; manifest carries originals only")
    print(f"{len(records)} originals -> {len(expanded)} rows after expansion")
    if args.out:
        _write_records(args.out, expanded)
    return 0


def cmd_extract(args, cfg: ExperimentConfig) -> int:
    mode = cfg.feature_mode
    log, tables, _, _ = _stage_inputs(args, cfg, [], (mode,), ())
    table = tables[mode]
    with log.stage("extract"):
        write_features_csv(table, os.path.join(args.out, "features.csv"))
    print(
        f"extracted {table.X.shape[0]} x {table.X.shape[1]} {mode} features "
        f"-> {os.path.join(args.out, 'features.csv')}"
    )
    return 0


def cmd_run(args, cfg: ExperimentConfig) -> int:
    out, mode = args.out, cfg.feature_mode
    log, tables, sequences, (tr_idx, te_idx) = _stage_inputs(
        args, cfg, ["split", "standardize", "train", "report"], (mode,), (cfg.model,)
    )
    table = tables[mode]
    echo = print if not args.quiet else None

    with log.stage("extract"):
        write_features_csv(table, os.path.join(out, "features.csv"))
    with log.stage("split"):
        write_features_csv(table.take(tr_idx), os.path.join(out, "train.csv"))
        write_features_csv(table.take(te_idx), os.path.join(out, "test.csv"))
    with log.stage("standardize"):
        std, shape, data, cell_notes = _prepare_cell(
            cfg.model, mode, table, sequences, tr_idx, te_idx
        )
        write_standardizer(std, os.path.join(out, "standardizer.json"))
    # training reads only the cell's standardized copies: the raw table and
    # sequences go back to the heap before the model's buffers are allocated
    n_rows = len(table)
    del tables, sequences, table
    with log.stage("train"):
        model, report = _train_cell(cfg, cfg.model, shape, data, echo, _spare_cpu(1))
        save_checkpoint(model, os.path.join(out, "model.ckpt"))
    with log.stage("report"):
        write_report_csv(report, os.path.join(out, "report.csv"))
        write_timing_csv(report, os.path.join(out, "timing.csv"))
        write_confusion_csv(report.confusion, os.path.join(out, "confusion.csv"))
        notes = [
            f"model = {cfg.model}",
            f"feature_mode = {mode}",
            f"rows: {n_rows} total, {len(tr_idx)} train, {len(te_idx)} test",
            f"split hash = {split_hash(tr_idx, te_idx)}",
            f"augmentation = {'on' if cfg.augment_plan() else 'off'}",
            f"test accuracy = {report.test_accuracy!r}",
        ]
        notes.extend(cell_notes)
        notes.extend(report.notes)
        write_lines(os.path.join(out, "notes.txt"), notes)
    print(f"test accuracy {report.test_accuracy:.4f}; artifacts in {out}")
    return 0


def cmd_compare(args, cfg: ExperimentConfig) -> int:
    out = args.out
    modes = tuple(dict.fromkeys(cfg.feature_modes))
    model_names = tuple(dict.fromkeys(cfg.models))
    # every table holds the expanded records in order, so one split serves
    # every feature mode
    log, tables, sequences, (tr_idx, te_idx) = _stage_inputs(
        args, cfg, ["split", "train", "report"], modes, model_names
    )
    echo = print if not args.quiet else None
    cells = [(mode, model_name) for mode in modes for model_name in model_names]

    with log.stage("train"):
        # a cell's input size, train rows x prod(shape), stands in for its cost
        sizes = [
            len(tr_idx)
            * (sequences[0].size if _reads_sequences(model, mode) else tables[mode].X.shape[1])
            for mode, model in cells
        ]
        blocks = _cell_blocks(sizes, min(_cpus(), len(cells)))
        helper = _spare_cpu(len(blocks))  # each block trains in its own process

        def train_block(block):
            """[(report or None, error line or None, log lines)] of block's
            cells, each cell's files written once it has trained. A lone
            block prints its log lines as they come; the blocks of a forked
            grid keep theirs, to be printed in cell order."""
            results = []
            for i in block:
                mode, model_name = cells[i]
                tag, lines = f"{mode}_{model_name}", []
                say = lines.append if echo and len(blocks) > 1 else echo
                try:
                    _, shape, data, _ = _prepare_cell(
                        model_name, mode, tables[mode], sequences, tr_idx, te_idx
                    )
                    if say:
                        say(f"--- {tag}: input {shape}, {len(tr_idx)} train rows")
                    _, report = _train_cell(cfg, model_name, shape, data, say, helper)
                except Exception as exc:  # keep the remaining grid cells alive
                    error = f"error: cell {tag} failed: {exc} ({type(exc).__name__})"
                    results.append((None, error, lines))
                    continue
                # written where the cell trained, so a grid stopped midway keeps its finished cells
                write_report_csv(report, os.path.join(out, f"report_{tag}.csv"))
                write_timing_csv(report, os.path.join(out, f"timing_{tag}.csv"))
                write_confusion_csv(report.confusion, os.path.join(out, f"confusion_{tag}.csv"))
                results.append((report, None, lines))
            return results

        parts = _fork_map(train_block, blocks, "a training worker ended without sending its cells")
    done = dict(zip((i for b in blocks for i in b), (r for p in parts for r in p)))
    comparison_rows, recall_rows, failures = [], [], []
    for i, (mode, model_name) in enumerate(cells):
        report, error, lines = done[i]
        for line in lines:
            print(line)
        if error:
            failures.append(f"{mode}_{model_name}")
            print(error, file=sys.stderr)
            continue
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


def cmd_viz(args, cfg: ExperimentConfig) -> int:
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
    clip = load_clip(rec.path, cfg.rate)
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


def cmd_synth(args, _cfg) -> int:
    if args.clips_per_class < 1:
        raise ConfigError("--clips-per-class must be >= 1")
    if not 1 <= args.rate <= MAX_WAV_RATE:
        raise ConfigError(f"--rate must lie in [1, {MAX_WAV_RATE}]")
    if not args.seconds > 0:
        raise ConfigError("--seconds must be positive")
    samples = args.rate * args.seconds
    if not math.isfinite(samples) or round(samples) < 1:
        raise ConfigError("--rate * --seconds must round to a finite count of at least one sample")
    if round(samples) > MAX_WAV_SAMPLES:
        raise ConfigError(f"--rate * --seconds exceeds the {MAX_WAV_SAMPLES} samples a WAV holds")
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


# each subcommand once: name -> (handler, help line, reads --config, --out
# required, the shared flags it reads). Only the commands that read a flag
# accept it: a seed can change what these write, and only run and compare
# print per-epoch progress.
_COMMANDS = {
    "scan": (cmd_scan, "index corpus roots", True, False, ""),
    "augment": (cmd_augment, "write the expanded clip manifest", True, False, "--seed-override"),
    "extract": (cmd_extract, "extract features to csv", True, True, "--seed-override"),
    "run": (cmd_run, "full pipeline: scan to trained model", True, True, "--seed-override --quiet"),
    "compare": (
        cmd_compare,
        "train every configured feature mode x model cell",
        True,
        True,
        "--seed-override --quiet",
    ),
    "viz": (cmd_viz, "export waveform/spectrogram for one clip", True, True, ""),
    "synth": (cmd_synth, "generate a small synthetic labeled corpus", False, True, ""),
}

_SHARED_FLAGS = {
    "--seed-override": dict(
        action="append",
        metavar="NAME=INTEGER",
        help=f"override one seed stream ({', '.join(_SEED_STREAMS)}); repeatable",
    ),
    "--quiet": dict(action="store_true", help="suppress per-epoch progress"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emorec",
        description="Speech emotion recognition experiments: deterministic "
        "feature extraction and from-scratch model training.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_line, reads_config, out_required, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if reads_config:
            p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", required=out_required, default=None, help="output directory")
        for flag in flags.split():
            p.add_argument(flag, **_SHARED_FLAGS[flag])

    p = sub.choices["viz"]
    p.add_argument("selector", help="emotion=<name> or path=<substring>")
    p.add_argument("--max-points", type=int, default=2000, help="waveplot decimation budget")

    p = sub.choices["synth"]
    p.add_argument("--clips-per-class", type=int, default=20)
    p.add_argument("--seconds", type=float, default=3.0)
    p.add_argument("--rate", type=int, default=16000)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    # here, not at import: a program that imports emorec.cli or emorec.host
    # keeps its own allocator policy
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return 2
    handler, _, reads_config, _, _ = _COMMANDS[args.command]
    try:
        return handler(args, _load_cfg(args) if reads_config else None)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EmorecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
