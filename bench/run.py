"""emorec benchmark: closed-loop CLI workloads, a traced run per layer, and
a diff over two result sets.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --diff A.jsonl B.jsonl

Each execution is a closed loop with one client: the benchmark writes a
synthetic corpus from --seed, launches one `python -m emorec run|compare`
child on it, and waits for the child to exit before launching the next.
With --trace 0 it repeats executions for --seconds and reports the
end-to-end metrics of BENCHMARK.json (medians over executions). With
--trace 1 it runs the workload once as a child, twice in-process untraced
(the first a warm-up) and once in-process with every layer wrapped (see
tracer.py), and reports the per-layer metrics. The last stdout line is the JSON result; every result is
also appended, with the environment, to .bench_work/results.jsonl.

Run from the repository root. Works on a plain checkout (no install, no git
needed); exits non-zero without a result when src/emorec is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

import diff  # noqa: E402  (bench/ modules)
import tracer  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
CHILD_TIMEOUT_S = 60.0
EMOTIONS = 8
# default augmentation: one noise variant, two stretch rates, two pitch shifts
AUGMENT_VARIANTS = 5

# Sizes are scaled down from the pipeline defaults so that one execution
# takes a few seconds and a run holds several; every other setting is the
# pipeline default.
WORKLOADS = {
    # augmentation kernels: pitch_shift (vocoder + resample_ratio at
    # irrational ratios) and the hand-written fft dominate; training is
    # small; the only workload whose split discards extracted rows
    "augment_cnn16k": {
        "command": "run",
        "rate": 16000,
        "clips_per_class": 2,
        "clip_seconds": 1.0,
        "augmented": True,
        "config": {"model": "cnn", "feature_mode": "mfcc", "epochs": 3},
    },
    # training dominates: LSTM forward/backward at 184x40 with augmentation
    # bypassed; mfcc runs twice per row (summary + sequence)
    "lstm_seq16k": {
        "command": "run",
        "rate": 16000,
        "clips_per_class": 2,
        "clip_seconds": 3.0,
        "augmented": False,
        "config": {"model": "lstm", "feature_mode": "mfcc", "augment": "false", "epochs": 12},
    },
    # 48 kHz decode resamples at 1/3; forward-only FFT; CNN at D=20/42/60
    # across the wavelet, mfcc and combined modes of compare
    "grid_cnn48k": {
        "command": "compare",
        "rate": 48000,
        "clips_per_class": 2,
        "clip_seconds": 1.5,
        "augmented": False,
        "config": {"models": "cnn", "augment": "false", "epochs": 10},
    },
}

RUN_ARTIFACTS = (
    "MANIFEST",
    "resolved_config.txt",
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
)
COMPARE_ARTIFACTS = (
    "resolved_config.txt",
    "manifest.csv",
    "comparison.csv",
    "per_class_recall.csv",
)
COMPARE_CELLS = ("mfcc_cnn", "wavelet_cnn", "combined_cnn")


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment(seed: int) -> dict:
    """What the numbers depend on: code revision, interpreter, BLAS, cores."""
    import numpy as np

    rev = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        lines = proc.stdout.split()
        # a checkout that is not itself a git work tree has no revision
        if proc.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            rev = lines[1]
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "emorec")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            src_hash.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                src_hash.update(fh.read())
    blas = "unknown"
    with contextlib.suppress(Exception):
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    return {
        "git_rev": rev,
        "src_sha256": src_hash.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Setup: corpus and config
# ---------------------------------------------------------------------------


def corpus_dir(name: str) -> str:
    # relative, fixed path: manifest.csv records clip paths, and the
    # determinism check compares artifacts across executions of one run
    return os.path.join(".bench_work", name, "corpus")


def generate(name: str, seed: int) -> float:
    """Write the workload's corpus at its fixed path; returns seconds spent
    in synth.generate_corpus."""
    from emorec import synth

    wl = WORKLOADS[name]
    root = corpus_dir(name)
    shutil.rmtree(root, ignore_errors=True)
    started = time.perf_counter()
    paths = synth.generate_corpus(
        root,
        clips_per_class=wl["clips_per_class"],
        seconds=wl["clip_seconds"],
        rate=wl["rate"],
        seed=seed,
    )
    elapsed = time.perf_counter() - started
    if len(paths) != EMOTIONS * wl["clips_per_class"]:
        raise BenchError(f"synth wrote {len(paths)} clips")
    return elapsed


def write_config(name: str) -> str:
    wl = WORKLOADS[name]
    lines = [f"ravdess_root = {corpus_dir(name)}", f"clip_seconds = {wl['clip_seconds']}"]
    lines += [f"{k} = {v}" for k, v in wl["config"].items()]
    path = os.path.join(".bench_work", name, "experiment.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def cli_args(name: str, cfg: str, out: str) -> list[str]:
    return [WORKLOADS[name]["command"], "--config", cfg, "--out", out, "--quiet"]


# ---------------------------------------------------------------------------
# Executions
# ---------------------------------------------------------------------------


def run_child(name: str, cfg: str, out: str) -> dict:
    """One closed-loop execution: launch the CLI, wait for it, and read its
    wall time and resource usage."""
    shutil.rmtree(out, ignore_errors=True)
    err_path = os.path.join(".bench_work", name, "child.stderr")
    with open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "emorec", *cli_args(name, cfg, out)],
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        # a hung child is killed, so the run still ends and counts a failure
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def run_inprocess(name: str, cfg: str, out: str) -> dict:
    """One execution through emorec.cli.main in this process."""
    from emorec import cli

    shutil.rmtree(out, ignore_errors=True)
    sink = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(cli_args(name, cfg, out))
    return {"exit": code, "wall_s": time.perf_counter() - started}


# ---------------------------------------------------------------------------
# Correctness checks and artifact-derived metrics
# ---------------------------------------------------------------------------


def _read_csv(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def artifact_digest(out: str) -> str:
    """sha256 over every non-timing artifact. timing*.csv and the
    seconds_per_epoch column of comparison.csv differ between identical runs
    (the latter breaches the README contract, ROADMAP item 1), so they are
    left out."""
    h = hashlib.sha256()
    for fname in sorted(os.listdir(out)):
        if fname.startswith("timing"):
            continue
        path = os.path.join(out, fname)
        if fname == "comparison.csv":
            rows = _read_csv(path)
            col = rows[0].index("seconds_per_epoch")
            data = "\n".join(",".join(r[:col] + r[col + 1 :]) for r in rows).encode()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        h.update(fname.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def check_outputs(name: str, out: str) -> list[str]:
    """Problems with one execution's run directory; empty when correct."""
    wl = WORKLOADS[name]
    variants = AUGMENT_VARIANTS if wl["augmented"] else 0
    rows_expected = EMOTIONS * wl["clips_per_class"] * (1 + variants)
    if wl["command"] == "run":
        expected = list(RUN_ARTIFACTS)
    else:
        expected = list(COMPARE_ARTIFACTS)
        kinds = ("report", "timing", "confusion")
        expected += [f"{kind}_{cell}.csv" for cell in COMPARE_CELLS for kind in kinds]
    missing = [f for f in expected if not os.path.isfile(os.path.join(out, f))]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    problems = []
    if wl["command"] == "run":
        with open(os.path.join(out, "MANIFEST"), encoding="utf-8") as fh:
            states = [line.split() for line in fh if line.strip()]
        bad = [s[0] for s in states if s[1:] != ["ok"]]
        if bad:
            problems.append(f"MANIFEST stages not ok: {bad}")
        features = _read_csv(os.path.join(out, "features.csv"))
        width = len(features[0]) - 2
        if len(features) - 1 != rows_expected:
            problems.append(f"features.csv has {len(features) - 1} rows, expected {rows_expected}")
        if not all(math.isfinite(float(v)) for row in features[1:] for v in row[:width]):
            problems.append("features.csv holds a non-finite value")
    else:
        comparison = _read_csv(os.path.join(out, "comparison.csv"))
        cells = sorted(f"{r[0]}_{r[1]}" for r in comparison[1:])
        if cells != sorted(COMPARE_CELLS):
            problems.append(f"comparison.csv cells {cells}")
    manifest_rows = len(_read_csv(os.path.join(out, "manifest.csv"))) - 1
    if manifest_rows != rows_expected:
        problems.append(f"manifest.csv has {manifest_rows} rows, expected {rows_expected}")
    for fname in os.listdir(out):
        if fname.startswith("report"):
            losses = [float(r[1]) for r in _read_csv(os.path.join(out, fname))[1:]]
            if not losses or not all(math.isfinite(v) for v in losses):
                problems.append(f"{fname}: missing or non-finite loss")
    return problems


def training_stats(name: str, out: str) -> dict:
    """Training throughput inputs and held-out accuracy from the artifacts."""
    tags = [""] if WORKLOADS[name]["command"] == "run" else [f"_{c}" for c in COMPARE_CELLS]
    samples, seconds, accs = 0, 0.0, []
    for tag in tags:
        rows = _read_csv(os.path.join(out, f"confusion{tag}.csv"))[1:]
        confusion = [[int(v) for v in r[1:]] for r in rows]
        tested = sum(map(sum, confusion))
        accs.append(sum(confusion[i][i] for i in range(len(confusion))) / tested)
        if tag:
            # compare does not augment here, so every scanned row is kept
            train_rows = len(_read_csv(os.path.join(out, "manifest.csv"))) - 1 - tested
        else:
            with open(os.path.join(out, "split.json"), encoding="utf-8") as fh:
                train_rows = len(json.load(fh)["train"])
        epoch_seconds = [float(r[1]) for r in _read_csv(os.path.join(out, f"timing{tag}.csv"))[1:]]
        samples += train_rows * len(epoch_seconds)
        seconds += sum(epoch_seconds)
    return {"samples": samples, "seconds": seconds, "test_accuracy": statistics.fmean(accs)}


def verify(name: str, ex: dict, out: str, reference: str | None) -> list[str]:
    if ex["exit"] != 0:
        return [f"exit code {ex['exit']}"]
    problems = check_outputs(name, out)
    if not problems:
        ex["digest"] = artifact_digest(out)
        if reference is not None and ex["digest"] != reference:
            problems.append("non-timing artifacts differ from the first execution")
    return problems


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def run_end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    import emorec.cli  # noqa: F401  (compile and cache bytecode before timing)

    cfg = write_config(name)
    out = os.path.join(".bench_work", name, "out")
    setup, execs, rounds, failed, reference = [], [], [], 0, None
    loop_start = time.perf_counter()
    while True:
        # the corpus is rewritten before every execution, so the setup
        # samples spread over the whole window like the executions do
        round_start = time.perf_counter()
        setup.append(generate(name, seed))
        ex = run_child(name, cfg, out)
        problems = verify(name, ex, out, reference)
        if problems:
            failed += 1
            print(f"execution {len(execs) + 1} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            reference = reference or ex["digest"]
            ex.update(training_stats(name, out))
        execs.append(ex)
        now = time.perf_counter()
        rounds.append(now - round_start)
        # closed loop: start another execution only if it fits the window
        if now - loop_start + statistics.median(rounds) > seconds:
            break
    good = [e for e in execs if "samples" in e] or execs
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(e["wall_s"] for e in execs),
        "train_samples_per_s": statistics.median(
            e["samples"] / e["seconds"] if e.get("seconds") else 0.0 for e in good
        ),
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in execs),
        "ok_ratio": (len(execs) - failed) / len(execs),
    }
    print(
        f"{name}: {len(execs)} executions, wall_s "
        + " ".join(f"{e['wall_s']:.3f}" for e in execs)
        + f"; setup_s {' '.join(f'{s:.3f}' for s in setup)}",
        file=sys.stderr,
    )
    return values, len(execs), failed


def run_traced(name: str, seed: int) -> tuple[dict, int, int]:
    trace = tracer.Tracer()
    with trace.install():
        generate(name, seed)
    cfg = write_config(name)
    base = os.path.join(".bench_work", name)
    failures = []

    def checked(label, ex, out, reference):
        problems = verify(name, ex, out, reference)
        if problems:
            failures.append(f"{label}: {'; '.join(problems)}")
        return ex

    child_out = os.path.join(base, "out")
    child = checked("child", run_child(name, cfg, child_out), child_out, None)
    stats = training_stats(name, child_out) if not failures else {"test_accuracy": 0.0}
    reference = child.get("digest")

    # the first in-process execution fills the program's own caches (FFT
    # bit-reversal tables, filterbanks); the timed pair runs after it
    plain_out = os.path.join(base, "plain")
    for label in ("warm-up", "untraced"):
        plain = checked(label, run_inprocess(name, cfg, plain_out), plain_out, reference)
    trace.run_id = 1
    traced_out = os.path.join(base, "traced")
    with trace.install():
        traced = checked("traced", run_inprocess(name, cfg, traced_out), traced_out, reference)
    for failure in failures:
        print(f"execution failed: {failure}", file=sys.stderr)

    trace_dir = os.path.join(WORK, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    trace.write(os.path.join(trace_dir, f"{name}-seed{seed}.spans.csv"))

    values = trace.metrics()
    values["nn.train.test_accuracy"] = stats["test_accuracy"]
    values["process.cpu_s"] = child["cpu_s"]
    values["process.cpu_util"] = child["cpu_s"] / child["wall_s"]
    values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    print_layer_table(name, trace, traced["wall_s"])
    return values, 4, len(failures)


def print_layer_table(name: str, trace: tracer.Tracer, traced_wall: float) -> None:
    rows = sorted(trace.table().items(), key=lambda kv: -kv[1][2])
    print(f"\n{name}: per-layer spans (setup run 0 + one traced execution of {traced_wall:.3f} s)")
    print(f"{'span':<40} {'calls':>8} {'incl_s':>10} {'self_s':>10} {'self%':>6}")
    for span, (calls, incl, self_s) in rows:
        share = 100 * self_s / traced_wall
        print(f"{span:<40} {calls:>8} {incl:>10.4f} {self_s:>10.4f} {share:>6.1f}")


def result_json(spec: dict, values: dict, trace: bool, attempted: int, failed: int) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--diff", nargs=2, metavar=("A", "B"), help="compare two results.jsonl files"
    )
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    # one BLAS/OpenMP thread, set before numpy loads here and in every child
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        if args.diff:
            return diff.main(args.diff[0], args.diff[1], load_spec())
        if not args.workload:
            parser.error("--workload is required")
        if not os.path.isfile(os.path.join(SRC, "emorec", "cli.py")):
            raise BenchError(f"no emorec sources under {SRC}")
        sys.path.insert(0, SRC)
        spec = load_spec()
        env = environment(args.seed)
        os.makedirs(os.path.join(WORK, args.workload), exist_ok=True)
        if args.trace:
            values, attempted, failed = run_traced(args.workload, args.seed)
        else:
            values, attempted, failed = run_end_to_end(args.workload, args.seed, args.seconds)
        result = result_json(spec, values, bool(args.trace), attempted, failed)
    except (BenchError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    record.update(result)
    with open(os.path.join(WORK, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
