"""Outside-in span tracer for the emorec layers.

Wraps each layer's public functions at the module attribute through which
the pipeline calls them (for example ``emorec.augment.resample_ratio`` for
pitch shifting versus ``emorec.audio_io.resample_ratio`` for decoding), and
the forward/backward methods of the trained layer classes. Every call
records a span (name, start, end, parent, run id) in memory; nothing under
``src/`` changes. ``Tracer.install`` returns the wrappers to the original
functions on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time

# (module, attribute, span name). One span name may be reached through
# several attributes; the calls through all of them are aggregated.
FUNCTIONS = [
    ("emorec.synth", "generate_corpus", "synth.generate_corpus"),
    ("emorec.synth", "bulk_normal", "rng.bulk_normal"),
    ("emorec.augment", "bulk_normal", "rng.bulk_normal"),
    ("emorec.cli", "scan_dataset_detailed", "audio_io.scan_dataset_detailed"),
    ("emorec.audio_io", "read_wav", "audio_io.read_wav"),
    ("emorec.audio_io", "resample_ratio", "audio_io.resample_ratio@decode"),
    ("emorec.augment", "resample_ratio", "audio_io.resample_ratio@pitch"),
    ("emorec.augment", "realize", "augment.realize"),
    ("emorec.augment", "add_noise", "augment.add_noise"),
    ("emorec.augment", "time_stretch", "augment.time_stretch"),
    ("emorec.augment", "pitch_shift", "augment.pitch_shift"),
    ("emorec.dsp.fourier", "fft", "dsp.fourier.fft"),
    ("emorec.augment", "fft", "dsp.fourier.fft"),
    ("emorec.dsp.mel", "stft", "dsp.fourier.stft"),
    ("emorec.augment", "stft", "dsp.fourier.stft"),
    ("emorec.dsp.features", "mfcc", "dsp.mel.mfcc"),
    ("emorec.dsp.features", "wavelet_features", "dsp.wavelet.wavelet_features"),
    ("emorec.cli", "extract", "dsp.features.extract"),
    ("emorec.cli", "mfcc_sequence", "dsp.features.mfcc_sequence"),
    ("emorec.cli", "split_rows", "dataset.split_rows"),
    ("emorec.cli", "fit_standardizer", "dataset.fit_standardizer"),
    ("emorec.cli", "write_features_csv", "dataset.write_features_csv"),
    ("emorec.cli", "build_model", "nn.model.build_model"),
    ("emorec.cli", "save_checkpoint", "nn.model.save_checkpoint"),
    ("emorec.cli", "train", "nn.train.train"),
    ("emorec.nn.train", "evaluate", "nn.train.evaluate"),
    ("emorec.nn.train", "adam_update", "nn.optim.adam_update"),
    # the two pipeline stages, for cli.extract_s and cli.train_s
    ("emorec.cli", "_materialize", "cli.extract"),
    ("emorec.cli", "_train_cell", "cli.train"),
]

LAYER_CLASSES = ("Conv1DLayer", "MaxPool1DLayer", "DenseLayer", "DropoutLayer", "LSTMLayer")
LAYER_METHODS = ("forward", "backward")

STAGES = ("cli.extract", "cli.train")


def _span_names() -> list[str]:
    names = [span for _, _, span in FUNCTIONS if span not in STAGES]
    names += [f"nn.layers.{c}.{m}" for c in LAYER_CLASSES for m in LAYER_METHODS]
    return list(dict.fromkeys(names))


# ---------------------------------------------------------------------------
# Work counts computed from each call's arguments and result
# ---------------------------------------------------------------------------


def _fft_mflop(args, kwargs, result):
    n = result.shape[-1]
    frames = result.size // n
    return {"dsp.fourier.fft.mflop": 5.0 * n * math.log2(n) * frames / 1e6}


def _resample_mtaps(args, kwargs, result):
    return {"audio_io.resample_ratio.mtaps": result.shape[0] * 64 / 1e6}


def _materialize_rows(args, kwargs, result):
    return {"rows_extracted": len(args[0])}


def _realize_variant(args, kwargs, result):
    return {"augment.realize.variant_calls": int(args[1] != "original")}


def _split_kept(args, kwargs, result):
    train_idx, test_idx = result
    return {"rows_kept": len(train_idx) + len(test_idx), "rows_split": len(args[0])}


def _conv_macs(layer, batch: int, c_in: int) -> float:
    return batch * layer._out_len * layer.kernel_size * c_in * layer.filters / 1e6


def _conv_fwd(args, kwargs, result):
    layer, x = args[0], args[1]
    return {"nn.layers.Conv1DLayer.mmac": _conv_macs(layer, x.shape[0], x.shape[2])}


def _conv_bwd(args, kwargs, result):
    layer = args[0]
    b, _, c_in = layer._xp.shape
    return {"nn.layers.Conv1DLayer.mmac": 2 * _conv_macs(layer, b, c_in)}


def _lstm_macs(layer, x) -> float:
    b, t_len, d = x.shape
    u = layer.units
    return b * t_len * (d + u) * 4 * u / 1e6


def _lstm_fwd(args, kwargs, result):
    return {"nn.layers.LSTMLayer.mmac": _lstm_macs(args[0], args[1])}


def _lstm_bwd(args, kwargs, result):
    return {"nn.layers.LSTMLayer.mmac": 2 * _lstm_macs(args[0], args[0]._x)}


COUNTERS = {
    "dsp.fourier.fft": _fft_mflop,
    "audio_io.resample_ratio@decode": _resample_mtaps,
    "audio_io.resample_ratio@pitch": _resample_mtaps,
    "augment.realize": _realize_variant,
    "cli.extract": _materialize_rows,
    "dataset.split_rows": _split_kept,
    "nn.layers.Conv1DLayer.forward": _conv_fwd,
    "nn.layers.Conv1DLayer.backward": _conv_bwd,
    "nn.layers.LSTMLayer.forward": _lstm_fwd,
    "nn.layers.LSTMLayer.backward": _lstm_bwd,
}


# ---------------------------------------------------------------------------
# Span recording
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span store. A span is [name, start, end, parent, run, child_s]
    where parent is the index of the enclosing span (-1 at top level) and
    child_s accumulates the time covered by direct children."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def _wrap(self, span, fn):
        counter = COUNTERS.get(span)
        clock = time.perf_counter
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([span, clock(), 0.0, parent, self.run_id, 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec = spans[idx]
                rec[2] = clock()
                if parent >= 0:
                    spans[parent][5] += rec[2] - rec[1]
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    @contextlib.contextmanager
    def install(self):
        """Patch every traced attribute; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, span in FUNCTIONS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
            layers = importlib.import_module("emorec.nn.layers")
            for cls_name in LAYER_CLASSES:
                cls = getattr(layers, cls_name)
                for method in LAYER_METHODS:
                    original = cls.__dict__[method]
                    saved.append((cls, method, original))
                    setattr(cls, method, self._wrap(f"nn.layers.{cls_name}.{method}", original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """All spans as CSV: run,id,parent,name,start_s,end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run,id,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent, run, _) in enumerate(self.spans):
                fh.write(f"{run},{i},{parent},{name},{start!r},{end!r}\n")

    # -----------------------------------------------------------------------
    # Aggregation
    # -----------------------------------------------------------------------

    def table(self) -> dict[str, list[float]]:
        """span name -> [calls, inclusive seconds, self seconds]."""
        out: dict[str, list[float]] = {}
        for name, start, end, _, _, child_s in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_s
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values; spans that never ran read 0."""
        table = self.table()
        zero = [0, 0.0, 0.0]
        out: dict[str, float] = {}
        for name in _span_names():
            if "@" in name:
                base, site = name.split("@")
                calls, incl, _ = table.get(name, zero)
                out[f"{base}.{site}_calls"] = calls
                out[f"{base}.{site}_s"] = incl
                continue
            calls, incl, self_s = table.get(name, zero)
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        for stage in STAGES:
            out[f"{stage}_s"] = table.get(stage, zero)[1]
        for key in (
            "dsp.fourier.fft.mflop",
            "audio_io.resample_ratio.mtaps",
            "augment.realize.variant_calls",
            "nn.layers.Conv1DLayer.mmac",
            "nn.layers.LSTMLayer.mmac",
        ):
            out[key] = self.counts.get(key, 0)
        rows = self.counts.get("rows_extracted", 0)
        mfcc_calls = table.get("dsp.mel.mfcc", zero)[0]
        out["dsp.mel.mfcc.calls_per_row"] = mfcc_calls / rows if rows else 0.0
        split = self.counts.get("rows_split", 0)
        out["dataset.kept_row_ratio"] = self.counts.get("rows_kept", 0) / split if split else 0.0
        return out
