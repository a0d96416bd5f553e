"""Mini-batch training with Adam, evaluation, and report serialization.

Training is a pure function of (model init, data, shuffle seed, dropout
seed): batch order comes from a per-epoch seeded permutation and dropout
masks from per-step derived seeds, so replays are bit-identical. Wall-clock
timings are collected but serialized separately (timing.csv) to keep the
report byte-reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..artifacts import read_csv, write_csv
from ..audio_io import EMOTIONS
from ..rng import Xoshiro256StarStar, derive_seed
from .layers import softmax_cross_entropy
from .model import Model
from .optim import AdamState, adam_update

_EVAL_BATCH = 256


@dataclass
class TrainReport:
    losses: list[float] = field(default_factory=list)
    train_accs: list[float] = field(default_factory=list)
    test_accs: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    test_accuracy: float = 0.0
    confusion: np.ndarray = field(default_factory=lambda: np.zeros((8, 8), dtype=np.int64))
    notes: list[str] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.losses)


def evaluate(model: Model, x: np.ndarray, y_onehot: np.ndarray):
    """(accuracy, 8x8 confusion with rows = true class). Argmax prediction."""
    x = np.asarray(x, dtype=np.float64)
    y_true = np.argmax(np.asarray(y_onehot), axis=1)
    preds = []
    for start in range(0, x.shape[0], _EVAL_BATCH):
        logits = model.forward(x[start : start + _EVAL_BATCH])
        preds.append(np.argmax(logits, axis=1))
    y_pred = np.concatenate(preds) if preds else np.zeros(0, dtype=np.intp)
    k = len(EMOTIONS)
    confusion = np.bincount(y_true * k + y_pred, minlength=k * k).reshape(k, k).astype(np.int64)
    accuracy = float(np.trace(confusion)) / max(1, y_true.shape[0])
    return accuracy, confusion


def train(
    model: Model,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    epochs: int,
    batch_size: int = 64,
    lr: float = 1e-3,
    shuffle_seed: int = 0,
    dropout_seed: int = 0,
    log=None,
) -> TrainReport:
    """Adam-driven mini-batch training; returns per-epoch curves plus the
    final held-out accuracy and confusion matrix.

    Inputs must already be standardized and one-hot encoded. With epochs=0
    the initialized model is evaluated and the curves stay empty.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    n = x_train.shape[0]
    if n == 0:
        raise ValueError("empty training set")
    report = TrainReport(notes=list(model.spec.notes))
    adam = AdamState(lr=lr)
    params = model.parameters()
    for epoch in range(epochs):
        started = time.perf_counter()
        order = Xoshiro256StarStar(derive_seed(shuffle_seed, epoch)).permutation(n)
        loss_sum = 0.0
        correct = 0
        for step, start in enumerate(range(0, n, batch_size)):
            idx = order[start : start + batch_size]
            xb, yb = x_train[idx], y_train[idx]
            logits = model.forward(xb, train=True, step_seed=derive_seed(dropout_seed, epoch, step))
            losses, probs = softmax_cross_entropy(logits, yb)
            loss_sum += float(losses.sum())
            correct += int(np.sum(np.argmax(probs, axis=1) == np.argmax(yb, axis=1)))
            model.backward((probs - yb) / xb.shape[0])  # d(mean loss)/d logits
            adam_update(params, model.gradients(), adam)
        test_acc, _ = evaluate(model, x_test, y_test)
        report.losses.append(loss_sum / n)
        report.train_accs.append(correct / n)
        report.test_accs.append(test_acc)
        report.seconds.append(time.perf_counter() - started)
        if log:
            log(
                f"epoch {epoch + 1}/{epochs} loss={report.losses[-1]:.4f} "
                f"train_acc={report.train_accs[-1]:.3f} test_acc={test_acc:.3f}"
            )
    report.test_accuracy, report.confusion = evaluate(model, x_test, y_test)
    return report


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------


_REPORT_HEADER = ["epoch", "loss", "train_acc", "test_acc"]


def write_report_csv(report: TrainReport, path) -> None:
    """Per-epoch curves: epoch,loss,train_acc,test_acc. Deterministic bytes
    for equal (model, data, seeds); timings live in timing.csv instead."""
    curves = (report.losses, report.train_accs, report.test_accs)
    rows = ([e + 1] + [repr(float(c[e])) for c in curves] for e in range(report.epochs))
    write_csv(path, _REPORT_HEADER, rows)


def write_timing_csv(report: TrainReport, path) -> None:
    rows = ([e + 1, f"{report.seconds[e]:.6f}"] for e in range(report.epochs))
    write_csv(path, ["epoch", "seconds"], rows)


def write_confusion_csv(confusion: np.ndarray, path) -> None:
    """8x8 integer grid; first row/column carry the canonical labels
    (rows = true, columns = predicted)."""
    confusion = np.asarray(confusion)
    rows = ([name] + [int(v) for v in confusion[i]] for i, name in enumerate(EMOTIONS))
    write_csv(path, ["emotion"] + list(EMOTIONS), rows)


def read_report_csv(path) -> TrainReport:
    header, rows = read_csv(path)
    if header != _REPORT_HEADER:
        raise ValueError(f"bad report header in {path}")
    report = TrainReport()
    for row in rows:
        report.losses.append(float(row[1]))
        report.train_accs.append(float(row[2]))
        report.test_accs.append(float(row[3]))
    if report.test_accs:
        report.test_accuracy = report.test_accs[-1]
    return report
