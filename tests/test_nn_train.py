"""Training loop: convergence on a toy problem, determinism, epoch-0
evaluation, and the report/confusion CSV formats."""

import importlib
import tracemalloc

import numpy as np
import pytest

from emorec.dataset import EMOTIONS, one_hot
from emorec.nn.model import LayerSpec, ModelSpec, build_model, lstm_preset
from emorec.nn.optim import AdamState, adam_update
from emorec.nn.train import (
    evaluate,
    read_report_csv,
    train,
    write_confusion_csv,
    write_report_csv,
    write_timing_csv,
)


def toy_problem(n_per_class=12, seed=0):
    """8 well-separated Gaussian blobs in 6-D: class k centered at 4*e_{k%6} * sign."""
    rng = np.random.default_rng(seed)
    xs, names = [], []
    for k, name in enumerate(EMOTIONS):
        center = np.zeros(6)
        center[k % 6] = 4.0 if k < 6 else -4.0
        xs.append(center + 0.3 * rng.standard_normal((n_per_class, 6)))
        names.extend([name] * n_per_class)
    x = np.vstack(xs)[:, :, None]  # (N, 6, 1)
    y = one_hot(names)
    return x, y


def small_model(seed=0):
    spec = ModelSpec(
        "toy",
        (
            LayerSpec("flatten"),
            LayerSpec("dense", units=16, activation="relu"),
            LayerSpec("dense", units=8),
            LayerSpec("softmax_output"),
        ),
    )
    return build_model(spec, (6, 1), seed=seed)


def test_overfits_separable_blobs():
    x, y = toy_problem()
    report = train(small_model(), x, y, x, y, epochs=40, batch_size=16)
    assert report.epochs == 40
    assert report.losses[-1] < report.losses[0]
    assert report.train_accs[-1] == 1.0
    assert report.test_accuracy == 1.0
    assert int(report.confusion.sum()) == x.shape[0]


def test_zero_epochs_still_evaluates():
    x, y = toy_problem(n_per_class=3)
    report = train(small_model(), x, y, x, y, epochs=0)
    assert report.epochs == 0
    assert report.losses == [] and report.seconds == []
    assert report.confusion.shape == (8, 8)
    assert int(report.confusion.sum()) == x.shape[0]


@pytest.mark.parametrize("epochs,calls", [(3, 3), (0, 1)])
def test_test_set_scored_once_per_epoch(monkeypatch, epochs, calls):
    # the package re-exports the function train, which shadows the module
    train_module = importlib.import_module("emorec.nn.train")
    seen = []

    def counting(*args):
        seen.append(1)
        return evaluate(*args)

    monkeypatch.setattr(train_module, "evaluate", counting)
    x, y = toy_problem(n_per_class=3)
    report = train(small_model(), x, y, x, y, epochs=epochs, batch_size=8)
    assert len(seen) == calls
    if epochs:
        assert report.test_accuracy == report.test_accs[-1]


def test_adam_in_place_is_bit_identical_to_the_expression():
    def reference(params, grads, state):
        if not state.m:
            state.m = [np.zeros_like(p) for p in params]
            state.v = [np.zeros_like(p) for p in params]
        state.t += 1
        bc1 = 1.0 - 0.9**state.t
        bc2 = 1.0 - 0.999**state.t
        for p, g, m, v in zip(params, grads, state.m, state.v):
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)

    local = np.random.default_rng(17)
    shapes = [(5, 3, 8), (8,), (130, 130), (1,)]  # 16900 elements span two blocks
    got = [local.standard_normal(s) for s in shapes]
    want = [p.copy() for p in got]
    state, ref_state = AdamState(lr=0.01), AdamState(lr=0.01)
    for _ in range(5):
        grads = [local.standard_normal(s) * 10.0 ** local.uniform(-6, 2) for s in shapes]
        adam_update(got, grads, state)
        reference(want, grads, ref_state)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert all(np.array_equal(a, b) for a, b in zip(state.m + state.v, ref_state.m + ref_state.v))
    # no optimizer buffers persist between calls beyond the moments
    assert {k for k, v in vars(state).items() if not isinstance(v, (int, float))} == {"m", "v"}


def test_empty_training_set_rejected():
    x, y = toy_problem(n_per_class=2)
    with pytest.raises(ValueError):
        train(small_model(), x[:0], y[:0], x, y, epochs=1)


def test_training_replay_is_bit_identical():
    x, y = toy_problem()
    kw = dict(epochs=5, batch_size=16, shuffle_seed=3, dropout_seed=4)
    r1 = train(small_model(seed=2), x, y, x, y, **kw)
    r2 = train(small_model(seed=2), x, y, x, y, **kw)
    assert r1.losses == r2.losses
    assert r1.train_accs == r2.train_accs
    assert r1.test_accs == r2.test_accs
    assert np.array_equal(r1.confusion, r2.confusion)


def test_shuffle_seed_changes_trajectory():
    x, y = toy_problem()
    r1 = train(small_model(), x, y, x, y, epochs=3, batch_size=16, shuffle_seed=0)
    r2 = train(small_model(), x, y, x, y, epochs=3, batch_size=16, shuffle_seed=9)
    assert r1.losses != r2.losses


def test_evaluate_confusion_rows_are_true_counts():
    x, y = toy_problem(n_per_class=5)
    model = small_model()
    for p in model.parameters():
        p[...] = 0.0  # uniform logits -> argmax picks class 0 everywhere
    acc, confusion = evaluate(model, x, y)
    assert np.array_equal(confusion.sum(axis=1), np.full(8, 5))
    assert np.array_equal(confusion[:, 0], np.full(8, 5))
    assert confusion[:, 1:].sum() == 0
    assert acc == pytest.approx(1 / 8)


def test_evaluate_keeps_no_forward_state():
    # one 256-row batch of the lstm preset at 184x40: a forward that kept
    # its backward state would hold about 276 MB after evaluate returns
    model = build_model(lstm_preset(), (184, 40), seed=0)
    x = np.random.default_rng(5).standard_normal((256, 184, 40))
    y = one_hot([EMOTIONS[i % 8] for i in range(256)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        evaluate(model, x, y)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024
    assert peak - before < 32 * 2**20


def test_report_csv_round_trip(tmp_path):
    x, y = toy_problem(n_per_class=3)
    report = train(small_model(), x, y, x, y, epochs=4, batch_size=8)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)

    text = path.read_text()
    assert text.splitlines()[0] == "epoch,loss,train_acc,test_acc"
    assert "np." not in text  # plain reprs only

    back = read_report_csv(path)
    assert back.losses == report.losses
    assert back.train_accs == report.train_accs
    assert back.test_accs == report.test_accs

    write_report_csv(report, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_timing_csv_format(tmp_path):
    x, y = toy_problem(n_per_class=3)
    report = train(small_model(), x, y, x, y, epochs=2, batch_size=8)
    write_timing_csv(report, tmp_path / "timing.csv")
    lines = (tmp_path / "timing.csv").read_text().splitlines()
    assert lines[0] == "epoch,seconds"
    assert len(lines) == 3
    for line in lines[1:]:
        _, seconds = line.split(",")
        assert float(seconds) >= 0.0


def test_confusion_csv_layout(tmp_path):
    confusion = np.arange(64, dtype=np.int64).reshape(8, 8)
    write_confusion_csv(confusion, tmp_path / "confusion.csv")
    lines = (tmp_path / "confusion.csv").read_text().splitlines()
    assert lines[0] == "emotion," + ",".join(EMOTIONS)
    assert len(lines) == 9
    assert lines[1] == "neutral,0,1,2,3,4,5,6,7"
    assert lines[8].startswith("surprise,56")


def test_read_report_rejects_foreign_header(tmp_path):
    (tmp_path / "bad.csv").write_text("epoch,loss\n1,0.5\n")
    with pytest.raises(ValueError):
        read_report_csv(tmp_path / "bad.csv")


@pytest.mark.parametrize("n_grads", [0, 2], ids=["fewer_grads", "more_grads"])
def test_adam_update_rejects_lists_that_do_not_align(n_grads):
    with pytest.raises(ValueError, match="align"):
        adam_update([np.zeros(3)], [np.zeros(3)] * n_grads, AdamState())
