"""Standardization, one-hot encoding, the seeded split, the leakage guard,
and the table/standardizer serialization formats."""

import hashlib
import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from emorec import synth
from emorec.audio_io import EMOTIONS, ClipRecord
from emorec.dataset import (
    FeatureTable,
    SplitSpec,
    Standardizer,
    apply_standardizer,
    fit_standardizer,
    one_hot,
    read_features_csv,
    read_standardizer,
    split_hash,
    split_indices,
    split_rows,
    write_features_csv,
    write_standardizer,
)
from emorec.errors import DegenerateSplit, SchemaMismatch, TooFewRows

rng = np.random.default_rng(99)


def table_of(X, labels=None, provenance=None):
    n, d = np.asarray(X).shape
    return FeatureTable(
        X,
        labels or [EMOTIONS[i % 8] for i in range(n)],
        [f"f{j}" for j in range(d)],
        provenance or ["original"] * n,
    )


# ---- standardizer ----


def test_fit_worked_example():
    s = fit_standardizer(np.array([[1.0], [3.0]]))
    assert s.mean[0] == 2.0
    assert s.scale[0] == 1.0  # population std


def test_degenerate_column_scale_is_one():
    X = np.column_stack([np.full(5, 7.0), rng.standard_normal(5)])
    s = fit_standardizer(X)
    assert s.scale[0] == 1.0
    z = apply_standardizer(s, X)
    assert np.all(z[:, 0] == 0.0)


def test_standardized_moments():
    X = rng.standard_normal((200, 7)) * 5.0 + 3.0
    s = fit_standardizer(X)
    z = apply_standardizer(s, X)
    assert np.max(np.abs(z.mean(axis=0))) < 1e-12
    assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-9


def test_apply_invert_round_trip():
    X = rng.standard_normal((50, 4))
    s = fit_standardizer(X)
    back = apply_standardizer(s, X) * s.scale + s.mean
    assert np.max(np.abs(back - X)) < 1e-12


def test_apply_into_out_equals_the_allocating_form_bit_for_bit():
    X = rng.standard_normal((3, 40, 6)) * 4.0 - 1.0
    s = fit_standardizer(X.reshape(-1, 6))
    want = (X - s.mean) / s.scale
    assert apply_standardizer(s, X).tobytes() == want.tobytes()
    other = np.empty_like(X)
    assert apply_standardizer(s, X, out=other) is other
    assert other.tobytes() == want.tobytes()
    kept = X.copy()
    assert apply_standardizer(s, X, out=X) is X  # in place
    assert X.tobytes() == want.tobytes()
    assert not np.array_equal(kept, X)


def test_apply_rejects_width_mismatch():
    s = fit_standardizer(rng.standard_normal((10, 3)))
    with pytest.raises(SchemaMismatch):
        apply_standardizer(s, rng.standard_normal((5, 4)))


def test_fit_needs_two_rows():
    with pytest.raises(TooFewRows):
        fit_standardizer(np.zeros((1, 3)))


# ---- one-hot ----


def test_one_hot_positions():
    m = one_hot(["angry", "neutral", "surprise"])
    assert m.shape == (3, 8)
    assert m[0, 4] == 1.0 and m[0].sum() == 1.0
    assert m[1, 0] == 1.0
    assert m[2, 7] == 1.0


def test_one_hot_rejects_unknown():
    with pytest.raises(KeyError):
        one_hot(["bored"])


# ---- split ----


def test_split_indices_deterministic_and_sized():
    tr1, te1 = split_indices(100, SplitSpec(test_fraction=0.25, seed=0))
    tr2, te2 = split_indices(100, SplitSpec(test_fraction=0.25, seed=0))
    assert (tr1, te1) == (tr2, te2)
    assert len(te1) == 25 and len(tr1) == 75
    assert sorted(tr1 + te1) == list(range(100))
    tr3, te3 = split_indices(100, SplitSpec(test_fraction=0.25, seed=1))
    assert te3 != te1


def test_split_rounding():
    _, te = split_indices(10, SplitSpec(test_fraction=0.25, seed=0))
    assert len(te) == 3  # floor(2.5 + 0.5)
    _, te = split_indices(9, SplitSpec(test_fraction=0.25, seed=0))
    assert len(te) == 2  # floor(2.25 + 0.5)


def test_split_no_shuffle_keeps_order():
    tr, te = split_indices(8, SplitSpec(test_fraction=0.25, shuffle=False))
    assert te == [0, 1]
    assert tr == [2, 3, 4, 5, 6, 7]


def test_split_degenerate_and_too_few():
    with pytest.raises(DegenerateSplit):
        split_indices(2, SplitSpec(test_fraction=0.1))
    with pytest.raises(TooFewRows):
        split_indices(1, SplitSpec())
    with pytest.raises(ValueError):
        SplitSpec(test_fraction=1.0)


def test_split_hash_tracks_partition():
    a = split_hash(*split_indices(50, SplitSpec(seed=0)))
    b = split_hash(*split_indices(50, SplitSpec(seed=0)))
    c = split_hash(*split_indices(50, SplitSpec(seed=3)))
    assert a == b != c


# (train, test, the string whose SHA-256 is the hash), as README §Artifacts
# defines it; either side may be empty
HASHED_PARTITIONS = [
    ([0, 1, 2], [3, 4], "0|1|2#3|4"),
    ([12, 7], [100], "12|7#100"),
    ([5], [], "5#"),
    ([], [0, 9], "#0|9"),
]


@pytest.mark.parametrize("train, test, text", HASHED_PARTITIONS)
def test_split_hash_is_the_sha256_of_the_joined_indices(train, test, text):
    assert split_hash(train, test) == hashlib.sha256(text.encode()).hexdigest()


LOADS_OPENSSL = """
import sys
from emorec.cli import main
assert main([{command!r}, "--config", {cfg!r}, "--out", {out!r}, "--quiet"]) == 0
print("_hashlib" in sys.modules)
"""


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this interpreter has no built-in SHA-256",
)
@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_run_and_a_compare_never_load_openssl(tmp_path, command):
    # the split hash comes from CPython's built-in SHA-256, not hashlib's
    # OpenSSL binding (_hashlib), whose libcrypto would stay mapped all run
    synth.generate_corpus(tmp_path / "c", clips_per_class=1, seconds=0.5)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"ravdess_root = {tmp_path / 'c'}\nclip_seconds = 0.5\nepochs = 1\naugment = false\n"
    )
    script = LOADS_OPENSSL.format(command=command, cfg=str(cfg), out=str(tmp_path / "out"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(synth.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.stdout.split()[-1] == "False"


def records_of(provenance, paths):
    """Expanded manifest rows: one record per (provenance, path) pair."""
    return [
        ClipRecord(path, "ravdess", EMOTIONS[i % 8], provenance=tag)
        for i, (tag, path) in enumerate(zip(provenance, paths))
    ]


def test_split_tables_partition_rows():
    t = table_of(rng.standard_normal((40, 3)))
    records = records_of(t.provenance, [f"/c/{i:02d}.wav" for i in range(40)])
    tr_idx, te_idx = split_rows(records, SplitSpec())
    train_tab, test_tab = t.take(tr_idx), t.take(te_idx)
    assert len(train_tab) + len(test_tab) == 40
    assert train_tab.schema == t.schema


def test_leakage_guard_properties():
    # 12 originals, each with one synthetic variant, interleaved like expand()
    n_orig = 12
    prov, paths = [], []
    for i in range(n_orig):
        for tag in ("original", f"noise(rate=0.035,seed={i})"):
            prov.append(tag)
            paths.append(f"/c/{i:02d}.wav")
    records = records_of(prov, paths)

    tr_idx, te_idx = split_rows(records, SplitSpec(test_fraction=0.25, seed=0))
    # test side holds originals only
    assert all(records[i].provenance == "original" for i in te_idx)
    test_paths = {records[i].path for i in te_idx}
    # no training row (original or variant) shares a source with a test row
    assert all(records[i].path not in test_paths for i in tr_idx)
    # every train variant has its source original on the train side
    train_orig = {records[i].path for i in tr_idx if records[i].provenance == "original"}
    for i in tr_idx:
        if records[i].provenance != "original":
            assert records[i].path in train_orig


def test_leakage_guard_drops_orphan_variants():
    prov = ["original", "noise(rate=0.035,seed=1)"] * 2 + ["noise(rate=0.035,seed=9)"] * 2
    paths = ["/a.wav", "/a.wav", "/b.wav", "/b.wav", "/ghost.wav", "/ghost2.wav"]
    records = records_of(prov, paths)
    tr_idx, te_idx = split_rows(records, SplitSpec(test_fraction=0.34, seed=2))
    for i in tr_idx:
        assert not records[i].path.startswith("/ghost")
    for i in te_idx:
        assert records[i].provenance == "original"


def test_leakage_guard_can_empty_a_side():
    prov = ["noise(rate=0.035,seed=1)"] * 4
    paths = [f"/v{i}.wav" for i in range(4)]
    records = records_of(prov, paths)
    with pytest.raises(DegenerateSplit):
        split_rows(records, SplitSpec(test_fraction=0.25, seed=0))


def test_split_of_originals_uses_plain_partition():
    records = records_of(["original"] * 20, [f"/c/{i:02d}.wav" for i in range(20)])
    tr_idx, te_idx = split_rows(records, SplitSpec(seed=0))
    plain_tr, plain_te = split_indices(20, SplitSpec(seed=0))
    assert tr_idx == plain_tr and te_idx == plain_te


# ---- serialization ----


def test_features_csv_round_trip(tmp_path):
    t = table_of(rng.standard_normal((9, 5)))
    path = tmp_path / "features.csv"
    write_features_csv(t, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == t.schema + ["emotion", "provenance"]
    back = read_features_csv(path)
    assert np.array_equal(back.X, t.X)  # repr round-trip is exact
    assert back.y == t.y
    assert back.schema == t.schema
    assert back.provenance == t.provenance


def test_standardizer_json_round_trip(tmp_path):
    s = fit_standardizer(rng.standard_normal((30, 4)), ["a", "b", "c", "d"])
    path = tmp_path / "standardizer.json"
    write_standardizer(s, path)
    back = read_standardizer(path)
    assert np.array_equal(back.mean, s.mean)
    assert np.array_equal(back.scale, s.scale)
    assert back.schema == s.schema


def test_table_validation():
    with pytest.raises(ValueError):
        FeatureTable(np.zeros((2, 2)), ["happy"], ["a", "b"], ["original", "original"])
    with pytest.raises(ValueError):
        FeatureTable(np.array([[np.nan, 0.0]]), ["happy"], ["a", "b"], ["original"])
    with pytest.raises(ValueError):
        Standardizer(np.zeros(3), np.zeros(3), ["a", "b", "c"])  # zero scale


@pytest.mark.parametrize(
    "call",
    [
        lambda: FeatureTable(np.zeros(2), ["happy", "sad"], ["a"], ["original"] * 2),
        lambda: FeatureTable(np.zeros((2, 2)), ["happy", "sad"], ["a"], ["original"] * 2),
        lambda: Standardizer(np.zeros(2), np.ones(3)),
    ],
    ids=["table_not_2d", "schema_length", "standardizer_shapes"],
)
def test_containers_reject_inconsistent_parts(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "text",
    ["mfcc_00,emotion\n1.0,happy\n", "mfcc_00,emotion,provenance\n1.0,happy\n"],
    ids=["header", "short_row"],
)
def test_read_features_csv_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad features"):
        read_features_csv(path)
