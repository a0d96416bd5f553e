"""Feature-table assembly: standardization, one-hot labels, and the seeded
shuffle/split with a leakage guard for augmented rows.

The split shuffle runs on the package's documented generator (rng module),
so equal seeds give identical partitions in any faithful reimplementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_csv, read_json, write_csv, write_json
from .audio_io import EMOTIONS, EMOTION_INDEX, ClipRecord
from .errors import DegenerateSplit, SchemaMismatch, TooFewRows
from .rng import Xoshiro256StarStar

# CPython's built-in SHA-256, which hashlib itself falls back to: importing
# hashlib maps OpenSSL's libcrypto, about 3.3 MB resident, for one digest a run
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:  # an interpreter built without the built-in hashes
        from hashlib import sha256 as _sha256

# columns whose population std falls below this are treated as constant
DEGENERATE_SCALE_EPS = 1e-12


@dataclass
class FeatureTable:
    X: np.ndarray
    y: list[str]
    schema: list[str]
    provenance: list[str]

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        n, d = self.X.shape
        if not (len(self.y) == len(self.provenance) == n):
            raise ValueError("row, label, and provenance counts must match")
        if len(self.schema) != d:
            raise ValueError("schema length must match column count")
        if n and not np.all(np.isfinite(self.X)):
            raise ValueError("feature matrix contains non-finite entries")

    def __len__(self) -> int:
        return self.X.shape[0]

    def take(self, indices) -> "FeatureTable":
        idx = list(indices)
        return FeatureTable(
            self.X[idx],
            [self.y[i] for i in idx],
            list(self.schema),
            [self.provenance[i] for i in idx],
        )


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray
    schema: list[str] = field(default_factory=list)

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=np.float64))
        if self.mean.shape != self.scale.shape:
            raise ValueError("mean and scale must have matching shapes")
        if np.any(self.scale <= 0.0):
            raise ValueError("scale entries must be positive")


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float = 0.25
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")


def fit_standardizer(X: np.ndarray, schema: list[str] | None = None) -> Standardizer:
    """Column means and population standard deviations; zero-variance columns
    get scale 1 so the schema stays intact."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] < 2:
        raise TooFewRows(f"need at least 2 rows to standardize, got {X.shape[0]}")
    mean = X.mean(axis=0)
    # std 8 columns at a time, so X - mean is never a temporary of X's size;
    # X.std(axis=0) reduces axis 0 row by row, and so does each block. A last
    # block of one column would be reduced pairwise, so it joins the one before.
    cuts = [*range(0, max(1, X.shape[1] - 1), 8), X.shape[1]]
    scale = np.concatenate([X[:, a:b].std(axis=0) for a, b in zip(cuts, cuts[1:])])
    scale = np.where(scale < DEGENERATE_SCALE_EPS, 1.0, scale)
    return Standardizer(mean, scale, list(schema) if schema else [])


def apply_standardizer(
    s: Standardizer, X: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(X - mean) / scale over the last axis, into `out` when given (a float64
    array of X's shape, which may be X itself), else into a new array."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != s.mean.shape[0]:
        raise SchemaMismatch(
            f"standardizer has {s.mean.shape[0]} columns, matrix has {X.shape[-1]}"
        )
    out = np.subtract(X, s.mean, out=out)
    return np.divide(out, s.scale, out=out)


def one_hot(labels: list[str]) -> np.ndarray:
    """N x 8 matrix; row i has a single 1 at the canonical index of labels[i]."""
    out = np.zeros((len(labels), len(EMOTIONS)))
    for i, name in enumerate(labels):
        out[i, EMOTION_INDEX[name]] = 1.0
    return out


def split_indices(n: int, spec: SplitSpec) -> tuple[list[int], list[int]]:
    """Seeded Fisher-Yates partition of range(n): first round(n * fraction)
    shuffled indices to test, the rest to train. Pure and replayable."""
    if n < 2:
        raise TooFewRows(f"need at least 2 rows to split, got {n}")
    n_test = int(np.floor(n * spec.test_fraction + 0.5))
    if n_test == 0 or n_test == n:
        raise DegenerateSplit(
            f"test_fraction {spec.test_fraction} leaves an empty side for n={n}"
        )
    order = list(range(n))
    if spec.shuffle:
        Xoshiro256StarStar(spec.seed).shuffle(order)
    return order[n_test:], order[:n_test]


def split_hash(train_idx: list[int], test_idx: list[int]) -> str:
    """Stable fingerprint of a partition, for cross-run assertions: the
    SHA-256 hex digest of the "|"-joined train indices, "#", then the
    "|"-joined test indices."""
    text = "|".join(map(str, train_idx)) + "#" + "|".join(map(str, test_idx))
    return _sha256(text.encode()).hexdigest()


def split_rows(records: list[ClipRecord], spec: SplitSpec) -> tuple[list[int], list[int]]:
    """Partition the indices of the expanded records (manifest order), then
    enforce the leakage guards for augmented rows:

    * train drops augmented rows whose source original landed in test (or
      that have no source original among the records);
    * test keeps originals only, so held-out scoring never sees synthetic
      variants of training audio.
    """
    train_idx, test_idx = split_indices(len(records), spec)

    def originals(idx):
        return {records[i].path for i in idx if records[i].provenance == "original"}

    trained = originals(train_idx) - originals(test_idx)
    kept_train = [
        i for i in train_idx if records[i].provenance == "original" or records[i].path in trained
    ]
    kept_test = [i for i in test_idx if records[i].provenance == "original"]
    if not kept_train or not kept_test:
        raise DegenerateSplit("leakage exclusion emptied one side of the split")
    return kept_train, kept_test


# --------------------------------------------------------------------------
# Artifacts
# --------------------------------------------------------------------------


def write_features_csv(table: FeatureTable, path) -> None:
    """Header = schema + emotion + provenance; floats as shortest round-trip
    decimals, '.' decimal point, no separators."""
    rows = (
        [repr(float(v)) for v in x] + [y, tag]
        for x, y, tag in zip(table.X, table.y, table.provenance)
    )
    write_csv(path, list(table.schema) + ["emotion", "provenance"], rows)


def read_features_csv(path) -> FeatureTable:
    header, body = read_csv(path)
    if not header or header[-2:] != ["emotion", "provenance"]:
        raise ValueError(f"bad features header in {path}")
    schema = header[:-2]
    rows, labels, tags = [], [], []
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"bad features row in {path}: {row!r}")
        rows.append([float(v) for v in row[: len(schema)]])
        labels.append(row[-2])
        tags.append(row[-1])
    X = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(schema)))
    return FeatureTable(X, labels, schema, tags)


def write_standardizer(s: Standardizer, path) -> None:
    write_json(path, {"schema": list(s.schema), "mean": s.mean.tolist(), "scale": s.scale.tolist()})


def read_standardizer(path) -> Standardizer:
    payload = read_json(path)
    return Standardizer(
        np.array(payload["mean"], dtype=np.float64),
        np.array(payload["scale"], dtype=np.float64),
        list(payload["schema"]),
    )
