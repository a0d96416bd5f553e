"""Feature-table assembly: standardization, one-hot labels, and the seeded
shuffle/split with a leakage guard for augmented rows.

The split shuffle runs on the package's documented generator (rng module),
so equal seeds give identical partitions in any faithful reimplementation.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .audio_io import EMOTIONS, EMOTION_INDEX
from .errors import DegenerateSplit, SchemaMismatch, TooFewRows
from .rng import Xoshiro256StarStar

# columns whose population std falls below this are treated as constant
DEGENERATE_SCALE_EPS = 1e-12


@dataclass
class FeatureTable:
    X: np.ndarray
    y: list[str]
    schema: list[str]
    provenance: list[str]
    paths: list[str] | None = None  # join key for the leakage guard

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise ValueError("X must be a 2-D matrix")
        n, d = self.X.shape
        if not (len(self.y) == len(self.provenance) == n):
            raise ValueError("row, label, and provenance counts must match")
        if len(self.schema) != d:
            raise ValueError("schema length must match column count")
        if self.paths is not None and len(self.paths) != n:
            raise ValueError("paths length must match row count")
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
            [self.paths[i] for i in idx] if self.paths is not None else None,
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
    scale = X.std(axis=0)
    scale = np.where(scale < DEGENERATE_SCALE_EPS, 1.0, scale)
    return Standardizer(mean, scale, list(schema) if schema else [])


def apply_standardizer(s: Standardizer, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != s.mean.shape[0]:
        raise SchemaMismatch(
            f"standardizer has {s.mean.shape[0]} columns, matrix has {X.shape[-1]}"
        )
    return (X - s.mean) / s.scale


def invert_standardizer(s: Standardizer, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != s.mean.shape[0]:
        raise SchemaMismatch(
            f"standardizer has {s.mean.shape[0]} columns, matrix has {X.shape[-1]}"
        )
    return X * s.scale + s.mean


def one_hot(labels: list[str]) -> np.ndarray:
    """N x 8 matrix; row i has a single 1 at the canonical index of labels[i]."""
    out = np.zeros((len(labels), len(EMOTIONS)))
    for i, name in enumerate(labels):
        out[i, EMOTION_INDEX[name]] = 1.0
    return out


def decode_one_hot(matrix: np.ndarray) -> list[str]:
    matrix = np.asarray(matrix)
    return [EMOTIONS[j] for j in np.argmax(matrix, axis=1)]


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
    """Stable fingerprint of a partition, for cross-run assertions."""
    h = hashlib.sha256()
    h.update(("|".join(map(str, train_idx)) + "#" + "|".join(map(str, test_idx))).encode())
    return h.hexdigest()


def split_rows(table: FeatureTable, spec: SplitSpec) -> tuple[list[int], list[int]]:
    """Partition row indices, then enforce the leakage guards for augmented
    rows:

    * train drops augmented rows whose source original landed in test (or
      whose source is absent from the table);
    * test keeps originals only, so held-out scoring never sees synthetic
      variants of training audio.

    Raises ValueError when the table has augmented rows but no source paths
    (as re-read from a features CSV), since the guards need them.
    """
    train_idx, test_idx = split_indices(len(table), spec)
    if all(p == "original" for p in table.provenance):
        return train_idx, test_idx
    if table.paths is None:
        raise ValueError("augmented rows need source paths for the leakage guard")

    original_side: dict[str, str] = {}
    for i in train_idx:
        if table.provenance[i] == "original":
            original_side[table.paths[i]] = "train"
    for i in test_idx:
        if table.provenance[i] == "original":
            original_side[table.paths[i]] = "test"

    kept_train = [
        i
        for i in train_idx
        if table.provenance[i] == "original"
        or original_side.get(table.paths[i]) == "train"
    ]
    kept_test = [i for i in test_idx if table.provenance[i] == "original"]
    if not kept_train or not kept_test:
        raise DegenerateSplit("leakage exclusion emptied one side of the split")
    return kept_train, kept_test


# --------------------------------------------------------------------------
# Artifacts
# --------------------------------------------------------------------------


def write_features_csv(table: FeatureTable, path) -> None:
    """Header = schema + emotion + provenance; floats as shortest round-trip
    decimals, '.' decimal point, no separators."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(table.schema) + ["emotion", "provenance"])
        for i in range(len(table)):
            row = [repr(float(v)) for v in table.X[i]]
            writer.writerow(row + [table.y[i], table.provenance[i]])


def read_features_csv(path) -> FeatureTable:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-2:] != ["emotion", "provenance"]:
            raise ValueError(f"bad features header in {path}")
        schema = header[:-2]
        rows, labels, tags = [], [], []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"bad features row in {path}: {row!r}")
            rows.append([float(v) for v in row[: len(schema)]])
            labels.append(row[-2])
            tags.append(row[-1])
    X = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(schema)))
    return FeatureTable(X, labels, schema, tags)


def write_standardizer(s: Standardizer, path) -> None:
    payload = {
        "schema": list(s.schema),
        "mean": [float(v) for v in s.mean],
        "scale": [float(v) for v in s.scale],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_standardizer(path) -> Standardizer:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return Standardizer(
        np.array(payload["mean"], dtype=np.float64),
        np.array(payload["scale"], dtype=np.float64),
        list(payload["schema"]),
    )
