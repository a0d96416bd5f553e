"""The exact bytes of each artifact writer, and each file read back.

The replay tests only compare a run with its own replay; these pin the
format itself: CSV rows end in CRLF with minimal quoting, floats are written
as their shortest round-trip repr, and JSON is indented by 1 with a final
newline.
"""

import csv

import numpy as np

from emorec import viz
from emorec.audio_io import EMOTIONS, ClipRecord, read_manifest, write_manifest
from emorec.dataset import (
    FeatureTable,
    Standardizer,
    read_features_csv,
    read_standardizer,
    write_features_csv,
    write_standardizer,
)
from emorec.nn.train import TrainReport, read_report_csv, write_confusion_csv, write_report_csv

RECORDS = [
    ClipRecord("a/03-01-01-01-01-01-01.wav", "ravdess", "neutral", "01", "original"),
    ClipRecord("b,c.wav", "tess", "sad", "OAF", "noise"),
]


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_manifest_bytes_and_round_trip(tmp_path):
    path = tmp_path / "manifest.csv"
    write_manifest(RECORDS, path)
    assert path.read_bytes() == (
        b"path,dataset,emotion,speaker,provenance\r\n"
        b"a/03-01-01-01-01-01-01.wav,ravdess,neutral,01,original\r\n"
        b'"b,c.wav",tess,sad,OAF,noise\r\n'
    )
    assert read_manifest(path) == RECORDS


def test_features_csv_bytes_and_round_trip(tmp_path):
    path = tmp_path / "features.csv"
    table = FeatureTable(
        np.array([[0.1, 1.0 / 3.0], [2.0, -0.5]]),
        ["happy", "sad"],
        ["f0", "f1"],
        ["original", "noise"],
    )
    write_features_csv(table, path)
    assert path.read_bytes() == (
        b"f0,f1,emotion,provenance\r\n"
        b"0.1,0.3333333333333333,happy,original\r\n"
        b"2.0,-0.5,sad,noise\r\n"
    )
    back = read_features_csv(path)
    assert np.array_equal(back.X, table.X)
    assert (back.y, back.schema, back.provenance) == (table.y, table.schema, table.provenance)


def test_standardizer_json_bytes_and_round_trip(tmp_path):
    path = tmp_path / "standardizer.json"
    std = Standardizer(np.array([0.1, 1.0 / 3.0]), np.array([1.0, 2.5]), ["f0", "f1"])
    write_standardizer(std, path)
    assert path.read_bytes() == (
        b'{\n "schema": [\n  "f0",\n  "f1"\n ],\n'
        b' "mean": [\n  0.1,\n  0.3333333333333333\n ],\n'
        b' "scale": [\n  1.0,\n  2.5\n ]\n}\n'
    )
    back = read_standardizer(path)
    assert np.array_equal(back.mean, std.mean)
    assert np.array_equal(back.scale, std.scale)
    assert back.schema == std.schema


def test_report_csv_bytes_and_round_trip(tmp_path):
    path = tmp_path / "report.csv"
    report = TrainReport(
        losses=[0.5, 1.0 / 3.0],
        train_accs=[0.25, 0.75],
        test_accs=[0.1, 0.2],
        seconds=[1.5, 2.5],
        test_accuracy=0.2,
    )
    write_report_csv(report, path)
    assert path.read_bytes() == (
        b"epoch,loss,train_acc,test_acc\r\n"
        b"1,0.5,0.25,0.1\r\n"
        b"2,0.3333333333333333,0.75,0.2\r\n"
    )
    back = read_report_csv(path)
    assert (back.losses, back.train_accs, back.test_accs) == (
        report.losses,
        report.train_accs,
        report.test_accs,
    )
    assert back.test_accuracy == 0.2


def test_confusion_csv_bytes_and_round_trip(tmp_path):
    path = tmp_path / "confusion.csv"
    confusion = 3 * np.eye(8, dtype=np.int64)
    confusion[0, 7] = 12
    write_confusion_csv(confusion, path)
    assert path.read_bytes() == (
        b"emotion,neutral,calm,happy,sad,angry,fear,disgust,surprise\r\n"
        b"neutral,3,0,0,0,0,0,0,12\r\n"
        b"calm,0,3,0,0,0,0,0,0\r\n"
        b"happy,0,0,3,0,0,0,0,0\r\n"
        b"sad,0,0,0,3,0,0,0,0\r\n"
        b"angry,0,0,0,0,3,0,0,0\r\n"
        b"fear,0,0,0,0,0,3,0,0\r\n"
        b"disgust,0,0,0,0,0,0,3,0\r\n"
        b"surprise,0,0,0,0,0,0,0,3\r\n"
    )
    rows = _csv_rows(path)
    assert rows[0] == ["emotion", *EMOTIONS]
    assert [r[0] for r in rows[1:]] == list(EMOTIONS)
    assert np.array_equal(np.array([r[1:] for r in rows[1:]], dtype=np.int64), confusion)


def test_class_histogram_bytes_and_round_trip(tmp_path):
    path = tmp_path / "class_counts.csv"
    counts = viz.class_histogram(RECORDS, path)
    assert path.read_bytes() == (
        b"emotion,count\r\n"
        b"neutral,1\r\ncalm,0\r\nhappy,0\r\nsad,1\r\n"
        b"angry,0\r\nfear,0\r\ndisgust,0\r\nsurprise,0\r\n"
    )
    assert {name: int(n) for name, n in _csv_rows(path)[1:]} == counts
