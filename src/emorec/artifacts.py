"""The byte format of every text artifact, decided once.

CSV uses the csv module's default dialect (comma, minimal quoting, CRLF row
ends); JSON is indented by 1 with a final newline; line files end each line
with LF. Everything is UTF-8. Callers format their own cells and check their
own headers; errors from open() propagate unchanged.
"""

from __future__ import annotations

import csv
import json


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path) -> tuple[list[str] | None, list[list[str]]]:
    """(header, remaining rows); the header is None for an empty file."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        return header, list(reader)


def write_json(path, payload) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_lines(path, lines) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
