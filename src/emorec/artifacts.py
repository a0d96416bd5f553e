"""The byte format of every text artifact, decided once.

CSV uses the csv module's default dialect (comma, minimal quoting, CRLF row
ends); JSON is indented by 1 with a final newline; line files end each line
with LF. Everything is UTF-8. Callers format their own cells and check their
own headers; errors from open() and os.replace() propagate unchanged.

Every writer goes through replacing(): a killed run leaves a file's old
bytes or its new ones, never a truncated table.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os


@contextlib.contextmanager
def replacing(path, mode, **open_kwargs):
    """A file opened as open(path, mode, **open_kwargs) would be, but under a
    temporary name in path's directory, renamed onto path by os.replace when
    the block ends. If the block raises, the temporary file is removed and
    path keeps its old bytes."""
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    with replacing(path, "w", newline="", encoding="utf-8") as fh:
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
    with replacing(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_lines(path, lines) -> None:
    with replacing(path, "w", newline="\n", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
