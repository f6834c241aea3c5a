"""Line-delimited JSON with a one-line schema-version header.

Every file this tool writes starts with {"v": 1}. Readers accept files
without the header (hand-written inputs) but reject unknown versions.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    pass


def write_jsonl(path, records: list) -> None:
    lines = [json.dumps({"v": SCHEMA_VERSION}, sort_keys=True)]
    lines.extend(json.dumps(rec, sort_keys=True) for rec in records)
    Path(path).write_text("\n".join(lines) + "\n")


def _message(exc: Exception) -> str:
    """The failure text for ``exc``; a KeyError names the missing field."""
    if isinstance(exc, KeyError):
        return f"record has no {exc.args[0]!r} field"
    return str(exc)


def _record_key(record: dict, key: str):
    """``record[key]``: KeyError if it is missing, SchemaError if it is a JSON array or object (no dict key)."""
    value = record[key]
    if isinstance(value, (list, dict)):
        raise SchemaError(f"{key} must be a string or a number, got {json.dumps(value)}")
    return value


class _Span(io.RawIOBase):
    """The next ``limit`` bytes of an open binary file (all of them for None); closing closes the file."""

    def __init__(self, fh, limit: int | None):
        super().__init__()
        self._fh, self._left = fh, limit

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._fh.readinto(buf if self._left is None else memoryview(buf)[: self._left])
        if self._left is not None:
            self._left -= n
        return n

    def close(self) -> None:
        self._fh.close()
        super().close()


def _open_span(path: Path, start: int, end: int | None):
    """Bytes [start, end) of ``path`` as text, decoded and split into lines as ``path.open()`` does."""
    fh = open(path, "rb", buffering=0)
    try:
        if start:  # a pipe cannot seek, but is read from its start
            fh.seek(start)
    except BaseException:
        fh.close()
        raise
    return io.TextIOWrapper(io.BufferedReader(_Span(fh, None if end is None else end - start)))


# Bytes read at a time while looking for a line start. Reads of 64 KiB raised
# the ground-d512 pipeline's peak RSS by 0.3 MB; 4 KiB reads did not.
_SCAN_BYTES = 1 << 12


def _line_start(path: Path, pos: int, end: int | None) -> int | None:
    """The first line start at or after byte ``pos`` of ``path``: 0 or just past a newline.

    None if there is none before ``end`` (the end of the file for None); no
    byte at or past ``end`` is read.
    """
    if pos == 0:
        return 0 if end is None or end > 0 else None
    with open(path, "rb", buffering=0) as fh:
        pos -= 1
        while end is None or pos < end - 1:
            chunk = os.pread(fh.fileno(), _SCAN_BYTES if end is None else min(_SCAN_BYTES, end - 1 - pos), pos)
            if not chunk:
                return None
            i = chunk.find(b"\n")
            if i >= 0:
                return pos + i + 1
            pos += len(chunk)
    return None


def iter_jsonl(path, *, objects: bool = False, start: int = 0, end: int | None = None, key: str | None = None):
    """Yield the records of ``path`` one line at a time, skipping blank lines.

    Only the lines that start in bytes [start, end) are read (to the end of
    the file for ``end`` None), for any offsets: the last one may run past
    ``end``, and no byte past ``end`` is read for a range that no line starts
    in. Consecutive ranges thus read each line once. A header is recognised on
    the file's first line only, so only in a range starting at 0. Messages
    number lines as a whole-file read does: a range that hits an error counts
    the lines before it then.

    With ``objects`` a record that is not a JSON object raises SchemaError
    naming its line, as does, with ``key``, an object without a ``key`` field
    or whose ``key`` is a JSON array or object and so cannot key a dict. The
    raw line is dropped before its record is yielded and the record before the
    next line is decoded, so a caller that also drops each record holds one
    parsed line at a time.
    """
    path = Path(path)
    start = _line_start(path, start, end)
    if start is None:
        return
    if end is not None:  # the last line runs to the next line start, or to the end of the file
        end = _line_start(path, end, None)

    def where(i: int) -> str:
        if start:
            with _open_span(path, 0, start) as before:
                i += sum(1 for _ in before)
        return f"{path}:{i}"

    with _open_span(path, start, end) as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{where(i)}: invalid JSON: {exc}") from exc
            del line
            if start == 0 and i == 1 and isinstance(obj, dict) and set(obj.keys()) == {"v"}:
                if obj["v"] != SCHEMA_VERSION:
                    raise SchemaError(f"{path}: unsupported schema version {obj['v']}")
                continue
            if objects and not isinstance(obj, dict):
                raise SchemaError(f"{where(i)}: record is not a JSON object")
            if key is not None and isinstance(obj, dict):
                try:
                    _record_key(obj, key)
                except (KeyError, SchemaError) as exc:
                    raise SchemaError(f"{where(i)}: {_message(exc)}") from None
            yield obj
            del obj


def read_jsonl(path, *, objects: bool = False) -> list:
    return list(iter_jsonl(path, objects=objects))
