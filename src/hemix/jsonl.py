"""Line-delimited JSON with a one-line schema-version header.

Every file this tool writes starts with {"v": 1}. Readers accept files
without the header (hand-written inputs) but reject unknown versions.
"""

from __future__ import annotations

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


# Bytes read at a time while looking for newlines. Reads of 64 KiB raised
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


def iter_jsonl(path, *, start: int = 0, end: int | None = None, check=None):
    r"""Yield the records of ``path`` one line at a time, skipping blank lines.

    A record is one UTF-8 line ending in ``\n`` (the last line may lack it);
    surrounding whitespace is stripped, so CRLF files read as LF files do, and
    a lone ``\r`` does not end a line. Only the lines that start in bytes
    [start, end) are read (to the end of the file for ``end`` None), for any
    offsets: the last one may run past ``end``, and no byte past ``end`` is
    read for a range that no line starts in. Consecutive ranges thus read each
    line once. A header is recognised on the file's first line only, so only
    in a range starting at 0. Messages number lines as a whole-file read does:
    a range that hits an error counts the lines before it then.

    A line that is not UTF-8 or not JSON raises SchemaError naming its line.
    With ``check``, each record is yielded as ``check(record)``, and a
    KeyError or ValueError it raises becomes a SchemaError naming the line
    (see hemix.records). The raw line is dropped before its record is yielded
    and the record before the next line is read, so a caller that also drops
    each record holds one parsed line at a time.
    """
    path = Path(path)
    start = _line_start(path, start, end)
    if start is None:
        return

    def where(i: int) -> str:
        if start:
            with open(path, "rb") as before:
                for offset in range(0, start, _SCAN_BYTES):
                    i += before.read(min(_SCAN_BYTES, start - offset)).count(b"\n")
        return f"{path}:{i}"

    with open(path, "rb") as fh:
        if start:  # a pipe cannot seek, but is read from its start
            fh.seek(start)
        pos, i = start, 0
        while end is None or pos < end:
            raw = fh.readline()
            if not raw:
                break
            pos, i = pos + len(raw), i + 1
            try:
                line = raw.decode()
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{where(i)}: invalid UTF-8: {exc}") from exc
            del raw  # freed before strip() copies the line, so at most two copies of it are alive
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also an int too long or arrays nested too deep
                raise SchemaError(f"{where(i)}: invalid JSON: {exc}") from exc
            del line
            if start == 0 and i == 1 and isinstance(obj, dict) and set(obj.keys()) == {"v"}:
                if obj["v"] != SCHEMA_VERSION:
                    raise SchemaError(f"{path}: unsupported schema version {obj['v']}")
                continue
            if check is not None:
                try:
                    obj = check(obj)
                except (KeyError, ValueError) as exc:
                    raise SchemaError(f"{where(i)}: {_message(exc)}") from None
            yield obj
            del obj


def read_jsonl(path, *, check=None) -> list:
    return list(iter_jsonl(path, check=check))
