"""Line-delimited JSON with a one-line schema-version header.

Every file this tool writes starts with {"v": 1}. Readers accept files
without the header (hand-written inputs) but reject unknown versions.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    pass


def write_jsonl(path, records: list) -> None:
    lines = [json.dumps({"v": SCHEMA_VERSION}, sort_keys=True)]
    lines.extend(json.dumps(rec, sort_keys=True) for rec in records)
    Path(path).write_text("\n".join(lines) + "\n")


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


def iter_jsonl(path, *, objects: bool = False, start: int = 0, end: int | None = None):
    """Yield the records of ``path`` one line at a time, skipping blank lines.

    Only the lines in bytes [start, end) are read (to the end of the file for
    ``end`` None); both must fall on line boundaries. A header is recognised
    on the file's first line only, so only in a span starting at 0. Messages
    number lines as a whole-file read does: a span that hits an error counts
    the lines before ``start`` then.

    With ``objects`` a record that is not a JSON object raises SchemaError
    naming its line. The raw line is dropped before its record is yielded and
    the record before the next line is decoded, so a caller that also drops
    each record holds one parsed line at a time.
    """
    path = Path(path)

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
            yield obj
            del obj


def read_jsonl(path, *, objects: bool = False) -> list:
    return list(iter_jsonl(path, objects=objects))
