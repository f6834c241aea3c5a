"""Line-delimited JSON with a one-line schema-version header.

Every file this tool writes starts with {"v": 1}. Readers accept files
without the header (hand-written inputs) but reject unknown versions.
"""

from __future__ import annotations

import json
import mmap
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


# Decoded bytes a mapped read holds before it hands their pages back, so that
# reading a large file in one process does not keep the file in memory.
_RELEASE_BYTES = 1 << 20


class _Bytes:
    """The bytes of a file, mapped read-only, or read at once if it cannot be mapped (an empty file, a pipe).

    A mapped file that another process truncates while it is read ends this
    process with SIGBUS.
    """

    def __init__(self, path):
        with open(path, "rb") as fh:
            try:
                self._data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError):
                self._data = fh.read()
        self._view = memoryview(self._data)
        self.size = len(self._data)
        self._released = 0  # pages below this offset are handed back

    def find(self, pos: int, end: int) -> int:
        r"""The offset of the first ``\n`` in bytes [pos, end), or -1."""
        return self._data.find(b"\n", pos, end)

    def text(self, pos: int, end: int) -> str:
        """Bytes [pos, end) decoded as UTF-8, in one copy."""
        return str(self._view[pos:end], "utf-8")

    def newlines(self, end: int) -> int:
        r"""The number of ``\n`` in bytes [0, end), counted a window at a time."""
        return sum(self._data[pos:min(pos + _RELEASE_BYTES, end)].count(b"\n")
                   for pos in range(0, end, _RELEASE_BYTES))

    def release(self, end: int) -> None:
        """Hands the map's whole pages below ``end`` back once _RELEASE_BYTES have built up.

        A page handed back is read from the file again if it is read again.
        """
        if isinstance(self._data, mmap.mmap) and end - self._released >= _RELEASE_BYTES:
            cut = end - end % mmap.PAGESIZE
            self._data.madvise(mmap.MADV_DONTNEED, self._released, cut - self._released)
            self._released = cut

    def close(self) -> None:
        self._view.release()
        if isinstance(self._data, mmap.mmap):
            self._data.close()


def iter_jsonl(path, *, start: int = 0, end: int | None = None, check=None):
    r"""Yield the records of ``path`` one line at a time, skipping blank lines.

    A record is one UTF-8 line ending in ``\n`` (the last line may lack it);
    surrounding whitespace is stripped, so CRLF files read as LF files do, and
    a lone ``\r`` does not end a line. Only the lines that start in bytes
    [start, end) are read (to the end of the file for ``end`` None), for any
    offsets: the last one may run past ``end``, and no byte at or past ``end``
    is read for a range that no line starts in. Consecutive ranges thus read
    each line once. A header is recognised on the file's first line only, so
    only in a range starting at 0. Messages number lines as a whole-file read
    does: a range that hits an error counts the lines before it then.

    A line that is not UTF-8 or not JSON raises SchemaError naming its line.
    With ``check``, each record is yielded as ``check(record)``, and a
    KeyError or ValueError it raises becomes a SchemaError naming the line
    (see hemix.records). The file is mapped (see _Bytes) and each line is
    decoded straight from the map; the decoded pages are handed back as the
    read goes on. The line's text is dropped before its record is yielded and
    the record before the next line is decoded, so a caller that also drops
    each record holds one parsed line at a time.
    """
    path = Path(path)
    data = _Bytes(path)
    try:
        size = data.size
        pos = 0
        if start:  # the first line start is just past a newline in bytes [start - 1, end - 1)
            pos = data.find(start - 1, size if end is None else end - 1) + 1
            if not pos:
                return
        first, i = pos, 0
        stop = size if end is None else min(end, size)

        def where(i: int) -> str:
            return f"{path}:{data.newlines(first) + i}"

        while pos < stop:
            eol = data.find(pos, size)
            eol = size if eol < 0 else eol
            i += 1
            try:
                line = data.text(pos, eol)
            except UnicodeDecodeError:
                try:  # named as the line with its \n fails: a sequence the line's end cuts is cut by the \n
                    data.text(pos, eol + 1)
                except UnicodeDecodeError as exc:
                    raise SchemaError(f"{where(i)}: invalid UTF-8: {exc}") from exc
            data.release(eol)
            pos = eol + 1
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also an int too long or arrays nested too deep
                raise SchemaError(f"{where(i)}: invalid JSON: {exc}") from exc
            del line
            if first == 0 and i == 1 and isinstance(obj, dict) and set(obj.keys()) == {"v"}:
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
    finally:
        data.close()


def read_jsonl(path, *, check=None) -> list:
    return list(iter_jsonl(path, check=check))
