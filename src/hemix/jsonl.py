"""Line-delimited JSON with a one-line schema-version header.

Every file this tool writes starts with {"v": 1}. Readers accept files
without the header (hand-written inputs) but reject unknown versions.
"""

from __future__ import annotations

import json
from pathlib import Path

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    pass


def write_jsonl(path, records: list) -> None:
    lines = [json.dumps({"v": SCHEMA_VERSION}, sort_keys=True)]
    lines.extend(json.dumps(rec, sort_keys=True) for rec in records)
    Path(path).write_text("\n".join(lines) + "\n")


def iter_jsonl(path, *, objects: bool = False):
    """Yield the records of ``path`` one line at a time, skipping blank lines.

    With ``objects`` a record that is not a JSON object raises SchemaError
    naming its line. The raw line is dropped before its record is yielded and
    the record before the next line is decoded, so a caller that also drops
    each record holds one parsed line at a time.
    """
    path = Path(path)
    with path.open() as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SchemaError(f"{path}:{i}: invalid JSON: {exc}") from exc
            del line
            if i == 1 and isinstance(obj, dict) and set(obj.keys()) == {"v"}:
                if obj["v"] != SCHEMA_VERSION:
                    raise SchemaError(f"{path}: unsupported schema version {obj['v']}")
                continue
            if objects and not isinstance(obj, dict):
                raise SchemaError(f"{path}:{i}: record is not a JSON object")
            yield obj
            del obj


def read_jsonl(path, *, objects: bool = False) -> list:
    return list(iter_jsonl(path, objects=objects))
