"""A JSON reader that refuses NaN, Infinity and -Infinity, which Python writes but JSON does not allow."""

import json
from pathlib import Path


def _refuse(constant: str):
    raise ValueError(f"{constant} is not JSON")


def loads(text: str):
    return json.loads(text, parse_constant=_refuse)


def load_jsonl(path) -> list:
    """The records of a JSONL file, each line read by ``loads``."""
    return [loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
