"""The input contract: one check per JSONL record kind and one for the weight header (README: "File formats").

A record check raises KeyError for a missing field and ValueError for any other
fault; its caller decides whether that ends the run or fails one sample. The
weight header check raises ValueError("<field>: ...") for every fault.
"""

from __future__ import annotations

import json
import struct
import sys
from functools import reduce
from operator import iadd

import numpy as np

from .decouple import DecoupleResult


def _is_number(x) -> bool:
    """A number is a finite JSON int or float or NumPy real scalar, and neither a bool nor a numeric string."""
    return (type(x) in (int, float) and abs(x) <= sys.float_info.max
            or isinstance(x, (np.integer, np.floating)) and _is_number(float(x)))  # float32 and int8 arithmetic warns


def _id(rec, key: str, seen: set | None = None):
    """``rec[key]``, a string or a number; with ``seen``, one not in it, which it is added to."""
    if not isinstance(rec, dict):
        raise ValueError("record is not a JSON object")
    value = rec[key]
    if not (isinstance(value, str) or _is_number(value)):
        raise ValueError(f"{key} must be a string or a number, got {json.dumps(value)}")
    if seen is not None:
        if value in seen:
            raise ValueError(f"repeated {key} {value!r}")
        seen.add(value)
    return value


# One struct call per row costs more than packing a row of a few values: rows
# of at most _NARROW values are packed _PACK_VALUES values to a call. On wider
# rows, joining them into one argument list costs more than the calls it saves.
_NARROW = 16
_PACK_VALUES = 128


def _rows(rows, width: int | None, not_numbers: str, bad_shape: str | None = None) -> np.ndarray | None:
    """``rows`` as one [n, width] float64 array of numbers (any width for None); another shape fails or is None.

    The shape holds when ``rows`` is a list of lists of ``width`` values (or the
    first row's length, for None), none of them a list; a value that is not a
    number (see _is_number) fails with ``not_numbers``. The rows are packed
    straight into the array by ``struct``: rows of at most _NARROW values, once
    each is known to be a list of that many, _PACK_VALUES // width rows to a
    call, and any other row alone. The rows are looked at one by one only when
    ``struct`` refuses one or when there is nothing to pack.
    """
    cols = len(rows[0]) if isinstance(rows, list) and rows and isinstance(rows[0], list) else width or 0
    arr = np.empty((len(rows) if isinstance(rows, list) else 0, cols))
    if width in (None, cols) and arr.size:  # else a wrong width, or nothing to pack
        row = struct.Struct(f"{cols}d")
        try:
            with memoryview(arr).cast("B") as buf:
                if cols <= _NARROW and {*map(type, rows)} == {list} and {*map(len, rows)} == {cols}:
                    step = _PACK_VALUES // cols
                    for start in range(0, len(rows), step):
                        part = rows[start:start + step]
                        struct.pack_into(f"{len(part) * cols}d", buf, start * row.size, *reduce(iadd, part, []))
                else:
                    for offset, values in zip(range(0, arr.nbytes, row.size), rows):
                        row.pack_into(buf, offset, *values)
        except (struct.error, TypeError):  # not a number or beyond float, another length, or not a row
            pass
        else:  # struct packs NaN, infinities, ints it rounds to the largest float, and bools as 1 or 0
            if ((not (arr.max() < sys.float_info.max and arr.min() > -sys.float_info.max)
                    and not all(_is_number(x) for r in rows for x in r))
                    or any(bool in map(type, rows[i]) for i in np.flatnonzero((arr == 0).any(1) | (arr == 1).any(1)))):
                raise ValueError(not_numbers)
            return arr
    if not (isinstance(rows, list) and width in (None, cols)
            and all(isinstance(r, list) and len(r) == cols and not any(isinstance(x, list) for x in r) for r in rows)):
        if bad_shape:
            raise ValueError(bad_shape)
        return None
    if arr.size:  # the shape holds, so struct refused a value
        raise ValueError(not_numbers)
    return arr


def _boxes(boxes) -> np.ndarray:
    """A list of boxes, each four numbers with x1 < x2 and y1 < y2, as one [n, 4] array."""
    box = _rows(boxes, 4, "box must have finite coordinates")
    if box is None:
        bad = (next((b for b in boxes if not (isinstance(b, list) and len(b) == 4)), boxes)
               if isinstance(boxes, list) else boxes)
        raise ValueError(f"box must have four coordinates, got {json.dumps(bad, default=float)}")
    inverted = ~((box[:, 0] < box[:, 2]) & (box[:, 1] < box[:, 3]))
    if inverted.any():
        raise ValueError(f"box must satisfy x1<x2 and y1<y2, got {tuple(box[inverted.argmax()].tolist())}")
    return box


def image_record(rec, seen: set | None = None):
    """A record of the anchors file, whose ``image_id`` is not in ``seen`` if that is given."""
    _id(rec, "image_id", seen)
    return rec


def anchor_entries(entries) -> tuple:
    """(features [n, d], confidence [n], boxes [n, 4]) of anchors {"feature", "confidence", "box"}."""
    if not (isinstance(entries, list) and all(isinstance(a, dict) for a in entries)):
        raise ValueError("anchors must be a list of objects")
    not_number = "confidence must be a finite number"
    confidence = _rows([[a["confidence"] for a in entries]], None, not_number, not_number)
    boxes = _boxes([a["box"] for a in entries])
    features = _rows([a["feature"] for a in entries], None, "anchor features must be finite numbers",
                     "anchor features must be vectors that all have the same shape")
    return features, confidence[0], boxes


def given_phrases(rec: dict) -> DecoupleResult:
    """A texts record's ``phrases``, held to DecoupleResult's rule."""
    phrases = rec["phrases"]
    if not (isinstance(phrases, list) and all(isinstance(p, str) for p in phrases)):
        raise ValueError(f"phrases must be a list of strings, got {json.dumps(phrases)}")
    return DecoupleResult(count=len(phrases), phrases=tuple(phrases))


def texts_record(rec, seen: set) -> tuple:
    """(sample_id, image_id, features [n, d]) of a texts record, after a check of every field it has."""
    sample_id, image_id = _id(rec, "sample_id", seen), _id(rec, "image_id")
    for name in ("expression", "decouple_response"):
        if not isinstance(rec.get(name, ""), str):
            raise ValueError(f"{name} must be a string, got {json.dumps(rec[name])}")
    if "phrases" in rec:
        given_phrases(rec)
    return sample_id, image_id, _rows(rec.get("features", []), None, "text features must be finite numbers",
                                      "text features must be a list of rows of one length")


def boxes_record(rec, seen: set) -> tuple:
    """(sample_id, boxes as (x1, y1, x2, y2) float tuples) of a ground-truth or prediction record."""
    sample_id = _id(rec, "sample_id", seen)
    return sample_id, tuple(map(tuple, _boxes(rec["boxes"]).tolist()))


# The weight file's format fields and the one value each must have. "linear" is the only
# embedding: the key keeps the header stable.
_WEIGHT_FORMAT = {"layout": "row-major", "encoding": "raw-f8le", "embed_strategy": "linear"}
_WEIGHT_SCALARS = {
    "dim": ("a positive integer", lambda x: type(x) is int and x > 0),
    "alpha": ("a number in [0, 1]", lambda x: _is_number(x) and 0 <= x <= 1),
    "tau": ("finite and positive", lambda x: _is_number(x) and x > 0),
    "kappa": ("finite and positive", lambda x: _is_number(x) and x > 0),
}


def _weight_header(payload) -> dict:
    """The dim, alpha, tau and kappa of a weight file, after a check of its header."""
    if not isinstance(payload, dict):
        raise ValueError("a weight file must be a JSON object")
    for key in (*_WEIGHT_FORMAT, *_WEIGHT_SCALARS):
        if key not in payload:
            raise ValueError(f"{key}: missing")
    for key, want in _WEIGHT_FORMAT.items():
        if payload[key] != want:
            raise ValueError(f"{key}: must be {json.dumps(want)}, got {json.dumps(payload[key])}")
    for key, (rule, ok) in _WEIGHT_SCALARS.items():
        if not ok(payload[key]):
            raise ValueError(f"{key}: must be {rule}, got {json.dumps(payload[key])}")
    return {key: payload[key] if key == "dim" else float(payload[key]) for key in _WEIGHT_SCALARS}
