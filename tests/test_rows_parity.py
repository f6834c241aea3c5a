"""records._rows packs number rows with ``struct`` and gives what NumPy's nested-list coercion gave.

``reference_rows`` is the body ``_rows`` had before the packer, kept here as
the reference: over a table of JSON values, the new ``_rows`` must return an
array of the same bytes, dtype, shape and writeability, or raise the same
exception type with the same message, on its own and through each of its
three callers (``anchor_entries``, ``texts_record`` and ``boxes_record``).
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from hemix import records

MAX = sys.float_info.max


def reference_rows(rows, width, not_numbers, bad_shape=None):
    """``_rows`` as it was before the packer: np.array over the nested lists."""
    try:
        arr = np.array(rows) if rows else np.empty((0, width or 0))
    except ValueError:  # rows of different lengths
        arr = None
    if not isinstance(rows, list) or arr is None or arr.ndim != 2 or width not in (None, arr.shape[1]):
        if bad_shape:
            raise ValueError(bad_shape)
        return None
    if arr.dtype.kind == "O" and all(records._is_number(x) for row in rows for x in row):  # an int beyond int64
        arr = np.array(rows, dtype=np.float64)
    # NumPy reads a true or false among numbers as 1 or 0: only a row holding a 0 or 1 can hide a bool.
    if (arr.dtype.kind not in "iuf" or not np.isfinite(arr).all()
            or any(bool in map(type, rows[i]) for i in np.flatnonzero((arr == 0).any(1) | (arr == 1).any(1)))):
        raise ValueError(not_numbers)
    return arr.astype(np.float64, copy=False)


# Rows the packer takes: lists of equal length holding ints and floats below the largest float, and no bool.
PACKED = {
    "floats": [[0.5, -1.25, 3.0], [2.0, 1e-300, -7.5]],
    "one row": [[0.25, 0.5, 0.75, 1.5]],
    "four wide": [[0.0, 0.5, 2.0, 3.0], [1.0, 1.0, 4.0, 9.0]],
    "zeros and ones": [[0.0, 1.0], [1, 0]],
    "ints": [[1, 2, 3], [-4, 5, 6]],
    "negative zero": json.loads("[[-0.0, 0.0], [0, -0.0]]"),
    "ints near 2^53": [[2 ** 53 - 1, 2 ** 53 + 1, -(2 ** 53 + 1)], [2 ** 53 + 3, 0.5, 2 ** 62 + 1]],
    "ints beyond int64": [[2 ** 63, -(2 ** 63) - 1, 2 ** 63 + 1025]],
    "ints beyond uint64": [[2 ** 64 - 1, 2 ** 64 + 1, 0.5], [2 ** 70 + 3, -(2 ** 80), 1]],
    "int at the top of float": [[int(MAX) - 2 ** 971, 1.0]],
    "tiny and huge floats": [[5e-324, -5e-324, 1e308, -1e308]],
}
# Everything else falls through to the reference body.
FALLS_THROUGH = {
    "true among floats": [[0.5, True], [1.5, 2.5]],
    "false among floats": [[0.5, 2.0], [False, 2.5]],
    "true beside a float 1": [[1.0, True]],
    "bool-only rows": [[True, False], [False, True]],
    "one bool": [[True]],
    "numeric string": [["1.5", 2.0]],
    "numeric string later": [[1.0, 2.0], [3.0, "4"]],
    "null": [[None, 1.0]],
    "null row": [[1.0, 2.0], None],
    "dict row": [[1.0, 2.0], {"a": 1.0, "b": 2.0}],
    "dict first row": [{"a": 1.0}],
    "dict rows": {"a": [1.0]},
    "nested": [[[1.0, 2.0]]],
    "nested value": [[1.0, [2.0]]],
    "ragged, shorter later": [[1.0, 2.0], [3.0]],
    "ragged, longer later": [[1.0], [2.0, 3.0]],
    "ragged ints": [[1, 2, 3, 4], [1, 2, 3]],
    "empty": [],
    "one empty row": [[]],
    "two empty rows": [[], []],
    "empty row later": [[1.0], []],
    "numbers": [1.0, 2.0],
    "strings": ["ab", "cd"],
    "string row later": [[1.0, 2.0], "ab"],
    "number": 5,
    "string": "abcd",
    "None": None,
    "int beyond float max": [[10 ** 309, 1.0]],
    "int just above float max": [[int(MAX) + 1, 1.0]],
    "negative int just above float max": [[-(int(MAX) + 1), 1.0]],
    "float max": [[MAX, -MAX]],
    "NaN": json.loads("[[NaN, 1.0]]"),
    "Infinity": json.loads("[[1.0, 2.0], [Infinity, 1.0]]"),
    "-Infinity": json.loads("[[-Infinity]]"),
    "1e999": json.loads("[[1e999, 0.5]]"),
    "width four, three given": [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]],
    "width four, five given": [[0.0, 0.0, 1.0, 1.0, 2.0]],
}
TABLE = {**PACKED, **FALLS_THROUGH}


def outcome(call, *args):
    """("value", what ``call`` returns) or ("raises", its exception type, message)."""
    try:
        return ("value", call(*args))
    except Exception as exc:  # compared, never swallowed
        return ("raises", type(exc), str(exc))


def same(got, want) -> bool:
    """Equal outcomes: arrays by bytes, dtype, shape, writeability and layout; floats by bits; the rest by ==."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.dtype == want.dtype and got.shape == want.shape
                and got.tobytes() == want.tobytes() and got.flags.writeable == want.flags.writeable
                and got.flags.c_contiguous == want.flags.c_contiguous)
    if isinstance(want, (tuple, list)):
        return type(got) is type(want) and len(got) == len(want) and all(map(same, got, want))
    if isinstance(want, float):
        return type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
    return type(got) is type(want) and got == want


def assert_parity(monkeypatch, call, *args):
    got = outcome(call, *args)
    with monkeypatch.context() as m:
        m.setattr(records, "_rows", reference_rows)
        want = outcome(call, *args)
    assert same(got, want), (args, got, want)


@pytest.mark.parametrize("name", sorted(PACKED))
def test_packer_takes_plain_number_rows(name):
    rows = PACKED[name]
    assert records._packed(rows, None) is not None
    assert records._packed(rows, len(rows[0]) + 1) is None


@pytest.mark.parametrize("name", sorted(FALLS_THROUGH))
def test_everything_else_falls_through(name):
    rows = FALLS_THROUGH[name]
    widths = (4,) if name.startswith("width four") else (None, 4)  # rows of one length pack at width None
    assert all(records._packed(rows, width) is None for width in widths)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_rows_matches_the_reference(name):
    for width in (None, 1, 2, 3, 4):
        for bad_shape in (None, "bad shape"):
            args = (TABLE[name], width, "not numbers", bad_shape)
            got, want = outcome(records._rows, *args), outcome(reference_rows, *args)
            assert same(got, want), (width, bad_shape, got, want)


def test_a_packed_array_is_a_fresh_writeable_c_array():
    rows = PACKED["floats"]
    arr = records._rows(rows, None, "not numbers")
    assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata
    arr[0, 0] = 9.0
    assert rows[0][0] == 0.5


def entries(rows, field):
    """Anchor entries that carry each of ``rows`` (or each value of its first row, as confidences) in ``field``."""
    base = {"feature": [0.5, 1.5], "confidence": 0.5, "box": [0.0, 0.0, 1.0, 1.0]}
    if not isinstance(rows, list):
        return rows
    if field == "confidence":
        values = rows[0] if rows and isinstance(rows[0], list) else rows
        return [dict(base, confidence=v) for v in values]
    return [dict(base, **{field: row}) for row in rows]


@pytest.mark.parametrize("name", sorted(TABLE))
def test_anchor_entries_match_the_reference(monkeypatch, name):
    for field in ("feature", "confidence", "box"):
        assert_parity(monkeypatch, records.anchor_entries, entries(TABLE[name], field))


@pytest.mark.parametrize("name", sorted(TABLE))
def test_texts_record_matches_the_reference(monkeypatch, name):
    rec = {"sample_id": "s1", "image_id": "img1", "phrases": ["a"], "features": TABLE[name]}
    assert_parity(monkeypatch, lambda: records.texts_record(rec, set()))


@pytest.mark.parametrize("name", sorted(TABLE))
def test_boxes_record_matches_the_reference(monkeypatch, name):
    assert_parity(monkeypatch, lambda: records.boxes_record({"sample_id": "s1", "boxes": TABLE[name]}, set()))


def test_an_ordered_box_list_packs_and_matches(monkeypatch):
    boxes = [[0, 0.5, 2, 3.5], [1.0, 1, 4.25, 2]]
    assert records._packed(boxes, 4) is not None
    assert_parity(monkeypatch, lambda: records.boxes_record({"sample_id": "s1", "boxes": boxes}, set()))
