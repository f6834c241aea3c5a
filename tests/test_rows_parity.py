"""records._rows packs number rows with ``struct`` and gives what NumPy's nested-list coercion gave.

``reference_rows`` is the body ``_rows`` had before the packer, kept here as
the reference: over a table of JSON values, and over seeded random row sets,
``_rows`` must return an array of the same bytes, dtype, shape and
writeability, or raise the same exception type with the same message, on its
own and (for the table) through each of its three callers (``anchor_entries``,
``texts_record`` and ``boxes_record``).

Tier-1 draws ``TIER1_CASES`` random row sets. A longer soak over the same
seed runs from the command line:

    PYTHONPATH=src python tests/test_rows_parity.py --cases 100000
"""

from __future__ import annotations

import argparse
import json
import random
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


# Rows _rows takes: lists of equal length holding ints and floats no larger than the largest float, and no bool.
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
    "float max": [[MAX, -MAX]],
    # Narrow rows are packed many to a call: 70 boxes take three calls, the last of six rows.
    "seventy boxes": [[i, i + 0.5, i + 1.0, i + 2] for i in range(70)],
}
# Everything else: rows that struct refuses or that give nothing to pack, which _rows looks at one by one,
# and packed rows that the checks after the pack refuse.
OTHER = {
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
    "NaN": json.loads("[[NaN, 1.0]]"),
    "Infinity": json.loads("[[1.0, 2.0], [Infinity, 1.0]]"),
    "-Infinity": json.loads("[[-Infinity]]"),
    "1e999": json.loads("[[1e999, 0.5]]"),
    "width four, three given": [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]],
    "width four, five given": [[0.0, 0.0, 1.0, 1.0, 2.0]],
    "refused value before a wrong length": [["x", 1.0], [1.0]],
    "list value": [[[], 1.0]],
    "dict value": [[{"a": [1]}, 2.0]],
    "number row after a list row": [[1.0, 2.0], 3.0],
    "float max beside an int rounded to it": [[MAX, 1.0], [int(MAX) + 1, 0.0]],
    "float max beside true": [[MAX, True]],
    "ragged, lengths that add up to the width": [[1.0, 2.0], [3.0, 4.0, 5.0, 6.0], [7.0], [8.0]],
    "true in a later call": [[i, i + 0.5, 1.0, True if i == 40 else i + 2] for i in range(70)],
    "string in the last call": [[i, i + 0.5, 1.0, "x" if i == 69 else i + 2] for i in range(70)],
    "short row in a later call": [[i, i + 0.5, 1.0, i + 2][:3 if i == 50 else 4] for i in range(70)],
}
TABLE = {**PACKED, **OTHER}


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
def test_plain_number_rows_give_an_array_at_their_width(name):
    rows = PACKED[name]
    for width in (None, len(rows[0])):
        assert isinstance(records._rows(rows, width, "not numbers"), np.ndarray)
    assert records._rows(rows, len(rows[0]) + 1, "not numbers") is None
    with pytest.raises(ValueError, match="^bad shape$"):
        records._rows(rows, len(rows[0]) + 1, "not numbers", "bad shape")


@pytest.mark.parametrize("name", sorted(OTHER))
def test_every_other_row_set_is_refused_or_empty(name):
    rows = OTHER[name]
    for width in (4,) if name.startswith("width four") else (None, 4):  # rows of one length pack at width None
        got = outcome(records._rows, rows, width, "not numbers", "bad shape")
        assert got[0] == "raises" or got[1].size == 0, (width, got)


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
    assert isinstance(records._rows(boxes, 4, "not numbers"), np.ndarray)
    assert_parity(monkeypatch, lambda: records.boxes_record({"sample_id": "s1", "boxes": boxes}, set()))


# Values of a random row set: ints and floats, and each kind of value the contract refuses or that sits at its edge.
EDGE_VALUES = [0, 1, 0.0, 1.0, -0.0, True, False, "1.5", "0", None, float("nan"), float("inf"), float("-inf"),
               MAX, -MAX, int(MAX) + 1, -(int(MAX) + 1), int(MAX) + 2 ** 970, 10 ** 309, 2 ** 53 + 1, 2 ** 63,
               -(2 ** 63) - 1, 2 ** 64 + 1, {"a": [1]}, {}, [], [1.0], [[]], [1.0, 2.0]]
SEED = 0
TIER1_CASES = 2000


def random_value(rng: random.Random, edge_rate: float):
    """An edge value with probability ``edge_rate``, else an int or a float."""
    if rng.random() < edge_rate:
        return rng.choice(EDGE_VALUES)
    return rng.randint(-9, 9) if rng.random() < 0.3 else rng.uniform(-1e3, 1e3)


def random_row_set(rng: random.Random):
    """A JSON-like row set: mostly one to four rows of one length, with ragged rows and non-list rows among them."""
    if rng.random() < 0.05:
        return random_value(rng, 0.8)
    edge_rate, cols, rows = rng.choice((0.0, 0.03, 0.1, 0.3)), rng.choice((0, 1, 2, 3, 4, 4)), []
    for _ in range(rng.choice((0, 1, 2, 3, 4, 4))):
        if rng.random() < 0.05:
            rows.append(random_value(rng, 0.8))
        else:
            length = cols if rng.random() < 0.9 else rng.randint(0, 5)
            rows.append([random_value(rng, edge_rate) for _ in range(length)])
    return rows


def check_row_set(rows):
    for width in (None, 0, 1, 2, 3, 4):
        for bad_shape in (None, "bad shape"):
            args = (rows, width, "not numbers", bad_shape)
            got, want = outcome(records._rows, *args), outcome(reference_rows, *args)
            assert same(got, want), (rows, width, bad_shape, got, want)


def test_random_row_sets_match_the_reference():
    rng = random.Random(SEED)
    for _ in range(TIER1_CASES):
        check_row_set(random_row_set(rng))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Soak _rows against the reference with seeded random row sets.")
    parser.add_argument("--cases", type=int, default=TIER1_CASES, help="row sets to draw")
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    for _ in range(args.cases):
        check_row_set(random_row_set(rng))
    print(f"seed {args.seed}: {args.cases} row sets ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
