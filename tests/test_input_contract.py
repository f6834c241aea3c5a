"""The input contract (hemix.records): its rules, the faults it now catches, and a seeded mutation fuzzer.

The fuzzer applies one mutation to one record of one of the fixture's four
JSONL files (anchors, texts, ground truth, predictions) or to its weight
file, and runs the offline ``pipeline`` (``eval`` for a predictions file) in
process. A mutation replaces a field's value with a value of each JSON type,
a numeric string, ``1e400`` or a ``NaN`` literal, drops a field, or repeats a
record later in the file. Every run must end with exit 0, 1 or 2 and no
escaping exception; each ``error:`` line names ``<path>:<line>`` (``<path>``
for the weight file) and each failure a sample; exit 2 leaves no output file;
outputs read as strict JSON; on exit 0 or 1 every sample the mutation did not
touch keeps its golden prediction bytes; and a ``pipeline`` case gives the
same result at one CPU and at three, with the anchors file cut into one-byte
spans, where the weight, ground-truth and texts files are read while forked
children decode the anchors, and leaves no child process behind. A mutated
anchors file gives that result again, at one CPU and at three, when it is
read from a pipe, which is one span read once.

Tier-1 runs the first ``TIER1_CASES`` cases of each seed. A longer soak over
the same seeds runs from the command line:

    PYTHONPATH=src python tests/test_input_contract.py --cases 5000
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import strict_json

from hemix import cli, ingest, jsonl, records

DATA = Path(__file__).parent / "data"
FILES = {"anchors": "anchors.jsonl", "texts": "texts.jsonl", "gt": "gt.jsonl", "pred": "golden_predictions.jsonl",
         "weights": "weights.json"}


def run(*argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def fixture_lines(name: str) -> list:
    """The record lines of a fixture file: a JSONL file's without its header, the weight file's one line."""
    lines = (DATA / name).read_text().splitlines()
    return lines[1:] if name.endswith(".jsonl") else lines


def write(path: Path, lines: list) -> Path:
    """``lines`` as a file, after the schema header if it is a JSONL file."""
    path.write_text("".join(line + "\n" for line in ['{"v": 1}'] * (path.suffix == ".jsonl") + lines))
    return path


def pipeline(tmp: Path, anchors=None, texts=None, gt=None, weights=None) -> tuple:
    """(exit code, stderr, predictions text or None, report text or None) of the offline pipeline.

    Each of ``anchors``, ``texts``, ``gt`` and ``weights`` is a list of record
    lines that replaces that fixture file, or the name of a file read in its place.
    """
    paths = {}
    for kind, lines in (("anchors", anchors), ("texts", texts), ("gt", gt), ("weights", weights)):
        paths[kind] = (DATA / FILES[kind] if lines is None else lines if isinstance(lines, str)
                       else write(tmp / FILES[kind], lines))
    preds, report = tmp / "preds.jsonl", tmp / "report.json"
    for out in (preds, report):
        out.unlink(missing_ok=True)
    code, _, err = run("pipeline", "--anchors", paths["anchors"], "--texts", paths["texts"],
                       "--weights", paths["weights"], "--gt", paths["gt"], "--offline",
                       "--out", preds, "--report", report)
    return code, err, *(out.read_text() if out.exists() else None for out in (preds, report))


def edited(name: str, index: int, edit) -> list:
    """The record lines of a fixture file with ``edit`` applied to the parsed record at ``index``."""
    lines = fixture_lines(name)
    rec = json.loads(lines[index])
    edit(rec)
    lines[index] = json.dumps(rec, sort_keys=True)
    return lines


# ---------------------------------------------------------------------------
# The rules, one check each
# ---------------------------------------------------------------------------

NOT_NUMBERS = [True, False, None, "1", "0.5", [1.0], {"a": 1}, float("nan"), float("inf"), -float("inf"), 10 ** 400]


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
def test_a_number_is_a_finite_json_int_or_float(value):
    box = [0.0, 0.0, 1.0, 1.0]
    with pytest.raises(ValueError, match="box must have finite coordinates|four coordinates"):
        records.boxes_record({"sample_id": "s", "boxes": [[*box[:2], value, box[3]]]}, set())
    entries = [{"feature": [0.5, 1.0], "confidence": 0.5, "box": box}] * 3
    for field, match in (("confidence", "confidence must be a finite number"),
                         ("feature", "anchor features must be finite numbers|same shape")):
        bad = [dict(entries[0]), dict(entries[1], **{field: value if field == "confidence" else [0.5, value]})]
        with pytest.raises(ValueError, match=match):
            records.anchor_entries(bad)
    with pytest.raises(ValueError, match="text features must be finite numbers|one length"):
        records.texts_record({"sample_id": "s", "image_id": "i", "features": [[0.5, value]]}, set())
    header = json.loads(fixture_lines("weights.json")[0])
    for field in ("alpha", "tau", "kappa"):
        with pytest.raises(ValueError, match=f"^{field}: must be "):
            records._weight_header(dict(header, **{field: value}), ())


@pytest.mark.parametrize("value", [0, 1, -7, 2.5, 2 ** 70, 1e308])
def test_ints_and_floats_are_numbers(value):
    _, boxes = records.boxes_record({"sample_id": "s", "boxes": [[value, 0, 1.5e308, 1]]}, set())
    assert boxes == ((float(value), 0.0, 1.5e308, 1.0),)
    assert all(type(c) is float for c in boxes[0])
    features, confidence, _ = records.anchor_entries([{"feature": [value, 0], "confidence": value,
                                                       "box": [0, 0, 1, 1]}])
    assert features.dtype == confidence.dtype == np.float64
    assert features.tolist() == [[float(value), 0.0]] and confidence.tolist() == [float(value)]


def test_a_bool_among_numbers_is_found_in_any_row():
    rows = [[0.25, 0.5, 0.75]] * 50
    for row in (0, 17, 49):
        for bad in (True, False):
            for col in range(3):
                feats = [list(r) for r in rows]
                feats[row][col] = bad
                with pytest.raises(ValueError, match="text features must be finite numbers"):
                    records.texts_record({"sample_id": "s", "image_id": "i", "features": feats}, set())
    # 0 and 1 as numbers are fine.
    got = records.texts_record({"sample_id": "s", "image_id": "i", "features": [[0, 1, 1.0], [0.0, 1, 0]]}, set())
    assert got[2].tolist() == [[0.0, 1.0, 1.0], [0.0, 1.0, 0.0]]


@pytest.mark.parametrize("value", [True, None, float("nan"), float("inf"), ["x"], {"a": 1}])
def test_an_id_is_a_string_or_a_number(value):
    with pytest.raises(ValueError, match="sample_id must be a string or a number"):
        records.boxes_record({"sample_id": value, "boxes": []}, set())
    with pytest.raises(ValueError, match="image_id must be a string or a number"):
        records.image_record({"image_id": value})


@pytest.mark.parametrize("value", ["s1", "", 3, 2.5])
def test_a_repeated_id_fails_the_later_record(value):
    seen = set()
    assert records.boxes_record({"sample_id": value, "boxes": []}, seen) == (value, ())
    with pytest.raises(ValueError, match=re.escape(f"repeated sample_id {value!r}")):
        records.boxes_record({"sample_id": value, "boxes": []}, seen)
    with pytest.raises(ValueError, match="repeated image_id"):
        records.image_record({"image_id": value}, {value})


@pytest.mark.parametrize("box, match", [
    ([5, 5, 1, 1], r"x1<x2 and y1<y2, got \(5.0, 5.0, 1.0, 1.0\)"),
    ([1, 1, 1, 2], "x1<x2"),
    ([1, 1, 2, 1], "y1<y2"),
    ([5, 5, 1], r"four coordinates, got \[5, 5, 1\]"),
    ([0, 0, 1, 1, 2], "four coordinates"),
    (5, "four coordinates, got 5"),
])
def test_a_box_is_four_ordered_numbers(box, match):
    with pytest.raises(ValueError, match=match):
        records.boxes_record({"sample_id": "s", "boxes": [box]}, set())
    with pytest.raises(ValueError, match=match):
        records.anchor_entries([{"feature": [1.0], "confidence": 0.5, "box": box}])


def test_an_empty_boxes_list_is_the_no_target_record():
    assert records.boxes_record({"sample_id": "s", "boxes": []}, set()) == ("s", ())
    with pytest.raises(ValueError, match="box must have four coordinates, got null"):
        records.boxes_record({"sample_id": "s", "boxes": None}, set())


@pytest.mark.parametrize("rec, error", [
    ({"image_id": "i"}, KeyError),
    ({"sample_id": "s"}, KeyError),
    ({"sample_id": "s", "image_id": "i", "expression": 5}, "expression must be a string, got 5"),
    ({"sample_id": "s", "image_id": "i", "decouple_response": None}, "decouple_response must be a string"),
    ({"sample_id": "s", "image_id": "i", "phrases": "ab"}, 'phrases must be a list of strings, got "ab"'),
    ({"sample_id": "s", "image_id": "i", "phrases": [" left person"]},
     "phrases must be nonempty, trimmed, single-line; got ' left person'"),
    ({"sample_id": "s", "image_id": "i", "phrases": ["a\nb"]}, "single-line"),
    ({"sample_id": "s", "image_id": "i", "phrases": [""]}, "nonempty"),
    ({"sample_id": "s", "image_id": "i", "features": [[1.0], [1.0, 2.0]]}, "one length"),
    ({"sample_id": "s", "image_id": "i", "features": [1.0, 2.0]}, "one length"),
])
def test_texts_record_checks_every_field_it_has(rec, error):
    if error is KeyError:
        with pytest.raises(KeyError):
            records.texts_record(rec, set())
    else:
        with pytest.raises(ValueError, match=re.escape(error)):
            records.texts_record(rec, set())


def test_texts_record_without_phrases_needs_no_features():
    sample_id, image_id, features = records.texts_record(
        {"sample_id": "s3", "image_id": "img3", "expression": "e", "decouple_response": "0"}, set())
    assert (sample_id, image_id, features.shape) == ("s3", "img3", (0, 0))


# ---------------------------------------------------------------------------
# Faults the offline fixture pipeline used to accept with exit 0
# ---------------------------------------------------------------------------

def first_anchor(field, value):
    def edit(rec):
        entry = rec["anchors"][0]
        if field == "feature":
            entry["feature"][0] = value
        else:
            entry[field] = value
    return edit


@pytest.mark.parametrize("field, error", [
    ("feature", "anchors of image 'img1': anchor features must be finite numbers"),
    ("confidence", "anchors of image 'img1': confidence must be a finite number"),
])
def test_a_true_in_an_anchor_fails_its_image(tmp_path, field, error):
    code, _, preds, report = pipeline(tmp_path, anchors=edited("anchors.jsonl", 0, first_anchor(field, True)))
    assert code == 1
    assert strict_json.loads(report)["failures"] == [{"sample_id": "s1", "error": error}]
    assert preds.splitlines()[1:] == fixture_lines("golden_predictions.jsonl")[1:]


def test_a_true_in_text_features_fails_its_sample(tmp_path):
    def edit(rec):
        rec["features"][0][0] = True

    code, _, preds, report = pipeline(tmp_path, texts=edited("texts.jsonl", 0, edit))
    assert code == 1
    failure = {"sample_id": "s1", "error": "text features must be finite numbers"}
    assert strict_json.loads(report)["failures"] == [failure]
    assert preds.splitlines()[1:] == fixture_lines("golden_predictions.jsonl")[1:]


@pytest.mark.parametrize("boxes, error", [
    ('[["1", 39.48, 287.82, 135.63]]', "box must have finite coordinates"),
    ("[[0, 0, 1e400, 1]]", "box must have finite coordinates"),
    ("[[0, 0, NaN, 1]]", "box must have finite coordinates"),
    ("[[5, 5, 1, 1]]", "box must satisfy x1<x2 and y1<y2, got (5.0, 5.0, 1.0, 1.0)"),
    ("[[5, 5, 1]]", "box must have four coordinates, got [5, 5, 1]"),
])
def test_a_bad_ground_truth_box_names_its_line(tmp_path, boxes, error):
    lines = fixture_lines("gt.jsonl")
    lines[3] = f'{{"boxes": {boxes}, "sample_id": "s4"}}'
    code, err, preds, report = pipeline(tmp_path, gt=lines)
    assert (code, preds, report) == (2, None, None)
    assert err.splitlines()[-1] == f"error: {tmp_path / 'gt.jsonl'}:5: {error}"


@pytest.mark.parametrize("boxes, error", [
    ("[" * 100_000 + "]" * 100_000, "invalid JSON: maximum recursion depth exceeded"),
    ("[[0, 0, 1, " + "1" * 5000 + "]]", "invalid JSON: Exceeds the limit"),
], ids=["nested_too_deep", "int_too_long"])
def test_json_that_python_cannot_read_is_invalid_json(tmp_path, boxes, error):
    lines = fixture_lines("gt.jsonl")
    lines[3] = f'{{"boxes": {boxes}, "sample_id": "s4"}}'
    path = write(tmp_path / "gt.jsonl", lines)
    code, out, err = run("eval", "--gt", path, "--pred", DATA / "golden_predictions.jsonl")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(f"error: {path}:5: {error}")


def test_a_bad_predicted_box_names_its_line(tmp_path):
    lines = fixture_lines("golden_predictions.jsonl")
    lines[1] = lines[1].replace("[[173.72, 89.91,", "[[173.72, true,")
    pred = write(tmp_path / "pred.jsonl", lines)
    code, out, err = run("eval", "--gt", DATA / "gt.jsonl", "--pred", pred)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: {pred}:3: box must have finite coordinates"


@pytest.mark.parametrize("kind", ["gt", "pred"])
def test_a_repeated_sample_id_in_ground_truth_or_predictions_is_a_run_error(tmp_path, kind):
    source = "golden_predictions.jsonl" if kind == "pred" else "gt.jsonl"
    lines = fixture_lines(source)
    lines.insert(5, lines[1])  # s2 again, on line 7
    path = write(tmp_path / f"{kind}.jsonl", lines)
    gt, pred = (DATA / "gt.jsonl", path) if kind == "pred" else (path, DATA / "golden_predictions.jsonl")
    code, out, err = run("eval", "--gt", gt, "--pred", pred)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: {path}:7: repeated sample_id 's2'"
    if kind == "gt":
        code, err, preds, report = pipeline(tmp_path, gt=lines)
        assert (code, preds, report) == (2, None, None)
        assert err.splitlines()[-1] == f"error: {path}:7: repeated sample_id 's2'"


def test_a_repeated_texts_record_fails_as_its_own_sample(tmp_path):
    texts = fixture_lines("texts.jsonl")
    code, _, preds, report = pipeline(tmp_path, texts=texts[:3] + [texts[1]] + texts[3:])
    assert code == 1
    assert strict_json.loads(report)["failures"] == [{"sample_id": "s2", "error": "repeated sample_id 's2'"}]
    assert preds == (DATA / "golden_predictions.jsonl").read_text()


def test_a_repeated_anchors_record_is_a_run_error(tmp_path):
    anchors = fixture_lines("anchors.jsonl")
    code, err, preds, report = pipeline(tmp_path, anchors=anchors + [anchors[1]])
    assert (code, preds, report) == (2, None, None)
    assert err.splitlines()[-1] == f"error: {tmp_path / 'anchors.jsonl'}:10: repeated image_id 'img2'"


def test_texts_records_without_sample_id_fail_themselves(tmp_path):
    texts = fixture_lines("texts.jsonl")
    copies = []
    for line in texts[:2]:
        rec = json.loads(line)
        del rec["sample_id"]
        copies.append(json.dumps(rec))
    code, _, preds, report = pipeline(tmp_path, texts=texts + copies)
    assert code == 1
    assert strict_json.loads(report)["failures"] == 2 * [
        {"sample_id": "<missing sample_id>", "error": "record has no 'sample_id' field"}]
    assert preds == (DATA / "golden_predictions.jsonl").read_text()


@pytest.mark.parametrize("command", ["ground", "pipeline"])
def test_ground_and_pipeline_hold_given_phrases_to_one_rule(tmp_path, command):
    features = json.loads(fixture_lines("texts.jsonl")[0])["features"]
    texts = write(tmp_path / "texts.jsonl", [json.dumps({"sample_id": "s1", "image_id": "img1",
                                                         "phrases": [" left person"], "features": features})])
    argv = [command, "--anchors", DATA / "anchors.jsonl", "--texts", texts, "--weights", DATA / "weights.json",
            "--out", tmp_path / "preds.jsonl"]
    if command == "pipeline":
        argv += ["--gt", DATA / "gt.jsonl", "--offline", "--report", tmp_path / "report.json"]
    code, _, err = run(*argv)
    assert code == 1
    error = "phrases must be nonempty, trimmed, single-line; got ' left person'"
    if command == "ground":
        assert err.splitlines()[-1] == f"error: s1: {error}"
    else:
        assert strict_json.loads((tmp_path / "report.json").read_text())["failures"] == [
            {"sample_id": "s1", "error": error}]
    assert jsonl.read_jsonl(tmp_path / "preds.jsonl") == []


def test_an_empty_boxes_list_still_evaluates(tmp_path):
    code, out, _ = run("eval", "--gt", DATA / "gt.jsonl", "--pred", DATA / "golden_predictions.jsonl",
                       "--per-sample")
    assert code == 0
    report = strict_json.loads(out)
    golden = strict_json.loads((DATA / "golden_report.json").read_text())
    assert report["n_acc"] == golden["n_acc"] == 0.5
    assert report["per_sample"] == golden["per_sample"]
    assert report["per_sample"][2] == {"f1": 1.0, "fn": 0, "fp": 0, "sample_id": "s3", "tp": 0}


_DROP = object()


@pytest.mark.parametrize("fields, error", [
    ({"alpha": None}, "alpha: must be a number in [0, 1], got null"),
    ({"alpha": "0.5"}, 'alpha: must be a number in [0, 1], got "0.5"'),
    ({"alpha": True}, "alpha: must be a number in [0, 1], got true"),
    ({"alpha": 1.5}, "alpha: must be a number in [0, 1], got 1.5"),
    ({"kappa": [1]}, "kappa: must be finite and positive, got [1]"),
    ({"tau": 0}, "tau: must be finite and positive, got 0"),
    ({"dim": 2.9}, "dim: must be a positive integer, got 2.9"),
    ({"dim": True}, "dim: must be a positive integer, got true"),
    ({"dim": 0}, "dim: must be a positive integer, got 0"),
    ({"dim": 3}, "w_ev: payload has 128 bytes, expected 72"),
    ({"layout": "column-major"}, 'layout: must be "row-major", got "column-major"'),
    ({"embed_strategy": "expmap"}, 'embed_strategy: must be "linear", got "expmap"'),
    ({"encoding": _DROP}, "encoding: missing"),
    ({"alpha": _DROP}, "alpha: missing"),
    ({"w_ht": _DROP}, "w_ht: missing"),
    ({"w_et": "!"}, "w_et: not a valid base64 payload"),
    ("[1, 2]", "a weight file must be a JSON object"),
    pytest.param("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded", id="nested_too_deep"),
])
def test_a_bad_weight_file_stops_the_run_before_any_output(tmp_path, fields, error):
    text = fields  # the file's text, or the fields to change in the fixture's weight file
    if isinstance(fields, dict):
        header = json.loads(fixture_lines("weights.json")[0])
        for key, value in fields.items():
            if value is _DROP:
                del header[key]
            else:
                header[key] = value
        text = json.dumps(header)
    code, err, preds, report = pipeline(tmp_path, weights=[text])
    assert (code, preds, report) == (2, None, None)
    assert err.splitlines()[-1].startswith(f"error: {tmp_path / 'weights.json'}: {error}")


# ---------------------------------------------------------------------------
# Seeded mutation fuzzer
# ---------------------------------------------------------------------------

_RAW = "\u0000raw\u0000"  # stands in for JSON text that json.dumps does not write
REPLACEMENTS = [None, True, False, 0, 1, -2, 0.5, "", "x", "1", "0.5", [], [0.5], {}, {"a": 1},
                ("1e400",), ("NaN",)]
SEEDS = [0, 1, 2]
TIER1_CASES = 32


def _paths(value, path=()):
    """Every path to a dict value or list item inside ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


def _group(path) -> tuple:
    return tuple("*" if isinstance(key, int) else key for key in path)


def mutation(rng: np.random.Generator) -> dict:
    """One case: a file, a record in it, and what is done to that record, as JSON lines."""
    kind = list(FILES)[int(rng.integers(len(FILES)))]
    lines = fixture_lines(FILES[kind])
    index = int(rng.integers(len(lines)))
    rec = json.loads(lines[index])
    op = rng.random()
    if op < 0.1:
        later = int(rng.integers(index + 1, len(lines) + 1))
        lines.insert(later, lines[index])
        return {"kind": kind, "index": index, "what": f"repeat at {later}", "lines": lines, "repeat": True}
    paths = list(_paths(rec))
    groups = sorted({_group(p) for p in paths})
    group = groups[int(rng.integers(len(groups)))]
    in_group = [p for p in paths if _group(p) == group]
    path = in_group[int(rng.integers(len(in_group)))]
    parent = rec
    for key in path[:-1]:
        parent = parent[key]
    if op < 0.3:
        del parent[path[-1]]
        what, raw = f"drop {path}", None
    else:
        value = REPLACEMENTS[int(rng.integers(len(REPLACEMENTS)))]
        raw = value[0] if isinstance(value, tuple) else None
        parent[path[-1]] = _RAW if raw else value
        what = f"set {path} to {raw or json.dumps(value)}"
    lines[index] = json.dumps(rec, sort_keys=True).replace(json.dumps(_RAW), raw or "")
    return {"kind": kind, "index": index, "what": what, "lines": lines, "repeat": False}


def touched_samples(case: dict) -> set:
    """The sample ids whose golden prediction the mutation may change."""
    original = json.loads(fixture_lines(FILES[case["kind"]])[case["index"]])
    if case["repeat"] or case["kind"] == "pred":
        return set()
    if case["kind"] in ("texts", "gt"):  # a texts record whose ground truth is gone fails
        return {original["sample_id"]}
    if case["kind"] == "weights":  # every sample is scored with the weights
        return {json.loads(t)["sample_id"] for t in fixture_lines("texts.jsonl")}
    return {json.loads(t)["sample_id"] for t in fixture_lines("texts.jsonl")
            if json.loads(t)["image_id"] == original["image_id"]}


@contextlib.contextmanager
def piped(path: Path):
    """The name of a pipe that holds the bytes of ``path``, written before it is read; the file must fit its buffer."""
    r, w = os.pipe()
    try:
        try:
            os.set_blocking(w, False)  # a file too large for the buffer fails here instead of blocking
            data = path.read_bytes()
            assert os.write(w, data) == len(data)
        finally:
            os.close(w)
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)


@contextlib.contextmanager
def cpus(n: int):
    """The anchors file cut into one-byte spans and decoded on ``n`` CPUs."""
    saved = ingest._MIN_RANGE_BYTES, ingest._cpu_count
    ingest._MIN_RANGE_BYTES, ingest._cpu_count = 1, lambda: n
    try:
        yield
    finally:
        ingest._MIN_RANGE_BYTES, ingest._cpu_count = saved


def check_case(case: dict, tmp: Path) -> None:
    """Runs one case and asserts the oracle (see the module docstring)."""
    label = f"{case['kind']} record {case['index']}: {case['what']}"
    paths = {kind: DATA / name for kind, name in FILES.items()}
    paths[case["kind"]] = write(tmp / FILES[case["kind"]], case["lines"])
    if case["kind"] == "pred":
        code, out, err = run("eval", "--gt", paths["gt"], "--pred", paths["pred"], "--per-sample")
        preds, report = None, out or None
    else:
        with cpus(1):
            code, err, preds, report = pipeline(tmp, **{case["kind"]: case["lines"]})
        with cpus(3):
            assert pipeline(tmp, **{case["kind"]: case["lines"]}) == (code, err, preds, report), label
        for n in (1, 3) if case["kind"] == "anchors" else ():  # the same file read from a pipe, in one read
            with cpus(n), piped(paths["anchors"]) as pipe:
                got = pipeline(tmp, anchors=pipe)
            assert got == (code, err.replace(str(paths["anchors"]), pipe), preds, report), (label, n)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert code in (0, 1, 2), label
    assert code != 2 or (preds, report) == (None, None), label
    located = re.compile("error: (" + "|".join(re.escape(str(p)) + (r":\d+" if p.suffix == ".jsonl" else "")
                                               for p in paths.values()) + "): ")
    for line in err.splitlines():
        assert not line.startswith("error:") or located.match(line), (label, line)
    assert "Traceback" not in err, label
    if report is not None:
        # A failure names the sample_id of a record of the primary file (the texts, or the
        # predictions for eval), a NaN or infinity in it by its JSON text.
        primary = "pred" if case["kind"] == "pred" else "texts"
        lines = case["lines"] if case["kind"] == primary else fixture_lines(FILES[primary])
        names = [json.loads(json.dumps(json.loads(t).get("sample_id", "<missing sample_id>")), parse_constant=str)
                 for t in lines]
        for failure in strict_json.loads(report).get("failures", []):
            assert failure["sample_id"] in names, (label, failure)
    if preds is not None:
        assert code in (0, 1), label
        strict_json.load_jsonl(tmp / "preds.jsonl")
        touched = touched_samples(case)
        keep = [line for line in fixture_lines("golden_predictions.jsonl")
                if json.loads(line)["sample_id"] not in touched]
        ids = {json.loads(line)["sample_id"] for line in keep}
        got = [line for line in preds.splitlines()[1:] if json.loads(line)["sample_id"] in ids]
        assert got == keep, label


def cases(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [mutation(rng) for _ in range(count)]


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_fixture_runs_keep_the_contract(tmp_path, seed):
    for case in cases(seed, TIER1_CASES):
        check_case(case, tmp_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Soak the input contract with the tier-1 fuzzer's seeds.")
    parser.add_argument("--cases", type=int, default=2000, help="cases per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for case in cases(seed, args.cases):
                check_case(case, Path(tmp))
            print(f"seed {seed}: {args.cases} cases ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
