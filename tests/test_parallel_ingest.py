"""The anchors file decoded in line-aligned spans by forked workers equals a one-range read.

The tests force the split by lowering ``cli._MIN_RANGE_BYTES`` to one byte
and setting the CPU count. Which process decodes which span is settled at
run time; with ``children`` set, the test process takes no span, so the
forked children decode all of them and every error is raised in a child.
After each test no child process and no pipe may be left behind.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from hemix import cli, jsonl

DATA = Path(__file__).parent / "data"

pytestmark = pytest.mark.skipif(not (hasattr(os, "fork") and Path("/proc/self/fd").is_dir()),
                                reason="forked ingest and its leak checks need os.fork and /proc")


def _pipes() -> list:
    fds = Path("/proc/self/fd")
    out = []
    for fd in fds.iterdir():
        try:
            target = os.readlink(fd)
        except FileNotFoundError:  # the directory's own descriptor, closed by now
            continue
        if target.startswith("pipe:"):
            out.append((fd.name, target))
    return sorted(out)


@pytest.fixture(autouse=True)
def no_leaks():
    before = _pipes()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _pipes() == before


@pytest.fixture
def forks(monkeypatch):
    """Lowers the minimum range to one byte and records each os.fork call."""
    real, calls = os.fork, []

    def fork():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_MIN_RANGE_BYTES", 1)
    return calls


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(cli, "_cpu_count", lambda: n)


def leave_spans_to_children(monkeypatch):
    """The calling process takes no span from the queue; its forked children take them all."""
    parent, real = os.getpid(), cli._decode_queued
    monkeypatch.setattr(cli, "_decode_queued", lambda *args: {} if os.getpid() == parent else real(*args))


def spans_of(path, cpus):
    return cli._line_ranges(path, cpus * cli._SPANS_PER_CPU)


def entry(i, dim=4, confidence=None):
    return {"feature": [round(0.1 * (i + k), 3) for k in range(dim)],
            "confidence": 0.5 if confidence is None else confidence,
            "box": [i, i, i + 10, i + 10]}


def image(image_id, n, dim=4):
    return {"image_id": image_id, "anchors": [entry(i, dim, confidence=(i * 7 % 11) / 10) for i in range(n)]}


def write_lines(path, lines, newline="\n"):
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    return path


def lines_of(records, header=True):
    return (['{"v": 1}'] if header else []) + [json.dumps(r, sort_keys=True) for r in records]


def one_range_read(monkeypatch, path, top):
    with monkeypatch.context() as m:
        m.setattr(cli, "_cpu_count", lambda: 1)
        return cli._load_anchor_map(path, top)


def assert_same_map(got, want):
    assert list(got) == list(want)
    for key, value in want.items():
        if isinstance(value, str):
            assert got[key] == value
            continue
        assert len(got[key]) == len(value)
        assert got[key].top_fraction == value.top_fraction
        for field in ("features", "boxes"):
            a, b = getattr(got[key], field), getattr(value, field)
            assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def mixed_records():
    bad_box = image("bad_box", 5)
    bad_box["anchors"][2]["box"] = [0, 0, 1]
    short = image("short", 6)
    short["anchors"][0]["feature"] = [1.0]
    return [
        image("a", 12), image("b", 3), bad_box, image("c", 1), {"image_id": "no_anchors"},
        image("empty", 0), short, image("d", 40), image("e", 7),
        {"image_id": "nan_conf", "anchors": [dict(entry(0), confidence=None)]},
        image("f", 9), image("g", 2),
    ]


@pytest.mark.parametrize("children", [False, True])
@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("top", [0.1, 0.5, 1.0])
def test_parallel_map_equals_one_range_read(monkeypatch, tmp_path, forks, cpus, top, children):
    path = write_lines(tmp_path / "anchors.jsonl", lines_of(mixed_records()))
    want = one_range_read(monkeypatch, path, top)
    assert len(forks) == 0
    set_cpus(monkeypatch, cpus)
    if children:
        leave_spans_to_children(monkeypatch)
    got = cli._load_anchor_map(path, top)
    assert len(forks) == cpus - 1
    assert_same_map(got, want)
    assert isinstance(got["bad_box"], str) and "four coordinates" in got["bad_box"]
    assert got["no_anchors"] == "anchors of image 'no_anchors': record has no 'anchors' field"


@pytest.mark.parametrize("children", [False, True])
@pytest.mark.parametrize("cpus", [2, 3])
def test_duplicate_image_ids_across_ranges_keep_the_last(monkeypatch, tmp_path, forks, cpus, children):
    records = [image("a", 2), image("b", 3), image("c", 4), image("a", 5), image("d", 6), image("b", 7),
               image("e", 8), image("a", 9)]
    path = write_lines(tmp_path / "anchors.jsonl", lines_of(records))
    want = one_range_read(monkeypatch, path, 1.0)
    set_cpus(monkeypatch, cpus)
    if children:
        leave_spans_to_children(monkeypatch)
    assert len(cli._line_ranges(path, cpus)) == cpus
    got = cli._load_anchor_map(path, 1.0)
    assert_same_map(got, want)
    assert list(got) == ["a", "b", "c", "d", "e"]
    assert {k: len(v) for k, v in got.items()} == {"a": 9, "b": 7, "c": 4, "d": 6, "e": 8}


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("shape", ["headerless", "crlf", "blank_lines", "empty", "header_only",
                                   "one_record", "whitespace_only"])
def test_file_shapes_read_as_one_range(monkeypatch, tmp_path, forks, cpus, shape):
    records = [image(f"i{k}", k + 1) for k in range(5)]
    lines, newline = lines_of(records), "\n"
    if shape == "headerless":
        lines = lines_of(records, header=False)
    elif shape == "crlf":
        newline = "\r\n"
    elif shape == "blank_lines":
        lines = [lines[0], "", lines[1], "  ", "", lines[2], "\t", *lines[3:], ""]
    elif shape == "empty":
        lines = []
    elif shape == "header_only":
        lines = lines[:1]
    elif shape == "one_record":  # more ranges than lines
        lines = lines[:2]
    elif shape == "whitespace_only":
        lines = ["", "   ", ""]
    path = tmp_path / "anchors.jsonl"
    if lines:
        write_lines(path, lines, newline)
    else:
        path.write_bytes(b"")
    set_cpus(monkeypatch, cpus)
    got = cli._load_anchor_map(path, 0.5)
    assert_same_map(got, one_range_read(monkeypatch, path, 0.5))
    want_keys = {"empty": [], "header_only": [], "whitespace_only": [], "one_record": ["i0"]}
    assert list(got) == want_keys.get(shape, [f"i{k}" for k in range(5)])


def run_pipeline(capsys, anchors):
    code = cli.main(["pipeline", "--anchors", str(anchors), "--texts", str(DATA / "texts.jsonl"),
                     "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"), "--offline"])
    captured = capsys.readouterr()
    return code, captured.err.splitlines()[-1]


BAD_LINES = {
    "invalid_json": ('{"image_id": "x", "anchors": [', "invalid JSON: "),
    "non_object": ("[1, 2]", "record is not a JSON object"),
    "missing_image_id": ('{"anchors": []}', None),
}


def bad_file(tmp_path, bad, newline="\n"):
    """Twelve fixture-sized images with the lines ``bad`` ({line index: text}) swapped in.

    Returns the path and the byte offset at which each line starts.
    """
    records = [dict(json.loads(line), image_id=f"img{k}")
               for k, line in enumerate((DATA / "anchors.jsonl").read_text().splitlines()[1:] * 2)][:12]
    lines = lines_of(records)
    for index, text in bad.items():
        lines[index] = text
    path = write_lines(tmp_path / "anchors.jsonl", lines, newline)
    data = path.read_bytes()
    starts = [0]
    for _ in lines:
        starts.append(data.index(b"\n", starts[-1]) + 1)
    return path, starts


def span_of(path, offset, cpus):
    for k, (start, end) in enumerate(spans_of(path, cpus)):
        if start <= offset and (end is None or offset < end):
            return k
    raise AssertionError(offset)


@pytest.mark.parametrize("children", [False, True])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("kind", sorted(BAD_LINES))
@pytest.mark.parametrize("index", [2, 6, 11])
def test_bad_line_in_any_range_is_the_one_range_error(monkeypatch, capsys, tmp_path, forks, newline, kind,
                                                      index, children):
    text, what = BAD_LINES[kind]
    path, starts = bad_file(tmp_path, {index: text}, newline)
    assert span_of(path, starts[index], 3) > 0
    with monkeypatch.context() as m:
        m.setattr(cli, "_cpu_count", lambda: 1)
        want = run_pipeline(capsys, path)
    set_cpus(monkeypatch, 3)
    if children:
        leave_spans_to_children(monkeypatch)
    got = run_pipeline(capsys, path)
    assert len(forks) == 2
    assert got == want
    code, message = got
    assert code == 2
    if what is None:
        assert message == "error: record has no 'image_id' field"
    else:
        assert message.startswith(f"error: {path}:{index + 1}: {what}")


@pytest.mark.parametrize("children", [False, True])
@pytest.mark.parametrize("cpus, first", [(2, 2), (3, 2), (3, 6)])
def test_two_bad_ranges_report_the_earlier(monkeypatch, capsys, tmp_path, forks, cpus, first, children):
    path, starts = bad_file(tmp_path, {first: "[1, 2]", 11: '{"anchors": []}'})
    assert span_of(path, starts[first], cpus) < span_of(path, starts[11], cpus)
    set_cpus(monkeypatch, cpus)
    if children:
        leave_spans_to_children(monkeypatch)
    assert run_pipeline(capsys, path) == (2, f"error: {path}:{first + 1}: record is not a JSON object")
    assert len(forks) == cpus - 1


def test_worker_that_dies_without_a_result_fails_the_run(monkeypatch, capsys, tmp_path, forks):
    path, _ = bad_file(tmp_path, {})
    parent = os.getpid()
    real = cli._anchor_range

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(cli, "_anchor_range", dying)
    set_cpus(monkeypatch, 3)
    code, message = run_pipeline(capsys, path)
    assert len(forks) == 2
    assert code == 2
    assert message == f"error: {path}: a process decoding part of this file exited without a result"


@pytest.mark.parametrize("cpus", [2, 3])
def test_pipeline_reproduces_golden_when_split(monkeypatch, tmp_path, capsys, forks, cpus):
    set_cpus(monkeypatch, cpus)
    preds, report = tmp_path / "preds.jsonl", tmp_path / "report.json"
    code = cli.main(["pipeline", "--anchors", str(DATA / "anchors.jsonl"), "--texts", str(DATA / "texts.jsonl"),
                     "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"), "--offline",
                     "--out", str(preds), "--report", str(report)])
    capsys.readouterr()
    assert code == 0
    assert len(forks) == cpus - 1
    assert preds.read_bytes() == (DATA / "golden_predictions.jsonl").read_bytes()
    assert report.read_bytes() == (DATA / "golden_report.json").read_bytes()


def test_no_fork_for_one_cpu_a_small_file_or_no_fork(monkeypatch, tmp_path, forks):
    path = write_lines(tmp_path / "anchors.jsonl", lines_of(mixed_records()))
    want = one_range_read(monkeypatch, path, 0.5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._cpu_count() == 1
    assert_same_map(cli._load_anchor_map(path, 0.5), want)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(cli, "_MIN_RANGE_BYTES", path.stat().st_size + 1)
    assert cli._line_ranges(path, cli._cpu_count()) == [(0, None)]
    assert_same_map(cli._load_anchor_map(path, 0.5), want)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(cli, "_MIN_RANGE_BYTES", 1)
    assert cli._cpu_count() == 1
    assert_same_map(cli._load_anchor_map(path, 0.5), want)
    assert len(forks) == 0


def test_splits_fall_on_the_line_boundary_nearest_each_share(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_MIN_RANGE_BYTES", 1)
    # Two long lines after a short header: the split lands between them, not
    # after the header, where the second long line starts.
    path = write_lines(tmp_path / "x.jsonl", ['{"v": 1}', "[" + "1," * 1000 + "1]", "[" + "2," * 1000 + "2]"])
    second = 9 + 2004
    assert cli._line_ranges(path, 2) == [(0, second), (second, None)]
    assert cli._line_ranges(path, 5) == [(0, 9), (9, second), (second, None)]


@pytest.mark.parametrize("children", [False, True])
@pytest.mark.parametrize("where", [1, 5])
def test_header_after_the_first_line_is_a_record_in_every_range(monkeypatch, capsys, tmp_path, forks, where,
                                                                children):
    path, starts = bad_file(tmp_path, {})
    first_lines = [starts.index(start) for start, _ in spans_of(path, 3)]
    index = first_lines[where]
    lines = path.read_text().splitlines()
    lines[index] = '{"v": 1}'.ljust(len(lines[index]))  # same length, so the same spans
    write_lines(path, lines)
    assert [starts.index(start) for start, _ in spans_of(path, 3)] == first_lines
    set_cpus(monkeypatch, 3)
    if children:
        leave_spans_to_children(monkeypatch)
    assert run_pipeline(capsys, path) == (2, "error: record has no 'image_id' field")


def nearest_splits(data: bytes, n: int) -> list:
    """_line_ranges with _MIN_RANGE_BYTES at 1, searched in the whole file at once."""
    n = min(n, len(data))
    cuts = [0]
    for k in range(1, n):
        target = k * len(data) // n
        before = data.rfind(b"\n", 0, target) + 1
        after = data.find(b"\n", target) + 1 or len(data)
        cut = before if target - before <= after - target else after
        if cuts[-1] < cut < len(data):
            cuts.append(cut)
    return list(zip(cuts, cuts[1:] + [None]))


@pytest.mark.parametrize("scan", [1, 2, 5, 64])
@pytest.mark.parametrize("ending", ["\n", "\r\n", "none"])
def test_splits_read_in_small_pieces_match_a_whole_file_search(monkeypatch, tmp_path, scan, ending):
    monkeypatch.setattr(cli, "_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(cli, "_SCAN_BYTES", scan)
    lines = ["x" * (k * 7 % 23) for k in range(30)] + ["y" * 200, "z"]
    newline = "\r\n" if ending == "\r\n" else "\n"
    data = newline.join(lines).encode() + (b"" if ending == "none" else newline.encode())
    path = tmp_path / "x.jsonl"
    path.write_bytes(data)
    for n in (2, 3, 5, 16, 64, 1000):
        assert cli._line_ranges(path, n) == nearest_splits(data, n)


def log_taken_spans(monkeypatch, log):
    """Every process appends the start of each span it decodes to ``log``; returns a reader of those starts."""
    real = cli._anchor_range

    def logged(path, top_fraction, start, end):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{start}\n".encode())
        finally:
            os.close(fd)
        return real(path, top_fraction, start, end)

    monkeypatch.setattr(cli, "_anchor_range", logged)
    return lambda: [int(line) for line in log.read_text().splitlines()]


@pytest.mark.parametrize("cpus", [2, 3])
def test_every_span_is_decoded_once(monkeypatch, tmp_path, forks, cpus):
    path = write_lines(tmp_path / "anchors.jsonl", lines_of(mixed_records()))
    taken_spans = log_taken_spans(monkeypatch, tmp_path / "taken.log")
    set_cpus(monkeypatch, cpus)
    cli._load_anchor_map(path, 0.5)
    taken = taken_spans()
    assert sorted(taken) == [start for start, _ in spans_of(path, cpus)]
    assert len(taken) > cpus
    assert len(forks) == cpus - 1


@pytest.mark.parametrize("cpus, asked", [(1, 1), (2, 16), (3, 24), (40, 256)])
def test_spans_asked_per_cpu(monkeypatch, tmp_path, forks, cpus, asked):
    path = write_lines(tmp_path / "anchors.jsonl", lines_of(mixed_records()))
    want = one_range_read(monkeypatch, path, 0.5)
    asks = []

    def one_span(path, n):
        asks.append(n)
        return [(0, None)]

    monkeypatch.setattr(cli, "_line_ranges", one_span)
    set_cpus(monkeypatch, cpus)
    assert_same_map(cli._load_anchor_map(path, 0.5), want)
    assert asks == [asked]
    assert len(forks) == 0  # no more processes than spans


def test_span_queue_hands_out_each_index_once_in_order():
    queue = cli._span_queue(256)
    try:
        got = []
        while taken := os.read(queue, 1):
            got.append(taken[0])
    finally:
        os.close(queue)
    assert got == list(range(256))


def test_a_process_takes_no_span_after_a_failed_one(monkeypatch, capsys, tmp_path, forks):
    path, starts = bad_file(tmp_path, {2: "[1, 2]"})
    taken_spans = log_taken_spans(monkeypatch, tmp_path / "taken.log")
    set_cpus(monkeypatch, 2)
    leave_spans_to_children(monkeypatch)  # one child takes the spans one after another
    assert run_pipeline(capsys, path) == (2, f"error: {path}:3: record is not a JSON object")
    spans = spans_of(path, 2)
    failed = spans[span_of(path, starts[2], 2)][0]
    assert taken_spans() == [start for start, _ in spans if start <= failed]
    assert len(spans) > len(taken_spans())


def test_a_failed_span_empties_the_queue(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_MIN_RANGE_BYTES", 1)
    path, starts = bad_file(tmp_path, {2: "[1, 2]"})
    spans = spans_of(path, 2)
    failed = span_of(path, starts[2], 2)
    queue = cli._span_queue(len(spans))
    try:
        parts = cli._decode_queued(path, 0.5, spans, queue)
        assert os.read(queue, 256) == b""  # no other process would take a span either
    finally:
        os.close(queue)
    assert sorted(parts) == list(range(failed + 1)) and failed + 1 < len(spans)
    assert isinstance(parts[failed], jsonl.SchemaError)
