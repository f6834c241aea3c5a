r"""The anchors file decoded in byte ranges by forked workers equals a one-range read.

``ingest`` cuts the file into equal byte ranges without looking at its
content, and ``jsonl.iter_jsonl`` reads the lines that start in each range.
A record is one UTF-8 line ending in ``\n``: CRLF files read as LF files do,
and a lone ``\r`` does not end a line. The reader is checked on its own at
every cut of small files, and what a whole-file read of each returns is
pinned. The ingest tests force the split by lowering
``ingest._MIN_RANGE_BYTES`` to one byte and setting the CPU count. Which
process decodes which span is settled at run time; with ``children`` set,
the test process takes no span, so the forked children decode all of them
and every error is raised in a child. After each test no child process and
no pipe may be left behind.
"""

import io
import json
import os
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from hemix import cli, ingest, jsonl, records, similarity, trainer

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
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
    return calls


def set_cpus(monkeypatch, n):
    monkeypatch.setattr(ingest, "_cpu_count", lambda: n)


def leave_spans_to_children(monkeypatch):
    """The calling process takes no span from the queue; its forked children take them all."""
    parent, real = os.getpid(), ingest._decode_queued
    monkeypatch.setattr(ingest, "_decode_queued", lambda *args: {} if os.getpid() == parent else real(*args))


def spans_of(path, cpus):
    return ingest._byte_ranges(path, cpus * ingest._SPANS_PER_CPU)


def entry(i, dim=4, confidence=None):
    return {"feature": [round(0.1 * (i + k), 3) for k in range(dim)],
            "confidence": 0.5 if confidence is None else confidence,
            "box": [i, i, i + 10, i + 10]}


def image(image_id, n, dim=4):
    return {"image_id": image_id, "anchors": [entry(i, dim, confidence=(i * 7 % 11) / 10) for i in range(n)]}


def write_lines(path, lines, newline="\n"):
    r"""Writes ``lines`` as UTF-8, a lone surrogate \udcXX as the one byte 0xXX."""
    path.write_bytes((newline.join(lines) + newline).encode(errors="surrogateescape"))
    return path


def lines_of(records, header=True):
    return (['{"v": 1}'] if header else []) + [json.dumps(r, sort_keys=True) for r in records]


def one_range_read(monkeypatch, path, top):
    with monkeypatch.context() as m:
        m.setattr(ingest, "_cpu_count", lambda: 1)
        return ingest.load_anchor_map(path, top)


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
    got = ingest.load_anchor_map(path, top)
    assert len(forks) == cpus - 1
    assert_same_map(got, want)
    assert isinstance(got["bad_box"], str) and "four coordinates" in got["bad_box"]
    assert got["no_anchors"] == "anchors of image 'no_anchors': record has no 'anchors' field"


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
    got = ingest.load_anchor_map(path, 0.5)
    assert_same_map(got, one_range_read(monkeypatch, path, 0.5))
    want_keys = {"empty": [], "header_only": [], "whitespace_only": [], "one_record": ["i0"]}
    assert list(got) == want_keys.get(shape, [f"i{k}" for k in range(5)])


SHAPES = {
    "lf": b'{"v": 1}\n{"a": 1}\n[2]\n{"a": "\xc3\xa9"}\n',
    "crlf": b'{"v": 1}\r\n{"a": 1}\r\n[2]\r\n{"a": 3}\r\n',
    "no_final_newline": b'{"a": 1}\n{"a": 22}\n{"a": 333}',
    "blank_lines": b'\n{"v": 1}\n\n  \n{"a": 1}\n\t\n\n{"a": 2}\n\n',
    "header_after_line_1": b'{"a": 1}\n{"v": 1}\n{"a": 2}\n{"v": 1}\n',
    "lone_cr": b'{"v": 1}\r{"a": 1}\r\n{"a": 2}\r{"a": 3}\n{"a": 4}\n',
    "invalid_json": b'{"v": 1}\n{"a": 1}\n{"a": \n{"a": 3}\n',
    "missing_key": b'{"v": 1}\r\n{"image_id": 1}\r\n\r\n{"a": 2}\r\n{"image_id": 3}\r\n',
    "bad_utf8": b'{"v": 1}\n{"image_id": 1}\n{"image_id": "\xff"}\n{"image_id": 3}\n',
    "nbsp_padding": b'{"v": 1}\n\xc2\xa0{"image_id": 1}\xc2\xa0\n\xc2\xa0\n{"image_id": "\xc2\xa0"}\n',
}


def no_image_id(line):
    return f"x.jsonl:{line}: record has no 'image_id' field"


# What a whole-file read of each shape returns: (records, error text) with no
# check and with the anchors file's. A lone "\r" does not end a line.
WHOLE = {
    "lf": (([{"a": 1}, [2], {"a": "\u00e9"}], None), ([], no_image_id(2))),
    "crlf": (([{"a": 1}, [2], {"a": 3}], None), ([], no_image_id(2))),
    "no_final_newline": (([{"a": 1}, {"a": 22}, {"a": 333}], None), ([], no_image_id(1))),
    "blank_lines": (([{"v": 1}, {"a": 1}, {"a": 2}], None), ([], no_image_id(2))),
    "header_after_line_1": (([{"a": 1}, {"v": 1}, {"a": 2}, {"v": 1}], None), ([], no_image_id(1))),
    "lone_cr": 2 * (([], "x.jsonl:1: invalid JSON: Extra data: line 1 column 10 (char 9)"),),
    "invalid_json": (([{"a": 1}], "x.jsonl:3: invalid JSON: Expecting value: line 1 column 6 (char 5)"),
                     ([], no_image_id(2))),
    "missing_key": (([{"image_id": 1}, {"a": 2}, {"image_id": 3}], None), ([{"image_id": 1}], no_image_id(4))),
    "bad_utf8": 2 * (([{"image_id": 1}], "x.jsonl:3: invalid UTF-8: 'utf-8' codec can't decode byte 0xff "
                                         "in position 14: invalid start byte"),),
    "nbsp_padding": 2 * (([{"image_id": 1}, {"image_id": "\u00a0"}], None),),
}


def read_cut(path, cuts, **kw):
    """The records of the consecutive ranges between ``cuts`` (in order) and the first error's text, if any."""
    bounds = [0, *cuts, None]
    records = []
    try:
        for start, end in zip(bounds, bounds[1:]):
            records.extend(jsonl.iter_jsonl(path, start=start, end=end, **kw))
    except jsonl.SchemaError as exc:
        return records, str(exc)
    return records, None


@pytest.mark.parametrize("keyed", [False, True], ids=["any", "keyed"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_ranges_cut_at_any_offsets_read_each_line_once(monkeypatch, tmp_path, shape, keyed):
    monkeypatch.chdir(tmp_path)
    path = Path("x.jsonl")
    path.write_bytes(SHAPES[shape])
    kw = {"check": records.image_record} if keyed else {}
    want = read_cut(path, [], **kw)  # one whole-file read
    assert want == WHOLE[shape][keyed]
    size = path.stat().st_size
    for a in range(size + 2):
        assert read_cut(path, [a], **kw) == want, a
        for b in range(a, size + 2):
            assert read_cut(path, [a, b], **kw) == want, (a, b)


def test_range_inside_a_long_line_reads_no_byte_past_its_end(monkeypatch, tmp_path):
    path = write_lines(tmp_path / "x.jsonl", ['{"v": 1}', "[" + "1," * 5000 + "1]", "[2]"])
    second = len(b'{"v": 1}\n')
    third = second + 10004
    reads, real = [], os.pread

    def pread(fd, n, offset):
        data = real(fd, n, offset)
        reads.append((offset, len(data)))
        return data

    monkeypatch.setattr(os, "pread", pread)
    for start, end in [(second + 1, second + 2), (second + 1000, second + 5000), (third - 1, third)]:
        reads.clear()
        assert list(jsonl.iter_jsonl(path, start=start, end=end)) == []
        assert reads and all(start - 1 <= offset and offset + n <= end for offset, n in reads)
        assert sum(n for _, n in reads) <= end - start + 1
    reads.clear()  # a range holding a line start scans to it; its end is found while its lines are read
    assert list(jsonl.iter_jsonl(path, start=second + 1, end=third + 1)) == [[2]]
    assert sum(n for _, n in reads) == third - second


def test_split_reads_decode_each_byte_once(monkeypatch, tmp_path):
    lines = ['{"v": 1}', "[" + "1," * 5000 + "1]", "[2]", "", "[" + "3," * 3000 + "3]"]
    path = write_lines(tmp_path / "x.jsonl", lines)
    size = path.stat().st_size
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)
    want = list(jsonl.iter_jsonl(path))
    read = []

    class Counted(io.BufferedReader):
        def readline(self, *args):
            offset, line = self.tell(), super().readline(*args)
            if line:
                read.append((offset, len(line)))
            return line

    monkeypatch.setattr(jsonl, "open", lambda file, mode, buffering=-1: Counted(io.FileIO(file)), raising=False)
    cuts = sorted({1, size - 1, size, size + 1} | {s + d for s in starts[1:-1] for d in (-1, 0, 1, 700)})
    for a in cuts:
        for b in [c for c in cuts if c >= a]:
            read.clear()
            assert read_cut(path, [a, b]) == (want, None), (a, b)
            assert sorted(read) == [(s, e - s) for s, e in zip(starts, starts[1:])], (a, b)


def run_pipeline(capsys, anchors):
    code = cli.main(["pipeline", "--anchors", str(anchors), "--texts", str(DATA / "texts.jsonl"),
                     "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"), "--offline"])
    captured = capsys.readouterr()
    return code, captured.err.splitlines()[-1]


BAD_LINES = {
    "invalid_json": ('{"image_id": "x", "anchors": [', "invalid JSON: "),
    "invalid_utf8": ('{"image_id": "x\udcff", "anchors": []}',
                     "invalid UTF-8: 'utf-8' codec can't decode byte 0xff in position 15: invalid start byte"),
    "non_object": ("[1, 2]", "record is not a JSON object"),
    "missing_image_id": ('{"anchors": []}', "record has no 'image_id' field"),
    "unkeyable_image_id": ('{"image_id": ["x"], "anchors": []}', 'image_id must be a string or a number, got ["x"]'),
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
    """Index of the span that reads the line starting at byte ``offset``: the span it starts in."""
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
        m.setattr(ingest, "_cpu_count", lambda: 1)
        want = run_pipeline(capsys, path)
    set_cpus(monkeypatch, 3)
    if children:
        leave_spans_to_children(monkeypatch)
    got = run_pipeline(capsys, path)
    assert len(forks) == 2
    assert got == want
    code, message = got
    assert code == 2
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


def repeat_image(path, first, later):
    """Gives line ``later`` of ``path`` the image_id of line ``first``; returns that id."""
    lines = path.read_text().splitlines()
    image_id = json.loads(lines[first])["image_id"]
    lines[later] = json.dumps(dict(json.loads(lines[later]), image_id=image_id), sort_keys=True)
    write_lines(path, lines)
    return image_id


@pytest.mark.parametrize("cpus, children", [(1, False), (2, False), (2, True), (3, False), (3, True)])
@pytest.mark.parametrize("first, later", [(2, 3), (2, 11), (6, 7), (9, 4)])
def test_repeated_image_id_names_the_later_line_at_any_cpu_count(monkeypatch, capsys, tmp_path, forks, cpus,
                                                                children, first, later):
    path, _ = bad_file(tmp_path, {})
    image_id = repeat_image(path, first, later)
    repeat_image(path, 10, 12)  # a second repeat, after the first
    set_cpus(monkeypatch, cpus)
    if children:
        leave_spans_to_children(monkeypatch)
    line = max(first, later) + 1
    assert run_pipeline(capsys, path) == (2, f"error: {path}:{line}: repeated image_id {image_id!r}")
    assert len(forks) == cpus - 1


@pytest.mark.parametrize("first, later", [(2, 11), (9, 10), (10, 4)])
def test_repeated_image_id_rereads_only_the_span_of_the_repeat(monkeypatch, capsys, tmp_path, forks, first,
                                                                later):
    path, starts = bad_file(tmp_path, {})
    image_id = repeat_image(path, first, later)
    set_cpus(monkeypatch, 2)
    leave_spans_to_children(monkeypatch)  # so every iter_jsonl call of this process is the re-read
    reads, real = [], jsonl.iter_jsonl

    def spy(*args, **kwargs):
        reads.append((kwargs.get("start", 0), kwargs.get("end")))
        return real(*args, **kwargs)

    monkeypatch.setattr(jsonl, "iter_jsonl", spy)
    line = max(first, later)
    assert run_pipeline(capsys, path)[1] == f"error: {path}:{line + 1}: repeated image_id {image_id!r}"
    assert reads == [spans_of(path, 2)[span_of(path, starts[line], 2)]]
    assert reads[0][0] > 0


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_line_error_comes_before_an_earlier_repeated_image_id(monkeypatch, capsys, tmp_path, forks, cpus):
    path, _ = bad_file(tmp_path, {11: "[1, 2]"})
    repeat_image(path, 2, 3)
    set_cpus(monkeypatch, cpus)
    assert run_pipeline(capsys, path) == (2, f"error: {path}:12: record is not a JSON object")


def test_worker_that_dies_without_a_result_fails_the_run(monkeypatch, capsys, tmp_path, forks):
    path, _ = bad_file(tmp_path, {})
    parent = os.getpid()
    real = ingest._anchor_range

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(ingest, "_anchor_range", dying)
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
    assert ingest._cpu_count() == 1
    assert_same_map(ingest.load_anchor_map(path, 0.5), want)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", path.stat().st_size + 1)
    assert ingest._byte_ranges(path, ingest._cpu_count()) == [(0, None)]
    assert_same_map(ingest.load_anchor_map(path, 0.5), want)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
    assert ingest._cpu_count() == 1
    assert_same_map(ingest.load_anchor_map(path, 0.5), want)
    assert len(forks) == 0


def first_lines(path, starts, cpus):
    """Index of the first line starting in each span that a line starts in."""
    spans = [span_of(path, start, cpus) for start in starts[:-1]]
    return [spans.index(k) for k in sorted(set(spans))]


@pytest.mark.parametrize("children", [False, True])
@pytest.mark.parametrize("where", [1, 5])
def test_header_after_the_first_line_is_a_record_in_every_range(monkeypatch, capsys, tmp_path, forks, where,
                                                                children):
    path, starts = bad_file(tmp_path, {})
    index = first_lines(path, starts, 3)[where]
    lines = path.read_text().splitlines()
    lines[index] = '{"v": 1}'.ljust(len(lines[index]))  # same length, so the same spans
    write_lines(path, lines)
    assert first_lines(path, starts, 3)[where] == index
    set_cpus(monkeypatch, 3)
    if children:
        leave_spans_to_children(monkeypatch)
    assert run_pipeline(capsys, path) == (2, f"error: {path}:{index + 1}: record has no 'image_id' field")


def log_taken_spans(monkeypatch, log):
    """Every process appends the start of each span it decodes to ``log``; returns a reader of those starts."""
    real = ingest._anchor_range

    def logged(path, top_fraction, start, end):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{start}\n".encode())
        finally:
            os.close(fd)
        return real(path, top_fraction, start, end)

    monkeypatch.setattr(ingest, "_anchor_range", logged)
    return lambda: [int(line) for line in log.read_text().splitlines()]


@pytest.mark.parametrize("cpus", [2, 3])
def test_every_span_is_decoded_once(monkeypatch, tmp_path, forks, cpus):
    path = write_lines(tmp_path / "anchors.jsonl", lines_of(mixed_records()))
    taken_spans = log_taken_spans(monkeypatch, tmp_path / "taken.log")
    set_cpus(monkeypatch, cpus)
    ingest.load_anchor_map(path, 0.5)
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

    monkeypatch.setattr(ingest, "_byte_ranges", one_span)
    set_cpus(monkeypatch, cpus)
    assert_same_map(ingest.load_anchor_map(path, 0.5), want)
    assert asks == [asked]
    assert len(forks) == 0  # no more processes than spans


def test_span_queue_hands_out_each_index_once_in_order():
    queue = ingest._span_queue(256)
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
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
    path, starts = bad_file(tmp_path, {2: "[1, 2]"})
    spans = spans_of(path, 2)
    failed = span_of(path, starts[2], 2)
    queue = ingest._span_queue(len(spans))
    try:
        parts = ingest._decode_queued(path, 0.5, spans, queue)
        assert os.read(queue, 256) == b""  # no other process would take a span either
    finally:
        os.close(queue)
    assert sorted(parts) == list(range(failed + 1)) and failed + 1 < len(spans)
    assert isinstance(parts[failed], jsonl.SchemaError)


def test_forks_beside_an_idle_worker_thread(monkeypatch, tmp_path, forks, two_threads):
    # As when cli.main runs train-toy and then pipeline in one process: the
    # worker thread that training started is idle while ingest forks.
    path = write_lines(tmp_path / "anchors.jsonl", lines_of(mixed_records()))
    want = one_range_read(monkeypatch, path, 0.5)
    two_threads()
    trainer.train(trainer.generate_dataset(trainer.default_hierarchy(), 8), trainer.TrainConfig(steps=2))
    assert any(t.name == "hemix-worker" for t in threading.enumerate())
    set_cpus(monkeypatch, 2)
    assert_same_map(ingest.load_anchor_map(path, 0.5), want)
    assert len(forks) == 1


def test_a_forked_child_makes_its_own_worker_thread():
    similarity._both(lambda: None, lambda: None)  # the worker of this process exists
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(10)  # a child that waits on its parent's worker would hang
            if not similarity._workers and similarity._both(lambda: 1, lambda: 2) == (1, 2):
                code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
