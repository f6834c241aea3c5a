r"""The anchors file decoded in byte ranges by forked workers equals a one-range read.

``ingest`` cuts the file into equal byte ranges without looking at its
content, and ``jsonl.iter_jsonl`` reads the lines that start in each range.
A record is one UTF-8 line ending in ``\n``: CRLF files read as LF files do,
and a lone ``\r`` does not end a line. The reader is checked on its own at
every cut of small files, and what a whole-file read of each returns is
pinned. The ingest tests force the split by lowering
``ingest._MIN_RANGE_BYTES`` to one byte and setting the CPU count. A file of
more than one span is decoded by one forked child per CPU, so every error of
its contents is raised in a child; which child decodes which span is settled
at run time. After each test no child process and no pipe may be left
behind.
"""

import errno
import json
import mmap
import os
import signal
import sys
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


def spans_of(path, cpus):
    return ingest._byte_ranges(path, cpus * ingest._SPANS_PER_CPU)


def load(path, top):
    """The anchor map of ``path``, with no other reads run meanwhile."""
    return ingest.load_anchor_map(path, top, lambda: None)[1]


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
        return load(path, top)


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


@pytest.mark.parametrize("cpus", [2, 3, 4])
@pytest.mark.parametrize("top", [0.1, 0.5, 1.0])
def test_parallel_map_equals_one_range_read(monkeypatch, tmp_path, forks, cpus, top):
    path = write_lines(tmp_path / "anchors.jsonl", lines_of(mixed_records()))
    want = one_range_read(monkeypatch, path, top)
    assert len(forks) == 0
    set_cpus(monkeypatch, cpus)
    got = load(path, top)
    assert len(forks) == cpus
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
    got = load(path, 0.5)
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


@pytest.mark.parametrize("data, before, line, fault", [
    (b'{"v": 1}\n["\xc3\n[2]\n', [], 2, "byte 0xc3 in position 2: invalid continuation byte"),
    (b'{"v": 1}\r\n["\xe2\x82\r\n[2]\n', [], 2, "bytes in position 2-3: invalid continuation byte"),
    (b'{"v": 1}\n[1]\n["\xc3', [[1]], 3, "byte 0xc3 in position 2: unexpected end of data"),
])
def test_sequence_cut_by_the_line_end_is_named_as_in_the_whole_line(monkeypatch, tmp_path, data, before, line, fault):
    # A line is decoded without its \n, but a fault is named as in a decode of the line with it.
    monkeypatch.chdir(tmp_path)
    Path("x.jsonl").write_bytes(data)
    want = f"x.jsonl:{line}: invalid UTF-8: 'utf-8' codec can't decode {fault}"
    for cut in range(len(data) + 1):
        assert read_cut("x.jsonl", [cut]) == (before, want), cut


def record_map(monkeypatch):
    """Records the bytes [offset, end) that each search and each decode of the reader covers.

    A search covers its bytes up to the newline it finds, or all of them.
    """
    searched, decoded = [], []
    find, text = jsonl._Bytes.find, jsonl._Bytes.text

    def recorded_find(self, pos, end):
        hit = find(self, pos, end)
        searched.append((pos, min(end, self.size) if hit < 0 else hit + 1))
        return hit

    def recorded_text(self, pos, end):
        decoded.append((pos, min(end, self.size)))
        return text(self, pos, end)

    monkeypatch.setattr(jsonl._Bytes, "find", recorded_find)
    monkeypatch.setattr(jsonl._Bytes, "text", recorded_text)
    return searched, decoded


def test_range_inside_a_long_line_reads_no_byte_past_its_end(monkeypatch, tmp_path):
    path = write_lines(tmp_path / "x.jsonl", ['{"v": 1}', "[" + "1," * 5000 + "1]", "[2]"])
    second = len(b'{"v": 1}\n')
    third = second + 10004
    searched, decoded = record_map(monkeypatch)
    for start, end in [(second + 1, second + 2), (second + 1000, second + 5000), (third - 1, third)]:
        searched.clear()
        decoded.clear()
        assert list(jsonl.iter_jsonl(path, start=start, end=end)) == []
        assert searched and not decoded
        assert all(start - 1 <= offset and stop <= end for offset, stop in searched)
        assert sum(stop - offset for offset, stop in searched) <= end - start + 1
    searched.clear()  # a range holding a line start searches up to it; its end is found while its lines are read
    decoded.clear()
    assert list(jsonl.iter_jsonl(path, start=second + 1, end=third + 1)) == [[2]]
    assert searched[0] == (second, third)
    assert decoded == [(third, third + len("[2]"))]


def test_split_reads_decode_each_byte_once(monkeypatch, tmp_path):
    lines = ['{"v": 1}', "[" + "1," * 5000 + "1]", "[2]", "", "[" + "3," * 3000 + "3]"]
    path = write_lines(tmp_path / "x.jsonl", lines)
    size = path.stat().st_size
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)
    want = list(jsonl.iter_jsonl(path))
    _, decoded = record_map(monkeypatch)
    cuts = sorted({1, size - 1, size, size + 1} | {s + d for s in starts[1:-1] for d in (-1, 0, 1, 700)})
    for a in cuts:
        for b in [c for c in cuts if c >= a]:
            decoded.clear()
            assert read_cut(path, [a, b]) == (want, None), (a, b)
            assert sorted(decoded) == [(s, e - 1) for s, e in zip(starts, starts[1:])], (a, b)


def recorded_maps(monkeypatch):
    """Records every map the reader makes and the bytes (offset, length) of each MADV_DONTNEED on it."""
    maps, released = [], []

    class Recorded(mmap.mmap):
        def __new__(cls, *args, **kwargs):
            maps.append(super().__new__(cls, *args, **kwargs))
            return maps[-1]

        def madvise(self, option, start, length):
            if option == mmap.MADV_DONTNEED:
                released.append((start, length))
            return super().madvise(option, start, length)

    monkeypatch.setattr(mmap, "mmap", Recorded)
    return maps, released


def test_decoded_pages_are_released_as_the_read_goes_on(monkeypatch, tmp_path):
    lines = [json.dumps({"k": k, "s": "x" * ((1 << 20) + 999 * k)}) for k in range(6)]
    path = write_lines(tmp_path / "x.jsonl", lines)
    maps, released = recorded_maps(monkeypatch)
    start, page = 0, mmap.PAGESIZE
    for k, rec in enumerate(jsonl.iter_jsonl(path)):
        assert rec["k"] == k
        done = 0
        for offset, length in released:  # each release starts where the one before stopped
            assert offset == done
            done += length
        assert done >= (start - jsonl._RELEASE_BYTES) // page * page, k
        start += len(lines[k]) + 1
    assert len(released) >= 5 and len(maps) == 1 and maps[0].closed


def test_an_early_exit_leaves_no_open_map(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    path = write_lines(Path("x.jsonl"), ['{"v": 1}', '{"image_id": 1}', '{"a": 2}', '{"image_id": 3}'])
    maps, _ = recorded_maps(monkeypatch)
    closed = jsonl.iter_jsonl(path, check=records.image_record)
    assert next(closed) == {"image_id": 1}
    closed.close()
    with pytest.raises(jsonl.SchemaError, match="^x.jsonl:3: record has no 'image_id' field$"):
        for _ in jsonl.iter_jsonl(path, check=records.image_record):
            pass
    dropped = jsonl.iter_jsonl(path)
    next(dropped)
    del dropped
    assert len(maps) == 3 and all(m.closed for m in maps)


@pytest.mark.parametrize("cpus", [1, 3])
def test_empty_anchors_file_holds_no_images(monkeypatch, tmp_path, forks, cpus):
    path = tmp_path / "anchors.jsonl"
    path.write_bytes(b"")
    set_cpus(monkeypatch, cpus)
    assert load(path, 0.5) == {}
    assert len(forks) == 0


@pytest.mark.parametrize("cpus", [1, 3])
def test_pipeline_reads_anchors_and_texts_from_fifos(monkeypatch, tmp_path, capsys, forks, cpus):
    writers = []
    for name in ("anchors.jsonl", "texts.jsonl"):  # each is written once its reader opens it
        os.mkfifo(tmp_path / name)
        writers.append(threading.Thread(target=(tmp_path / name).write_bytes, args=((DATA / name).read_bytes(),),
                                        daemon=True))
        writers[-1].start()
    set_cpus(monkeypatch, cpus)
    preds, report = tmp_path / "preds.jsonl", tmp_path / "report.json"
    code = cli.main(["pipeline", "--anchors", str(tmp_path / "anchors.jsonl"),
                     "--texts", str(tmp_path / "texts.jsonl"), "--weights", str(DATA / "weights.json"),
                     "--gt", str(DATA / "gt.jsonl"), "--offline", "--out", str(preds), "--report", str(report)])
    capsys.readouterr()
    for writer in writers:
        writer.join(10)
        assert not writer.is_alive()
    assert code == 0
    assert len(forks) == 0
    assert preds.read_bytes() == (DATA / "golden_predictions.jsonl").read_bytes()
    assert report.read_bytes() == (DATA / "golden_report.json").read_bytes()


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


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("kind", sorted(BAD_LINES))
@pytest.mark.parametrize("index", [2, 6, 11])
def test_bad_line_in_any_range_is_the_one_range_error(monkeypatch, capsys, tmp_path, forks, newline, kind,
                                                      index, cpus):
    text, what = BAD_LINES[kind]
    path, starts = bad_file(tmp_path, {index: text}, newline)
    assert span_of(path, starts[index], cpus) > 0
    with monkeypatch.context() as m:
        m.setattr(ingest, "_cpu_count", lambda: 1)
        want = run_pipeline(capsys, path)
    set_cpus(monkeypatch, cpus)
    got = run_pipeline(capsys, path)
    assert len(forks) == cpus
    assert got == want
    code, message = got
    assert code == 2
    assert message.startswith(f"error: {path}:{index + 1}: {what}")


@pytest.mark.parametrize("cpus, first", [(2, 2), (2, 6), (3, 2), (3, 6)])
def test_two_bad_ranges_report_the_earlier(monkeypatch, capsys, tmp_path, forks, cpus, first):
    path, starts = bad_file(tmp_path, {first: "[1, 2]", 11: '{"anchors": []}'})
    assert span_of(path, starts[first], cpus) < span_of(path, starts[11], cpus)
    set_cpus(monkeypatch, cpus)
    assert run_pipeline(capsys, path) == (2, f"error: {path}:{first + 1}: record is not a JSON object")
    assert len(forks) == cpus


def repeat_image(path, first, later):
    """Gives line ``later`` of ``path`` the image_id of line ``first``; returns that id."""
    lines = path.read_text().splitlines()
    image_id = json.loads(lines[first])["image_id"]
    lines[later] = json.dumps(dict(json.loads(lines[later]), image_id=image_id), sort_keys=True)
    write_lines(path, lines)
    return image_id


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("first, later", [(2, 3), (2, 11), (6, 7), (9, 4)])
def test_repeated_image_id_names_the_later_line_at_any_cpu_count(monkeypatch, capsys, tmp_path, forks, cpus,
                                                                first, later):
    path, _ = bad_file(tmp_path, {})
    image_id = repeat_image(path, first, later)
    repeat_image(path, 10, 12)  # a second repeat, after the first
    set_cpus(monkeypatch, cpus)
    line = max(first, later) + 1
    assert run_pipeline(capsys, path) == (2, f"error: {path}:{line}: repeated image_id {image_id!r}")
    assert len(forks) == (cpus if cpus > 1 else 0)


SHORT = '{"anchors": [], "image_id": "x"}'  # a line short enough that the first span holds two


@pytest.mark.parametrize("first, later, bad, reread", [
    (2, 11, {}, True), (9, 10, {}, True), (10, 4, {}, True),  # a repeat in a later span
    (1, 2, {1: SHORT, 2: SHORT}, False),  # a repeat inside the first span
    (None, 1, {1: "[1, 2]"}, False),  # a failing first span
    (None, 11, {11: "[1, 2]"}, True),  # a failing later span
], ids=["repeat_2_11", "repeat_9_10", "repeat_10_4", "repeat_in_the_first_span", "bad_first_span",
        "bad_later_span"])
def test_repeated_image_id_rereads_only_the_span_of_the_repeat(monkeypatch, capsys, tmp_path, forks, first,
                                                                later, bad, reread):
    path, starts = bad_file(tmp_path, bad)
    if first is None:
        line, fault = later, "record is not a JSON object"
    else:
        line, fault = max(first, later), f"repeated image_id {repeat_image(path, first, later)!r}"
    set_cpus(monkeypatch, 2)  # forked children decode every span; this process reads the anchors only to re-read
    reads, real = [], jsonl.iter_jsonl

    def spy(file, **kwargs):
        if Path(file) == path:
            reads.append((kwargs.get("start", 0), kwargs.get("end")))
        return real(file, **kwargs)

    monkeypatch.setattr(jsonl, "iter_jsonl", spy)
    assert run_pipeline(capsys, path)[1] == f"error: {path}:{line + 1}: {fault}"
    span = span_of(path, starts[line], 2)
    assert (span > 0) == reread
    assert reads == [spans_of(path, 2)[span]] * reread


def line_spans(path, cpus):
    """Index of the span that reads each line of ``path``."""
    data = path.read_bytes()
    return [span_of(path, start, cpus) for start in [0] + [k + 1 for k in range(len(data) - 1) if data[k] == 10]]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("first, later, bad, where", [
    (1, 2, 3, "first_span"), (1, 3, 2, "first_span"),
    (7, 8, 11, "same_span"), (7, 9, 8, "same_span"),
    (2, 8, 11, "earlier_span"), (2, 9, 7, "earlier_span"),
])
def test_the_first_fault_in_the_file_fails_the_run_a_repeat_included(monkeypatch, capsys, tmp_path, forks,
                                                                      cpus, first, later, bad, where):
    # Line ``later`` repeats the image_id of line ``first``; line ``bad`` is not an object.
    monkeypatch.setattr(ingest, "_SPANS_PER_CPU", 1)  # spans of several lines
    path, _ = bad_file(tmp_path, {bad: "[1, 2]"})
    image_id = repeat_image(path, first, later)
    spans = line_spans(path, cpus)
    if cpus > 1:
        assert {"first_span": spans[first] == spans[later] == 0, "same_span": spans[first] == spans[later] > 0,
                "earlier_span": spans[first] < spans[later]}[where]
    set_cpus(monkeypatch, cpus)
    want = (2, f"error: {path}:{later + 1}: repeated image_id {image_id!r}" if later < bad
            else f"error: {path}:{bad + 1}: record is not a JSON object")
    assert run_pipeline(capsys, path) == want
    assert run_pipeline_from_fifo(capsys, path) == want
    assert len(forks) == (cpus if cpus > 1 else 0)  # a pipe is one span, read here


# Seconds after which a pipe test opens both ends of its FIFO, so that a read
# that waits for a second writer fails the test instead of hanging it.
PIPE_DEADLINE_S = 10


def run_pipeline_from_fifo(capsys, path):
    """run_pipeline on a named pipe that the bytes of ``path`` are written into, the pipe's name read as ``path``."""
    fifo = path.with_suffix(".fifo")
    os.mkfifo(fifo)
    released = []

    def release():
        released.append(1)
        for flags in (os.O_RDONLY, os.O_WRONLY):  # frees a writer, then a reader, stuck in open
            try:
                os.close(os.open(fifo, flags | os.O_NONBLOCK))
            except OSError:
                pass

    writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
    watchdog = threading.Timer(PIPE_DEADLINE_S, release)
    writer.start()
    watchdog.start()
    try:
        code, message = run_pipeline(capsys, fifo)
    finally:
        watchdog.cancel()
        writer.join(PIPE_DEADLINE_S)
        fifo.unlink()
    assert not released, "the pipe was read after its writer closed it"
    assert not writer.is_alive()
    assert str(fifo) in message
    return code, message.replace(str(fifo), str(path))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("dup, line", [
    (lambda lines: lines + [lines[1]], 10),  # img1 again, on line 10
    (lambda lines: [*lines[:3], lines[1], *lines[3:], "[1, 2]"], 4),  # on line 4, before a non-object line 11
], ids=["last", "before_a_bad_line"])
def test_a_repeated_image_id_read_from_a_pipe_fails_as_by_path(monkeypatch, capsys, tmp_path, forks, cpus, dup,
                                                               line):
    path = write_lines(tmp_path / "dup.jsonl", dup((DATA / "anchors.jsonl").read_text().splitlines()))
    set_cpus(monkeypatch, cpus)
    assert run_pipeline(capsys, path) == (2, f"error: {path}:{line}: repeated image_id 'img1'")
    assert len(forks) == (cpus if cpus > 1 else 0)
    assert run_pipeline_from_fifo(capsys, path) == (2, f"error: {path}:{line}: repeated image_id 'img1'")
    assert len(forks) == (cpus if cpus > 1 else 0)  # a pipe is one span, read here


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
    assert len(forks) == 3
    assert code == 2
    assert message == f"error: {path}: a process decoding part of this file exited without a result"


def test_a_failed_fork_ends_the_run_and_leaves_nothing_behind(monkeypatch, capsys, tmp_path, forks):
    # The first child is forked; the second fork fails as when the system is out of processes.
    path, _ = bad_file(tmp_path, {})
    counted = os.fork

    def fork():
        if forks:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return counted()

    monkeypatch.setattr(os, "fork", fork)
    set_cpus(monkeypatch, 2)
    outputs = [tmp_path / "preds.jsonl", tmp_path / "report.json"]
    code = cli.main(["pipeline", "--anchors", str(path), "--texts", str(DATA / "texts.jsonl"),
                     "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"), "--offline",
                     "--out", str(outputs[0]), "--report", str(outputs[1])])
    captured = capsys.readouterr()
    assert len(forks) == 1
    assert code == 2
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        f"error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"]
    assert not any(out.exists() for out in outputs)



@pytest.fixture
def failed_queue_write(monkeypatch):
    """Makes the span queue's one os.write raise ENOSPC; every other os.write runs. Returns the raised errors."""
    real, raised = os.write, []

    def write(fd, data):
        if sys._getframe(1).f_code is ingest._span_queue.__code__:
            raised.append(OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
            raise raised[-1]
        return real(fd, data)

    monkeypatch.setattr(os, "write", write)
    return raised


def test_a_failed_queue_write_is_raised_before_any_fork(monkeypatch, tmp_path, forks, failed_queue_write):
    path, _ = bad_file(tmp_path, {})
    set_cpus(monkeypatch, 2)
    assert len(spans_of(path, 2)) > 1
    meanwhile = []
    with pytest.raises(OSError) as caught:
        ingest.load_anchor_map(path, 0.5, lambda: meanwhile.append(1))
    assert [caught.value] == failed_queue_write
    assert forks == [] and meanwhile == []


def test_a_failed_queue_write_ends_the_pipeline(monkeypatch, capsys, tmp_path, forks, failed_queue_write):
    path, _ = bad_file(tmp_path, {})
    set_cpus(monkeypatch, 2)
    outputs = [tmp_path / "preds.jsonl", tmp_path / "report.json"]
    code = cli.main(["pipeline", "--anchors", str(path), "--texts", str(DATA / "texts.jsonl"),
                     "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"), "--offline",
                     "--out", str(outputs[0]), "--report", str(outputs[1])])
    captured = capsys.readouterr()
    assert len(failed_queue_write) == 1 and forks == []
    assert code == 2
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("error:")] == [
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"]
    assert not any(out.exists() for out in outputs)

@pytest.mark.parametrize("cpus", [2, 3])
def test_pipeline_reproduces_golden_when_split(monkeypatch, tmp_path, capsys, forks, cpus):
    set_cpus(monkeypatch, cpus)
    preds, report = tmp_path / "preds.jsonl", tmp_path / "report.json"
    code = cli.main(["pipeline", "--anchors", str(DATA / "anchors.jsonl"), "--texts", str(DATA / "texts.jsonl"),
                     "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"), "--offline",
                     "--out", str(preds), "--report", str(report)])
    capsys.readouterr()
    assert code == 0
    assert len(forks) == cpus
    assert preds.read_bytes() == (DATA / "golden_predictions.jsonl").read_bytes()
    assert report.read_bytes() == (DATA / "golden_report.json").read_bytes()


@pytest.mark.parametrize("cpus, one_span", [(1, False), (3, True), (2, False), (3, False)])
def test_meanwhile_runs_once_here_after_every_fork(monkeypatch, tmp_path, forks, cpus, one_span):
    path = write_lines(tmp_path / "anchors.jsonl", lines_of(mixed_records()))
    want = one_range_read(monkeypatch, path, 0.5)
    if one_span:
        monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", path.stat().st_size)
    parent, real, events = os.getpid(), ingest._decode_queued, []

    def decode(*args):
        if os.getpid() == parent:
            events.append("decode")
        return real(*args)

    def meanwhile():
        events.append(("meanwhile", os.getpid(), len(forks)))
        return "other reads"

    monkeypatch.setattr(ingest, "_decode_queued", decode)
    set_cpus(monkeypatch, cpus)
    other, got = ingest.load_anchor_map(path, 0.5, meanwhile)
    assert other == "other reads"
    assert_same_map(got, want)
    children = 0 if cpus == 1 or one_span else cpus
    assert len(forks) == children
    # This process decodes a span only when it forked no child, and then after meanwhile.
    assert events == [("meanwhile", parent, children)] + ["decode"] * (children == 0)


def bad_input(tmp_path, kind):
    """(option, path) of a weight, ground-truth or texts file that fails the run."""
    if kind == "weights":
        header, newline, payload = (DATA / "weights.json").read_bytes().partition(b"\n")
        path = tmp_path / "weights.json"
        path.write_bytes(json.dumps(dict(json.loads(header), alpha="0.5")).encode() + newline + payload)
        return "--weights", path
    lines = (DATA / f"{kind}.jsonl").read_text().splitlines()
    lines[2] = '{"boxes": [[5, 5, 1, 1]], "sample_id": "s2"}' if kind == "gt" else '{"sample_id": "s2", '
    return "--" + kind, write_lines(tmp_path / f"{kind}.jsonl", lines)


@pytest.mark.parametrize("command, kind", [("pipeline", "weights"), ("pipeline", "gt"), ("pipeline", "texts"),
                                           ("ground", "weights"), ("ground", "texts")])
def test_a_bad_other_input_while_children_decode_ends_the_run_as_at_one_cpu(monkeypatch, capsys, tmp_path,
                                                                            forks, command, kind):
    argv = [command]
    inputs = {"--anchors": DATA / "anchors.jsonl", "--texts": DATA / "texts.jsonl",
              "--weights": DATA / "weights.json", "--gt": DATA / "gt.jsonl"}
    option, bad = bad_input(tmp_path, kind)
    inputs[option] = bad
    outputs = {"--out": tmp_path / "preds.jsonl"}
    if command == "pipeline":
        argv.append("--offline")
        outputs["--report"] = tmp_path / "report.json"
    else:
        del inputs["--gt"]
    argv += [str(a) for item in (*inputs.items(), *outputs.items()) for a in item]
    results = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        code = cli.main(argv)
        results.append((code, capsys.readouterr().err.splitlines()[-1]))
        assert not any(out.exists() for out in outputs.values())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 2
    assert results[0] == results[1]
    assert results[0][0] == 2 and results[0][1].startswith(f"error: {bad}")


@pytest.mark.parametrize("cpus", [1, 2])
def test_several_bad_inputs_report_in_read_order(monkeypatch, capsys, tmp_path, forks, cpus):
    anchors, _ = bad_file(tmp_path, {2: "[1, 2]"})
    bad = dict(bad_input(tmp_path, kind) for kind in ("weights", "gt", "texts"))
    set_cpus(monkeypatch, cpus)
    order = [("--anchors", tmp_path / "missing.jsonl"), *bad.items(), ("--anchors", anchors)]
    for k, (option, path) in enumerate(order):
        inputs = {"--anchors": anchors, "--texts": DATA / "texts.jsonl", "--weights": DATA / "weights.json",
                  "--gt": DATA / "gt.jsonl"}
        inputs.update(order[k:-1])  # this fault and every later one but the anchors' contents
        inputs[option] = path
        code = cli.main(["pipeline", "--offline", *(str(a) for item in inputs.items() for a in item)])
        message = capsys.readouterr().err.splitlines()[-1]
        assert code == 2 and message.startswith(f"error: {path}" if k else "error: [Errno 2]"), (option, message)
        assert str(path) in message


def test_no_fork_for_one_cpu_a_small_file_or_no_fork(monkeypatch, tmp_path, forks):
    path = write_lines(tmp_path / "anchors.jsonl", lines_of(mixed_records()))
    want = one_range_read(monkeypatch, path, 0.5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert ingest._cpu_count() == 1
    assert_same_map(load(path, 0.5), want)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", path.stat().st_size + 1)
    assert ingest._byte_ranges(path, ingest._cpu_count()) == [(0, None)]
    assert_same_map(load(path, 0.5), want)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
    assert ingest._cpu_count() == 1
    assert_same_map(load(path, 0.5), want)
    assert len(forks) == 0


def first_lines(path, starts, cpus):
    """Index of the first line starting in each span that a line starts in."""
    spans = [span_of(path, start, cpus) for start in starts[:-1]]
    return [spans.index(k) for k in sorted(set(spans))]


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("where", [1, 5])
def test_header_after_the_first_line_is_a_record_in_every_range(monkeypatch, capsys, tmp_path, forks, where,
                                                                cpus):
    path, starts = bad_file(tmp_path, {})
    index = first_lines(path, starts, cpus)[where]
    lines = path.read_text().splitlines()
    lines[index] = '{"v": 1}'.ljust(len(lines[index]))  # same length, so the same spans
    write_lines(path, lines)
    assert first_lines(path, starts, cpus)[where] == index
    set_cpus(monkeypatch, cpus)
    assert run_pipeline(capsys, path) == (2, f"error: {path}:{index + 1}: record has no 'image_id' field")


def log_taken_spans(monkeypatch, log):
    """Every process appends (its pid, the start of each span it decodes) to ``log``; returns a reader of those."""
    real = ingest._anchor_range

    def logged(path, top_fraction, start, end):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {start}\n".encode())
        finally:
            os.close(fd)
        return real(path, top_fraction, start, end)

    monkeypatch.setattr(ingest, "_anchor_range", logged)
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


@pytest.mark.parametrize("cpus", [2, 3])
def test_every_span_is_decoded_once(monkeypatch, tmp_path, forks, cpus):
    path = write_lines(tmp_path / "anchors.jsonl", lines_of(mixed_records()))
    taken_spans = log_taken_spans(monkeypatch, tmp_path / "taken.log")
    set_cpus(monkeypatch, cpus)
    load(path, 0.5)
    taken = [start for _, start in taken_spans()]
    assert sorted(taken) == [start for start, _ in spans_of(path, cpus)]
    assert len(taken) > cpus
    assert len(forks) == cpus


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
    assert_same_map(load(path, 0.5), want)
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
    assert run_pipeline(capsys, path) == (2, f"error: {path}:3: record is not a JSON object")
    spans = spans_of(path, 2)
    failed = spans[span_of(path, starts[2], 2)][0]
    taken = taken_spans()
    assert sorted(start for _, start in taken if start <= failed) == [s for s, _ in spans if s <= failed]
    assert len({start for _, start in taken}) == len(taken)
    (pid,) = {pid for pid, start in taken if start == failed}
    assert [start for p, start in taken if p == pid][-1] == failed  # see test_a_failed_span_empties_the_queue


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
    assert_same_map(load(path, 0.5), want)
    assert len(forks) == 2


def test_a_forked_child_makes_its_own_worker_thread(two_threads):
    two_threads()
    similarity._both(lambda: None, lambda: None)
    assert similarity._workers  # the worker of this process exists
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
