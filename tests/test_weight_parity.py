"""similarity.load_bundle reads save_bundle's layout by position and gives what a whole-file JSON parse gave.

``reference_load`` is the body ``load_bundle`` had before the layout reader,
kept here as the reference: the whole file decoded to text and parsed as
JSON. Over files saved at several dimensions and seeded edits of them (bytes
deleted, inserted or replaced in each part, line ends, key order, extra and
repeated keys, JSON escapes, padding and trailing bytes), ``load_bundle`` must
give the same matrix bytes and scalars, or raise the same exception type with
the same message.
"""

from __future__ import annotations

import base64
import json
import os
import random
import re
import threading
import tracemalloc

import numpy as np
import pytest

from hemix import jsonl, records, similarity

MATRICES = ("w_ev", "w_et", "w_hv", "w_ht")
DIMS = (1, 2, 7, 64)
RANDOM_EDITS = 60  # per dimension


def reference_decode(name, value, dim):
    try:
        raw = base64.b64decode(value, validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: not a valid base64 payload: {exc}") from None
    if len(raw) != 8 * dim * dim:
        raise ValueError(f"{name}: payload has {len(raw)} bytes, expected {8 * dim * dim}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def reference_load(path):
    """``load_bundle`` as it was before the layout reader: one whole-file text, parsed as JSON."""
    try:
        with open(path, "rb") as fh:
            text = str(fh.read(), "utf-8")
        try:
            payload = json.loads(text)
        except ValueError:
            payload = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
        del text
        header = records._weight_header(payload, MATRICES)
        dim = header.pop("dim")
        mats = {name: reference_decode(name, payload[name], dim).reshape(dim, dim) for name in MATRICES}
        return similarity.ProjectionBundle(**mats, **header)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def outcome(load, path):
    """("bundle", matrix bytes, scalars) or ("raises", exception type, message)."""
    try:
        b = load(path)
    except Exception as exc:  # compared, never swallowed
        return ("raises", type(exc), str(exc))
    assert all(getattr(b, name).flags.writeable and getattr(b, name).flags.c_contiguous for name in MATRICES)
    return ("bundle", [getattr(b, name).tobytes() for name in MATRICES], (b.dim, b.alpha, b.tau, b.kappa))


def saved(tmp_path, dim) -> bytes:
    path = tmp_path / "saved.json"
    rng = np.random.default_rng(dim)
    similarity.save_bundle(similarity.ProjectionBundle(
        *rng.standard_normal((4, dim, dim)), alpha=0.25, tau=0.5, kappa=2.0), path)
    return path.read_bytes()


def parts(data: bytes) -> dict:
    """The [start, end) byte ranges of the header, each matrix key, each payload and the tail."""
    spans, pos = {}, data.index(b', "w_et": "')
    spans["header"] = (0, pos)
    for name in sorted(MATRICES):
        key = f', "{name}": "'.encode()
        assert data.startswith(key, pos)
        end = data.index(b'"', pos + len(key))
        spans[f"key {name}"], spans[f"payload {name}"] = (pos, pos + len(key)), (pos + len(key), end)
        pos = end + 1
    spans["tail"] = (pos - 1, len(data))
    return spans


def rewritten(data: bytes, order=sorted, **changes) -> bytes:
    """The file's object with ``changes``, its keys in ``order(keys)``, written as save_bundle writes."""
    obj = dict(json.loads(data), **changes)
    return json.dumps({key: obj[key] for key in order(list(obj))}).encode() + b"\n"


def matrix_bytes(name: str, edit):
    """The file with ``edit`` applied to the float64 bytes of one matrix."""
    return lambda data: rewritten(data, **{name: base64.b64encode(edit(base64.b64decode(json.loads(data)[name])))
                                            .decode()})


def replace_in(span: str, old: bytes, new: bytes):
    def edit(data):
        start, end = parts(data)[span]
        return data[:start] + data[start:end].replace(old, new, 1) + data[end:]
    return edit


EDITS = {
    "canonical": lambda data: data,
    "crlf": lambda data: data.replace(b", ", b",\r\n "),
    "crlf at the end": lambda data: data.replace(b"}\n", b"}\r\n"),
    "lone cr": lambda data: data.replace(b", ", b",\r "),
    "cr in a payload": replace_in("payload w_ev", b"A", b"\r"),
    "crlf syntax fault": lambda data: data.replace(b", ", b",\r\n ").replace(b'"tau": ', b'"tau" '),
    "no newline": lambda data: data.rstrip(b"\n"),
    "whitespace around": lambda data: b" \t\n" + data.replace(b"}\n", b" } \n\t "),
    "space before a matrix key": lambda data: data.replace(b', "w_ht"', b' , "w_ht"'),
    "no space after a colon": lambda data: data.replace(b'"w_hv": "', b'"w_hv":"'),
    "rewritten": rewritten,
    "unsorted matrices": lambda data: rewritten(data, lambda keys: sorted(set(keys) - set(MATRICES)) + list(MATRICES)),
    "unsorted header": lambda data: rewritten(data, lambda keys: sorted(set(keys) - set(MATRICES), reverse=True)
                                              + sorted(MATRICES)),
    "extra key in the header": lambda data: data.replace(b'"tau"', b'"extra": [1, {"a": null}], "tau"'),
    "extra key before the matrices": lambda data: data.replace(b', "w_et"', b', "v": 1, "w_et"'),
    "extra key between the matrices": lambda data: data.replace(b', "w_ht"', b', "w_f": "AAAA", "w_ht"'),
    "extra key after the matrices": lambda data: data.replace(b'"}\n', b'", "x": 1}\n'),
    "repeated header key": lambda data: data.replace(b'{"alpha": 0.25', b'{"alpha": 0.25, "alpha": 0.75'),
    "repeated header key, bad value first": lambda data: data.replace(b'{"alpha"', b'{"alpha": 9, "alpha"'),
    "repeated header key, bad value last": lambda data: data.replace(b'"tau": 0.5', b'"tau": 0.5, "tau": -1'),
    "repeated matrix key": lambda data: data.replace(b'"}\n', b'", "w_ev": "AAAA"}\n'),
    "header key named like a matrix": lambda data: data.replace(b'{"alpha"', b'{"w_ev": "AAAA", "alpha"'),
    "header key named like the first matrix": lambda data: data.replace(b'{"alpha"', b'{"w_et": 5, "alpha"'),
    "first matrix key inside the header": lambda data: data.replace(b'{"alpha"', b'{"x": 1, "w_et": "AAAA", "alpha"'),
    "unicode escape in a payload": replace_in("payload w_ht", b"A", b"\\u0041"),
    "slash escape in a payload": replace_in("payload w_et", b"/", b"\\/"),
    "escaped quote in a payload": replace_in("payload w_hv", b"A", b'\\"'),
    "escape in a key": lambda data: data.replace(b'"w_hv"', b'"w_h\\u0076"'),
    "escape in the header": lambda data: data.replace(b'"linear"', b'"\\u006cinear"'),
    "padding removed": lambda data: data.replace(b'=", "w_ev"', b'", "w_ev"'),
    "padding added": lambda data: data.replace(b'", "w_ev"', b'==", "w_ev"'),
    "padding inside": replace_in("payload w_ev", b"A", b"="),
    "short payload": matrix_bytes("w_hv", lambda raw: raw[:-8]),
    "long payload": matrix_bytes("w_ev", lambda raw: raw + raw[:8]),
    "NaN entry": matrix_bytes("w_et", lambda raw: raw[:-8] + np.float64("nan").tobytes()),
    "non-ASCII in a payload": replace_in("payload w_et", b"A", "Å".encode()),
    "trailing junk": lambda data: data + b"x",
    "trailing object": lambda data: data + b"{}",
    "trailing NUL": lambda data: data + b"\0",
    "trailing form feed": lambda data: data + b"\x0c",
    "bad UTF-8 in the header": lambda data: data.replace(b'"linear"', b'"lin\xffear"'),
    "cut UTF-8 at the end": lambda data: data + b"\xc3",
    "BOM": lambda data: b"\xef\xbb\xbf" + data,
    "deeply nested header": lambda data: data.replace(b'"tau"', b'"deep": ' + b"[" * 10 ** 5 + b"]" * 10 ** 5
                                                      + b', "tau"'),
    "dim of another size": lambda data: re.sub(rb'"dim": \d+', b'"dim": 3', data),
    "dim as a float": lambda data: re.sub(rb'"dim": (\d+)', rb'"dim": \1.0', data),
    "dim beyond any array": lambda data: re.sub(rb'"dim": \d+', b'"dim": ' + str(10 ** 30).encode(), data),
    "unknown encoding": lambda data: data.replace(b"base64-f8le", b"base64-f4le"),
    "no embed_strategy": lambda data: data.replace(b'"embed_strategy": "linear", ', b""),
    "not an object": lambda data: b"[" + data + b"]",
    "empty": lambda data: b"",
    "whitespace only": lambda data: b" \n",
    "header only": lambda data: data[:parts(data)["header"][1]] + b"}",
    "cut in a payload": lambda data: data[:parts(data)["payload w_ht"][1] - 3],
}

# Bytes an insert or a replacement draws from: JSON syntax, base64, padding, escapes, line ends, non-ASCII.
ALPHABET = b'{}[]",: \t\r\n\x0b\x0c\\=AQgw+/09-.eEu\xff\xc3\x00'


def random_edit(rng: random.Random, data: bytes, spans: list) -> bytes:
    """One byte deleted, inserted or replaced at a random place of a random one of ``spans``."""
    start, end = rng.choice(spans)
    at = rng.randrange(start, max(start + 1, end))
    op = rng.choice(("delete", "insert", "replace"))
    new = b"" if op == "delete" else bytes([rng.choice(ALPHABET)])
    return data[:at] + new + data[at + (op != "insert"):]


def cases(tmp_path):
    """(label, file bytes) of each edit of the table and of RANDOM_EDITS seeded random ones, at each of DIMS."""
    rng = random.Random(20261020)
    for dim in DIMS:
        data = saved(tmp_path, dim)
        spans = list(parts(data).values())
        for name, edit in EDITS.items():
            yield f"d={dim} {name}", edit(data)
        for i in range(RANDOM_EDITS):
            yield f"d={dim} random edit {i}", random_edit(rng, random_edit(rng, data, spans) if i % 3 else data, spans)


def test_load_bundle_matches_the_reference(tmp_path, monkeypatch):
    read = []  # whether the layout reader read each file, so that both readers are compared
    layout = similarity._layout_fields

    def spy(data):
        fields = layout(data)
        read.append(fields is not None)
        return fields

    monkeypatch.setattr(similarity, "_layout_fields", spy)
    path = tmp_path / "w.json"
    kinds = set()
    for label, data in cases(tmp_path):
        path.write_bytes(data)
        got, want = outcome(similarity.load_bundle, path), outcome(reference_load, path)
        assert got == want, (label, got[:3:2], want[:3:2])
        kinds.add(want[0])
    assert kinds == {"bundle", "raises"}
    assert 0 < sum(read) < len(read)


@pytest.fixture
def reads(monkeypatch):
    """Each ("text", start, end) decode of a weight file's bytes and each ("release", end) of its pages, in order."""
    calls = []
    text, release = jsonl._Bytes.text, jsonl._Bytes.release
    monkeypatch.setattr(jsonl._Bytes, "text",
                        lambda self, pos, end: calls.append(("text", pos, end)) or text(self, pos, end))
    monkeypatch.setattr(jsonl._Bytes, "release",
                        lambda self, end: calls.append(("release", end)) or release(self, end))
    return calls


@pytest.mark.parametrize("dim", DIMS)
def test_a_saved_file_is_read_by_position(tmp_path, reads, dim):
    # Only the header is decoded to text; each payload's pages are handed back once it is decoded.
    data = saved(tmp_path, dim)
    path = tmp_path / "w.json"
    path.write_bytes(data)
    assert outcome(similarity.load_bundle, path) == outcome(reference_load, path)
    spans = parts(data)
    assert reads == [("text", 0, spans["header"][1]), *(("release", spans[f"payload {name}"][1])
                                                          for name in sorted(MATRICES))]


@pytest.mark.parametrize("edit", ["canonical", "crlf", "extra key after the matrices", "short payload"])
def test_a_fifo_is_read_once(tmp_path, reads, monkeypatch, edit):
    data = EDITS[edit](saved(tmp_path, 7))
    path = tmp_path / "w.json"
    path.write_bytes(data)
    want = outcome(reference_load, path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    opened = []
    init = jsonl._Bytes.__init__
    monkeypatch.setattr(jsonl._Bytes, "__init__", lambda self, p: (opened.append(p), init(self, p))[1])

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    got = outcome(similarity.load_bundle, fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert opened == [fifo]
    assert got == (want[:2] + (want[2].replace(str(path), str(fifo)),) if want[0] == "raises" else want)
    assert (reads[-1] == ("text", 0, len(data))) == (edit != "canonical")


def test_load_holds_little_more_than_the_matrices(tmp_path):
    # A whole-file text and the payload strings parsed from it held 2.7 times the matrices' bytes.
    dim = 256
    path = tmp_path / "w.json"
    similarity.save_bundle(similarity.ProjectionBundle.initialize(dim, seed=3), path)
    similarity.load_bundle(path)  # imports and caches made on first use are not counted
    tracemalloc.start()
    try:
        bundle = similarity.load_bundle(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrices = sum(getattr(bundle, name).nbytes for name in MATRICES)
    assert matrices == 4 * 8 * dim * dim
    assert peak <= 1.5 * matrices, (peak, matrices)
