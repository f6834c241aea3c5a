"""The anchors file read into one AnchorSet per image, on every available CPU."""

from __future__ import annotations

import os
import pickle
from functools import partial

from . import grounding, jsonl, records
from .similarity import _cpu_count

# The anchors file is decoded in spans of at least this many bytes. Splitting
# a 1 MiB file in two saved nothing on two CPUs: the fork and the pickled
# reply took about what the second CPU saved.
_MIN_RANGE_BYTES = 1 << 20
# Spans per CPU. Every process takes the next span from one queue, so a CPU
# that runs slow for a while decodes fewer spans instead of holding up the
# load, as the slower of two fixed halves does.
_SPANS_PER_CPU = 8


def _byte_ranges(path, n: int) -> list:
    """``n`` equal (start, end) byte ranges that tile ``path``, the last ending at None.

    There are at most ``size // _MIN_RANGE_BYTES`` ranges, and one for a file
    under that size.
    """
    size = os.stat(path).st_size
    n = max(1, min(n, size // _MIN_RANGE_BYTES))
    cuts = [k * size // n for k in range(n)]
    return list(zip(cuts, cuts[1:] + [None]))


def _anchor_range(path, top_fraction: float, start: int, end: int | None) -> list:
    """(image_id, its AnchorSet or the error message of a malformed entry) for each line starting in [start, end)."""
    images = []
    for rec in jsonl.iter_jsonl(path, start=start, end=end, check=records.image_record):
        image_id = rec["image_id"]
        try:
            images.append((image_id, grounding.AnchorSet.from_json(rec["anchors"], top_fraction)))
        except (ValueError, KeyError) as exc:
            images.append((image_id, f"anchors of image {image_id!r}: {jsonl._message(exc)}"))
        del rec
    return images


def _span_queue(count: int) -> int:
    """Read end of a pipe that holds the span indices 0 .. count-1, one byte each, then ends."""
    r, w = os.pipe()
    try:
        os.write(w, bytes(range(count)))
    except BaseException:
        os.close(r)
        raise
    finally:
        os.close(w)
    return r


def _decode_queued(path, top_fraction: float, spans: list, queue: int) -> dict:
    """span index -> its _anchor_range list, or the exception it raised, for each span taken from ``queue``.

    Every process reads the one queue, so spans are taken in file order. A
    failing span empties the queue: no later span is needed, every process
    stops after the span it holds, and a span nobody took comes after a
    failed one.
    """
    parts = {}
    while taken := os.read(queue, 1):
        i = taken[0]
        try:
            parts[i] = _anchor_range(path, top_fraction, *spans[i])
        except Exception as exc:  # raised by the merge, in file order
            parts[i] = exc
            os.read(queue, 256)
    return parts


def _fork_decoder(path, top_fraction: float, spans: list, queue: int) -> tuple:
    """(pid, read end of its pipe) of a child that decodes spans taken from ``queue``.

    The child pickles its _decode_queued result into the pipe once and exits.
    It runs only JSON decoding and AnchorSet construction (no BLAS call), and
    never returns into its caller.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pickle.dump(_decode_queued(path, top_fraction, spans, queue), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def load_anchor_map(path, top_fraction: float) -> dict:
    """image_id -> its AnchorSet cut to ``top_fraction``, or the error message of a malformed entry.

    The file is cut into _SPANS_PER_CPU equal byte spans per available CPU
    (see _byte_ranges), without a look at its content: a span holds the lines
    that start in it (see jsonl.iter_jsonl). The spans are decoded by this
    process and a forked child per further CPU, each taking the next span from
    a shared queue until none is left. The parts are merged in file order, so
    the map, its key order and any error are those of one whole-file read.
    When several spans fail, the first in file order is raised; a child that
    exits without a reply fails the run. A file without such a failure fails
    on its first repeated image_id, naming the later line; only the first span
    that repeats an earlier id is read again to find it. Every process
    streams its spans: each record is dropped before the next line is
    decoded, and each image keeps only the rows that grounding at
    ``top_fraction`` reads.
    """
    cpus = _cpu_count()
    spans = _byte_ranges(path, 1 if cpus == 1 else min(cpus * _SPANS_PER_CPU, 256))  # one byte names a span
    queue = _span_queue(len(spans))
    workers = []
    try:
        for _ in range(min(cpus, len(spans)) - 1):
            workers.append(_fork_decoder(path, top_fraction, spans, queue))
        parts = _decode_queued(path, top_fraction, spans, queue)
        for _, pipe in workers:
            try:
                parts.update(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"{path}: a process decoding part of this file exited "
                                        "without a result") from None
        parts = [parts[i] for i in sorted(parts)]
        if failed := next((part for part in parts if isinstance(part, Exception)), None):
            raise failed
        anchor_map = dict(image for part in parts for image in part)
        if len(anchor_map) < sum(map(len, parts)):  # an image_id repeats: re-reading its span names the line
            seen = set()
            for (start, end), part in zip(spans, parts):
                ids = {image_id for image_id, _ in part}
                if len(ids) < len(part) or not seen.isdisjoint(ids):
                    for _ in jsonl.iter_jsonl(path, start=start, end=end,
                                              check=partial(records.image_record, seen=seen)):
                        pass
                seen |= ids
    except BaseException:
        import signal  # only here: the module costs memory on every run

        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, pipe in workers:
            pipe.close()
            os.waitpid(pid, 0)
    return anchor_map
