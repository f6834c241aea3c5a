"""Span tracer installed from outside the program.

``Tracer.install`` wraps every public function of every ``hemix`` module at
each place a caller looks it up: the defining module, every other ``hemix``
module that imported it with ``from ... import``, and the package itself.
Each call becomes a span (name, start, end, parent, sample_id) kept in
memory; ``per_layer`` turns the spans and the counters into per-module self
times and work counts.

A module's self time is the time of its spans minus the time of the child
spans they cover, so the self times of all modules add up to the time spent
inside traced calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import logging
import math
import os
import time
from collections import Counter

MODULES = ("cli", "contrastive", "decouple", "grounding", "jsonl", "lorentz",
           "metrics", "mixture", "similarity", "trainer")

# Calls that belong to one pipeline sample; any other call made directly by a
# CLI command ends the current sample.
_SAMPLE_SPANS = ("decouple.", "grounding.ground")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class _CountHandler(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(level=logging.WARNING)
        self.counts = counts

    def emit(self, record):
        self.counts["lorentz.clamp_warnings"] += 1


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, sample_id]
        self.stack = []
        self.counts = Counter()
        self.calls = Counter()
        self.sample_id = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, probe=None):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter
        ends_sample = not name.startswith(_SAMPLE_SPANS)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if ends_sample and parent >= 0 and spans[parent][0].startswith("cli.cmd_"):
                self.sample_id = None
            if name == "grounding.ground":
                self.sample_id = _arg(args, kwargs, 0, "sample_id")
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, self.sample_id]
            spans.append(span)
            calls[name] += 1
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(args, kwargs, result)
            return result

        return traced

    def _decouple_record(self, fn):
        """Marks the start of a pipeline sample and counts its decoupling path."""

        def marked(rec, *args, **kwargs):
            self.sample_id = rec.get("sample_id")
            rule = self.calls["decouple.rule_based_decompose"]
            replay = self.calls["decouple.parse_response"]
            result = fn(rec, *args, **kwargs)
            if self.calls["decouple.rule_based_decompose"] > rule:
                self.counts["decouple.rule_based"] += 1
            elif self.calls["decouple.parse_response"] > replay:
                self.counts["decouple.transcript"] += 1
            else:
                self.counts["decouple.given"] += 1
            return result

        return marked

    def _probes(self) -> dict:
        c = self.counts

        def weight_file(index):
            def probe(args, kwargs, result):
                c["similarity.weight_bytes"] += os.path.getsize(_arg(args, kwargs, index, "path"))
            return probe

        def ground(args, kwargs, result):
            anchors = _arg(args, kwargs, 1, "anchors")
            phrases = _arg(args, kwargs, 2, "phrases")
            top = _arg(args, kwargs, 5, "top_fraction", 0.10)
            if phrases:
                keep = max(1, math.ceil(top * len(anchors)))
                c["grounding.anchors_in"] += len(anchors)
                c["grounding.anchors_kept"] += keep
                c["grounding.phrases"] += len(phrases)
                c["grounding.pairs_scored"] += keep * len(phrases)

        def read_jsonl(args, kwargs, result):
            c["jsonl.records_read"] += len(result)
            c["jsonl.bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

        def write_jsonl(args, kwargs, result):
            c["jsonl.records_written"] += len(_arg(args, kwargs, 1, "records"))

        def loss(args, kwargs, result):
            c["contrastive.images_scored"] += len(_arg(args, kwargs, 0, "batch").images)
            c["contrastive.grad_calls"] += bool(kwargs.get("compute_grads", True))

        def train(args, kwargs, result):
            c["trainer.steps"] += _arg(args, kwargs, 1, "cfg").steps

        def monte_carlo(args, kwargs, result):
            c["mixture.draws"] += _arg(args, kwargs, 2, "n", 1_000_000)

        return {
            "similarity.load_bundle": weight_file(0),
            "similarity.save_bundle": weight_file(1),
            "grounding.ground": ground,
            "jsonl.read_jsonl": read_jsonl,
            "jsonl.write_jsonl": write_jsonl,
            "contrastive.contrastive_loss": loss,
            "trainer.train": train,
            "mixture.monte_carlo_mse": monte_carlo,
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("hemix")
        mods = {m: importlib.import_module(f"hemix.{m}") for m in MODULES}
        sites = [pkg, *mods.values()]
        probes = self._probes()
        for short, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                full = f"{short}.{name}"
                wrapped = self._wrap(full, fn, probes.get(full))
                for site in sites:
                    if vars(site).get(name) is fn:
                        setattr(site, name, wrapped)
        cli = mods["cli"]
        cli._decouple_record = self._decouple_record(cli._decouple_record)
        logging.getLogger("hemix.lorentz").addHandler(_CountHandler(self.counts))

    # -- results -------------------------------------------------------------

    def per_layer(self) -> dict:
        """Self time and call count per module, plus the named counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{m}.{key}": zero for m in MODULES for key, zero in (("self_s", 0.0), ("calls", 0))}
        inclusive = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            module = name.split(".", 1)[0]
            out[f"{module}.self_s"] += (end - start) - covered
            out[f"{module}.calls"] += 1
            inclusive[name] += end - start
        for key, fn in (("similarity.load_bundle_s", "similarity.load_bundle"),
                        ("similarity.save_bundle_s", "similarity.save_bundle"),
                        ("grounding.filter_anchors_s", "grounding.filter_anchors"),
                        ("contrastive.gradient_check_s", "contrastive.gradient_check")):
            out[key] = float(inclusive[fn])
        out["contrastive.loss_calls"] = self.calls["contrastive.contrastive_loss"]
        out["metrics.samples_matched"] = self.calls["metrics.match_sample"]
        for fn in ("lift", "geodesic_distance", "exp_map", "log_map"):
            out[f"lorentz.{fn}_calls"] = self.calls[f"lorentz.{fn}"]
        for key in COUNTERS:
            out[key] = self.counts[key]
        kept, seen = self.counts["grounding.anchors_kept"], self.counts["grounding.anchors_in"]
        out["grounding.kept_ratio"] = kept / seen if seen else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, sample_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "sample_id": sample_id}) + "\n")


COUNTERS = (
    "similarity.weight_bytes",
    "grounding.anchors_in", "grounding.anchors_kept", "grounding.phrases", "grounding.pairs_scored",
    "jsonl.records_read", "jsonl.bytes_read", "jsonl.records_written",
    "decouple.given", "decouple.transcript", "decouple.rule_based",
    "contrastive.grad_calls", "contrastive.images_scored",
    "trainer.steps", "mixture.draws", "lorentz.clamp_warnings",
)
