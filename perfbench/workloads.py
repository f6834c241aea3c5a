"""The four workloads: what each one runs through ``hemix.cli.main`` and how
its outputs are checked.

A workload prepares its inputs from the seed once per run, then every
iteration runs ``commands()`` in a fresh child and ``check()`` compares what
the child produced with what the benchmark expects. ``check`` returns the
number of operations attempted and failed; every mismatch is a failure.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import gen


def _read_jsonl(path: Path) -> list:
    rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    return [r for r in rows if set(r) != {"v"}]


class Pipeline:
    """``pipeline --offline`` over generated anchors, expressions and weights."""

    def __init__(self, name: str, why: str, *, dim: int, n_images: int, anchors_per_image: int,
                 exprs_per_image: int, top_frac: float):
        self.name, self.why = name, why
        self.sizes = dict(dim=dim, n_images=n_images, anchors_per_image=anchors_per_image,
                          exprs_per_image=exprs_per_image, top_frac=top_frac)

    def prepare(self, work: Path, seed: int) -> None:
        self.case = gen.write_pipeline_inputs(work / "inputs", seed, **self.sizes)
        self.preds, self.report = work / "preds.jsonl", work / "report.json"
        self.outputs = (self.preds, self.report)
        self.samples = self.case.n_samples
        self.input_bytes = self.case.input_bytes

    def commands(self) -> list:
        c = self.case
        return [["pipeline", "--anchors", str(c.anchors), "--texts", str(c.texts), "--weights", str(c.weights),
                 "--gt", str(c.gt), "--top-frac", repr(c.top_frac), "--offline",
                 "--out", str(self.preds), "--report", str(self.report)]]

    def check(self, result: dict) -> tuple[int, int, list]:
        problems = []
        got = {r["sample_id"]: r["boxes"] for r in _read_jsonl(self.preds)} if self.preds.exists() else {}
        for sid, boxes in self.case.predictions.items():
            if got.get(sid) != boxes:
                problems.append(f"{sid}: predicted {got.get(sid)}, reference {boxes}")
        report = json.loads(self.report.read_text()) if self.report.exists() else {}
        for key, want in self.case.expected.items():
            if report.get(key) != want:
                problems.append(f"report {key} = {report.get(key)}, reference {want}")
        return len(self.case.predictions) + len(self.case.expected), len(problems), problems


class TrainToy:
    """``train-toy`` at d=512: the contrastive loss, Adam and a large weight write."""

    def __init__(self, name: str, why: str, *, dim: int, steps: int, batch_images: int, negatives: int,
                 n_samples: int, lr: float):
        self.name, self.why = name, why
        self.dim, self.steps, self.batch_images = dim, steps, batch_images
        self.negatives, self.n_samples, self.lr = negatives, n_samples, lr
        self.sizes = dict(dim=dim, steps=steps, batch_images=batch_images, negatives=negatives,
                          n_samples=n_samples, lr=lr)

    def prepare(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.weights, self.trace, self.apex = work / "trained.json", work / "loss_trace.csv", work / "apex.json"
        self.outputs = (self.weights, self.trace, self.apex)
        self.samples = self.steps * self.batch_images
        self.input_bytes = {}

    def commands(self) -> list:
        return [["train-toy", "--dim", str(self.dim), "--steps", str(self.steps),
                 "--batch-images", str(self.batch_images), "--negatives", str(self.negatives),
                 "--samples", str(self.n_samples), "--lr", repr(self.lr), "--seed", str(self.seed),
                 "--out", str(self.weights), "--trace-out", str(self.trace), "--apex-out", str(self.apex)]]

    def check(self, result: dict) -> tuple[int, int, list]:
        from hemix import similarity

        problems = []
        if result["commands"][0]["rc"] != 0:
            problems.append(f"train-toy exited {result['commands'][0]['rc']}")
        losses = []
        if self.trace.exists():
            with self.trace.open() as fh:
                losses = [float(row["loss"]) for row in csv.DictReader(fh)]
        if len(losses) != self.steps or not all(math.isfinite(x) for x in losses):
            problems.append(f"loss trace has {len(losses)} rows or non-finite values")
        elif not sum(losses[-10:]) < sum(losses[:10]):
            problems.append(f"final loss {sum(losses[-10:]) / 10:.4g} not below initial {sum(losses[:10]) / 10:.4g}")
        try:
            if similarity.load_bundle(self.weights).dim != self.dim:
                problems.append("weight file has the wrong dimension")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"weight file does not load back: {exc}")
        return 4, len(problems), problems


class VerifySuites:
    """geom-check, grad-check and analyze-alpha in one child."""

    def __init__(self, name: str, why: str, *, cases: int, batches: int, mc_n: int):
        self.name, self.why = name, why
        self.cases, self.batches, self.mc_n = cases, batches, mc_n
        self.sizes = dict(cases=cases, batches=batches, mc_n=mc_n)

    def prepare(self, work: Path, seed: int) -> None:
        self.seed = seed
        self.outputs = ()
        # Property-suite cases (four seeded checks) and gradient-check batches.
        self.samples = 4 * self.cases + self.batches
        self.input_bytes = {}

    def commands(self) -> list:
        s = str(self.seed)
        return [
            ["geom-check", "--cases", str(self.cases), "--seed", s],
            # grad-check keeps its default seed: it draws the batch shapes itself,
            # and over nine batches the work differed by up to 1.6x between seeds.
            ["grad-check", "--batches", str(self.batches)],
            ["analyze-alpha", "--b-e", "0.5", "--b-h", "-0.5", "--sigma-e", "1", "--sigma-h", "2",
             "--rho", "0.3", "--mc-n", str(self.mc_n), "--seed", s],
        ]

    def check(self, result: dict) -> tuple[int, int, list]:
        attempted, problems = 0, []
        for cmd in result["commands"]:
            attempted += 1
            if cmd["rc"] != 0:
                problems.append(f"{cmd['argv'][0]} exited {cmd['rc']}")
            for line in cmd["stdout"].splitlines():
                if line.startswith(("ok  ", "FAIL")):
                    attempted += 1
                    if line.startswith("FAIL"):
                        problems.append(line)
        return attempted, len(problems), problems


WORKLOADS = {w.name: w for w in (
    Pipeline("ground-d512", "pipeline at d=512 with ~1000 anchors per image: per-pair scoring and the weight read dominate",
             dim=512, n_images=2, anchors_per_image=1000, exprs_per_image=10, top_frac=0.10),
    Pipeline("ingest-d64", "pipeline at d=64 over hundreds of small images: JSONL ingest dominates, scoring is bypassed",
             dim=64, n_images=200, anchors_per_image=200, exprs_per_image=1, top_frac=0.05),
    TrainToy("train-d512", "train-toy at d=512: contrastive loss, Adam and the weight write dominate",
             dim=512, steps=40, batch_images=8, negatives=8, n_samples=256, lr=0.001),
    VerifySuites("verify-suites", "geometry, gradient and mixing suites: Lorentz maps and tiny-dimension loss calls",
                 cases=2000, batches=9, mc_n=1_000_000),
)}
