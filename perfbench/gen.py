"""Seeded inputs for the pipeline workloads.

``write_pipeline_inputs`` draws anchors, expressions, ground truth and a
weight file from one seed, writes them in the documented file formats, and
returns the predictions and report values the reference expects. The same
seed and sizes give byte-identical files.

Every seed gets the same mix of expressions (only their order and values
change), so the work per run does not depend on the seed. The mix covers the
three decoupling paths: given phrases, a replayed service transcript
(including the no-target answer "0") and the rule-based decomposer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

# (decouple path, phrase count, ground-truth kind). Ground truth starts from
# the reference prediction: "exact" keeps it, "shift" moves the first box by
# 45% of its width (IoU 0.38, below the 0.5 threshold), "extra" adds a box
# nobody predicts, "drop" keeps only the first box, "empty" is a no-target
# sample. The two "empty" rows give one no-target hit ("0" transcript) and
# one miss (the rule-based path always predicts something).
PLAN = (
    ("given", 1, "exact"),
    ("given", 2, "exact"),
    ("given", 3, "shift"),
    ("transcript", 2, "exact"),
    ("transcript", 3, "extra"),
    ("transcript", 0, "empty"),
    ("rule", 1, "exact"),
    ("rule", 2, "drop"),
    ("rule", 3, "exact"),
    ("rule", 1, "empty"),
)

_COLORS = ("red", "green", "blue", "black", "white", "yellow", "grey", "brown")
_NOUNS = ("car", "dog", "person", "glass", "chair", "bike", "cup", "bag", "horse", "lamp")
_PLACES = ("on the left", "on the right", "in the middle", "at the back", "in front", "near the door")

ALPHA, TAU, KAPPA = 0.5, 0.07, 1.0
IOU = 0.5


@dataclass
class PipelineCase:
    anchors: Path
    texts: Path
    gt: Path
    weights: Path
    top_frac: float
    n_samples: int
    predictions: dict  # sample_id -> list of boxes the reference selects
    expected: dict  # precision_at_f1, n_acc, n_failures
    paths: dict = field(default_factory=dict)  # decouple path -> record count
    input_bytes: dict = field(default_factory=dict)


def _write_jsonl(path: Path, records: list) -> None:
    lines = [json.dumps({"v": 1}, sort_keys=True)]
    lines.extend(json.dumps(rec, sort_keys=True) for rec in records)
    path.write_text("\n".join(lines) + "\n")


def _phrase(rng: np.random.Generator) -> str:
    return " ".join((_COLORS[rng.integers(len(_COLORS))], _NOUNS[rng.integers(len(_NOUNS))],
                     _PLACES[rng.integers(len(_PLACES))]))


def _transcript(rng: np.random.Generator, phrases: list) -> str:
    if not phrases:
        return "0"
    lines = [str(len(phrases))]
    lines += [f"{i}.{p}" if rng.random() < 0.5 else f"{i}. {p}" for i, p in enumerate(phrases, 1)]
    return "\n".join(lines)


def _boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    xy = rng.uniform(0.0, 600.0, size=(n, 2))
    wh = rng.uniform(20.0, 200.0, size=(n, 2))
    return np.concatenate([xy, xy + wh], axis=1).round(2)


def _ground_truth(kind: str, boxes: list) -> list:
    if kind == "empty":
        return []
    if kind == "shift":
        x1, y1, x2, y2 = boxes[0]
        dx = (x2 - x1) * 0.45
        return [[round(x1 + dx, 2), y1, round(x2 + dx, 2), y2]] + boxes[1:]
    if kind == "extra":
        return boxes + [[0.0, 0.0, 10.0, 10.0]]
    if kind == "drop":
        return boxes[:1]
    return list(boxes)


def write_pipeline_inputs(out_dir: Path, seed: int, *, dim: int, n_images: int,
                          anchors_per_image: int, exprs_per_image: int, top_frac: float) -> PipelineCase:
    # The weight file is written by the program itself, so the benchmark
    # follows a change of the weight format. Imported here because the
    # benchmark must start, and fail cleanly, where there are no sources.
    from hemix import similarity

    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    gain = 1.0 / np.sqrt(dim)
    w = {name: rng.uniform(-gain, gain, size=(dim, dim)) for name in ("w_ev", "w_et", "w_hv", "w_ht")}

    n_samples = n_images * exprs_per_image
    plan = [PLAN[i % len(PLAN)] for i in range(n_samples)]
    plan = [plan[int(i)] for i in rng.permutation(n_samples)]

    anchor_records, text_records = [], []
    predictions, gt = {}, {}
    paths = {"given": 0, "transcript": 0, "rule": 0}
    for img in range(n_images):
        image_id = f"img{img:05d}"
        feats = rng.standard_normal((anchors_per_image, dim)).round(6)
        conf = rng.uniform(0.0, 1.0, size=anchors_per_image).round(6)
        boxes = _boxes(rng, anchors_per_image)
        anchor_records.append({"image_id": image_id, "anchors": [
            {"feature": f, "confidence": c, "box": b}
            for f, c, b in zip(feats.tolist(), conf.tolist(), boxes.tolist())
        ]})

        exprs = plan[img * exprs_per_image:(img + 1) * exprs_per_image]
        text_feats = rng.standard_normal((sum(k for _, k, _ in exprs), dim)).round(6)
        chosen = reference.select(feats, conf, text_feats, w, ALPHA, KAPPA, top_frac) if len(text_feats) else []
        row = 0
        for j, (path, k, kind) in enumerate(exprs):
            sample_id = f"s{img:05d}_{j:02d}"
            phrases = [_phrase(rng) for _ in range(k)]
            tf = text_feats[row:row + k].tolist()
            picked = [boxes[int(i)].tolist() for i in chosen[row:row + k]]
            row += k
            rec = {"sample_id": sample_id, "image_id": image_id}
            if path == "given":
                rec.update(phrases=phrases, features=tf)
            elif path == "transcript":
                rec.update(expression=" and ".join(phrases) or _phrase(rng),
                           decouple_response=_transcript(rng, phrases))
                if k:
                    rec["features"] = tf
            else:
                rec.update(expression=" and ".join(phrases), features=tf)
            text_records.append(rec)
            paths[path] += 1
            predictions[sample_id] = picked
            gt[sample_id] = _ground_truth(kind, picked)

    case = PipelineCase(
        anchors=out_dir / "anchors.jsonl", texts=out_dir / "texts.jsonl", gt=out_dir / "gt.jsonl",
        weights=out_dir / "weights.json", top_frac=top_frac, n_samples=n_samples,
        predictions=predictions, expected={**reference.grec_summary(predictions, gt, IOU), "n_failures": 0},
        paths=paths,
    )
    _write_jsonl(case.anchors, anchor_records)
    _write_jsonl(case.texts, text_records)
    _write_jsonl(case.gt, [{"sample_id": sid, "boxes": boxes} for sid, boxes in gt.items()])
    bundle = similarity.ProjectionBundle(**w, alpha=ALPHA, tau=TAU, kappa=KAPPA)
    similarity.save_bundle(bundle, case.weights)
    case.input_bytes = {p.name: p.stat().st_size for p in (case.anchors, case.texts, case.gt, case.weights)}
    return case
