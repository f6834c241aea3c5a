"""Regenerate the 8-sample end-to-end fixture and its golden outputs.

Builds seeded anchors/texts/weights, derives ground truth from the actual
offline-pipeline predictions (perfect samples match exactly, imperfect ones
are shifted or truncated on purpose), then runs the real CLI to freeze the
golden predictions and report. Run from the repository root:

    python scripts/gen_fixture.py

``main(out_dir)`` writes the same six files into another directory, which
is how the test suite checks that the committed fixture is reproducible.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from hemix import cli, grounding, jsonl, similarity
from hemix.decouple import parse_response, rule_based_decompose

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"
DIM = 4
SEED = 7
TOP_FRAC = 0.10

GLASSES_RESPONSE = (
    "3\n1.first glass is on the left\n2.second glass is in the middle"
    "\n3. third glass is on the right side"
)
NO_TARGET_EXPR = "the right boy in black shirt is playing skateboard"


def make_anchors(rng: np.random.Generator, n: int) -> list:
    anchors = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 300, size=2)
        w, h = rng.uniform(30, 100, size=2)
        anchors.append(
            {
                "feature": rng.standard_normal(DIM).round(6).tolist(),
                "confidence": round(float(rng.uniform(0, 1)), 6),
                "box": [round(float(x1), 2), round(float(y1), 2), round(float(x1 + w), 2), round(float(y1 + h), 2)],
            }
        )
    return anchors


def shifted(box: list, frac: float) -> list:
    x1, y1, x2, y2 = box
    dx = (x2 - x1) * frac
    return [round(x1 + dx, 2), round(y1, 2), round(x2 + dx, 2), round(y2, 2)]


def main(out_dir: Path = DATA) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(SEED)

    bundle = similarity.ProjectionBundle.initialize(DIM, alpha=0.5, tau=0.07, kappa=1.0, seed=SEED)
    similarity.save_bundle(bundle, out_dir / "weights.json")

    samples = [
        {"sample_id": "s1", "image_id": "img1", "expression": "left person", "n_anchors": 20, "k": 1},
        {"sample_id": "s2", "image_id": "img2", "expression": "a guy in green and a rightmost guy", "n_anchors": 20, "k": 2},
        {"sample_id": "s3", "image_id": "img3", "expression": NO_TARGET_EXPR, "n_anchors": 20, "k": 0,
         "decouple_response": "0"},
        {"sample_id": "s4", "image_id": "img4", "expression": "three glasses", "n_anchors": 30, "k": 3,
         "decouple_response": GLASSES_RESPONSE},
        {"sample_id": "s5", "image_id": "img5", "expression": "three glasses", "n_anchors": 30, "k": 3},
        {"sample_id": "s6", "image_id": "img6", "expression": "woman in red dress", "n_anchors": 20, "k": 1},
        {"sample_id": "s7", "image_id": "img7", "expression": "left dog and right dog", "n_anchors": 20, "k": 2},
        {"sample_id": "s8", "image_id": "img8", "expression": "cat", "n_anchors": 20, "k": 1},
    ]

    anchor_records = []
    text_records = []
    anchor_map = {}
    predicted = {}
    distinct_needed = {"s2", "s4"}
    for s in samples:
        anchors = make_anchors(rng, s["n_anchors"])
        anchor_records.append({"image_id": s["image_id"], "anchors": anchors})
        anchor_map[s["image_id"]] = grounding.AnchorSet.from_json(anchors, TOP_FRAC)
        rec = {"sample_id": s["sample_id"], "image_id": s["image_id"], "expression": s["expression"]}
        if "decouple_response" in s:
            rec["decouple_response"] = s["decouple_response"]
            result = parse_response(rec["decouple_response"])
        else:
            result = rule_based_decompose(rec["expression"])
        assert result.count == s["k"], (s["sample_id"], result.count, s["k"])

        if s["k"] == 0:
            predicted[s["sample_id"]] = []
        else:
            # Deterministic feature redraws until samples that must score
            # perfectly select pairwise-distinct anchors.
            for _ in range(200):
                rec["features"] = [rng.standard_normal(DIM).round(6).tolist() for _ in range(s["k"])]
                boxes = grounding.ground(
                    sample_id=s["sample_id"],
                    anchors=anchor_map[s["image_id"]],
                    phrases=list(result.phrases),
                    text_features=rec["features"],
                    bundle=bundle,
                    top_fraction=TOP_FRAC,
                )
                boxes = [list(b) for b in boxes]
                if s["sample_id"] not in distinct_needed or len(set(map(tuple, boxes))) == len(boxes):
                    break
            else:
                raise RuntimeError(f"could not find distinct selections for {s['sample_id']}")
            predicted[s["sample_id"]] = boxes
        text_records.append(rec)

    jsonl.write_jsonl(out_dir / "anchors.jsonl", anchor_records)
    jsonl.write_jsonl(out_dir / "texts.jsonl", text_records)

    gt_records = [
        {"sample_id": "s1", "boxes": predicted["s1"]},                       # perfect single
        {"sample_id": "s2", "boxes": predicted["s2"]},                       # perfect pair
        {"sample_id": "s3", "boxes": []},                                    # no-target, hit
        {"sample_id": "s4", "boxes": predicted["s4"]},                       # perfect triple
        {"sample_id": "s5", "boxes": predicted["s5"][:2] + [[0.0, 0.0, 10.0, 10.0]]},
        {"sample_id": "s6", "boxes": []},                                    # no-target, missed
        {"sample_id": "s7", "boxes": predicted["s7"][:1]},                   # one spurious pred
        {"sample_id": "s8", "boxes": shifted(predicted["s8"][0], 0.45)},     # IoU below 0.5
    ]
    gt_records[7]["boxes"] = [gt_records[7]["boxes"]]
    jsonl.write_jsonl(out_dir / "gt.jsonl", gt_records)

    # Freeze the golden outputs through the real CLI.
    code = cli.main(
        [
            "pipeline",
            "--anchors", str(out_dir / "anchors.jsonl"),
            "--texts", str(out_dir / "texts.jsonl"),
            "--weights", str(out_dir / "weights.json"),
            "--gt", str(out_dir / "gt.jsonl"),
            "--offline",
            "--out", str(out_dir / "golden_predictions.jsonl"),
            "--report", str(out_dir / "golden_report.json"),
        ]
    )
    assert code == 0, f"pipeline exited {code}"
    report = json.loads((out_dir / "golden_report.json").read_text())
    print(json.dumps({k: v for k, v in report.items() if k != "per_sample"}, indent=2, sort_keys=True))
    assert report["n_failures"] == 0
    assert report["precision_at_f1"] == 0.5, report["precision_at_f1"]
    assert report["n_acc"] == 0.5, report["n_acc"]
    print("fixture regenerated under", out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
