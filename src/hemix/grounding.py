"""Anchor filtering and per-phrase selection over precomputed features."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .similarity import ProjectionBundle, score_matrix


@dataclass(frozen=True)
class AnchorRecord:
    feature: np.ndarray
    confidence: float
    box: tuple

    def __post_init__(self):
        object.__setattr__(self, "feature", np.asarray(self.feature, dtype=np.float64))
        object.__setattr__(self, "box", tuple(float(c) for c in self.box))
        if len(self.box) != 4:
            raise ValueError(f"box must have four coordinates, got {self.box}")
        x1, y1, x2, y2 = self.box
        if not (x1 < x2 and y1 < y2):
            raise ValueError(f"box must satisfy x1<x2 and y1<y2, got {self.box}")
        if not math.isfinite(self.confidence):
            raise ValueError("confidence must be finite")


@dataclass(frozen=True)
class GroundingOutput:
    sample_id: str
    boxes: tuple


def filter_anchors(anchors: list, top_fraction: float) -> list:
    """Keep the ceil(top_fraction * n) most confident anchors, at least one.

    Sorting is by confidence descending with ties broken by original index,
    so the result is deterministic and every kept confidence is >= every
    dropped one.
    """
    if not anchors:
        raise ValueError("anchor list is empty")
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError(f"top_fraction must lie in (0, 1], got {top_fraction}")
    keep = max(1, math.ceil(top_fraction * len(anchors)))
    ranked = sorted(range(len(anchors)), key=lambda i: (-anchors[i].confidence, i))
    kept = sorted(ranked[:keep])
    return [anchors[i] for i in kept]


def select_anchor(
    text_feature: np.ndarray,
    anchors: list,
    bundle: ProjectionBundle,
) -> int:
    """Index of the anchor with the highest mixed similarity to the text (lowest on ties)."""
    if not anchors:
        raise ValueError("anchor list is empty")
    scores = score_matrix(np.stack([a.feature for a in anchors]), [text_feature], bundle)[:, 0]
    return int(np.argmax(scores))


def ground(
    sample_id: str,
    anchors: list,
    phrases: list,
    text_features: list,
    bundle: ProjectionBundle,
    top_fraction: float = 0.10,
    distinct_anchors: bool = False,
) -> GroundingOutput:
    """Select one box per decoupled phrase.

    A zero-phrase sample produces no boxes. The kept anchors are scored
    against all phrases at once; each phrase takes its argmax (lowest index
    on ties), so one anchor may serve several phrases unless
    ``distinct_anchors`` greedily excludes used anchors until all are used.
    """
    if len(phrases) != len(text_features):
        raise ValueError(
            f"expected {len(phrases)} text features to match the phrases, got {len(text_features)}"
        )
    if not phrases:
        return GroundingOutput(sample_id=sample_id, boxes=())
    pool = filter_anchors(anchors, top_fraction)
    scores = score_matrix(np.stack([a.feature for a in pool]), text_features, bundle)
    boxes = []
    free = np.ones(len(pool), dtype=bool)
    for column in scores.T:
        rows = np.flatnonzero(free) if distinct_anchors and free.any() else np.arange(len(pool))
        idx = int(rows[np.argmax(column[rows])])
        free[idx] = False
        boxes.append(pool[idx].box)
    return GroundingOutput(sample_id=sample_id, boxes=tuple(boxes))
