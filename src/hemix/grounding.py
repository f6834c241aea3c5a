"""Anchor filtering and per-phrase selection over precomputed features."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .similarity import Embedded, ProjectionBundle, embed_rows, pair_scores


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


def _keep_count(n: int, top_fraction: float) -> int:
    """ceil(top_fraction * n), at least one; raises for an empty set or a fraction outside (0, 1]."""
    if not n:
        raise ValueError("anchor list is empty")
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError(f"top_fraction must lie in (0, 1], got {top_fraction}")
    return max(1, math.ceil(top_fraction * n))


def _kept_indices(confidence: np.ndarray, top_fraction: float) -> np.ndarray:
    """Ascending indices of the _keep_count most confident anchors.

    Ranking is by confidence descending with ties broken by original index,
    so the result is deterministic and every kept confidence is >= every
    dropped one.
    """
    keep = _keep_count(len(confidence), top_fraction)
    return np.sort(np.argsort(-confidence, kind="stable")[:keep])


def filter_anchors(anchors: list, top_fraction: float) -> list:
    """The kept AnchorRecords of ``anchors``, in their original order (see _kept_indices)."""
    confidence = np.array([a.confidence for a in anchors], dtype=np.float64)
    return [anchors[i] for i in _kept_indices(confidence, top_fraction)]


def _as_rows(rows: list, n: int, width: int | None) -> np.ndarray | None:
    """``rows`` as one [n, width] float64 array (any common width for None), else None."""
    try:
        arr = np.array(rows, dtype=np.float64)
    except ValueError:
        if len({np.shape(r) for r in rows}) < 2:
            raise  # an entry that is not a number
        return None
    if n == 0:
        return arr.reshape(0, width or 0)
    return arr if arr.ndim == 2 and len(arr) == n and width in (None, arr.shape[1]) else None


class AnchorSet:
    """One image's anchors as arrays, checked as AnchorRecord checks one anchor.

    ``features`` is [n, d] float64, ``confidence`` [n] and ``boxes`` [n, 4];
    ``len()`` is n, the count before filtering. ``pool`` keeps the most
    confident anchors and projects their features once, then reuses that
    while ``top_fraction`` and the bundle (the same object) are unchanged.

    Given ``top_fraction``, the set is cut at construction: every anchor is
    checked, but only the kept rows are stored, and ``pool`` serves that
    fraction alone. An empty set or a fraction outside (0, 1] stores no rows
    and fails in ``pool``, as an uncut set does.
    """

    def __init__(self, features, confidence, boxes, top_fraction: float | None = None):
        conf = np.array(confidence)
        # A dtype check, not a cast: float64 conversion would accept "0.5".
        if conf.ndim != 1 or conf.dtype.kind not in "biuf":
            raise ValueError("confidence must be a finite number")
        conf = conf.astype(np.float64)
        if not np.isfinite(conf).all():
            raise ValueError("confidence must be finite")
        n = len(conf)
        box = _as_rows(boxes, n, 4)
        if box is None:
            bad = next((b for b in boxes if np.shape(b) != (4,)), None)
            raise ValueError(f"box must have four coordinates, got {bad}")
        inverted = ~((box[:, 0] < box[:, 2]) & (box[:, 1] < box[:, 3]))
        if inverted.any():
            bad = tuple(box[inverted.argmax()].tolist())
            raise ValueError(f"box must satisfy x1<x2 and y1<y2, got {bad}")
        feats = _as_rows(features, n, None)
        if feats is None:
            raise ValueError("anchor features must be vectors that all have the same shape")
        if top_fraction is not None:
            try:
                kept = _kept_indices(conf, top_fraction)
            except ValueError:
                kept = np.arange(0)  # nothing can be grounded; pool says why
            feats, conf, box = feats[kept], conf[kept], box[kept]
        self.features, self.confidence, self.boxes = feats, conf, box
        self.top_fraction, self._n = top_fraction, n
        self._pool = None

    @classmethod
    def from_json(cls, entries: list, top_fraction: float | None = None) -> "AnchorSet":
        """From anchor entries {"feature": [...], "confidence": c, "box": [x1, y1, x2, y2]}."""
        return cls([a["feature"] for a in entries], [a["confidence"] for a in entries],
                   [a["box"] for a in entries], top_fraction)

    def __len__(self) -> int:
        return self._n

    def pool(self, top_fraction: float, bundle: ProjectionBundle) -> tuple[np.ndarray, Embedded]:
        """The kept boxes [k, 4] and their features projected by the bundle's visual matrices."""
        memo = self._pool
        if memo is None or memo[0] != top_fraction or memo[1] is not bundle:
            if self.top_fraction is None:
                kept = _kept_indices(self.confidence, top_fraction)
            else:
                _keep_count(self._n, top_fraction)  # an empty set or a bad fraction raises
                if top_fraction != self.top_fraction:
                    raise ValueError(f"anchors were cut to top_fraction {self.top_fraction}, "
                                     f"got {top_fraction}")
                kept = slice(None)
            visual = embed_rows(self.features[kept], bundle.w_ev, bundle.w_hv, bundle.kappa,
                                "visual features")
            memo = self._pool = (top_fraction, bundle, self.boxes[kept], visual)
        return memo[2], memo[3]


def ground(
    sample_id: str,
    anchors: AnchorSet | list,
    phrases: list,
    text_features: list,
    bundle: ProjectionBundle,
    top_fraction: float = 0.10,
    distinct_anchors: bool = False,
) -> GroundingOutput:
    """Select one box per decoupled phrase.

    ``anchors`` is the image's AnchorSet, or a list of AnchorRecords that is
    turned into one. A zero-phrase sample produces no boxes. The kept anchors
    (projected once per AnchorSet, see ``AnchorSet.pool``) are scored
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
    if not isinstance(anchors, AnchorSet):
        anchors = AnchorSet([a.feature for a in anchors], [a.confidence for a in anchors],
                            [a.box for a in anchors])
    pool_boxes, visual = anchors.pool(top_fraction, bundle)
    text = embed_rows(text_features, bundle.w_et, bundle.w_ht, bundle.kappa, "text features")
    scores = pair_scores(visual, text, bundle.alpha)
    boxes = []
    free = np.ones(len(pool_boxes), dtype=bool)
    for column in scores.T:
        rows = np.flatnonzero(free) if distinct_anchors and free.any() else np.arange(len(pool_boxes))
        idx = int(rows[np.argmax(column[rows])])
        free[idx] = False
        boxes.append(tuple(pool_boxes[idx].tolist()))
    return GroundingOutput(sample_id=sample_id, boxes=tuple(boxes))
