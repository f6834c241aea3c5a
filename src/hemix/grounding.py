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


def _check_fraction(top_fraction: float) -> None:
    if not 0.0 < top_fraction <= 1.0:
        raise ValueError(f"top_fraction must lie in (0, 1], got {top_fraction}")


def _keep_count(n: int, top_fraction: float) -> int:
    """ceil(top_fraction * n), at least one; raises for an empty set or a fraction outside (0, 1]."""
    if not n:
        raise ValueError("anchor list is empty")
    _check_fraction(top_fraction)
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
    """One image's anchors, checked and cut to one fraction when built.

    Every anchor, kept or not, must have a finite number as its confidence,
    four finite box coordinates with x1 < x2 and y1 < y2, and a feature
    vector of the same shape as every other anchor's. An empty list or a
    fraction outside (0, 1] fails too. Only the kept anchors (see
    _kept_indices) are stored, in their original order: ``features`` [k, d]
    and ``boxes`` [k, 4], both float64. ``len()`` is n, the count before the
    cut. ``pool`` serves ``top_fraction`` alone and projects the kept
    features once per bundle.
    """

    def __init__(self, features, confidence, boxes, top_fraction: float):
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
        if not np.isfinite(box).all():
            raise ValueError("box must have finite coordinates")
        inverted = ~((box[:, 0] < box[:, 2]) & (box[:, 1] < box[:, 3]))
        if inverted.any():
            bad = tuple(box[inverted.argmax()].tolist())
            raise ValueError(f"box must satisfy x1<x2 and y1<y2, got {bad}")
        feats = _as_rows(features, n, None)
        if feats is None:
            raise ValueError("anchor features must be vectors that all have the same shape")
        kept = _kept_indices(conf, top_fraction)
        self.features, self.boxes = feats[kept], box[kept]
        self.top_fraction, self._n = top_fraction, n
        self._pool = None

    @classmethod
    def from_json(cls, entries: list, top_fraction: float) -> "AnchorSet":
        """From anchor entries {"feature": [...], "confidence": c, "box": [x1, y1, x2, y2]}."""
        return cls([a["feature"] for a in entries], [a["confidence"] for a in entries],
                   [a["box"] for a in entries], top_fraction)

    def __len__(self) -> int:
        return self._n

    def pool(self, top_fraction: float, bundle: ProjectionBundle) -> Embedded:
        """The kept features projected by the bundle's visual matrices (reused per bundle object)."""
        if top_fraction != self.top_fraction:
            raise ValueError(f"anchors were cut to top_fraction {self.top_fraction}, got {top_fraction}")
        if self._pool is None or self._pool[0] is not bundle:
            self._pool = (bundle, embed_rows(self.features, bundle.w_ev, bundle.w_hv, bundle.kappa,
                                             "visual features"))
        return self._pool[1]


def ground(
    sample_id: str,
    anchors: AnchorSet | None,
    phrases: list,
    text_features: list,
    bundle: ProjectionBundle,
    top_fraction: float = 0.10,
    distinct_anchors: bool = False,
) -> tuple:
    """One (x1, y1, x2, y2) box per decoupled phrase, from the image's AnchorSet.

    A zero-phrase sample produces no boxes and reads no anchors (``None``
    will do). The kept anchors (projected once per bundle, see
    ``AnchorSet.pool``) are scored against all phrases at once; each phrase
    takes its argmax (lowest index on ties), so one anchor may serve several
    phrases unless ``distinct_anchors`` greedily excludes used anchors until
    all are used. ``sample_id`` is not read here: the benchmark's tracer
    labels each ``ground`` span with it.
    """
    if len(phrases) != len(text_features):
        raise ValueError(
            f"expected {len(phrases)} text features to match the phrases, got {len(text_features)}"
        )
    if not phrases:
        return ()
    visual = anchors.pool(top_fraction, bundle)
    text = embed_rows(text_features, bundle.w_et, bundle.w_ht, bundle.kappa, "text features")
    scores = pair_scores(visual, text, bundle.alpha)
    boxes = []
    free = np.ones(len(anchors.boxes), dtype=bool)
    for column in scores.T:
        rows = np.flatnonzero(free) if distinct_anchors and free.any() else np.arange(len(free))
        idx = int(rows[np.argmax(column[rows])])
        free[idx] = False
        boxes.append(tuple(anchors.boxes[idx].tolist()))
    return tuple(boxes)
