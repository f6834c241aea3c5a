"""Anchor filtering and per-phrase selection over precomputed features."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .records import _boxes, _is_number, anchor_entries
from .similarity import Embedded, ProjectionBundle, embed_rows, pair_scores


@dataclass(frozen=True)
class AnchorRecord:
    feature: np.ndarray
    confidence: float
    box: tuple

    def __post_init__(self):
        object.__setattr__(self, "feature", np.asarray(self.feature, dtype=np.float64))
        object.__setattr__(self, "box", tuple(_boxes([list(self.box)])[0].tolist()))
        if not _is_number(self.confidence):
            raise ValueError("confidence must be a finite number")


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


class AnchorSet:
    """One image's anchors, cut to one fraction when built.

    ``from_json`` builds it from an image's anchor entries, each checked by
    records.anchor_entries whether the cut keeps it or not. An empty list or
    a fraction outside (0, 1] fails too. Only the kept anchors (see
    _kept_indices) are stored, in their original order: ``features`` [k, d]
    and ``boxes`` [k, 4], both float64. ``len()`` is n, the count before the
    cut. ``pool`` serves ``top_fraction`` alone and projects the kept
    features once per bundle.
    """

    def __init__(self, features: np.ndarray, confidence: np.ndarray, boxes: np.ndarray, top_fraction: float):
        """From float64 arrays: ``features`` [n, d], ``confidence`` [n] and ``boxes`` [n, 4]."""
        kept = _kept_indices(confidence, top_fraction)
        self.features, self.boxes = features[kept], boxes[kept]
        self.top_fraction, self._n = top_fraction, len(confidence)
        self._pool = None

    @classmethod
    def from_json(cls, entries: list, top_fraction: float) -> "AnchorSet":
        """From anchor entries {"feature": [...], "confidence": c, "box": [x1, y1, x2, y2]}."""
        return cls(*anchor_entries(entries), top_fraction)

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
    text_features: np.ndarray,
    bundle: ProjectionBundle,
    top_fraction: float = 0.10,
    distinct_anchors: bool = False,
) -> tuple:
    """One (x1, y1, x2, y2) box per decoupled phrase, from the image's AnchorSet.

    ``text_features`` holds one [dim] row per phrase. A zero-phrase sample
    produces no boxes and reads no anchors (``None`` will do). The kept
    anchors (projected once per bundle, see ``AnchorSet.pool``) are scored
    against the phrases' rows, projected by the bundle's text matrices after
    the anchors' checks; each phrase takes its argmax (lowest index on ties),
    so one anchor may serve several phrases unless ``distinct_anchors``
    greedily excludes used anchors until all are used. ``sample_id`` is not
    read here: the benchmark's tracer labels each ``ground`` span with it.
    """
    if len(phrases) != len(text_features):
        raise ValueError(f"expected {len(phrases)} text features to match the phrases, got {len(text_features)}")
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
