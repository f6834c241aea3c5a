"""Independent reference for the pipeline outputs the benchmark checks.

Nothing here calls into ``hemix``: the scorer, the confidence filter and the
GREC matcher are written from the documented rules, batched in NumPy, so a
speed-up in the program cannot quietly change a prediction or a report field.
"""

from __future__ import annotations

import math

import numpy as np


def keep_indices(confidence: np.ndarray, top_frac: float) -> np.ndarray:
    """Indices kept by the confidence filter, in original order.

    Keeps ceil(top_frac * n) anchors (at least one), confidence descending,
    ties broken by original index.
    """
    n = confidence.shape[0]
    keep = max(1, math.ceil(top_frac * n))
    order = np.lexsort((np.arange(n), -confidence))
    return np.sort(order[:keep])


def score_matrix(anchors: np.ndarray, texts: np.ndarray, w: dict, alpha: float, kappa: float) -> np.ndarray:
    """[N, M] mixed scores (1-a)(A W_EV)(T W_ET)^T + a(Z_v Z_t^T - x0_v x0_t^T)."""
    euclid = (anchors @ w["w_ev"]) @ (texts @ w["w_et"]).T
    zv = anchors @ w["w_hv"]
    zt = texts @ w["w_ht"]
    x0v = np.sqrt(np.einsum("ij,ij->i", zv, zv) + 1.0 / kappa)
    x0t = np.sqrt(np.einsum("ij,ij->i", zt, zt) + 1.0 / kappa)
    hyper = zv @ zt.T - np.outer(x0v, x0t)
    return (1.0 - alpha) * euclid + alpha * hyper


def select(anchors: np.ndarray, confidence: np.ndarray, texts: np.ndarray, w: dict,
           alpha: float, kappa: float, top_frac: float) -> np.ndarray:
    """Anchor index chosen for each text row: argmax over the kept anchors."""
    kept = keep_indices(confidence, top_frac)
    scores = score_matrix(anchors[kept], texts, w, alpha, kappa)
    return kept[np.argmax(scores, axis=0)]


def _iou_matrix(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    iw = np.clip(np.minimum(pred[:, None, 2], gt[None, :, 2]) - np.maximum(pred[:, None, 0], gt[None, :, 0]), 0, None)
    ih = np.clip(np.minimum(pred[:, None, 3], gt[None, :, 3]) - np.maximum(pred[:, None, 1], gt[None, :, 1]), 0, None)
    inter = iw * ih

    def area(b):
        return np.clip(b[:, 2] - b[:, 0], 0, None) * np.clip(b[:, 3] - b[:, 1], 0, None)

    union = area(pred)[:, None] + area(gt)[None, :] - inter
    return np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)


def is_perfect(pred: list, gt: list, iou_thresh: float) -> bool:
    """F1 == 1 under the GREC matching rule (inclusive threshold).

    Each prediction goes to its best ground-truth box at or above the
    threshold (lowest index on ties); each ground-truth box yields at most one
    true positive. The sample is perfect when there is no false positive and
    no false negative. A no-target sample is perfect iff nothing is predicted.
    """
    if not gt:
        return not pred
    if not pred:
        return False
    m = _iou_matrix(np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64))
    admissible = m >= iou_thresh
    best = np.argmax(np.where(admissible, m, -1.0), axis=1)
    matched = {int(g) for g, ok in zip(best, admissible.any(axis=1)) if ok}
    return len(matched) == len(pred) == len(gt)


def grec_summary(predictions: dict, gt: dict, iou_thresh: float) -> dict:
    """precision_at_f1 and n_acc over the samples that have a prediction."""
    ids = [sid for sid in gt if sid in predictions]
    hits = sum(1 for sid in ids if is_perfect(predictions[sid], gt[sid], iou_thresh))
    no_target = [sid for sid in ids if not gt[sid]]
    return {
        "precision_at_f1": hits / len(ids) if ids else None,
        "n_acc": (sum(1 for sid in no_target if not predictions[sid]) / len(no_target)) if no_target else None,
    }
