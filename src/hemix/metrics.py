"""Set-based grounding metrics: IoU, per-sample F1 matching, and aggregates.

The matching procedure, spelled out because every step matters for exact
agreement with an independent oracle:

  1. Each prediction is assigned to the ground-truth box it overlaps best,
     among those with IoU >= threshold (ties: lowest GT index). Predictions
     with no such box are false positives.
  2. Per ground-truth box, only the best-IoU assigned prediction counts as a
     true positive (ties: lowest prediction index); the rest are false
     positives.
  3. Ground-truth boxes with no true positive are false negatives.
  4. F1 = 2 TP / (2 TP + FP + FN). A no-target sample (no GT boxes) scores
     F1 = 1 when the prediction set is empty, else 0.

Boundary rule: IoU exactly at the threshold counts as matched (the inclusive
reading). Degenerate boxes have zero area and zero IoU against anything, so
they can only ever be false positives.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EvalSample:
    """One sample's (x1, y1, x2, y2) boxes, as records.boxes_record reads them."""

    sample_id: str
    gt_boxes: tuple
    pred_boxes: tuple


@dataclass(frozen=True)
class MatchReport:
    tp: int
    fp: int
    fn: int
    f1: float


def iou(a, b) -> float:
    """area(a & b) / area(a | b); zero when the union has no area."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    ih = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = iw * ih
    area_a = max(0.0, ax2 - ax1) * max(0.0, ay2 - ay1)
    area_b = max(0.0, bx2 - bx1) * max(0.0, by2 - by1)
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _check_threshold(iou_thresh: float) -> None:
    """Raise unless the IoU threshold lies in (0, 1] (NaN included)."""
    if not 0.0 < iou_thresh <= 1.0:
        raise ValueError(f"iou_thresh must lie in (0, 1], got {iou_thresh}")


def match_sample(s: EvalSample, iou_thresh: float = 0.5) -> MatchReport:
    """Run the matching procedure on one sample."""
    _check_threshold(iou_thresh)
    n_gt, n_pred = len(s.gt_boxes), len(s.pred_boxes)
    if n_gt == 0:
        return MatchReport(tp=0, fp=n_pred, fn=0, f1=1.0 if n_pred == 0 else 0.0)

    # Step 1: prediction -> best admissible GT (ties: lowest GT index, which
    # the strict ">" over ascending gi already enforces).
    matched_gts: set = set()
    for p in s.pred_boxes:
        best_gt, best_iou = -1, 0.0
        for gi, g in enumerate(s.gt_boxes):
            v = iou(p, g)
            if v >= iou_thresh and v > best_iou:
                best_gt, best_iou = gi, v
        if best_gt >= 0:
            matched_gts.add(best_gt)

    # Step 2: one TP per matched GT box (which claimant wins the per-GT
    # tie-break never changes the counts).
    tp = len(matched_gts)
    fp = n_pred - tp
    fn = n_gt - tp
    f1 = 2.0 * tp / (2.0 * tp + fp + fn)
    return MatchReport(tp=tp, fp=fp, fn=fn, f1=f1)


def is_perfect(report: MatchReport) -> bool:
    """F1 exactly 1, decided on integer counts rather than the float."""
    return report.fp == 0 and report.fn == 0


def precision_at_f1(reports: list) -> float:
    """Fraction of samples matched perfectly (F1 = 1), from their MatchReports."""
    if not reports:
        raise ValueError("sample set is empty")
    return sum(map(is_perfect, reports)) / len(reports)


def n_acc(samples: list) -> float:
    """Among no-target samples, the fraction predicted empty."""
    no_target = [s for s in samples if len(s.gt_boxes) == 0]
    if not no_target:
        raise ValueError("n_acc is undefined without no-target samples")
    return sum(1 for s in no_target if len(s.pred_boxes) == 0) / len(no_target)


def _single_box_iou(s: EvalSample) -> float:
    """The IoU of a sample's one predicted box with its one GT box; ValueError unless it has one of each."""
    if len(s.gt_boxes) != 1 or len(s.pred_boxes) != 1:
        raise ValueError(
            f"sample {s.sample_id!r} has {len(s.gt_boxes)} GT / {len(s.pred_boxes)} "
            "predicted boxes; this metric needs exactly one of each"
        )
    return iou(s.pred_boxes[0], s.gt_boxes[0])
