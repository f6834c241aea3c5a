import numpy as np
import pytest

from hemix.metrics import EvalSample, iou, match_sample, n_acc, precision_at_f1
from naive_oracle import naive_match


def sample(gt, pred, sid="s"):
    return EvalSample(sample_id=sid, gt_boxes=tuple(gt), pred_boxes=tuple(pred))


A = (0.0, 0.0, 10.0, 10.0)


class TestIou:
    def test_identical(self):
        assert iou(A, A) == 1.0

    def test_hand_value(self):
        assert iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_disjoint(self):
        assert iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0

    def test_degenerate_box(self):
        assert iou((5, 5, 5, 5), A) == 0.0
        assert iou((5, 5, 5, 5), (5, 5, 5, 5)) == 0.0

    def test_inverted_box_treated_as_zero_area(self):
        assert iou((10, 10, 0, 0), A) == 0.0


class TestMatchSample:
    def test_no_target_empty_prediction(self):
        r = match_sample(sample([], []))
        assert (r.tp, r.fp, r.fn, r.f1) == (0, 0, 0, 1.0)

    def test_no_target_with_prediction(self):
        r = match_sample(sample([], [A]))
        assert (r.tp, r.fp, r.fn, r.f1) == (0, 1, 0, 0.0)

    def test_perfect_single(self):
        r = match_sample(sample([A], [A]))
        assert (r.tp, r.fp, r.fn, r.f1) == (1, 0, 0, 1.0)

    def test_duplicate_predictions_on_one_gt(self):
        near = (0.0, 0.0, 10.0, 8.0)  # IoU 0.8 with A
        far = (50.0, 50.0, 60.0, 60.0)
        r = match_sample(sample([A], [near, far]))
        assert (r.tp, r.fp, r.fn) == (1, 1, 0)
        assert r.f1 == pytest.approx(2 / 3)

    def test_missing_prediction_is_fn(self):
        r = match_sample(sample([A, (20, 20, 30, 30)], [A]))
        assert (r.tp, r.fp, r.fn) == (1, 0, 1)

    def test_boundary_iou_counts(self):
        half = (0.0, 0.0, 10.0, 5.0)  # IoU exactly 0.5 with A
        assert iou(A, half) == 0.5
        r = match_sample(sample([A], [half]), iou_thresh=0.5)
        assert r.tp == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            match_sample(sample([A], [A]), iou_thresh=0.0)


def random_boxes(rng, n):
    boxes = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, 50, size=2)
        w, h = rng.uniform(1, 40, size=2)
        boxes.append((float(x1), float(y1), float(x1 + w), float(y1 + h)))
    return boxes


class TestOracleAgreement:
    def test_matches_naive_reimplementation(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            gt = random_boxes(rng, int(rng.integers(0, 6)))
            pred = random_boxes(rng, int(rng.integers(0, 6)))
            got = match_sample(sample(gt, pred))
            want = naive_match(gt, pred, 0.5)
            assert (got.tp, got.fp, got.fn) == want[:3]
            assert got.f1 == pytest.approx(want[3])

    def test_prediction_order_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            gt = random_boxes(rng, int(rng.integers(0, 5)))
            pred = random_boxes(rng, int(rng.integers(0, 5)))
            base = match_sample(sample(gt, pred))
            perm = [pred[i] for i in rng.permutation(len(pred))]
            shuffled = match_sample(sample(gt, perm))
            assert (base.tp, base.fp, base.fn) == (shuffled.tp, shuffled.fp, shuffled.fn)

    def test_f1_one_implies_exact_counts(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            gt = random_boxes(rng, int(rng.integers(0, 4)))
            pred = random_boxes(rng, int(rng.integers(0, 4)))
            r = match_sample(sample(gt, pred))
            assert 0.0 <= r.f1 <= 1.0
            if r.f1 == 1.0:
                assert r.fp == 0 and r.fn == 0
                assert len(pred) == len(gt)


class TestAggregates:
    def test_all_perfect(self):
        samples = [sample([A], [A], sid=f"s{i}") for i in range(3)]
        assert precision_at_f1([match_sample(s) for s in samples]) == 1.0

    def test_quarter(self):
        samples = [sample([A], [A], "good")] + [sample([A], [], f"bad{i}") for i in range(3)]
        assert precision_at_f1([match_sample(s) for s in samples]) == 0.25

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            precision_at_f1([])

    def test_n_acc_all_empty(self):
        samples = [sample([], [], f"n{i}") for i in range(3)]
        assert n_acc(samples) == 1.0

    def test_n_acc_two_thirds(self):
        samples = [sample([], []), sample([], []), sample([], [A])]
        assert n_acc(samples) == pytest.approx(2 / 3)

    def test_n_acc_always_predicting_boxes(self):
        samples = [sample([], [A]), sample([A], [A]), sample([], [A])]
        assert n_acc(samples) == 0.0

    def test_n_acc_undefined_without_no_target(self):
        with pytest.raises(ValueError):
            n_acc([sample([A], [A])])
