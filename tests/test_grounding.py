import numpy as np
import pytest

from hemix.grounding import AnchorRecord, filter_anchors, ground, select_anchor
from hemix.similarity import ProjectionBundle


def anchor(feature, confidence, box=(0.0, 0.0, 10.0, 10.0)):
    return AnchorRecord(feature=np.asarray(feature, dtype=float), confidence=confidence, box=box)


def scoring_bundle(dim=2):
    # W_E = identity and W_H = 0 make the mixed score 0.5 * <f_v, f_t> - 0.5,
    # so anchor ordering is exactly the Euclidean dot product ordering.
    eye, zero = np.eye(dim), np.zeros((dim, dim))
    return ProjectionBundle(eye, eye, zero, zero, alpha=0.5, tau=1.0, kappa=1.0)


class TestFilterAnchors:
    def test_ten_percent_of_ten_keeps_the_best(self):
        anchors = [anchor([i, 0], confidence=i / 10.0) for i in range(10)]
        kept = filter_anchors(anchors, 0.10)
        assert len(kept) == 1
        assert kept[0].confidence == 0.9

    def test_full_fraction_is_order_stable(self):
        anchors = [anchor([i, 0], confidence=(i * 37 % 10) / 10.0) for i in range(8)]
        kept = filter_anchors(anchors, 1.0)
        assert [tuple(a.feature) for a in kept] == [tuple(a.feature) for a in anchors]

    def test_small_pool_keeps_minimum_one(self):
        anchors = [anchor([i, 0], confidence=0.1 * i) for i in range(5)]
        assert len(filter_anchors(anchors, 0.10)) == 1

    def test_ceil_rule(self):
        anchors = [anchor([i, 0], confidence=0.1 * i) for i in range(11)]
        assert len(filter_anchors(anchors, 0.10)) == 2  # ceil(1.1)

    def test_kept_dominate_dropped(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            anchors = [anchor(rng.standard_normal(2), float(rng.uniform())) for _ in range(12)]
            kept = filter_anchors(anchors, 0.25)
            dropped = [a for a in anchors if all(a is not k for k in kept)]
            assert min(k.confidence for k in kept) >= max(d.confidence for d in dropped)

    def test_confidence_tie_breaks_by_index(self):
        anchors = [anchor([0, 0], 0.5, (0, 0, 1, 1)), anchor([1, 1], 0.5, (2, 2, 3, 3))]
        kept = filter_anchors(anchors, 0.5)
        assert kept[0].box == (0.0, 0.0, 1.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            filter_anchors([], 0.1)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            filter_anchors([anchor([0, 0], 0.5)], 0.0)


class TestSelectAnchor:
    def test_singleton(self):
        assert select_anchor(np.ones(2), [anchor([1, 0], 0.9)], scoring_bundle()) == 0

    def test_identical_features_tie_break(self):
        anchors = [anchor([1, 1], 0.5) for _ in range(3)]
        assert select_anchor(np.ones(2), anchors, scoring_bundle()) == 0

    def test_crafted_scores(self):
        # Dot products against the text (1, 0): 1.0, 2.0, 0.5.
        anchors = [anchor([1, 0], 0.5), anchor([2, 0], 0.5), anchor([0.5, 0], 0.5)]
        assert select_anchor(np.array([1.0, 0.0]), anchors, scoring_bundle()) == 1


class TestGround:
    def test_no_phrases_no_boxes(self):
        out = ground("s", [anchor([1, 0], 0.9)], [], [], scoring_bundle())
        assert out.boxes == ()

    def test_single_phrase_matches_selection(self):
        anchors = [
            anchor([1, 0], 0.9, (0, 0, 10, 10)),
            anchor([2, 0], 0.8, (20, 20, 30, 30)),
        ]
        out = ground("s", anchors, ["x"], [np.array([1.0, 0.0])], scoring_bundle(), top_fraction=1.0)
        assert out.boxes == ((20.0, 20.0, 30.0, 30.0),)

    def test_orthogonal_phrases_pick_distinct_anchors(self):
        anchors = [
            anchor([5, 0], 0.9, (0, 0, 10, 10)),
            anchor([0, 5], 0.8, (20, 20, 30, 30)),
        ]
        feats = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        out = ground("s", anchors, ["a", "b"], feats, scoring_bundle(), top_fraction=1.0)
        assert out.boxes == ((0.0, 0.0, 10.0, 10.0), (20.0, 20.0, 30.0, 30.0))

    def test_anchor_reuse_allowed_by_default(self):
        anchors = [anchor([5, 5], 0.9, (0, 0, 10, 10)), anchor([-5, -5], 0.8, (20, 20, 30, 30))]
        feats = [np.ones(2), np.ones(2)]
        out = ground("s", anchors, ["a", "b"], feats, scoring_bundle(), top_fraction=1.0)
        assert out.boxes[0] == out.boxes[1]

    def test_distinct_anchors_flag_forces_spread(self):
        anchors = [anchor([5, 5], 0.9, (0, 0, 10, 10)), anchor([4, 4], 0.8, (20, 20, 30, 30))]
        feats = [np.ones(2), np.ones(2)]
        out = ground("s", anchors, ["a", "b"], feats, scoring_bundle(), top_fraction=1.0,
                     distinct_anchors=True)
        assert out.boxes[0] != out.boxes[1]

    def test_distinct_anchors_reuse_only_after_all_used(self):
        # Every phrase prefers anchor 0, then 1, then 2; five phrases over
        # three kept anchors use each once before any reuse.
        boxes = [(0, 0, 1, 1), (2, 2, 3, 3), (4, 4, 5, 5)]
        anchors = [anchor([3 - i, 0], 0.9 - 0.1 * i, box) for i, box in enumerate(boxes)]
        feats = [np.array([1.0, 0.0])] * 5
        out = ground("s", anchors, list("abcde"), feats, scoring_bundle(), top_fraction=1.0,
                     distinct_anchors=True)
        want = [boxes[0], boxes[1], boxes[2], boxes[0], boxes[0]]
        assert out.boxes == tuple(tuple(float(c) for c in b) for b in want)

    def test_feature_count_mismatch(self):
        with pytest.raises(ValueError):
            ground("s", [anchor([1, 0], 0.9)], ["a", "b"], [np.ones(2)], scoring_bundle())

    def test_box_count_equals_phrase_count(self):
        rng = np.random.default_rng(2)
        bundle = ProjectionBundle.initialize(3, seed=2)
        anchors = [anchor(rng.standard_normal(3), float(rng.uniform()), (0, 0, 5, 5)) for _ in range(9)]
        for k in range(4):
            feats = [rng.standard_normal(3) for _ in range(k)]
            out = ground("s", anchors, [f"p{i}" for i in range(k)], feats, bundle)
            assert len(out.boxes) == k


class TestAnchorRecord:
    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            AnchorRecord(feature=np.zeros(2), confidence=0.5, box=(10, 0, 0, 10))

    def test_nonfinite_confidence_rejected(self):
        with pytest.raises(ValueError):
            AnchorRecord(feature=np.zeros(2), confidence=float("nan"), box=(0, 0, 1, 1))
