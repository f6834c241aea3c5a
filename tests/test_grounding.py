import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hemix import cli, grounding
from hemix.grounding import AnchorRecord, AnchorSet, filter_anchors, ground
from hemix.similarity import ProjectionBundle, embed_rows


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


def anchor_set(anchors, top_fraction=1.0):
    """The AnchorSet of the AnchorRecords ``anchors``, cut to ``top_fraction``."""
    return AnchorSet.from_json(
        [{"feature": list(a.feature), "confidence": a.confidence, "box": list(a.box)} for a in anchors],
        top_fraction,
    )


def pick(text, anchors):
    """Index of the anchor whose box ``ground`` returns for one phrase, all anchors kept."""
    out = ground("s", anchor_set(anchors), ["x"], [text], scoring_bundle(), top_fraction=1.0)
    return [a.box for a in anchors].index(out[0])


def box(i):
    return (float(i), 0.0, i + 1.0, 1.0)


class TestGround:
    def test_singleton(self):
        assert pick(np.ones(2), [anchor([1, 0], 0.9)]) == 0

    def test_identical_features_tie_break(self):
        assert pick(np.ones(2), [anchor([1, 1], 0.5, box(i)) for i in range(3)]) == 0

    def test_crafted_scores(self):
        # Dot products against the text (1, 0): 1.0, 2.0, 0.5.
        anchors = [anchor([1, 0], 0.5, box(0)), anchor([2, 0], 0.5, box(1)), anchor([0.5, 0], 0.5, box(2))]
        assert pick(np.array([1.0, 0.0]), anchors) == 1

    def test_no_phrases_no_boxes(self):
        out = ground("s", anchor_set([anchor([1, 0], 0.9)], 0.10), [], [], scoring_bundle())
        assert out == ()
        assert ground("s", None, [], [], scoring_bundle()) == ()

    def test_single_phrase_matches_selection(self):
        anchors = [
            anchor([1, 0], 0.9, (0, 0, 10, 10)),
            anchor([2, 0], 0.8, (20, 20, 30, 30)),
        ]
        out = ground("s", anchor_set(anchors), ["x"], [np.array([1.0, 0.0])], scoring_bundle(),
                   top_fraction=1.0)
        assert out == ((20.0, 20.0, 30.0, 30.0),)

    def test_orthogonal_phrases_pick_distinct_anchors(self):
        anchors = [
            anchor([5, 0], 0.9, (0, 0, 10, 10)),
            anchor([0, 5], 0.8, (20, 20, 30, 30)),
        ]
        feats = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        out = ground("s", anchor_set(anchors), ["a", "b"], feats, scoring_bundle(), top_fraction=1.0)
        assert out == ((0.0, 0.0, 10.0, 10.0), (20.0, 20.0, 30.0, 30.0))

    def test_anchor_reuse_allowed_by_default(self):
        anchors = [anchor([5, 5], 0.9, (0, 0, 10, 10)), anchor([-5, -5], 0.8, (20, 20, 30, 30))]
        feats = [np.ones(2), np.ones(2)]
        out = ground("s", anchor_set(anchors), ["a", "b"], feats, scoring_bundle(), top_fraction=1.0)
        assert out[0] == out[1]

    def test_distinct_anchors_flag_forces_spread(self):
        anchors = [anchor([5, 5], 0.9, (0, 0, 10, 10)), anchor([4, 4], 0.8, (20, 20, 30, 30))]
        feats = [np.ones(2), np.ones(2)]
        out = ground("s", anchor_set(anchors), ["a", "b"], feats, scoring_bundle(), top_fraction=1.0,
                   distinct_anchors=True)
        assert out[0] != out[1]

    def test_distinct_anchors_reuse_only_after_all_used(self):
        # Every phrase prefers anchor 0, then 1, then 2; five phrases over
        # three kept anchors use each once before any reuse.
        boxes = [(0, 0, 1, 1), (2, 2, 3, 3), (4, 4, 5, 5)]
        anchors = [anchor([3 - i, 0], 0.9 - 0.1 * i, box) for i, box in enumerate(boxes)]
        feats = [np.array([1.0, 0.0])] * 5
        out = ground("s", anchor_set(anchors), list("abcde"), feats, scoring_bundle(), top_fraction=1.0,
                   distinct_anchors=True)
        want = [boxes[0], boxes[1], boxes[2], boxes[0], boxes[0]]
        assert out == tuple(tuple(float(c) for c in b) for b in want)

    def test_feature_count_mismatch(self):
        with pytest.raises(ValueError):
            ground("s", anchor_set([anchor([1, 0], 0.9)], 0.10), ["a", "b"], [np.ones(2)], scoring_bundle())

    def test_box_count_equals_phrase_count(self):
        rng = np.random.default_rng(2)
        bundle = ProjectionBundle.initialize(3, seed=2)
        anchors = anchor_set(
            [anchor(rng.standard_normal(3), float(rng.uniform()), (0, 0, 5, 5)) for _ in range(9)], 0.10)
        for k in range(4):
            feats = [rng.standard_normal(3) for _ in range(k)]
            out = ground("s", anchors, [f"p{i}" for i in range(k)], feats, bundle)
            assert len(out) == k


class TestAnchorRecord:
    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            AnchorRecord(feature=np.zeros(2), confidence=0.5, box=(10, 0, 0, 10))

    def test_nonfinite_confidence_rejected(self):
        with pytest.raises(ValueError):
            AnchorRecord(feature=np.zeros(2), confidence=float("nan"), box=(0, 0, 1, 1))

    @pytest.mark.parametrize("box, match", [
        (("0", "0", "1", "1"), "^box must have finite coordinates$"),
        ((0, 0, 1, float("inf")), "^box must have finite coordinates$"),
        ((0, 0, 1, True), "^box must have finite coordinates$"),
        ((0, 0, 1), r"^box must have four coordinates, got \[0, 0, 1\]$"),
        (np.array([0, 0, 1]), r"^box must have four coordinates, got \[0.0, 0.0, 1.0\]$"),
    ])
    def test_the_box_follows_the_box_rule(self, box, match):
        with pytest.raises(ValueError, match=match):
            AnchorRecord(feature=np.zeros(2), confidence=0.5, box=box)

    @pytest.mark.parametrize("confidence", [True, "0.5", float("inf")])
    def test_the_confidence_follows_the_number_rule(self, confidence):
        with pytest.raises(ValueError, match="^confidence must be a finite number$"):
            AnchorRecord(feature=np.zeros(2), confidence=confidence, box=(0, 0, 1, 1))

    @pytest.mark.parametrize("confidence", [np.float64(0.5), np.float32(0.5), np.int8(-128), np.uint64(2)])
    def test_numpy_real_scalars_are_numbers(self, confidence):
        a = AnchorRecord(feature=np.zeros(2), confidence=confidence, box=np.array([0, 0, 1, 2]))
        assert a.confidence == confidence and a.box == (0.0, 0.0, 1.0, 2.0)
        assert all(type(c) is float for c in a.box)

    @pytest.mark.parametrize("confidence", [np.float32("inf"), np.float64("nan"), np.longdouble("1e400"), np.True_])
    def test_numpy_scalars_that_are_not_numbers(self, confidence):
        with pytest.raises(ValueError, match="^confidence must be a finite number$"):
            AnchorRecord(feature=np.zeros(2), confidence=confidence, box=(0, 0, 1, 1))


class TestAnchorSet:
    @pytest.mark.parametrize("field, value", [
        ("box", [0.0, 0.0, 1.0]),
        ("box", [10.0, 0.0, 0.0, 10.0]),
        ("confidence", float("nan")),
        ("confidence", "0.5"),
    ])
    def test_rejects_what_anchor_record_rejects(self, field, value):
        entry = {"feature": [0.0, 1.0], "confidence": 0.5, "box": [0.0, 0.0, 1.0, 1.0], field: value}
        with pytest.raises((ValueError, TypeError)):
            AnchorRecord(feature=entry["feature"], confidence=entry["confidence"], box=entry["box"])
        good = {"feature": [1.0, 0.0], "confidence": 0.9, "box": [0.0, 0.0, 2.0, 2.0]}
        with pytest.raises(ValueError):
            AnchorSet.from_json([good, entry], 1.0)

    def test_features_of_different_lengths_rejected_even_if_dropped(self):
        entries = [{"feature": [1.0, 0.0], "confidence": 0.9, "box": [0, 0, 1, 1]},
                   {"feature": [1.0], "confidence": 0.1, "box": [0, 0, 1, 1]}]
        for top in (0.5, 1.0):
            with pytest.raises(ValueError, match="same shape"):
                AnchorSet.from_json(entries, top)

    def test_arrays_and_length(self):
        s = AnchorSet.from_json([{"feature": [1, 2], "confidence": 1, "box": [0, 0, 3, 4]}] * 3, 1.0)
        assert len(s) == 3
        assert s.features.shape == (3, 2) and s.boxes.shape == (3, 4)
        assert s.features.dtype == s.boxes.dtype == np.float64

    def test_pool_keeps_what_filter_anchors_keeps(self):
        rng = np.random.default_rng(5)
        for n, top in ((1, 0.1), (12, 0.25), (40, 0.1), (40, 1.0)):
            anchors = [anchor(rng.standard_normal(2), int(rng.integers(0, 4)) / 4, (i, 0, i + 1, 1))
                       for i in range(n)]
            kept = filter_anchors(anchors, top)
            cut = anchor_set(anchors, top)
            assert [tuple(b) for b in cut.boxes.tolist()] == [a.box for a in kept]
            assert cut.features.tobytes() == np.array([a.feature for a in kept]).tobytes()

    def test_visual_projection_once_per_image(self, monkeypatch):
        calls = []

        def counting(f, w_e, w_h, kappa, what):
            calls.append(what)
            return embed_rows(f, w_e, w_h, kappa, what)

        monkeypatch.setattr(grounding, "embed_rows", counting)
        rng = np.random.default_rng(3)
        bundle = ProjectionBundle.initialize(3, seed=3)
        anchors = [anchor(rng.standard_normal(3), float(rng.uniform()), (i, i, i + 5, i + 5))
                   for i in range(30)]
        shared = anchor_set(anchors, 0.2)
        feats = [[rng.standard_normal(3) for _ in range(k)] for k in (2, 3)]
        for f in feats:
            phrases = [f"p{i}" for i in range(len(f))]
            out = ground("s", shared, phrases, f, bundle, top_fraction=0.2)
            fresh = anchor_set(anchors, 0.2)
            assert out == ground("s", fresh, phrases, f, bundle, top_fraction=0.2)
        # The shared set projected once for both samples; each fresh set once more.
        assert calls.count("visual features") == 1 + 2
        calls.clear()
        ground("s", shared, ["p"], feats[0][:1], bundle, top_fraction=0.2)
        assert calls.count("visual features") == 0
        ground("s", shared, ["p"], feats[0][:1], ProjectionBundle.initialize(3, seed=3), top_fraction=0.2)
        assert calls.count("visual features") == 1


def test_ground_records_check_each_record_and_ground_projects_its_rows(monkeypatch):
    # Each texts record is checked, in order, and one that passes drops its
    # features list before its phrases are taken: its rows are an array now.
    # Text rows are projected by ground alone, one sample's rows at a time,
    # after the anchors' checks. An image's pool is projected once, and the
    # image leaves the map right after the last record that names it, failed
    # or not (ids that compare equal, like 1 and 1.0, name one image).
    projected, taken = [], []

    def counting(f, w_e, w_h, kappa, what):
        projected.append(what)
        return embed_rows(f, w_e, w_h, kappa, what)

    def phrases_of(rec):
        taken.append((rec["sample_id"], "features" in rec, projected.count("text features"), list(anchor_map)))
        return rec["phrases"]

    monkeypatch.setattr(grounding, "embed_rows", counting)
    rng = np.random.default_rng(4)
    bundle = ProjectionBundle.initialize(3, seed=4)
    two, one = (rng.standard_normal((k, 3)).round(6).tolist() for k in (2, 1))
    box = {name: (x, 0.0, x + 1.0, 1.0) for x, name in enumerate(("A", "B", 1))}
    anchor_map = {"i": anchor_set([anchor([1, 0, 0], 0.9)]), "half": anchor_set([anchor([1, 0, 0], 0.9)], 0.5),
                  "bad": "anchors of image 'bad': anchors must be a list of objects",
                  **{name: anchor_set([anchor([0, 1, 0], 0.9, b)]) for name, b in box.items()}}
    texts = [{"sample_id": "a", "image_id": "i", "phrases": ["p", "q"], "features": two},
             {"sample_id": "b", "image_id": "i", "phrases": []},
             {"sample_id": "a", "image_id": "i", "phrases": ["p"], "features": one},
             {"sample_id": "c", "image_id": "i", "phrases": ["p"], "features": [[1.0, 2.0]]},
             {"sample_id": "d", "image_id": "i", "phrases": ["p", "q"], "features": [[1e160] * 3] + one},
             {"sample_id": "e", "image_id": "bad", "phrases": ["p"], "features": [[1.0, 2.0]]},
             {"sample_id": "f", "image_id": "half", "phrases": ["p"], "features": [[1.0, 2.0]]},
             {"sample_id": "g", "image_id": "A", "phrases": ["p"], "features": one},
             {"sample_id": "h", "image_id": "B", "phrases": ["p"], "features": one},
             {"sample_id": "k", "image_id": "A", "phrases": ["p"], "features": one},
             {"sample_id": "m", "image_id": 1, "phrases": ["p"], "features": one},
             {"sample_id": "n", "image_id": 1.0, "phrases": ["p"], "features": one},
             {"sample_id": "h", "image_id": "B", "phrases": ["p"], "features": one},
             {"sample_id": "o", "image_id": [1], "phrases": ["p"], "features": one}]
    args = SimpleNamespace(top_frac=1.0, distinct_anchors=False)
    predictions, failures = cli._ground_records(texts, phrases_of, anchor_map, bundle, args)
    assert predictions == [{"sample_id": "a", "boxes": ((0.0, 0.0, 10.0, 10.0),) * 2}, {"sample_id": "b", "boxes": ()},
                           *({"sample_id": s, "boxes": (box[name],)}
                             for s, name in zip("ghkmn", ("A", "B", "A", 1, 1)))]
    assert failures == [
        {"sample_id": "a", "error": "repeated sample_id 'a'"},
        {"sample_id": "c", "error": "text features must be an [n, 3] array, got shape (1, 2)"},
        {"sample_id": "d", "error": "text features projected to non-finite coordinates"},
        {"sample_id": "e", "error": "anchors of image 'bad': anchors must be a list of objects"},
        {"sample_id": "f", "error": "anchors were cut to top_fraction 0.5, got 1.0"},
        {"sample_id": "h", "error": "repeated sample_id 'h'"},
        {"sample_id": "o", "error": "image_id must be a string or a number, got [1]"},
    ]
    every = ["i", "half", "bad", "A", "B", 1]
    assert taken == [("a", False, 0, every), ("b", False, 1, every), ("c", False, 1, every), ("d", False, 2, every),
                     ("e", False, 3, every[1:]), ("f", False, 3, ["half", "A", "B", 1]), ("g", False, 3, ["A", "B", 1]),
                     ("h", False, 4, ["A", "B", 1]), ("k", False, 5, ["A", "B", 1]), ("m", False, 6, ["B", 1]),
                     ("n", False, 7, ["B", 1])]
    assert anchor_map == {}
    assert projected.count("text features") == 8
    assert projected.count("visual features") == 4  # "i", "A", "B" and 1, each once
    assert ["features" in rec for rec in texts] == [False, False, True, False, False, False, False,
                                                    False, False, False, False, False, True, True]


def test_ground_records_hold_one_pool_at_a_time():
    # An image's pool is freed after its last record: 64 images of one record
    # each peak at 1.17 pools above the start (241 kB for pools of 206 kB),
    # where pools kept to the end of the run would reach 64.
    dim, n_images, n_anchors = 128, 64, 100
    rng = np.random.default_rng(5)
    bundle = ProjectionBundle.initialize(dim, seed=5)
    args = SimpleNamespace(top_frac=1.0, distinct_anchors=False)

    def inputs(n):
        anchor_map = {f"img{k}": AnchorSet(rng.standard_normal((n_anchors, dim)), rng.uniform(size=n_anchors),
                                           np.tile([0.0, 0.0, 1.0, 1.0], (n_anchors, 1)), 1.0) for k in range(n)}
        texts = [{"sample_id": f"s{k}", "image_id": f"img{k}", "features": rng.standard_normal((1, dim)).tolist()}
                 for k in range(n)]
        return texts, anchor_map

    def run(texts, anchor_map):
        return cli._ground_records(texts, lambda rec: ["p"], anchor_map, bundle, args)

    run(*inputs(1))  # imports and caches made on first use are not counted
    texts, anchor_map = inputs(n_images)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        predictions, failures = run(texts, anchor_map)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(predictions) == n_images and not failures
    pool = 8 * n_anchors * (2 * dim + 1)  # e, z and x0
    assert peak - start <= 2 * pool, (peak - start, pool)


def random_entries(rng, n, dim=3):
    return [{"feature": rng.standard_normal(dim).tolist(), "confidence": int(rng.integers(0, 4)) / 4,
             "box": [i, 0, i + 1, 1]} for i in range(n)]


def records(entries):
    return [AnchorRecord(feature=e["feature"], confidence=e["confidence"], box=e["box"]) for e in entries]


class TestCutAnchorSet:
    """An AnchorSet cut to one top_fraction at construction."""

    @pytest.mark.parametrize("field, value, match", [
        ("box", [0.0, 0.0, 1.0], "four coordinates"),
        ("box", [10.0, 0.0, 0.0, 10.0], "x1<x2"),
        ("box", [0.0, 0.0, float("inf"), 1.0], "finite coordinates"),
        ("box", [float("nan"), 0.0, 1.0, 1.0], "finite coordinates"),
        ("confidence", float("-inf"), "finite"),
        ("confidence", "0.0", "finite number"),
        ("feature", [1.0], "same shape"),
    ])
    def test_dropped_anchor_is_still_checked(self, field, value, match):
        good = {"feature": [1.0, 0.0], "confidence": 0.9, "box": [0.0, 0.0, 2.0, 2.0]}
        dropped = {"feature": [0.0, 1.0], "confidence": 0.0, "box": [0.0, 0.0, 1.0, 1.0], field: value}
        with pytest.raises(ValueError, match=match):
            AnchorSet.from_json([good] * 9 + [dropped], 0.1)

    def test_keeps_only_the_kept_rows(self):
        rng = np.random.default_rng(8)
        cut = AnchorSet.from_json(random_entries(rng, 40), 0.1)
        assert len(cut) == 40
        assert cut.features.shape == (4, 3) and cut.boxes.shape == (4, 4)
        assert not hasattr(cut, "confidence")  # no reader once the cut is made
        assert cut.features.base is None  # a copy: the full array is not held

    @pytest.mark.parametrize("n, top", [(1, 0.1), (7, 0.5), (12, 0.25), (40, 0.1), (40, 0.05),
                                        (40, 1.0), (200, 0.05), (1000, 0.1)])
    def test_pool_matches_the_uncut_set(self, n, top):
        # The uncut anchors, as AnchorRecords, through filter_anchors and embed_rows.
        rng = np.random.default_rng(n)
        entries = random_entries(rng, n)
        bundle = ProjectionBundle.initialize(3, seed=n)
        cut = AnchorSet.from_json(entries, top)
        kept = filter_anchors(records(entries), top)
        features = np.array([a.feature for a in kept])
        assert cut.boxes.tobytes() == np.array([a.box for a in kept]).tobytes()
        want = embed_rows(features, bundle.w_ev, bundle.w_hv, bundle.kappa, "visual features")
        for got, w in zip(cut.pool(top, bundle), want):
            assert got.tobytes() == w.tobytes()
        text = rng.standard_normal((3, 3))
        prefiltered = AnchorSet(features, np.array([a.confidence for a in kept]), np.array([a.box for a in kept]), 1.0)
        assert (ground("s", cut, list("abc"), text, bundle, top)
                == ground("s", prefiltered, list("abc"), text, bundle, 1.0))

    def test_another_fraction_raises(self):
        cut = AnchorSet.from_json(random_entries(np.random.default_rng(1), 10), 0.2)
        with pytest.raises(ValueError, match="cut to top_fraction 0.2"):
            cut.pool(0.5, scoring_bundle(3))
        with pytest.raises(ValueError, match="cut to top_fraction 0.2"):
            ground("s", cut, ["p"], [np.ones(3)], scoring_bundle(3), top_fraction=0.1)

    @pytest.mark.parametrize("n, top", [(0, 0.1), (0, 0.0), (3, 0.0), (3, 1.5), (3, float("nan"))])
    def test_empty_set_or_bad_fraction_fails_when_built(self, n, top):
        entries = random_entries(np.random.default_rng(2), n)
        with pytest.raises(ValueError) as uncut:
            filter_anchors(records(entries), top)
        with pytest.raises(ValueError) as got:
            AnchorSet.from_json(entries, top)
        assert str(got.value) == str(uncut.value)
        assert str(got.value).startswith("anchor list is empty" if n == 0 else "top_fraction must lie")
