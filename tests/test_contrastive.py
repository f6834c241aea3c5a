import math

import numpy as np
import pytest

from hemix import contrastive
from hemix.contrastive import (
    GroundingBatch,
    ImageRecord,
    LossReport,
    contrastive_loss,
    gradient_check,
    hierarchical_loss,
)
from hemix.lorentz import geodesic_distance, lift
from hemix.similarity import ProjectionBundle, hemix


def rand_batch(rng, dim, n_images=None, n_anchors=None):
    n_images = n_images or int(rng.integers(1, 5))
    images = []
    for _ in range(n_images):
        m = n_anchors or int(rng.integers(1, 5))
        images.append(ImageRecord([rng.standard_normal(dim) for _ in range(m)], rng.standard_normal(dim)))
    return GroundingBatch(images)


class TestLossValues:
    def test_single_image_single_anchor_is_zero(self):
        rng = np.random.default_rng(0)
        bundle = ProjectionBundle.initialize(4, seed=0)
        batch = GroundingBatch([ImageRecord([rng.standard_normal(4)], rng.standard_normal(4))])
        report = contrastive_loss(batch, bundle)
        assert report.loss == 0.0
        assert all(np.abs(g).max() <= 1e-12 for g in report.grads.values())

    def test_two_images_equal_scores_log2(self):
        # Identical features everywhere force every pairwise score to match.
        f = np.full(4, 0.3)
        bundle = ProjectionBundle.initialize(4, seed=1)
        batch = GroundingBatch([ImageRecord([f], f), ImageRecord([f.copy()], f.copy())])
        assert contrastive_loss(batch, bundle).loss == pytest.approx(math.log(2), rel=1e-12)

    def test_three_equal_anchors_intra_log3(self):
        f = np.full(4, -0.7)
        bundle = ProjectionBundle.initialize(4, seed=2)
        batch = GroundingBatch([ImageRecord([f, f.copy(), f.copy()], f.copy())])
        assert contrastive_loss(batch, bundle, intra_negatives=True).loss == pytest.approx(
            math.log(3), rel=1e-12
        )

    def test_printed_indicator_excludes_own_negatives(self):
        # With one image the printed term set is just the positive, so the
        # loss is exactly zero no matter what the negatives look like.
        rng = np.random.default_rng(3)
        bundle = ProjectionBundle.initialize(4, seed=3)
        batch = GroundingBatch(
            [ImageRecord([rng.standard_normal(4) for _ in range(4)], rng.standard_normal(4))]
        )
        assert contrastive_loss(batch, bundle, intra_negatives=False).loss == 0.0
        assert contrastive_loss(batch, bundle, intra_negatives=True).loss > 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            bundle = ProjectionBundle.initialize(4, seed=seed)
            batch = rand_batch(rng, 4)
            for intra in (False, True):
                assert contrastive_loss(batch, bundle, intra).loss >= 0.0

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            GroundingBatch([])
        with pytest.raises(ValueError):
            ImageRecord([], np.zeros(4))


class TestBatchLayout:
    def test_stacks_once_and_records_view_the_stacks(self):
        rng = np.random.default_rng(5)
        anchors = [rng.standard_normal((n, 4)) for n in (1, 3, 2)]
        texts = rng.standard_normal((3, 4))
        batch = GroundingBatch([ImageRecord(a.copy(), t.copy()) for a, t in zip(anchors, texts)])
        assert np.array_equal(batch.anchors, np.concatenate(anchors))
        assert np.array_equal(batch.texts, texts)
        assert batch.pos.tolist() == [0, 1, 4]
        assert batch.owner.tolist() == [0, 1, 1, 1, 2, 2]
        for img, a, t in zip(batch.images, anchors, texts):
            assert np.array_equal(img.anchors, a) and np.shares_memory(img.anchors, batch.anchors)
            assert np.array_equal(img.text, t) and np.shares_memory(img.text, batch.texts)

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="anchor and text feature dimensions differ"):
            ImageRecord(np.zeros((2, 4)), np.zeros(3))
        with pytest.raises(ValueError, match="share one feature dimension"):
            GroundingBatch([ImageRecord(np.zeros((1, 4)), np.zeros(4)), ImageRecord(np.zeros((1, 3)), np.zeros(3))])


class TestLossIdentities:
    def test_tau_rescaling(self):
        # Doubling tau must equal halving every similarity before a tau=1 loss.
        rng = np.random.default_rng(6)
        mats = ProjectionBundle.initialize(4, seed=6)
        b_tau2 = ProjectionBundle(mats.w_ev, mats.w_et, mats.w_hv, mats.w_ht, alpha=0.4, tau=2.0)
        b_ref = ProjectionBundle(mats.w_ev, mats.w_et, mats.w_hv, mats.w_ht, alpha=0.4, tau=1.0)
        batch = rand_batch(rng, 4, n_images=3, n_anchors=2)
        got = contrastive_loss(batch, b_tau2, intra_negatives=True).loss

        # Independent reference: per-image softmax NLL over halved scores.
        total = 0.0
        all_anchors = [(i, a) for i, img in enumerate(batch.images) for a in img.anchors]
        for i, img in enumerate(batch.images):
            scores = [hemix(a, img.text, b_ref) / 2.0 for _, a in all_anchors]
            pos = next(k for k, (j, _) in enumerate(all_anchors) if j == i)
            m = max(scores)
            total += math.log(sum(math.exp(s - m) for s in scores)) - (scores[pos] - m)
        assert got == pytest.approx(total / len(batch.images), abs=1e-12)

    def test_alpha_zero_kills_hyperbolic_grads(self):
        rng = np.random.default_rng(7)
        bundle = ProjectionBundle.initialize(4, alpha=0.0, seed=7)
        report = contrastive_loss(rand_batch(rng, 4, n_images=3), bundle, intra_negatives=True)
        assert np.all(report.grads["w_hv"] == 0.0)
        assert np.all(report.grads["w_ht"] == 0.0)
        assert np.abs(report.grads["w_ev"]).max() > 0.0

    def test_alpha_one_kills_euclidean_grads(self):
        rng = np.random.default_rng(8)
        bundle = ProjectionBundle.initialize(4, alpha=1.0, seed=8)
        report = contrastive_loss(rand_batch(rng, 4, n_images=3), bundle, intra_negatives=True)
        assert np.all(report.grads["w_ev"] == 0.0)
        assert np.all(report.grads["w_et"] == 0.0)


class TestGradientCheck:
    @pytest.mark.parametrize("intra", [False, True])
    def test_matches_finite_differences(self, intra):
        rng = np.random.default_rng(9)
        bundle = ProjectionBundle.initialize(4, alpha=0.35, tau=0.3, kappa=1.5, seed=9)
        batch = rand_batch(rng, 4, n_images=3)
        assert gradient_check(batch, bundle, epsilon=1e-5, intra_negatives=intra) < 1e-4

    def test_stacked_check_equals_per_entry_loop(self):
        # At dim 23 a slice holds 991 of a matrix's 2 * 23^2 = 1058 perturbed
        # copies, so each matrix takes two slices and one +/- pair is split.
        dim, eps = 23, 1e-5
        assert 2 * dim * dim > contrastive._STACK_BYTES // (8 * dim * dim)
        rng = np.random.default_rng(14)
        bundle = ProjectionBundle.initialize(dim, alpha=0.6, tau=0.4, kappa=1.3, seed=14)
        batch = rand_batch(rng, dim, n_images=2, n_anchors=2)
        analytic = contrastive_loss(batch, bundle, True).grads
        worst = 0.0
        for name in ("w_ev", "w_et", "w_hv", "w_ht"):
            mat = getattr(bundle, name)
            for idx in np.ndindex(mat.shape):
                orig = mat[idx]
                mat[idx] = orig + eps
                up = contrastive_loss(batch, bundle, True).loss
                mat[idx] = orig - eps
                down = contrastive_loss(batch, bundle, True).loss
                mat[idx] = orig
                numeric = (up - down) / (2.0 * eps)
                a = float(analytic[name][idx])
                worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
        assert gradient_check(batch, bundle, epsilon=eps, intra_negatives=True) == pytest.approx(worst, rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-7, 1e-3])
    def test_epsilon_range_enforced(self, eps):
        bundle = ProjectionBundle.initialize(4, seed=10)
        batch = rand_batch(np.random.default_rng(10), 4)
        with pytest.raises(ValueError):
            gradient_check(batch, bundle, epsilon=eps)


class TestHierarchicalLoss:
    def test_coincident_points_zero(self):
        bundle = ProjectionBundle.initialize(4, seed=11)
        f = np.random.default_rng(11).standard_normal(4)
        assert hierarchical_loss(f, f.copy(), f.copy(), bundle) == 0.0

    def test_recomposes_from_geodesics(self):
        rng = np.random.default_rng(12)
        bundle = ProjectionBundle.initialize(4, seed=12)
        cat, base, ref = (rng.standard_normal(4) for _ in range(3))
        embed = lambda f: lift(f @ bundle.w_ht, bundle.kappa)
        expected = geodesic_distance(embed(cat), embed(base)) + geodesic_distance(embed(ref), embed(base))
        assert hierarchical_loss(cat, base, ref, bundle) == pytest.approx(expected, rel=1e-14)

    def test_symmetric_in_outer_arguments(self):
        rng = np.random.default_rng(13)
        bundle = ProjectionBundle.initialize(4, seed=13)
        cat, base, ref = (rng.standard_normal(4) for _ in range(3))
        assert hierarchical_loss(cat, base, ref, bundle) == pytest.approx(
            hierarchical_loss(ref, base, cat, bundle), rel=1e-14
        )


def test_loss_report_rejects_nonfinite():
    with pytest.raises(ValueError):
        LossReport(loss=float("inf"))
    with pytest.raises(ValueError):
        LossReport(loss=-0.1)
    with pytest.raises(ValueError):
        LossReport(loss=0.5, grads={"w_ev": np.array([np.nan])})
