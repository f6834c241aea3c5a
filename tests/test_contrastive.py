import math

import numpy as np
import pytest

from hemix import contrastive, similarity
from hemix.contrastive import (
    GroundingBatch,
    ImageRecord,
    contrastive_loss,
    gradient_check,
)
from hemix.similarity import _MATRICES, ProjectionBundle, hemix


def rand_batch(rng, dim, n_images=None, n_anchors=None):
    n_images = n_images or int(rng.integers(1, 5))
    images = []
    for _ in range(n_images):
        m = n_anchors or int(rng.integers(1, 5))
        images.append(ImageRecord([rng.standard_normal(dim) for _ in range(m)], rng.standard_normal(dim)))
    return GroundingBatch(images)


def ignore(name, grad):
    """An ``apply`` for callers that need only the loss."""


def loss_and_grads(batch, bundle, intra_negatives=False):
    """The loss and a fresh copy of each gradient, collected through ``apply``."""
    grads = {}
    loss = contrastive_loss(batch, bundle, intra_negatives, apply=grads.__setitem__)
    return loss, grads


class TestLossValues:
    def test_single_image_single_anchor_is_zero(self):
        rng = np.random.default_rng(0)
        bundle = ProjectionBundle.initialize(4, seed=0)
        batch = GroundingBatch([ImageRecord([rng.standard_normal(4)], rng.standard_normal(4))])
        loss, grads = loss_and_grads(batch, bundle)
        assert loss == 0.0
        assert list(grads) == list(_MATRICES)
        assert all(np.abs(g).max() <= 1e-12 for g in grads.values())

    def test_two_images_equal_scores_log2(self):
        # Identical features everywhere force every pairwise score to match.
        f = np.full(4, 0.3)
        bundle = ProjectionBundle.initialize(4, seed=1)
        batch = GroundingBatch([ImageRecord([f], f), ImageRecord([f.copy()], f.copy())])
        assert contrastive_loss(batch, bundle, apply=ignore) == pytest.approx(math.log(2), rel=1e-12)

    def test_three_equal_anchors_intra_log3(self):
        f = np.full(4, -0.7)
        bundle = ProjectionBundle.initialize(4, seed=2)
        batch = GroundingBatch([ImageRecord([f, f.copy(), f.copy()], f.copy())])
        assert contrastive_loss(batch, bundle, intra_negatives=True, apply=ignore) == pytest.approx(
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
        assert contrastive_loss(batch, bundle, intra_negatives=False, apply=ignore) == 0.0
        assert contrastive_loss(batch, bundle, intra_negatives=True, apply=ignore) > 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for seed in range(20):
            bundle = ProjectionBundle.initialize(4, seed=seed)
            batch = rand_batch(rng, 4)
            for intra in (False, True):
                assert contrastive_loss(batch, bundle, intra, apply=ignore) >= 0.0

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
        got = contrastive_loss(batch, b_tau2, intra_negatives=True, apply=ignore)

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
        _, grads = loss_and_grads(rand_batch(rng, 4, n_images=3), bundle, intra_negatives=True)
        assert np.all(grads["w_hv"] == 0.0)
        assert np.all(grads["w_ht"] == 0.0)
        assert np.abs(grads["w_ev"]).max() > 0.0

    def test_alpha_one_kills_euclidean_grads(self):
        rng = np.random.default_rng(8)
        bundle = ProjectionBundle.initialize(4, alpha=1.0, seed=8)
        _, grads = loss_and_grads(rand_batch(rng, 4, n_images=3), bundle, intra_negatives=True)
        assert np.all(grads["w_ev"] == 0.0)
        assert np.all(grads["w_et"] == 0.0)


class TestGradientBuffers:
    @pytest.mark.parametrize("intra", [False, True])
    @pytest.mark.parametrize("dim", [4, 80])
    @pytest.mark.parametrize("n_images", [1, 4])
    def test_out_equals_fresh_and_is_overwritten(self, intra, dim, n_images):
        rng = np.random.default_rng(dim + n_images)
        bundle = ProjectionBundle.initialize(dim, seed=dim)
        out = np.full((dim, dim), np.nan)
        for _ in range(2):
            batch = rand_batch(rng, dim, n_images, 3)
            fresh_loss, fresh = loss_and_grads(batch, bundle, intra)
            seen = {}

            def apply(name, grad):
                assert grad is out
                seen[name] = grad.tobytes()

            assert contrastive_loss(batch, bundle, intra, apply=apply, out=out) == fresh_loss
            assert seen == {name: fresh[name].tobytes() for name in _MATRICES}
            # Each gradient overwrote the one before it, so the buffer holds the last.
            assert out.tobytes() == fresh["w_ht"].tobytes()

    def test_out_with_non_finite_gradient_raises(self, monkeypatch):
        rng = np.random.default_rng(3)
        batch = rand_batch(rng, 4, 2, 2)
        bundle = ProjectionBundle.initialize(4, seed=3)
        out = np.zeros((4, 4))
        loss = contrastive._loss

        def poisoned(*args, **kwargs):
            value, v, t, g = loss(*args, **kwargs)
            g[-1, 0] = np.nan  # a finite loss with a non-finite softmax entry
            return value, v, t, g

        monkeypatch.setattr(contrastive, "_loss", poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            contrastive_loss(batch, bundle, apply=ignore, out=out)
        assert np.isnan(out).any()

    def test_gradients_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # 240 anchors at d=100 give each anchor-side product 2.4e6 multiply-adds,
        # which split on two CPUs; a BLAS can round a row-split product
        # differently from a whole one at this dimension, so one CPU splits too.
        rng = np.random.default_rng(12)
        batch = rand_batch(rng, 100, 8, 30)
        bundle = ProjectionBundle.initialize(100, seed=12)
        seen = {}
        for cpus in (1, 2):
            monkeypatch.setattr(similarity, "_cpu_count", lambda: cpus)
            seen[cpus] = {}
            contrastive_loss(batch, bundle, apply=lambda name, grad: seen[cpus].__setitem__(name, grad.tobytes()))
        assert seen[1] == seen[2]


class TestApply:
    @pytest.mark.parametrize("intra", [False, True])
    def test_apply_sees_the_out_gradients_in_order(self, intra):
        dim = 80
        rng = np.random.default_rng(11)
        batch = rand_batch(rng, dim, 4, 3)
        bundle = ProjectionBundle.initialize(dim, seed=11)
        plain_loss, plain = loss_and_grads(batch, bundle, intra)
        buffer = np.full((dim, dim), np.nan)
        seen = []

        def apply(name, grad):
            assert grad is buffer
            seen.append((name, grad.tobytes()))

        assert contrastive_loss(batch, bundle, intra, apply=apply, out=buffer) == plain_loss
        assert seen == [(name, plain[name].tobytes()) for name in _MATRICES]

    def test_nan_loss_raises_before_any_apply(self, monkeypatch):
        rng = np.random.default_rng(5)
        batch = rand_batch(rng, 4, 2, 2)
        bundle = ProjectionBundle.initialize(4, seed=5)
        loss = contrastive._loss

        def poisoned(*args, **kwargs):
            _, v, t, g = loss(*args, **kwargs)
            return np.float64(np.nan), v, t, g

        monkeypatch.setattr(contrastive, "_loss", poisoned)
        seen = []
        with pytest.raises(ValueError, match="loss must be finite and nonnegative, got nan"):
            contrastive_loss(batch, bundle, apply=lambda name, grad: seen.append(name))
        assert seen == []

    # A NaN in one anchor feature column reaches one row of the w_hv gradient
    # only; at d=80 row 70 lies in the second row half, which the worker makes
    # when forced.
    @pytest.mark.parametrize("forced", [False, True])
    @pytest.mark.parametrize("dim, row", [(4, 0), (80, 10), (80, 70)])
    def test_non_finite_gradient_raises_before_apply_sees_it(self, two_threads, dim, row, forced):
        if forced:
            two_threads()
        rng = np.random.default_rng(6)
        batch = rand_batch(rng, dim, 2, 2)
        bundle = ProjectionBundle.initialize(dim, seed=6)
        out, seen = np.empty((dim, dim)), []

        def apply(name, grad):
            seen.append(name)
            if name == "w_et":
                batch.anchors[:, row] = np.nan  # read next by the w_hv product alone

        with pytest.raises(ValueError, match="^gradient w_hv contains non-finite entries$"):
            contrastive_loss(batch, bundle, apply=apply, out=out)
        assert seen == ["w_ev", "w_et"]
        assert np.isnan(out[row]).all() and np.isfinite(np.delete(out, row, axis=0)).all()


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
        _, analytic = loss_and_grads(batch, bundle, True)
        worst = 0.0
        for name in ("w_ev", "w_et", "w_hv", "w_ht"):
            mat = getattr(bundle, name)
            for idx in np.ndindex(mat.shape):
                orig = mat[idx]
                mat[idx] = orig + eps
                up = contrastive_loss(batch, bundle, True, apply=ignore)
                mat[idx] = orig - eps
                down = contrastive_loss(batch, bundle, True, apply=ignore)
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


@pytest.mark.parametrize("poison, message", [
    (lambda value, v, t, g: (np.float64(np.inf), v, t, g), "^loss must be finite and nonnegative, got inf$"),
    (lambda value, v, t, g: (np.float64(-0.1), v, t, g), "^loss must be finite and nonnegative, got -0.1$"),
    (lambda value, v, t, g: (value, v, t, np.full_like(g, np.nan)), "^gradient w_ev contains non-finite entries$"),
], ids=["infinite-loss", "negative-loss", "nan-gradient"])
def test_contrastive_loss_rejects_nonfinite(monkeypatch, poison, message):
    rng = np.random.default_rng(15)
    batch = rand_batch(rng, 4, 2, 2)
    bundle = ProjectionBundle.initialize(4, seed=15)
    loss = contrastive._loss
    monkeypatch.setattr(contrastive, "_loss", lambda *args, **kwargs: poison(*loss(*args, **kwargs)))
    seen = []
    with pytest.raises(ValueError, match=message):
        contrastive_loss(batch, bundle, apply=lambda name, grad: seen.append(name))
    assert seen == []
