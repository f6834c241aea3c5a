import numpy as np
import pytest

from hemix import trainer as T
from hemix.similarity import ProjectionBundle


@pytest.fixture(scope="module")
def hierarchy():
    return T.default_hierarchy()


class TestDatasetGeneration:
    def test_deterministic_given_seed(self, hierarchy):
        a = T.generate_dataset(hierarchy, 20)
        b = T.generate_dataset(hierarchy, 20)
        for ba, bb in zip(a, b):
            for ia, ib in zip(ba.images, bb.images):
                assert np.array_equal(ia.text, ib.text)
                assert all(np.array_equal(x, y) for x, y in zip(ia.anchors, ib.anchors))

    def test_zero_noise_hits_centroid_exactly(self):
        h = T.default_hierarchy(noise_scale=0.0)
        desc = T.concept_descriptors(h)
        centroids = {tuple(v) for v in desc.values()}
        data = T.generate_dataset(h, 10)
        for batch in data:
            for img in batch.images:
                assert tuple(img.anchors[0]) in centroids

    def test_negatives_count(self, hierarchy):
        data = T.generate_dataset(hierarchy, 8, negatives_per_image=2)
        for batch in data:
            for img in batch.images:
                assert len(img.anchors) == 3

    def test_no_negatives(self, hierarchy):
        data = T.generate_dataset(hierarchy, 4, negatives_per_image=0)
        assert all(len(img.anchors) == 1 for b in data for img in b.images)

    def test_sample_count_rejected(self, hierarchy):
        with pytest.raises(ValueError):
            T.generate_dataset(hierarchy, 0)


class TestTraining:
    def test_lr_zero_is_noop(self, hierarchy):
        data = T.generate_dataset(hierarchy, 8)
        cfg = T.TrainConfig(steps=20, lr=0.0, seed=42)
        bundle, trace = T.train(data, cfg)
        init = ProjectionBundle.initialize(
            hierarchy.feature_dim, alpha=cfg.alpha, tau=cfg.tau, kappa=cfg.kappa, seed=cfg.seed
        )
        for name in ("w_ev", "w_et", "w_hv", "w_ht"):
            assert np.array_equal(getattr(bundle, name), getattr(init, name))
        assert len(trace) == 20

    def test_two_hundred_steps_reduce_loss(self, hierarchy):
        data = T.generate_dataset(hierarchy, 64)
        bundle, trace = T.train(data, T.TrainConfig(steps=200, seed=42))
        assert float(np.mean(trace[-10:])) < float(np.mean(trace[:10]))

    def test_same_seed_same_trace(self, hierarchy):
        data = T.generate_dataset(hierarchy, 32)
        _, t1 = T.train(data, T.TrainConfig(steps=50, seed=7))
        b2, t2 = T.train(data, T.TrainConfig(steps=50, seed=7))
        b3, t3 = T.train(data, T.TrainConfig(steps=50, seed=8))
        assert t1 == t2
        assert t1 != t3

    def test_divergence_raises_typed_error(self, hierarchy):
        data = T.generate_dataset(hierarchy, 8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(T.TrainingDiverged):
                T.train(data, T.TrainConfig(steps=50, lr=1e150, optimizer="sgd", seed=1))

    def test_alpha_zero_never_touches_hyperbolic_weights(self, hierarchy):
        data = T.generate_dataset(hierarchy, 16)
        cfg = T.TrainConfig(steps=30, alpha=0.0, seed=3)
        bundle, _ = T.train(data, cfg)
        init = ProjectionBundle.initialize(
            hierarchy.feature_dim, alpha=0.0, tau=cfg.tau, kappa=cfg.kappa, seed=3
        )
        assert np.array_equal(bundle.w_hv, init.w_hv)
        assert np.array_equal(bundle.w_ht, init.w_ht)
        assert not np.array_equal(bundle.w_ev, init.w_ev)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            T.TrainConfig(steps=0)
        with pytest.raises(ValueError):
            T.TrainConfig(lr=-0.1)
        with pytest.raises(ValueError):
            T.TrainConfig(optimizer="lbfgs")


class TestApexReport:
    def test_identity_projection_reflects_descriptor_norms(self, hierarchy):
        eye = np.eye(hierarchy.feature_dim)
        bundle = ProjectionBundle(eye, eye, eye, eye, alpha=0.5, tau=0.07, kappa=1.0)
        report = T.apex_report(bundle, hierarchy)
        # Descriptors are unit vectors, so the untrained ratio sits at 1.
        assert report["parent_child_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_zero_projection_reports_undefined_ratio(self, hierarchy):
        eye = np.eye(hierarchy.feature_dim)
        zero = np.zeros_like(eye)
        bundle = ProjectionBundle(eye, eye, eye, zero, alpha=0.5, tau=0.07, kappa=1.0)
        report = T.apex_report(bundle, hierarchy)
        assert report["parent_child_ratio"] is None
        assert all(v == 0.0 for v in report["concept_norms"].values())


def test_hierarchy_validation():
    with pytest.raises(ValueError):
        T.SyntheticHierarchy(parents=("p0",), children={"p0": ["c"]})
    with pytest.raises(ValueError):
        T.SyntheticHierarchy(parents=("p0",), children={"zzz": ["a", "b"]})
