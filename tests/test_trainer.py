import ctypes
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hemix import cli
from hemix import trainer as T
from hemix.contrastive import GroundingBatch, ImageRecord, contrastive_loss
from hemix.similarity import _MATRICES, ProjectionBundle, score_matrix


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
        desc = h.descriptors
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

    @pytest.mark.parametrize("n_parents", [1, 3])
    def test_no_negatives(self, n_parents):
        data = T.generate_dataset(T.default_hierarchy(n_parents), 4, negatives_per_image=0)
        assert all(len(img.anchors) == 1 for b in data for img in b.images)
        assert len(T.train(data, T.TrainConfig(steps=2))[1]) == 2

    def test_sample_count_rejected(self, hierarchy):
        with pytest.raises(ValueError):
            T.generate_dataset(hierarchy, 0)
        with pytest.raises(ValueError):
            T.generate_dataset(hierarchy, 4, negatives_per_image=-1)
        with pytest.raises(ValueError, match="batch_images must be at least 1"):
            T.generate_dataset(hierarchy, 4, batch_images=0)


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
                T.train(data, T.TrainConfig(steps=50, lr=1e200, seed=1))

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
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lr must be finite and nonnegative"):
                T.TrainConfig(lr=lr)

    def test_data_validation(self):
        with pytest.raises(ValueError, match="^training data is empty$"):
            T.train([], T.TrainConfig())
        batches = [GroundingBatch([ImageRecord(anchors=np.ones((2, dim)), text=np.ones(dim))]) for dim in (2, 3)]
        with pytest.raises(ValueError, match="^all batches must share one feature dimension$"):
            T.train(batches, T.TrainConfig())


class _TextbookAdam:
    """The allocating Adam update, one whole-matrix expression per line."""

    def __init__(self, lr):
        self.lr, self.beta1, self.beta2, self.eps = lr, 0.9, 0.999, 1e-8
        self.t, self.m, self.v = 0, {}, {}

    def step(self, params, grads):
        self.t += 1
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1**self.t)
            v_hat = self.v[name] / (1 - self.beta2**self.t)
            params[name] -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps))


class TestAdam:
    # 70 and 130 rows leave a partial last block; 64 is exactly one block.
    @pytest.mark.parametrize("dim", [8, 64, 70, 130])
    @pytest.mark.parametrize("lr", [0.025, 0.0])
    def test_matches_textbook_bit_for_bit(self, dim, lr):
        rng = np.random.default_rng(dim)
        init = {name: rng.uniform(-1, 1, (dim, dim)) for name in _MATRICES}
        got = {name: w.copy() for name, w in init.items()}
        want = {name: w.copy() for name, w in init.items()}
        opt, ref = T._Adam(got, lr), _TextbookAdam(lr)
        for _ in range(40):
            scale = 10.0 ** rng.uniform(-6, 2)
            grads = {name: scale * rng.standard_normal((dim, dim)) for name in ("w_ev", "w_et")}
            # All-zero gradients, as for the hyperbolic weights at alpha = 0.
            grads.update(w_hv=np.zeros((dim, dim)), w_ht=np.zeros((dim, dim)))
            for name in _MATRICES:
                opt.update(name, grads[name])
            ref.step(want, grads)
        for name in init:
            assert np.array_equal(got[name], want[name]), name
            assert np.array_equal(opt.m[name], ref.m[name]) and np.array_equal(opt.v[name], ref.v[name])
        assert np.array_equal(got["w_hv"], init["w_hv"]) and np.array_equal(got["w_ht"], init["w_ht"])
        if lr == 0.0:
            assert all(np.array_equal(got[name], init[name]) for name in init)
        else:
            assert not np.array_equal(got["w_ev"], init["w_ev"])


def _per_image_accuracy(data, bundle):
    """selection_accuracy as one score_matrix call per image."""
    hits = [
        int(np.argmax(score_matrix(img.anchors, img.text[None, :], bundle)[:, 0]) == 0)
        for batch in data
        for img in batch.images
    ]
    return sum(hits) / len(hits)


class TestSelectionAccuracy:
    def test_tier1_hierarchy_matches_per_image_scores(self, hierarchy):
        data = T.generate_dataset(hierarchy, 64)
        bundle, _ = T.train(data, T.TrainConfig(steps=40, seed=42))
        noisy = T.default_hierarchy(noise_scale=0.6)
        for eval_data in (
            T.generate_dataset(hierarchy, 200, seed=42 + 9999),
            T.generate_dataset(noisy, 200, negatives_per_image=4, batch_images=3, seed=5),
        ):
            got = T.selection_accuracy(eval_data, bundle)
            assert got == _per_image_accuracy(eval_data, bundle)
        assert 0.0 < got < 1.0

    def test_d512_matches_per_image_scores(self):
        h = T.default_hierarchy(feature_dim=512, noise_scale=0.2, seed=1)
        data = T.generate_dataset(h, 200, negatives_per_image=8, batch_images=8, seed=10000)
        bundle = ProjectionBundle.initialize(512, seed=1)
        got = T.selection_accuracy(data, bundle)
        assert got == _per_image_accuracy(data, bundle)
        assert 0.0 < got < 1.0

    def test_unequal_anchor_counts(self):
        rng = np.random.default_rng(11)
        bundle = ProjectionBundle.initialize(6, seed=11)
        data = [
            GroundingBatch([ImageRecord(rng.standard_normal((n, 6)), rng.standard_normal(6)) for n in sizes])
            for sizes in ((1, 2, 9), (9, 1), (2,), (9, 2, 1, 2))
            for _ in range(10)
        ]
        got = T.selection_accuracy(data, bundle)
        assert got == _per_image_accuracy(data, bundle)
        assert 0.0 < got < 1.0


# SHA-256 of the outputs of `train-toy --dim 16 --steps 30 --batch-images 4
# --negatives 3 --samples 32 --seed 3`, as the allocating Adam over per-image
# anchor lists wrote them; the in-place Adam and the stacked batch layout must
# reproduce them byte for byte. OpenBLAS rounds its products differently on
# each core's kernels, so there is one set per core name (see _blas_core),
# each recorded with OPENBLAS_CORETYPE set to that core on an AVX-512 host.
# The weights.json hashes are of the raw-f8le weight file, whose matrices and
# scalars equal those of the base64-JSON file it replaced, bit for bit.
_TRAIN_TOY_ARGS = ("--dim", "16", "--steps", "30", "--batch-images", "4", "--negatives", "3",
                   "--samples", "32", "--seed", "3")
_TRAIN_TOY_PINS = {
    "SkylakeX": {
        "weights.json": "78ad33d690a4da681dbde3fade8111733d8783f844cea6d36439840a13b5ba9f",
        "loss_trace.csv": "c8933f86ee9033265f5c38252e906f16ef65c5873377eb98c50c6eb7e25ff60c",
        "apex_report.json": "f462f62eccf13d13003af134e295f8d5b3eecac5b356967f6eceded7b87bb264",
    },
    "Haswell": {
        "weights.json": "e268cf3cd25092edbad7e5bc2987e40c54e39a9f2b01e4dcdb8f085f6c8be8b5",
        "loss_trace.csv": "c8933f86ee9033265f5c38252e906f16ef65c5873377eb98c50c6eb7e25ff60c",
        "apex_report.json": "efa39291861fe2835ec12b1d22162be9c375b1cf76e6b9e12727a223139bfe82",
    },
    "Sandybridge": {
        "weights.json": "6a1835ce9f16232205fc0899bbbd6d3f30b76cc8bdcf6710419c9696d1fc3b1c",
        "loss_trace.csv": "c8933f86ee9033265f5c38252e906f16ef65c5873377eb98c50c6eb7e25ff60c",
        "apex_report.json": "ee36409658f62f2c5a0461a066008e1d254c624c91214d58d7a50bfe9116d871",
    },
}

# The same at d=80, as training with freshly allocated gradients wrote them:
# Adam runs one full block of _ADAM_ROWS rows and a partial one, and every
# product is a BLAS gemm.
_TRAIN_TOY_D80_ARGS = ("--dim", "80", "--steps", "12", "--batch-images", "4", "--negatives", "3",
                       "--samples", "32", "--seed", "5")
_TRAIN_TOY_D80_PINS = {
    "SkylakeX": {
        "weights.json": "a8ca777f17bc7bf2953673df0517ce2b865e5a39b2138d824213a712f51af81e",
        "loss_trace.csv": "018fec1900cdafdada4645e802159d8d7b3c2b49c06a74048056e12f8cbe54af",
        "apex_report.json": "fa1855e3ebc88899cefdc812ae97ed38bfe61b2ba75ffe5448b5859087c4f0c0",
    },
    "Haswell": {
        "weights.json": "39f15437e52791ad6fcb5222216e653fcf780950b4ab319ff7297662f7676f6d",
        "loss_trace.csv": "018fec1900cdafdada4645e802159d8d7b3c2b49c06a74048056e12f8cbe54af",
        "apex_report.json": "eaeffd888eb775ff104c10932aa8f47b997505abd15530997a08e5070d6d3aa6",
    },
    "Sandybridge": {
        "weights.json": "185f9e7abe93f2210abde52ba1de2ddd0c96a00dfb10f98c4ec7811072b45825",
        "loss_trace.csv": "018fec1900cdafdada4645e802159d8d7b3c2b49c06a74048056e12f8cbe54af",
        "apex_report.json": "a9d48d714ea9ea7709eba12cbc7bd3b08e231f5b8f6fbacb8ad472077279b30a",
    },
}


def _blas_core():
    """The name of the OpenBLAS core whose kernels this process runs, or None for another BLAS.

    Read through ctypes from the BLAS library mapped into this process, as
    perfbench/child.py reads the BLAS thread count.
    """
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def _train_toy(tmp_path, capsys, args=_TRAIN_TOY_ARGS):
    code = cli.main(["train-toy", *args, "--out", str(tmp_path / "weights.json")])
    capsys.readouterr()
    assert code == 0
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("weights.json", "loss_trace.csv", "apex_report.json")}


def _assert_pinned(got, pins):
    core = _blas_core()
    assert core in pins, f"no hashes stored for the OpenBLAS core {core!r}; this run wrote {got}"
    assert got == pins[core], f"OpenBLAS core {core!r}"


def test_train_toy_outputs_are_pinned(tmp_path, capsys):
    _assert_pinned(_train_toy(tmp_path, capsys), _TRAIN_TOY_PINS)


def test_train_toy_d80_outputs_are_pinned(tmp_path, capsys):
    _assert_pinned(_train_toy(tmp_path, capsys, _TRAIN_TOY_D80_ARGS), _TRAIN_TOY_D80_PINS)


def test_train_toy_pin_holds_on_haswell_kernels():
    # OpenBLAS reads OPENBLAS_CORETYPE when it loads, so the d=16 pin reruns in
    # a child process on the Haswell kernels; a host that runs the AVX-512
    # kernels then checks both stored sets.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          f"{Path(__file__).name}::test_train_toy_outputs_are_pinned"],
                         cwd=root / "tests", env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr


def _reference_train(data, cfg):
    """trainer.train with fresh gradients collected through ``apply`` and the textbook Adam."""
    bundle = ProjectionBundle.initialize(data[0].dim, alpha=cfg.alpha, tau=cfg.tau, kappa=cfg.kappa, seed=cfg.seed)
    params = {name: getattr(bundle, name) for name in _MATRICES}
    opt = _TextbookAdam(cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    trace = []
    for step in range(cfg.steps):
        if step % len(data) == 0:
            order = rng.permutation(len(data))
        grads = {}
        batch = data[int(order[step % len(data)])]
        trace.append(contrastive_loss(batch, bundle, cfg.intra_negatives, apply=grads.__setitem__))
        opt.step(params, grads)
    return bundle, trace


# The pins above hold only on the BLAS kernels that recorded them; this check
# runs both trainers in one process on the same BLAS, so it is exact anywhere.
# Adam and the gradient products always split their rows, at d=80 into
# 64 + 16 and at d=16 into all rows and an empty second half; with two
# threads forced, the worker makes each second half and one embedding.
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("args", [_TRAIN_TOY_ARGS, _TRAIN_TOY_D80_ARGS, (*_TRAIN_TOY_ARGS, "--intra-negatives")],
                         ids=["d16", "d80", "d16-intra"])
def test_train_matches_the_reference_trainer_bit_for_bit(args, threads, two_threads):
    opts = cli.build_parser().parse_args(["train-toy", *args, "--out", "unused"])
    h = T.default_hierarchy(opts.parents, opts.children_per_parent, opts.dim, opts.noise, opts.seed)
    data = T.generate_dataset(h, opts.samples, negatives_per_image=opts.negatives, batch_images=opts.batch_images)
    cfg = T.TrainConfig(steps=opts.steps, lr=opts.lr, alpha=opts.alpha, tau=opts.tau, kappa=opts.kappa,
                        seed=opts.seed, intra_negatives=opts.intra_negatives)
    want, want_trace = _reference_train(data, cfg)
    if threads == 2:
        two_threads()
    bundle, trace = T.train(data, cfg)
    assert trace == want_trace
    for name in _MATRICES:
        assert getattr(bundle, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("threads", [1, 2])
def test_training_peak_memory_stays_bounded(threads, two_threads):
    # The parameters, Adam's two moments of each and one gradient buffer are 13
    # [dim, dim] matrices; Adam's two pairs of scratch blocks, one per row
    # half, add 1.0, and the loss's [anchors, dim] temporaries under 0.4. A
    # buffer per matrix reads about 16.9, and steps that allocate their own
    # gradients read about 20.8.
    if threads == 2:
        two_threads()
    dim = 256
    data = T.generate_dataset(T.default_hierarchy(feature_dim=dim), 32, negatives_per_image=3, batch_images=4)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        T.train(data, T.TrainConfig(steps=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / (dim * dim * 8) < 14.5


def test_train_toy_draws_descriptors_once(tmp_path, capsys, monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    _train_toy(tmp_path, capsys)
    assert len(calls) == 1


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
    with pytest.raises(ValueError, match="parents must not be empty"):
        T.SyntheticHierarchy(parents=(), children={})


@pytest.mark.parametrize("noise", [-0.5, float("nan"), float("inf")])
def test_hierarchy_rejects_a_negative_or_non_finite_noise(noise):
    with pytest.raises(ValueError, match=f"^noise_scale must be finite and nonnegative, got {noise}$"):
        T.default_hierarchy(noise_scale=noise)
    T.default_hierarchy(noise_scale=0.0)


@pytest.mark.parametrize("flag, value, message", [
    ("--batch-images", "0", "batch_images must be at least 1"),
    ("--batch-images", "-1", "batch_images must be at least 1"),
    ("--parents", "0", "parents must not be empty"),
    ("--parents", "1", "negatives_per_image must be 0 with one parent, got 2"),
    ("--noise", "-1", "noise_scale must be finite and nonnegative, got -1.0"),
    ("--noise", "nan", "noise_scale must be finite and nonnegative, got nan"),
    ("--noise", "inf", "noise_scale must be finite and nonnegative, got inf"),
])
def test_train_toy_names_an_empty_shape(tmp_path, capsys, flag, value, message):
    code = cli.main(["train-toy", "--steps", "1", flag, value, "--out", str(tmp_path / "w.json")])
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not (tmp_path / "w.json").exists()


@pytest.mark.parametrize("flag", ["--out", "--trace-out", "--apex-out"])
def test_train_toy_checks_output_directories_before_training(tmp_path, capsys, monkeypatch, flag):
    calls = []
    monkeypatch.setattr(T, "train", lambda *args: calls.append(args))
    missing = tmp_path / "missing" / "file"
    argv = ["train-toy", "--steps", "1", "--samples", "4", "--out", str(tmp_path / "w.json")]
    code = cli.main(argv + [flag, str(missing)])
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: cannot write {missing}: no directory {missing.parent}"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("steps", ["1", "3"])
def test_train_toy_rejects_a_nan_lr_before_writing(tmp_path, capsys, steps):
    code = cli.main(["train-toy", "--steps", steps, "--lr", "nan", "--samples", "16",
                     "--out", str(tmp_path / "w.json")])
    assert code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: lr must be finite and nonnegative, got nan"
    assert list(tmp_path.iterdir()) == []


def test_train_toy_reports_divergence_as_one_error_line(tmp_path, capsys):
    code = cli.main(["train-toy", "--steps", "3", "--lr", "1e300", "--samples", "16",
                     "--out", str(tmp_path / "w.json")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: training diverged at step 1: anchor features projected to non-finite coordinates"
    assert len(err) == 2  # the config echo and the error, no traceback
    assert list(tmp_path.iterdir()) == []


def test_train_toy_writes_nothing_when_the_last_step_diverges(tmp_path, capsys):
    # The one step's loss is finite, but its update overflows the projections.
    code = cli.main(["train-toy", "--steps", "1", "--lr", "1e300", "--samples", "16",
                     "--out", str(tmp_path / "w.json")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "error: training diverged at step 0: visual features projected to non-finite coordinates"
    assert len(err) == 2  # the config echo and the error, no warning or traceback
    assert list(tmp_path.iterdir()) == []
