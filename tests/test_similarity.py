import gc
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from hemix import lorentz as L
from hemix import similarity
from hemix.contrastive import GroundingBatch, ImageRecord, gradient_check
from hemix.similarity import (
    _SPLIT_ELEMENTS,
    _SPLIT_MULADDS,
    ProjectionBundle,
    _both,
    embed_rows,
    hemix,
    load_bundle,
    pair_scores,
    save_bundle,
    score_matrix,
    sim_euclidean,
    sim_hyperbolic,
)


def identity_bundle(dim=2, alpha=0.5, tau=1.0, kappa=1.0, **kw):
    eye = np.eye(dim)
    return ProjectionBundle(eye, eye.copy(), eye.copy(), eye.copy(), alpha=alpha, tau=tau, kappa=kappa, **kw)


class TestSimEuclidean:
    def test_orthogonal_vectors(self):
        b = identity_bundle()
        assert sim_euclidean(np.array([1.0, 0.0]), np.array([0.0, 1.0]), b) == 0.0

    def test_hand_value(self):
        b = identity_bundle()
        assert sim_euclidean(np.array([1.0, 2.0]), np.array([1.0, 2.0]), b) == 5.0

    def test_zero_vector(self):
        b = ProjectionBundle.initialize(4, seed=0)
        assert sim_euclidean(np.zeros(4), np.random.default_rng(0).standard_normal(4), b) == 0.0

    def test_bilinearity_in_fv(self):
        rng = np.random.default_rng(1)
        b = ProjectionBundle.initialize(4, seed=1)
        fv, ft = rng.standard_normal(4), rng.standard_normal(4)
        base = sim_euclidean(fv, ft, b)
        assert sim_euclidean(3.0 * fv, ft, b) == pytest.approx(3.0 * base, rel=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sim_euclidean(np.zeros(3), np.zeros(2), identity_bundle())


class TestEmbedRows:
    def test_zero_maps_to_apex(self):
        out = embed_rows(np.zeros((1, 2)), np.eye(2), np.eye(2), 4.0, "f")
        assert out.x0[0] == 0.5
        assert np.all(out.z == 0)

    def test_identity_projection_matches_lift(self):
        out = embed_rows(np.array([[3.0, 0.0]]), np.eye(2), np.eye(2), 1.0, "f")
        assert out.x0[0] == pytest.approx(math.sqrt(10))

    def test_always_on_hyperboloid(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            w = rng.standard_normal((4, 4))
            kappa = rng.uniform(0.25, 4.0)
            out = embed_rows(rng.standard_normal((1, 4)), w, w, kappa, "f")
            z = out.z[0]
            x = np.concatenate((out.x0, z))[None]
            assert x[0, 0] > 0
            assert abs(L.inner_rows(x, x)[0] + 1.0 / kappa) <= 1e-8 * max(1.0, float(z @ z))

    @pytest.mark.parametrize("dim", [4, 512])
    def test_two_dimensional_input_is_plain_matmul_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        w = [rng.uniform(-0.05, 0.05, (dim, dim)) for _ in range(4)]
        a, t = rng.standard_normal((7, dim)), rng.standard_normal((3, dim))
        v, u = embed_rows(a, w[0], w[1], 0.8, "a"), embed_rows(t, w[2], w[3], 0.8, "t")
        for got, f, m in ((v, a, w), (u, t, w[2:])):
            z = f @ m[1]
            assert np.array_equal(got.e, f @ m[0]) and np.array_equal(got.z, z)
            assert np.array_equal(got.x0, np.sqrt(np.einsum("ij,ij->i", z, z) + 1.0 / 0.8))
        sim_e = v.e @ u.e.T
        sim_h = v.z @ u.z.T - np.outer(v.x0, u.x0)
        assert np.array_equal(pair_scores(v, u, 0.3), 0.7 * sim_e + 0.3 * sim_h)

    def test_weight_stack_matches_each_matrix(self):
        rng = np.random.default_rng(5)
        w_e, w_h = rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 4, 4))
        a, t = rng.standard_normal((5, 4)), rng.standard_normal((2, 4))
        text = embed_rows(t, w_e[0], w_h[0], 1.5, "t")
        stacked = pair_scores(embed_rows(a, w_e, w_h, 1.5, "a"), text, 0.4)
        for s in range(3):
            one = pair_scores(embed_rows(a, w_e[s], w_h[s], 1.5, "a"), text, 0.4)
            np.testing.assert_allclose(stacked[s], one, rtol=1e-13, atol=1e-13)


class TestSimHyperbolic:
    def test_zero_features(self):
        assert sim_hyperbolic(np.zeros(2), np.zeros(2), identity_bundle()) == -1.0

    def test_identical_point_is_maximum(self):
        rng = np.random.default_rng(3)
        b = ProjectionBundle.initialize(4, kappa=2.0, seed=3)
        f = rng.standard_normal(4)
        same = ProjectionBundle(b.w_hv, b.w_et, b.w_hv, b.w_hv, alpha=0.5, tau=1.0, kappa=2.0)
        self_sim = sim_hyperbolic(f, f, same)
        assert self_sim == pytest.approx(-0.5, abs=1e-10)
        for _ in range(20):
            other = rng.standard_normal(4)
            assert sim_hyperbolic(f, other, same) <= self_sim + 1e-10

    def test_hand_value(self):
        b = identity_bundle()
        got = sim_hyperbolic(np.array([math.sinh(1), 0.0]), np.zeros(2), b)
        assert got == pytest.approx(-1.5430806, abs=1e-7)

    def test_bounded_above(self):
        rng = np.random.default_rng(4)
        b = ProjectionBundle.initialize(8, kappa=0.5, seed=4)
        for _ in range(50):
            s = sim_hyperbolic(rng.standard_normal(8), rng.standard_normal(8), b)
            assert s <= -1.0 / 0.5 + 1e-12


class TestHemix:
    def test_alpha_zero_is_bitwise_euclidean(self):
        rng = np.random.default_rng(5)
        b = ProjectionBundle.initialize(4, alpha=0.0, seed=5)
        for _ in range(100):
            fv, ft = rng.standard_normal(4), rng.standard_normal(4)
            assert hemix(fv, ft, b) == sim_euclidean(fv, ft, b)

    def test_alpha_one_is_bitwise_hyperbolic(self):
        rng = np.random.default_rng(6)
        b = ProjectionBundle.initialize(4, alpha=1.0, seed=6)
        for _ in range(100):
            fv, ft = rng.standard_normal(4), rng.standard_normal(4)
            assert hemix(fv, ft, b) == sim_hyperbolic(fv, ft, b)

    def test_hand_value(self):
        # W_E = identity and W_H = 0 pin sim_e = 2 and sim_h = -1 exactly.
        eye, zero = np.eye(2), np.zeros((2, 2))
        b = ProjectionBundle(eye, eye, zero, zero, alpha=0.5, tau=1.0, kappa=1.0)
        assert hemix(np.array([2.0, 0.0]), np.array([1.0, 0.0]), b) == 0.5

    def test_affine_in_alpha(self):
        rng = np.random.default_rng(7)
        mats = ProjectionBundle.initialize(4, seed=7)
        for alpha in (0.25, 0.5, 0.9):
            b = ProjectionBundle(mats.w_ev, mats.w_et, mats.w_hv, mats.w_ht, alpha=alpha, tau=1.0)
            fv, ft = rng.standard_normal(4), rng.standard_normal(4)
            s_e = sim_euclidean(fv, ft, b)
            s_h = sim_hyperbolic(fv, ft, b)
            expected = (1.0 - alpha) * s_e + alpha * s_h
            assert hemix(fv, ft, b) == pytest.approx(expected, abs=1e-15, rel=1e-15)


class TestScoreMatrix:
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (7, 1), (6, 4)])
    def test_entries_match_pairwise_definition(self, n, m):
        rng = np.random.default_rng(20 + n * m)
        b = ProjectionBundle.initialize(8, alpha=0.3, kappa=1.7, seed=n + m)
        a, t = rng.standard_normal((n, 8)), rng.standard_normal((m, 8))
        got = score_matrix(a, t, b)
        assert got.shape == (n, m)
        for i in range(n):
            for j in range(m):
                s_e = float((a[i] @ b.w_ev) @ (t[j] @ b.w_et))
                pv = L.lift(a[i] @ b.w_hv, b.kappa).as_vector()
                pt = L.lift(t[j] @ b.w_ht, b.kappa).as_vector()
                s_h = L.lorentz_inner(pv, pt)
                want = 0.7 * s_e + 0.3 * s_h
                assert got[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_alpha_endpoints_are_the_branch_bitwise(self):
        rng = np.random.default_rng(21)
        mats = ProjectionBundle.initialize(6, kappa=0.8, seed=21)
        w = (mats.w_ev, mats.w_et, mats.w_hv, mats.w_ht)
        b0 = ProjectionBundle(*w, alpha=0.0, kappa=0.8)
        b1 = ProjectionBundle(*w, alpha=1.0, kappa=0.8)
        a, t = rng.standard_normal((5, 6)), rng.standard_normal((3, 6))
        assert np.array_equal(score_matrix(a, t, b0), (a @ mats.w_ev) @ (t @ mats.w_et).T)
        zv, zt = a @ mats.w_hv, t @ mats.w_ht
        lorentz = zv @ zt.T - np.outer(L.lift_time(zv, 0.8), L.lift_time(zt, 0.8))
        assert np.array_equal(score_matrix(a, t, b1), lorentz)

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 4, 1)])
    def test_rejects_non_row_stack(self, shape):
        b = ProjectionBundle.initialize(4, seed=22)
        with pytest.raises(ValueError):
            score_matrix(np.zeros(shape), np.zeros((1, 4)), b)
        with pytest.raises(ValueError):
            score_matrix(np.zeros((1, 4)), np.zeros(shape), b)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rejects_non_finite_projection(self, threads, two_threads):
        # The typed error is the only report: no floating-point warning first,
        # also from a product made on the worker thread.
        if threads == 2:
            two_threads()
        b = ProjectionBundle.initialize(4, seed=23)
        big = ProjectionBundle(*(np.ones((4, 4)),) * 4, alpha=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bundle, bad in (
                (b, [np.nan, 0.0, 0.0, 0.0]),
                (b, [np.inf, 0.0, 0.0, 0.0]),
                (big, [1e308, 1e308, 0.0, 0.0]),  # finite, but the product overflows
            ):
                with pytest.raises(ValueError, match="visual features projected to non-finite"):
                    score_matrix(np.array([bad]), np.ones((1, 4)), bundle)
                with pytest.raises(ValueError, match="text features projected to non-finite"):
                    score_matrix(np.ones((2, 4)), np.vstack([np.ones(4), bad]), bundle)

    def test_rejects_overflowing_lift_time(self):
        # The projections of 1e160 are finite, but their squared norm is not:
        # the lift time overflows, which used to score -inf with no report.
        b = ProjectionBundle.initialize(4, seed=23)
        big = np.full(4, 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="visual features projected to non-finite"):
                score_matrix(big[None], np.ones((1, 4)), b)
            with pytest.raises(ValueError, match="text features projected to non-finite"):
                score_matrix(np.ones((1, 4)), big[None], b)
            with pytest.raises(ValueError, match="visual features projected to non-finite"):
                hemix(big, np.ones(4), b)
            with pytest.raises(ValueError, match="text features projected to non-finite"):
                hemix(np.ones(4), big, b)


class TestBundleContract:
    def test_alpha_outside_unit_interval_rejected(self):
        eye = np.eye(2)
        for alpha in (-0.5, 1.5, math.nan):
            with pytest.raises(ValueError, match=rf"alpha must be in \[0, 1\], got {alpha}"):
                ProjectionBundle(eye, eye, eye, eye, alpha=alpha)

    @pytest.mark.parametrize("bad", [{"tau": 0.0}, {"tau": -1.0}, {"kappa": 0.0}, {"tau": math.inf},
                                     {"tau": math.nan}, {"kappa": math.inf}, {"kappa": math.nan}])
    def test_scalar_validation(self, bad):
        eye = np.eye(2)
        [(name, value)] = bad.items()
        with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {value}"):
            ProjectionBundle(eye, eye, eye, eye, alpha=0.5, **bad)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ProjectionBundle(np.zeros((2, 3)), np.eye(2), np.eye(2), np.eye(2), alpha=0.5)

    def test_matrices_of_different_sizes_rejected(self):
        with pytest.raises(ValueError, match="^all projection matrices must share one dimension$"):
            ProjectionBundle(np.eye(2), np.eye(2), np.eye(3), np.eye(2), alpha=0.5)


MATRICES = ("w_ev", "w_et", "w_hv", "w_ht")


def test_save_load_roundtrip(tmp_path):
    b = ProjectionBundle.initialize(6, alpha=0.3, tau=0.07, kappa=2.0, seed=11)
    path = tmp_path / "w.json"
    save_bundle(b, path)
    loaded = load_bundle(path)
    for name in MATRICES:
        assert np.array_equal(getattr(b, name), getattr(loaded, name))
    assert (loaded.alpha, loaded.tau, loaded.kappa) == (0.3, 0.07, 2.0)


def edit_header(path, old: bytes, new: bytes) -> None:
    """Replaces ``old`` with ``new`` in the header line of the weight file at ``path``."""
    header, newline, payload = path.read_bytes().partition(b"\n")
    assert old in header
    path.write_bytes(header.replace(old, new) + newline + payload)


def test_load_rejects_expmap_strategy(tmp_path):
    b = ProjectionBundle.initialize(2, seed=0)
    path = tmp_path / "w.json"
    save_bundle(b, path)
    data = path.read_bytes()
    edit_header(path, b'"embed_strategy": "linear", ', b"")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: embed_strategy: missing')}$"):
        load_bundle(path)
    path.write_bytes(data)
    edit_header(path, b'"linear"', b'"expmap"')
    with pytest.raises(ValueError):
        load_bundle(path)


@pytest.mark.parametrize("name", ["tau", "kappa"])
@pytest.mark.parametrize("literal", ["Infinity", "NaN"])
def test_load_rejects_non_finite_scalar(tmp_path, name, literal):
    path = tmp_path / "w.json"
    save_bundle(ProjectionBundle.initialize(2, tau=0.5, kappa=0.5, seed=0), path)
    edit_header(path, f'"{name}": 0.5'.encode(), f'"{name}": {literal}'.encode())
    error = f"{path}: {name}: must be finite and positive, got {literal}"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        load_bundle(path)


def test_load_rejects_unknown_layout(tmp_path):
    b = ProjectionBundle.initialize(2, seed=0)
    path = tmp_path / "w.json"
    save_bundle(b, path)
    edit_header(path, b"row-major", b"column-major")
    with pytest.raises(ValueError):
        load_bundle(path)


def header_of_length(data: bytes, length: int) -> bytes:
    """``data`` with spaces added inside its header object, so that the header line, its \n included, is ``length``."""
    header, _, payload = data.partition(b"\n")
    return header[:-1] + b" " * (length - len(header) - 1) + b"}\n" + payload


def with_entry(data: bytes, index: int, value: float) -> bytes:
    """``data`` with the float64 at ``index`` of its payload (matrices in sorted order) replaced by ``value``."""
    start = data.index(b"\n") + 1
    at = start + 8 * (index % ((len(data) - start) // 8))
    return data[:at] + np.array(value, "<f8").tobytes() + data[at + 8:]


# Faults of a saved d=3 file, whose payload is 4 * 9 float64 values (288 bytes), and the start of the message
# that load_bundle gives for each after "<path>: ".
WEIGHT_FAULTS = {
    "truncated payload": (lambda data: data[:-8], "payload has 280 bytes, expected 288"),
    "trailing byte": (lambda data: data + b"\0", "payload has 289 bytes, expected 288"),
    "no payload": (lambda data: data[:data.index(b"\n") + 1], "payload has 0 bytes, expected 288"),
    "header over the bound": (lambda data: header_of_length(data, 4097),
                              "header: not one line of at most 4096 bytes ending in \\n"),
    "header with no newline": (lambda data: data[:data.index(b"\n")],
                               "header: not one line of at most 4096 bytes ending in \\n"),
    "empty": (lambda data: b"", "header: not one line of at most 4096 bytes ending in \\n"),
    "header not UTF-8": (lambda data: data.replace(b'"linear"', b'"lin\xffear"', 1),
                         "'utf-8' codec can't decode byte 0xff"),
    "header not JSON": (lambda data: data.replace(b'"tau": ', b'"tau" ', 1), "Expecting ':' delimiter: line 1"),
    "header not an object": (lambda data: b"[1, 2]" + data[data.index(b"\n"):],
                             "a weight file must be a JSON object"),
    "header nested too deep": (lambda data: b"[" * 2000 + b"]" * 2000 + data[data.index(b"\n"):],
                               "maximum recursion depth exceeded"),
    "dim of another size": (lambda data: data.replace(b'"dim": 3', b'"dim": 2', 1),
                            "payload has 288 bytes, expected 128"),
    "unknown encoding": (lambda data: data.replace(b"raw-f8le", b"raw-f4le", 1),
                         'encoding: must be "raw-f8le", got "raw-f4le"'),
    "no encoding": (lambda data: data.replace(b'"encoding": "raw-f8le", ', b"", 1), "encoding: missing"),
    "no embed_strategy": (lambda data: data.replace(b'"embed_strategy": "linear", ', b"", 1),
                          "embed_strategy: missing"),
    "NaN entry": (lambda data: with_entry(data, 0, math.nan), "w_et contains non-finite entries"),
    "infinite entry": (lambda data: with_entry(data, -1, -math.inf), "w_hv contains non-finite entries"),
}


def saved(tmp_path, dim: int, seed: int = 0) -> tuple:
    """(path, bytes) of a seeded bundle saved at tmp_path/w.json."""
    path = tmp_path / "w.json"
    save_bundle(ProjectionBundle.initialize(dim, seed=seed), path)
    return path, path.read_bytes()


@pytest.mark.parametrize("fault", sorted(WEIGHT_FAULTS))
def test_each_weight_file_fault_is_one_value_error_naming_the_file(tmp_path, fault):
    edit, error = WEIGHT_FAULTS[fault]
    path, data = saved(tmp_path, 3)
    path.write_bytes(edit(data))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {error}')}"):
        load_bundle(path)


def test_a_header_line_at_the_bound_is_read(tmp_path):
    path, data = saved(tmp_path, 3, seed=6)
    path.write_bytes(header_of_length(data, 4096))
    assert load_bundle(path).w_ht.tobytes() == ProjectionBundle.initialize(3, seed=6).w_ht.tobytes()


@pytest.mark.parametrize("dim", [2048, 10 ** 6, 10 ** 30])
def test_a_dim_far_beyond_the_file_fails_before_any_allocation(tmp_path, dim):
    # A reader that allocated from the header's dim first would ask for 29 TiB at dim 10**6 and raise MemoryError.
    path, data = saved(tmp_path, 3)
    path.write_bytes(data.replace(b'"dim": 3', f'"dim": {dim}'.encode(), 1))
    tracemalloc.start()
    try:
        error = f"{path}: payload has 288 bytes, expected {32 * dim * dim}"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            load_bundle(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("edit, error", [
    (lambda data: data, None),
    (lambda data: data[:-8], "payload has 131064 bytes, expected 131072"),
    (lambda data: data + b"\0", "payload has more than the 131072 bytes expected"),
    # 3.2e17 bytes of matrices, beyond any address space, so the allocation fails on every host.
    (lambda data: data.replace(b'"dim": 64', b'"dim": 100000000', 1),
     "dim: 100000000 needs more memory than this process may allocate"),
], ids=["whole", "truncated", "trailing byte", "dim beyond memory"])
def test_a_fifo_is_read_once(tmp_path, monkeypatch, edit, error):
    # At d=64 the 131,072-byte payload is larger than a pipe's buffer, so it arrives in several reads.
    # A pipe's size is known only at its end, so a dim far beyond it is caught when the matrices are allocated.
    path, data = saved(tmp_path, 64, seed=8)
    data = edit(data)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    opened = []
    monkeypatch.setattr(similarity, "open", lambda *args: opened.append(args) or open(*args), raising=False)

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader closed the pipe at a fault in the header
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        if error is None:
            assert load_bundle(fifo).w_hv.tobytes() == ProjectionBundle.initialize(64, seed=8).w_hv.tobytes()
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(f'{fifo}: {error}')}$"):
                load_bundle(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert opened == [(fifo, "rb")]


VMHWM_CHILD = """
import sys
from hemix import similarity

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024

before = peak()
similarity.load_bundle(sys.argv[1])
print(peak() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_a_d512_load_raises_the_peak_by_one_copy_of_the_matrices(tmp_path):
    # The base64-JSON reader this format replaced raised VmHWM by 13.7 MB at d=512, against 8.4 MB of matrices.
    path, _ = saved(tmp_path, 512, seed=1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(Path(similarity.__file__).parents[1]),
                                                                    os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", VMHWM_CHILD, str(path)], env=env, check=True, capture_output=True,
                         text=True, timeout=60).stdout
    matrices = 4 * 8 * 512 * 512
    assert int(out) <= matrices + (1 << 20), (int(out), matrices)


class TestWeightFormat:
    EDGE = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            0.1, 1 / 3, -2.718281828459045, 1.0000000000000002, 123456789.01234567)

    def test_bitwise_roundtrip_d512(self, tmp_path):
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((512, 512)) for _ in range(4)]
        for k, m in enumerate(mats):
            m.flat[k : k + len(self.EDGE)] = self.EDGE
        b = ProjectionBundle(*mats, alpha=0.5)
        path = tmp_path / "w.json"
        save_bundle(b, path)
        loaded = load_bundle(path)
        for name in MATRICES:
            got = getattr(loaded, name)
            assert got.tobytes() == getattr(b, name).tobytes()
            assert got.flags.writeable and got.flags.c_contiguous
        assert np.signbit(loaded.w_ev.flat[0]) and loaded.w_ev.flat[1] == 5e-324
        again = tmp_path / "again.json"
        save_bundle(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_bytes_are_a_sorted_json_header_line_then_the_sorted_matrices(self, tmp_path):
        b = ProjectionBundle.initialize(3, alpha=0.3, tau=0.05, kappa=2.0, seed=4)
        path = tmp_path / "w.json"
        save_bundle(b, path)
        header = {"alpha": 0.3, "dim": 3, "embed_strategy": "linear", "encoding": "raw-f8le",
                  "kappa": 2.0, "layout": "row-major", "tau": 0.05}
        payload = b"".join(getattr(b, name).astype("<f8").tobytes() for name in sorted(MATRICES))
        assert path.read_bytes() == (json.dumps(header, sort_keys=True) + "\n").encode() + payload
        assert len(payload) == 4 * 8 * 3 * 3

    @pytest.mark.parametrize("name", ["weights", "w.npz", "w.json.gz"])
    def test_the_file_name_is_not_read(self, tmp_path, name):
        b = ProjectionBundle.initialize(3, seed=2)
        save_bundle(b, tmp_path / "w.json")
        save_bundle(b, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (tmp_path / "w.json").read_bytes()
        assert load_bundle(tmp_path / name).w_et.tobytes() == b.w_et.tobytes()

    def test_loaded_bundle_supports_gradient_check(self, tmp_path):
        path, _ = saved(tmp_path, 4, seed=9)
        rng = np.random.default_rng(9)
        batch = GroundingBatch(
            [ImageRecord([rng.standard_normal(4) for _ in range(3)], rng.standard_normal(4)) for _ in range(3)]
        )
        assert gradient_check(batch, load_bundle(path), epsilon=1e-5) < 1e-4


class TestTwoThreads:
    """similarity._both runs its second callable on the worker thread where the work is large."""

    # cpus "forced" calls the two_threads fixture, under which any work splits.
    @pytest.mark.parametrize("cpus, size, on_worker", [
        (2, {}, False),
        (2, {"elements": _SPLIT_ELEMENTS - 1, "muladds": _SPLIT_MULADDS - 1}, False),
        (2, {"elements": _SPLIT_ELEMENTS}, True),
        (2, {"muladds": _SPLIT_MULADDS}, True),
        (1, {"elements": _SPLIT_ELEMENTS, "muladds": _SPLIT_MULADDS}, False),
        ("forced", {}, True),
    ])
    def test_returns_both_results_with_the_second_made_on_the_worker(self, monkeypatch, two_threads, cpus, size,
                                                                     on_worker):
        if cpus == "forced":
            two_threads()
        else:
            monkeypatch.setattr(similarity, "_cpu_count", lambda: cpus)
        with np.errstate(invalid="ignore", over="raise"):
            mine, theirs = _both(lambda: (threading.get_ident(), np.geterr()),
                                 lambda: (threading.get_ident(), np.geterr()), **size)
        assert mine[0] == threading.get_ident()
        assert (theirs[0] != mine[0]) == on_worker
        assert mine[1] == theirs[1]
        assert (theirs[1]["invalid"], theirs[1]["over"]) == ("ignore", "raise")

    @pytest.mark.parametrize("forced", [True, False])
    @pytest.mark.parametrize("raiser", ["first", "second", "both"])
    def test_raises_only_once_the_other_half_is_done(self, two_threads, raiser, forced):
        # The half that raises does so at once; the other takes 50 ms, and
        # must have finished when the exception reaches the caller. Run here,
        # below the size rule, an exception of first skips second.
        if forced:
            two_threads()
        finished = []

        def slow(side):
            time.sleep(0.05)
            finished.append(side)

        def fails(side):
            raise ArithmeticError(side)

        first = fails if raiser in ("first", "both") else slow
        second = fails if raiser in ("second", "both") else slow
        with pytest.raises(ArithmeticError, match="^second$" if raiser == "second" else "^first$"):
            _both(lambda: first("first"), lambda: second("second"))
        if forced:
            assert finished == ([] if raiser == "both" else ["second" if raiser == "first" else "first"])
        else:
            assert finished == (["first"] if raiser == "second" else [])
        assert _both(lambda: 1, lambda: 2) == (1, 2)  # the worker serves the next call

    def test_callers_on_several_threads_each_get_their_own_results(self, two_threads):
        # A call that finds the worker busy runs both halves on its own thread.
        two_threads()
        wrong, switch = [], sys.getswitchinterval()

        def caller(k):
            for i in range(300):
                if _both(lambda: (k, i), lambda: (k, -i)) != ((k, i), (k, -i)):
                    wrong.append((k, i))

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_the_worker_keeps_no_array_of_a_finished_call(self, two_threads):
        two_threads()

        def job(values):  # second alone holds ``values``
            return lambda: float(values.sum())

        values = np.arange(4.0)
        used, second = weakref.ref(values), job(values)
        del values
        assert _both(lambda: 0.0, second) == (0.0, 6.0)
        del second
        gc.collect()
        assert used() is None

    @pytest.mark.parametrize("nested_in", ["first", "second"])
    def test_a_call_made_inside_either_half_completes(self, two_threads, nested_in):
        # The worker is busy while either half runs, so the nested call runs
        # both its halves on the thread of the half that makes it.
        two_threads()

        def nested():
            return threading.get_ident(), _both(threading.get_ident, threading.get_ident)

        halves = (nested, lambda: None) if nested_in == "first" else (lambda: None, nested)
        got = []
        caller = threading.Thread(target=lambda: got.append(_both(*halves)), daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        here, inner = got[0][0 if nested_in == "first" else 1]
        assert inner == (here, here)
        assert (here == caller.ident) == (nested_in == "first")
