import base64
import json
import math
import re
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from hemix import lorentz as L
from hemix.contrastive import GroundingBatch, ImageRecord, gradient_check
from hemix.similarity import (
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


def test_save_load_roundtrip(tmp_path):
    b = ProjectionBundle.initialize(6, alpha=0.3, tau=0.07, kappa=2.0, seed=11)
    path = tmp_path / "w.json"
    save_bundle(b, path)
    loaded = load_bundle(path)
    for name in ("w_ev", "w_et", "w_hv", "w_ht"):
        assert np.array_equal(getattr(b, name), getattr(loaded, name))
    assert (loaded.alpha, loaded.tau, loaded.kappa) == (0.3, 0.07, 2.0)


def test_load_rejects_expmap_strategy(tmp_path):
    b = ProjectionBundle.initialize(2, seed=0)
    path = tmp_path / "w.json"
    save_bundle(b, path)
    text = path.read_text()
    assert '"embed_strategy": "linear"' in text
    path.write_text(text.replace('"embed_strategy": "linear", ', ""))
    assert np.array_equal(load_bundle(path).w_ev, b.w_ev)
    path.write_text(text.replace('"linear"', '"expmap"'))
    with pytest.raises(ValueError):
        load_bundle(path)


@pytest.mark.parametrize("name", ["tau", "kappa"])
@pytest.mark.parametrize("literal", ["Infinity", "NaN"])
def test_load_rejects_non_finite_scalar(tmp_path, name, literal):
    path = tmp_path / "w.json"
    save_bundle(ProjectionBundle.initialize(2, tau=0.5, kappa=0.5, seed=0), path)
    text = path.read_text()
    assert f'"{name}": 0.5' in text
    path.write_text(text.replace(f'"{name}": 0.5', f'"{name}": {literal}'))
    error = f"{path}: {name}: must be finite and positive, got {literal}"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        load_bundle(path)


def test_load_rejects_unknown_layout(tmp_path):
    b = ProjectionBundle.initialize(2, seed=0)
    path = tmp_path / "w.json"
    save_bundle(b, path)
    path.write_text(path.read_text().replace("row-major", "column-major"))
    with pytest.raises(ValueError):
        load_bundle(path)


class TestWeightFormat:
    EDGE = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            0.1, 1 / 3, -2.718281828459045, 1.0000000000000002, 123456789.01234567)

    def saved(self, tmp_path, dim=3, seed=0):
        path = tmp_path / "w.json"
        save_bundle(ProjectionBundle.initialize(dim, seed=seed), path)
        return path, json.loads(path.read_text())

    def test_bitwise_roundtrip_d512(self, tmp_path):
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((512, 512)) for _ in range(4)]
        for k, m in enumerate(mats):
            m.flat[k : k + len(self.EDGE)] = self.EDGE
        b = ProjectionBundle(*mats, alpha=0.5)
        path = tmp_path / "w.json"
        save_bundle(b, path)
        loaded = load_bundle(path)
        for name in ("w_ev", "w_et", "w_hv", "w_ht"):
            got = getattr(loaded, name)
            assert got.tobytes() == getattr(b, name).tobytes()
            assert got.flags.writeable and got.flags.c_contiguous
        assert np.signbit(loaded.w_ev.flat[0]) and loaded.w_ev.flat[1] == 5e-324
        again = tmp_path / "again.json"
        save_bundle(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_header_is_text_and_payload_is_base64(self, tmp_path):
        _, payload = self.saved(tmp_path, dim=3)
        assert payload["encoding"] == "base64-f8le"
        assert sorted(payload) == ["alpha", "dim", "embed_strategy", "encoding", "kappa", "layout",
                                   "tau", "w_et", "w_ev", "w_ht", "w_hv"]
        assert len(base64.b64decode(payload["w_ev"], validate=True)) == 8 * 3 * 3

    def test_bytes_are_sorted_json_dumps(self, tmp_path):
        b = ProjectionBundle.initialize(3, alpha=0.3, tau=0.05, kappa=2.0, seed=4)
        path = tmp_path / "w.json"
        save_bundle(b, path)
        payload = {"alpha": 0.3, "dim": 3, "embed_strategy": "linear", "encoding": "base64-f8le",
                   "kappa": 2.0, "layout": "row-major", "tau": 0.05}
        for name in ("w_ev", "w_et", "w_hv", "w_ht"):
            payload[name] = base64.b64encode(getattr(b, name).astype("<f8").tobytes()).decode()
        assert path.read_bytes() == (json.dumps(payload, sort_keys=True) + "\n").encode()

    def test_garbled_base64_rejected(self, tmp_path):
        path, payload = self.saved(tmp_path)
        payload["w_et"] = "!" + payload["w_et"][1:]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="w_et"):
            load_bundle(path)

    def test_short_payload_rejected(self, tmp_path):
        path, payload = self.saved(tmp_path)
        payload["w_hv"] = base64.b64encode(base64.b64decode(payload["w_hv"])[:-8]).decode()
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="w_hv"):
            load_bundle(path)

    def test_unknown_encoding_rejected(self, tmp_path):
        path, payload = self.saved(tmp_path)
        payload["encoding"] = "base64-f4le"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="base64-f4le"):
            load_bundle(path)
        # A file without the key is not read as some other form.
        del payload["encoding"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: encoding: missing$"):
            load_bundle(path)

    def test_loaded_bundle_supports_gradient_check(self, tmp_path):
        path, _ = self.saved(tmp_path, dim=4, seed=9)
        rng = np.random.default_rng(9)
        batch = GroundingBatch(
            [ImageRecord([rng.standard_normal(4) for _ in range(3)], rng.standard_normal(4)) for _ in range(3)]
        )
        assert gradient_check(batch, load_bundle(path), epsilon=1e-5) < 1e-4


class TestTwoThreads:
    """similarity._both runs its second callable on the worker thread."""

    def test_returns_both_results_with_the_second_made_on_the_worker(self):
        with np.errstate(invalid="ignore", over="raise"):
            mine, theirs = _both(lambda: (threading.get_ident(), np.geterr()),
                                 lambda: (threading.get_ident(), np.geterr()))
        assert mine[0] == threading.get_ident() != theirs[0]
        assert mine[1] == theirs[1]
        assert (theirs[1]["invalid"], theirs[1]["over"]) == ("ignore", "raise")

    @pytest.mark.parametrize("raiser", ["first", "second", "both"])
    def test_raises_only_once_the_other_half_is_done(self, raiser):
        # The half that raises does so at once; the other takes 50 ms, and
        # must have finished when the exception reaches the caller.
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
        assert finished == ([] if raiser == "both" else ["second" if raiser == "first" else "first"])
        assert _both(lambda: 1, lambda: 2) == (1, 2)  # the worker serves the next call

    def test_callers_on_several_threads_each_get_their_own_results(self):
        # A call that finds the worker busy runs both halves on its own thread.
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
