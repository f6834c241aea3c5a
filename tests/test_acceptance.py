"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings.
"""

import contextlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from hemix import cli, lorentz
from hemix.contrastive import GroundingBatch, ImageRecord, gradient_check
from hemix.decouple import DecoupleResult, ParseError, parse_response, render
from hemix.metrics import EvalSample, match_sample
from hemix.mixture import MixtureErrorModel, monte_carlo_mse, mse_of_mix, optimal_alpha, quadratic_coeffs
from hemix.similarity import ProjectionBundle, hemix, sim_euclidean, sim_hyperbolic
from hemix import trainer
from naive_oracle import naive_match

DATA = Path(__file__).parent / "data"


@contextlib.contextmanager
def criterion(label, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL ({time.monotonic() - start:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed < budget_s else f"FAIL (over {budget_s}s budget)"
    print(f"[acceptance] {label}: {status} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"{label} exceeded its {budget_s}s runtime budget"


def test_c1_geometry_suite():
    with criterion("C1 geometry-suite", budget_s=5.0):
        checks = [
            lorentz.check_hyperboloid_closure(seed=42, cases=1000),
            lorentz.check_exp_log_inverse(seed=43, cases=1000),
            lorentz.check_distance_axioms(seed=44, cases=1000),
            lorentz.check_inner_monotonicity(seed=45, cases=1000),
        ]
        for result in checks:
            assert result.passed, f"{result.name}: {result.detail}"


def test_c2_gradient_fidelity():
    with criterion("C2 gradient-fidelity", budget_s=30.0):
        rng = np.random.default_rng(42)
        dims = [4, 8, 16]
        worst = 0.0
        for i in range(50):
            dim = dims[i % 3]
            bundle = ProjectionBundle.initialize(
                dim,
                alpha=float(rng.uniform(0.1, 0.9)),
                tau=float(rng.uniform(0.05, 1.0)),
                kappa=float(rng.uniform(0.25, 4.0)),
                seed=int(rng.integers(1 << 31)),
            )
            images = [
                ImageRecord([rng.standard_normal(dim) for _ in range(int(rng.integers(1, 5)))],
                            rng.standard_normal(dim))
                for _ in range(int(rng.integers(1, 5)))
            ]
            err = gradient_check(
                GroundingBatch(images), bundle, epsilon=1e-5, intra_negatives=bool(i % 2)
            )
            worst = max(worst, err)
        assert worst < 1e-4, f"max relative gradient error {worst:.3e}"


def test_c3_variance_reduction_proposition():
    with criterion("C3 variance-reduction", budget_s=60.0):
        rng = np.random.default_rng(42)
        models = []
        while len(models) < 100:
            m = MixtureErrorModel(
                b_e=float(rng.uniform(-2, 2)),
                b_h=float(rng.uniform(-2, 2)),
                sigma_e=float(rng.uniform(0.05, 2)),
                sigma_h=float(rng.uniform(0.05, 2)),
                rho=float(rng.uniform(-1, 0.999)),
            )
            if m.rho < 1.0 or m.b_e != m.b_h:
                models.append(m)

        for m in models:
            a, b, c = quadratic_coeffs(m)
            alpha = optimal_alpha(m)
            assert alpha is not None
            best = mse_of_mix(alpha, m)
            assert best < min(mse_of_mix(0.0, m), mse_of_mix(1.0, m))
            assert abs(best - (c - b * b / a)) <= 1e-12

        for i, m in enumerate(models[:20]):
            alpha = float(rng.uniform(0, 1))
            estimate, stderr = monte_carlo_mse(alpha, m, n=1_000_000, seed=1000 + i)
            assert abs(estimate - mse_of_mix(alpha, m)) <= 3.0 * stderr


def test_c4_hemix_endpoints_and_affinity():
    with criterion("C4 hemix-endpoints", budget_s=30.0):
        rng = np.random.default_rng(42)
        dim = 8
        mats = ProjectionBundle.initialize(dim, seed=7)
        b0 = ProjectionBundle(mats.w_ev, mats.w_et, mats.w_hv, mats.w_ht, alpha=0.0, tau=0.07)
        b1 = ProjectionBundle(mats.w_ev, mats.w_et, mats.w_hv, mats.w_ht, alpha=1.0, tau=0.07)
        bmid = ProjectionBundle(mats.w_ev, mats.w_et, mats.w_hv, mats.w_ht, alpha=0.37, tau=0.07)
        for _ in range(1000):
            fv, ft = rng.standard_normal(dim), rng.standard_normal(dim)
            s_e = sim_euclidean(fv, ft, b0)
            s_h = sim_hyperbolic(fv, ft, b1)
            assert hemix(fv, ft, b0) == s_e  # bit-for-bit
            assert hemix(fv, ft, b1) == s_h  # bit-for-bit
            expected = (1.0 - 0.37) * hemix(fv, ft, b0) + 0.37 * hemix(fv, ft, b1)
            got = hemix(fv, ft, bmid)
            assert abs(got - expected) <= math.ulp(max(abs(expected), 1.0))


def test_c5_metrics_oracle():
    with criterion("C5 metrics-oracle", budget_s=10.0):
        box = (0.0, 0.0, 10.0, 10.0)
        near = (0.0, 0.0, 10.0, 8.0)
        far = (50.0, 50.0, 60.0, 60.0)
        hand = [
            (EvalSample("empty", (), ()), (0, 0, 0, 1.0)),
            (EvalSample("perfect", (box,), (box,)), (1, 0, 0, 1.0)),
            (EvalSample("dup", (box,), (near, far)), (1, 1, 0, 2 / 3)),
        ]
        for s, want in hand:
            r = match_sample(s, 0.5)
            assert (r.tp, r.fp, r.fn) == want[:3]
            assert r.f1 == pytest.approx(want[3], abs=1e-15)

        rng = np.random.default_rng(42)
        for _ in range(10_000):
            def boxes(n):
                out = []
                for _ in range(n):
                    x1, y1 = rng.uniform(0, 50, size=2)
                    w, h = rng.uniform(1, 40, size=2)
                    out.append((float(x1), float(y1), float(x1 + w), float(y1 + h)))
                return out

            gt = boxes(int(rng.integers(0, 6)))
            pred = boxes(int(rng.integers(0, 6)))
            got = match_sample(EvalSample("r", tuple(gt), tuple(pred)), 0.5)
            want = naive_match(gt, pred, 0.5)
            assert (got.tp, got.fp, got.fn) == want[:3]


def test_c6_decoupling_grammar():
    with criterion("C6 decoupling-grammar", budget_s=30.0):
        transcripts = {
            "0": (0, ()),
            "2\n1.a guy in green\n2.a rightmost guy": (2, ("a guy in green", "a rightmost guy")),
            (
                "3\n1.first glass is on the left\n2.second glass is in the middle"
                "\n3. third glass is on the right side"
            ): (3, ("first glass is on the left", "second glass is in the middle",
                    "third glass is on the right side")),
        }
        for raw, (count, phrases) in transcripts.items():
            r = parse_response(raw)
            assert (r.count, r.phrases) == (count, phrases)

        rng = np.random.default_rng(42)
        words = ["left", "right", "guy", "glass", "person", "red", "2", "tall", "a"]
        for _ in range(1000):
            k = int(rng.integers(0, 7))
            phrases = tuple(" ".join(rng.choice(words, size=rng.integers(1, 6))) for _ in range(k))
            result = DecoupleResult(k, phrases)
            assert parse_response(render(result)) == result

        # Corruption fuzz: the parser may accept or reject, but any rejection
        # must be a ParseError carrying a line number.
        corpus = list(transcripts) + ["5\n1. a\n2. b", "x", "1\n\n1. a", "2\n2. a\n1. b"]
        for _ in range(1000):
            base = corpus[int(rng.integers(len(corpus)))]
            chars = list(base)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(len(chars)))
                chars[pos] = chr(int(rng.integers(32, 127)))
            mutated = "".join(chars)
            try:
                out = parse_response(mutated)
                assert out.count == len(out.phrases)
            except ParseError as exc:
                assert exc.line_number >= 1
        for bad in ("", "2\n1. person", "0\nstray"):
            with pytest.raises(ParseError):
                parse_response(bad)


def test_c7_toy_training():
    with criterion("C7 toy-training", budget_s=120.0):
        hierarchy = trainer.default_hierarchy()  # 3 parents x 3 children, dim 8
        data = trainer.generate_dataset(hierarchy, 256, negatives_per_image=2, batch_images=2)
        cfg = trainer.TrainConfig(steps=500, seed=42, alpha=0.5)
        bundle, trace = trainer.train(data, cfg)

        initial = float(np.mean(trace[:10]))
        final = float(np.mean(trace[-10:]))
        # Regression baselines from the first green run (seed 42):
        # initial 0.91814, final 0.39297, accuracy 0.97, apex ratio 0.97835.
        assert final < 0.5 * initial, f"final {final:.4f} vs initial {initial:.4f}"

        eval_data = trainer.generate_dataset(
            hierarchy, 200, negatives_per_image=2, batch_images=2, seed=42 + 9999
        )
        accuracy = trainer.selection_accuracy(eval_data, bundle)
        assert accuracy >= 0.9, f"selection accuracy {accuracy:.3f}"

        ratio = trainer.apex_report(bundle, hierarchy)["parent_child_ratio"]
        assert ratio is not None and ratio < 1.0, f"parent/child norm ratio {ratio:.4f}"


def test_c8_pipeline_golden_file(tmp_path, capsys):
    with criterion("C8 pipeline-golden", budget_s=30.0):
        preds = tmp_path / "preds.jsonl"
        report_path = tmp_path / "report.json"
        code = cli.main([
            "pipeline",
            "--anchors", str(DATA / "anchors.jsonl"),
            "--texts", str(DATA / "texts.jsonl"),
            "--weights", str(DATA / "weights.json"),
            "--gt", str(DATA / "gt.jsonl"),
            "--offline",
            "--out", str(preds),
            "--report", str(report_path),
        ])
        capsys.readouterr()
        assert code == 0
        assert preds.read_bytes() == (DATA / "golden_predictions.jsonl").read_bytes()
        assert report_path.read_bytes() == (DATA / "golden_report.json").read_bytes()

        # The fixture's no-target sample flows through as K = 0 and feeds N-acc.
        report = json.loads(report_path.read_text())
        pred_map = {}
        for line in preds.read_text().splitlines()[1:]:
            rec = json.loads(line)
            pred_map[rec["sample_id"]] = rec["boxes"]
        assert pred_map["s3"] == []
        assert report["n_acc"] == 0.5
