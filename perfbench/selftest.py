"""Self-test of the benchmark's own reference code and input generator.

    python3 perfbench/selftest.py

Run from the root of a hemix checkout. Checks that the batched reference
scorer, confidence filter and GREC matcher agree with the program on sampled
inputs, and that the generator writes byte-identical files for a fixed seed.
Exits 0 when every check passes.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import reference  # noqa: E402
from hemix import grounding, metrics, similarity  # noqa: E402


def check_scorer(rng: np.random.Generator) -> None:
    for dim in (4, 64, 512):
        bundle = similarity.ProjectionBundle.initialize(dim, alpha=float(rng.uniform(0.1, 0.9)),
                                                        kappa=float(rng.uniform(0.5, 2.0)), seed=int(rng.integers(1 << 30)))
        w = {k: getattr(bundle, k) for k in ("w_ev", "w_et", "w_hv", "w_ht")}
        anchors, texts = rng.standard_normal((40, dim)), rng.standard_normal((5, dim))
        scores = reference.score_matrix(anchors, texts, w, bundle.alpha, bundle.kappa)
        for i, j in zip(rng.integers(40, size=30), rng.integers(5, size=30)):
            want = similarity.hemix(anchors[i], texts[j], bundle)
            assert abs(scores[i, j] - want) <= 1e-9 * (1.0 + abs(want)), (dim, i, j, scores[i, j], want)


def check_filter(rng: np.random.Generator) -> None:
    for n, top in ((1, 0.1), (37, 0.1), (200, 0.05), (1000, 0.10)):
        conf = rng.integers(0, 20, size=n) / 20.0  # many ties
        records = [grounding.AnchorRecord(feature=[0.0], confidence=float(c), box=(0, 0, 1, 1)) for c in conf]
        kept = grounding.filter_anchors(records, top)
        idx = reference.keep_indices(conf, top)
        assert len(idx) == len(kept) and all(records[i] is k for i, k in zip(idx, kept)), (n, top)


def check_matcher(rng: np.random.Generator) -> None:
    def boxes(k):
        xy = rng.uniform(0, 50, size=(k, 2)).round(0)
        return np.concatenate([xy, xy + rng.uniform(5, 30, size=(k, 2)).round(0)], axis=1).tolist()

    for _ in range(2000):
        gt, pred = boxes(int(rng.integers(0, 4))), boxes(int(rng.integers(0, 4)))
        if gt and rng.random() < 0.5:
            pred = [list(b) for b in gt[: int(rng.integers(1, len(gt) + 1))]] + pred[:1]
        sample = metrics.EvalSample("s", tuple(map(tuple, gt)), tuple(map(tuple, pred)))
        assert reference.is_perfect(pred, gt, 0.5) == metrics.is_perfect(metrics.match_sample(sample, 0.5))


def check_generator(scratch: Path) -> None:
    sizes = dict(dim=16, n_images=4, anchors_per_image=50, exprs_per_image=5, top_frac=0.1)
    a = gen.write_pipeline_inputs(scratch / "a", 7, **sizes)
    b = gen.write_pipeline_inputs(scratch / "b", 7, **sizes)
    c = gen.write_pipeline_inputs(scratch / "c", 8, **sizes)
    for name in a.input_bytes:
        assert (scratch / "a" / name).read_bytes() == (scratch / "b" / name).read_bytes(), name
    assert (scratch / "a" / "anchors.jsonl").read_bytes() != (scratch / "c" / "anchors.jsonl").read_bytes()
    assert a.predictions == b.predictions and a.expected == b.expected
    assert a.input_bytes == {name: (scratch / "a" / name).stat().st_size for name in a.input_bytes}
    assert set(a.paths) == {"given", "transcript", "rule"} and all(a.paths.values()), a.paths


def main() -> int:
    rng = np.random.default_rng(2024)
    scratch = ROOT / ".perfbench_run" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        for check in (check_scorer, check_filter, check_matcher):
            check(rng)
            print(f"ok   {check.__name__}")
        check_generator(scratch)
        print("ok   check_generator")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
