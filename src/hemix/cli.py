"""Command-line entry point.

Subcommands: geom-check, grad-check, analyze-alpha, train-toy, decouple,
ground, eval, and pipeline (decouple -> ground -> eval over JSONL files).

Every run echoes its resolved configuration as one JSON line on stderr.
Exit codes: 0 success, 1 completed with failures (failed checks or skipped
samples), 2 configuration or IO error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

# Only what ground, eval, pipeline and decouple run is loaded here; each other command
# imports its modules when it runs (README: "Scale").
from . import decouple, grounding, ingest, jsonl, lorentz, metrics, records, similarity


def _echo_config(args: argparse.Namespace) -> None:
    """One JSON line of the options; a non-finite float is echoed as the string "inf", "-inf" or "nan"."""
    cfg = {k: str(v) if isinstance(v, float) and not math.isfinite(v) else v
           for k, v in vars(args).items() if k != "func"}
    print(json.dumps(cfg, sort_keys=True, default=str), file=sys.stderr)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _check_output_dirs(*paths: Path) -> None:
    """Fail before any work when the directory of an output file is missing."""
    for path in paths:
        if not path.parent.is_dir():
            raise FileNotFoundError(f"cannot write {path}: no directory {path.parent}")


# ---------------------------------------------------------------------------
# geom-check / grad-check
# ---------------------------------------------------------------------------

def _check_count(flag: str, value: int) -> None:
    """Reject a verification run that would check nothing."""
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")


def cmd_geom_check(args) -> int:
    _check_count("--cases", args.cases)
    results = lorentz.run_property_suite(seed=args.seed, cases=args.cases)
    ok = True
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        ok = ok and r.passed
    return 0 if ok else 1


def _random_batch(rng: np.random.Generator, dim: int):
    from . import contrastive

    n_images = int(rng.integers(1, 5))
    images = []
    for _ in range(n_images):
        n_anchors = int(rng.integers(1, 5))
        images.append(
            contrastive.ImageRecord(
                anchors=rng.standard_normal((n_anchors, dim)),
                text=rng.standard_normal(dim),
            )
        )
    return contrastive.GroundingBatch(images=images)


def cmd_grad_check(args) -> int:
    _check_count("--batches", args.batches)
    lorentz._positive("--tolerance", args.tolerance)
    from . import contrastive

    rng = np.random.default_rng(args.seed)
    dims = [4, 8, 16]
    worst = 0.0
    for i in range(args.batches):
        dim = dims[i % len(dims)]
        bundle = similarity.ProjectionBundle.initialize(
            dim, alpha=float(rng.uniform(0.1, 0.9)), tau=float(rng.uniform(0.05, 1.0)),
            kappa=float(rng.uniform(0.25, 4.0)), seed=int(rng.integers(1 << 31)),
        )
        batch = _random_batch(rng, dim)
        intra = bool(rng.integers(2))
        err = contrastive.gradient_check(batch, bundle, epsilon=args.epsilon, intra_negatives=intra)
        worst = max(worst, err)
    passed = worst < args.tolerance
    print(f"{'ok  ' if passed else 'FAIL'} gradient-check: max rel error {worst:.3e} "
          f"over {args.batches} batches (tolerance {args.tolerance:g})")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# analyze-alpha
# ---------------------------------------------------------------------------

def cmd_analyze_alpha(args) -> int:
    from . import mixture

    model = mixture.MixtureErrorModel(
        b_e=args.b_e, b_h=args.b_h, sigma_e=args.sigma_e, sigma_h=args.sigma_h, rho=args.rho
    )
    a, b, c = mixture.quadratic_coeffs(model)
    alpha_star = mixture.optimal_alpha(model)
    out = {
        "coeffs": {"a": a, "b": b, "c": c},
        "alpha_star": alpha_star,
        "degenerate": alpha_star is None,
        "alpha_star_in_unit_interval": (alpha_star is not None and 0.0 < alpha_star < 1.0),
        "mse_curve": [
            {"alpha": round(x, 1), "mse": mixture.mse_of_mix(round(x, 1), model)}
            for x in np.linspace(0.0, 1.0, 11)
        ],
    }
    if alpha_star is not None:
        out["mse_at_alpha_star"] = mixture.mse_of_mix(alpha_star, model)
    if args.mc_n:
        probe = alpha_star if alpha_star is not None else 0.5
        estimate, stderr = mixture.monte_carlo_mse(probe, model, n=args.mc_n, seed=args.seed)
        closed = mixture.mse_of_mix(probe, model)
        out["monte_carlo"] = {
            "alpha": probe,
            "n": args.mc_n,
            "estimate": estimate,
            "stderr": stderr,
            "closed_form": closed,
            "within_3_stderr": abs(estimate - closed) <= max(3.0 * stderr, 1e-12),
        }
    print(_dump(out))
    return 0


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

def cmd_train_toy(args) -> int:
    import csv

    from . import trainer

    out = Path(args.out)
    trace_path = Path(args.trace_out) if args.trace_out else out.parent / "loss_trace.csv"
    apex_path = Path(args.apex_out) if args.apex_out else out.parent / "apex_report.json"
    _check_output_dirs(out, trace_path, apex_path)
    cfg = trainer.TrainConfig(
        steps=args.steps, lr=args.lr, alpha=args.alpha, tau=args.tau,
        kappa=args.kappa, seed=args.seed, intra_negatives=args.intra_negatives,
    )
    hierarchy = trainer.default_hierarchy(
        n_parents=args.parents,
        children_per_parent=args.children_per_parent,
        feature_dim=args.dim,
        noise_scale=args.noise,
        seed=args.seed,
    )
    data = trainer.generate_dataset(
        hierarchy, args.samples,
        negatives_per_image=args.negatives, batch_images=args.batch_images,
    )
    try:
        bundle, trace = trainer.train(data, cfg)
    except trainer.TrainingDiverged as exc:  # a RuntimeError; main reports ValueError
        raise ValueError(str(exc)) from exc

    similarity.save_bundle(bundle, out)
    with trace_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        writer.writerows((i, f"{loss:.10g}") for i, loss in enumerate(trace))
    report = trainer.apex_report(bundle, hierarchy)
    apex_path.write_text(_dump(report) + "\n")

    eval_data = trainer.generate_dataset(
        hierarchy, 200, negatives_per_image=args.negatives,
        batch_images=args.batch_images, seed=args.seed + 9999,
    )
    head = float(np.mean(trace[:10]))
    tail = float(np.mean(trace[-10:]))
    summary = {
        "initial_loss": head,
        "final_loss": tail,
        "selection_accuracy": trainer.selection_accuracy(eval_data, bundle),
        "parent_child_ratio": report["parent_child_ratio"],
        "weights": str(out),
        "loss_trace": str(trace_path),
        "apex_report": str(apex_path),
    }
    print(_dump(summary))
    return 0


# ---------------------------------------------------------------------------
# decouple
# ---------------------------------------------------------------------------

def cmd_decouple(args) -> int:
    if args.offline:
        result = decouple.rule_based_decompose(args.expr)
    else:
        cfg = decouple.VlmConfig.from_env(timeout_s=args.vlm_timeout_s, retries=args.retries)
        image_b64 = None
        if args.image:
            import base64

            image_b64 = base64.b64encode(Path(args.image).read_bytes()).decode("ascii")
        result = decouple.decouple_via_service(
            args.expr, image_b64, cfg, include_examples=not args.no_examples
        )
    print(_dump(result.to_dict()))
    return 0


# ---------------------------------------------------------------------------
# ground / eval / pipeline
# ---------------------------------------------------------------------------

def _failure(sample_id, error: str) -> dict:
    """A ``failures`` entry of ground, eval and pipeline; a NaN or infinite sample_id is named by its JSON text."""
    return {"sample_id": json.loads(json.dumps(sample_id), parse_constant=str), "error": error}


def _image_key(rec):
    """A texts record's image_id where records._id accepts it, else None."""
    try:
        return records._id(rec, "image_id")
    except (KeyError, ValueError):
        return None


def _ground_records(texts: list, phrases_of, anchor_map: dict, bundle, args) -> tuple[list, list]:
    """(predictions, failures) of the texts records, each checked by records.texts_record, then grounded.

    An image's entry leaves ``anchor_map`` once the last record that could look
    it up is done, whatever its outcome, so at most one image's projected pool
    is alive at a time.
    """
    predictions, failures, seen = [], [], set()
    last = {_image_key(rec): i for i, rec in enumerate(texts)}  # None, which names no image, keys the other records
    for i, rec in enumerate(texts):
        key = _image_key(rec)
        try:
            sample_id, image_id, features = records.texts_record(rec, seen)
            rec.pop("features", None)  # its rows are in ``features`` now
            phrases = list(phrases_of(rec))
            anchors = anchor_map.get(image_id) if phrases else None
            if phrases and anchors is None:
                raise ValueError(f"unknown image_id {image_id!r}")
            if isinstance(anchors, str):
                raise ValueError(anchors)
            boxes = grounding.ground(
                sample_id=sample_id,
                anchors=anchors,
                phrases=phrases,
                text_features=features,
                bundle=bundle,
                top_fraction=args.top_frac,
                distinct_anchors=args.distinct_anchors,
            )
            predictions.append({"sample_id": sample_id, "boxes": boxes})
        except (ValueError, KeyError, decouple.DecoupleError) as exc:
            label = rec.get("sample_id", "<missing sample_id>") if isinstance(rec, dict) else "<missing sample_id>"
            failures.append(_failure(label, jsonl._message(exc)))
        if last[key] == i:
            anchor_map.pop(key, None)
    return predictions, failures


def cmd_ground(args) -> int:
    # A bad --top-frac or a missing output directory stops the run before any work or output.
    grounding._check_fraction(args.top_frac)
    _check_output_dirs(Path(args.out))

    def reads():  # run while children decode the anchors
        return similarity.load_bundle(args.weights), jsonl.read_jsonl(args.texts)

    (bundle, texts), anchor_map = ingest.load_anchor_map(args.anchors, args.top_frac, reads)
    predictions, failures = _ground_records(texts, lambda rec: rec["phrases"], anchor_map, bundle, args)
    jsonl.write_jsonl(args.out, predictions)
    print(f"wrote {len(predictions)} predictions to {args.out}")
    for failure in failures:
        print(f"error: {failure['sample_id']}: {failure['error']}", file=sys.stderr)
    return 1 if failures else 0


def _boxes_file(path) -> dict:
    """sample_id -> boxes of a ground-truth or prediction file (see records.boxes_record)."""
    return dict(jsonl.read_jsonl(path, check=partial(records.boxes_record, seen=set())))


def _no_ground_truth(sample_id) -> str:
    return f"no ground truth for sample_id {sample_id!r}"


def _report(samples: list, failures: list, iou_thresh: float, metric: str = "grec", per_sample: bool = False) -> dict:
    """The report of eval and pipeline on ``samples``; with no sample scored every metric is null.

    WREC scores the samples with one box in each file; each other sample
    fails, after ``failures``.
    """
    if metric == "wrec":
        scored, failures = [], list(failures)
        for s in samples:
            try:
                scored.append((s, metrics._single_box_iou(s)))
            except ValueError as exc:
                failures.append(_failure(s.sample_id, str(exc)))
        samples = [s for s, _ in scored]
        report = {"iou_at_thresh": sum(v >= iou_thresh for _, v in scored) / len(scored) if scored else None}
        rows = [{"sample_id": s.sample_id, "iou": v} for s, v in scored]
    else:
        matches = [metrics.match_sample(s, iou_thresh) for s in samples]
        report = {"precision_at_f1": metrics.precision_at_f1(matches) if matches else None}
        try:
            report["n_acc"] = metrics.n_acc(samples)
        except ValueError:
            report["n_acc"] = None
        rows = [{"sample_id": s.sample_id, "tp": m.tp, "fp": m.fp, "fn": m.fn, "f1": m.f1}
                for s, m in zip(samples, matches)]
    report.update(n_samples=len(samples), iou_threshold=iou_thresh, n_failures=len(failures), failures=failures)
    if per_sample:
        report["per_sample"] = rows
    return report


def cmd_eval(args) -> int:
    # A sample is scored when both files hold it; every other sample_id fails.
    metrics._check_threshold(args.iou)
    gt, predicted = _boxes_file(args.gt), _boxes_file(args.pred)
    samples = [metrics.EvalSample(key, boxes, predicted[key]) for key, boxes in gt.items() if key in predicted]
    failures = ([_failure(key, f"no prediction for sample_id {key!r}") for key in gt if key not in predicted]
                + [_failure(key, _no_ground_truth(key)) for key in predicted if key not in gt])
    report = _report(samples, failures, args.iou, args.metric, args.per_sample)
    print(_dump(report))
    return 1 if report["failures"] else 0


def _decouple_record(rec: dict, offline: bool, vlm_cfg) -> decouple.DecoupleResult:
    if "phrases" in rec and "expression" not in rec:
        return records.given_phrases(rec)
    if offline:
        if "decouple_response" in rec:
            return decouple.parse_response(rec["decouple_response"])
        return decouple.rule_based_decompose(rec["expression"])
    return decouple.decouple_via_service(rec["expression"], rec.get("image_b64"), vlm_cfg)


def cmd_pipeline(args) -> int:
    # A bad setting or a missing output directory stops the run before any work or output.
    metrics._check_threshold(args.iou)
    grounding._check_fraction(args.top_frac)
    _check_output_dirs(*(Path(path) for path in (args.out, args.report) if path))
    vlm_cfg = None if args.offline else decouple.VlmConfig.from_env(timeout_s=args.vlm_timeout_s,
                                                                     retries=args.retries)

    def reads():  # run while children decode the anchors
        return similarity.load_bundle(args.weights), _boxes_file(args.gt), jsonl.read_jsonl(args.texts)

    (bundle, gt, texts), anchor_map = ingest.load_anchor_map(args.anchors, args.top_frac, reads)

    def phrases_of(rec):  # a record with no ground truth fails before it is decoupled
        if rec["sample_id"] not in gt:
            raise ValueError(_no_ground_truth(rec["sample_id"]))
        return _decouple_record(rec, args.offline, vlm_cfg).phrases

    predictions, failures = _ground_records(texts, phrases_of, anchor_map, bundle, args)
    if args.out:
        jsonl.write_jsonl(args.out, predictions)
    samples = [metrics.EvalSample(p["sample_id"], gt[p["sample_id"]], p["boxes"]) for p in predictions]
    text = _dump(_report(samples, failures, args.iou, per_sample=True)) + "\n"
    if args.report:
        Path(args.report).write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="seed for anything randomized")
    scoring = argparse.ArgumentParser(add_help=False)  # ground and pipeline
    scoring.add_argument("--anchors", required=True)
    scoring.add_argument("--texts", required=True)
    scoring.add_argument("--weights", required=True)
    scoring.add_argument("--top-frac", type=float, default=0.10)
    scoring.add_argument("--distinct-anchors", action="store_true")
    service = argparse.ArgumentParser(add_help=False)  # decouple and pipeline
    service.add_argument("--vlm-timeout-s", type=float, default=30.0)
    service.add_argument("--retries", type=int, default=2)

    parser = argparse.ArgumentParser(prog="hemix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geom-check", parents=[common], help="run the geometry property suite")
    p.add_argument("--cases", type=int, default=1000)
    p.set_defaults(func=cmd_geom_check)

    p = sub.add_parser("grad-check", parents=[common], help="analytic vs finite-difference gradients")
    p.add_argument("--batches", type=int, default=50)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("analyze-alpha", parents=[common], help="closed-form mixing-weight analysis")
    p.add_argument("--b-e", type=float, required=True)
    p.add_argument("--b-h", type=float, required=True)
    p.add_argument("--sigma-e", type=float, required=True)
    p.add_argument("--sigma-h", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--mc-n", type=int, default=0, help="Monte-Carlo draws (0 disables the oracle)")
    p.set_defaults(func=cmd_analyze_alpha)

    p = sub.add_parser("train-toy", parents=[common], help="train on the synthetic hierarchy")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.025)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--tau", type=float, default=0.07)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--negatives", type=int, default=2)
    p.add_argument("--intra-negatives", action="store_true")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--batch-images", type=int, default=2)
    p.add_argument("--parents", type=int, default=3)
    p.add_argument("--children-per-parent", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--out", required=True, help="weight file to write")
    p.add_argument("--trace-out", help="loss trace CSV (default: loss_trace.csv next to --out)")
    p.add_argument("--apex-out", help="apex report JSON (default: apex_report.json next to --out)")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("decouple", parents=[service], help="split an expression into target phrases")
    p.add_argument("--expr", required=True)
    p.add_argument("--image", help="image file sent to the service as base64")
    p.add_argument("--offline", action="store_true", help="use the rule-based decomposer")
    p.add_argument("--no-examples", action="store_true", help="drop the in-context examples part")
    p.set_defaults(func=cmd_decouple)

    p = sub.add_parser("ground", parents=[scoring], help="select boxes for decoupled phrases")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--metric", choices=["grec", "wrec"], default="grec")
    p.add_argument("--per-sample", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", parents=[scoring, service], help="decouple, ground, and evaluate")
    p.add_argument("--gt", required=True)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--offline", action="store_true")
    p.add_argument("--out", help="predictions JSONL path")
    p.add_argument("--report", help="report JSON path (default: stdout)")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except (OSError, decouple.DecoupleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
