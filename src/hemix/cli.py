"""Command-line entry point.

Subcommands: geom-check, grad-check, analyze-alpha, train-toy, decouple,
ground, eval, and pipeline (decouple -> ground -> eval over JSONL files).

Every run echoes its resolved configuration as one JSON line on stderr.
Exit codes: 0 success, 1 completed with failures (failed checks or skipped
samples), 2 configuration or IO error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import contrastive, decouple, grounding, jsonl, lorentz, metrics, mixture, similarity, trainer


def _echo_config(args: argparse.Namespace) -> None:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    print(json.dumps(cfg, sort_keys=True, default=str), file=sys.stderr)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


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


def _random_batch(rng: np.random.Generator, dim: int) -> contrastive.GroundingBatch:
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
    cfg = trainer.TrainConfig(
        steps=args.steps, lr=args.lr, alpha=args.alpha, tau=args.tau,
        kappa=args.kappa, seed=args.seed, intra_negatives=args.intra_negatives,
    )
    bundle, trace = trainer.train(data, cfg)

    out = Path(args.out)
    similarity.save_bundle(bundle, out)
    trace_path = Path(args.trace_out) if args.trace_out else out.parent / "loss_trace.csv"
    with trace_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        writer.writerows((i, f"{loss:.10g}") for i, loss in enumerate(trace))
    report = trainer.apex_report(bundle, hierarchy)
    apex_path = Path(args.apex_out) if args.apex_out else out.parent / "apex_report.json"
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

def _message(exc: Exception) -> str:
    """The failure text for ``exc``; a KeyError names the missing field."""
    if isinstance(exc, KeyError):
        return f"record has no {exc.args[0]!r} field"
    return str(exc)


# The anchors file is decoded in spans of at least this many bytes. Splitting
# a 1 MiB file in two saved nothing on two CPUs: the fork and the pickled
# reply took about what the second CPU saved.
_MIN_RANGE_BYTES = 1 << 20
# Spans per CPU. Every process takes the next span from one queue, so a CPU
# that runs slow for a while decodes fewer spans instead of holding up the
# load, as the slower of two fixed halves does.
_SPANS_PER_CPU = 8
# Bytes read at a time while looking for a line boundary. Reads of 64 KiB
# raised the ground-d512 pipeline's peak RSS by 0.3 MB; 4 KiB reads did not.
_SCAN_BYTES = 1 << 12


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where it cannot fork or ask."""
    import os

    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _line_ranges(path, n: int) -> list:
    """At most ``n`` (start, end) byte ranges of whole lines that tile ``path``, the last ending at None.

    There are at most ``size // _MIN_RANGE_BYTES`` ranges, and one for a file
    under that size. Each split is the line boundary nearest ``k * size / n``,
    so a long line that straddles a share's edge goes to whichever side the
    boundary is closer to; a split that would leave a range empty is dropped.
    The file is searched with small reads, not mapped: every mapped page a
    search touched counted towards this process's peak RSS.
    """
    import os

    n = min(n, os.stat(path).st_size // _MIN_RANGE_BYTES) if n > 1 else 1
    cuts = [0]
    if n > 1:
        with open(path, "rb", buffering=0) as fh:
            fd, size = fh.fileno(), os.fstat(fh.fileno()).st_size
            before = after = 0  # the line [before, after) holding the last target
            for k in range(1, n):
                target = k * size // n
                if not before <= target < after:
                    before, after = _line_start_before(fd, target), _line_start_after(fd, target, size)
                cut = before if target - before <= after - target else after
                if cuts[-1] < cut < size:
                    cuts.append(cut)
    return list(zip(cuts, cuts[1:] + [None]))


def _line_start_before(fd: int, pos: int) -> int:
    """Start of the line holding byte ``pos`` of the file ``fd``: just past the last newline before ``pos``."""
    import os

    while pos > 0:
        low = max(0, pos - _SCAN_BYTES)
        i = os.pread(fd, pos - low, low).rfind(b"\n")
        if i >= 0:
            return low + i + 1
        pos = low
    return 0


def _line_start_after(fd: int, pos: int, size: int) -> int:
    """Start of the line after the one holding byte ``pos`` of the file ``fd``, or ``size`` if there is none."""
    import os

    while chunk := os.pread(fd, _SCAN_BYTES, pos):
        i = chunk.find(b"\n")
        if i >= 0:
            return pos + i + 1
        pos += len(chunk)
    return size


def _anchor_range(path, top_fraction: float, start: int, end: int | None) -> dict:
    """image_id -> its AnchorSet or the error message of a malformed entry, for bytes [start, end) of ``path``."""
    anchor_map = {}
    for rec in jsonl.iter_jsonl(path, objects=True, start=start, end=end):
        image_id = rec["image_id"]
        try:
            anchor_map[image_id] = grounding.AnchorSet.from_json(rec["anchors"], top_fraction)
        except (ValueError, KeyError, TypeError) as exc:
            anchor_map[image_id] = f"anchors of image {image_id!r}: {_message(exc)}"
        del rec
    return anchor_map


def _span_queue(count: int) -> int:
    """Read end of a pipe that holds the span indices 0 .. count-1, one byte each, then ends."""
    import os

    r, w = os.pipe()
    try:
        os.write(w, bytes(range(count)))
    except BaseException:
        os.close(r)
        raise
    finally:
        os.close(w)
    return r


def _decode_queued(path, top_fraction: float, spans: list, queue: int) -> dict:
    """span index -> its _anchor_range map, or the exception it raised, for each span taken from ``queue``.

    Every process reads the one queue, so spans are taken in file order. A
    failing span empties the queue: no later span is needed, every process
    stops after the span it holds, and a span nobody took comes after a
    failed one.
    """
    import os

    parts = {}
    while taken := os.read(queue, 1):
        i = taken[0]
        try:
            parts[i] = _anchor_range(path, top_fraction, *spans[i])
        except Exception as exc:  # raised by the merge, in file order
            parts[i] = exc
            os.read(queue, 256)
    return parts


def _fork_decoder(path, top_fraction: float, spans: list, queue: int) -> tuple:
    """(pid, read end of its pipe) of a child that decodes spans taken from ``queue``.

    The child pickles its _decode_queued result into the pipe once and exits.
    It runs only JSON decoding and AnchorSet construction (no BLAS call), and
    never returns into its caller.
    """
    import os
    import pickle

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pickle.dump(_decode_queued(path, top_fraction, spans, queue), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _load_anchor_map(path, top_fraction: float) -> dict:
    """image_id -> its AnchorSet cut to ``top_fraction``, or the error message of a malformed entry.

    The file is split into line-aligned byte spans, _SPANS_PER_CPU per
    available CPU (see _line_ranges), and decoded by this process and a
    forked child per further CPU, each taking the next span from a shared
    queue until none is left. The parts are merged in file order, so the
    map, its key order and any error are those of one whole-file read. When
    several spans fail, the first in file order is raised; a child that
    exits without a reply fails the run. Every process streams its spans:
    each record is dropped before the next line is decoded, and each image
    keeps only the rows that grounding at ``top_fraction`` reads.
    """
    import os
    import pickle

    cpus = _cpu_count()
    spans = _line_ranges(path, 1 if cpus == 1 else min(cpus * _SPANS_PER_CPU, 256))  # one byte names a span
    queue = _span_queue(len(spans))
    workers = []
    try:
        for _ in range(min(cpus, len(spans)) - 1):
            workers.append(_fork_decoder(path, top_fraction, spans, queue))
        parts = _decode_queued(path, top_fraction, spans, queue)
        for _, pipe in workers:
            try:
                parts.update(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"{path}: a process decoding part of this file exited "
                                        "without a result") from None
        anchor_map = {}
        for i in sorted(parts):
            if isinstance(parts[i], Exception):
                raise parts[i]
            anchor_map.update(parts[i])
    except BaseException:
        import signal  # only here: the module costs memory on every run

        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue)
        for pid, pipe in workers:
            pipe.close()
            os.waitpid(pid, 0)
    return anchor_map


def _ground_records(records: list, phrases_of, anchor_map: dict, bundle, args) -> tuple[list, list]:
    """Ground each record on ``phrases_of(record)``; returns (predictions, failures)."""
    predictions, failures = [], []
    for rec in records:
        if not isinstance(rec, dict):
            failures.append({"sample_id": "<missing sample_id>", "error": "record is not a JSON object"})
            continue
        sample_id = rec.get("sample_id", "<missing sample_id>")
        try:
            phrases = list(phrases_of(rec))
            anchors = anchor_map.get(rec["image_id"]) if phrases else None
            if phrases and anchors is None:
                raise ValueError(f"unknown image_id {rec['image_id']!r}")
            if isinstance(anchors, str):
                raise ValueError(anchors)
            output = grounding.ground(
                sample_id=sample_id,
                anchors=anchors,
                phrases=phrases,
                text_features=rec.get("features", []),
                bundle=bundle,
                top_fraction=args.top_frac,
                distinct_anchors=args.distinct_anchors,
            )
            predictions.append({"sample_id": sample_id, "boxes": [list(b) for b in output.boxes]})
        except (ValueError, KeyError, TypeError, decouple.DecoupleError) as exc:
            failures.append({"sample_id": sample_id, "error": _message(exc)})
    return predictions, failures


def cmd_ground(args) -> int:
    bundle = similarity.load_bundle(args.weights)
    anchor_map = _load_anchor_map(args.anchors, args.top_frac)
    predictions, failures = _ground_records(
        jsonl.read_jsonl(args.texts), lambda rec: rec["phrases"], anchor_map, bundle, args
    )
    jsonl.write_jsonl(args.out, predictions)
    print(f"wrote {len(predictions)} predictions to {args.out}")
    for failure in failures:
        print(f"error: {failure['sample_id']}: {failure['error']}", file=sys.stderr)
    return 1 if failures else 0


def _eval_samples(gt_records: list, pred_map: dict) -> list:
    return [
        metrics.EvalSample(
            sample_id=rec["sample_id"],
            gt_boxes=tuple(tuple(b) for b in rec["boxes"]),
            pred_boxes=tuple(tuple(b) for b in pred_map.get(rec["sample_id"], [])),
        )
        for rec in gt_records
    ]


def _grec_report(samples: list, iou_thresh: float, per_sample: bool) -> dict:
    report = {
        "n_samples": len(samples),
        "iou_threshold": iou_thresh,
        "precision_at_f1": metrics.precision_at_f1(samples, iou_thresh),
    }
    try:
        report["n_acc"] = metrics.n_acc(samples)
    except ValueError:
        report["n_acc"] = None
    if per_sample:
        rows = []
        for s in samples:
            m = metrics.match_sample(s, iou_thresh)
            rows.append({"sample_id": s.sample_id, "tp": m.tp, "fp": m.fp, "fn": m.fn, "f1": m.f1})
        report["per_sample"] = rows
    return report


def cmd_eval(args) -> int:
    gt_records = jsonl.read_jsonl(args.gt, objects=True)
    pred_map = {rec["sample_id"]: rec["boxes"] for rec in jsonl.read_jsonl(args.pred, objects=True)}
    samples = _eval_samples(gt_records, pred_map)
    if args.metric == "wrec":
        report = {"n_samples": len(samples), "iou_threshold": args.iou,
                  "iou_at_thresh": metrics.iou_at_05(samples, args.iou)}
    else:
        report = _grec_report(samples, args.iou, args.per_sample)
    print(_dump(report))
    return 0


def _decouple_record(rec: dict, offline: bool, vlm_cfg) -> decouple.DecoupleResult:
    if "phrases" in rec and "expression" not in rec:
        return decouple.DecoupleResult(
            count=len(rec["phrases"]), phrases=tuple(rec["phrases"]), raw=""
        )
    if offline:
        if "decouple_response" in rec:
            return decouple.parse_response(rec["decouple_response"])
        return decouple.rule_based_decompose(rec["expression"])
    return decouple.decouple_via_service(rec["expression"], rec.get("image_b64"), vlm_cfg)


def cmd_pipeline(args) -> int:
    metrics._check_threshold(args.iou)  # a bad --iou stops the run before any work or output
    bundle = similarity.load_bundle(args.weights)
    anchor_map = _load_anchor_map(args.anchors, args.top_frac)
    gt_records = jsonl.read_jsonl(args.gt, objects=True)

    vlm_cfg = None
    if not args.offline:
        vlm_cfg = decouple.VlmConfig.from_env(timeout_s=args.vlm_timeout_s, retries=args.retries)

    predictions, failures = _ground_records(
        jsonl.read_jsonl(args.texts), lambda rec: _decouple_record(rec, args.offline, vlm_cfg).phrases,
        anchor_map, bundle, args,
    )

    if args.out:
        jsonl.write_jsonl(args.out, predictions)

    pred_map = {p["sample_id"]: p["boxes"] for p in predictions}
    eval_gt = [rec for rec in gt_records if rec["sample_id"] in pred_map]
    samples = _eval_samples(eval_gt, pred_map)
    report = _grec_report(samples, args.iou, per_sample=True) if samples else {
        "n_samples": 0, "iou_threshold": args.iou, "precision_at_f1": None, "n_acc": None,
    }
    report["n_failures"] = len(failures)
    report["failures"] = failures
    text = _dump(report) + "\n"
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

    p = sub.add_parser("decouple", parents=[common], help="split an expression into target phrases")
    p.add_argument("--expr", required=True)
    p.add_argument("--image", help="image file sent to the service as base64")
    p.add_argument("--offline", action="store_true", help="use the rule-based decomposer")
    p.add_argument("--no-examples", action="store_true", help="drop the in-context examples part")
    p.add_argument("--vlm-timeout-s", type=float, default=30.0)
    p.add_argument("--retries", type=int, default=2)
    p.set_defaults(func=cmd_decouple)

    p = sub.add_parser("ground", parents=[common], help="select boxes for decoupled phrases")
    p.add_argument("--anchors", required=True)
    p.add_argument("--texts", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--top-frac", type=float, default=0.10)
    p.add_argument("--distinct-anchors", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("eval", parents=[common], help="score predictions against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--metric", choices=["grec", "wrec"], default="grec")
    p.add_argument("--per-sample", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", parents=[common], help="decouple, ground, and evaluate")
    p.add_argument("--anchors", required=True)
    p.add_argument("--texts", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--top-frac", type=float, default=0.10)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--offline", action="store_true")
    p.add_argument("--distinct-anchors", action="store_true")
    p.add_argument("--vlm-timeout-s", type=float, default=30.0)
    p.add_argument("--retries", type=int, default=2)
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
    except (OSError, jsonl.SchemaError, decouple.DecoupleError, ValueError, KeyError,
            trainer.TrainingDiverged) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
