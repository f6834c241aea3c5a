import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import strict_json

from hemix import cli, grounding, ingest, jsonl, trainer
from hemix.similarity import ProjectionBundle, save_bundle

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gt_with(tmp_path, *sample_ids):
    """The fixture's ground-truth file plus a record with no boxes for each of ``sample_ids``, at tmp_path/gt.jsonl."""
    gt = tmp_path / "gt.jsonl"
    jsonl.write_jsonl(gt, jsonl.read_jsonl(DATA / "gt.jsonl") + [{"sample_id": s, "boxes": []} for s in sample_ids])
    return gt


def test_geom_check(capsys):
    code, out, err = run(capsys, "geom-check", "--cases", "100")
    assert code == 0
    assert out.count("ok  ") == 5
    json.loads(err.splitlines()[0])  # resolved config echo is valid JSON


def test_grad_check(capsys):
    code, out, _ = run(capsys, "grad-check", "--batches", "4")
    assert code == 0
    assert "max rel error" in out


@pytest.mark.parametrize("command, flag", [("geom-check", "--cases"), ("grad-check", "--batches")])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_verification_run_that_checks_nothing_is_an_error(capsys, monkeypatch, command, flag, value):
    def never(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli.lorentz, "run_property_suite", never)
    monkeypatch.setattr(cli.contrastive, "gradient_check", never)
    code, out, err = run(capsys, command, flag, value)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"error: {flag} must be at least 1, got {value}"


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_grad_check_tolerance_must_be_finite_and_positive(capsys, monkeypatch, value):
    def never(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli.contrastive, "gradient_check", never)
    code, out, err = run(capsys, "grad-check", "--tolerance", value)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: --tolerance must be finite and positive, got {float(value)}"


def test_analyze_alpha(capsys):
    code, out, _ = run(
        capsys, "analyze-alpha", "--b-e", "0.5", "--b-h", "-0.5",
        "--sigma-e", "1", "--sigma-h", "2", "--rho", "0.3", "--mc-n", "50000",
    )
    assert code == 0
    report = json.loads(out)
    assert report["alpha_star"] == pytest.approx(0.1875)
    assert report["coeffs"] == {"a": 4.8, "b": -0.9, "c": 1.25}
    assert len(report["mse_curve"]) == 11
    assert report["monte_carlo"]["within_3_stderr"] is True


# SHA-256 of the standard output of the property suite and of the mixing
# analysis at the benchmark's arguments, as the per-call draws and the
# allocating Monte-Carlo oracle printed them. A change to the drawn cases or
# to the oracle's arithmetic shows here.
_SUITE_PINS = {
    ("geom-check", "--cases", "2000", "--seed", "1"):
        "24cb8f7525e2056c1b38c341aaf1b2ce14bf9f55086fb29398e40d5af6f19dbe",
    ("geom-check", "--cases", "100", "--seed", "42"):
        "09e14f045eedba8c58eb9659fc44a63e6a19dd26319d99469ca993ea677caef7",
    ("analyze-alpha", "--b-e", "0.5", "--b-h", "-0.5", "--sigma-e", "1", "--sigma-h", "2", "--rho", "0.3",
     "--mc-n", "1000000", "--seed", "1"):
        "dbf0d9d9754eba328cf190e0980084972b0c2c352f304e8d231a075d572ebafd",
}


@pytest.mark.parametrize("argv", list(_SUITE_PINS), ids=lambda argv: " ".join(argv[:3]))
def test_suite_outputs_are_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _SUITE_PINS[argv]


@pytest.mark.parametrize("flag, value, message", [
    ("--sigma-e", "nan", "sigma_e must be finite and nonnegative, got nan"),
    ("--b-h", "inf", "b_h must be finite, got inf"),
])
def test_analyze_alpha_rejects_a_non_finite_model(capsys, flag, value, message):
    argv = {"--b-e": "0.5", "--b-h": "-0.5", "--sigma-e": "1", "--sigma-h": "2", "--rho": "0.3", flag: value}
    code, out, err = run(capsys, "analyze-alpha", *(x for item in argv.items() for x in item), "--mc-n", "10000")
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"error: {message}"


def test_analyze_alpha_degenerate(capsys):
    code, out, _ = run(
        capsys, "analyze-alpha", "--b-e", "0.3", "--b-h", "0.3",
        "--sigma-e", "1", "--sigma-h", "1", "--rho", "1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["degenerate"] is True
    assert report["alpha_star"] is None


def test_decouple_offline(capsys):
    code, out, _ = run(capsys, "decouple", "--expr", "a cat and a dog", "--offline")
    assert code == 0
    result = json.loads(out)
    assert result["count"] == 2
    assert result["phrases"] == ["a cat", "a dog"]


def test_decouple_offline_reads_a_count_from_ascii_digits_only(capsys):
    code, out, _ = run(capsys, "decouple", "--expr", "² cats", "--offline")
    assert code == 0
    assert json.loads(out)["phrases"] == ["² cats"]
    code, out, err = run(capsys, "decouple", "--expr", "101 cats", "--offline")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == "error: count 101 is above the limit of 100 targets"


def test_decouple_online_without_endpoint(capsys, monkeypatch):
    monkeypatch.delenv("VLM_ENDPOINT", raising=False)
    code, _, err = run(capsys, "decouple", "--expr", "x")
    assert code == 2
    assert "VLM_ENDPOINT" in err


@pytest.mark.parametrize("flag, value, error", [
    ("--retries", "-1", "retries must be at least 0, got -1"),
    ("--vlm-timeout-s", "nan", "timeout_s must be finite and positive, got nan"),
    ("--vlm-timeout-s", "inf", "timeout_s must be finite and positive, got inf"),
    ("--vlm-timeout-s", "0", "timeout_s must be finite and positive, got 0.0"),
])
@pytest.mark.parametrize("command", ["decouple", "pipeline"])
def test_service_settings_are_checked_before_any_work(capsys, monkeypatch, tmp_path, command, flag, value, error):
    def never(*args, **kwargs):
        raise AssertionError("the run went on")

    monkeypatch.setenv("VLM_ENDPOINT", "http://127.0.0.1:1")
    monkeypatch.setattr(cli.decouple, "decouple_via_service", never)
    monkeypatch.setattr(cli.similarity, "load_bundle", never)
    argv = ["--expr", "x"] if command == "decouple" else [
        "--anchors", str(DATA / "anchors.jsonl"), "--texts", str(DATA / "texts.jsonl"),
        "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"),
        "--out", str(tmp_path / "preds.jsonl"), "--report", str(tmp_path / "report.json")]
    code, out, err = run(capsys, command, *argv, flag, value)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"error: {error}"
    assert list(tmp_path.iterdir()) == []


def test_train_toy_writes_artifacts(capsys, tmp_path):
    out = tmp_path / "weights.json"
    code, stdout, _ = run(
        capsys, "train-toy", "--steps", "30", "--samples", "32", "--out", str(out),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert out.exists()
    assert (tmp_path / "loss_trace.csv").read_text().startswith("step,loss")
    apex = json.loads((tmp_path / "apex_report.json").read_text())
    assert "parent_child_ratio" in apex
    assert summary["final_loss"] > 0.0


@pytest.mark.parametrize("flag", ["--tau", "--kappa"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_train_toy_rejects_non_finite_scalar_before_writing(capsys, tmp_path, flag, value):
    code, stdout, err = run(
        capsys, "train-toy", "--dim", "4", "--steps", "3", "--samples", "8", flag, value,
        "--out", str(tmp_path / "weights.json"),
    )
    assert code == 2
    assert stdout == ""
    assert f"error: {flag[2:]} must be finite and positive, got {value}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, error", [
    ("--steps", "0", "steps must be at least 1"),
    ("--lr", "-1", "lr must be finite and nonnegative, got -1.0"),
    ("--alpha", "2", "alpha must be in [0, 1], got 2.0"),
    ("--tau", "0", "tau must be finite and positive, got 0.0"),
    ("--kappa", "-1", "kappa must be finite and positive, got -1.0"),
    ("--dim", "0", "feature_dim must be at least 1, got 0"),
    ("--dim", "2", "feature_dim must be at least the number of parents"),
])
def test_train_toy_rejects_its_configuration_before_drawing_data(capsys, tmp_path, monkeypatch, flag, value, error):
    def drawn(*args, **kwargs):
        raise AssertionError("the dataset was drawn")

    monkeypatch.setattr(trainer, "generate_dataset", drawn)
    code, stdout, err = run(capsys, "train-toy", flag, value, "--out", str(tmp_path / "weights.json"))
    assert (code, stdout) == (2, "")
    assert err.splitlines()[-1] == f"error: {error}"
    assert list(tmp_path.iterdir()) == []


def ground_inputs(tmp_path):
    """A d=2 weight file and one image "img" with two anchors."""
    weights = tmp_path / "w.json"
    save_bundle(ProjectionBundle.initialize(2, seed=0), weights)
    anchors = tmp_path / "anchors.jsonl"
    jsonl.write_jsonl(anchors, [{
        "image_id": "img",
        "anchors": [
            {"feature": [1.0, 0.0], "confidence": 0.9, "box": [0, 0, 10, 10]},
            {"feature": [0.0, 1.0], "confidence": 0.8, "box": [20, 20, 30, 30]},
        ],
    }])
    return weights, anchors


def test_ground_cli(capsys, tmp_path):
    weights, anchors = ground_inputs(tmp_path)
    texts = tmp_path / "texts.jsonl"
    jsonl.write_jsonl(texts, [
        {"sample_id": "a", "image_id": "img", "phrases": ["p"], "features": [[1.0, 0.0]]},
    ])
    out = tmp_path / "preds.jsonl"
    code, stdout, _ = run(
        capsys, "ground", "--anchors", str(anchors), "--texts", str(texts),
        "--weights", str(weights), "--top-frac", "1.0", "--out", str(out),
    )
    assert code == 0
    (rec,) = jsonl.read_jsonl(out)
    assert rec["sample_id"] == "a"
    assert len(rec["boxes"]) == 1


def test_eval_cli_on_golden_fixture(capsys):
    code, out, _ = run(
        capsys, "eval", "--gt", str(DATA / "gt.jsonl"),
        "--pred", str(DATA / "golden_predictions.jsonl"),
    )
    assert code == 0
    report = json.loads(out)
    assert report["precision_at_f1"] == 0.5
    assert report["n_acc"] == 0.5
    assert report["n_samples"] == 8


def test_eval_aggregates_recomputable_from_per_sample(capsys):
    code, out, _ = run(
        capsys, "eval", "--gt", str(DATA / "gt.jsonl"),
        "--pred", str(DATA / "golden_predictions.jsonl"), "--per-sample",
    )
    assert code == 0
    report = json.loads(out)
    rows = report["per_sample"]
    assert report["precision_at_f1"] == sum(r["fp"] == 0 and r["fn"] == 0 for r in rows) / len(rows)
    gt = {rec["sample_id"]: rec["boxes"] for rec in jsonl.read_jsonl(DATA / "gt.jsonl")}
    preds = {rec["sample_id"]: rec["boxes"] for rec in jsonl.read_jsonl(DATA / "golden_predictions.jsonl")}
    no_target = [r["sample_id"] for r in rows if gt[r["sample_id"]] == []]
    assert report["n_acc"] == sum(preds[s] == [] for s in no_target) / len(no_target)


def test_eval_cli_wrec_metric(capsys, tmp_path):
    gt = tmp_path / "gt.jsonl"
    pred = tmp_path / "pred.jsonl"
    jsonl.write_jsonl(gt, [{"sample_id": "a", "boxes": [[0, 0, 10, 10]]}])
    jsonl.write_jsonl(pred, [{"sample_id": "a", "boxes": [[0, 0, 10, 9]]}])
    code, out, _ = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred), "--metric", "wrec")
    assert code == 0
    assert json.loads(out)["iou_at_thresh"] == 1.0


@pytest.mark.parametrize("metric", ["grec", "wrec"])
def test_eval_fails_a_prediction_with_no_ground_truth(capsys, tmp_path, metric):
    # The golden predictions with one more for a sample_id that the ground
    # truth lacks: it is a failure, and the other samples score as before.
    # WREC scores the samples with one box in both files.
    gt, preds = jsonl.read_jsonl(DATA / "gt.jsonl"), jsonl.read_jsonl(DATA / "golden_predictions.jsonl")
    if metric == "wrec":
        multi = {r["sample_id"] for r in gt + preds if len(r["boxes"]) != 1}
        gt, preds = ([r for r in recs if r["sample_id"] not in multi] for recs in (gt, preds))
    paths = {name: tmp_path / f"{name}.jsonl" for name in ("gt", "pred", "extra")}
    jsonl.write_jsonl(paths["gt"], gt)
    jsonl.write_jsonl(paths["pred"], preds)
    jsonl.write_jsonl(paths["extra"], preds[:1] + [{"sample_id": "zz", "boxes": [[0, 0, 1, 1]]}] + preds[1:])
    argv = ["eval", "--gt", str(paths["gt"]), "--metric", metric, "--per-sample", "--pred"]
    code, out, _ = run(capsys, *argv, str(paths["pred"]))
    assert code == 0
    golden = json.loads(out)
    assert (golden.pop("n_failures"), golden.pop("failures")) == (0, [])
    code, out, _ = run(capsys, *argv, str(paths["extra"]))
    assert code == 1
    report = json.loads(out)
    assert report.pop("failures") == [{"sample_id": "zz", "error": "no ground truth for sample_id 'zz'"}]
    assert report.pop("n_failures") == 1
    assert report == golden


@pytest.mark.parametrize("metric", ["grec", "wrec"])
@pytest.mark.parametrize("iou", ["1.5", "0", "-1", "nan"])
def test_eval_rejects_an_iou_threshold_outside_unit_interval(capsys, tmp_path, metric, iou):
    gt = tmp_path / "gt.jsonl"
    pred = tmp_path / "pred.jsonl"
    jsonl.write_jsonl(gt, [{"sample_id": "a", "boxes": [[0, 0, 10, 10]]}])
    jsonl.write_jsonl(pred, [{"sample_id": "a", "boxes": [[0, 0, 10, 9]]}])
    code, out, err = run(capsys, "eval", "--gt", str(gt), "--pred", str(pred), "--metric", metric,
                         "--iou", iou)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"error: iou_thresh must lie in (0, 1], got {float(iou)}"


def test_pipeline_reproduces_golden(capsys, tmp_path):
    preds = tmp_path / "preds.jsonl"
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "pipeline",
        "--anchors", str(DATA / "anchors.jsonl"),
        "--texts", str(DATA / "texts.jsonl"),
        "--weights", str(DATA / "weights.json"),
        "--gt", str(DATA / "gt.jsonl"),
        "--offline",
        "--out", str(preds),
        "--report", str(report),
    )
    assert code == 0
    assert preds.read_bytes() == (DATA / "golden_predictions.jsonl").read_bytes()
    assert report.read_bytes() == (DATA / "golden_report.json").read_bytes()
    assert len(strict_json.load_jsonl(preds)) == 9  # the header and eight predictions
    strict_json.loads(report.read_text())


def test_pipeline_rejects_a_bad_iou_before_any_work(capsys, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the run went on")

    monkeypatch.setattr(cli.similarity, "load_bundle", never)
    preds = tmp_path / "preds.jsonl"
    code, out, err = run(
        capsys, "pipeline", "--anchors", str(DATA / "anchors.jsonl"), "--texts", str(DATA / "texts.jsonl"),
        "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"), "--offline",
        "--iou", "2", "--out", str(preds),
    )
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == "error: iou_thresh must lie in (0, 1], got 2.0"
    assert not preds.exists()


@pytest.mark.parametrize("command, flag", [("ground", "--out"), ("pipeline", "--out"), ("pipeline", "--report")])
def test_output_directories_are_checked_before_any_work(capsys, tmp_path, monkeypatch, command, flag):
    def never(*args, **kwargs):
        raise AssertionError("the run went on")

    monkeypatch.setattr(cli.similarity, "load_bundle", never)
    argv = ["--anchors", str(DATA / "anchors.jsonl"), "--texts", str(DATA / "texts.jsonl"),
              "--weights", str(DATA / "weights.json")]
    outputs = {"--out": tmp_path / "preds.jsonl"}
    if command == "pipeline":
        argv += ["--gt", str(DATA / "gt.jsonl"), "--offline"]
        outputs["--report"] = tmp_path / "report.json"
    missing = outputs[flag] = tmp_path / "missing" / outputs[flag].name
    for name, path in outputs.items():
        argv += [name, str(path)]
    code, out, err = run(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"error: cannot write {missing}: no directory {missing.parent}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["ground", "pipeline"])
@pytest.mark.parametrize("text_recs, failures", [
    ([], []),
    ([{"sample_id": "s1", "image_id": "img1", "phrases": "p"}, ["not", "an", "object"]],
     [{"sample_id": "s1", "error": 'phrases must be a list of strings, got "p"'},
      {"sample_id": "<missing sample_id>", "error": "record is not a JSON object"}]),
], ids=["no_records", "every_record_fails"])
def test_a_texts_file_with_nothing_to_ground(capsys, tmp_path, command, text_recs, failures):
    texts, preds, report = tmp_path / "texts.jsonl", tmp_path / "preds.jsonl", tmp_path / "report.json"
    jsonl.write_jsonl(texts, text_recs)
    argv = [command, "--anchors", str(DATA / "anchors.jsonl"), "--texts", str(texts),
            "--weights", str(DATA / "weights.json"), "--out", str(preds)]
    if command == "pipeline":
        argv += ["--gt", str(DATA / "gt.jsonl"), "--offline", "--report", str(report)]
    code, out, err = run(capsys, *argv)
    assert code == (1 if failures else 0)
    assert strict_json.load_jsonl(preds) == [{"v": 1}]
    if command == "ground":
        assert out == f"wrote 0 predictions to {preds}\n"
        assert err.splitlines()[1:] == [f"error: {f['sample_id']}: {f['error']}" for f in failures]
    else:
        assert strict_json.loads(report.read_text()) == {
            "n_samples": 0, "iou_threshold": 0.5, "precision_at_f1": None, "n_acc": None,
            "n_failures": len(failures), "failures": failures}


def test_a_count_above_the_limit_fails_its_sample_alone(capsys, tmp_path):
    many = {"sample_id": "many", "image_id": "img1", "expression": "1000 cats"}
    code, preds, report = fixture_pipeline(capsys, tmp_path, jsonl.read_jsonl(DATA / "texts.jsonl") + [many],
                                           gt=gt_with(tmp_path, "many"))
    assert code == 1
    assert report.pop("failures") == [
        {"sample_id": "many", "error": "count 1000 is above the limit of 100 targets"}]
    assert report.pop("n_failures") == 1
    golden = strict_json.loads((DATA / "golden_report.json").read_text())
    del golden["failures"], golden["n_failures"]
    assert report == golden
    assert preds == strict_json.load_jsonl(DATA / "golden_predictions.jsonl")[1:]


def invariance_inputs(tmp_path, dim):
    """Weights, anchors, texts and ground truth at width ``dim``: two images, six samples of one to four phrases."""
    rng = np.random.default_rng(dim)
    save_bundle(ProjectionBundle.initialize(dim, seed=dim), tmp_path / "weights.json")
    entries = [[{"feature": rng.standard_normal(dim).tolist(), "confidence": float(rng.uniform()),
                 "box": [i, 0, i + 1, 1]} for i in range(20)] for _ in range(2)]
    jsonl.write_jsonl(tmp_path / "anchors.jsonl", [{"image_id": f"img{k}", "anchors": e} for k, e in enumerate(entries)])
    text_recs = [{"sample_id": f"s{k}", "image_id": f"img{k % 2}", "phrases": [f"p{i}" for i in range(n)],
                  "features": rng.standard_normal((n, dim)).tolist()} for k, n in enumerate((1, 3, 2, 4, 1, 3))]
    jsonl.write_jsonl(tmp_path / "gt.jsonl", [{"sample_id": rec["sample_id"], "boxes": []} for rec in text_recs])
    return text_recs


@pytest.mark.parametrize("dim", [4, 64, 100, 300, 512])
def test_a_sample_grounds_alone_as_in_the_whole_run(capsys, tmp_path, monkeypatch, dim):
    # Each texts record run on its own gives its sample the same scores, bit
    # for bit, and the same boxes as the run over the whole file.
    scores, pair_scores = [], grounding.pair_scores
    monkeypatch.setattr(grounding, "pair_scores", lambda *args: scores.append(pair_scores(*args)) or scores[-1])
    text_recs = invariance_inputs(tmp_path, dim)

    def pipeline(recs):
        jsonl.write_jsonl(tmp_path / "texts.jsonl", recs)
        scores.clear()
        inputs = [f"--{kind}={tmp_path / kind}.jsonl" for kind in ("anchors", "texts", "gt")]
        code, _, _ = run(capsys, "pipeline", *inputs, f"--weights={tmp_path / 'weights.json'}", "--offline",
                         "--top-frac", "0.5", "--out", str(tmp_path / "preds.jsonl"),
                         "--report", str(tmp_path / "report.json"))
        assert code == 0
        return list(scores), strict_json.load_jsonl(tmp_path / "preds.jsonl")[1:]

    whole_scores, whole_preds = pipeline(text_recs)
    assert len(whole_scores) == len(whole_preds) == len(text_recs)
    for rec, want_scores, want_pred in zip(text_recs, whole_scores, whole_preds):
        (got_scores,), got_preds = pipeline([rec])
        assert got_scores.shape == want_scores.shape == (10, len(rec["phrases"]))
        assert got_scores.tobytes() == want_scores.tobytes(), rec["sample_id"]
        assert got_preds == [want_pred]


def test_pipeline_records_per_sample_failures(capsys, tmp_path):
    texts = tmp_path / "texts.jsonl"
    # Two phrases after decoupling but only one feature: a per-sample failure.
    jsonl.write_jsonl(texts, [
        {"sample_id": "bad", "image_id": "img1", "expression": "a cat and a dog",
         "features": [[0.1, 0.2, 0.3, 0.4]]},
    ])
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "pipeline",
        "--anchors", str(DATA / "anchors.jsonl"),
        "--texts", str(texts),
        "--weights", str(DATA / "weights.json"),
        "--gt", str(gt_with(tmp_path, "bad")),
        "--offline",
        "--report", str(report),
    )
    assert code == 1
    payload = json.loads(report.read_text())
    assert payload["n_failures"] == 1
    assert payload["failures"][0] == {"sample_id": "bad",
                                      "error": "expected 2 text features to match the phrases, got 1"}


def test_pipeline_isolates_bad_feature_samples(capsys, tmp_path):
    # Malformed samples appended to the fixture: each fails on its own
    # and the eight good samples still reproduce the golden outputs.
    anchor_recs = jsonl.read_jsonl(DATA / "anchors.jsonl")
    bad_image = json.loads(json.dumps(anchor_recs[0]))
    bad_image["image_id"] = "img_bad"
    top = max(bad_image["anchors"], key=lambda a: a["confidence"])
    top["feature"] = top["feature"][:3]
    anchors = tmp_path / "anchors.jsonl"
    jsonl.write_jsonl(anchors, anchor_recs + [bad_image])
    texts = tmp_path / "texts.jsonl"
    jsonl.write_jsonl(texts, jsonl.read_jsonl(DATA / "texts.jsonl") + [
        {"sample_id": "short_text", "image_id": "img1", "phrases": ["p"], "features": [[0.1, 0.2, 0.3]]},
        {"sample_id": "short_anchor", "image_id": "img_bad", "phrases": ["p"],
         "features": [[0.1, 0.2, 0.3, 0.4]]},
        {"sample_id": "nan_text", "image_id": "img1", "phrases": ["p"],
         "features": [[float("nan"), 0.2, 0.3, 0.4]]},
        # Finite projections whose lift time overflows.
        {"sample_id": "huge_text", "image_id": "img1", "phrases": ["p"], "features": [[1e160] * 4]},
        ["a", "JSON", "array"],
    ])
    preds = tmp_path / "preds.jsonl"
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "pipeline",
        "--anchors", str(anchors),
        "--texts", str(texts),
        "--weights", str(DATA / "weights.json"),
        "--gt", str(gt_with(tmp_path, "short_text", "short_anchor", "nan_text", "huge_text")),
        "--offline",
        "--out", str(preds),
        "--report", str(report),
    )
    assert code == 1
    payload = json.loads(report.read_text())
    errors = {f["sample_id"]: f["error"] for f in payload.pop("failures")}
    assert list(errors) == ["short_text", "short_anchor", "nan_text", "huge_text", "<missing sample_id>"]
    assert "text features must be an [n, 4] array" in errors["short_text"]
    assert "same shape" in errors["short_anchor"]
    assert errors["nan_text"] == "text features must be finite numbers"
    assert "non-finite" in errors["huge_text"]
    assert errors["<missing sample_id>"] == "record is not a JSON object"
    assert payload.pop("n_failures") == 5
    golden = json.loads((DATA / "golden_report.json").read_text())
    del golden["failures"], golden["n_failures"]
    assert payload == golden
    assert preds.read_bytes() == (DATA / "golden_predictions.jsonl").read_bytes()


def precedence_inputs(tmp_path):
    """Anchors, texts and ground-truth files whose added texts records carry faults in pairs, beside the fixture's.

    img_bad has an anchor whose feature is too short; every kept anchor of
    img_huge projects to a lift time that overflows. Every added sample has
    ground truth, but for the two whose name says they have none.
    """
    anchor_recs = jsonl.read_jsonl(DATA / "anchors.jsonl")
    bad_image, huge_image = json.loads(json.dumps(anchor_recs[:2]))
    bad_image["image_id"], huge_image["image_id"] = "img_bad", "img_huge"
    bad_image["anchors"][-1]["feature"] = [0.1, 0.2, 0.3]
    for entry in huge_image["anchors"]:
        entry["feature"] = [1e160] * 4
    anchors = tmp_path / "anchors.jsonl"
    jsonl.write_jsonl(anchors, anchor_recs[:4] + [bad_image, huge_image] + anchor_recs[4:])
    row, short, huge = [0.3, -0.2, 0.5, 0.1], [0.1, 0.2, 0.3], [1e160] * 4
    added = [
        {"sample_id": "unknown_and_count", "image_id": "img_nowhere", "phrases": ["a", "b"], "features": [row]},
        {"sample_id": "width_and_bad_anchors", "image_id": "img_bad", "phrases": ["p"], "features": [short]},
        {"sample_id": "huge_text_and_visual", "image_id": "img_huge", "phrases": ["p"], "features": [huge]},
        {"sample_id": "s2", "image_id": "img1", "expression": "x", "decouple_response": "one\n1. x"},
        {"sample_id": "width_and_count", "image_id": "img2", "phrases": ["a", "b"], "features": [short]},
        {"sample_id": "count_and_visual", "image_id": "img_huge", "phrases": ["a", "b"], "features": [row]},
        {"sample_id": "width_and_visual", "image_id": "img_huge", "phrases": ["p"], "features": [short]},
        {"sample_id": "width_only", "image_id": "img1", "phrases": ["p"], "features": [short]},
        {"sample_id": "huge_text", "image_id": "img3", "phrases": ["p", "q"], "features": [row, huge]},
        {"sample_id": "parse_error", "image_id": "img1", "expression": "x", "decouple_response": "2\n1. x"},
        {"sample_id": "none_here", "image_id": "img_nowhere", "phrases": []},
        {"sample_id": "none_on_bad", "image_id": "img_bad", "phrases": [], "features": []},
        {"sample_id": "none_but_a_row", "image_id": "img1", "phrases": [], "features": [huge]},
        {"sample_id": "none_decoupled", "image_id": "img_huge", "expression": "x", "decouple_response": "0"},
        {"sample_id": "two_alike", "image_id": "img4", "phrases": ["a", "b"], "features": [row, row]},
        {"sample_id": "bad_anchors_only", "image_id": "img_bad", "phrases": ["a"], "features": [row]},
        {"sample_id": "phrases_and_no_truth", "image_id": "img1", "phrases": "p", "features": [row]},
        {"sample_id": "no_truth_and_parse_error", "image_id": "img1", "expression": "x",
         "decouple_response": "2\n1. x"},
    ]
    texts, fixture = tmp_path / "texts.jsonl", jsonl.read_jsonl(DATA / "texts.jsonl")
    jsonl.write_jsonl(texts, fixture[:4] + added + fixture[4:])
    truth = [r["sample_id"] for r in added if r["sample_id"] != "s2" and "no_truth" not in r["sample_id"]]
    return anchors, texts, gt_with(tmp_path, *truth)


# What `pipeline` writes for precedence_inputs. A sample whose faults are
# checked in another order, or whose boxes move with the projection, changes it.
_PRECEDENCE_BOXES = [
    ("s1", [[198.66, 39.48, 287.82, 135.63]]),
    ("s2", [[173.72, 89.91, 209.14, 173.33], [164.41, 216.49, 221.11, 304.64]]),
    ("s3", []),
    ("s4", [[120.91, 81.01, 176.96, 148.93], [234.99, 267.53, 334.43, 316.16], [253.99, 25.32, 303.18, 108.85]]),
    ("none_here", []),
    ("none_on_bad", []),
    ("none_decoupled", []),
    ("two_alike", [[234.99, 267.53, 334.43, 316.16], [234.99, 267.53, 334.43, 316.16]]),
    ("s5", [[105.08, 20.82, 153.17, 94.44], [223.11, 257.05, 257.24, 328.52], [223.11, 257.05, 257.24, 328.52]]),
    ("s6", [[296.84, 26.07, 362.6, 120.07]]),
    ("s7", [[42.1, 173.97, 102.39, 224.15], [277.11, 160.87, 376.46, 241.33]]),
    ("s8", [[80.58, 86.98, 180.07, 132.91]]),
]
# With --distinct-anchors the second of two phrases that prefer one anchor takes another.
_PRECEDENCE_DISTINCT = {
    "two_alike": [[234.99, 267.53, 334.43, 316.16], [253.99, 25.32, 303.18, 108.85]],
    "s5": [[105.08, 20.82, 153.17, 94.44], [223.11, 257.05, 257.24, 328.52], [132.81, 59.87, 212.69, 125.05]],
}
_BAD_ANCHORS = "anchors of image 'img_bad': anchor features must be vectors that all have the same shape"
_VISUAL = "visual features projected to non-finite coordinates"
_PRECEDENCE_FAILURES = [
    ("unknown_and_count", "unknown image_id 'img_nowhere'"),
    ("width_and_bad_anchors", _BAD_ANCHORS),
    ("huge_text_and_visual", _VISUAL),
    ("s2", "repeated sample_id 's2'"),
    ("width_and_count", "expected 2 text features to match the phrases, got 1"),
    ("count_and_visual", "expected 2 text features to match the phrases, got 1"),
    ("width_and_visual", _VISUAL),
    ("width_only", "text features must be an [n, 4] array, got shape (1, 3)"),
    ("huge_text", "text features projected to non-finite coordinates"),
    ("parse_error", "line 2: count says 2 phrases but only 1 given"),
    ("none_but_a_row", "expected 0 text features to match the phrases, got 1"),
    ("bad_anchors_only", _BAD_ANCHORS),
    ("phrases_and_no_truth", 'phrases must be a list of strings, got "p"'),
    ("no_truth_and_parse_error", "no ground truth for sample_id 'no_truth_and_parse_error'"),
]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="a split anchors file is decoded by forked processes")
@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("distinct", [False, True])
def test_each_sample_reports_its_first_fault(capsys, tmp_path, monkeypatch, cpus, distinct):
    # Per sample: its texts record, its ground truth, the decoupling, its
    # image's anchors, the phrase count, the visual rows and then the text
    # rows, whatever decodes the anchors file.
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(ingest, "_cpu_count", lambda: cpus)
    anchors, texts, gt = precedence_inputs(tmp_path)
    preds, report = tmp_path / "preds.jsonl", tmp_path / "report.json"
    code, _, _ = run(capsys, "pipeline", "--anchors", str(anchors), "--texts", str(texts),
                     "--weights", str(DATA / "weights.json"), "--gt", str(gt), "--offline",
                     "--out", str(preds), "--report", str(report), *(["--distinct-anchors"] if distinct else []))
    assert code == 1
    want = [(sid, _PRECEDENCE_DISTINCT.get(sid, boxes) if distinct else boxes) for sid, boxes in _PRECEDENCE_BOXES]
    assert [(p["sample_id"], p["boxes"]) for p in strict_json.load_jsonl(preds)[1:]] == want
    failures = strict_json.loads(report.read_text())["failures"]
    assert [(f["sample_id"], f["error"]) for f in failures] == _PRECEDENCE_FAILURES


@pytest.mark.skipif(not hasattr(os, "fork"), reason="a split anchors file is decoded by forked processes")
@pytest.mark.parametrize("cpus", [1, 3])
def test_a_sample_with_no_ground_truth_fails_before_it_is_decoupled(capsys, tmp_path, monkeypatch, cpus):
    # The fixture without s3's ground truth: s3 fails on its own and is never
    # decoupled, and the other seven samples are scored as in the golden run.
    monkeypatch.setattr(ingest, "_MIN_RANGE_BYTES", 1)
    monkeypatch.setattr(ingest, "_cpu_count", lambda: cpus)
    decoupled, decouple_record = [], cli._decouple_record
    monkeypatch.setattr(cli, "_decouple_record",
                        lambda rec, *args: decoupled.append(rec["sample_id"]) or decouple_record(rec, *args))
    gt = tmp_path / "gt.jsonl"
    jsonl.write_jsonl(gt, [r for r in jsonl.read_jsonl(DATA / "gt.jsonl") if r["sample_id"] != "s3"])
    preds, report = tmp_path / "preds.jsonl", tmp_path / "report.json"
    code, _, _ = run(capsys, "pipeline", "--anchors", str(DATA / "anchors.jsonl"), "--texts", str(DATA / "texts.jsonl"),
                     "--weights", str(DATA / "weights.json"), "--gt", str(gt), "--offline",
                     "--out", str(preds), "--report", str(report))
    assert code == 1
    payload = strict_json.loads(report.read_text())
    assert payload["failures"] == [{"sample_id": "s3", "error": "no ground truth for sample_id 's3'"}]
    sample_ids = [r["sample_id"] for r in jsonl.read_jsonl(DATA / "texts.jsonl")]
    assert payload["n_samples"] + payload["n_failures"] == len(sample_ids) == 8
    assert decoupled == [sid for sid in sample_ids if sid != "s3"]
    golden = (DATA / "golden_predictions.jsonl").read_text().splitlines()
    assert preds.read_text().splitlines() == [line for line in golden if '"sample_id": "s3"' not in line]
    golden_report = strict_json.loads((DATA / "golden_report.json").read_text())
    assert payload["per_sample"] == [s for s in golden_report["per_sample"] if s["sample_id"] != "s3"]


@pytest.mark.parametrize("referenced", [False, True])
def test_pipeline_bad_anchor_entry_fails_only_its_samples(capsys, tmp_path, referenced):
    # A box with three coordinates, on an image listed first: the run goes on
    # and only samples that reference that image fail.
    anchor_recs = jsonl.read_jsonl(DATA / "anchors.jsonl")
    bad_image = json.loads(json.dumps(anchor_recs[0]))
    bad_image["image_id"] = "img_bad"
    bad_image["anchors"][-1]["box"] = [0.0, 0.0, 5.0]
    anchors = tmp_path / "anchors.jsonl"
    jsonl.write_jsonl(anchors, [bad_image] + anchor_recs)
    text_recs = jsonl.read_jsonl(DATA / "texts.jsonl")
    if referenced:
        text_recs.append({"sample_id": "uses_bad", "image_id": "img_bad", "phrases": ["p"],
                          "features": [[0.1, 0.2, 0.3, 0.4]]})
    texts = tmp_path / "texts.jsonl"
    jsonl.write_jsonl(texts, text_recs)
    preds = tmp_path / "preds.jsonl"
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "pipeline",
        "--anchors", str(anchors),
        "--texts", str(texts),
        "--weights", str(DATA / "weights.json"),
        "--gt", str(gt_with(tmp_path, "uses_bad")),
        "--offline",
        "--out", str(preds),
        "--report", str(report),
    )
    assert preds.read_bytes() == (DATA / "golden_predictions.jsonl").read_bytes()
    if not referenced:
        assert code == 0
        assert report.read_bytes() == (DATA / "golden_report.json").read_bytes()
        return
    assert code == 1
    payload = json.loads(report.read_text())
    (failure,) = payload.pop("failures")
    assert failure["sample_id"] == "uses_bad"
    assert "img_bad" in failure["error"] and "four coordinates" in failure["error"]
    assert payload.pop("n_failures") == 1
    golden = json.loads((DATA / "golden_report.json").read_text())
    del golden["failures"], golden["n_failures"]
    assert payload == golden


def test_ground_isolates_bad_records(capsys, tmp_path):
    # Malformed records fail one by one; the good ones are written exactly as
    # a clean run writes them, and each failure is one stderr line.
    weights, anchors = ground_inputs(tmp_path)
    good = [
        {"sample_id": "a", "image_id": "img", "phrases": ["p"], "features": [[1.0, 0.0]]},
        {"sample_id": "b", "image_id": "img", "phrases": ["p", "q"], "features": [[0.0, 1.0], [1.0, 0.0]]},
        # No phrases: no anchors needed, so an unknown image is fine.
        {"sample_id": "none", "image_id": "nowhere", "phrases": [], "features": []},
    ]
    bad = [
        {"sample_id": "short", "image_id": "img", "phrases": ["p"], "features": [[1.0]]},
        {"sample_id": "lost", "image_id": "nowhere", "phrases": ["p"], "features": [[1.0, 0.0]]},
        ["a", "JSON", "array"],
        {"sample_id": "count", "image_id": "img", "phrases": ["p", "q"], "features": [[1.0, 0.0]]},
        {"sample_id": "null", "image_id": "img", "phrases": ["p"], "features": None},
        {"sample_id": "abc", "image_id": "img", "phrases": "abc", "features": [[1.0, 0.0]] * 3},
        {"sample_id": "num", "image_id": "img", "phrases": [1], "features": [[1.0, 0.0]]},
        {"sample_id": ["x"], "image_id": "img", "phrases": ["p"], "features": [[1.0, 0.0]]},
    ]

    def ground(name, records):
        texts = tmp_path / f"{name}.jsonl"
        jsonl.write_jsonl(texts, records)
        out = tmp_path / f"{name}_preds.jsonl"
        code, _, err = run(
            capsys, "ground", "--anchors", str(anchors), "--texts", str(texts),
            "--weights", str(weights), "--top-frac", "1.0", "--out", str(out),
        )
        return code, out.read_bytes(), [line for line in err.splitlines() if line.startswith("error: ")]

    clean_code, clean_preds, clean_errors = ground("clean", good)
    assert (clean_code, clean_errors) == (0, [])
    code, preds, errors = ground("mixed", bad[:2] + good[:1] + bad[2:4] + good[1:] + bad[4:])
    assert code == 1
    assert preds == clean_preds
    assert len(errors) == len(bad)
    assert errors[0].startswith("error: short: ")
    assert errors[1] == "error: lost: unknown image_id 'nowhere'"
    assert errors[2] == "error: <missing sample_id>: record is not a JSON object"
    assert errors[3] == "error: count: expected 2 text features to match the phrases, got 1"
    assert errors[4].startswith("error: null: ")
    assert errors[5:] == [
        'error: abc: phrases must be a list of strings, got "abc"',
        "error: num: phrases must be a list of strings, got [1]",
        """error: ['x']: sample_id must be a string or a number, got ["x"]""",
    ]


def test_ground_names_missing_field(capsys, tmp_path):
    weights, anchors = ground_inputs(tmp_path)
    texts = tmp_path / "texts.jsonl"
    jsonl.write_jsonl(texts, [{"sample_id": "b", "image_id": "img", "features": [[1.0, 0.0]]}])
    code, _, err = run(
        capsys, "ground", "--anchors", str(anchors), "--texts", str(texts),
        "--weights", str(weights), "--out", str(tmp_path / "preds.jsonl"),
    )
    assert code == 1
    assert err.splitlines()[-1] == "error: b: record has no 'phrases' field"


def test_pipeline_rejects_features_of_different_lengths_on_one_image(capsys, tmp_path):
    # One dropped (least confident) anchor with a short feature fails every
    # sample on its image; the other images are unaffected.
    anchor_recs = jsonl.read_jsonl(DATA / "anchors.jsonl")
    low = min(anchor_recs[0]["anchors"], key=lambda a: a["confidence"])
    low["feature"] = low["feature"][:3]
    anchors = tmp_path / "anchors.jsonl"
    jsonl.write_jsonl(anchors, anchor_recs)
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "pipeline", "--anchors", str(anchors), "--texts", str(DATA / "texts.jsonl"),
        "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"), "--offline",
        "--report", str(report),
    )
    assert code == 1
    (failure,) = json.loads(report.read_text())["failures"]
    assert failure["sample_id"] == "s1"
    assert "img1" in failure["error"] and "same shape" in failure["error"]


def pipeline_report(capsys, tmp_path, anchors, *extra):
    """(exit code, report) of an offline pipeline run over the fixture's texts and ``anchors``."""
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "pipeline", "--anchors", str(anchors), "--texts", str(DATA / "texts.jsonl"),
        "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"), "--offline",
        "--report", str(report), *extra,
    )
    return code, json.loads(report.read_text())


@pytest.mark.parametrize("field, value, match", [
    ("box", [0.0, 0.0, 5.0], "four coordinates"),
    ("box", [5.0, 0.0, 0.0, 5.0], "x1<x2"),
    ("confidence", None, "finite number"),
])
def test_dropped_anchor_faults_fail_their_image(capsys, tmp_path, field, value, match):
    # As with a short feature above: the least confident anchor, which
    # --top-frac 0.1 drops, still fails every sample on its image.
    anchor_recs = jsonl.read_jsonl(DATA / "anchors.jsonl")
    min(anchor_recs[0]["anchors"], key=lambda a: a["confidence"])[field] = value
    anchors = tmp_path / "anchors.jsonl"
    jsonl.write_jsonl(anchors, anchor_recs)
    code, report = pipeline_report(capsys, tmp_path, anchors)
    assert code == 1
    (failure,) = report["failures"]
    assert failure["sample_id"] == "s1"
    assert failure["error"].startswith("anchors of image 'img1': ") and match in failure["error"]


def test_load_anchor_map_keeps_the_kept_rows(tmp_path):
    entry = {"feature": [0.5, 1.0, 2.0], "confidence": 0.5, "box": [0, 0, 1, 1]}
    counts = {"a": 1, "b": 9, "c": 10, "d": 11, "e": 200}
    anchors = tmp_path / "anchors.jsonl"
    jsonl.write_jsonl(anchors, [{"image_id": k, "anchors": [entry] * n} for k, n in counts.items()])
    for top in (0.05, 0.1, 0.5, 1.0):
        _, anchor_map = ingest.load_anchor_map(anchors, top, lambda: None)
        assert {k: len(s) for k, s in anchor_map.items()} == counts
        assert {k: s.features.shape for k, s in anchor_map.items()} == {
            k: (max(1, math.ceil(top * n)), 3) for k, n in counts.items()}


def test_empty_image_fails_its_samples_only(capsys, tmp_path):
    anchor_recs = jsonl.read_jsonl(DATA / "anchors.jsonl")
    anchor_recs[0]["anchors"] = []
    anchors = tmp_path / "anchors.jsonl"
    jsonl.write_jsonl(anchors, anchor_recs)
    code, report = pipeline_report(capsys, tmp_path, anchors)
    assert code == 1
    assert report["failures"] == [{"sample_id": "s1", "error": "anchors of image 'img1': anchor list is empty"}]


@pytest.mark.parametrize("command", ["pipeline", "ground"])
@pytest.mark.parametrize("top", ["0", "1.5", "nan"])
def test_out_of_range_top_frac_is_a_run_error(capsys, tmp_path, monkeypatch, command, top):
    def never(*args, **kwargs):
        raise AssertionError("the run went on")

    monkeypatch.setattr(cli.similarity, "load_bundle", never)
    preds = tmp_path / "preds.jsonl"
    argv = [command, "--anchors", str(DATA / "anchors.jsonl"), "--texts", str(DATA / "texts.jsonl"),
            "--weights", str(DATA / "weights.json"), "--top-frac", top, "--out", str(preds)]
    if command == "pipeline":
        argv += ["--gt", str(DATA / "gt.jsonl"), "--offline"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[-1] == f"error: top_fraction must lie in (0, 1], got {float(top)}"
    assert strict_json.loads(err.splitlines()[0])["top_frac"] == (top if top == "nan" else float(top))
    assert not preds.exists()


@pytest.mark.parametrize("argv, name, echoed", [
    (["train-toy", "--tau", "inf"], "tau", "inf"),
    (["train-toy", "--kappa=-inf"], "kappa", "-inf"),
    (["eval", "--gt", str(DATA / "gt.jsonl"), "--pred", str(DATA / "golden_predictions.jsonl"),
      "--iou", "nan"], "iou", "nan"),
])
def test_echo_line_is_strict_json(capsys, tmp_path, argv, name, echoed):
    code, _, err = run(capsys, *argv, *(["--out", str(tmp_path / "w.json")] if argv[0] == "train-toy" else []))
    assert code == 2  # the value is still refused, after the echo
    assert strict_json.loads(err.splitlines()[0])[name] == echoed
    assert list(tmp_path.iterdir()) == []


def fixture_pipeline(capsys, tmp_path, text_recs=None, anchors_text=None, gt=DATA / "gt.jsonl"):
    """(exit code, predictions, report) of an offline pipeline run on the fixture, each read strictly.

    ``text_recs`` replaces the texts, ``anchors_text`` the anchors file's text and ``gt`` the ground truth's path.
    """
    texts, anchors = DATA / "texts.jsonl", DATA / "anchors.jsonl"
    if text_recs is not None:
        texts = tmp_path / "texts.jsonl"
        jsonl.write_jsonl(texts, text_recs)
    if anchors_text is not None:
        anchors = tmp_path / "anchors.jsonl"
        anchors.write_text(anchors_text)
    preds, report = tmp_path / "preds.jsonl", tmp_path / "report.json"
    code, _, _ = run(capsys, "pipeline", "--anchors", str(anchors), "--texts", str(texts),
                     "--weights", str(DATA / "weights.json"), "--gt", str(gt), "--offline",
                     "--out", str(preds), "--report", str(report))
    return code, strict_json.load_jsonl(preds)[1:], strict_json.loads(report.read_text())


def test_pipeline_fails_only_the_sample_of_a_mistyped_texts_field(capsys, tmp_path):
    text_recs = jsonl.read_jsonl(DATA / "texts.jsonl")
    text_recs[0]["expression"] = 5
    text_recs[1] = {"sample_id": "s2", "image_id": "img2", "phrases": "ab", "features": text_recs[1]["features"]}
    text_recs[2]["decouple_response"] = 0
    text_recs[3]["sample_id"] = ["x"]
    text_recs[4]["sample_id"] = {"a": 1}
    code, preds, report = fixture_pipeline(capsys, tmp_path, text_recs)
    assert code == 1
    assert report["failures"] == [
        {"sample_id": "s1", "error": "expression must be a string, got 5"},
        {"sample_id": "s2", "error": 'phrases must be a list of strings, got "ab"'},
        {"sample_id": "s3", "error": "decouple_response must be a string, got 0"},
        {"sample_id": ["x"], "error": 'sample_id must be a string or a number, got ["x"]'},
        {"sample_id": {"a": 1}, "error": 'sample_id must be a string or a number, got {"a": 1}'},
    ]
    golden = jsonl.read_jsonl(DATA / "golden_predictions.jsonl")
    assert preds == golden[5:]
    assert report["n_samples"] == 3


def test_non_finite_anchor_box_fails_its_image(capsys, tmp_path):
    # The box s1 selects, with x2 = 1e400: JSON text for a float64 infinity.
    anchor_recs = jsonl.read_jsonl(DATA / "anchors.jsonl")
    (s1_box,) = jsonl.read_jsonl(DATA / "golden_predictions.jsonl")[0]["boxes"]
    (picked,) = [a for a in anchor_recs[0]["anchors"] if a["box"] == s1_box]
    picked["box"] = [0.0, 0.0, 12345.5, 1.0]
    anchors_text = "\n".join(json.dumps(r) for r in anchor_recs).replace("12345.5", "1e400") + "\n"
    code, preds, report = fixture_pipeline(capsys, tmp_path, anchors_text=anchors_text)
    assert code == 1
    assert report["failures"] == [
        {"sample_id": "s1", "error": "anchors of image 'img1': box must have finite coordinates"}]
    assert preds == jsonl.read_jsonl(DATA / "golden_predictions.jsonl")[1:]


def test_import_does_not_load_the_http_stack():
    # The HTTP client is imported by the first decoupling service call only.
    code = ("import sys, hemix.cli; "
            "print(sorted(m for m in ('http.client', 'urllib.request', 'ssl') if m in sys.modules))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("kind", ["anchors", "gt", "pred"])
def test_non_object_line_is_a_run_error(capsys, tmp_path, kind):
    # A valid JSON line that is not an object, on line 3 after the header.
    bad = tmp_path / f"{kind}.jsonl"
    source = DATA / ("golden_predictions.jsonl" if kind == "pred" else f"{kind}.jsonl")
    jsonl.write_jsonl(bad, jsonl.read_jsonl(source)[:1] + [[1, 2]])
    if kind == "pred":
        argv = ["eval", "--gt", str(DATA / "gt.jsonl"), "--pred", str(bad)]
    else:
        paths = {"anchors": DATA / "anchors.jsonl", "gt": DATA / "gt.jsonl", kind: bad}
        argv = ["pipeline", "--anchors", str(paths["anchors"]), "--texts", str(DATA / "texts.jsonl"),
                "--weights", str(DATA / "weights.json"), "--gt", str(paths["gt"]), "--offline"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.splitlines()[-1] == f"error: {bad}:3: record is not a JSON object"


@pytest.mark.parametrize("kind, field", [("gt", "sample_id"), ("pred", "sample_id"), ("pipeline_gt", "sample_id"),
                                         ("anchors", "image_id")])
def test_record_without_key_field_is_a_named_run_error(capsys, tmp_path, kind, field):
    bad = tmp_path / f"{kind}.jsonl"
    bad.write_text('{"v": 1}\n' + ('{"anchors": []}' if kind == "anchors" else '{"boxes": []}') + "\n")
    paths = {"gt": DATA / "gt.jsonl", "pred": DATA / "golden_predictions.jsonl", "anchors": DATA / "anchors.jsonl",
             "pipeline_gt": DATA / "gt.jsonl", kind: bad}
    if kind in ("gt", "pred"):
        argv = ["eval", "--gt", str(paths["gt"]), "--pred", str(paths["pred"])]
    else:
        argv = ["pipeline", "--anchors", str(paths["anchors"]), "--texts", str(DATA / "texts.jsonl"),
                "--weights", str(DATA / "weights.json"), "--gt", str(paths["pipeline_gt"]), "--offline"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.splitlines()[-1] == f"error: {bad}:2: record has no '{field}' field"


@pytest.mark.parametrize("image_id", [["x"], {"a": 1}])
def test_unkeyable_texts_image_id_fails_its_sample(capsys, tmp_path, image_id):
    text_recs = jsonl.read_jsonl(DATA / "texts.jsonl")
    text_recs[0]["image_id"] = image_id
    texts = tmp_path / "texts.jsonl"
    jsonl.write_jsonl(texts, text_recs)
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "pipeline", "--anchors", str(DATA / "anchors.jsonl"), "--texts", str(texts),
                     "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"), "--offline",
                     "--report", str(report))
    assert code == 1
    payload = json.loads(report.read_text())
    assert payload["failures"] == [{"sample_id": text_recs[0]["sample_id"],
                                    "error": f"image_id must be a string or a number, got {json.dumps(image_id)}"}]
    assert payload["n_samples"] == len(text_recs) - 1


def test_ground_rejects_expmap_weights(capsys, tmp_path):
    weights = tmp_path / "w.json"
    weights.write_text((DATA / "weights.json").read_text().replace('"linear"', '"expmap"'))
    code, _, err = run(
        capsys, "ground", "--anchors", str(DATA / "anchors.jsonl"), "--texts", str(DATA / "texts.jsonl"),
        "--weights", str(weights), "--out", str(tmp_path / "preds.jsonl"),
    )
    assert code == 2
    assert "expmap" in err


def test_ground_rejects_truncated_weight_payload(capsys, tmp_path):
    payload = json.loads((DATA / "weights.json").read_text())
    payload["w_hv"] = payload["w_hv"][:-4]
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps(payload))
    code, _, err = run(
        capsys, "ground", "--anchors", str(DATA / "anchors.jsonl"), "--texts", str(DATA / "texts.jsonl"),
        "--weights", str(weights), "--out", str(tmp_path / "preds.jsonl"),
    )
    assert code == 2
    assert "error:" in err and "w_hv" in err


def test_missing_weights_is_config_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "pipeline",
        "--anchors", str(DATA / "anchors.jsonl"),
        "--texts", str(DATA / "texts.jsonl"),
        "--weights", str(tmp_path / "nope.json"),
        "--gt", str(DATA / "gt.jsonl"),
        "--offline",
    )
    assert code == 2
    assert "error:" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["geom-check", "--bogus"])
    assert exc.value.code == 2


def test_jsonl_header_roundtrip(tmp_path):
    path = tmp_path / "x.jsonl"
    jsonl.write_jsonl(path, [{"a": 1}])
    assert path.read_text().splitlines()[0] == '{"v": 1}'
    assert jsonl.read_jsonl(path) == [{"a": 1}]


def test_jsonl_headerless_input_accepted(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"a": 1}\n{"a": 2}\n')
    assert jsonl.read_jsonl(path) == [{"a": 1}, {"a": 2}]


def test_iter_jsonl_matches_read_jsonl(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"v": 1}\n\n{"a": 1}\n   \n[1, 2]\n{"v": 1}\n')
    assert list(jsonl.iter_jsonl(path)) == jsonl.read_jsonl(path) == [{"a": 1}, [1, 2], {"v": 1}]

    def objects(rec):
        if not isinstance(rec, dict):
            raise ValueError("record is not a JSON object")
        return rec

    with pytest.raises(jsonl.SchemaError, match=r"x\.jsonl:5: record is not a JSON object"):
        jsonl.read_jsonl(path, check=objects)


@pytest.mark.parametrize("text, match", [
    ('{"v": 1}\n\n{"a": 1}\n{"a": \n', r"x\.jsonl:4: invalid JSON"),
    ('{"v": 99}\n{"a": 1}\n', "unsupported schema version 99"),
])
def test_iter_jsonl_raises_what_read_jsonl_raises(tmp_path, text, match):
    path = tmp_path / "x.jsonl"
    path.write_text(text)
    for read in (jsonl.read_jsonl, lambda p: list(jsonl.iter_jsonl(p))):
        with pytest.raises(jsonl.SchemaError, match=match):
            read(path)


def test_jsonl_unknown_version_rejected(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text('{"v": 99}\n{"a": 1}\n')
    with pytest.raises(jsonl.SchemaError):
        jsonl.read_jsonl(path)
