import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes(tmp_path):
    # The benchmark's self-check compares its reference code with the
    # program's, so a change under src/ can break it. It runs from tmp_path,
    # where it writes its scratch files, against this checkout's src/.
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.split() == ["ok", "check_scorer", "ok", "check_filter", "ok", "check_matcher",
                                  "ok", "check_generator"]


# The bench tracer's per-module call counts for the fixture pipeline, taken
# on the code it was written against. The tracer wraps the program from
# outside, so a change that moves, renames or re-imports what it wraps loses
# spans without an error; these counts show it.
TRACED_CALLS = {
    "cli.calls": 3, "contrastive.calls": 0, "contrastive.grad_calls": 0, "contrastive.loss_calls": 0,
    "decouple.calls": 8, "grounding.calls": 8, "jsonl.calls": 5, "lorentz.calls": 14,
    "lorentz.exp_map_calls": 0, "lorentz.geodesic_distance_calls": 0, "lorentz.lift_calls": 0,
    "lorentz.log_map_calls": 0, "metrics.calls": 78, "mixture.calls": 0, "similarity.calls": 22,
    "trainer.calls": 0,
}

TRACED_RUN = """
import contextlib, io, json, sys
from tracer import Tracer

tracer = Tracer()
tracer.install()
import hemix.cli

with contextlib.redirect_stdout(io.StringIO()):
    rc = hemix.cli.main(sys.argv[2:])
tracer.write_spans(sys.argv[1])
layers = tracer.per_layer()
print(json.dumps({"rc": rc, "calls": {k: v for k, v in layers.items() if k.endswith("calls")},
                  "draws": layers["mixture.draws"]}))
"""


# The same counts for the pinned d=16 `train-toy` run of tests/test_trainer.py:
# one `contrastive_loss` span per training step, each with gradients.
TRACED_TRAIN_CALLS = {
    "cli.calls": 3, "contrastive.calls": 30, "contrastive.grad_calls": 30, "contrastive.loss_calls": 30,
    "decouple.calls": 0, "grounding.calls": 0, "jsonl.calls": 0, "lorentz.calls": 162,
    "lorentz.exp_map_calls": 0, "lorentz.geodesic_distance_calls": 0, "lorentz.lift_calls": 0,
    "lorentz.log_map_calls": 0, "metrics.calls": 0, "mixture.calls": 0, "similarity.calls": 295,
    "trainer.calls": 6,
}


# The same counts for the benchmark's `analyze-alpha` run (see
# tests/test_cli.py's pins): the closed form's calls and one Monte-Carlo
# oracle call whose draw count the tracer reads from its arguments.
TRACED_ALPHA_CALLS = {
    "cli.calls": 3, "contrastive.calls": 0, "contrastive.grad_calls": 0, "contrastive.loss_calls": 0,
    "decouple.calls": 0, "grounding.calls": 0, "jsonl.calls": 0, "lorentz.calls": 0,
    "lorentz.exp_map_calls": 0, "lorentz.geodesic_distance_calls": 0, "lorentz.lift_calls": 0,
    "lorentz.log_map_calls": 0, "metrics.calls": 0, "mixture.calls": 17, "similarity.calls": 0,
    "trainer.calls": 0,
}


def _traced(tmp_path, argv):
    """Runs the CLI under the bench tracer; returns its output and the spans it wrote."""
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), "PYTHONDONTWRITEBYTECODE": "1"}
    spans = tmp_path / "spans.jsonl"
    out = subprocess.run([sys.executable, "-c", TRACED_RUN, str(spans), *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout), [json.loads(line) for line in spans.read_text().splitlines()]


def test_traced_fixture_pipeline_keeps_its_call_counts(tmp_path):
    data = ROOT / "tests" / "data"
    argv = ["pipeline", "--anchors", str(data / "anchors.jsonl"), "--texts", str(data / "texts.jsonl"),
            "--weights", str(data / "weights.json"), "--gt", str(data / "gt.jsonl"), "--offline"]
    result, spans = _traced(tmp_path, argv)
    assert result == {"rc": 0, "calls": TRACED_CALLS, "draws": 0}
    assert [s["sample_id"] for s in spans if s["name"] == "grounding.ground"] == [f"s{i}" for i in range(1, 9)]


def test_traced_train_toy_keeps_its_call_counts(tmp_path):
    argv = ["train-toy", "--dim", "16", "--steps", "30", "--batch-images", "4", "--negatives", "3",
            "--samples", "32", "--seed", "3", "--out", str(tmp_path / "weights.json")]
    result, spans = _traced(tmp_path, argv)
    assert result == {"rc": 0, "calls": TRACED_TRAIN_CALLS, "draws": 0}
    loss_parents = {spans[s["parent"]]["name"] for s in spans if s["name"] == "contrastive.contrastive_loss"}
    assert loss_parents == {"trainer.train"}


def test_traced_analyze_alpha_keeps_its_call_counts(tmp_path):
    argv = ["analyze-alpha", "--b-e", "0.5", "--b-h", "-0.5", "--sigma-e", "1", "--sigma-h", "2",
            "--rho", "0.3", "--mc-n", "1000000", "--seed", "1"]
    result, spans = _traced(tmp_path, argv)
    assert result == {"rc": 0, "calls": TRACED_ALPHA_CALLS, "draws": 1_000_000}
    oracle = [s for s in spans if s["name"] == "mixture.monte_carlo_mse"]
    assert [spans[s["parent"]]["name"] for s in oracle] == ["cli.cmd_analyze_alpha"]
