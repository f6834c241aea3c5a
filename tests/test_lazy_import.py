"""hemix loads each module on first use.

A process that imports ``hemix.cli`` and runs ``pipeline``, ``ground`` or
``eval`` never loads the trainer, the contrastive loss or the mixing
analysis; the command that calls one loads it. The package's public names
and submodules resolve on first access to the objects their modules define.
Each check runs in a fresh interpreter, since this process has loaded every
module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hemix import jsonl
from hemix.similarity import ProjectionBundle, save_bundle

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
DEFERRED = ("hemix.contrastive", "hemix.mixture", "hemix.trainer")

# The package's public names by defining module.
PUBLIC = {
    "contrastive": ("GroundingBatch", "ImageRecord", "contrastive_loss", "gradient_check"),
    "decouple": ("DecoupleError", "DecoupleResult", "ParseError", "PromptParts", "build_prompt",
                 "decouple_via_service", "parse_response", "render", "rule_based_decompose"),
    "grounding": ("AnchorRecord", "AnchorSet", "filter_anchors", "ground"),
    "lorentz": ("CurvedPoint", "TangentVector", "apex", "exp_map", "geodesic_distance", "lift", "log_map",
                "lorentz_inner", "tangent_project"),
    "metrics": ("EvalSample", "MatchReport", "iou", "match_sample", "n_acc", "precision_at_f1"),
    "mixture": ("MixtureErrorModel", "monte_carlo_mse", "mse_of_mix", "optimal_alpha", "quadratic_coeffs"),
    "similarity": ("ProjectionBundle", "hemix", "load_bundle", "save_bundle", "score_matrix", "sim_euclidean",
                   "sim_hyperbolic"),
    "trainer": ("SyntheticHierarchy", "TrainConfig", "TrainingDiverged", "apex_report", "default_hierarchy",
                "generate_dataset", "selection_accuracy", "train"),
}
SUBMODULES = ("contrastive", "decouple", "grounding", "lorentz", "metrics", "mixture", "records", "similarity",
              "trainer")

# Runs each argv of sys.argv[2] through hemix.cli.main and writes, to sys.argv[1], its exit code and the
# deferred modules loaded after it, after the import first.
COMMANDS_CHILD = """
import contextlib, io, json, sys
import hemix.cli

deferred = {deferred!r}
runs = [[None, [m for m in deferred if m in sys.modules]]]
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = hemix.cli.main(argv)
    runs.append([rc, [m for m in deferred if m in sys.modules]])
with open(sys.argv[1], "w") as fh:
    json.dump(runs, fh)
""".format(deferred=DEFERRED)

# Resolves every public name and submodule from a cold ``import hemix`` and writes what it found to sys.argv[1].
NAMES_CHILD = """
import importlib, json, sys
import hemix

public = json.loads(sys.argv[2])
out = {"loaded_by_import": sorted(m for m in sys.modules if m.startswith("hemix."))}
out["same_object"] = {name: getattr(hemix, name) is getattr(importlib.import_module("hemix." + module), name)
                      for module, names in public.items() for name in names}
out["submodules"] = {m: getattr(hemix, m) is sys.modules["hemix." + m] for m in json.loads(sys.argv[3])}
namespace = {}
exec("from hemix import *", namespace)
out["star"] = sorted(k for k in namespace if k != "__builtins__")
try:
    hemix.no_such_name
except AttributeError as exc:
    out["unknown"] = str(exc)
out["dir_covers"] = set(out["star"] + json.loads(sys.argv[3])) <= set(dir(hemix))
with open(sys.argv[1], "w") as fh:
    json.dump(out, fh)
"""


def run_child(code: str, tmp_path, *args) -> object:
    result = tmp_path / "result.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
           "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, "-c", code, str(result), *args], cwd=tmp_path, env=env, check=True,
                   capture_output=True, text=True, timeout=120)
    return json.loads(result.read_text())


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    weights, anchors, texts = tmp_path / "w.json", tmp_path / "anchors.jsonl", tmp_path / "texts.jsonl"
    save_bundle(ProjectionBundle.initialize(2, seed=0), weights)
    jsonl.write_jsonl(anchors, [{"image_id": "img", "anchors": [
        {"feature": [1.0, 0.0], "confidence": 0.9, "box": [0, 0, 10, 10]}]}])
    jsonl.write_jsonl(texts, [{"sample_id": "a", "image_id": "img", "phrases": ["p"], "features": [[1.0, 0.0]]}])
    commands = [
        ["pipeline", "--anchors", str(DATA / "anchors.jsonl"), "--texts", str(DATA / "texts.jsonl"),
         "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"), "--offline"],
        ["ground", "--anchors", str(anchors), "--texts", str(texts), "--weights", str(weights),
         "--top-frac", "1.0", "--out", str(tmp_path / "preds.jsonl")],
        ["eval", "--gt", str(DATA / "gt.jsonl"), "--pred", str(DATA / "golden_predictions.jsonl")],
        ["analyze-alpha", "--b-e", "0.5", "--b-h", "-0.5", "--sigma-e", "1", "--sigma-h", "2", "--rho", "0.3"],
        ["grad-check", "--batches", "1"],
        ["train-toy", "--dim", "4", "--steps", "3", "--samples", "8", "--out", str(tmp_path / "trained.json")],
    ]
    runs = run_child(COMMANDS_CHILD, tmp_path, json.dumps(commands))
    assert runs == [
        [None, []],  # import hemix.cli
        [0, []],  # pipeline --offline
        [0, []],  # ground
        [0, []],  # eval
        [0, ["hemix.mixture"]],  # analyze-alpha
        [0, ["hemix.contrastive", "hemix.mixture"]],  # grad-check
        [0, ["hemix.contrastive", "hemix.mixture", "hemix.trainer"]],  # train-toy
    ]


def test_every_public_name_and_submodule_resolves_on_first_use(tmp_path):
    out = run_child(NAMES_CHILD, tmp_path, json.dumps(PUBLIC), json.dumps(SUBMODULES))
    assert out["loaded_by_import"] == []
    assert len(out["same_object"]) == 52 and all(out["same_object"].values())
    assert out["submodules"] == dict.fromkeys(SUBMODULES, True)
    assert out["star"] == sorted(name for names in PUBLIC.values() for name in names)
    assert out["unknown"] == "module 'hemix' has no attribute 'no_such_name'"
    assert out["dir_covers"]
