"""The committed fixture under tests/data is exactly what scripts/gen_fixture.py writes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
FILES = ("weights.json", "anchors.jsonl", "texts.jsonl", "gt.jsonl",
         "golden_predictions.jsonl", "golden_report.json")


def load_generator():
    spec = importlib.util.spec_from_file_location("gen_fixture", ROOT / "scripts" / "gen_fixture.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gen_fixture_reproduces_committed_files(tmp_path):
    assert load_generator().main(tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FILES)
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
