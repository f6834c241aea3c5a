"""scripts/scale_probe.py runs pipeline at three sizes and prints each peak and the slope."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_probe():
    spec = importlib.util.spec_from_file_location("scale_probe", ROOT / "scripts" / "scale_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_reports_each_size_and_the_slope(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the probe puts src/ and perfbench/ on the path
    assert load_probe().main(["--images", "1", "--dim", "4", "--anchors", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[2:5]]
    assert [row[0] for row in rows] == ["1", "4", "16"]
    assert all(float(row[2]) > 0 for row in rows)  # the CLI process's VmHWM
    assert re.fullmatch(r"slope per 1,000 images: CLI process -?\d+\.\d MB, largest decoder (-|-?\d+\.\d) MB",
                        lines[5])
