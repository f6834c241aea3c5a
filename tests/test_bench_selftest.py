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
