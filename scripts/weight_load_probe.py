"""Time and size one weight-file load, each in a fresh interpreter.

Writes a seeded bundle with ``save_bundle``, then runs ``load_bundle`` on it in
``--runs`` new interpreters that import the ``hemix`` of this checkout. Each
reports its first-call time and how far the load raised the process's peak
resident set (``VmHWM``, read from ``/proc/self/status``, so Linux only) above
its value after the import. Prints each run and the medians, in MB of 10^6
bytes as the benchmark's ``peak_rss_mb``. Run from anywhere:

    python scripts/weight_load_probe.py                 # d=512, 7 runs
    python scripts/weight_load_probe.py --dim 256 --runs 11
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import json, sys, time
from hemix import similarity

def peak_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024 / 1e6

before = peak_mb()
start = time.perf_counter()
similarity.load_bundle(sys.argv[1])
seconds = time.perf_counter() - start
print(json.dumps({"load_s": seconds, "peak_mb": peak_mb(), "peak_before_mb": before}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=512)
    parser.add_argument("--runs", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 1 or args.dim < 1:
        parser.error("--runs and --dim must be at least 1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    sys.path.insert(0, str(SRC))
    from hemix import similarity

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weights.json"
        similarity.save_bundle(similarity.ProjectionBundle.initialize(args.dim, seed=args.seed), path)
        print(f"d={args.dim}: {path.stat().st_size / 1e6:.2f} MB file, {4 * 8 * args.dim ** 2 / 1e6:.2f} MB "
              f"of matrices")
        runs = []
        for i in range(args.runs):
            out = subprocess.run([sys.executable, "-c", CHILD, str(path)], env=env, check=True,
                                 capture_output=True, text=True).stdout
            run = json.loads(out)
            run["delta_mb"] = run["peak_mb"] - run["peak_before_mb"]
            runs.append(run)
            print(f"run {i + 1}: load {run['load_s'] * 1e3:.1f} ms, VmHWM {run['peak_before_mb']:.1f} -> "
                  f"{run['peak_mb']:.1f} MB (+{run['delta_mb']:.1f})")
    median = {key: statistics.median(r[key] for r in runs) for key in ("load_s", "peak_mb", "delta_mb")}
    print(f"median of {args.runs}: load {median['load_s'] * 1e3:.1f} ms, VmHWM {median['peak_mb']:.1f} MB "
          f"(+{median['delta_mb']:.1f} MB over the import)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
