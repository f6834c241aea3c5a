"""Benchmark for hemix: drives ``hemix.cli.main`` on generated inputs.

    python3 perfbench/run.py --workload ground-d512 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py            # every workload, one after the other

Run from the root of a source checkout. Each iteration runs the workload's
CLI command(s) in a fresh interpreter, so the import time and the peak RSS
belong to that iteration only; iterations repeat until ``--seconds`` have
passed and the metrics are medians over them. Every iteration's outputs are
checked against the benchmark's own reference; each mismatch counts as a
failed operation.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics: self time
and call counts per ``hemix`` module, work counters, and the tracing
overhead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

# Untraced iterations at least, even when --seconds has run out: three for
# the end-to-end medians, two (each paired with a traced one) for the trace.
MIN_ITERATIONS = {False: 3, True: 2}
CHILD_TIMEOUT_S = 150
BLAS_THREADS = 1

NOTES = [
    "only the benchmark's own processes are measured",
    "no system-wide tracing and no cache dropping",
    "inputs are read from a warm page cache: they are written just before the timed runs",
]

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One BLAS thread: on a shared machine an idle-spinning second thread made
    # single iterations up to three times slower.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_bytes") or key.endswith("bytes_read"):
        return "bytes"
    return "ratio" if key.endswith("_ratio") else "count"


class Runner:
    """Starts children one at a time and waits for each."""

    def __init__(self, work: Path, out: Path):
        self.work, self.out = work, out
        self.env = _child_env()
        self.count = 0

    def child(self, commands: list, trace: bool = False) -> dict:
        self.count += 1
        spec_path = self.work / f"child{self.count}.json"
        result_path = self.work / f"child{self.count}.result.json"
        spec = {"commands": commands, "trace": trace, "result": str(result_path),
                "spans": str(self.out / "spans.jsonl")}
        spec_path.write_text(json.dumps(spec))
        with (self.work / "child.log").open("ab") as log:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)], cwd=ROOT,
                                  env=self.env, stdout=log, stderr=log, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            tail = (self.work / "child.log").read_text()[-2000:]
            raise RuntimeError(f"benchmark child exited {proc.returncode}:\n{tail}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        spec_path.unlink()
        return result


def _room_for_one_more(start: float, seconds: float, done: int) -> bool:
    """True while another iteration, at the mean pace so far, ends within the run."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    work = RUN_DIR / "work" / f"{name}-{seed}-{os.getpid()}"
    out = RUN_DIR / "out" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare(work, seed)
        runner = Runner(work, out)
        probe = runner.child([])  # warms the bytecode and page caches; describes the environment
        env = {**probe["env"], "nproc": len(os.sched_getaffinity(0)), "sizes": workload.sizes,
               "input_bytes": workload.input_bytes,
               "notes": NOTES, "workload": name, "seed": seed, "seconds": seconds, "trace": trace}
        (out / "env.json").write_text(json.dumps(env, indent=2, sort_keys=True) + "\n")

        attempted = failed = 0
        problems = []
        imports, plain, traced = [], [], []
        start = time.perf_counter()
        while len(plain) < MIN_ITERATIONS[trace] or _room_for_one_more(start, seconds, len(plain)):
            if not trace:  # import-only children spread over the run, for setup_s
                imports.append(runner.child([])["import_s"])
            for traced_run in ((False, True) if trace else (False,)):
                for path in workload.outputs:
                    path.unlink(missing_ok=True)
                result = runner.child(workload.commands(), trace=traced_run)
                a, f, p = workload.check(result)
                attempted, failed = attempted + a, failed + f
                problems.extend(p)
                (traced if traced_run else plain).append(result)
                imports.append(result["import_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # The fastest iteration, not the median: the machine's speed drifts in
    # phases of tens of seconds, which moved the median of ten iterations by
    # up to 45% and their minimum by about 15%.
    wall = min(r["wall_s"] for r in plain)
    if trace:
        fastest = min(traced, key=lambda r: r["wall_s"])
        metrics = dict(fastest["per_layer"])
        metrics["trace.overhead_s"] = fastest["wall_s"] - wall
        metrics["trace.unattributed_s"] = fastest["wall_s"] - sum(
            v for k, v in metrics.items() if k.endswith(".self_s"))
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}
    else:
        values = {
            "setup_s": statistics.median(imports),
            "wall_s": wall,
            "samples_per_s": workload.samples / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {**summary, "workload": name, "seed": seed, "iterations": len(plain) + len(traced),
              "wall_s": {"untraced": [r["wall_s"] for r in plain], "traced": [r["wall_s"] for r in traced]},
              "import_s": imports,
              "error_rate": failed / attempted, "problems": problems[:50], "env": env}
    (out / ("trace.json" if trace else "result.json")).write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hemix" / "cli.py").is_file():
        print(f"error: no hemix sources under {SRC}; run from the root of a hemix checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    for name in names:
        rec = measure(name, args.seed, args.seconds, bool(args.trace))
        records[name] = rec
        print(f"# {name}: seed {args.seed}, {rec['iterations']} iterations, "
              f"error_rate {rec['error_rate']:.6g} ({rec['failed']}/{rec['attempted']})")
        for key, m in rec["metrics"].items():
            print(f"{name}  {key:32s} {m['value']:.6g} {m['unit']}")
        for problem in rec["problems"]:
            print(f"{name}  mismatch: {problem}")
    if len(records) == 1:
        rec = records[names[0]]
        final = {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{n}.{k}": m for n, r in records.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
