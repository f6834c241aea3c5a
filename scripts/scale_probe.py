"""Peak memory of ``pipeline --offline`` at 1, 4 and 16 times one input size.

Writes seeded inputs with the benchmark's generator (``perfbench/gen.py``) in
chunks of ``--images`` images: chunk c > 0 is drawn from seed ``--seed`` + c,
its image and sample ids are prefixed with ``c<c>-``, and every chunk shares
the weight file of chunk 0. The files grow by appending chunks, so only the
largest input is ever on disk. At 1, 4 and 16 chunks, ``pipeline --offline``
runs once in a new interpreter that imports the ``hemix`` of this checkout,
with BLAS on one thread. Each run reports the peak resident set of the CLI
process (``VmHWM``, from ``/proc/self/status``, so Linux only) and the largest
``ru_maxrss`` of the processes that decoded the anchors file (none for a file
of one span; it counts the pages a decoder shares with the CLI process when it
is forked). Prints one row per size, in MB of 10^6 bytes as the benchmark's
``peak_rss_mb``, and the slope per 1,000 images from the smallest size to the
largest. Run from anywhere:

    python scripts/scale_probe.py                                # d=64, 300 images x 1, 4, 16
    python scripts/scale_probe.py --dim 512 --anchors 1000 --images 4
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC, BENCH = ROOT / "src", ROOT / "perfbench"
MULTIPLES = (1, 4, 16)

CHILD = r"""
import json, resource, sys
from hemix import cli

rc = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
decoder = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"rc": rc, "cli_mb": peak * 1024 / 1e6, "decoder_mb": decoder * 1024 / 1e6 or None}))
"""


def _append(src: Path, dst: Path, chunk: int) -> None:
    """Append the JSONL file ``src`` to ``dst``; past chunk 0, without its header and with its ids prefixed."""
    data = src.read_bytes()
    if chunk:
        prefix = b"c%d-" % chunk
        data = data.split(b"\n", 1)[1]
        for key in (b'"image_id": "', b'"sample_id": "'):
            data = data.replace(key, key + prefix)
    with dst.open("ab") as fh:
        fh.write(data)


def _run(files: dict, top_frac: float, env: dict) -> dict:
    argv = ["pipeline", "--offline", "--anchors", str(files["anchors"]), "--texts", str(files["texts"]),
            "--gt", str(files["gt"]), "--weights", str(files["weights"]), "--top-frac", str(top_frac),
            "--report", str(files["report"])]
    out = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


def _slope(runs: list, key: str) -> float | None:
    """MB per 1,000 images from the first run to the last, or None where either has no figure."""
    first, last = runs[0], runs[-1]
    if first[key] is None or last[key] is None:
        return None
    return (last[key] - first[key]) / (last["images"] - first["images"]) * 1000


def _mb(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--images", type=int, default=300, help="images per chunk, the 1x size")
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--anchors", type=int, default=200, help="anchors per image")
    parser.add_argument("--top-frac", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if min(args.images, args.dim, args.anchors) < 1:
        parser.error("--images, --dim and --anchors must be at least 1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import gen

    runs = []
    print(f"d={args.dim}, {args.anchors} anchors and one expression per image, --top-frac {args.top_frac}")
    print("images  anchors file MB  CLI VmHWM MB  largest decoder ru_maxrss MB")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {name: tmp / f"{name}.jsonl" for name in ("anchors", "texts", "gt")}
        files.update(weights=tmp / "weights.json", report=tmp / "report.json")
        for chunk in range(MULTIPLES[-1]):
            case = gen.write_pipeline_inputs(tmp / "chunk", args.seed + chunk, dim=args.dim, n_images=args.images,
                                             anchors_per_image=args.anchors, exprs_per_image=1,
                                             top_frac=args.top_frac)
            for name in ("anchors", "texts", "gt"):
                _append(getattr(case, name), files[name], chunk)
            if not chunk:
                case.weights.replace(files["weights"])
            if chunk + 1 in MULTIPLES:
                run = _run(files, args.top_frac, env)
                run.update(images=(chunk + 1) * args.images, anchors_mb=files["anchors"].stat().st_size / 1e6)
                runs.append(run)
                print(f"{run['images']:>6}  {run['anchors_mb']:>15.2f}  {run['cli_mb']:>12.1f}  "
                      f"{_mb(run['decoder_mb']):>29}")
    print(f"slope per 1,000 images: CLI process {_mb(_slope(runs, 'cli_mb'))} MB, "
          f"largest decoder {_mb(_slope(runs, 'decoder_mb'))} MB")
    failed = [run["images"] for run in runs if run["rc"]]
    if failed:
        print(f"pipeline exited nonzero at {failed} images", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
