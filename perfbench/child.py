"""One workload iteration in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

SPEC.json names the ``hemix.cli.main`` argument lists to run in order, whether
to trace them, and where to write the result. The result holds the time this
interpreter took to import ``hemix.cli``, the wall time and exit code of each
``main`` call, their standard output, and the peak RSS of this process. With
no commands it only measures the import and describes the numeric libraries.
"""

import sys
import time

_start = time.perf_counter()
import hemix.cli  # noqa: E402  (the import itself is what setup_s measures)

IMPORT_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def _blas() -> dict:
    """BLAS library and the thread count its pool reports at run time."""
    info = {"library": None, "threads": None}
    try:
        info["library"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["runtime_library"] = lib.rsplit("/", 1)[-1]
                return info
    return info


def _peak_rss_bytes() -> int:
    """High-water RSS of this process image.

    ``ru_maxrss`` is not used: Linux carries the parent's peak into it across
    the fork and exec that started this child.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    commands = []
    for argv in spec["commands"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            rc = hemix.cli.main(argv)
            wall = time.perf_counter() - start
        commands.append({"argv": argv, "rc": rc, "wall_s": wall, "stdout": out.getvalue()})
    result = {
        "import_s": IMPORT_S,
        "wall_s": sum(c["wall_s"] for c in commands),
        "peak_rss_mb": _peak_rss_bytes() / 1e6,
        "commands": commands,
    }
    if not commands:
        result["env"] = {"python": platform.python_version(), "numpy": np.__version__, "blas": _blas()}
    if tracer is not None:
        result["per_layer"] = tracer.per_layer()
        tracer.write_spans(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
