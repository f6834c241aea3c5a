"""Euclidean, hyperbolic, and mixed similarity over learned linear projections.

Features are row vectors; every projection is applied as f @ W. The hyperbolic
branch projects into spatial coordinates and lifts onto the hyperboloid, where
similarity is the Lorentzian inner product. The mixed score is the convex
combination (1 - alpha) * sim_e + alpha * sim_h.

``embed_rows`` and ``pair_scores`` are the one implementation of the score:
``score_matrix`` and its 1x1 views (the per-pair functions) call them, and so
do grounding (on pooled visual rows) and the contrastive loss (on weight stacks).
"""

from __future__ import annotations

import json
import math
import os
import stat
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import records
from .lorentz import _positive, lift_time

DEFAULT_DIM = 512
DEFAULT_TAU = 0.07
DEFAULT_KAPPA = 1.0

# The projection matrices' names, in the order of ProjectionBundle's fields.
_MATRICES = ("w_ev", "w_et", "w_hv", "w_ht")


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where it cannot fork or ask."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


# Large array work runs on two threads where the process may use more than
# one CPU: this one and one worker thread. Handing half of it over costs about
# 20 us, so smaller work runs on this thread alone. Measured at one BLAS
# thread on two CPUs, the split gains from Adam over [256, 256] (310 -> 240
# us; [192, 192] broke even) and from 2^21 multiply-adds of a matrix product
# ([8, 512] @ [512, 512]: 310 -> 195 us); at 2^20 some shapes broke even or
# lost ([128, 72] @ [72, 128]: 33 -> 36 us).
_SPLIT_ELEMENTS = 1 << 16  # of an elementwise update
_SPLIT_MULADDS = 1 << 21  # of a matrix product


def _half(rows: int) -> int:
    """Where work over ``rows`` rows splits: the multiple of 64 at or above rows / 2.

    Each half is then whole 64-row blocks.
    """
    return 64 * -(-rows // 128)


class _Worker:
    """A daemon thread that runs the second callable of each _both call."""

    def __init__(self):
        self.busy, self.go, self.done = threading.Lock(), threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        threading.Thread(target=self._serve, name="hemix-worker", daemon=True).start()

    def _serve(self):
        while True:
            self.go.acquire()
            try:
                with np.errstate(**self.err):
                    self.out = self.job(), None
            except BaseException as exc:  # handed to the caller, which raises it
                self.out = None, exc
            self.done.release()


_workers = []  # the worker, once started; a forked child starts its own


def _both(first, second, *, elements: int = 0, muladds: int = 0) -> tuple:
    """(first(), second()), with second run on the worker thread where the work is large.

    The work is large when the process may use more than one CPU and it has
    at least _SPLIT_ELEMENTS elements or _SPLIT_MULADDS multiply-adds. Smaller
    work runs first() then second() on this thread, and an exception of first
    skips second. The worker runs under this thread's floating-point error
    state and only NumPy work or private methods, no public function. It
    returns, or raises the exception of either (first's if both raise), only
    once both are done, so no array is still in use on the worker when the
    caller goes on. A call that finds the worker busy with another thread's
    call runs both here.
    """
    if (elements < _SPLIT_ELEMENTS and muladds < _SPLIT_MULADDS) or _cpu_count() < 2:
        return first(), second()
    if not _workers:
        _workers.append(_Worker())
        os.register_at_fork(after_in_child=_workers.clear)
    worker = _workers[0]
    if not worker.busy.acquire(blocking=False):
        return first(), second()
    try:
        worker.job, worker.err = second, np.geterr()
        worker.go.release()
        try:
            mine = first()
        finally:
            worker.done.acquire()
            (theirs, error), worker.job, worker.out = worker.out, None, None  # holds no array past the call
        if error is not None:
            raise error
        return mine, theirs
    finally:
        worker.busy.release()


def _check_scalars(alpha: float, tau: float, kappa: float) -> None:
    """Raise ValueError unless alpha lies in [0, 1] and tau and kappa are finite and positive."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    _positive("tau", tau)
    _positive("kappa", kappa)


@dataclass
class ProjectionBundle:
    """The four projection matrices plus the mixing, temperature, and curvature scalars.

    alpha lies in [0, 1]; the endpoints reduce the mix to a single branch.
    """

    w_ev: np.ndarray
    w_et: np.ndarray
    w_hv: np.ndarray
    w_ht: np.ndarray
    alpha: float
    tau: float = DEFAULT_TAU
    kappa: float = DEFAULT_KAPPA

    def __post_init__(self):
        for name in _MATRICES:
            m = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, m)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
            if m.shape != self.w_ev.shape:
                raise ValueError("all projection matrices must share one dimension")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")
        _check_scalars(self.alpha, self.tau, self.kappa)

    @property
    def dim(self) -> int:
        return self.w_ev.shape[0]

    @classmethod
    def initialize(
        cls,
        dim: int = DEFAULT_DIM,
        alpha: float = 0.5,
        tau: float = DEFAULT_TAU,
        kappa: float = DEFAULT_KAPPA,
        seed: int = 42,
    ) -> "ProjectionBundle":
        """Seeded uniform init with gain 1/sqrt(dim), keeping initial scores O(1)."""
        rng = np.random.default_rng(seed)
        gain = 1.0 / math.sqrt(dim)
        mats = [rng.uniform(-gain, gain, size=(dim, dim)) for _ in range(4)]
        return cls(*mats, alpha=alpha, tau=tau, kappa=kappa)


class Embedded(NamedTuple):
    """Feature rows in both branches: e = f W_E, z = f W_H and z's lift time x0."""

    e: np.ndarray
    z: np.ndarray
    x0: np.ndarray


def embed_rows(f: np.ndarray, w_e: np.ndarray, w_h: np.ndarray, kappa: float, what: str) -> Embedded:
    """Project an [n, dim] stack of feature rows into both branches.

    The weights may be [s, dim, dim] stacks; the branches are then [s, n, dim].
    Raises ValueError, naming the rows ``what``, for rows of another shape and
    for a non-finite coordinate.
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != w_e.shape[-2]:
        raise ValueError(f"{what} must be an [n, {w_e.shape[-2]}] array, got shape {f.shape}")
    # A NaN, infinite or overflowing feature is reported by the check below
    # alone, not also by a floating-point warning. A finite z can still
    # overflow its lift time, which would score -inf.
    with np.errstate(invalid="ignore", over="ignore"):
        e, z = _both(lambda: f @ w_e, lambda: f @ w_h, muladds=f.shape[0] * w_e.shape[-2] * w_e.shape[-1])
        x0 = lift_time(z, kappa)
    if not (np.isfinite(e).all() and np.isfinite(z).all() and np.isfinite(x0).all()):
        raise ValueError(f"{what} projected to non-finite coordinates")
    return Embedded(e, z, x0)


def pair_scores(v: Embedded, t: Embedded, alpha: float) -> np.ndarray:
    """[N, M] mixed scores of every visual row against every text row.

    The Lorentz branch Z_v Z_t^T - outer(x0_v, x0_t) holds all pairwise
    Lorentzian inner products; alpha = 0 and 1 return one branch bit for bit.
    Either side may carry a leading stack axis, which the scores then share.
    """
    sim_e = v.e @ t.e.swapaxes(-1, -2)
    sim_h = v.z @ t.z.swapaxes(-1, -2) - v.x0[..., :, None] * t.x0[..., None, :]
    if alpha == 0.0:
        return sim_e
    if alpha == 1.0:
        return sim_h
    return (1.0 - alpha) * sim_e + alpha * sim_h


def _scores(a: np.ndarray, t: np.ndarray, bundle: ProjectionBundle, alpha: float) -> np.ndarray:
    v = embed_rows(a, bundle.w_ev, bundle.w_hv, bundle.kappa, "visual features")
    return pair_scores(v, embed_rows(t, bundle.w_et, bundle.w_ht, bundle.kappa, "text features"), alpha)


def score_matrix(a: np.ndarray, t: np.ndarray, bundle: ProjectionBundle) -> np.ndarray:
    """Mixed similarity of every anchor row of ``a`` [N, dim] to every text row of ``t`` [M, dim].

    Entry [i, j] is (1 - alpha) <a_i W_EV, t_j W_ET> + alpha <lift(a_i W_HV),
    lift(t_j W_HT)>_L. Raises ValueError for an input that is not an
    [n, dim] array and for non-finite projections.
    """
    return _scores(a, t, bundle, bundle.alpha)


def _pair(f_v: np.ndarray, f_t: np.ndarray, bundle: ProjectionBundle, alpha: float) -> float:
    """The score of two feature vectors; embed_rows rejects any other shape as a [1, ...] row."""
    return float(_scores(np.asarray(f_v)[None], np.asarray(f_t)[None], bundle, alpha)[0, 0])


def sim_euclidean(f_v: np.ndarray, f_t: np.ndarray, bundle: ProjectionBundle) -> float:
    """<f_v @ W_EV, f_t @ W_ET>, the plain inner product of the projections."""
    return _pair(f_v, f_t, bundle, 0.0)


def sim_hyperbolic(f_v: np.ndarray, f_t: np.ndarray, bundle: ProjectionBundle) -> float:
    """Lorentzian inner product of the embedded pair; always <= -1/kappa."""
    return _pair(f_v, f_t, bundle, 1.0)


def hemix(f_v: np.ndarray, f_t: np.ndarray, bundle: ProjectionBundle) -> float:
    """(1 - alpha) * sim_euclidean + alpha * sim_hyperbolic.

    The endpoints return the single-branch score itself, bit for bit.
    """
    return _pair(f_v, f_t, bundle, bundle.alpha)


# ---------------------------------------------------------------------------
# Weight file format: one sorted-key JSON header line (alpha, dim,
# embed_strategy, encoding, kappa, layout, tau) and "\n", then the matrices
# w_et, w_ev, w_ht and w_hv, each as its dim*dim little-endian float64 values in
# row-major order, so values round-trip bit for bit. Nothing follows them.
# ---------------------------------------------------------------------------

_HEADER_BYTES = 4096  # the longest header line load_bundle reads, its \n included


def save_bundle(bundle: ProjectionBundle, path: str | Path) -> None:
    header = {"dim": bundle.dim, "kappa": bundle.kappa, "alpha": bundle.alpha, "tau": bundle.tau,
              **records._WEIGHT_FORMAT}
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        for name in sorted(_MATRICES):
            fh.write(np.ascontiguousarray(getattr(bundle, name), dtype="<f8").data)


def load_bundle(path: str | Path) -> ProjectionBundle:
    """The bundle of a weight file; any fault of its contents raises ValueError("<path>: ...").

    The header line is checked before anything is allocated for the matrices,
    and a regular file's size before the matrices are read. They are read
    into one [4, dim, dim] array, whose views the bundle holds.
    """
    try:
        with open(path, "rb") as fh:
            line = fh.readline(_HEADER_BYTES)
            if not line.endswith(b"\n"):
                raise ValueError(f"header: not one line of at most {_HEADER_BYTES} bytes ending in \\n")
            fields = records._weight_header(json.loads(str(line, "utf-8")))
            dim = fields.pop("dim")
            want = 4 * 8 * dim * dim
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode) and st.st_size - len(line) != want:
                raise ValueError(f"payload has {st.st_size - len(line)} bytes, expected {want}")
            try:
                mats = np.empty((4, dim, dim), dtype="<f8")
            except MemoryError:  # a dim far beyond what a pipe or device holds
                raise ValueError(f"dim: {dim} needs more memory than this process may allocate") from None
            got = fh.readinto(mats)
            if got < want:
                raise ValueError(f"payload has {got} bytes, expected {want}")
            if fh.read(1):
                raise ValueError(f"payload has more than the {want} bytes expected")
        return ProjectionBundle(**dict(zip(sorted(_MATRICES), mats)), **fields)
    except (ValueError, RecursionError) as exc:  # also JSON nested too deep
        raise ValueError(f"{path}: {exc}") from None
