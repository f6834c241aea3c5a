"""Euclidean, hyperbolic, and mixed similarity over learned linear projections.

Features are row vectors; every projection is applied as f @ W. The hyperbolic
branch projects into spatial coordinates and lifts onto the hyperboloid, where
similarity is the Lorentzian inner product. The mixed score is the convex
combination (1 - alpha) * sim_e + alpha * sim_h.

``score_matrix`` scores every anchor row against every text row at once and is
the one implementation of the score; the per-pair functions are 1x1 views.
"""

from __future__ import annotations

import base64
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import jsonl, records
from .lorentz import lift_time

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
    for name, value in (("tau", tau), ("kappa", kappa)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")


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
# Weight file format: one sorted-key JSON object. The header (alpha, dim,
# embed_strategy, encoding, kappa, layout, tau) is text; each of the four
# matrices is one base64 string of its dim*dim little-endian float64 values in
# row-major order, so values round-trip bit for bit.
# ---------------------------------------------------------------------------


def save_bundle(bundle: ProjectionBundle, path: str | Path) -> None:
    payload = {"dim": bundle.dim, "kappa": bundle.kappa, "alpha": bundle.alpha, "tau": bundle.tau,
               **records._WEIGHT_FORMAT}
    # The matrix keys sort after every header key, and base64 needs no JSON
    # escaping, so the strings are written after the header as they are:
    # the bytes of json.dumps(payload with matrices, sort_keys=True) + "\n".
    with Path(path).open("wb") as fh:
        fh.write(json.dumps(payload, sort_keys=True)[:-1].encode("ascii"))
        for name in sorted(_MATRICES):
            raw = np.ascontiguousarray(getattr(bundle, name), dtype="<f8").tobytes()
            fh.writelines((f', "{name}": "'.encode("ascii"), base64.b64encode(raw), b'"'))
        fh.write(b"}\n")


def _decode_matrix(name: str, value, dim: int) -> np.ndarray:
    """One base64-f8le payload as an owned, writeable [dim * dim] float64 array."""
    try:
        raw = base64.b64decode(value, validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: not a valid base64 payload: {exc}") from None
    if len(raw) != 8 * dim * dim:
        raise ValueError(f"{name}: payload has {len(raw)} bytes, expected {8 * dim * dim}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def load_bundle(path: str | Path) -> ProjectionBundle:
    """The bundle of a weight file; any fault of its contents raises ValueError("<path>: ...")."""
    try:
        text = jsonl._text(path)
        try:
            payload = json.loads(text)
        except ValueError:  # the fault's place as a text-mode read gives it, each \r\n and \r read as one \n
            payload = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
        del text
        header = records._weight_header(payload, _MATRICES)
        dim = header.pop("dim")
        mats = {name: _decode_matrix(name, payload[name], dim).reshape(dim, dim) for name in _MATRICES}
        return ProjectionBundle(**mats, **header)
    except (ValueError, RecursionError) as exc:  # also JSON nested too deep
        raise ValueError(f"{path}: {exc}") from None
