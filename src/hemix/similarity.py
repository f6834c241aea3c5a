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
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .lorentz import lift_time

DEFAULT_DIM = 512
DEFAULT_TAU = 0.07
DEFAULT_KAPPA = 1.0


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
        for name in ("w_ev", "w_et", "w_hv", "w_ht"):
            m = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, m)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
            if m.shape != self.w_ev.shape:
                raise ValueError("all projection matrices must share one dimension")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        for name in ("tau", "kappa"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")

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
    """
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != w_e.shape[-2]:
        raise ValueError(f"{what} must be an [n, {w_e.shape[-2]}] array, got shape {f.shape}")
    # A NaN, infinite or overflowing feature is reported by the check below
    # alone, not also by a floating-point warning. A finite z can still
    # overflow its lift time, which would score -inf.
    with np.errstate(invalid="ignore", over="ignore"):
        e, z = f @ w_e, f @ w_h
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


def _check_dim(f: np.ndarray, dim: int, what: str) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (dim,):
        raise ValueError(f"{what} must be a length-{dim} vector, got shape {f.shape}")
    return f


def _pair(f_v: np.ndarray, f_t: np.ndarray, bundle: ProjectionBundle, alpha: float) -> float:
    f_v = _check_dim(f_v, bundle.dim, "visual feature")
    f_t = _check_dim(f_t, bundle.dim, "text feature")
    return float(_scores(f_v[None, :], f_t[None, :], bundle, alpha)[0, 0])


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
# row-major order, so values round-trip bit for bit. A file without
# "encoding" is the legacy form with decimal lists and is still read.
# ---------------------------------------------------------------------------

_MATRICES = ("w_ev", "w_et", "w_hv", "w_ht")
WEIGHT_ENCODING = "base64-f8le"


def save_bundle(bundle: ProjectionBundle, path: str | Path) -> None:
    payload = {
        "dim": bundle.dim,
        "kappa": bundle.kappa,
        "alpha": bundle.alpha,
        "tau": bundle.tau,
        "layout": "row-major",
        # "linear" is the only embedding; the key keeps the header stable.
        "embed_strategy": "linear",
        "encoding": WEIGHT_ENCODING,
    }
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
        raise ValueError(f"{name} is not a valid base64 payload: {exc}") from None
    if len(raw) != 8 * dim * dim:
        raise ValueError(f"{name} payload has {len(raw)} bytes, expected {8 * dim * dim}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def load_bundle(path: str | Path) -> ProjectionBundle:
    payload = json.loads(Path(path).read_text())
    if payload.get("layout") != "row-major":
        raise ValueError(f"unsupported weight layout {payload.get('layout')!r}")
    if payload.get("embed_strategy", "linear") != "linear":
        raise ValueError(f"unsupported embed strategy {payload['embed_strategy']!r}")
    encoding = payload.get("encoding")
    if encoding not in (None, WEIGHT_ENCODING):
        raise ValueError(f"unsupported weight encoding {encoding!r}")
    dim = int(payload["dim"])
    mats = {}
    for name in _MATRICES:
        if encoding is None:
            flat = np.asarray(payload[name], dtype=np.float64)
        else:
            flat = _decode_matrix(name, payload[name], dim)
        if flat.shape != (dim * dim,):
            raise ValueError(f"{name} has shape {flat.shape}, expected ({dim * dim},)")
        mats[name] = flat.reshape(dim, dim)
    return ProjectionBundle(**mats, alpha=float(payload["alpha"]), tau=float(payload["tau"]),
                            kappa=float(payload["kappa"]))
