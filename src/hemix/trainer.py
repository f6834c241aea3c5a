"""Desk-scale training loop on a synthetic concept hierarchy.

The data generator builds a two-level hierarchy (parents with several
children each), assigns every concept a descriptor vector, and emits image
records: the positive anchor is a child centroid plus noise, the text is
either that child's descriptor (a specific phrase) or its parent's (a general
phrase, probability 0.5), and negatives are other concept centroids. Training
the projection bundle on this data exercises the full mixed-similarity loss
and lets the apex report probe whether general concepts end up with smaller
hyperbolic spatial norm than specific ones.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .contrastive import GroundingBatch, ImageRecord, contrastive_loss
from .similarity import _MATRICES, ProjectionBundle, _both, _check_scalars, _half, score_matrix


class TrainingDiverged(RuntimeError):
    """Raised when a projection, the loss or a gradient leaves the finite range.

    The message reads ``training diverged at step N: <cause>``.
    """


# Children sit at a fixed angular spread around their parent descriptor; unit
# norms keep the untrained parent/child norm ratio at 1.
_CHILD_SPREAD = 0.6


@dataclass(frozen=True)
class SyntheticHierarchy:
    parents: tuple
    children: dict
    feature_dim: int = 8
    noise_scale: float = 0.05
    seed: int = 42

    def __post_init__(self):
        if not self.parents:
            raise ValueError("parents must not be empty")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be at least 1, got {self.feature_dim}")
        if len(self.parents) > self.feature_dim:
            raise ValueError("feature_dim must be at least the number of parents")
        for parent, kids in self.children.items():
            if parent not in self.parents:
                raise ValueError(f"unknown parent {parent!r}")
            if len(kids) < 2:
                raise ValueError(f"parent {parent!r} needs at least two children")
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and nonnegative, got {self.noise_scale}")

    def all_children(self) -> list:
        return [c for p in self.parents for c in self.children[p]]

    def parent_of(self) -> dict:
        return {c: p for p in self.parents for c in self.children[p]}

    @cached_property
    def descriptors(self) -> Mapping:
        """Read-only unit descriptor per concept id, drawn from ``seed``."""
        rng = np.random.default_rng(self.seed)
        d = self.feature_dim
        basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
        descriptors = {}
        for i, p in enumerate(self.parents):
            descriptors[p] = basis[:, i].copy()
            for c in self.children[p]:
                v = descriptors[p] + _CHILD_SPREAD * rng.standard_normal(d) / math.sqrt(d)
                descriptors[c] = v / np.linalg.norm(v)
        for v in descriptors.values():
            v.flags.writeable = False
        return MappingProxyType(descriptors)


def default_hierarchy(
    n_parents: int = 3,
    children_per_parent: int = 3,
    feature_dim: int = 8,
    noise_scale: float = 0.05,
    seed: int = 42,
) -> SyntheticHierarchy:
    parents = tuple(f"p{i}" for i in range(n_parents))
    children = {p: [f"{p}/c{j}" for j in range(children_per_parent)] for p in parents}
    return SyntheticHierarchy(parents, children, feature_dim, noise_scale, seed)


def generate_dataset(
    h: SyntheticHierarchy,
    n_samples: int,
    negatives_per_image: int = 2,
    batch_images: int = 2,
    seed: int | None = None,
) -> list:
    """Seeded synthetic batches; anchor 0 of every image is the positive.

    Negatives for a specific-phrase sample come from any other child concept;
    for a general-phrase sample they come from children of other parents only
    (a sibling would match the general phrase as well as the positive does).
    Concept descriptors always derive from the hierarchy seed; ``seed``
    overrides only the sample draws, for held-out evaluation sets.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if negatives_per_image < 0:
        raise ValueError("negatives_per_image must be nonnegative")
    if batch_images < 1:
        raise ValueError("batch_images must be at least 1")
    if negatives_per_image > 0 and len(h.parents) < 2:  # a general phrase's pool would be empty
        raise ValueError(f"negatives_per_image must be 0 with one parent, got {negatives_per_image}")
    desc = h.descriptors
    children = h.all_children()
    parent_of = h.parent_of()
    rng = np.random.default_rng(h.seed + 1 if seed is None else seed)
    d = h.feature_dim

    def noisy(v):
        return v + h.noise_scale * rng.standard_normal(d)

    def record():
        child = children[int(rng.integers(len(children)))]
        parent = parent_of[child]
        general = rng.random() < 0.5
        text = noisy(desc[parent] if general else desc[child])
        anchors = [noisy(desc[child])]
        if general:
            pool = [c for c in children if parent_of[c] != parent]
        else:
            pool = [c for c in children if c != child]
        if negatives_per_image > 0:
            picks = rng.choice(len(pool), size=negatives_per_image, replace=negatives_per_image > len(pool))
            # One draw for all negatives, scaled and shifted in place: noisy()'s values, without its temporaries.
            noise = rng.standard_normal((negatives_per_image, d))
            noise *= h.noise_scale
            noise += [desc[pool[int(k)]] for k in picks]
            anchors.extend(noise)
        return ImageRecord(anchors=anchors, text=text)

    # Records are drawn one batch at a time, so their own arrays, which the
    # batch replaces with views of its stacks, are short-lived.
    return [
        GroundingBatch(images=[record() for _ in range(min(batch_images, n_samples - start))])
        for start in range(0, n_samples, batch_images)
    ]


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    lr: float = 0.025
    alpha: float = 0.5
    tau: float = 0.07
    kappa: float = 1.0
    seed: int = 42
    intra_negatives: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        # lr = 0 is allowed as the documented no-op run.
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and nonnegative, got {self.lr}")
        _check_scalars(self.alpha, self.tau, self.kappa)


# _Adam updates each matrix this many rows at a time, so the rows of the
# moments, gradient, parameters and scratch it touches stay in cache.
_ADAM_ROWS = 64


class _Adam:
    """Plain Adam with bias correction, updating moments and ``params`` in place.

    Each matrix keeps its own step count, so matrices updated once per step
    one after another match one update of them all. Each update runs the
    textbook update's operations in the textbook order, one block of rows at
    a time through two preallocated scratch blocks, so the parameters match
    the allocating form bit for bit. Each matrix is updated in two row
    halves, each through its own pair of scratch blocks, on two threads where
    it is large. The matrices share one shape.
    """

    def __init__(self, params: dict, lr: float):
        self.params, self.lr = params, lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = dict.fromkeys(params, 0)
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}
        cols = next(iter(params.values())).shape[1]
        self._scratch = np.empty((2, 2, _ADAM_ROWS, cols))  # [halves, 2, _ADAM_ROWS, cols]

    def update(self, name: str, g: np.ndarray) -> None:
        """One Adam step of ``params[name]`` with gradient ``g``."""
        self.t[name] += 1
        rows, half = len(g), _half(len(g))
        _both(lambda: self._rows(name, g, 0, half, self._scratch[0]),
              lambda: self._rows(name, g, half, rows, self._scratch[1]), elements=g.size)

    def _rows(self, name: str, g: np.ndarray, start: int, stop: int, scratch: np.ndarray) -> None:
        """The update of rows [start, stop) of ``params[name]``, _ADAM_ROWS at a time through ``scratch``."""
        t, b1, b2, eps, lr = self.t[name], self.beta1, self.beta2, self.eps, self.lr
        c1, c2 = 1 - b1**t, 1 - b2**t
        m, v, p = self.m[name], self.v[name], self.params[name]
        for block in range(start, stop, _ADAM_ROWS):
            rows = slice(block, min(block + _ADAM_ROWS, stop))
            gb, mb, vb, pb = g[rows], m[rows], v[rows], p[rows]
            a, b = scratch[0, : len(gb)], scratch[1, : len(gb)]
            # m = b1 m + (1 - b1) g
            np.multiply(mb, b1, out=mb)
            np.multiply(gb, 1 - b1, out=a)
            np.add(mb, a, out=mb)
            # v = b2 v + (1 - b2) g g
            np.multiply(vb, b2, out=vb)
            np.multiply(gb, 1 - b2, out=a)
            np.multiply(a, gb, out=a)
            np.add(vb, a, out=vb)
            # p -= lr (m / c1) / (sqrt(v / c2) + eps)
            np.divide(vb, c2, out=a)
            np.sqrt(a, out=a)
            np.add(a, eps, out=a)
            np.divide(mb, c1, out=b)
            np.divide(b, a, out=b)
            np.multiply(b, lr, out=b)
            np.subtract(pb, b, out=pb)


def train(data: list, cfg: TrainConfig) -> tuple[ProjectionBundle, list]:
    """Run the contrastive loop; returns the trained bundle and per-step losses."""
    if not data:
        raise ValueError("training data is empty")
    dim = data[0].dim
    if any(batch.dim != dim for batch in data):
        raise ValueError("all batches must share one feature dimension")
    bundle = ProjectionBundle.initialize(
        dim, alpha=cfg.alpha, tau=cfg.tau, kappa=cfg.kappa, seed=cfg.seed
    )
    opt = _Adam({name: getattr(bundle, name) for name in _MATRICES}, cfg.lr)
    # Each gradient is written into this one buffer and applied before the
    # next is made, so no step allocates a [dim, dim] array.
    out = np.empty_like(bundle.w_ev)
    rng = np.random.default_rng(cfg.seed)

    trace = []
    try:
        for step in range(cfg.steps):
            if step % len(data) == 0:  # a fresh order for each pass over the data
                order = rng.permutation(len(data))
            batch = data[int(order[step % len(data)])]
            trace.append(contrastive_loss(batch, bundle, cfg.intra_negatives, apply=opt.update, out=out))
        # The last update can overflow the projections with finite weights.
        score_matrix(batch.anchors, batch.texts, bundle)
    except ValueError as exc:
        raise TrainingDiverged(f"training diverged at step {step}: {exc}") from exc
    return bundle, trace


def selection_accuracy(data: list, bundle: ProjectionBundle) -> float:
    """Fraction of image records whose own positive anchor wins the argmax.

    Each batch is embedded once; an image's scores are its own text's column
    over its own anchor rows, and its positive wins when it attains the
    segment's maximum (argmax returns the first maximum).
    """
    hits = 0
    total = 0
    for batch in data:
        own = score_matrix(batch.anchors, batch.texts, bundle)[np.arange(len(batch.owner)), batch.owner]
        hits += int(np.count_nonzero(own[batch.pos] == np.maximum.reduceat(own, batch.pos)))
        total += len(batch.pos)
    return hits / total


def apex_report(bundle: ProjectionBundle, h: SyntheticHierarchy) -> dict:
    """Hyperbolic spatial norm of every concept descriptor under W_HT.

    The parent/child mean-norm ratio operationalizes "general concepts sit
    nearer the apex": a trained ratio below 1 means parents embed with
    smaller spatial norm than their children.
    """
    desc = h.descriptors
    norms = {cid: float(np.linalg.norm(v @ bundle.w_ht)) for cid, v in desc.items()}
    parent_mean = float(np.mean([norms[p] for p in h.parents]))
    child_mean = float(np.mean([norms[c] for c in h.all_children()]))
    ratio = parent_mean / child_mean if child_mean > 0 else None
    return {
        "concept_norms": norms,
        "parent_mean_norm": parent_mean,
        "child_mean_norm": child_mean,
        "parent_child_ratio": ratio,
    }
