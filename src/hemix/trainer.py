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
from dataclasses import dataclass

import numpy as np

from .contrastive import GroundingBatch, ImageRecord, contrastive_loss
from .similarity import ProjectionBundle, score_matrix


class TrainingDiverged(RuntimeError):
    """Raised when the loss leaves the finite range mid-run."""


@dataclass(frozen=True)
class SyntheticHierarchy:
    parents: tuple
    children: dict
    feature_dim: int = 8
    noise_scale: float = 0.05
    seed: int = 42

    def __post_init__(self):
        for parent, kids in self.children.items():
            if parent not in self.parents:
                raise ValueError(f"unknown parent {parent!r}")
            if len(kids) < 2:
                raise ValueError(f"parent {parent!r} needs at least two children")

    def all_children(self) -> list:
        return [c for p in self.parents for c in self.children[p]]

    def parent_of(self) -> dict:
        return {c: p for p in self.parents for c in self.children[p]}


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


# Children sit at a fixed angular spread around their parent descriptor; unit
# norms keep the untrained parent/child norm ratio at 1.
_CHILD_SPREAD = 0.6


def concept_descriptors(h: SyntheticHierarchy) -> dict:
    """Deterministic unit descriptor per concept id."""
    rng = np.random.default_rng(h.seed)
    d = h.feature_dim
    if len(h.parents) > d:
        raise ValueError("feature_dim must be at least the number of parents")
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0]
    descriptors = {}
    for i, p in enumerate(h.parents):
        descriptors[p] = basis[:, i].copy()
        for c in h.children[p]:
            v = descriptors[p] + _CHILD_SPREAD * rng.standard_normal(d) / math.sqrt(d)
            descriptors[c] = v / np.linalg.norm(v)
    return descriptors


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
    desc = concept_descriptors(h)
    children = h.all_children()
    parent_of = h.parent_of()
    rng = np.random.default_rng(h.seed + 1 if seed is None else seed)
    d = h.feature_dim

    def noisy(v):
        return v + h.noise_scale * rng.standard_normal(d)

    records = []
    for _ in range(n_samples):
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
            anchors.extend(noisy(desc[pool[int(k)]]) for k in picks)
        records.append(ImageRecord(anchors=anchors, text=text))

    return [
        GroundingBatch(images=records[i : i + batch_images])
        for i in range(0, len(records), batch_images)
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
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")


class _Adam:
    """Plain Adam with bias correction."""

    def __init__(self, lr: float):
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m: dict = {}
        self.v: dict = {}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        for name, g in grads.items():
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            m_hat = self.m[name] / (1 - self.beta1**self.t)
            v_hat = self.v[name] / (1 - self.beta2**self.t)
            params[name] -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps))


def train(data: list, cfg: TrainConfig) -> tuple[ProjectionBundle, list]:
    """Run the contrastive loop; returns the trained bundle and per-step losses."""
    if not data:
        raise ValueError("training data is empty")
    dim = data[0].dim
    for batch in data:
        if batch.dim != dim or any(img.text.shape != (dim,) for img in batch.images):
            raise ValueError("all batches must share one feature dimension")
    bundle = ProjectionBundle.initialize(
        dim, alpha=cfg.alpha, tau=cfg.tau, kappa=cfg.kappa, seed=cfg.seed
    )
    params = {"w_ev": bundle.w_ev, "w_et": bundle.w_et, "w_hv": bundle.w_hv, "w_ht": bundle.w_ht}
    opt = _Adam(cfg.lr)
    rng = np.random.default_rng(cfg.seed)

    trace = []
    order = rng.permutation(len(data))
    cursor = 0
    for step in range(cfg.steps):
        if cursor == len(order):
            order = rng.permutation(len(data))
            cursor = 0
        batch = data[int(order[cursor])]
        cursor += 1
        try:
            report = contrastive_loss(batch, bundle, cfg.intra_negatives)
        except ValueError as exc:
            raise TrainingDiverged(f"loss became non-finite at step {step}") from exc
        trace.append(report.loss)
        opt.step(params, report.grads)
    return bundle, trace


def selection_accuracy(data: list, bundle: ProjectionBundle) -> float:
    """Fraction of image records whose own positive anchor wins the argmax."""
    hits = 0
    total = 0
    for batch in data:
        for img in batch.images:
            scores = score_matrix(np.stack(img.anchors), [img.text], bundle)[:, 0]
            hits += int(np.argmax(scores) == 0)
            total += 1
    return hits / total


def apex_report(bundle: ProjectionBundle, h: SyntheticHierarchy) -> dict:
    """Hyperbolic spatial norm of every concept descriptor under W_HT.

    The parent/child mean-norm ratio operationalizes "general concepts sit
    nearer the apex": a trained ratio below 1 means parents embed with
    smaller spatial norm than their children.
    """
    desc = concept_descriptors(h)
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
