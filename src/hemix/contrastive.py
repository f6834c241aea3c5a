"""Anchor-based contrastive objective over mixed similarity scores.

Each image contributes one softmax term set: its own positive anchor plus, by
default, every anchor of the other images (the other-image negatives). The
``intra_negatives`` switch additionally admits the image's own non-positive
anchors into the denominator; both policies are supported because the loss'
printed indicator and its prose description disagree, and downstream code
must be able to test either reading.

The whole batch is one [anchors x images] score matrix with a mask marking
each image's term set (its column). Gradients with respect to the four
projection matrices are computed in closed form. For a scored pair (a, t),
with e, z and x0 as ``similarity.embed_rows`` defines them:

    d sim_e / d W_EV = outer(a, e_t)
    d sim_e / d W_ET = outer(t, e_v)
    d sim_h / d z_v  = z_t - (x0_t / x0_v) z_v     (chain through W_HV)
    d sim_h / d z_t  = z_v - (x0_v / x0_t) z_t     (chain through W_HT)

and the softmax factor (p_k - 1[k is the positive]) / tau weights each pair,
so summing over pairs turns each gradient into a matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lorentz import geodesic_distance
from .similarity import ProjectionBundle, embed_rows, hyperbolic_embed, pair_scores


@dataclass
class ImageRecord:
    """Anchors of one image (index 0 is the positive) and its text feature."""

    anchors: list
    text: np.ndarray

    def __post_init__(self):
        if len(self.anchors) < 1:
            raise ValueError("an image record needs at least one anchor")
        self.anchors = [np.asarray(a, dtype=np.float64) for a in self.anchors]
        self.text = np.asarray(self.text, dtype=np.float64)
        dim = self.text.shape[0]
        if any(a.shape != (dim,) for a in self.anchors):
            raise ValueError("anchor and text feature dimensions differ")


@dataclass
class GroundingBatch:
    images: list

    def __post_init__(self):
        if len(self.images) == 0:
            raise ValueError("batch must contain at least one image")

    @property
    def dim(self) -> int:
        return self.images[0].text.shape[0]


@dataclass
class LossReport:
    loss: float
    grads: dict | None = field(default=None)

    def __post_init__(self):
        if not math.isfinite(self.loss) or self.loss < 0.0:
            raise ValueError(f"loss must be finite and nonnegative, got {self.loss}")
        if self.grads is not None:
            for name, g in self.grads.items():
                if not np.all(np.isfinite(g)):
                    raise ValueError(f"gradient {name} contains non-finite entries")


def contrastive_loss(
    batch: GroundingBatch,
    bundle: ProjectionBundle,
    intra_negatives: bool = False,
    *,
    compute_grads: bool = True,
) -> LossReport:
    """Mean over images of -log softmax(positive | term set), with analytic grads."""
    n_img = len(batch.images)
    alpha, tau = bundle.alpha, bundle.tau

    anchors = np.stack([a for img in batch.images for a in img.anchors])
    texts = np.stack([img.text for img in batch.images])
    sizes = [len(img.anchors) for img in batch.images]
    cols = np.arange(n_img)
    pos = np.cumsum([0] + sizes[:-1])  # row of each image's positive
    # in_set[k, i]: anchor k is in image i's term set.
    if intra_negatives:
        in_set = np.ones((anchors.shape[0], n_img), dtype=bool)
    else:
        in_set = np.repeat(cols, sizes)[:, None] != cols[None, :]
        in_set[pos, :] = True

    v = embed_rows(anchors, bundle.w_ev, bundle.w_hv, bundle.kappa, "anchor features")
    t = embed_rows(texts, bundle.w_et, bundle.w_ht, bundle.kappa, "text features")
    scores = pair_scores(v, t, alpha) / tau
    shifted = np.where(in_set, scores, -np.inf)
    shifted -= shifted.max(axis=0)
    exps = np.exp(shifted)
    denom = exps.sum(axis=0)
    loss = float((np.log(denom) - shifted[pos, cols]).sum()) / n_img

    if -1e-12 < loss < 0.0:
        # log(denom) can round a hair below the positive-term score when the
        # softmax is fully saturated; the true value is nonnegative.
        loss = 0.0
    grads = None
    if compute_grads:
        g = exps / denom
        g[pos, cols] -= 1.0
        g /= tau * n_img  # [anchors, images], zero outside the term sets
        grads = {
            "w_ev": (1.0 - alpha) * (anchors.T @ (g @ t.e)),
            "w_et": (1.0 - alpha) * (texts.T @ (g.T @ v.e)),
            "w_hv": alpha * (anchors.T @ (g @ t.z - ((g @ t.x0) / v.x0)[:, None] * v.z)),
            "w_ht": alpha * (texts.T @ (g.T @ v.z - ((g.T @ v.x0) / t.x0)[:, None] * t.z)),
        }
    return LossReport(loss=loss, grads=grads)


def hierarchical_loss(
    f_cat: np.ndarray,
    f_base_ref: np.ndarray,
    f_ref: np.ndarray,
    bundle: ProjectionBundle,
) -> float:
    """Explicit hierarchy constraint: geodesic distances of category and
    decomposed phrase to the raw expression, all through the text projection."""
    f_cat = np.asarray(f_cat, dtype=np.float64)
    f_base_ref = np.asarray(f_base_ref, dtype=np.float64)
    f_ref = np.asarray(f_ref, dtype=np.float64)
    if not f_cat.shape == f_base_ref.shape == f_ref.shape:
        raise ValueError("hierarchy features must share one dimension")
    embed = lambda f: hyperbolic_embed(f, bundle.w_ht, bundle.kappa)
    base = embed(f_base_ref)
    return geodesic_distance(embed(f_cat), base) + geodesic_distance(embed(f_ref), base)


def gradient_check(
    batch: GroundingBatch,
    bundle: ProjectionBundle,
    epsilon: float = 1e-5,
    intra_negatives: bool = False,
) -> float:
    """Max relative error of analytic grads vs central finite differences.

    The relative error denominator is max(|analytic|, |numeric|, 1e-8),
    evaluated over every entry of the four projection matrices.
    """
    if not 1e-6 <= epsilon <= 1e-4:
        raise ValueError(f"epsilon must lie in [1e-6, 1e-4], got {epsilon}")
    analytic = contrastive_loss(batch, bundle, intra_negatives).grads
    worst = 0.0
    for name in ("w_ev", "w_et", "w_hv", "w_ht"):
        mat = getattr(bundle, name)
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = mat[idx]
            mat[idx] = orig + epsilon
            up = contrastive_loss(batch, bundle, intra_negatives, compute_grads=False).loss
            mat[idx] = orig - epsilon
            down = contrastive_loss(batch, bundle, intra_negatives, compute_grads=False).loss
            mat[idx] = orig
            numeric = (up - down) / (2.0 * epsilon)
            a = float(analytic[name][idx])
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
