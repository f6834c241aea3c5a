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

from .similarity import _MATRICES, ProjectionBundle, _both, _half, embed_rows, pair_scores


@dataclass
class ImageRecord:
    """Anchors [n, dim] of one image (row 0 is the positive) and its text feature [dim]."""

    anchors: np.ndarray
    text: np.ndarray

    def __post_init__(self):
        if len(self.anchors) < 1:
            raise ValueError("an image record needs at least one anchor")
        self.anchors = np.asarray(self.anchors, dtype=np.float64)
        self.text = np.asarray(self.text, dtype=np.float64)
        if self.text.ndim != 1 or self.anchors.shape[1:] != self.text.shape:
            raise ValueError("anchor and text feature dimensions differ")


@dataclass
class GroundingBatch:
    """Images scored together, stacked once into the arrays the loss reads.

    Construction copies every image's anchors and text into ``anchors`` and
    ``texts`` and rebinds each record's ``anchors`` and ``text`` to views of
    them, so the batch holds one copy of its features.
    """

    images: list
    anchors: np.ndarray = field(init=False, repr=False, compare=False)  # [anchors, dim], positive first per image
    texts: np.ndarray = field(init=False, repr=False, compare=False)  # [images, dim]
    pos: np.ndarray = field(init=False, repr=False, compare=False)  # row of each image's positive
    owner: np.ndarray = field(init=False, repr=False, compare=False)  # image of each anchor row

    def __post_init__(self):
        if len(self.images) == 0:
            raise ValueError("batch must contain at least one image")
        if len({img.text.shape for img in self.images}) != 1:
            raise ValueError("all images of a batch must share one feature dimension")
        sizes = [len(img.anchors) for img in self.images]
        self.anchors = np.concatenate([img.anchors for img in self.images])
        self.texts = np.stack([img.text for img in self.images])
        self.pos = np.cumsum([0] + sizes[:-1])
        self.owner = np.repeat(np.arange(len(sizes)), sizes)
        for img, start, size, text in zip(self.images, self.pos, sizes, self.texts):
            img.anchors, img.text = self.anchors[start : start + size], text

    @property
    def dim(self) -> int:
        return self.texts.shape[1]


def _in_set(batch: GroundingBatch, intra_negatives: bool) -> np.ndarray:
    """[anchors, images] mask: anchor k is in image i's term set."""
    if intra_negatives:
        return np.ones((len(batch.owner), len(batch.pos)), dtype=bool)
    in_set = batch.owner[:, None] != np.arange(len(batch.pos))[None, :]
    in_set[batch.pos, :] = True
    return in_set


def _loss(batch: GroundingBatch, in_set: np.ndarray, bundle: ProjectionBundle, **stacked: np.ndarray):
    """Mean over images of -log softmax(positive | term set).

    A keyword named after one of the bundle's matrices replaces it with an
    [s, dim, dim] stack of weights, and the loss is then an [s] array. Also
    returns what the gradients reuse: both embeddings and the softmax.
    """
    w = {name: stacked.get(name, getattr(bundle, name)) for name in _MATRICES}
    v = embed_rows(batch.anchors, w["w_ev"], w["w_hv"], bundle.kappa, "anchor features")
    t = embed_rows(batch.texts, w["w_et"], w["w_ht"], bundle.kappa, "text features")
    scores = pair_scores(v, t, bundle.alpha) / bundle.tau
    shifted = np.where(in_set, scores, -np.inf)
    shifted -= shifted.max(axis=-2, keepdims=True)
    exps = np.exp(shifted)
    denom = exps.sum(axis=-2)
    cols = np.arange(len(batch.pos))
    loss = (np.log(denom) - shifted[..., batch.pos, cols]).sum(axis=-1) / len(cols)
    # log(denom) can round a hair below the positive-term score when the
    # softmax is fully saturated; the true value is nonnegative.
    return np.where((-1e-12 < loss) & (loss < 0.0), 0.0, loss), v, t, exps / denom[..., None, :]


def contrastive_loss(
    batch: GroundingBatch,
    bundle: ProjectionBundle,
    intra_negatives: bool = False,
    *,
    apply,
    out: np.ndarray | None = None,
) -> float:
    """Mean over images of -log softmax(positive | term set); returns the loss.

    Each analytic gradient is handed to ``apply(name, grad)`` as soon as it is
    made, in ``w_ev, w_et, w_hv, w_ht`` order, before the next one is
    computed. ``out``, if given, is one [dim, dim] float64 array that receives
    every gradient in turn, so ``apply`` must be done with it when it returns;
    without ``out`` each gradient is a fresh array. The loss is checked before
    any gradient is made, and each gradient before it is applied, so a
    non-finite gradient raises after the gradients before it were applied.
    """
    loss, v, t, g = _loss(batch, _in_set(batch, intra_negatives), bundle)
    loss = float(loss)
    if not math.isfinite(loss) or loss < 0.0:
        raise ValueError(f"loss must be finite and nonnegative, got {loss}")
    alpha, n_img = bundle.alpha, len(batch.pos)
    g[batch.pos, np.arange(n_img)] -= 1.0
    g /= bundle.tau * n_img  # [anchors, images], zero outside the term sets
    anchors, texts = batch.anchors, batch.texts
    # Each gradient is scale * features.T @ factor, made in two row halves,
    # on two threads where it is large. Every size splits at the same row,
    # so the bits do not depend on the CPU count.
    products = (
        ("w_ev", 1.0 - alpha, anchors, lambda: g @ t.e),
        ("w_et", 1.0 - alpha, texts, lambda: g.T @ v.e),
        ("w_hv", alpha, anchors, lambda: g @ t.z - ((g @ t.x0) / v.x0)[:, None] * v.z),
        ("w_ht", alpha, texts, lambda: g.T @ v.z - ((g.T @ v.x0) / t.x0)[:, None] * t.z),
    )
    dim, half = batch.dim, _half(batch.dim)
    for name, scale, feats, factor in products:
        grad, f = np.empty((dim, dim)) if out is None else out, factor()

        def rows(start: int, stop: int) -> bool:
            """Makes rows [start, stop) of grad with one matmul; whether they are finite."""
            part = np.matmul(feats.T[start:stop], f, out=grad[start:stop])
            part *= scale  # in place: a scaled copy would be one more temporary
            return bool(np.isfinite(part).all())

        if not all(_both(lambda: rows(0, half), lambda: rows(half, dim), muladds=feats.size * dim)):
            raise ValueError(f"gradient {name} contains non-finite entries")
        apply(name, grad)
    return loss


# gradient_check evaluates its perturbed weights in slices of at most this
# many bytes per stacked matrix (one matrix when a single one is larger).
_STACK_BYTES = 4 << 20


def gradient_check(
    batch: GroundingBatch,
    bundle: ProjectionBundle,
    epsilon: float = 1e-5,
    intra_negatives: bool = False,
) -> float:
    """Max relative error of analytic grads vs central finite differences.

    The relative error denominator is max(|analytic|, |numeric|, 1e-8),
    evaluated over every entry of the four projection matrices. The 2 dim^2
    perturbed losses of one matrix are evaluated as weight stacks.
    """
    if not 1e-6 <= epsilon <= 1e-4:
        raise ValueError(f"epsilon must lie in [1e-6, 1e-4], got {epsilon}")
    analytic = {}
    contrastive_loss(batch, bundle, intra_negatives, apply=analytic.__setitem__)
    in_set = _in_set(batch, intra_negatives)
    size = bundle.dim * bundle.dim
    per_slice = max(1, _STACK_BYTES // (8 * size))
    worst = 0.0
    for name in _MATRICES:
        flat = getattr(bundle, name).reshape(size)
        # Perturbation j moves entry j // 2 by +epsilon (j even) or -epsilon (j odd).
        losses = np.empty(2 * size)
        for start in range(0, 2 * size, per_slice):
            j = np.arange(start, min(start + per_slice, 2 * size))
            k = j // 2
            stack = np.repeat(flat[None], len(j), axis=0)
            stack[np.arange(len(j)), k] = np.where(j % 2 == 0, flat[k] + epsilon, flat[k] - epsilon)
            losses[j] = _loss(batch, in_set, bundle, **{name: stack.reshape(-1, bundle.dim, bundle.dim)})[0]
        numeric = (losses[0::2] - losses[1::2]) / (2.0 * epsilon)
        a = analytic[name].reshape(size)
        err = np.abs(a - numeric) / np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
        worst = np.maximum(worst, err.max())
    return float(worst)
