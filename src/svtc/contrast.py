"""Visual-textual alignment losses.

Gloss level: raw dot-product pair matrices between per-gloss pooled visual
and textual features, scored by row-wise cross-entropy against the
multi-hot same-gloss target normalized by its positive count (reduces to
plain InfoNCE when all glosses are distinct).  No temperature, no feature
normalization.

Sentence level: KL divergence with the frozen text side as the reference
distribution; gradient reaches only the visual global feature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndgrad
from .ndgrad import Array


@dataclass
class PairMatrices:
    """Similarity matrices: v2t[i,j] = <visual_i, text_j>; t2v = v2t^T."""

    v2t: Array
    t2v: Array


@dataclass
class AlignTargets:
    """Same-gloss indicator matrix and its per-row positive counts."""

    positives: np.ndarray  # [N, N] of {0, 1}, diagonal all ones
    counts: np.ndarray  # [N, 1] row sums, >= 1


def pair_matrices(visual: Array, textual: Array) -> PairMatrices:
    """Raw dot products of pooled per-gloss features ([N, d] each).

    t2v is the exact transpose of v2t (both are products of the same two
    factors), so it is materialized as such.
    """
    if visual.data.shape != textual.data.shape:
        raise ValueError(
            f"pooled feature shape mismatch: {visual.data.shape} vs {textual.data.shape}"
        )
    v2t = ndgrad.matmul(visual, ndgrad.transpose(textual))
    return PairMatrices(v2t=v2t, t2v=ndgrad.transpose(v2t))


def alignment_targets(labels) -> AlignTargets:
    """Positive mask from gloss identity: entry (i, j) is 1 iff labels match."""
    ids = np.asarray(list(labels))
    if ids.size < 1:
        raise ValueError("need at least one gloss")
    positives = (ids[:, None] == ids[None, :]).astype(np.float64)
    counts = positives.sum(axis=1, keepdims=True)
    return AlignTargets(positives=positives, counts=counts)


def gloss_align_loss(pairs: PairMatrices, targets: AlignTargets) -> Array:
    """Mean row-wise cross-entropy of both pair matrices against the
    count-normalized positive mask, averaged with a 1/2 factor."""
    n = targets.positives.shape[0]
    if pairs.v2t.data.shape != (n, n):
        raise ValueError(
            f"pair matrix shape {pairs.v2t.data.shape} does not match {n} glosses"
        )
    target = Array(targets.positives / targets.counts)
    ll_v = ndgrad.reduce_sum(ndgrad.mul(target, ndgrad.log_softmax(pairs.v2t, axis=1)))
    ll_t = ndgrad.reduce_sum(ndgrad.mul(target, ndgrad.log_softmax(pairs.t2v, axis=1)))
    # the cross-entropies' sign folds into the scale: negation is exact
    return ndgrad.mul(ndgrad.add(ll_v, ll_t), -0.5 / n)


def sentence_align_loss(visual_global: Array, text_global: Array) -> Array:
    """KL(text distribution || visual distribution) over softmaxed features.

    The text side is detached before the softmax, so only the visual global
    feature receives gradient.
    """
    if visual_global.data.shape != text_global.data.shape:
        raise ValueError(
            f"global feature shape mismatch: "
            f"{visual_global.data.shape} vs {text_global.data.shape}"
        )
    log_q = ndgrad.log_softmax(Array(text_global.data), axis=-1).data
    q = np.exp(log_q)
    ref_term = float((q * log_q).sum())  # sum q log q, a constant
    log_p = ndgrad.log_softmax(visual_global, axis=-1)
    cross = ndgrad.reduce_sum(ndgrad.mul(Array(q), log_p))
    return ndgrad.add(ref_term, ndgrad.mul(cross, -1.0))
