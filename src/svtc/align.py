"""Monotonic frame-to-gloss alignment and the pooling that feeds it onward.

The alignment is a max-product path through the matrix of labeled-gloss
probability columns: starting at the top-left cell, each step moves down or
down-right, ending at the bottom-right cell, so every labeled gloss receives
at least one frame.  A path's spans are its maximal runs, a list of
[start, stop) frame ranges that partition the sample's frames.  Paths are
found on detached probabilities; gradients never flow through the path
selection, only through the pooled features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ndgrad
from .ctc import validate_labels
from .ndgrad import Array

# row-stochastic inputs can contain exact zeros early in training
PROB_FLOOR = 1e-12


@dataclass
class AlignmentPath:
    """Length-T' assignment of frames to gloss positions 0..N-1."""

    assignment: list
    log_score: float


def extract_columns(probs, labels) -> np.ndarray:
    """Gloss-probability columns of a [T', C] matrix for the labels: [T', N].

    Duplicate labels yield duplicate columns.  Columns are taken as-is; no
    renormalization after dropping the blank and unlabeled columns.
    """
    mat = np.asarray(probs, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError("expected a [T', C] probability matrix")
    idx = validate_labels(labels, mat.shape[1])
    if not idx:
        raise ValueError("empty label sequence")
    return mat[:, idx]


def dtw_align(M) -> AlignmentPath:
    """Max-product monotonic path through M [T', N] by dynamic programming.

    Probabilities are floored at ``PROB_FLOOR`` before the log.  On score
    ties the advance (down-right move) happens as early as possible, so
    later glosses keep the longer segments.
    """
    m = np.asarray(M, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("alignment matrix must be 2-D")
    T, N = m.shape
    if N < 1:
        raise ValueError("need at least one gloss column")
    if T < N:
        raise ValueError(f"cannot align {N} glosses onto {T} frames")
    lm = np.log(np.maximum(m, PROB_FLOOR))

    best = np.full((T, N), -np.inf)
    best[0, 0] = lm[0, 0]
    advance = np.zeros((T, N), dtype=bool)
    for t in range(1, T):
        prev = best[t - 1]
        stay = prev
        adv = np.full(N, -np.inf)
        adv[1:] = prev[:-1]
        # strict > : on ties keep the stay-predecessor, which backtracks to
        # the path whose advances happen earliest
        take = adv > stay
        advance[t] = take
        best[t] = np.where(take, adv, stay) + lm[t]

    assignment = [0] * T
    n = N - 1
    assignment[T - 1] = n
    for t in range(T - 1, 0, -1):
        if advance[t, n]:
            n -= 1
        assignment[t - 1] = n

    score = 0.0
    for t in range(T):
        score += lm[t, assignment[t]]
    return AlignmentPath(assignment=assignment, log_score=score)


def _runs(values) -> list:
    """[start, stop) ranges of the maximal runs of equal values, in order."""
    spans = []
    start = 0
    for t in range(1, len(values)):
        if values[t] != values[t - 1]:
            spans.append((start, t))
            start = t
    spans.append((start, len(values)))
    return spans


def path_to_spans(path: AlignmentPath) -> list:
    """[start, stop) runs of frames assigned to each gloss, in order."""
    return _runs(path.assignment)


def pool_visual(features: Array, spans, rows) -> Array:
    """Per-gloss mean of one sample's frame features -> [N, d].

    The features pack samples along time, and ``rows`` = (start, stop)
    names this sample's T' rows.  The N ``spans`` must partition [0, T')
    into nonempty runs; gradient flows into the features but never into
    the span selection.
    """
    start, stop = rows
    edges = [s for s, _ in spans] + [stop - start]
    if edges[0] != 0 or any(e != nxt for (_, e), nxt in zip(spans, edges[1:])):
        raise ValueError(f"spans {list(spans)} do not partition [0, {stop - start})")
    return ndgrad.pool_spans(features, [(s + start, e + start) for s, e in spans])


def pool_tokens(token_features: Array, token_to_gloss, rows) -> Array:
    """Per-gloss mean of one sample's token features using the tokenizer's
    gloss map.

    The features pack samples' tokens, and ``rows`` = (start, stop) names
    this sample's.  The map must be monotonic non-decreasing and cover every
    gloss position 0..N-1; the end-of-sequence token is not part of the map.
    """
    mapping = [int(g) for g in token_to_gloss]
    start, stop = rows
    if len(mapping) != stop - start:
        raise ValueError(f"map length {len(mapping)} != token count {stop - start}")
    if not mapping:
        raise ValueError("empty token map")
    if mapping[0] != 0:
        raise ValueError("token map must start at gloss 0")
    for a, b in zip(mapping, mapping[1:]):
        if b - a not in (0, 1):
            raise ValueError("token map must be monotonic and onto 0..N-1")
    return ndgrad.pool_spans(token_features, [(s + start, e + start) for s, e in _runs(mapping)])
