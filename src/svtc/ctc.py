"""CTC loss with analytic gradients, greedy/beam decoding and WER scoring.

The blank class is fixed at index 0 everywhere.  Loss and gradients are
computed in log space via the forward-backward recursion over the
blank-augmented label sequence; decoding is pure numpy/python over
probability streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import ndgrad
from .ndgrad import Array

BLANK = 0

_NEG_INF = -math.inf
# the tolerance of np.allclose(rows, 1.0, atol=1e-9), spelled out because the
# call's overhead showed in training profiles: atol + rtol * |1.0|
_ROW_SUM_TOL = 1e-9 + 1e-05 * 1.0


class CtcInfeasibleError(ValueError):
    """Label sequence cannot be aligned within the available frames."""


@dataclass(frozen=True)
class GlossVocab:
    """Ordered gloss vocabulary; ids 1..C-1, blank reserved at 0."""

    glosses: tuple

    def __post_init__(self):
        if len(set(self.glosses)) != len(self.glosses):
            raise ValueError("duplicate glosses in vocabulary")
        if not self.glosses:
            raise ValueError("empty vocabulary")

    @property
    def size(self) -> int:
        """Class count including blank."""
        return len(self.glosses) + 1

    @property
    def blank_index(self) -> int:
        return BLANK

    def id(self, gloss: str) -> int:
        try:
            return self.glosses.index(gloss) + 1
        except ValueError:
            raise KeyError(f"unknown gloss: {gloss!r}") from None

    def ids(self, glosses) -> list:
        return [self.id(g) for g in glosses]

    def lookup(self, idx: int) -> str:
        if not 1 <= idx < self.size:
            raise KeyError(f"gloss id out of range: {idx}")
        return self.glosses[idx - 1]

    def lookup_all(self, ids) -> list:
        return [self.lookup(i) for i in ids]


class ProbStream:
    """Frame-wise gloss probability matrix [T', C]; rows sum to 1.

    ``log_space=True`` means the stored matrix holds log-probabilities
    (e.g. a log-softmax classifier output).
    """

    __slots__ = ("probs", "log_space")

    def __init__(self, probs, log_space: bool = False):
        if not isinstance(probs, Array):
            probs = Array(probs)
        if probs.data.ndim != 2 or probs.data.shape[1] < 2:
            raise ValueError("ProbStream needs a [T', C>=2] matrix")
        rows = np.exp(probs.data).sum(axis=1) if log_space else probs.data.sum(axis=1)
        if not (np.abs(rows - 1.0) <= _ROW_SUM_TOL).all():
            raise ValueError("ProbStream rows must sum to 1 within 1e-9")
        self.probs = probs
        self.log_space = log_space

    @property
    def shape(self):
        return self.probs.data.shape

    def prob_matrix(self) -> np.ndarray:
        m = self.probs.data
        return np.exp(m) if self.log_space else np.array(m, copy=True)

    def log_matrix(self) -> np.ndarray:
        m = self.probs.data
        if self.log_space:
            return np.array(m, copy=True)
        return np.log(np.maximum(m, 1e-300))


@dataclass
class WerReport:
    """Edit-distance breakdown; wer == (ins+del+sub)/ref_len exactly."""

    wer: float
    insertions: int
    deletions: int
    substitutions: int
    ref_len: int

    @property
    def distance(self) -> int:
        return self.insertions + self.deletions + self.substitutions

    @property
    def del_rate(self) -> float:
        """Deletions as a fraction of the reference length."""
        return self.deletions / self.ref_len

    @property
    def ins_rate(self) -> float:
        """Insertions as a fraction of the reference length."""
        return self.insertions / self.ref_len

    def to_dict(self) -> dict:
        return {
            "wer": self.wer,
            "ins": self.insertions,
            "del": self.deletions,
            "sub": self.substitutions,
            "ref_len": self.ref_len,
        }


def expand_with_blanks(labels) -> np.ndarray:
    """Interleave blanks: y1..yN -> [-, y1, -, y2, ..., yN, -]."""
    labels = list(labels)
    ext = np.zeros(2 * len(labels) + 1, dtype=np.intp)
    ext[1::2] = labels
    return ext


def _validate_labels(labels, n_classes: int) -> list:
    labels = [int(c) for c in labels]
    for c in labels:
        if c == BLANK:
            raise ValueError("labels must not contain the blank id")
        if not 0 < c < n_classes:
            raise ValueError(f"label id {c} out of range for {n_classes} classes")
    return labels


def min_frames(labels) -> int:
    """Frames needed for a feasible CTC alignment: N + adjacent repeats."""
    labels = list(labels)
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def _ctc_kernel(stack: np.ndarray, ext: np.ndarray, skip: np.ndarray):
    """Forward-backward over a [B, T, C] stack sharing one label sequence.

    Returns (log marginal [B], gradient stack [B, T, C] w.r.t. the log
    probabilities).  Vectorized over the batch axis so a sample's head and
    pyramid streams run through one recursion.
    """
    B, T, C = stack.shape
    S = ext.size
    U = stack[:, :, ext]  # [B, T, S]
    skip_tail = skip[2:]

    alpha = np.full((B, T, S), _NEG_INF)
    alpha[:, 0, 0] = U[:, 0, 0]
    if S > 1:
        alpha[:, 0, 1] = U[:, 0, 1]
    for t in range(1, T):
        prev = alpha[:, t - 1, :]
        cur = alpha[:, t, :]
        cur[:, 0] = prev[:, 0]
        np.logaddexp(prev[:, 1:], prev[:, :-1], out=cur[:, 1:])
        if S > 2:
            np.logaddexp(cur[:, 2:], prev[:, :-2], out=cur[:, 2:], where=skip_tail)
        cur += U[:, t, :]

    log_p = alpha[:, T - 1, S - 1]
    if S > 1:
        log_p = np.logaddexp(log_p, alpha[:, T - 1, S - 2])
    if not np.all(np.isfinite(log_p)):
        raise FloatingPointError("CTC marginal underflowed to zero probability")

    beta = np.full((B, T, S), _NEG_INF)
    beta[:, T - 1, S - 1] = U[:, T - 1, S - 1]
    if S > 1:
        beta[:, T - 1, S - 2] = U[:, T - 1, S - 2]
    for t in range(T - 2, -1, -1):
        nxt = beta[:, t + 1, :]
        cur = beta[:, t, :]
        cur[:, S - 1] = nxt[:, S - 1]
        np.logaddexp(nxt[:, :-1], nxt[:, 1:], out=cur[:, :-1])
        if S > 2:
            # state s hops to s+2 when the target state's skip flag allows
            np.logaddexp(cur[:, :-2], nxt[:, 2:], out=cur[:, :-2], where=skip_tail)
        cur += U[:, t, :]

    # alpha and beta both include the frame emission: divide it out once.
    gamma = alpha + beta
    acc = np.full((B, T, C), _NEG_INF)
    for s in range(S):
        c = ext[s]
        np.logaddexp(acc[:, :, c], gamma[:, :, s], out=acc[:, :, c])
    with np.errstate(under="ignore"):
        grad = -np.exp(acc - log_p[:, None, None] - stack)
    return log_p, grad


def _prepare_labels(labels, T: int, C: int):
    labels = _validate_labels(labels, C)
    need = min_frames(labels)
    if T < need:
        raise CtcInfeasibleError(
            f"label sequence needs at least {need} frames, stream has {T}"
        )
    ext = expand_with_blanks(labels)
    skip = np.zeros(ext.size, dtype=bool)
    if ext.size > 2:
        skip[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    return ext, skip


def ctc_loss(log_probs, labels) -> Array:
    """Negative log marginal over all blank-augmented alignments.

    ``log_probs`` is a [T', C] array of frame log-probabilities (rows of a
    log-softmax); gradient reaches it through the forward-backward
    posteriors.  An infeasible label length raises
    :class:`CtcInfeasibleError` instead of returning an infinite loss.
    """
    if isinstance(log_probs, ProbStream):
        raise TypeError("pass the log-probability Array, not a ProbStream")
    lp = log_probs if isinstance(log_probs, Array) else Array(log_probs)
    u = lp.data
    if u.ndim != 2:
        raise ValueError("log_probs must be [T', C]")
    T, C = u.shape
    ext, skip = _prepare_labels(labels, T, C)
    log_p, grad = _ctc_kernel(u[None, :, :], ext, skip)
    g0 = grad[0]
    return ndgrad.custom_op(np.float64(-log_p[0]), (lp,), lambda g: (g * g0,))


def ctc_loss_group(log_prob_arrays, labels) -> list:
    """CTC losses for several equal-shape streams of one sample at once.

    Equivalent to mapping :func:`ctc_loss`, but the recursion is batched;
    returns one scalar Array per input stream.
    """
    arrays = [a if isinstance(a, Array) else Array(a) for a in log_prob_arrays]
    if not arrays:
        return []
    shape = arrays[0].data.shape
    for a in arrays[1:]:
        if a.data.shape != shape:
            raise ValueError("grouped streams must share one shape")
    T, C = shape
    ext, skip = _prepare_labels(labels, T, C)
    stack = np.stack([a.data for a in arrays], axis=0)
    log_p, grad = _ctc_kernel(stack, ext, skip)
    out = []
    for i, a in enumerate(arrays):
        gi = grad[i]
        out.append(
            ndgrad.custom_op(np.float64(-log_p[i]), (a,), lambda g, gi=gi: (g * gi,))
        )
    return out


def collapse(path) -> list:
    """Remove repeats then blanks from a frame-label path."""
    return [c for c, _ in groupby(path) if c != BLANK]


def greedy_decode(stream: ProbStream) -> list:
    """Per-frame argmax (ties to the lower class id), collapsed."""
    ids = np.argmax(stream.prob_matrix(), axis=1)
    return collapse(int(c) for c in ids)


def _lae(a: float, b: float) -> float:
    if a == _NEG_INF:
        return b
    if b == _NEG_INF:
        return a
    m = a if a > b else b
    return m + math.log1p(math.exp(-abs(a - b)))


def beam_decode(stream: ProbStream, width: int = 5) -> list:
    """Prefix beam search merging identical label prefixes.

    Each surviving prefix carries separate blank/non-blank probability
    tracks; the result is the highest-scoring prefix, ties broken toward
    the lexicographically smaller one.

    Per frame, every extension of every surviving prefix is scored at once
    in one [W, C-1] array.  Only an extension that lands on a surviving
    prefix is merged in Python; its entry then has at most two non-blank
    sources, and ``_lae`` is commutative, so the beam order cannot change a
    bit.  ``np.partition`` keeps every candidate tied with or above the
    width-th best before the exact ``(-score, prefix)`` sort.
    """
    if width < 1:
        raise ValueError("beam width must be >= 1")
    logp = stream.log_matrix()
    C = logp.shape[1]
    prefixes, pb, pnb = [()], [0.0], [_NEG_INF]
    for t, row in enumerate(logp.tolist()):
        W = len(prefixes)
        totals = [_lae(b, nb) for b, nb in zip(pb, pnb)]
        # ext[i, c - 1]: non-blank track of prefix i extended by class c
        ext = np.add.outer(totals, logp[t, 1:])
        index = {}
        for i, prefix in enumerate(prefixes):
            index[prefix] = i
            if prefix:
                # a blank-separated repeat emits a new symbol from pb only
                ext[i, prefix[-1] - 1] = pb[i] + row[prefix[-1]]
        ext = ext.ravel()

        # each prefix stays via a blank frame or a repeated last symbol, and
        # absorbs the extension of its parent by that symbol
        stay = []
        merged = []
        for j, prefix in enumerate(prefixes):
            b = totals[j] + row[BLANK]
            nb = _NEG_INF
            if prefix:
                last = prefix[-1]
                nb = pnb[j] + row[last]
                i = index.get(prefix[:-1])
                if i is not None:
                    k = i * (C - 1) + last - 1
                    nb = _lae(nb, ext[k])
                    merged.append(k)
            stay.append((_lae(b, nb), b, nb))
        ext[merged] = _NEG_INF

        scores = np.concatenate([[s for s, _, _ in stay], ext])
        prune = scores.size - len(merged) > width
        if prune:
            kth = scores.size - width
            picks = np.flatnonzero(scores >= np.partition(scores, kth)[kth])
        else:
            picks = np.arange(scores.size)
        skip = {W + k for k in merged}
        cands = []
        for n, score in zip(picks.tolist(), scores[picks].tolist()):
            if n < W:
                _, b, nb = stay[n]
                cands.append((-score, prefixes[n], b, nb))
            elif n not in skip:
                i, c = divmod(n - W, C - 1)
                cands.append((-score, prefixes[i] + (c + 1,), _NEG_INF, score))
        if prune:
            # prefixes are unique, so the sort never compares past them
            cands.sort()
            del cands[width:]
        prefixes = [c[1] for c in cands]
        pb = [c[2] for c in cands]
        pnb = [c[3] for c in cands]
    best = min(zip(prefixes, pb, pnb), key=lambda e: (-_lae(e[1], e[2]), e[0]))
    return list(best[0])


def average_streams(streams) -> ProbStream:
    """Arithmetic mean of probability streams (cell-wise, prob space)."""
    streams = list(streams)
    if not streams:
        raise ValueError("no streams to average")
    mats = [s.prob_matrix() for s in streams]
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ValueError(f"stream shape mismatch: {m.shape} vs {shape}")
    acc = mats[0]
    for m in mats[1:]:
        acc = acc + m
    return ProbStream(acc / len(mats))


def wer(ref, hyp) -> WerReport:
    """Word error rate with a sub > del > ins tie-break on the backtrace."""
    ref = list(ref)
    hyp = list(hyp)
    if not ref:
        raise ValueError("empty reference")
    R, H = len(ref), len(hyp)
    d = np.zeros((R + 1, H + 1), dtype=np.int64)
    d[:, 0] = np.arange(R + 1)
    d[0, :] = np.arange(H + 1)
    for i in range(1, R + 1):
        ri = ref[i - 1]
        for j in range(1, H + 1):
            sub = d[i - 1, j - 1] + (ri != hyp[j - 1])
            dele = d[i - 1, j] + 1
            ins = d[i, j - 1] + 1
            best = sub
            if dele < best:
                best = dele
            if ins < best:
                best = ins
            d[i, j] = best
    ins = dels = subs = 0
    i, j = R, H
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and d[i, j] == d[i - 1, j - 1]:
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and d[i, j] == d[i - 1, j - 1] + 1:
            subs += 1
            i -= 1
            j -= 1
        elif i > 0 and d[i, j] == d[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return WerReport(
        wer=(ins + dels + subs) / R,
        insertions=ins,
        deletions=dels,
        substitutions=subs,
        ref_len=R,
    )


def aggregate_reports(reports) -> WerReport:
    """Micro-average: total edits over total reference length."""
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to aggregate")
    ins = sum(r.insertions for r in reports)
    dels = sum(r.deletions for r in reports)
    subs = sum(r.substitutions for r in reports)
    ref = sum(r.ref_len for r in reports)
    return WerReport(
        wer=(ins + dels + subs) / ref,
        insertions=ins,
        deletions=dels,
        substitutions=subs,
        ref_len=ref,
    )
