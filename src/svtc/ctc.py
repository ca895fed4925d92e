"""CTC loss with analytic gradients, prefix-beam decoding and WER scoring.

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


def validate_labels(labels, n_classes: int) -> list:
    """Integer gloss ids, each a non-blank class below ``n_classes``."""
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


def _ctc_kernel(streams, exts, skips, owners):
    """Forward-backward over [T_b, C] log-prob streams, stream b aligned to
    the blank-extended labels ``exts[b]`` (hops ``skips[b]``).

    Returns (log marginals [B], per-stream gradients [T_b, C] w.r.t. the log
    probabilities).  One recursion runs every stream's alpha rows and its beta
    rows, the latter reversed in time and state so that they too start at
    step 0.  Shorter label sequences are padded with blank states of -inf
    emission and shorter streams run on over padding; neither is ever read.
    Streams of one ``owners`` entry share their labels.
    """
    B = len(streams)
    lengths = [x.shape[0] for x in streams]
    sizes = [e.size for e in exts]
    S = max(sizes)
    emit = np.full((2 * B, max(lengths), S), _NEG_INF)
    # alpha hops s-2 -> s where skip[s]; beta hops s+2 -> s where skip[s+2]
    hop = np.zeros((2 * B, max(S - 2, 0)), dtype=bool)
    for b, (x, ext, skip) in enumerate(zip(streams, exts, skips)):
        U = x[:, ext]
        T, n = lengths[b], sizes[b]
        emit[b, :T, :n] = U
        emit[B + b, :T, :n] = U[::-1, ::-1]
        hop[b, : max(n - 2, 0)] = skip[2:]
        hop[B + b, : max(n - 2, 0)] = skip[:1:-1]

    rec = np.full(emit.shape, _NEG_INF)
    rec[:, 0, :2] = emit[:, 0, :2]
    for t in range(1, emit.shape[1]):
        prev = rec[:, t - 1, :]
        cur = rec[:, t, :]
        cur[:, 0] = prev[:, 0]
        np.logaddexp(prev[:, 1:], prev[:, :-1], out=cur[:, 1:])
        if S > 2:
            np.logaddexp(cur[:, 2:], prev[:, :-2], out=cur[:, 2:], where=hop)
        cur += emit[:, t, :]

    # equal-length streams of one owner share the posterior arithmetic
    log_p, grads, groups = np.empty(B), [None] * B, {}
    for b, T in enumerate(lengths):
        groups.setdefault((T, owners[b]), []).append(b)
    for (T, _), idx in groups.items():
        ext = exts[idx[0]]
        S = ext.size
        alpha = rec[idx, :T, :S]
        beta = rec[[B + b for b in idx], T - 1 :: -1, S - 1 :: -1]
        lp = alpha[:, T - 1, S - 1]
        if S > 1:
            lp = np.logaddexp(lp, alpha[:, T - 1, S - 2])
        if not np.all(np.isfinite(lp)):
            raise FloatingPointError("CTC marginal underflowed to zero probability")
        # alpha and beta both include the frame emission: divide it out once.
        gamma = alpha + beta
        stack = np.stack([streams[b] for b in idx])
        acc = np.full(stack.shape, _NEG_INF)
        for s in range(S):
            c = ext[s]
            np.logaddexp(acc[:, :, c], gamma[:, :, s], out=acc[:, :, c])
        with np.errstate(under="ignore"):
            grad = -np.exp(acc - lp[:, None, None] - stack)
        for i, b in enumerate(idx):
            log_p[b], grads[b] = lp[i], grad[i]
    return log_p, grads


def check_feasible(labels, T: int) -> None:
    """Raise :class:`CtcInfeasibleError` if ``labels`` cannot align onto T frames."""
    need = min_frames(labels)
    if T < need:
        raise CtcInfeasibleError(
            f"label sequence needs at least {need} frames, stream has {T}"
        )


def _prepare_labels(labels, T: int, C: int):
    labels = validate_labels(labels, C)
    check_feasible(labels, T)
    ext = expand_with_blanks(labels)
    skip = np.zeros(ext.size, dtype=bool)
    if ext.size > 2:
        skip[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    return ext, skip


def ctc_loss(log_probs, labels) -> Array:
    """Negative log marginal over all blank-augmented alignments.

    ``log_probs`` is a [T', C] Array of frame log-probabilities (rows of a
    log-softmax); gradient reaches it through the forward-backward
    posteriors.  An infeasible label length raises
    :class:`CtcInfeasibleError` instead of returning an infinite loss.
    """
    return ndgrad.reduce_sum(ctc_loss_group([log_probs], [labels], [log_probs.data.shape[:1]]))


def ctc_loss_group(log_prob_arrays, labels, lengths) -> Array:
    """:func:`ctc_loss` for every stream of every sample of a pack at once.

    Each [R, C] Array packs one stream per sample along time: sample i owns
    ``lengths[a][i]`` consecutive rows of array a.  ``labels`` holds one
    label sequence per sample.  All arrays share the class count; one
    batched recursion runs every stream.  Returns one [A, n] Array: row a,
    column i is array a's loss for sample i.
    """
    arrays = list(log_prob_arrays)
    if any(a.data.ndim != 2 for a in arrays):
        raise ValueError("log_probs must be [T', C]")
    C = arrays[0].data.shape[1]
    if any(a.data.shape[1] != C for a in arrays):
        raise ValueError("grouped streams must share the class count")
    lengths = [tuple(int(n) for n in lens) for lens in lengths]
    n = len(labels)
    if len(lengths) != len(arrays):
        raise ValueError(f"{len(lengths)} segment-length lists for {len(arrays)} arrays")
    for a, lens in zip(arrays, lengths):
        if len(lens) != n or sum(lens) != a.data.shape[0]:
            rows = a.data.shape[0]
            raise ValueError(f"segment lengths {lens} do not fit {n} samples in {rows} rows")
    prepared = [
        _prepare_labels(lab, min(lens[i] for lens in lengths), C)
        for i, lab in enumerate(labels)
    ]
    streams, owners = [], []
    for a, lens in zip(arrays, lengths):
        bounds = np.cumsum((0,) + lens).tolist()
        streams += [a.data[s:e] for s, e in zip(bounds, bounds[1:])]
        owners += range(n)
    log_p, grads = _ctc_kernel(
        streams, [prepared[i][0] for i in owners], [prepared[i][1] for i in owners], owners
    )
    per_array = [np.concatenate(grads[j * n : (j + 1) * n]) for j in range(len(arrays))]

    def grad_fn(g):
        return tuple(
            grad * np.repeat(g_a, lens)[:, None] for grad, g_a, lens in zip(per_array, g, lengths)
        )

    return ndgrad.custom_op(-log_p.reshape(len(arrays), n), arrays, grad_fn)


def collapse(path) -> list:
    """Remove repeats then blanks from a frame-label path."""
    return [c for c, _ in groupby(path) if c != BLANK]


def _lae(a: float, b: float) -> float:
    if a == _NEG_INF:
        return b
    if b == _NEG_INF:
        return a
    m = a if a > b else b
    return m + math.log1p(math.exp(-abs(a - b)))


def beam_decode(stream: ProbStream, width: int) -> list:
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
