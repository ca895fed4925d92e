"""Dense float64 arrays with reverse-mode automatic differentiation.

Every primitive applied to a gradient-tracked input records a node carrying
the inputs and a gradient closure.  ``backward`` linearizes the nodes
reachable from a scalar loss into a :class:`Tape` (execution order) and
replays it in exact reverse order, so an identical op sequence always yields
bit-identical forward values and gradients.  It returns nothing: each
leaf's gradient accumulates into its ``.grad``.  The sweep frees each node
once it has used it, so a graph can be swept only once.

Time-mixing primitives require ``lengths``: the rows of a [R, d] array pack
one or more sequences end to end, and convolution and attention stay inside
each one, as if each ran alone.

Numerical policy: everything is float64.  Operations never mutate their
inputs.  ``log_softmax`` and the attention softmax are computed with
max-subtraction and cannot overflow on finite input.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Array",
    "Tape",
    "no_grad",
    "backward",
    "custom_op",
    "add",
    "mul",
    "gelu",
    "matmul",
    "transpose",
    "concat",
    "log_softmax",
    "reduce_sum",
    "pool_spans",
    "temporal_conv",
    "transposed_temporal_conv",
    "segment_attention",
    "GELU_CUBIC_COEFF",
]

# tanh-approximation constant for gelu
GELU_CUBIC_COEFF = 0.044715
_GELU_SCALE = math.sqrt(2.0 / math.pi)

_seq = itertools.count()
_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference-only forward)."""
    prev = _grad_enabled()
    _state.enabled = False
    try:
        yield
    finally:
        _state.enabled = prev


class _Node:
    """One executed primitive: inputs plus the gradient closure."""

    __slots__ = ("seq", "inputs", "grad_fn")

    def __init__(self, inputs, grad_fn):
        self.seq = next(_seq)
        self.inputs = inputs
        self.grad_fn = grad_fn


class Array:
    """Immutable dense float64 array, optionally a differentiation leaf.

    ``grad_tracked=True`` marks a leaf: after ``backward`` on a scalar loss
    downstream of this array, ``.grad`` holds dloss/dself.  Arrays produced
    by primitives carry an internal node linking them into the tape; no
    operation ever mutates an existing Array.
    """

    __slots__ = ("data", "grad_tracked", "grad", "_node")

    def __init__(self, data, grad_tracked: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad_tracked = bool(grad_tracked)
        self.grad = None
        self._node = None

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        tag = ", leaf" if self.grad_tracked else ""
        return f"Array(shape={self.data.shape}{tag})"


def _as_array(x) -> Array:
    return x if isinstance(x, Array) else Array(x)


def _live(a: Array) -> bool:
    return a._node is not None or a.grad_tracked


def _attach(out: Array, inputs, grad_fn) -> None:
    out._node = _Node(inputs, grad_fn)


def _tracing(*arrays) -> bool:
    if not getattr(_state, "enabled", True):  # _grad_enabled(), inlined: hot path
        return False
    for a in arrays:
        if a._node is not None or a.grad_tracked:
            return True
    return False


def custom_op(out_data: np.ndarray, inputs, grad_fn) -> Array:
    """Wrap an externally computed forward value as a traced primitive.

    ``grad_fn(out_grad)`` must return one gradient per input (or None for
    inputs that need none).  Used by composite primitives with hand-written
    gradients, e.g. the CTC loss.
    """
    inputs = tuple(_as_array(x) for x in inputs)
    out = Array(out_data)
    if _tracing(*inputs):
        _attach(out, inputs, grad_fn)
    return out


# ---------------------------------------------------------------------------
# backward pass


class Tape:
    """Execution-ordered record of the primitives reachable from an output.

    ``entries`` holds (output_array, node) pairs sorted by execution order;
    ``leaves`` are the gradient-tracked arrays feeding the graph.
    """

    __slots__ = ("entries", "leaves")

    def __init__(self, entries, leaves):
        self.entries = entries
        self.leaves = leaves

    @classmethod
    def trace(cls, out: Array) -> "Tape":
        # Arrays and nodes hash by identity, so they key the sets directly
        entries = []
        leaves = []
        seen = set()
        stack = [out]
        while stack:
            a = stack.pop()
            n = a._node
            if n is not None:
                if n not in seen:
                    if n.grad_fn is None:
                        raise RuntimeError(
                            "backward reached a node an earlier backward freed; rebuild the graph"
                        )
                    seen.add(n)
                    entries.append((a, n))
                    stack.extend(n.inputs)
            elif a.grad_tracked and a not in seen:
                seen.add(a)
                leaves.append(a)
        entries.sort(key=lambda e: e[1].seq)
        return cls(entries, leaves)

    def run_backward(self, out: Array) -> None:
        """Sweep the entries in reverse, popping each one and freeing its node."""
        grads = {out: np.ones((), dtype=np.float64)}
        entries = self.entries
        while entries:
            a, n = entries.pop()
            inputs, grad_fn = n.inputs, n.grad_fn
            n.inputs = n.grad_fn = None  # what the closure saved goes with it
            g = grads.pop(a, None)
            if g is None:
                continue
            for inp, gi in zip(inputs, grad_fn(g)):
                if gi is None or (inp._node is None and not inp.grad_tracked):
                    continue
                prev = grads.get(inp)
                grads[inp] = gi if prev is None else prev + gi
        for leaf in self.leaves:
            g = grads.get(leaf)
            if g is None:
                g = np.zeros_like(leaf.data)
            else:
                g = np.asarray(g, dtype=np.float64)
                if g.shape != leaf.data.shape:
                    g = np.broadcast_to(g, leaf.data.shape).copy()
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def backward(loss: Array) -> None:
    """Reverse sweep from a scalar loss; returns nothing.

    Gradients accumulate into each leaf's ``.grad`` (reset by assigning
    None), so several losses can share leaves.  The sweep frees the graph
    behind the loss: a second backward through any node of it raises
    RuntimeError.
    """
    if not isinstance(loss, Array):
        raise TypeError("backward expects an Array")
    if loss.data.shape != ():
        raise ValueError("backward requires a scalar loss")
    if loss._node is None and not loss.grad_tracked:
        raise ValueError("loss is detached from any gradient tape")
    Tape.trace(loss).run_backward(loss)


# ---------------------------------------------------------------------------
# broadcasting helpers


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a, b) -> Array:
    a, b = _as_array(a), _as_array(b)
    out = Array(a.data + b.data)
    if _tracing(a, b):
        ash, bsh = a.data.shape, b.data.shape

        def grad_fn(g):
            return (
                _unbroadcast(g, ash) if _live(a) else None,
                _unbroadcast(g, bsh) if _live(b) else None,
            )

        _attach(out, (a, b), grad_fn)
    return out


def mul(a, b) -> Array:
    a, b = _as_array(a), _as_array(b)
    out = Array(a.data * b.data)
    if _tracing(a, b):
        ad, bd = a.data, b.data

        def grad_fn(g):
            return (
                _unbroadcast(g * bd, ad.shape) if _live(a) else None,
                _unbroadcast(g * ad, bd.shape) if _live(b) else None,
            )

        _attach(out, (a, b), grad_fn)
    return out


def gelu(a) -> Array:
    """Gaussian error linear unit, tanh approximation (cubic coefficient
    ``GELU_CUBIC_COEFF`` = 0.044715).  The node keeps only ``x`` and ``t``;
    the backward recomputes ``0.5 * x`` and ``1 + t``."""
    a = _as_array(a)
    x = a.data
    # in-place steps in the operation order of the expressions noted
    # alongside: the same bits with fewer temporaries
    t = np.multiply(GELU_CUBIC_COEFF, x, out=np.empty_like(x))  # scale * (x + c*x*x*x)
    t *= x
    t *= x
    t += x
    t *= _GELU_SCALE
    np.tanh(t, out=t)
    out_data = 0.5 * x  # 0.5 * x * (1 + t)
    out_data *= 1.0 + t
    out = Array(out_data)
    if _tracing(a):

        def grad_fn(g):
            sech2 = np.multiply(t, t, out=np.empty_like(t))  # 1 - t * t
            np.subtract(1.0, sech2, out=sech2)
            dinner = np.multiply(3.0 * GELU_CUBIC_COEFF, x, out=np.empty_like(x))
            dinner *= x  # scale * (1 + 3c * x * x)
            dinner += 1.0
            dinner *= _GELU_SCALE
            dx = 0.5 * x  # g * (0.5 * (1 + t) + 0.5 * x * sech2 * dinner)
            dx *= sech2
            dx *= dinner
            one_t = np.add(1.0, t, out=sech2)
            one_t *= 0.5
            dx += one_t
            dx *= g
            return (dx,)

        _attach(out, (a,), grad_fn)
    return out


# ---------------------------------------------------------------------------
# linear algebra and shape primitives


def matmul(a, b, bias=None) -> Array:
    """a @ b; a ``bias`` joins the same node, added to every output row."""
    a, b = _as_array(a), _as_array(b)
    inputs = (a, b) if bias is None else (a, b, _as_array(bias))
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} x {bd.shape}")
    out_data = ad @ bd
    if bias is not None:
        out_data += inputs[2].data  # in place on the fresh product: its sum's bits
    out = Array(out_data)
    if _tracing(*inputs):

        def grad_fn(g):
            return (
                g @ bd.T if _live(a) else None,
                ad.T @ g if _live(b) else None,
                _unbroadcast(g, inputs[2].data.shape) if bias is not None else None,
            )

        _attach(out, inputs, grad_fn)
    return out


def transpose(a) -> Array:
    a = _as_array(a)
    if a.data.ndim != 2:
        raise ValueError("transpose expects a 2-D array")
    out = Array(a.data.T)
    if _tracing(a):
        _attach(out, (a,), lambda g: (g.T,))
    return out


def concat(arrays) -> Array:
    """Join [T, d_i] arrays along columns into [T, sum d_i]."""
    arrays = [_as_array(a) for a in arrays]
    out = Array(np.concatenate([a.data for a in arrays], axis=1))
    if _tracing(*arrays):
        offsets = np.cumsum([a.data.shape[1] for a in arrays])[:-1]

        def grad_fn(g):
            parts = np.split(g, offsets, axis=1)
            return tuple(p if _live(a) else None for p, a in zip(parts, arrays))

        _attach(out, tuple(arrays), grad_fn)
    return out


# ---------------------------------------------------------------------------
# reductions, log-softmax, pooling


def reduce_sum(a) -> Array:
    """Sum of every element: a scalar."""
    a = _as_array(a)
    out = Array(a.data.sum())
    if _tracing(a):
        shape = a.data.shape

        def grad_fn(g):
            return (np.broadcast_to(g, shape).copy(),)

        _attach(out, (a,), grad_fn)
    return out


def log_softmax(a, axis: int = -1) -> Array:
    a = _as_array(a)
    x = a.data
    if x.shape[axis] < 1:
        raise ValueError("log_softmax needs a nonempty axis")
    m = x.max(axis=axis, keepdims=True)
    z = x - m
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = Array(z - lse)
    if _tracing(a):
        sm = np.exp(z - lse)

        def grad_fn(g):
            return (g - sm * g.sum(axis=axis, keepdims=True),)

        _attach(out, (a,), grad_fn)
    return out


def pool_spans(a, spans) -> Array:
    """Mean-pool rows of a [T, D] array over [start, stop) spans.

    Spans must be ordered, non-overlapping and inside [0, T); with the single
    span [0, T) this is global average pooling.  Gradient distributes
    1/len(span) to each member row.
    """
    a = _as_array(a)
    x = a.data
    if x.ndim != 2:
        raise ValueError("pool_spans expects a 2-D array")
    T = x.shape[0]
    spans = [(int(s), int(e)) for s, e in spans]
    if not spans:
        raise ValueError("no spans given")
    prev_end = 0
    for s, e in spans:
        if s >= e:
            raise ValueError(f"empty span [{s},{e})")
        if s < prev_end or e > T:
            raise ValueError(f"span [{s},{e}) out of order or out of range")
        prev_end = e
    pooled = np.empty((len(spans), x.shape[1]))
    for i, (s, e) in enumerate(spans):
        pooled[i] = x[s:e].mean(axis=0)
    out = Array(pooled)
    if _tracing(a):
        shape = x.shape

        def grad_fn(g):
            gx = np.zeros(shape)
            for i, (s, e) in enumerate(spans):
                gx[s:e] = g[i] / (e - s)
            return (gx,)

        _attach(out, (a,), grad_fn)
    return out


# ---------------------------------------------------------------------------
# segments, temporal convolutions and attention


def _segments(lengths, rows=None) -> tuple:
    """Per-segment row counts of a packed time axis, checked against
    ``rows`` when given."""
    lengths = tuple(lengths)
    if not lengths or min(lengths) < 1:
        raise ValueError("empty time axis")
    if rows is not None and sum(lengths) != rows:
        raise ValueError(f"segment lengths {lengths} do not add up to {rows} rows")
    return lengths


@functools.lru_cache(maxsize=512)
def _tap_slices(lengths: tuple, k: int, stride: int):
    """Where a same-padded conv over packed segments reads its input.

    Returns (output rows, plan): ``plan[j]`` lists (out_rows, in_rows) slice
    pairs, one per segment, such that output rows ``out_rows`` read input
    rows ``in_rows`` under tap j; every other (output row, tap) reads
    padding.  Each segment of L rows is padded on its own, the odd pad frame
    on the left, and gets ceil(L / stride) output rows.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if k % 2 == 0:
        raise ValueError("kernel size must be odd")
    plan = [[] for _ in range(k)]
    off_in = off_out = 0
    for length in lengths:
        t_out = -(-length // stride)
        pad_left = (max((t_out - 1) * stride + k - length, 0) + 1) // 2
        for j in range(k):
            # output t reads input t * stride + j - pad_left while in [0, length)
            t0 = max(-((j - pad_left) // stride), 0)
            t1 = min((length - 1 - j + pad_left) // stride + 1, t_out)
            if t0 < t1:
                a = off_in + t0 * stride + j - pad_left
                rows_in = slice(a, a + (t1 - t0 - 1) * stride + 1, stride)
                plan[j].append((slice(off_out + t0, off_out + t1), rows_in))
        off_in += length
        off_out += t_out
    return off_out, plan


def temporal_conv(x, w, lengths, stride: int, bias=None) -> Array:
    """1-D convolution along time: x [T, Cin], w [k, Cin, Cout] -> [T', Cout].

    ``lengths`` lists the segments packed in the T rows.  Each segment of L
    rows is same-padded (left-heavy) and strided on its own and gets
    ceil(L / stride) output rows.  A ``bias`` [Cout] joins the same node,
    added to every output row.  The node keeps only its input: the
    backward assembles the window matrix again.
    """
    x, w = _as_array(x), _as_array(w)
    inputs = (x, w) if bias is None else (x, w, _as_array(bias))
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 3:
        raise ValueError("temporal_conv expects x [T,Cin] and w [k,Cin,Cout]")
    T, cin = xd.shape
    k, wcin, cout = wd.shape
    if cin != wcin:
        raise ValueError(f"channel mismatch: input {cin}, weight {wcin}")
    t_out, plan = _tap_slices(_segments(lengths, T), k, stride)

    def windows():
        # window t: the k*cin values under its taps, contiguous for BLAS
        win = np.zeros((t_out, k, cin))
        for j, pairs in enumerate(plan):
            for rows_out, rows_in in pairs:
                win[rows_out, j] = xd[rows_in]
        return win.reshape(t_out, k * cin)

    wf = wd.reshape(k * cin, cout)
    out_data = windows() @ wf
    if bias is not None:
        out_data += inputs[2].data  # in place on the fresh product: its sum's bits
    out = Array(out_data)
    if _tracing(*inputs):

        def grad_fn(g):
            gx = None
            gw = None
            if _live(w):
                gw = (windows().T @ g).reshape(k, cin, cout)
            if _live(x):
                gwin = (g @ wf.T).reshape(t_out, k, cin)
                gx = np.zeros((T, cin))
                for j, pairs in enumerate(plan):
                    for rows_out, rows_in in pairs:
                        gx[rows_in] += gwin[rows_out, j]
            gb = _unbroadcast(g, inputs[2].data.shape) if bias is not None else None
            return (gx, gw, gb)

        _attach(out, inputs, grad_fn)
    return out


def transposed_temporal_conv(x, w, lengths, stride: int, bias=None) -> Array:
    """Exact adjoint of same-padded ``temporal_conv`` over segments of
    ``lengths`` rows.

    Maps x [T, Cout] to [sum(lengths), Cin] for w [k, Cin, Cout], where x
    packs ceil(L / stride) rows per segment, so that
    <transposed_temporal_conv(x, w, lengths, s), y> == <x, temporal_conv(y, w, lengths, s)>
    for any y.  A ``bias`` [Cin] joins the same node, added to every output
    row.
    """
    x, w = _as_array(x), _as_array(w)
    inputs = (x, w) if bias is None else (x, w, _as_array(bias))
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 3:
        raise ValueError("transposed_temporal_conv expects x [T,Cout] and w [k,Cin,Cout]")
    T, xcout = xd.shape
    k, cin, cout = wd.shape
    if xcout != cout:
        raise ValueError(f"channel mismatch: input {xcout}, weight {cout}")
    lengths = _segments(lengths)
    t_in, plan = _tap_slices(lengths, k, stride)
    if T != t_in:
        raise ValueError(
            f"{T} input rows do not fit lengths {lengths} at stride {stride} (need {t_in})"
        )
    out_data = np.zeros((sum(lengths), cin))
    for j, pairs in enumerate(plan):
        taps = xd @ wd[j].T
        for rows_x, rows_out in pairs:
            out_data[rows_out] += taps[rows_x]
    if bias is not None:
        out_data += inputs[2].data  # in place on the fresh result: its sum's bits
    out = Array(out_data)
    if _tracing(*inputs):

        def grad_fn(g):
            gx = np.zeros((T, cout)) if _live(x) else None
            gw = np.empty_like(wd) if _live(w) else None
            for j, pairs in enumerate(plan):
                # the rows of g under tap j, zero where the tap reads padding
                gj = np.zeros((T, cin))
                for rows_x, rows_out in pairs:
                    gj[rows_x] = g[rows_out]
                if gx is not None:
                    gx += gj @ wd[j]
                if gw is not None:
                    gw[j] = gj.T @ xd
            gb = _unbroadcast(g, inputs[2].data.shape) if bias is not None else None
            return (gx, gw, gb)

        _attach(out, inputs, grad_fn)
    return out


def segment_attention(q, k, v, scale: float, lengths) -> Array:
    """softmax(scale * q k^T) v over rows, each row attending only to the
    rows of its own segment: q, k [T, d], v [T, dv] -> [T, dv]."""
    q, k, v = _as_array(q), _as_array(k), _as_array(v)
    qd, kd, vd = q.data, k.data, v.data
    T = qd.shape[0]
    if qd.ndim != 2 or kd.shape != qd.shape or vd.ndim != 2 or vd.shape[0] != T:
        raise ValueError(f"attention shape mismatch: {qd.shape}, {kd.shape}, {vd.shape}")
    bounds = [0, *itertools.accumulate(_segments(lengths, T))]
    spans = list(zip(bounds, bounds[1:]))
    scale_arr = np.float64(scale)
    out_data = np.empty((T, vd.shape[1]))
    weights = []
    for s, e in spans:
        x = (qd[s:e] @ kd[s:e].T) * scale_arr
        # softmax along each row, max-subtracted
        m = x.max(axis=1, keepdims=True)
        ex = np.exp(x - m)
        y = ex / ex.sum(axis=1, keepdims=True)
        out_data[s:e] = y @ vd[s:e]
        weights.append(y)
    out = Array(out_data)
    if _tracing(q, k, v):

        def grad_fn(g):
            # dk is built transposed, so it is laid out as (q^T ds)^T would be
            gq, gkt, gv = np.empty_like(qd), np.empty(kd.shape[::-1]), np.empty_like(vd)
            for (s, e), y in zip(spans, weights):
                gy = g[s:e] @ vd[s:e].T
                gv[s:e] = y.T @ g[s:e]
                gs = y * (gy - (gy * y).sum(axis=1, keepdims=True))
                gs = gs * scale_arr
                gq[s:e] = gs @ kd[s:e]
                gkt[:, s:e] = qd[s:e].T @ gs
            return (
                gq if _live(q) else None,
                gkt.T if _live(k) else None,
                gv if _live(v) else None,
            )

        _attach(out, (q, k, v), grad_fn)
    return out
