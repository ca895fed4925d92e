"""Dense float64 arrays with reverse-mode automatic differentiation.

Every primitive applied to a gradient-tracked input records a node carrying
the inputs and a gradient closure.  ``backward`` linearizes the nodes
reachable from a scalar loss into a :class:`Tape` (execution order) and
replays it in exact reverse order, so an identical op sequence always yields
bit-identical forward values and gradients.

Numerical policy: everything is float64.  Operations never mutate their
inputs.  ``log`` rejects nonpositive inputs and ``exp`` rejects overflow to
keep NaN/inf out of the graph; ``softmax``/``log_softmax`` are computed with
max-subtraction and cannot overflow on finite input.
"""

from __future__ import annotations

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
    "sub",
    "neg",
    "mul",
    "relu",
    "gelu",
    "log",
    "exp",
    "elementwise",
    "matmul",
    "transpose",
    "concat",
    "take_columns",
    "slice_rows",
    "softmax",
    "log_softmax",
    "reduce_sum",
    "reduce_mean",
    "pool_spans",
    "temporal_conv",
    "transposed_temporal_conv",
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

    __slots__ = ("data", "grad_tracked", "grad", "_node", "_back_done")

    def __init__(self, data, grad_tracked: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad_tracked = bool(grad_tracked)
        self.grad = None
        self._node = None
        self._back_done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Array":
        """Constant copy of this array: shares data, severs the tape."""
        return Array(self.data)

    def backward(self):
        return backward(self)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis=axis, keepdims=keepdims)

    def __repr__(self):
        tag = ", leaf" if self.grad_tracked else ""
        return f"Array(shape={self.data.shape}{tag})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __truediv__(self, other):
        if isinstance(other, Array):
            raise TypeError("division only supported by python scalars")
        return mul(self, 1.0 / other)


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
                    seen.add(n)
                    entries.append((a, n))
                    stack.extend(n.inputs)
            elif a.grad_tracked and a not in seen:
                seen.add(a)
                leaves.append(a)
        entries.sort(key=lambda e: e[1].seq)
        return cls(entries, leaves)

    def run_backward(self, out: Array) -> dict:
        grads = {out: np.ones((), dtype=np.float64)}
        for a, n in reversed(self.entries):
            g = grads.pop(a, None)
            if g is None:
                continue
            for inp, gi in zip(n.inputs, n.grad_fn(g)):
                if gi is None or (inp._node is None and not inp.grad_tracked):
                    continue
                prev = grads.get(inp)
                grads[inp] = gi if prev is None else prev + gi
        result = {}
        for leaf in self.leaves:
            g = grads.get(leaf)
            if g is None:
                g = np.zeros_like(leaf.data)
            else:
                g = np.asarray(g, dtype=np.float64)
                if g.shape != leaf.data.shape:
                    g = np.broadcast_to(g, leaf.data.shape).copy()
            leaf.grad = g if leaf.grad is None else leaf.grad + g
            result[leaf] = g
        return result


def backward(loss: Array) -> dict:
    """Reverse sweep from a scalar loss; returns {leaf: gradient}.

    Gradients also accumulate into each leaf's ``.grad`` (reset by assigning
    None), so per-sample losses in a batch can share leaves.  Calling
    backward twice on the same loss is an error.
    """
    if not isinstance(loss, Array):
        raise TypeError("backward expects an Array")
    if loss.data.shape != ():
        raise ValueError("backward requires a scalar loss")
    if loss._node is None and not loss.grad_tracked:
        raise ValueError("loss is detached from any gradient tape")
    if loss._back_done:
        raise RuntimeError("backward already ran for this loss; rebuild the graph")
    loss._back_done = True
    return Tape.trace(loss).run_backward(loss)


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


def sub(a, b) -> Array:
    a, b = _as_array(a), _as_array(b)
    out = Array(a.data - b.data)
    if _tracing(a, b):
        ash, bsh = a.data.shape, b.data.shape

        def grad_fn(g):
            return (
                _unbroadcast(g, ash) if _live(a) else None,
                _unbroadcast(-g, bsh) if _live(b) else None,
            )

        _attach(out, (a, b), grad_fn)
    return out


def neg(a) -> Array:
    a = _as_array(a)
    out = Array(-a.data)
    if _tracing(a):
        _attach(out, (a,), lambda g: (-g,))
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


def relu(a) -> Array:
    a = _as_array(a)
    out = Array(np.maximum(a.data, 0.0))
    if _tracing(a):
        mask = a.data > 0.0
        _attach(out, (a,), lambda g: (g * mask,))
    return out


def gelu(a) -> Array:
    """Gaussian error linear unit, tanh approximation (cubic coefficient
    ``GELU_CUBIC_COEFF`` = 0.044715)."""
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
    y = np.multiply(0.5, x, out=np.empty_like(x))  # 0.5 * x * (1 + t)
    y *= 1.0 + t
    out = Array(y)
    if _tracing(a):

        def grad_fn(g):
            sech2 = np.multiply(t, t, out=np.empty_like(t))  # 1 - t * t
            np.subtract(1.0, sech2, out=sech2)
            dinner = np.multiply(3.0 * GELU_CUBIC_COEFF, x, out=np.empty_like(x))
            dinner *= x  # scale * (1 + 3c * x * x)
            dinner += 1.0
            dinner *= _GELU_SCALE
            dx = np.multiply(0.5, x, out=np.empty_like(x))
            dx *= sech2  # g * (0.5 * (1 + t) + 0.5 * x * sech2 * dinner)
            dx *= dinner
            dx += 0.5 * (1.0 + t)
            return (g * dx,)

        _attach(out, (a,), grad_fn)
    return out


def log(a) -> Array:
    a = _as_array(a)
    if np.any(a.data <= 0.0):
        raise ValueError("log of nonpositive value")
    out = Array(np.log(a.data))
    if _tracing(a):
        ad = a.data
        _attach(out, (a,), lambda g: (g / ad,))
    return out


def exp(a) -> Array:
    a = _as_array(a)
    with np.errstate(over="ignore"):
        val = np.exp(a.data)
    if not np.all(np.isfinite(val)):
        raise FloatingPointError("exp overflowed to a non-finite value")
    out = Array(val)
    if _tracing(a):
        _attach(out, (a,), lambda g: (g * val,))
    return out


_ELEMENTWISE = {"add": add, "mul": mul, "relu": relu, "gelu": gelu, "log": log, "exp": exp}


def elementwise(kind: str, *arrays) -> Array:
    """Dispatch an elementwise primitive by name (add|mul|relu|gelu|log|exp)."""
    try:
        fn = _ELEMENTWISE[kind]
    except KeyError:
        raise ValueError(f"unknown elementwise kind: {kind!r}") from None
    return fn(*arrays)


# ---------------------------------------------------------------------------
# linear algebra and shape primitives


def matmul(a, b) -> Array:
    a, b = _as_array(a), _as_array(b)
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ValueError(f"matmul shape mismatch: {ad.shape} x {bd.shape}")
    out = Array(ad @ bd)
    if _tracing(a, b):

        def grad_fn(g):
            return (
                g @ bd.T if _live(a) else None,
                ad.T @ g if _live(b) else None,
            )

        _attach(out, (a, b), grad_fn)
    return out


def transpose(a) -> Array:
    a = _as_array(a)
    if a.data.ndim != 2:
        raise ValueError("transpose expects a 2-D array")
    out = Array(a.data.T)
    if _tracing(a):
        _attach(out, (a,), lambda g: (g.T,))
    return out


def concat(arrays, axis: int = 0) -> Array:
    arrays = [_as_array(a) for a in arrays]
    if not arrays:
        raise ValueError("concat of empty list")
    out = Array(np.concatenate([a.data for a in arrays], axis=axis))
    if _tracing(*arrays):
        sizes = [a.data.shape[axis] for a in arrays]
        offsets = np.cumsum(sizes)[:-1]

        def grad_fn(g):
            parts = np.split(g, offsets, axis=axis)
            return tuple(p if _live(a) else None for p, a in zip(parts, arrays))

        _attach(out, tuple(arrays), grad_fn)
    return out


def take_columns(a, indices) -> Array:
    """Gather columns of a 2-D array; duplicate indices accumulate gradient."""
    a = _as_array(a)
    if a.data.ndim != 2:
        raise ValueError("take_columns expects a 2-D array")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[1]):
        raise ValueError("column index out of range")
    out = Array(a.data[:, idx])
    if _tracing(a):
        shape = a.data.shape

        def grad_fn(g):
            gx = np.zeros(shape)
            np.add.at(gx, (slice(None), idx), g)
            return (gx,)

        _attach(out, (a,), grad_fn)
    return out


def slice_rows(a, start: int, stop: int) -> Array:
    """Keep rows [start, stop); gradient zero-pads the removed rows."""
    a = _as_array(a)
    T = a.data.shape[0]
    if not (0 <= start < stop <= T):
        raise ValueError(f"row slice [{start},{stop}) out of range for length {T}")
    out = Array(a.data[start:stop])
    if _tracing(a):
        shape = a.data.shape

        def grad_fn(g):
            gx = np.zeros(shape)
            gx[start:stop] = g
            return (gx,)

        _attach(out, (a,), grad_fn)
    return out


# ---------------------------------------------------------------------------
# reductions, softmax, pooling


def reduce_sum(a, axis=None, keepdims: bool = False) -> Array:
    a = _as_array(a)
    out = Array(a.data.sum(axis=axis, keepdims=keepdims))
    if _tracing(a):
        shape = a.data.shape

        def grad_fn(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        _attach(out, (a,), grad_fn)
    return out


def reduce_mean(a, axis=None, keepdims: bool = False) -> Array:
    a = _as_array(a)
    if axis is None:
        count = a.data.size
    else:
        count = a.data.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def softmax(a, axis: int = -1) -> Array:
    a = _as_array(a)
    x = a.data
    if x.shape[axis] < 1:
        raise ValueError("softmax needs a nonempty axis")
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Array(y)
    if _tracing(a):

        def grad_fn(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            return (y * (g - dot),)

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
# temporal convolutions


def _conv_geometry(T: int, k: int, stride: int, padding: str):
    if padding == "same":
        t_out = -(-T // stride)
        pad = max((t_out - 1) * stride + k - T, 0)
    elif padding == "valid":
        if T < k:
            raise ValueError("input shorter than kernel with valid padding")
        t_out = (T - k) // stride + 1
        pad = 0
    else:
        raise ValueError(f"unknown padding: {padding!r}")
    pad_left = (pad + 1) // 2
    return t_out, pad, pad_left


def _check_conv_args(T, k, stride):
    if T < 1:
        raise ValueError("empty time axis")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if k % 2 == 0:
        raise ValueError("kernel size must be odd")


def temporal_conv(x, w, stride: int = 1, padding: str = "same") -> Array:
    """1-D convolution along time: x [T, Cin], w [k, Cin, Cout] -> [T', Cout].

    Same-padding output length is ceil(T / stride), padded left-heavy.
    """
    x, w = _as_array(x), _as_array(w)
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 3:
        raise ValueError("temporal_conv expects x [T,Cin] and w [k,Cin,Cout]")
    T, cin = xd.shape
    k, wcin, cout = wd.shape
    if cin != wcin:
        raise ValueError(f"channel mismatch: input {cin}, weight {wcin}")
    _check_conv_args(T, k, stride)
    t_out, pad, pad_left = _conv_geometry(T, k, stride, padding)
    xp = np.zeros((T + pad, cin))
    xp[pad_left : pad_left + T] = xd
    win = np.empty((t_out, k, cin))
    for j in range(k):
        win[:, j, :] = xp[j : j + stride * t_out : stride]
    win2 = win.reshape(t_out, k * cin)
    wf = wd.reshape(k * cin, cout)
    out = Array(win2 @ wf)
    if _tracing(x, w):

        def grad_fn(g):
            gx = None
            gw = None
            if _live(w):
                gw = (win2.T @ g).reshape(k, cin, cout)
            if _live(x):
                gwin = (g @ wf.T).reshape(t_out, k, cin)
                gxp = np.zeros((T + pad, cin))
                for j in range(k):
                    gxp[j : j + stride * t_out : stride] += gwin[:, j, :]
                gx = gxp[pad_left : pad_left + T]
            return (gx, gw)

        _attach(out, (x, w), grad_fn)
    return out


def transposed_temporal_conv(x, w, stride: int = 1) -> Array:
    """Exact adjoint of same-padded ``temporal_conv`` with identical w/stride.

    Maps x [T, Cout] to [T*stride, Cin] for w [k, Cin, Cout], so that
    <transposed_temporal_conv(x), y> == <x, temporal_conv(y)> for any y.
    """
    x, w = _as_array(x), _as_array(w)
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 3:
        raise ValueError("transposed_temporal_conv expects x [T,Cout] and w [k,Cin,Cout]")
    T, xcout = xd.shape
    k, cin, cout = wd.shape
    if xcout != cout:
        raise ValueError(f"channel mismatch: input {xcout}, weight {cout}")
    _check_conv_args(T, k, stride)
    t_out = T * stride
    _, pad, pad_left = _conv_geometry(t_out, k, stride, "same")
    vp = np.zeros((t_out + pad, cin))
    for j in range(k):
        vp[j : j + stride * T : stride] += xd @ wd[j].T
    out = Array(vp[pad_left : pad_left + t_out])
    if _tracing(x, w):

        def grad_fn(g):
            gp = np.zeros((t_out + pad, cin))
            gp[pad_left : pad_left + t_out] = g
            gx = None
            gw = None
            if _live(x):
                gx = np.zeros((T, cout))
                for j in range(k):
                    gx += gp[j : j + stride * T : stride] @ wd[j]
            if _live(w):
                gw = np.empty_like(wd)
                for j in range(k):
                    gw[j] = gp[j : j + stride * T : stride].T @ xd
            return (gx, gw)

        _attach(out, (x, w), grad_fn)
    return out
