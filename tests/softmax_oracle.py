"""Reference softmax for tests: the op-by-op attention chain that
``segment_attention`` is checked against normalises its scores with it.

The library computes its only softmax inside ``segment_attention``; this
traced primitive keeps the textbook form, max-subtracted, with the
Jacobian-vector product ``y * (g - sum(g * y))`` as its gradient.
"""

import numpy as np

from svtc import ndgrad as ng


def softmax(a, axis: int = -1) -> ng.Array:
    a = a if isinstance(a, ng.Array) else ng.Array(a)
    x = a.data
    if x.shape[axis] < 1:
        raise ValueError("softmax needs a nonempty axis")
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return ng.custom_op(y, (a,), grad_fn)
