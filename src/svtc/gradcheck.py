"""Finite-difference verification of every analytic gradient in the stack.

Each named check builds a small scalar-valued computation over fresh leaves,
runs the reverse pass, then recomputes the gradient with central differences
(step ``DEFAULT_STEP`` = 1e-5) and reports the worst component error
relative to the largest finite-difference magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import contrast, ndgrad, net
from .ctc import GlossVocab, ctc_loss, ctc_loss_group
from .ndgrad import Array
from .synthdata import Sample

DEFAULT_STEP = 1e-5


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name:<28s} max_rel={self.max_rel_err:.3e}  tol={self.tolerance:.0e}"


def finite_difference_grads(forward, leaves) -> list:
    """Central-difference gradients of ``forward()`` w.r.t. each leaf.

    ``forward`` must recompute the scalar loss from the leaves' current
    ``data``; the leaves are perturbed in place and restored.
    """
    grads = []
    for leaf in leaves:
        base = leaf.data
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + DEFAULT_STEP
            hi = forward().item()
            flat[i] = orig - DEFAULT_STEP
            lo = forward().item()
            flat[i] = orig
            gf[i] = (hi - lo) / (2.0 * DEFAULT_STEP)
        grads.append(g)
    return grads


def compare_grads(forward, leaves) -> float:
    """Worst error between analytic and numeric gradients, relative to the
    largest finite-difference magnitude across all leaves."""
    for leaf in leaves:
        leaf.grad = None
    loss = forward()
    ndgrad.backward(loss)
    numeric = finite_difference_grads(forward, leaves)
    scale = 1e-8
    for num in numeric:
        if num.size:
            scale = max(scale, float(np.max(np.abs(num))))
    worst = 0.0
    for leaf, num in zip(leaves, numeric):
        ana = leaf.grad if leaf.grad is not None else np.zeros_like(num)
        err = float(np.max(np.abs(ana - num))) / scale
        worst = max(worst, err)
    return worst


def _leaf(rng, shape):
    return Array(rng.standard_normal(shape), grad_tracked=True)


def _scalar_checks(seed: int):
    """(name, forward, leaves, tol) tuples covering every primitive."""
    checks = []

    def register(name, builder, tol=1e-5):
        rng = np.random.default_rng((seed, net._digest64(name)))
        fwd, leaves = builder(rng)
        checks.append((name, fwd, leaves, tol))

    def with_weights(make_out, leaves):
        w_cache = {}

        def fwd():
            out = make_out()
            key = out.data.shape
            if key not in w_cache:
                w_cache[key] = Array(np.random.default_rng(9876).standard_normal(key))
            return ndgrad.reduce_sum(ndgrad.mul(out, w_cache[key]))

        return fwd, leaves

    def b_matmul(rng):
        a, b, c = _leaf(rng, (3, 4)), _leaf(rng, (4, 2)), _leaf(rng, (2,))
        return with_weights(lambda: ndgrad.matmul(a, b, bias=c), [a, b, c])

    def b_conv(rng):
        x, w, c = _leaf(rng, (7, 3)), _leaf(rng, (3, 3, 2)), _leaf(rng, (2,))
        return with_weights(lambda: ndgrad.temporal_conv(x, w, (7,), 2, bias=c), [x, w, c])

    def b_conv_packed(stride):
        # three packed segments, each padded and strided on its own
        def build(rng):
            x, w, c = _leaf(rng, (16, 3)), _leaf(rng, (3, 3, 2)), _leaf(rng, (2,))
            return with_weights(
                lambda: ndgrad.temporal_conv(x, w, (5, 4, 7), stride, bias=c),
                [x, w, c],
            )

        return build

    def b_tconv_packed(rng):
        # odd segment lengths 7 and 5 at stride 2: 4 + 3 input rows
        x, w, c = _leaf(rng, (7, 2)), _leaf(rng, (3, 3, 2)), _leaf(rng, (3,))
        return with_weights(
            lambda: ndgrad.transposed_temporal_conv(x, w, (7, 5), 2, bias=c),
            [x, w, c],
        )

    def b_attention(rng):
        q, k, v = _leaf(rng, (9, 3)), _leaf(rng, (9, 3)), _leaf(rng, (9, 2))
        return with_weights(lambda: ndgrad.segment_attention(q, k, v, 0.6, (4, 5)), [q, k, v])

    def b_ctc_group(rng):
        # two arrays packing two samples each, every sample with its own labels
        a, b = _leaf(rng, (11, 4)), _leaf(rng, (7, 4))
        labels = [[1, 2, 1], [3]]

        def fwd():
            streams = [ndgrad.log_softmax(a, axis=1), ndgrad.log_softmax(b, axis=1)]
            losses = ctc_loss_group(streams, labels, [(6, 5), (4, 3)])
            return ndgrad.reduce_sum(ndgrad.mul(losses, [[0.7, 1.3], [0.4, 0.9]]))

        return fwd, [a, b]

    def b_tconv(rng):
        # length 7, not 4 * 2: the odd-length geometry of an odd pyramid lateral
        x, w, c = _leaf(rng, (4, 2)), _leaf(rng, (3, 3, 2)), _leaf(rng, (3,))
        return with_weights(
            lambda: ndgrad.transposed_temporal_conv(x, w, (7,), 2, bias=c), [x, w, c]
        )

    def b_gelu(rng):
        x = _leaf(rng, (5, 3))
        return with_weights(lambda: ndgrad.gelu(x), [x])

    def b_elementwise(rng):
        a, b = _leaf(rng, (4, 3)), _leaf(rng, (4, 3))
        return with_weights(
            lambda: ndgrad.mul(
                ndgrad.add(a, ndgrad.mul(b, -1.0)), ndgrad.add(ndgrad.mul(a, b), 0.5)
            ),
            [a, b],
        )

    def b_log_softmax(rng):
        x = _leaf(rng, (4, 5))
        return with_weights(lambda: ndgrad.log_softmax(x, axis=1), [x])

    def b_pool(rng):
        x = _leaf(rng, (8, 3))
        spans = [(0, 3), (3, 4), (4, 8)]
        return with_weights(lambda: ndgrad.pool_spans(x, spans), [x])

    def b_ctc(rng):
        x = _leaf(rng, (6, 4))
        labels = [1, 2, 1]
        return (lambda: ctc_loss(ndgrad.log_softmax(x, axis=1), labels)), [x]

    def b_gloss_align(rng):
        fv = _leaf(rng, (3, 4))
        ft = _leaf(rng, (3, 4))
        tgt = contrast.alignment_targets([1, 2, 1])
        return (
            lambda: contrast.gloss_align_loss(contrast.pair_matrices(fv, ft), tgt)
        ), [fv, ft]

    def b_sentence_align(rng):
        fc = _leaf(rng, (1, 6))
        ft = Array(rng.standard_normal((1, 6)))
        return (lambda: contrast.sentence_align_loss(fc, ft)), [fc]

    def b_fusion_mlp(rng):
        hv, hk, ho = (_leaf(rng, (5, 3)) for _ in range(3))
        store = net.ParamStore()
        fusion = net.MlpFusion(store, rng, "f", 3)
        for p in store.table.values():  # zero-init last layer would hide grads
            p.data = rng.standard_normal(p.data.shape) * 0.3
        leaves = [hv, hk, ho] + list(store.table.values())

        def make():
            return ndgrad.concat(fusion(hv, hk, ho, (5,)))

        return with_weights(make, leaves)

    register("matmul", b_matmul)
    register("temporal_conv", b_conv)
    register("temporal_conv_packed_s1", b_conv_packed(1))
    register("temporal_conv_packed_s2", b_conv_packed(2))
    register("transposed_temporal_conv", b_tconv)
    register("transposed_conv_packed", b_tconv_packed)
    register("segment_attention", b_attention)
    register("gelu", b_gelu)
    register("elementwise_chain", b_elementwise)
    register("log_softmax", b_log_softmax)
    register("pool_spans", b_pool)
    register("ctc_loss", b_ctc)
    register("ctc_loss_group_packed", b_ctc_group)
    register("gloss_align_loss", b_gloss_align, tol=1e-5)
    register("sentence_align_loss", b_sentence_align, tol=1e-6)
    register("fusion_mlp", b_fusion_mlp)
    return checks


def micro_model() -> tuple:
    """A ~200-parameter model plus a fitting sample for full-graph checks.

    The model takes a short warm-up (a few CTC-only steps) first: at the
    uniform init the frame-to-gloss path sits on decision boundaries, where
    finite differences see the (deliberately non-differentiated) path flips.
    After warm-up the path is locally constant and the full loss is smooth.
    """
    vocab = GlossVocab(("A", "B"))
    cfg = net.ModelConfig(
        vocab_size=vocab.size,
        d_v=1,
        d_t=2,
        d_j=1,
        in_dim_v=2,
        in_dim_k=2,
        in_dim_o=2,
        fusion_kind="mlp",
        seed=11,
    )
    model = net.Model(cfg, vocab)
    rng = np.random.default_rng(5)
    T = 16
    sample = Sample(
        id="micro",
        glosses=["A", "B", "A"],
        x_v=rng.standard_normal((T, 2)),
        x_k=rng.standard_normal((T, 2)),
        x_o=rng.standard_normal((T, 2)),
    )

    labels = vocab.ids(sample.glosses)
    ctc_only = net.LossWeights(spn=0.0, gloss_align=0.0, sentence_align=0.0)
    params = list(model.parameters().values())
    for _ in range(40):
        for p in params:
            p.grad = None
        out = model.forward(sample)
        loss = net.compute_losses(out, labels, ctc_only, include_align=False).total
        ndgrad.backward(loss)
        for p in params:
            if p.grad is not None:
                p.data = p.data - 0.05 * p.grad
    return model, sample


def run_suite(seed: int, include_model: bool) -> list:
    """Run every named check; returns CheckResult entries."""
    results = []
    for name, fwd, leaves, tol in _scalar_checks(seed):
        results.append(CheckResult(name, compare_grads(fwd, leaves), tol))

    if include_model:
        model, sample = micro_model()
        weights = net.LossWeights()
        labels = model.vocab.ids(sample.glosses)

        def fwd():
            out = model.forward(sample)
            return net.compute_losses(out, labels, weights, include_align=True).total

        leaves = list(model.parameters().values())
        err = compare_grads(fwd, leaves)
        results.append(CheckResult("micro_model_total_loss", err, 1e-4))
    return results
