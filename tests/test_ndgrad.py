"""Engine tests: forward contracts, gradient oracles, tape semantics.

Gradient oracles are central finite differences (h=1e-5) from
``gradcheck.finite_difference_grads``, independent of the analytic rules
they check.
"""

import math
import weakref

import numpy as np
import pytest

from svtc import ndgrad as ng
from svtc.gradcheck import finite_difference_grads
from svtc.ndgrad import Array


def rel_err(analytic, numeric):
    scale = max(np.abs(numeric).max(), 1e-8)
    return np.abs(analytic - numeric).max() / scale


def check_grads(forward, leaves, tol=1e-5):
    for leaf in leaves:
        leaf.grad = None
    ng.backward(forward())
    numeric = finite_difference_grads(forward, leaves)
    for leaf, num in zip(leaves, numeric):
        assert leaf.grad is not None
        assert rel_err(leaf.grad, num) <= tol


class TestMatmul:
    def test_identity(self):
        a = Array(np.eye(2))
        b = Array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ng.matmul(a, b).data, b.data)

    def test_orthogonal_pick(self):
        out = ng.matmul(Array([[1.0, 0.0]]), Array([[0.0], [5.0]]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        got = ng.matmul(Array(a), Array(b)).data
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ng.matmul(Array(np.ones((2, 3))), Array(np.ones((2, 3))))

    def test_gradient(self):
        rng = np.random.default_rng(1)
        a = Array(rng.standard_normal((3, 4)), grad_tracked=True)
        b = Array(rng.standard_normal((4, 2)), grad_tracked=True)
        w = Array(rng.standard_normal((3, 2)))
        check_grads(lambda: ng.reduce_sum(ng.mul(ng.matmul(a, b), w)), [a, b])


@pytest.mark.parametrize("op", ["matmul", "temporal_conv"])
def test_fused_bias_bitwise_equals_separate_add(op):
    # the bias joined to the product's node must keep the bytes of a
    # separate add node, forward and in every leaf gradient
    rng = np.random.default_rng(37)
    x0 = rng.standard_normal((9, 6))
    w0 = rng.standard_normal((6, 4) if op == "matmul" else (3, 6, 4))
    b0, g = rng.standard_normal(4), Array(rng.standard_normal((9, 4)))
    results = []
    for fused in (True, False):
        x, w, b = (Array(v, grad_tracked=True) for v in (x0, w0, b0))
        product = getattr(ng, op)
        y = product(x, w, bias=b) if fused else ng.add(product(x, w), b)
        ng.backward(ng.reduce_sum(ng.mul(ng.gelu(y), g)))
        results.append([y.data.tobytes()] + [a.grad.tobytes() for a in (x, w, b)])
    assert results[0] == results[1]


class TestTemporalConv:
    def test_delta_kernel_identity(self):
        x = Array([[1.0], [2.0], [3.0]])
        w = Array(np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1))
        np.testing.assert_array_equal(ng.temporal_conv(x, w).data, x.data)

    def test_stride_two_boundary_sums(self):
        # direct convolution oracle: left-heavy same padding of [1,1,1,1]
        x = Array(np.ones((4, 1)))
        w = Array(np.ones((3, 1, 1)))
        out = ng.temporal_conv(x, w, stride=2)
        np.testing.assert_array_equal(out.data.ravel(), [2.0, 3.0])

    def test_same_padding_lengths(self):
        w = Array(np.ones((3, 1, 2)))
        for T in (1, 2, 3, 7, 8):
            for stride in (1, 2, 3):
                out = ng.temporal_conv(Array(np.ones((T, 1))), w, stride=stride)
                assert out.data.shape == (-(-T // stride), 2)

    def test_direct_convolution_oracle(self):
        rng = np.random.default_rng(2)
        T, cin, cout, k, stride = 9, 3, 2, 3, 2
        x = rng.standard_normal((T, cin))
        w = rng.standard_normal((k, cin, cout))
        got = ng.temporal_conv(Array(x), Array(w), stride=stride).data
        t_out = -(-T // stride)
        pad = max((t_out - 1) * stride + k - T, 0)
        pl = (pad + 1) // 2
        xp = np.zeros((T + pad, cin))
        xp[pl : pl + T] = x
        want = np.zeros((t_out, cout))
        for t in range(t_out):
            for j in range(k):
                for ci in range(cin):
                    for co in range(cout):
                        want[t, co] += xp[t * stride + j, ci] * w[j, ci, co]
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_bitwise_equals_window_matrix_product(self, k, stride):
        # the strided window view must give the bytes of an explicitly
        # assembled [t_out, k * cin] window matrix times the flat kernel
        rng = np.random.default_rng(31)
        for T in (1, 2, 4, 7, 14, 55):
            for cin in (1, 12, 64):
                x = rng.standard_normal((T, cin))
                w = rng.standard_normal((k, cin, 5))
                t_out = -(-T // stride)
                pad = max((t_out - 1) * stride + k - T, 0)
                pl = (pad + 1) // 2
                xp = np.zeros((T + pad, cin))
                xp[pl : pl + T] = x
                win = np.stack([xp[t * stride : t * stride + k].ravel() for t in range(t_out)])
                want = win @ w.reshape(k * cin, 5)
                got = ng.temporal_conv(Array(x), Array(w), stride=stride).data
                assert got.tobytes() == want.tobytes(), (T, cin)

    def test_gradient_sum_of_output(self):
        rng = np.random.default_rng(3)
        x = Array(rng.standard_normal((7, 2)), grad_tracked=True)
        w = Array(rng.standard_normal((3, 2, 3)), grad_tracked=True)
        check_grads(lambda: ng.reduce_sum(ng.temporal_conv(x, w, stride=2)), [x, w], tol=1e-6)

    def test_errors(self):
        w = Array(np.ones((3, 1, 1)))
        with pytest.raises(ValueError):
            ng.temporal_conv(Array(np.ones((0, 1))), w)
        with pytest.raises(ValueError):
            ng.temporal_conv(Array(np.ones((4, 1))), Array(np.ones((2, 1, 1))))


def same_padded(x, T, k, stride):
    """The zero-padded input and output count of a one-segment conv."""
    t_out = -(-T // stride)
    pad = max((t_out - 1) * stride + k - T, 0)
    xp = np.zeros((T + pad, x.shape[1]))
    xp[(pad + 1) // 2 : (pad + 1) // 2 + T] = x
    return xp, t_out, pad, (pad + 1) // 2


class TestPackedConv:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("T", [1, 4, 7, 14, 55])
    def test_one_segment_gradients_bitwise_equal_strided_window_formulas(self, T, stride):
        # the tap-slice windows and gradients of a one-segment conv must give the
        # bytes of the padded strided-window expressions
        rng = np.random.default_rng(47)
        k, cin, cout = 3, 12, 5
        x0, w0 = rng.standard_normal((T, cin)), rng.standard_normal((k, cin, cout))
        x, w = Array(x0, grad_tracked=True), Array(w0, grad_tracked=True)
        out = ng.temporal_conv(x, w, stride=stride)
        g = rng.standard_normal(out.data.shape)
        ng.backward(ng.reduce_sum(ng.mul(out, g)))
        xp, t_out, pad, pl = same_padded(x0, T, k, stride)
        win = np.ndarray((t_out, k * cin), buffer=xp, strides=(stride * xp.strides[0], 8)).copy()
        wf = w0.reshape(k * cin, cout)
        assert out.data.tobytes() == (win @ wf).tobytes()
        assert w.grad.tobytes() == (win.T @ g).reshape(k, cin, cout).tobytes()
        gwin = (g @ wf.T).reshape(t_out, k, cin)
        gxp = np.zeros((T + pad, cin))
        for j in range(k):
            gxp[j : j + stride * t_out : stride] += gwin[:, j, :]
        assert x.grad.tobytes() == gxp[pl : pl + T].tobytes()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_segments_match_separate_convs(self, stride):
        # lengths 8..11 cover every remainder mod 4; each segment pads alone
        rng = np.random.default_rng(48)
        lengths = (8, 9, 10, 11, 1)
        w0, b0 = rng.standard_normal((3, 4, 2)), rng.standard_normal(2)
        xs = [rng.standard_normal((n, 4)) for n in lengths]
        packed = ng.temporal_conv(Array(np.concatenate(xs)), Array(w0), stride, b0, lengths)
        alone = [ng.temporal_conv(Array(x), Array(w0), stride, b0).data for x in xs]
        np.testing.assert_allclose(packed.data, np.concatenate(alone), rtol=0, atol=1e-12)

    def test_segment_lengths_must_cover_rows(self):
        w = Array(np.ones((3, 1, 1)))
        with pytest.raises(ValueError, match="do not add up"):
            ng.temporal_conv(Array(np.ones((5, 1))), w, lengths=(2, 2))
        with pytest.raises(ValueError):
            ng.temporal_conv(Array(np.ones((5, 1))), w, lengths=(5, 0))

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("length", [1, 5, 8, 13])
    def test_one_segment_upsample_bitwise_equals_strided_formulas(self, length, stride):
        rng = np.random.default_rng(49)
        k, cin, cout = 3, 6, 4
        T = -(-length // stride)
        x0, w0 = rng.standard_normal((T, cout)), rng.standard_normal((k, cin, cout))
        x, w = Array(x0, grad_tracked=True), Array(w0, grad_tracked=True)
        out = ng.transposed_temporal_conv(x, w, length, stride=stride)
        g = rng.standard_normal((length, cin))
        ng.backward(ng.reduce_sum(ng.mul(out, g)))
        _, _, pad, pl = same_padded(np.zeros((length, 1)), length, k, stride)
        vp = np.zeros((length + pad, cin))
        for j in range(k):
            vp[j : j + stride * T : stride] += x0 @ w0[j].T
        assert out.data.tobytes() == vp[pl : pl + length].tobytes()
        gp = np.zeros((length + pad, cin))
        gp[pl : pl + length] = g
        gx = np.zeros((T, cout))
        gw = np.empty_like(w0)
        for j in range(k):
            gx += gp[j : j + stride * T : stride] @ w0[j]
            gw[j] = gp[j : j + stride * T : stride].T @ x0
        assert x.grad.tobytes() == gx.tobytes()
        assert w.grad.tobytes() == gw.tobytes()

    def test_packed_upsample_matches_separate_and_stays_adjoint(self):
        rng = np.random.default_rng(50)
        lengths, stride = (7, 5, 9), 2
        w0 = rng.standard_normal((3, 3, 2))
        xs = [rng.standard_normal((-(-n // stride), 2)) for n in lengths]
        x = Array(np.concatenate(xs))
        packed = ng.transposed_temporal_conv(x, Array(w0), lengths, stride)
        alone = [
            ng.transposed_temporal_conv(Array(x), Array(w0), n, stride).data
            for x, n in zip(xs, lengths)
        ]
        np.testing.assert_allclose(packed.data, np.concatenate(alone), rtol=0, atol=1e-12)
        y = rng.standard_normal((sum(lengths), 3))
        conv = ng.temporal_conv(Array(y), Array(w0), stride, lengths=lengths)
        lhs = float((packed.data * y).sum())
        rhs = float((x.data * conv.data).sum())
        assert abs(lhs - rhs) <= 1e-10


def attention_chain(q, k, v, scale):
    """The op-by-op attention a one-segment ``segment_attention`` must match."""
    scores = ng.mul(ng.matmul(q, ng.transpose(k)), scale)
    return ng.matmul(ng.softmax(scores, axis=1), v)


class TestSegmentAttention:
    def test_one_segment_bitwise_equals_op_chain(self):
        rng = np.random.default_rng(51)
        d, T = 8, 11
        src, wo = rng.standard_normal((T, d)), rng.standard_normal((d, d))
        projections = rng.standard_normal((3, d, d))
        results = []
        for fused in (True, False):
            x = Array(src, grad_tracked=True)
            wq, wk, wv = (Array(p, grad_tracked=True) for p in projections)
            q, k, v = ng.matmul(x, wq), ng.matmul(x, wk), ng.matmul(x, wv)
            attend = ng.segment_attention if fused else attention_chain
            read = attend(q, k, v, 1.0 / math.sqrt(d))
            ng.backward(ng.reduce_sum(ng.gelu(ng.matmul(read, Array(wo)))))
            results.append([read.data.tobytes()] + [a.grad.tobytes() for a in (x, wq, wk, wv)])
        assert results[0] == results[1]

    def test_rows_attend_only_inside_their_segment(self):
        rng = np.random.default_rng(53)
        lengths = (3, 6, 1)
        q, k, v = (rng.standard_normal((10, 4)) for _ in range(3))
        packed = ng.segment_attention(Array(q), Array(k), Array(v), 0.5, lengths).data
        start = 0
        for n in lengths:
            rows = slice(start, start + n)
            alone = attention_chain(Array(q[rows]), Array(k[rows]), Array(v[rows]), 0.5).data
            np.testing.assert_allclose(packed[rows], alone, rtol=0, atol=1e-12)
            start += n

    def test_gradient(self):
        rng = np.random.default_rng(54)
        q, k, v = (Array(rng.standard_normal((7, 3)), grad_tracked=True) for _ in range(3))
        proj = Array(rng.standard_normal((7, 3)))
        check_grads(
            lambda: ng.reduce_sum(ng.mul(ng.segment_attention(q, k, v, 0.7, (2, 5)), proj)),
            [q, k, v],
        )


class TestTransposedTemporalConv:
    def test_stride_one_delta_identity(self):
        x = Array([[1.0], [2.0], [3.0]])
        w = Array(np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1))
        np.testing.assert_array_equal(ng.transposed_temporal_conv(x, w, 3).data, x.data)

    def test_stride_two_doubles_length(self):
        out = ng.transposed_temporal_conv(Array(np.ones((3, 2))), Array(np.ones((3, 4, 2))), 6, stride=2)
        assert out.data.shape == (6, 4)

    def test_adjoint_identity(self):
        # every length whose same-padded conv has T outputs; at stride 3,
        # length 3T - 1 pads differently from 3T, so a crop of the 3T result
        # is not the adjoint
        rng = np.random.default_rng(4)
        for stride in (1, 2, 3):
            for _ in range(5):
                T = int(rng.integers(2, 6))
                cin, cout = 3, 2
                x = rng.standard_normal((T, cout))
                w = rng.standard_normal((3, cin, cout))
                for length in range((T - 1) * stride + 1, T * stride + 1):
                    y = rng.standard_normal((length, cin))
                    up = ng.transposed_temporal_conv(Array(x), Array(w), length, stride=stride)
                    lhs = float((up.data * y).sum())
                    rhs = float((x * ng.temporal_conv(Array(y), Array(w), stride=stride).data).sum())
                    assert abs(lhs - rhs) <= 1e-10, (stride, T, length)

    def test_mismatched_length_rejected(self):
        x, w = Array(np.ones((3, 2))), Array(np.ones((3, 4, 2)))
        for length in (4, 7, 0):
            with pytest.raises(ValueError):
                ng.transposed_temporal_conv(x, w, length, stride=2)

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = Array(rng.standard_normal((3, 2)), grad_tracked=True)
        w = Array(rng.standard_normal((3, 3, 2)), grad_tracked=True)
        b = Array(rng.standard_normal(3), grad_tracked=True)
        proj = Array(rng.standard_normal((5, 3)))
        check_grads(
            lambda: ng.reduce_sum(
                ng.mul(ng.transposed_temporal_conv(x, w, 5, stride=2, bias=b), proj)
            ),
            [x, w, b],
        )


class TestElementwise:
    def test_gelu_zero(self):
        assert ng.gelu(Array(0.0)).item() == 0.0

    def test_gelu_gradient_at_reference_points(self):
        for point in (-2.0, -0.5, 0.5, 2.0):
            x = Array(np.array([point]), grad_tracked=True)
            check_grads(lambda: ng.reduce_sum(ng.gelu(x)), [x], tol=1e-6)

    @pytest.mark.parametrize("shape", [(), (7,), (13, 64)])
    def test_gelu_bitwise_equals_textbook_expressions(self, shape):
        # the in-place evaluation must keep every rounding of the formulas
        c, scale = ng.GELU_CUBIC_COEFF, np.sqrt(2.0 / np.pi)
        rng = np.random.default_rng(17)
        x = np.asarray(4.0 * rng.standard_normal(shape))
        g = rng.standard_normal(shape)
        t = np.tanh(scale * (x + c * x * x * x))
        want_y = 0.5 * x * (1.0 + t)
        dinner = scale * (1.0 + 3.0 * c * x * x)
        want_dx = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)
        a = Array(x, grad_tracked=True)
        y = ng.gelu(a)
        assert y.data.tobytes() == np.asarray(want_y).tobytes()
        ng.backward(ng.reduce_sum(ng.mul(y, Array(g))))
        assert a.grad.tobytes() == np.asarray(want_dx).tobytes()

    def test_broadcast_add_mul(self):
        a = Array(np.ones((3, 4)), grad_tracked=True)
        b = Array(np.arange(4.0), grad_tracked=True)
        check_grads(lambda: ng.reduce_sum(ng.mul(ng.add(a, b), b)), [a, b])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(ng.softmax(Array([0.0, 0.0])).data, [0.5, 0.5])

    def test_shift_overflow_safe(self):
        np.testing.assert_allclose(ng.softmax(Array([1000.0, 1000.0])).data, [0.5, 0.5])

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.standard_normal((4, 6)) * 3
            y = ng.softmax(Array(x), axis=1).data
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
            y_shift = ng.softmax(Array(x + 13.7), axis=1).data
            np.testing.assert_allclose(y, y_shift, atol=1e-12)

    def test_jacobian_vector_product(self):
        rng = np.random.default_rng(7)
        x = Array(rng.standard_normal((3, 5)), grad_tracked=True)
        w = Array(rng.standard_normal((3, 5)))
        check_grads(lambda: ng.reduce_sum(ng.mul(ng.softmax(x, axis=1), w)), [x], tol=1e-6)

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(8)
        x = Array(rng.standard_normal((3, 5)), grad_tracked=True)
        w = Array(rng.standard_normal((3, 5)))
        check_grads(lambda: ng.reduce_sum(ng.mul(ng.log_softmax(x, axis=1), w)), [x], tol=1e-6)


class TestPoolSpans:
    def test_constant_rows(self):
        x = Array(np.full((5, 3), 2.5))
        out = ng.pool_spans(x, [(0, 2), (2, 5)])
        np.testing.assert_array_equal(out.data, np.full((2, 3), 2.5))

    def test_arithmetic_mean(self):
        out = ng.pool_spans(Array([[0.0], [2.0], [4.0]]), [(0, 2), (2, 3)])
        np.testing.assert_array_equal(out.data, [[1.0], [4.0]])

    def test_gradient_distributes_by_span_length(self):
        rng = np.random.default_rng(9)
        x = Array(rng.standard_normal((6, 2)), grad_tracked=True)
        w = Array(rng.standard_normal((3, 2)))
        check_grads(
            lambda: ng.reduce_sum(ng.mul(ng.pool_spans(x, [(0, 3), (3, 4), (4, 6)]), w)),
            [x],
            tol=1e-6,
        )

    def test_rejects_bad_spans(self):
        x = Array(np.ones((4, 1)))
        with pytest.raises(ValueError):
            ng.pool_spans(x, [(0, 0)])
        with pytest.raises(ValueError):
            ng.pool_spans(x, [(2, 3), (0, 1)])
        with pytest.raises(ValueError):
            ng.pool_spans(x, [(0, 5)])


class TestShapeOps:
    def test_concat_and_gradient(self):
        rng = np.random.default_rng(10)
        a = Array(rng.standard_normal((3, 2)), grad_tracked=True)
        b = Array(rng.standard_normal((3, 4)), grad_tracked=True)
        w = Array(rng.standard_normal((3, 6)))
        check_grads(lambda: ng.reduce_sum(ng.mul(ng.concat([a, b], axis=1), w)), [a, b])

    def test_transpose(self):
        x = Array(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(ng.transpose(x).data, x.data.T)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Array(np.arange(6.0).reshape(2, 3), grad_tracked=True)
        ng.backward(ng.reduce_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_two_x(self):
        x = Array(np.array([1.0, -2.0, 3.0]), grad_tracked=True)
        ng.backward(ng.reduce_sum(ng.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_composite_mlp_full_jacobian(self):
        # 10-parameter net: 2x3 weight + 3 bias + mean
        rng = np.random.default_rng(13)
        w = Array(rng.standard_normal((2, 3)), grad_tracked=True)
        b = Array(rng.standard_normal(3), grad_tracked=True)
        x1 = Array(rng.standard_normal((4, 2)), grad_tracked=True)
        t = Array(rng.standard_normal((4, 3)))

        def forward():
            h = ng.gelu(ng.add(ng.matmul(x1, w), b))
            d = ng.add(h, ng.neg(t))
            return ng.mul(ng.reduce_sum(ng.mul(d, d)), 1.0 / 12)

        check_grads(forward, [w, b, x1], tol=1e-5)

    def test_non_scalar_loss_rejected(self):
        x = Array(np.ones(3), grad_tracked=True)
        with pytest.raises(ValueError):
            ng.backward(ng.mul(x, 2.0))

    def test_detached_loss_rejected(self):
        with pytest.raises(ValueError):
            ng.backward(Array(1.0))

    def test_repeated_backward_rejected(self):
        x = Array(np.ones(3), grad_tracked=True)
        loss = ng.reduce_sum(x)
        ng.backward(loss)
        with pytest.raises(RuntimeError):
            ng.backward(loss)

    def test_detach_stops_gradient(self):
        x = Array(np.array([2.0, 3.0]), grad_tracked=True)
        y = ng.mul(x, x)
        loss = ng.reduce_sum(ng.mul(Array(y.data), x))
        ng.backward(loss)
        np.testing.assert_allclose(x.grad, y.data)  # only the outer factor

    def test_backward_through_a_swept_node_raises(self):
        x = Array(np.ones(3), grad_tracked=True)
        y = ng.mul(x, x)
        ng.backward(ng.reduce_sum(y))
        with pytest.raises(RuntimeError, match="earlier backward freed"):
            ng.backward(ng.reduce_sum(ng.mul(y, 2.0)))

    def test_sweep_frees_saved_arrays(self):
        rng = np.random.default_rng(55)
        x = Array(rng.standard_normal((4, 3)), grad_tracked=True)
        w = Array(rng.standard_normal((3, 3)), grad_tracked=True)

        def build():
            hidden = ng.matmul(x, w)  # gelu's closure saves hidden.data
            return ng.reduce_sum(ng.gelu(hidden)), weakref.ref(hidden.data)

        loss, saved = build()
        assert saved() is not None  # only the graph holds it
        ng.backward(loss)
        assert saved() is None

    def test_grad_accumulates_across_losses(self):
        x = Array(np.ones(2), grad_tracked=True)
        ng.backward(ng.reduce_sum(x))
        ng.backward(ng.reduce_sum(ng.mul(x, 3.0)))
        np.testing.assert_array_equal(x.grad, [4.0, 4.0])

    def test_no_grad_blocks_tracing(self):
        x = Array(np.ones(2), grad_tracked=True)
        with ng.no_grad():
            loss = ng.reduce_sum(x)
        with pytest.raises(ValueError):
            ng.backward(loss)


class TestBlanketGradientInvariant:
    """Every primitive matches finite differences on 20 random seeds."""

    @pytest.mark.parametrize("seed", range(20))
    def test_primitives(self, seed):
        rng = np.random.default_rng(seed)
        x = Array(rng.standard_normal((5, 3)), grad_tracked=True)
        w = Array(rng.standard_normal((3, 3, 3)), grad_tracked=True)
        proj = Array(rng.standard_normal((5, 3)))
        up_proj = Array(rng.standard_normal((9, 3)))
        spans = [(0, 2), (2, 5)]
        span_w = Array(rng.standard_normal((2, 3)))

        cases = [
            lambda: ng.reduce_sum(ng.mul(ng.gelu(x), proj)),
            lambda: ng.reduce_sum(ng.mul(ng.add(ng.neg(x), ng.mul(x, x)), proj)),
            lambda: ng.reduce_sum(ng.mul(ng.softmax(x, axis=1), proj)),
            lambda: ng.reduce_sum(ng.mul(ng.log_softmax(x, axis=1), proj)),
            lambda: ng.reduce_sum(ng.mul(ng.temporal_conv(x, w), proj)),
            lambda: ng.reduce_sum(ng.mul(ng.pool_spans(x, spans), span_w)),
            lambda: ng.reduce_sum(ng.mul(ng.transposed_temporal_conv(x, w, 9, stride=2), up_proj)),
        ]
        for forward in cases:
            check_grads(forward, [x], tol=1e-5)
        check_grads(lambda: ng.reduce_sum(ng.mul(ng.temporal_conv(x, w), proj)), [w], tol=1e-5)


class TestDeterminism:
    def test_bit_identical_forward_and_gradients(self):
        def run():
            rng = np.random.default_rng(99)
            x = Array(rng.standard_normal((6, 4)), grad_tracked=True)
            w = Array(rng.standard_normal((4, 4)), grad_tracked=True)
            h = ng.gelu(ng.matmul(x, w))
            h = ng.softmax(h, axis=1)
            loss = ng.reduce_sum(ng.mul(h, h))
            ng.backward(loss)
            return loss.item(), x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()

    def test_array_invariants(self):
        a = Array(np.ones((2, 3), dtype=np.int64))
        assert a.data.shape == (2, 3)
        assert a.data.dtype == np.float64


class TestPublicNames:
    def test_all_resolves_and_star_import_works(self):
        assert len(set(ng.__all__)) == len(ng.__all__)
        for name in ng.__all__:
            assert hasattr(ng, name), name
        namespace = {}
        exec("from svtc.ndgrad import *", namespace)
        assert set(ng.__all__) <= set(namespace)
