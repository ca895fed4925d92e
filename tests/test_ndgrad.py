"""Engine tests: forward contracts, gradient oracles, tape semantics.

Gradient oracles are central finite differences (h=1e-5) computed inside
this module, independent of the analytic rules they check.
"""

import numpy as np
import pytest

from svtc import ndgrad as ng
from svtc.ndgrad import Array

H = 1e-5


def fd_grads(forward, leaves, h=H):
    """Central-difference gradients; perturbs leaf data in place."""
    grads = []
    for leaf in leaves:
        flat = leaf.data.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = forward().item()
            flat[i] = orig - h
            lo = forward().item()
            flat[i] = orig
            g[i] = (hi - lo) / (2 * h)
        grads.append(g.reshape(leaf.data.shape))
    return grads


def rel_err(analytic, numeric):
    scale = max(np.abs(numeric).max(), 1e-8)
    return np.abs(analytic - numeric).max() / scale


def check_grads(forward, leaves, tol=1e-5):
    for leaf in leaves:
        leaf.grad = None
    ng.backward(forward())
    numeric = fd_grads(forward, leaves)
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


class TestTransposedTemporalConv:
    def test_stride_one_delta_identity(self):
        x = Array([[1.0], [2.0], [3.0]])
        w = Array(np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1))
        np.testing.assert_array_equal(ng.transposed_temporal_conv(x, w, stride=1).data, x.data)

    def test_stride_two_doubles_length(self):
        out = ng.transposed_temporal_conv(Array(np.ones((3, 2))), Array(np.ones((3, 4, 2))), stride=2)
        assert out.data.shape == (6, 4)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(4)
        for stride in (1, 2, 3):
            for _ in range(5):
                T = int(rng.integers(2, 6))
                cin, cout = 3, 2
                x = rng.standard_normal((T, cout))
                y = rng.standard_normal((T * stride, cin))
                w = rng.standard_normal((3, cin, cout))
                lhs = float(
                    (ng.transposed_temporal_conv(Array(x), Array(w), stride=stride).data * y).sum()
                )
                rhs = float((x * ng.temporal_conv(Array(y), Array(w), stride=stride).data).sum())
                assert abs(lhs - rhs) <= 1e-10

    def test_gradient(self):
        rng = np.random.default_rng(5)
        x = Array(rng.standard_normal((3, 2)), grad_tracked=True)
        w = Array(rng.standard_normal((3, 3, 2)), grad_tracked=True)
        proj = Array(rng.standard_normal((6, 3)))
        check_grads(
            lambda: ng.reduce_sum(ng.mul(ng.transposed_temporal_conv(x, w, stride=2), proj)),
            [x, w],
        )


class TestElementwise:
    def test_relu_values(self):
        out = ng.relu(Array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

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

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ng.log(Array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ng.log(Array([-1.0]))

    def test_exp_rejects_overflow(self):
        with pytest.raises(FloatingPointError):
            ng.exp(Array([1000.0]))

    def test_broadcast_add_mul(self):
        a = Array(np.ones((3, 4)), grad_tracked=True)
        b = Array(np.arange(4.0), grad_tracked=True)
        check_grads(lambda: ng.reduce_sum(ng.mul(ng.add(a, b), b)), [a, b])

    def test_dispatcher(self):
        np.testing.assert_array_equal(
            ng.elementwise("add", Array([1.0]), Array([2.0])).data, [3.0]
        )
        with pytest.raises(ValueError):
            ng.elementwise("div", Array([1.0]), Array([2.0]))


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

    def test_take_columns_duplicates_accumulate(self):
        rng = np.random.default_rng(11)
        x = Array(rng.standard_normal((4, 5)), grad_tracked=True)
        w = Array(rng.standard_normal((4, 3)))
        check_grads(lambda: ng.reduce_sum(ng.mul(ng.take_columns(x, [2, 2, 4]), w)), [x])

    def test_slice_rows_gradient(self):
        rng = np.random.default_rng(12)
        x = Array(rng.standard_normal((6, 3)), grad_tracked=True)
        w = Array(rng.standard_normal((3, 3)))
        check_grads(lambda: ng.reduce_sum(ng.mul(ng.slice_rows(x, 1, 4), w)), [x])

    def test_transpose(self):
        x = Array(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(ng.transpose(x).data, x.data.T)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Array(np.arange(6.0).reshape(2, 3), grad_tracked=True)
        ng.backward(x.sum())
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
            d = ng.sub(h, t)
            return ng.reduce_mean(ng.mul(d, d))

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
        loss = x.sum()
        ng.backward(loss)
        with pytest.raises(RuntimeError):
            ng.backward(loss)

    def test_detach_stops_gradient(self):
        x = Array(np.array([2.0, 3.0]), grad_tracked=True)
        y = ng.mul(x, x)
        loss = ng.reduce_sum(ng.mul(y.detach(), x))
        ng.backward(loss)
        np.testing.assert_allclose(x.grad, y.data)  # only the outer factor

    def test_grad_accumulates_across_losses(self):
        x = Array(np.ones(2), grad_tracked=True)
        ng.backward(x.sum())
        ng.backward(ng.reduce_sum(ng.mul(x, 3.0)))
        np.testing.assert_array_equal(x.grad, [4.0, 4.0])

    def test_no_grad_blocks_tracing(self):
        x = Array(np.ones(2), grad_tracked=True)
        with ng.no_grad():
            loss = x.sum()
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
        spans = [(0, 2), (2, 5)]
        span_w = Array(rng.standard_normal((2, 3)))

        cases = [
            lambda: ng.reduce_sum(ng.mul(ng.gelu(x), proj)),
            lambda: ng.reduce_sum(ng.mul(ng.relu(x), proj)),
            lambda: ng.reduce_sum(ng.mul(ng.exp(ng.mul(x, 0.3)), proj)),
            lambda: ng.reduce_sum(ng.mul(ng.log(ng.exp(x)), proj)),
            lambda: ng.reduce_sum(ng.mul(ng.softmax(x, axis=1), proj)),
            lambda: ng.reduce_sum(ng.mul(ng.log_softmax(x, axis=1), proj)),
            lambda: ng.reduce_sum(ng.mul(ng.temporal_conv(x, w), proj)),
            lambda: ng.reduce_sum(ng.mul(ng.pool_spans(x, spans), span_w)),
            lambda: ng.reduce_mean(ng.mul(x, x)),
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
        a = Array(np.ones((2, 3)))
        assert a.size == 6 and a.shape == (2, 3)
        assert a.data.dtype == np.float64
