"""Pair matrices and alignment losses: closed forms, oracles, gradients."""

import math

import numpy as np
import pytest

from svtc import contrast
from svtc import ndgrad as ng
from svtc.contrast import (
    PairMatrices,
    alignment_targets,
    gloss_align_loss,
    pair_matrices,
    sentence_align_loss,
)
from svtc.gradcheck import finite_difference_grads
from svtc.ndgrad import Array


def oracle_ce_rows(logits, target_rows):
    """Direct per-row softmax cross-entropy summation."""
    total = 0.0
    for row, tgt in zip(logits, target_rows):
        m = row.max()
        logz = m + math.log(np.exp(row - m).sum())
        total += -sum(t * (x - logz) for t, x in zip(tgt, row))
    return total / len(logits)


def oracle_gloss_loss(v2t, positives, counts):
    target = positives / counts
    return 0.5 * (oracle_ce_rows(v2t, target) + oracle_ce_rows(v2t.T, target))


class TestPairMatrices:
    def test_orthonormal_matching_rows_identity(self):
        f = np.eye(3)
        pairs = pair_matrices(Array(f), Array(f.copy()))
        np.testing.assert_array_equal(pairs.v2t.data, np.eye(3))

    def test_equal_factors_symmetric(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((4, 6))
        pairs = pair_matrices(Array(f), Array(f.copy()))
        np.testing.assert_allclose(pairs.v2t.data, pairs.v2t.data.T, atol=1e-12)

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((3, 5))
        pairs = pair_matrices(Array(a), Array(b))
        want = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                for k in range(5):
                    want[i, j] += a[i, k] * b[j, k]
        np.testing.assert_allclose(pairs.v2t.data, want, atol=1e-12)

    def test_t2v_is_exact_transpose(self):
        rng = np.random.default_rng(2)
        pairs = pair_matrices(
            Array(rng.standard_normal((4, 3))), Array(rng.standard_normal((4, 3)))
        )
        assert pairs.t2v.data.tobytes() == np.ascontiguousarray(pairs.v2t.data.T).tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pair_matrices(Array(np.ones((3, 4))), Array(np.ones((3, 5))))


class TestAlignmentTargets:
    def test_distinct_glosses_identity(self):
        tgt = alignment_targets([1, 2, 3])
        np.testing.assert_array_equal(tgt.positives, np.eye(3))
        np.testing.assert_array_equal(tgt.counts.ravel(), [1, 1, 1])

    def test_duplicate_glosses(self):
        tgt = alignment_targets([5, 7, 5])
        assert tgt.positives[0, 2] == 1 and tgt.positives[2, 0] == 1
        assert tgt.positives[0, 1] == 0
        np.testing.assert_array_equal(tgt.counts.ravel(), [2, 1, 2])

    def test_random_against_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            labels = [int(c) for c in rng.integers(1, 5, size=rng.integers(1, 7))]
            tgt = alignment_targets(labels)
            n = len(labels)
            for i in range(n):
                for j in range(n):
                    assert tgt.positives[i, j] == float(labels[i] == labels[j])
                assert tgt.counts[i, 0] == sum(tgt.positives[i])
            assert np.all(np.diag(tgt.positives) == 1.0)


class TestGlossAlignLoss:
    def test_zero_matrix_distinct_glosses_ln3(self):
        fv = Array(np.zeros((3, 4)))
        ft = Array(np.zeros((3, 4)))
        loss = gloss_align_loss(pair_matrices(fv, ft), alignment_targets([1, 2, 3]))
        assert loss.item() == pytest.approx(math.log(3), abs=1e-12)

    def test_diagonal_logits_strictly_decreasing(self):
        tgt = alignment_targets([1, 2, 3])
        vals = []
        for s in (0.0, 5.0, 20.0):
            pm = PairMatrices(Array(s * np.eye(3)), Array(s * np.eye(3)))
            vals.append(gloss_align_loss(pm, tgt).item())
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-6

    def test_duplicated_gloss_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        tgt = alignment_targets([9, 9])
        for _ in range(20):
            v2t = rng.standard_normal((2, 2)) * 3
            pm = PairMatrices(Array(v2t), Array(v2t.T.copy()))
            got = gloss_align_loss(pm, tgt).item()
            want = oracle_gloss_loss(v2t, tgt.positives, tgt.counts)
            assert got == pytest.approx(want, abs=1e-10)

    def test_random_cases_match_direct_summation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            labels = [int(c) for c in rng.integers(1, 4, size=n)]
            tgt = alignment_targets(labels)
            fv = rng.standard_normal((n, 5))
            ft = rng.standard_normal((n, 5))
            pm = pair_matrices(Array(fv), Array(ft))
            got = gloss_align_loss(pm, tgt).item()
            want = oracle_gloss_loss(fv @ ft.T, tgt.positives, tgt.counts)
            assert got == pytest.approx(want, abs=1e-10)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(6)
        labels = [1, 2, 2, 3]
        tgt = alignment_targets(labels)
        fv = rng.standard_normal((4, 6))
        ft = rng.standard_normal((4, 6))
        a = gloss_align_loss(pair_matrices(Array(fv), Array(ft)), tgt).item()
        b = gloss_align_loss(pair_matrices(Array(ft), Array(fv)), tgt).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_per_row_constant_shift_invariance(self):
        rng = np.random.default_rng(7)
        tgt = alignment_targets([1, 2, 3])
        v2t = rng.standard_normal((3, 3))
        shift = rng.standard_normal((3, 1))
        # shifting v2t rows means shifting t2v columns: build both explicitly
        a = gloss_align_loss(PairMatrices(Array(v2t), Array(v2t.T.copy())), tgt).item()
        # only the v2t half is row-shift invariant; compare that term alone
        row_a = oracle_ce_rows(v2t, tgt.positives / tgt.counts)
        row_b = oracle_ce_rows(v2t + shift, tgt.positives / tgt.counts)
        assert row_a == pytest.approx(row_b, abs=1e-10)
        assert a >= 0.0

    def test_ce_at_least_target_entropy(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            labels = [int(c) for c in rng.integers(1, 4, size=n)]
            tgt = alignment_targets(labels)
            fv = rng.standard_normal((n, 4))
            ft = rng.standard_normal((n, 4))
            loss = gloss_align_loss(pair_matrices(Array(fv), Array(ft)), tgt).item()
            target = tgt.positives / tgt.counts
            entropy = float(
                -(target * np.log(np.where(target > 0, target, 1.0))).sum(axis=1).mean()
            )
            assert loss >= entropy - 1e-10
            assert loss >= 0.0

    def test_gradient_both_sides(self):
        rng = np.random.default_rng(9)
        fv = Array(rng.standard_normal((3, 4)), grad_tracked=True)
        ft = Array(rng.standard_normal((3, 4)), grad_tracked=True)
        tgt = alignment_targets([1, 2, 1])

        def forward():
            return gloss_align_loss(pair_matrices(fv, ft), tgt)

        ng.backward(forward())
        for leaf, num in zip((fv, ft), finite_difference_grads(forward, [fv, ft])):
            assert np.abs(leaf.grad - num).max() / np.abs(num).max() <= 1e-6


class TestSentenceAlignLoss:
    def test_identical_vectors_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            v = rng.standard_normal((1, 8))
            assert sentence_align_loss(Array(v), Array(v.copy())).item() == 0.0

    def test_nonnegative_on_100_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = Array(rng.standard_normal((1, 6)) * 2)
            b = Array(rng.standard_normal((1, 6)) * 2)
            assert sentence_align_loss(a, b).item() >= 0.0

    def test_zero_iff_distributions_equal(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal((1, 5))
        assert sentence_align_loss(Array(v + 3.0), Array(v)).item() <= 1e-12  # same softmax
        w = v.copy()
        w[0, 0] += 0.5
        assert sentence_align_loss(Array(w), Array(v)).item() > 1e-6

    def test_gradient_visual_side_only(self):
        rng = np.random.default_rng(13)
        fc = Array(rng.standard_normal((1, 6)), grad_tracked=True)
        ft = Array(rng.standard_normal((1, 6)), grad_tracked=True)

        def forward():
            return sentence_align_loss(fc, ft)

        ng.backward(forward())
        assert ft.grad is None or not np.any(ft.grad)  # text side detached
        (num,) = finite_difference_grads(forward, [fc])
        assert np.abs(fc.grad - num).max() / np.abs(num).max() <= 1e-6

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_pack_of_rows_equals_sum_of_one_row_calls(self, n):
        # training scores a pack's n sentences in one call: the KL is
        # row-wise, so the loss is the sum of the one-row losses and each
        # visual row gets the bytes of its own one-row gradient
        rng = np.random.default_rng(14 + n)
        visual = Array(rng.standard_normal((n, 6)), grad_tracked=True)
        text = Array(rng.standard_normal((n, 6)))
        packed = sentence_align_loss(visual, text)
        ng.backward(packed)
        total = 0.0
        for i in range(n):
            row = Array(visual.data[i : i + 1].copy(), grad_tracked=True)
            loss = sentence_align_loss(row, Array(text.data[i : i + 1]))
            ng.backward(loss)
            total += loss.item()
            assert visual.grad[i].tobytes() == row.grad[0].tobytes()
        assert packed.item() == pytest.approx(total, rel=1e-12, abs=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sentence_align_loss(Array(np.ones((1, 3))), Array(np.ones((1, 4))))
