"""DTW alignment and pooling against path-enumeration oracles."""

import numpy as np
import pytest

from svtc import align
from svtc import ndgrad as ng
from svtc.align import AlignmentPath, dtw_align, path_to_spans
from svtc.gradcheck import finite_difference_grads
from svtc.ndgrad import Array


def enumerate_paths(T, N):
    """All monotonic unit-step paths from (0, 0) to (T-1, N-1)."""

    def rec(t, n, acc):
        if t == T:
            if n == N - 1:
                yield tuple(acc)
            return
        for step in (0, 1):
            nn = n + step
            if nn < N:
                acc.append(nn)
                yield from rec(t + 1, nn, acc)
                acc.pop()

    if T >= 1:
        yield from rec(1, 0, [0])


def path_log_score(M, assignment):
    lm = np.log(np.maximum(M, align.PROB_FLOOR))
    score = 0.0
    for t, n in enumerate(assignment):
        score += lm[t, n]
    return score


class TestExtractColumns:
    def test_full_vocab_order_drops_blank(self):
        rng = np.random.default_rng(0)
        P = rng.dirichlet(np.ones(4), size=5)
        got = align.extract_columns(P, [1, 2, 3])
        np.testing.assert_array_equal(got, P[:, 1:])

    def test_repeated_label_duplicates_column(self):
        P = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        got = align.extract_columns(P, [1, 1])
        np.testing.assert_array_equal(got[:, 0], got[:, 1])

    def test_random_case_against_index_oracle(self):
        rng = np.random.default_rng(1)
        P = rng.dirichlet(np.ones(6), size=7)
        labels = [3, 1, 5, 1]
        got = align.extract_columns(P, labels)
        for j, c in enumerate(labels):
            for t in range(7):
                assert got[t, j] == P[t, c]

    def test_rejects_blank_and_out_of_range(self):
        P = np.full((3, 3), 1 / 3)
        with pytest.raises(ValueError):
            align.extract_columns(P, [0])
        with pytest.raises(ValueError):
            align.extract_columns(P, [3])


class TestDtwAlign:
    def test_single_gloss_forced_path(self):
        for T in (1, 3, 6):
            p = dtw_align(np.full((T, 1), 0.4))
            assert p.assignment == [0] * T

    def test_worked_example(self):
        M = np.array([[0.9, 0.1], [0.6, 0.4], [0.2, 0.8]])
        p = dtw_align(M)
        assert p.assignment == [0, 0, 1]
        assert np.exp(p.log_score) == pytest.approx(0.432, abs=1e-12)

    def test_enumeration_oracle_200_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            T = int(rng.integers(1, 10))
            N = int(rng.integers(1, min(T, 4) + 1))
            M = rng.uniform(1e-6, 1.0, size=(T, N))
            got = dtw_align(M)
            a = got.assignment
            assert a[0] == 0 and all(y - x in (0, 1) for x, y in zip(a, a[1:]))
            best = max(
                path_log_score(M, path) for path in enumerate_paths(T, N)
            )
            assert abs(got.log_score - best) <= 1e-12
            assert got.log_score == pytest.approx(
                path_log_score(M, got.assignment), abs=0.0
            )

    def test_row_rescaling_leaves_path_unchanged(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            T = int(rng.integers(2, 9))
            N = int(rng.integers(1, min(T, 4) + 1))
            M = rng.uniform(0.05, 1.0, size=(T, N))
            scales = rng.uniform(0.5, 2.0, size=(T, 1))
            base = dtw_align(M).assignment
            scaled = dtw_align(M * scales).assignment
            assert base == scaled

    def test_tie_break_advances_earliest(self):
        assert dtw_align(np.full((3, 2), 0.5)).assignment == [0, 1, 1]
        assert dtw_align(np.full((4, 2), 0.5)).assignment == [0, 1, 1, 1]
        assert dtw_align(np.full((4, 3), 0.5)).assignment == [0, 1, 2, 2]

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            dtw_align(np.full((2, 3), 0.5))

    def test_zero_probabilities_floored(self):
        M = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = dtw_align(M)
        assert p.assignment == [0, 1]


class TestPathToSpans:
    def test_basic(self):
        assert path_to_spans(AlignmentPath([0, 0, 1], 0.0)) == [(0, 2), (2, 3)]

    def test_unit_spans(self):
        assert path_to_spans(AlignmentPath([0, 1, 2], 0.0)) == [(0, 1), (1, 2), (2, 3)]

    def test_partition_property_on_random_paths(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            T = int(rng.integers(2, 12))
            N = int(rng.integers(1, min(T, 5) + 1))
            M = rng.uniform(0.01, 1.0, size=(T, N))
            path = dtw_align(M)
            spans = path_to_spans(path)
            assert spans[0][0] == 0 and spans[-1][1] == T
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            assert len(spans) == N  # every gloss owns a nonempty segment

    def test_dtw_then_spans_always_n_nonempty(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            T = int(rng.integers(4, 10))
            N = int(rng.integers(1, 5))
            if N > T:
                continue
            spans = path_to_spans(dtw_align(rng.uniform(0.01, 1, (T, N))))
            assert len(spans) == N
            assert all(e > s for s, e in spans)


class TestPoolVisual:
    def test_constant_features(self):
        f = Array(np.full((5, 3), 1.5))
        out = align.pool_visual(f, [(0, 2), (2, 5)], (0, 5))
        np.testing.assert_array_equal(out.data, np.full((2, 3), 1.5))

    def test_two_span_mean(self):
        f = Array(np.array([[0.0], [2.0], [4.0]]))
        out = align.pool_visual(f, [(0, 2), (2, 3)], (0, 3))
        np.testing.assert_array_equal(out.data, [[1.0], [4.0]])

    def test_rows_select_the_sample_in_a_pack(self):
        f = Array(np.arange(8.0).reshape(8, 1))
        out = align.pool_visual(f, [(0, 2), (2, 5)], (3, 8))
        np.testing.assert_array_equal(out.data, [[3.5], [6.0]])

    def test_gradient(self):
        rng = np.random.default_rng(9)
        f = Array(rng.standard_normal((6, 2)), grad_tracked=True)
        spans = [(0, 1), (1, 4), (4, 6)]
        w = Array(rng.standard_normal((3, 2)))

        def forward():
            return ng.reduce_sum(ng.mul(align.pool_visual(f, spans, (0, 6)), w))

        ng.backward(forward())
        (num,) = finite_difference_grads(forward, [f])
        assert np.abs(f.grad - num).max() / np.abs(num).max() <= 1e-6

    def test_linearity_reconstruction(self):
        # span lengths times pooled rows reconstruct the column sums
        rng = np.random.default_rng(10)
        for _ in range(20):
            T = int(rng.integers(3, 10))
            N = int(rng.integers(1, min(T, 4) + 1))
            path = dtw_align(rng.uniform(0.01, 1, (T, N)))
            spans = path_to_spans(path)
            f = rng.standard_normal((T, 5))
            pooled = align.pool_visual(Array(f), spans, (0, T)).data
            recon = np.zeros(5)
            for i, (s, e) in enumerate(spans):
                recon += (e - s) * pooled[i]
            np.testing.assert_allclose(recon, f.sum(axis=0), atol=1e-10)

    def test_partition_enforced(self):
        f = Array(np.ones((5, 2)))
        with pytest.raises(ValueError, match="do not partition"):
            align.pool_visual(f, [(0, 2), (3, 5)], (0, 5))  # gap
        with pytest.raises(ValueError, match="do not partition"):
            align.pool_visual(f, [(0, 2), (2, 4)], (0, 5))  # short
        with pytest.raises(ValueError, match="do not partition"):
            align.pool_visual(f, [(1, 5)], (0, 5))  # late start


class TestPoolTokens:
    def test_one_token_per_gloss_identity(self):
        rng = np.random.default_rng(11)
        f = Array(rng.standard_normal((4, 3)))
        out = align.pool_tokens(f, [0, 1, 2, 3], (0, 4))
        np.testing.assert_array_equal(out.data, f.data)

    def test_split_gloss_mean(self):
        f = Array(np.array([[2.0], [4.0], [9.0]]))
        out = align.pool_tokens(f, [0, 0, 1], (0, 3))
        np.testing.assert_array_equal(out.data, [[3.0], [9.0]])

    def test_random_maps_against_group_by_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n_gloss = int(rng.integers(1, 6))
            counts = rng.integers(1, 3, size=n_gloss)
            mapping = [g for g, c in enumerate(counts) for _ in range(int(c))]
            f = rng.standard_normal((len(mapping), 4))
            got = align.pool_tokens(Array(f), mapping, (0, len(mapping))).data
            for g in range(n_gloss):
                rows = [i for i, m in enumerate(mapping) if m == g]
                np.testing.assert_allclose(got[g], f[rows].mean(axis=0), atol=1e-12)

    def test_non_monotonic_or_gappy_map_rejected(self):
        f = Array(np.ones((3, 2)))
        with pytest.raises(ValueError):
            align.pool_tokens(f, [0, 2, 2], (0, 3))  # skips gloss 1
        with pytest.raises(ValueError):
            align.pool_tokens(f, [1, 0, 1], (0, 3))
        with pytest.raises(ValueError):
            align.pool_tokens(f, [0, 1], (0, 3))  # wrong length
