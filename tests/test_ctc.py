"""CTC loss, decoding and WER against brute-force oracles."""

import itertools
import math

import numpy as np
import pytest

from svtc import ctc
from svtc import ndgrad as ng
from svtc.ctc import (
    BLANK,
    CtcInfeasibleError,
    GlossVocab,
    ProbStream,
    WerReport,
    average_streams,
    beam_decode,
    collapse,
    ctc_loss,
    ctc_loss_group,
    wer,
)
from svtc.gradcheck import finite_difference_grads
from svtc.ndgrad import Array

from beam_oracle import greedy_decode, reference_beam_decode


# ---------------------------------------------------------------------------
# oracles


def enumerate_alignment_marginal(P, labels):
    """Sum of path products over every frame path collapsing to ``labels``."""
    T, C = P.shape
    labels = list(labels)
    total = 0.0
    for path in itertools.product(range(C), repeat=T):
        if collapse(path) == labels:
            prod = 1.0
            for t, c in enumerate(path):
                prod *= P[t, c]
            total += prod
    return total


def oracle_ctc_loss(P, labels):
    return -math.log(enumerate_alignment_marginal(P, labels))


def oracle_levenshtein(a, b):
    """Plain DP edit distance, no backtrace."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def two_pass_ctc(logp, labels):
    """(loss, gradient) of one [T, C] stream: an alpha pass, then a beta pass."""
    ext = ctc.expand_with_blanks(labels)
    S, (T, C) = ext.size, logp.shape
    skip = np.zeros(S, dtype=bool)
    skip[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    U = logp[:, ext]
    alpha = np.full((T, S), -np.inf)
    alpha[0, :2] = U[0, :2]
    for t in range(1, T):
        alpha[t, 0] = alpha[t - 1, 0]
        np.logaddexp(alpha[t - 1, 1:], alpha[t - 1, :-1], out=alpha[t, 1:])
        np.logaddexp(alpha[t, 2:], alpha[t - 1, :-2], out=alpha[t, 2:], where=skip[2:])
        alpha[t] += U[t]
    beta = np.full((T, S), -np.inf)
    beta[T - 1, S - 2 :] = U[T - 1, S - 2 :]
    for t in range(T - 2, -1, -1):
        beta[t, S - 1] = beta[t + 1, S - 1]
        np.logaddexp(beta[t + 1, :-1], beta[t + 1, 1:], out=beta[t, :-1])
        np.logaddexp(beta[t, :-2], beta[t + 1, 2:], out=beta[t, :-2], where=skip[2:])
        beta[t] += U[t]
    log_p = np.logaddexp(alpha[T - 1, S - 1], alpha[T - 1, S - 2])
    gamma = alpha + beta
    acc = np.full((1, T, C), -np.inf)
    for s in range(S):
        np.logaddexp(acc[:, :, ext[s]], gamma[None, :, s], out=acc[:, :, ext[s]])
    with np.errstate(under="ignore"):
        grad = -np.exp(acc - log_p - logp[None])
    return -log_p, grad[0]


def random_stream(rng, T, C, sharp=1.0):
    logits = sharp * rng.standard_normal((T, C))
    P = np.exp(logits)
    return P / P.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# vocabulary and stream types


class TestGlossVocab:
    def test_ids_and_lookup_roundtrip(self):
        v = GlossVocab(("HELLO", "WORLD", "AGAIN"))
        assert v.size == 4
        for g in v.glosses:
            assert v.lookup(v.id(g)) == g
        assert v.ids(["WORLD", "HELLO"]) == [2, 1]

    def test_rejects_duplicates_and_unknown(self):
        with pytest.raises(ValueError):
            GlossVocab(("A", "A"))
        v = GlossVocab(("A",))
        with pytest.raises(KeyError):
            v.id("B")
        with pytest.raises(KeyError):
            v.lookup(0)


class TestProbStream:
    def test_row_sum_enforced(self):
        with pytest.raises(ValueError):
            ProbStream(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_log_space_roundtrip(self):
        P = np.array([[0.25, 0.75], [0.6, 0.4]])
        s = ProbStream(np.log(P), log_space=True)
        np.testing.assert_allclose(s.prob_matrix(), P, atol=1e-12)
        np.testing.assert_allclose(np.exp(s.log_matrix()), P, atol=1e-12)


# ---------------------------------------------------------------------------
# loss


class TestCtcLoss:
    def test_uniform_two_frame_example(self):
        # alignments {(a,a), (a,-), (-,a)} at 0.25 each: P = 0.75
        P = np.full((2, 2), 0.5)
        assert enumerate_alignment_marginal(P, [1]) == pytest.approx(0.75)
        loss = ctc_loss(Array(np.log(P)), [1])
        assert loss.item() == pytest.approx(-math.log(0.75), abs=1e-12)
        assert loss.item() == pytest.approx(0.287682, abs=1e-6)

    def test_forced_alignment_zero_loss(self):
        lp = np.log(np.array([[1e-30, 1.0]]))
        assert ctc_loss(Array(lp), [1]).item() == pytest.approx(0.0, abs=1e-12)

    def test_exhaustive_alignment_oracle_100_cases(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            T = int(rng.integers(1, 7))
            C = int(rng.integers(2, 5))
            N = int(rng.integers(1, 4))
            labels = [int(c) for c in rng.integers(1, C, size=N)]
            if T < ctc.min_frames(labels):
                continue
            P = random_stream(rng, T, C)
            got = ctc_loss(Array(np.log(P)), labels).item()
            assert got == pytest.approx(oracle_ctc_loss(P, labels), abs=1e-9)
            checked += 1

    def test_gradient_20_cases(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            T = int(rng.integers(3, 7))
            C = int(rng.integers(3, 5))
            labels = [int(c) for c in rng.integers(1, C, size=rng.integers(1, 3))]
            x = Array(rng.standard_normal((T, C)), grad_tracked=True)

            def forward():
                return ctc_loss(ng.log_softmax(x, axis=1), labels)

            ng.backward(forward())
            (num,) = finite_difference_grads(forward, [x])
            rel = np.abs(x.grad - num).max() / max(np.abs(num).max(), 1e-8)
            assert rel <= 1e-5

    def test_infeasible_is_hard_error(self):
        P = np.full((2, 3), 1 / 3)
        with pytest.raises(CtcInfeasibleError):
            ctc_loss(Array(np.log(P)), [1, 2, 1])
        with pytest.raises(CtcInfeasibleError):
            ctc_loss(Array(np.log(P)), [1, 1])  # repeat needs 3 frames

    def test_blank_in_labels_rejected(self):
        P = np.full((3, 3), 1 / 3)
        with pytest.raises(ValueError):
            ctc_loss(Array(np.log(P)), [0, 1])

    def test_permutation_sensitive(self):
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(50):
            P = random_stream(rng, 6, 4)
            labels = [1, 2, 3]
            fwd = oracle_ctc_loss(P, labels)
            rev = oracle_ctc_loss(P, labels[::-1])
            if abs(fwd - rev) < 1e-12:
                continue  # oracle says tie; skip
            got_fwd = ctc_loss(Array(np.log(P)), labels).item()
            got_rev = ctc_loss(Array(np.log(P)), labels[::-1]).item()
            assert got_fwd != got_rev
            assert got_fwd == pytest.approx(fwd, abs=1e-9)
            assert got_rev == pytest.approx(rev, abs=1e-9)
            found += 1
        assert found >= 10

    @pytest.mark.parametrize("labels", [[2], [2, 1, 1], [1, 3, 2, 3], [3, 3, 3]])
    def test_mixed_length_group_bitwise_equals_two_pass_recursion(self, labels):
        # the joint alpha/reversed-beta recursion over streams of different
        # lengths must give the bytes of separate alpha and beta passes
        rng = np.random.default_rng(41)
        lengths = [7, 12, 7, 9, 12]
        arrays = [Array(np.log(random_stream(rng, T, 4)), grad_tracked=True) for T in lengths]
        terms = ctc_loss_group(arrays, [labels])
        total = ng.add(ng.add(ng.add(ng.add(terms[0], terms[1]), terms[2]), terms[3]), terms[4])
        ng.backward(ng.reduce_sum(total))
        for a, term in zip(arrays, terms):
            want_loss, want_grad = two_pass_ctc(a.data, labels)
            assert term.data.tobytes() == np.float64(want_loss).tobytes()
            assert a.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("labels", [[2], [1, 3, 3], [3, 1, 2, 1]])
    def test_heads_plus_pyramid_group_bitwise_equals_one_stream_calls(self, labels):
        # compute_losses' one call: 4 head streams at T/4, then the 6 pyramid
        # streams level-major (3 at T/4, 3 at T/2) for an odd T of 29
        rng = np.random.default_rng(43)
        lengths = [8] * 4 + [8, 8, 8, 15, 15, 15]
        grouped = [Array(np.log(random_stream(rng, T, 5)), grad_tracked=True) for T in lengths]
        alone = [Array(a.data.copy(), grad_tracked=True) for a in grouped]
        terms = ctc_loss_group(grouped, [labels])
        for term in terms:
            ng.backward(ng.reduce_sum(term))
        for a, b, term in zip(grouped, alone, terms):
            want = ctc_loss(b, labels)
            ng.backward(want)
            assert term.data.tobytes() == want.data.tobytes()
            assert a.grad.tobytes() == b.grad.tobytes()

    def test_packed_mixed_label_group_bitwise_equals_lone_losses(self):
        # two arrays, each packing three samples with their own labels: every
        # (array, sample) stream must give the bytes of a lone ctc_loss
        rng = np.random.default_rng(44)
        labels = [[2], [1, 3, 3], [3, 1, 2, 1]]
        lengths = [(3, 7, 9), (6, 13, 17)]
        arrays = [
            Array(np.log(random_stream(rng, sum(lens), 5)), grad_tracked=True)
            for lens in lengths
        ]
        losses = ctc_loss_group(arrays, labels, lengths)
        ng.backward(ng.reduce_sum(ng.add(losses[0], losses[1])))
        for a, lens, loss in zip(arrays, lengths, losses):
            start = 0
            for i, n in enumerate(lens):
                alone = Array(a.data[start : start + n], grad_tracked=True)
                want = ctc_loss(alone, labels[i])
                ng.backward(want)
                assert loss.data[i].tobytes() == want.data.tobytes()
                assert a.grad[start : start + n].tobytes() == alone.grad.tobytes()
                start += n

    def test_packed_group_rejects_bad_lengths_and_names_infeasible(self):
        a = Array(np.log(random_stream(np.random.default_rng(45), 9, 4)))
        with pytest.raises(ValueError, match="do not fit"):
            ctc_loss_group([a], [[1], [2]], [(4, 4)])
        with pytest.raises(CtcInfeasibleError, match="needs at least 3 frames, stream has 2"):
            ctc_loss_group([a], [[1], [2, 3, 1]], [(7, 2)])

    def test_group_matches_individual(self):
        rng = np.random.default_rng(13)
        labels = [2, 1, 1]
        arrays = [Array(np.log(random_stream(rng, 7, 4))) for _ in range(5)]
        grouped = ctc_loss_group(arrays, [labels])
        for a, g in zip(arrays, grouped):
            assert g.item() == pytest.approx(ctc_loss(a, labels).item(), abs=1e-12)


# ---------------------------------------------------------------------------
# decoding


class TestGreedyDecode:
    def test_collapse_rule(self):
        # argmax path [-, a, a, -, b] -> "a b"
        P = np.array(
            [
                [0.8, 0.1, 0.1],
                [0.1, 0.8, 0.1],
                [0.1, 0.8, 0.1],
                [0.8, 0.1, 0.1],
                [0.1, 0.1, 0.8],
            ]
        )
        assert greedy_decode(ProbStream(P)) == [1, 2]

    def test_all_blank_empty(self):
        P = np.array([[0.9, 0.05, 0.05]] * 4)
        assert greedy_decode(ProbStream(P)) == []

    def test_ties_break_to_lower_index(self):
        P = np.array([[0.25, 0.25, 0.25, 0.25]])
        assert greedy_decode(ProbStream(P)) == []  # blank (index 0) wins the tie
        P2 = np.array([[0.2, 0.4, 0.4]])
        assert greedy_decode(ProbStream(P2)) == [1]

    def test_round_trip_one_hot_expansion(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            C = int(rng.integers(3, 6))
            y = [int(c) for c in rng.integers(1, C, size=rng.integers(1, 5))]
            # valid expansion: blanks between every symbol, repeats separated
            path = [BLANK]
            for c in y:
                path.extend([c, BLANK])
            eps = 0.01
            P = np.full((len(path), C), eps / (C - 1))
            for t, c in enumerate(path):
                P[t, c] = 1.0 - eps
            assert greedy_decode(ProbStream(P)) == y

    def test_matches_width_one_beam_on_peaked_streams(self):
        # generic-case self-consistency: holds on peaked rows (frozen seed);
        # diffuse rows can legitimately differ (prefix merging vs best path)
        rng = np.random.default_rng(1)
        for _ in range(50):
            T = int(rng.integers(2, 9))
            C = int(rng.integers(2, 5))
            s = ProbStream(random_stream(rng, T, C, sharp=3.0))
            assert greedy_decode(s) == beam_decode(s, width=1)


class TestBeamDecode:
    def test_dominant_alignment_matches_greedy(self):
        P = np.array([[0.05, 0.9, 0.05], [0.9, 0.05, 0.05], [0.05, 0.05, 0.9]])
        s = ProbStream(P)
        assert beam_decode(s, width=5) == greedy_decode(s)

    def test_full_width_equals_exhaustive_argmax_50_cases(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            T = int(rng.integers(1, 6))
            C = int(rng.integers(2, 4))
            P = random_stream(rng, T, C)
            got = tuple(beam_decode(ProbStream(P), width=10**6))
            best, best_p = None, -1.0
            candidates = []
            for n in range(T + 1):
                candidates.extend(itertools.product(range(1, C), repeat=n))
            for seq in sorted(candidates):  # lexicographic tie-break
                p = enumerate_alignment_marginal(P, list(seq))
                if p > best_p + 1e-13:
                    best, best_p = seq, p
            assert got == best

    def test_width5_never_scores_below_width1_100_cases(self):
        # peaked rows (the regime of a trained classifier): on diffuse rows
        # prefix merging plus pruning can legitimately favor a shorter
        # prefix, so the width ordering is a generic-case property
        rng = np.random.default_rng(29)
        for _ in range(100):
            T = int(rng.integers(2, 6))
            C = int(rng.integers(2, 4))
            P = random_stream(rng, T, C, sharp=2.5)
            s = ProbStream(P)
            seq5 = beam_decode(s, width=5)
            seq1 = beam_decode(s, width=1)
            p5 = enumerate_alignment_marginal(P, seq5)
            p1 = enumerate_alignment_marginal(P, seq1)
            assert p5 >= p1 - 1e-12

    def test_width_validation(self):
        with pytest.raises(ValueError):
            beam_decode(ProbStream(np.array([[0.5, 0.5]])), width=0)

    def test_matches_scalar_oracle_2000_streams(self):
        # exact list equality: the vectorized search merges the same terms
        # in an order _lae cannot tell apart, so no tolerance applies
        rng = np.random.default_rng(31)
        for case in range(2000):
            kind = case % 4
            width = (1, 2, 5, 40, 10**6)[case // 4 % 5]
            if width == 10**6:  # no pruning: every prefix survives
                T, C = int(rng.integers(1, 8)), int(rng.integers(2, 5))
            elif width == 40:
                T, C = int(rng.integers(1, 21)), int(rng.integers(2, 12))
            else:
                T, C = int(rng.integers(1, 61)), int(rng.integers(2, 42))
            logits = 2.0 * rng.standard_normal((T, C))
            if kind == 1:
                logits = np.round(logits)  # equal cells force score ties
            elif kind == 2:
                logits = np.zeros((T, C))  # uniform rows: ties everywhere
            P = np.exp(logits)
            if kind == 3:
                P[rng.random((T, C)) < 0.3] = 0.0  # -inf cells in log space
                P[:, BLANK] += 1e-3
            P = P / P.sum(axis=1, keepdims=True)
            if case // 20 % 2:
                with np.errstate(divide="ignore"):
                    s = ProbStream(np.log(P), log_space=True)
            else:
                s = ProbStream(P)
            assert beam_decode(s, width) == reference_beam_decode(s, width), (
                case, T, C, width
            )


class TestAverageStreams:
    def test_identity(self):
        P = np.array([[0.3, 0.7], [0.6, 0.4]])
        out = average_streams([ProbStream(P), ProbStream(P.copy())])
        np.testing.assert_allclose(out.prob_matrix(), P, atol=1e-15)

    def test_opposite_rows(self):
        a = ProbStream(np.array([[1.0, 0.0]]))
        b = ProbStream(np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(average_streams([a, b]).prob_matrix(), [[0.5, 0.5]])

    def test_rows_remain_stochastic(self):
        rng = np.random.default_rng(31)
        streams = [ProbStream(random_stream(rng, 5, 4)) for _ in range(4)]
        out = average_streams(streams)
        np.testing.assert_allclose(out.prob_matrix().sum(axis=1), 1.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            average_streams(
                [ProbStream(np.full((2, 2), 0.5)), ProbStream(np.full((3, 2), 0.5))]
            )


# ---------------------------------------------------------------------------
# WER


class TestWer:
    def test_exact_match(self):
        r = wer(["A", "B", "C"], ["A", "B", "C"])
        assert (r.wer, r.insertions, r.deletions, r.substitutions) == (0.0, 0, 0, 0)

    def test_single_deletion(self):
        r = wer(["A", "B", "C"], ["A", "C"])
        assert r.deletions == 1 and r.distance == 1
        assert r.wer == pytest.approx(1 / 3)

    def test_200_random_pairs_match_dp_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            a = [int(c) for c in rng.integers(0, 5, size=rng.integers(1, 9))]
            b = [int(c) for c in rng.integers(0, 5, size=rng.integers(0, 9))]
            r = wer(a, b)
            assert r.distance == oracle_levenshtein(a, b)
            assert r.wer == (r.insertions + r.deletions + r.substitutions) / len(a)

    def test_self_wer_zero(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            x = [int(c) for c in rng.integers(0, 6, size=rng.integers(1, 8))]
            assert wer(x, x).wer == 0.0

    def test_symmetry_swaps_ins_del(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            a = [int(c) for c in rng.integers(0, 4, size=rng.integers(1, 7))]
            b = [int(c) for c in rng.integers(0, 4, size=rng.integers(1, 7))]
            fwd = wer(a, b)
            rev = wer(b, a)
            assert fwd.distance == rev.distance
            assert fwd.insertions == rev.deletions and fwd.deletions == rev.insertions

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            wer([], ["A"])

    def test_report_json_keys(self):
        d = wer(["A"], ["B"]).to_dict()
        assert set(d) == {"wer", "ins", "del", "sub", "ref_len"}

    def test_aggregate_micro_average(self):
        reports = [wer(["A", "B"], ["A"]), wer(["C"], ["C", "D"])]
        agg = ctc.aggregate_reports(reports)
        assert agg.ref_len == 3 and agg.distance == 2
        assert agg.wer == pytest.approx(2 / 3)
