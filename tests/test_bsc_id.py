import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from lhckit.bsc_id import (
    Codebook,
    acceptance_threshold,
    accepts,
    beta,
    binary_entropy,
    build_example_hypergraphs,
    chernoff_bound,
    epsilon_max,
    exact_error_rates,
    exact_window_miss,
    gen_codebook,
    id_decoder,
    in_window,
    monte_carlo_id,
    pair_distance_distribution,
    pair_distance_table,
    rate_table,
    restricted_pair_channel,
    theta,
    threshold_split_hypergraph,
    window_interval,
    window_split_hypergraph,
    word_channel_rows,
)
from lhckit import Alphabet, bsc_id, channel, k_identification_table, run_branch_swap_harness
from lhckit.errors import (
    CapacityError,
    EmptyBlock,
    EpsilonTooLarge,
    Infeasible,
    RangeError,
    ShapeError,
)
import oracles

MODES = ("one-sided-threshold", "paper-windows")
TINY = np.finfo(np.float64).tiny


def bsc_pair_distances(n: int) -> np.ndarray:
    from lhckit.bsc_id import pair_distance_table

    return pair_distance_table(n).reshape(-1)


def zip_distance(w1: str, w2: str) -> int:
    return sum(a != b for a, b in zip(w1, w2))


def per_k_law(n: int, k: int, gamma: float) -> np.ndarray:
    """Reference law: one convolution of two binomial rows of their own
    lengths, the differing letters' row read backwards."""
    b = beta(gamma)
    return np.convolve(binomial(n - k, b), binomial(k, b)[::-1])


def binomial(t: int, p: float) -> np.ndarray:
    """Bin(t, p) over 0..t from the package's row routine, built alone."""
    return bsc_id._binom_rows(np.array([t]), p, t)[0]


def assert_within_stated_bound(law, gamma: float) -> None:
    """Every entry whose exact value is a normal float lies within the stated
    5n ulp of the exact law at the float beta. The exact law is slow at a
    tiny beta, so it is computed only where the float law is at least
    TINY / 1024: an entry below that is normal only if it is off by a
    factor over 1000, which this check does not grade."""
    at = np.flatnonzero(law.pmf >= TINY / 1024).tolist()
    exact = oracles.exact_distance_law(law.n, law.k, beta(gamma), at)
    for j, v in zip(at, exact):
        if v >= TINY:
            assert oracles.ulps(float(law.pmf[j]), v) <= 5 * law.n, (law.n, law.k, j)


def pairwise_error_rates(codebook, gamma, epsilon, mode):
    """Reference oracle: one convolution law per ordered distinct codeword pair,
    averaged in pair order; the false reject is the rejected mass of the
    equal pair's law."""
    n = codebook.n
    thresh = acceptance_threshold(n, gamma, epsilon)
    lo0, hi0 = window_interval(n, gamma, epsilon, 0.0)
    d = np.arange(n + 1)
    accepted = d <= thresh if mode == "one-sided-threshold" else (d > lo0) & (d < hi0)

    def accept_prob(k: int) -> float:
        return float(pair_distance_distribution(n, k, gamma).pmf[accepted].sum())

    off = [zip_distance(u, v) for u in codebook.words for v in codebook.words
           if u != v]
    false_reject = float(pair_distance_distribution(n, 0, gamma).pmf[~accepted].sum())
    return false_reject, float(np.mean([accept_prob(k) for k in off]))


class TestClosedForms:
    def test_beta_at_running_example(self):
        assert beta(0.03) == pytest.approx(0.0582, abs=1e-12)

    def test_theta_zero_is_beta(self):
        for g in (0.0, 0.1, 0.25, 0.5):
            assert theta(0.0, g) == beta(g)

    def test_theta_running_example(self):
        assert theta(0.1, 0.03) == pytest.approx(0.14656, abs=1e-9)

    def test_epsilon_max_running_example(self):
        assert epsilon_max(0.1, 0.03) == pytest.approx(0.43153, abs=1e-5)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            beta(-0.1)
        with pytest.raises(RangeError):
            theta(1.5, 0.1)

    def test_chernoff_running_example(self):
        got = chernoff_bound(1000, 0.3, 0.1, 0.03)
        assert got == pytest.approx(2.73e-3, rel=0.02)

    def test_chernoff_caps_at_one(self):
        assert chernoff_bound(10, 1e-6, 0.1, 0.03) == 1.0

    @pytest.mark.parametrize("n", [0, -3])
    def test_chernoff_rejects_nonpositive_block_length(self, n):
        with pytest.raises(RangeError, match=f"^block length n {n} is not an integer >= 1$"):
            chernoff_bound(n, 0.3, 0.1, 0.03)

    def test_chernoff_log_linear_in_n(self):
        b1 = chernoff_bound(400, 0.3, 0.1, 0.03)
        b2 = chernoff_bound(800, 0.3, 0.1, 0.03)
        assert b2 == pytest.approx(b1**2 / 2.0, rel=1e-9)

    @given(st.floats(1e-6, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_window_disjointness_iff_epsilon_max(self, delta, gamma):
        t0, td = theta(0.0, gamma), theta(delta, gamma)
        if t0 + td == 0.0 or td <= t0:
            return
        e_max = epsilon_max(delta, gamma)
        for eps in (0.5 * e_max, 0.99 * e_max, 1.01 * e_max, 1.5 * e_max):
            if eps <= 0:
                continue
            disjoint = (1 + eps) * t0 < (1 - eps) * td
            assert disjoint == (eps < e_max)


class TestCodebooks:
    def test_repetition(self):
        book = gen_codebook(6, 1.0, 2)
        assert book.words == ("000000", "111111")

    def test_distance_three_lexicode_has_sixteen_words(self):
        book = gen_codebook(7, 3 / 7, 16)
        assert book.size == 16
        # independent all-pairs check
        for i, w in enumerate(book.words):
            for w2 in book.words[i + 1:]:
                assert sum(a != b for a, b in zip(w, w2)) >= 3

    def test_infeasible_reports_gv(self):
        with pytest.raises(Infeasible, match="2"):
            gen_codebook(4, 1.0, 3)

    @pytest.mark.parametrize("strategy", ["lexicographic-greedy", "random-greedy"])
    @pytest.mark.parametrize("m", [0, -3])
    def test_nonpositive_size_rejected(self, strategy, m):
        with pytest.raises(RangeError, match=f"^codebook size {m} is not an integer >= 1$"):
            gen_codebook(10, 0.3, m, strategy=strategy)

    def test_random_greedy_respects_distance(self):
        book = gen_codebook(64, 0.2, 8, seed=9, strategy="random-greedy")
        dmin = math.ceil(64 * 0.2)
        dists = book.pair_distances()
        off = dists[~np.eye(8, dtype=bool)]
        assert off.min() >= dmin

    def test_distance_validation_in_constructor(self):
        with pytest.raises(ShapeError):
            Codebook(n=3, words=("000", "001"), dmin=3)

    def test_constructor_names_first_close_pair_in_row_major_order(self):
        # pairs (0, 3) and (1, 2) are both too close; row-major order meets
        # (0, 3) first, column-major order would meet (1, 2) first
        words = ("0000", "1100", "1110", "1000")
        with pytest.raises(ShapeError) as info:
            Codebook(n=4, words=words, dmin=2)
        assert str(info.value) == "words '0000' and '1000' at distance 1 < 2"

    @given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pair_distances_match_zip_count(self, n, m, seed):
        rng = np.random.default_rng(seed)
        words = sorted({"".join(map(str, rng.integers(0, 2, size=n)))
                        for _ in range(m)})
        book = Codebook(n=n, words=tuple(words), dmin=1)
        expected = [[zip_distance(u, v) for v in words] for u in words]
        assert book.pair_distances().tolist() == expected

    def test_product_equals_the_letter_by_letter_count(self):
        """|a| + |b|^T - 2 a b^T gives the integers, and the dtype, of the
        blocked letter comparison: on all 10-bit word pairs and on a seeded
        256-word codebook of length 1000."""
        every = bsc_id._all_word_bits(10)
        book = gen_codebook(1000, 0.4, 256, seed=25, strategy="random-greedy")
        for bits in (every, book.bits):
            got, want = bsc_id._hamming(bits, bits), oracles.blocked_hamming(bits, bits)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(book.pair_distances(), want)
        assert np.array_equal(bsc_id._hamming(every[:3], every),
                              oracles.blocked_hamming(every[:3], every))

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 16])
    def test_all_word_bits_equal_the_shifted_indices(self, n):
        """The unpacked big-endian bits are the bits of each index shifted
        down letter by letter in int64, and are uint8."""
        shifted = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1) & 1).astype(np.uint8)
        got = bsc_id._all_word_bits(n)
        assert got.dtype == np.uint8 and np.array_equal(got, shifted)

    def test_stored_arrays_are_read_only(self):
        book = gen_codebook(16, 0.25, 6)
        for stored in (book.bits, book.pair_distances()):
            with pytest.raises(ValueError, match="read-only"):
                stored[0, 0] = 1

    @pytest.mark.parametrize("mode", MODES)
    def test_rates_and_simulation_read_the_stored_arrays(self, monkeypatch, mode):
        book = gen_codebook(16, 0.25, 6)

        def refuse(*args):
            raise AssertionError("codeword bits or distances built again")

        monkeypatch.setattr(bsc_id, "_word_bits", refuse)
        monkeypatch.setattr(bsc_id, "_hamming", refuse)
        exact_error_rates(book, 0.05, 0.3, mode=mode)
        monte_carlo_id(book, 0.05, 0.3, 5000, seed=1, mode=mode, workers=2)


class TestDistanceLaw:
    def test_equal_pair_is_binomial_beta(self):
        law = pair_distance_distribution(10, 0, 0.03)
        assert np.allclose(law.pmf, binom.pmf(np.arange(11), 10, beta(0.03)),
                           atol=1e-14)

    def test_antipodal_pair_is_binomial_one_minus_beta(self):
        law = pair_distance_distribution(10, 10, 0.03)
        assert np.allclose(law.pmf, binom.pmf(np.arange(11), 10, 1 - beta(0.03)),
                           atol=1e-14)

    @given(st.integers(1, 64), st.data(),
           st.sampled_from([0.01, 0.03, 0.1, 0.25]))
    @settings(max_examples=80, deadline=None)
    def test_mean_matches_affine_law(self, n, data, gamma):
        k = data.draw(st.integers(0, n))
        law = pair_distance_distribution(n, k, gamma)
        assert abs(law.mean - n * theta(k / n, gamma)) <= 1e-9

    def test_pmf_normalized(self):
        law = pair_distance_distribution(100, 37, 0.07)
        assert abs(law.pmf.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.03, 0.5])
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_every_law_has_the_bits_of_its_own_convolution(self, n, gamma):
        """Each law, alone and in one batch of all n + 1 distances, equals the
        convolution of two binomials of its own length bit for bit; k = 0 and
        k = n are where slicing a row of the shared grid can go wrong."""
        want = [per_k_law(n, k, gamma).tobytes() for k in range(n + 1)]
        assert [pair_distance_distribution(n, k, gamma).pmf.tobytes()
                for k in range(n + 1)] == want
        batch = bsc_id._distance_laws(n, np.arange(n + 1), gamma)
        assert [(law.k, law.pmf.tobytes()) for law in batch] == list(enumerate(want))
        for law in batch:
            assert_within_stated_bound(law, gamma)

    @given(st.integers(1, 80), st.data(), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_batch_order_and_repeats_do_not_move_bits(self, n, data, gamma):
        ks = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=12))
        laws = bsc_id._distance_laws(n, ks, gamma)
        assert [law.k for law in laws] == ks
        for law in laws:
            assert law.pmf.tobytes() == per_k_law(n, law.k, gamma).tobytes()
            assert_within_stated_bound(law, gamma)

    # beta(gamma) is the smallest normal float, where scipy's binomial pmf
    # overflowed
    @pytest.mark.parametrize("n, k", [(4, 0), (7, 2), (7, 7)])
    def test_law_at_the_smallest_normal_beta(self, n, k):
        gamma = 1.1125369292536007e-308
        assert beta(gamma) == TINY
        law = pair_distance_distribution(n, k, gamma)
        assert law.pmf[k] == 1.0  # both copies keep every letter
        assert law.pmf.tobytes() == per_k_law(n, k, gamma).tobytes()
        assert_within_stated_bound(law, gamma)

    # 0.001 is where evaluating scipy's pmf at the rounded 1 - beta put a
    # law 15,100 ulp off (n 64, k 61, distance 0)
    @pytest.mark.parametrize("gamma", [0.001, 0.3, 0.5])
    def test_laws_meet_the_stated_bound(self, gamma):
        for n in (1, 7, 16, 33, 64):
            for law in bsc_id._distance_laws(n, np.arange(n + 1), gamma):
                assert_within_stated_bound(law, gamma)

    def test_rows_meet_their_stated_bound(self):
        for p in (beta(0.001), beta(0.03), 0.3, 0.5):
            rows = bsc_id._binom_rows(np.array([0, 1, 64, 200]), p, 200)
            for t, row in zip((0, 1, 64, 200), rows):
                assert not row[t + 1:].any()
                exact = oracles.exact_binomial_row(t, p)
                worst = max(oracles.ulps(x, v) for x, v in zip(row.tolist(), exact)
                            if v >= TINY)
                assert worst <= 4 * t, (p, t)

    def test_rates_at_the_smallest_normal_beta(self):
        gamma = 1.1125369292536007e-308
        assert pair_distance_distribution(4, 0, gamma).pmf[0] == 1.0
        book = Codebook(6, ("000000", "000111", "111000"), 3)
        for mode in MODES:
            assert np.isfinite(exact_error_rates(book, gamma, 0.3, mode)).all()

    @pytest.mark.parametrize("k", [-1, 8, 2.5])
    def test_distance_outside_block_refused(self, k):
        # 2.5 must not be truncated to the law of distance 2
        with pytest.raises(RangeError,
                           match=rf"^input distance {k} is not an integer in \[0, 7\]$"):
            pair_distance_distribution(7, k, 0.1)


class TestWindowMiss:
    @pytest.mark.parametrize("n", [100, 500, 1000])
    def test_bounded_by_chernoff_at_nominal_distance(self, n):
        miss = exact_window_miss(n, n // 10, 0.03, 0.3, 0.1)
        assert miss <= chernoff_bound(n, 0.3, 0.1, 0.03)

    def test_wide_window_is_one_sided(self):
        n, gamma, delta = 50, 0.1, 0.2
        lo, hi = window_interval(n, gamma, 1.5, delta)
        assert lo < 0  # lower tail vanishes
        miss = exact_window_miss(n, 10, gamma, 1.5, delta)
        law = pair_distance_distribution(n, 10, gamma)
        upper_only = float(law.pmf[np.arange(n + 1) >= hi].sum())
        assert miss == pytest.approx(upper_only, abs=1e-15)

    def test_noiseless_distance_is_deterministic(self):
        n, k = 20, 7
        miss = exact_window_miss(n, k, 0.0, 0.3, k / n)
        lo, hi = window_interval(n, 0.0, 0.3, k / n)
        assert miss == (0.0 if lo < k < hi else 1.0)

    def test_one_sided_accept_monotone_in_distance(self):
        n, gamma, eps = 40, 0.05, 0.3
        t = acceptance_threshold(n, gamma, eps)
        top = math.floor(t) + 1
        probs = [pair_distance_distribution(n, k, gamma).pmf[:top].sum()
                 for k in range(n + 1)]
        assert all(a >= b - 1e-15 for a, b in zip(probs, probs[1:]))


class TestExactErrorRates:
    @given(st.sampled_from(MODES),
           st.sampled_from([("random-greedy", 64), ("lexicographic-greedy", 24)]),
           st.data(), st.integers(2, 12), st.integers(0, 10_000),
           st.floats(0.01, 0.45), st.floats(0.05, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_per_distance_oracle_matches_pairwise_sum(
            self, mode, strategy_and_max_n, data, m, seed, gamma, eps):
        strategy, max_n = strategy_and_max_n
        n = data.draw(st.integers(4, max_n))
        try:
            book = gen_codebook(n, 0.2, m, seed=seed, strategy=strategy)
        except Infeasible:
            assume(False)
        got = exact_error_rates(book, gamma, eps, mode=mode)
        want = pairwise_error_rates(book, gamma, eps, mode)
        # relative: false-accept rates fall far below any absolute tolerance
        # (1e-57 in test_two_codewords); only the float summation order differs
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_two_codewords(self, mode):
        book = Codebook(n=200, words=("0" * 200, "0" * 100 + "1" * 100),
                        dmin=100)
        got = exact_error_rates(book, 0.05, 0.4, mode=mode)
        want = pairwise_error_rates(book, 0.05, 0.4, mode)
        assert 0.0 < got[1] < 1e-50
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0)


    # float.hex of (false reject, false accept) from the binomial recurrence,
    # each within 45 ulp of the exact rational rates (scipy's pmf: 169 ulp)
    PINNED = {
        ("antipodal-halves", "one-sided-threshold"):
            ("0x1.49eb8af1275bep-5", "0x1.497847c806aecp-190"),
        ("antipodal-halves", "paper-windows"):
            ("0x1.19ecb0e0d1f53p-4", "0x1.497847c806aecp-190"),
        ("lexicode-12", "one-sided-threshold"):
            ("0x1.3dbf8ff703ad9p-3", "0x1.137e3dbc05895p-2"),
        ("lexicode-12", "paper-windows"):
            ("0x1.fb0649f06aeeep-3", "0x1.12d3b2c22f952p-2"),
        ("random-200", "one-sided-threshold"):
            ("0x1.e080639e59544p-7", "0x1.58a5bde6d2205p-144"),
        ("random-200", "paper-windows"):
            ("0x1.5cecf32fc4c34p-6", "0x1.58a5bde6d2205p-144"),
    }

    @staticmethod
    def pinned_code(name):
        """(codebook, gamma, epsilon) of a pinned case."""
        if name == "antipodal-halves":
            return Codebook(n=200, words=("0" * 200, "0" * 100 + "1" * 100),
                            dmin=100), 0.05, 0.4
        if name == "lexicode-12":
            return gen_codebook(12, 0.25, 8, strategy="lexicographic-greedy"), 0.1, 0.6
        return gen_codebook(200, 0.1, 20, seed=7, strategy="random-greedy"), 0.05, 0.5

    @pytest.mark.parametrize("name, mode", sorted(PINNED))
    def test_rates_keep_their_bits(self, name, mode):
        book, gamma, eps = self.pinned_code(name)
        got = exact_error_rates(book, gamma, eps, mode=mode)
        assert tuple(x.hex() for x in got) == self.PINNED[name, mode]

    # 1 minus the accepted mass was 4.8163685576474435e-06 and 1.2323e-14
    # here, 49,180 ulp and 4e14 ulp off; a sum of the 5n-ulp law entries over
    # at most n + 1 distances is within 6n ulp
    def test_tails_are_summed(self):
        book = Codebook(n=64, words=("0" * 64, "1" * 64), dmin=64)
        rejected = ~accepts(np.arange(65), 64, 0.01, 6.0, "one-sided-threshold")
        law = oracles.exact_distance_law(64, 0, beta(0.01))
        want = sum(v for v, out in zip(law, rejected) if out)
        assert oracles.ulps(exact_error_rates(book, 0.01, 6.0)[0], want) <= 6 * 64
        outside = ~in_window(np.arange(51), 50, 0.1, 1.5, 0.2)
        law = oracles.exact_distance_law(50, 10, beta(0.1))
        want = sum(v for v, out in zip(law, outside) if out)
        assert oracles.ulps(exact_window_miss(50, 10, 0.1, 1.5, 0.2), want) <= 6 * 50

    @pytest.mark.parametrize("mode", MODES)
    def test_one_word_codebook_has_no_distinct_pairs(self, mode):
        book = gen_codebook(8, 0.5, 1)
        with pytest.raises(ShapeError, match="at least two codewords"):
            exact_error_rates(book, 0.05, 0.4, mode=mode)
        with pytest.raises(ShapeError, match="at least two codewords"):
            monte_carlo_id(book, 0.05, 0.4, 10, seed=0, mode=mode)


class TestUnknownMode:
    def test_decoder(self):
        with pytest.raises(RangeError, match="unknown decoder mode 'bogus'"):
            id_decoder("0000", "0000", 4, 0.03, 0.3, mode="bogus")

    @pytest.mark.parametrize("workers", [1, 4])
    def test_monte_carlo(self, workers):
        book = gen_codebook(16, 0.5, 4)
        with pytest.raises(RangeError, match="unknown decoder mode 'bogus'"):
            monte_carlo_id(book, 0.05, 0.3, 5000, mode="bogus", workers=workers)

    def test_exact_oracle(self):
        book = gen_codebook(16, 0.5, 4)
        with pytest.raises(RangeError, match="unknown decoder mode 'bogus'"):
            exact_error_rates(book, 0.05, 0.3, mode="bogus")

    def test_codebook_strategy(self):
        with pytest.raises(RangeError, match="^unknown strategy 'bogus'$"):
            gen_codebook(16, 0.5, 4, strategy="bogus")


class TestLargeBlockWindowCertificate:
    def test_antipodal_pairs_certify_at_one_percent(self):
        # at block length 1000 the equal and antipodal windows each hold all
        # but a vanishing fraction of their mass, so the window edge map is
        # certified at 0.01 by the exact tail oracle (no matrices involved)
        n, gamma, eps = 1000, 0.03, 0.4
        assert eps < epsilon_max(1.0, gamma)
        miss_equal = exact_window_miss(n, 0, gamma, eps, 0.0)
        miss_far = exact_window_miss(n, n, gamma, eps, 1.0)
        assert max(miss_equal, miss_far) < 0.01

    def test_narrower_window_needs_larger_error(self):
        # the same check at eps = 0.3 concentrates less: the equal window
        # miss sits near 1.8%, which a 1% budget cannot cover
        n, gamma, eps = 1000, 0.03, 0.3
        miss_equal = exact_window_miss(n, 0, gamma, eps, 0.0)
        assert 0.01 < miss_equal < chernoff_bound(n, eps, 0.0, gamma)


class TestExampleHypergraphs:
    def test_repetition_structures(self):
        book = gen_codebook(6, 1.0, 2)
        ex = build_example_hypergraphs(book, 0.3, gamma=0.03)
        assert ex.hyper_h.edge_count == 2
        assert ex.hyper_c.is_partition
        assert ex.hyper_c.vertices.size == 4  # rectangular codeword square

    def test_epsilon_too_large(self):
        book = gen_codebook(6, 1.0, 2)
        with pytest.raises(EpsilonTooLarge):
            build_example_hypergraphs(book, 0.999, gamma=0.4)

    def test_window_disjointness_at_nine_tenths_of_max(self):
        gamma, delta = 0.03, 0.1
        eps = 0.9 * epsilon_max(delta, gamma)
        lo0, hi0 = window_interval(1000, gamma, eps, 0.0)
        lod, hid = window_interval(1000, gamma, eps, delta)
        assert hi0 < lod

    def test_materialized_window_split(self):
        # n=8, gamma=0.25: equal window around 3, far window around 5
        h = window_split_hypergraph(8, 0.25, 1.0, 0.2)
        dists = bsc_pair_distances(8)
        far, near = h.edges
        assert {dists[i] for i in near} == {3}
        assert {dists[i] for i in far} == {5}
        with pytest.raises(EpsilonTooLarge):
            window_split_hypergraph(8, 0.25, 1.0, 0.5)

    def test_empty_window_is_named(self):
        # n=8, gamma=0.03: the equal window (0.326, 0.605) holds no integer
        with pytest.raises(EmptyBlock, match=r"equal window \(0\.32\d*, 0\.60\d*\)"):
            window_split_hypergraph(8, 0.03, 0.4, 0.3)

    def test_window_split_caps_pairs_before_allocating(self, monkeypatch):
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 4 ** 8)
        h = window_split_hypergraph(8, 0.25, 1.0, 0.2)
        assert h.vertices.size == 4 ** 8

        def refuse(n):
            raise AssertionError("distance table built before the cap check")

        monkeypatch.setattr(bsc_id, "_all_word_bits", refuse)
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 4 ** 8 - 1)
        for split in (lambda: window_split_hypergraph(8, 0.25, 1.0, 0.2),
                      lambda: threshold_split_hypergraph(8, 1),
                      lambda: pair_distance_table(8)):
            with pytest.raises(CapacityError, match=r"^alphabet of all 8-bit word pairs: "
                               r"65536 entries exceed the cap 65535$"):
                split()


class TestRestrictedPairChannel:
    def test_cap_counts_all_dense_entries_before_allocating(self, monkeypatch):
        book = gen_codebook(4, 0.25, 5)  # 25 pair rows x 256 output pairs
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 25 * 256)
        assert restricted_pair_channel(book, 0.1).rows.shape == (25, 256)

        def refuse(*args):
            raise AssertionError("word rows built before the cap check")

        monkeypatch.setattr(bsc_id, "_flip_rows", refuse)
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 1 << 12)
        with pytest.raises(CapacityError, match=r"25 x 256: 6400 entries exceed the cap 4096"):
            restricted_pair_channel(book, 0.1)

    def test_rows_come_from_the_codebook_bits(self, monkeypatch):
        book = gen_codebook(4, 0.25, 5)
        single = word_channel_rows(book.words, 4, 0.1)

        def refuse(*args):
            raise AssertionError("codewords parsed again")

        monkeypatch.setattr(bsc_id, "_word_bits", refuse)
        rows = restricted_pair_channel(book, 0.1).rows
        assert rows.tobytes() == np.kron(single, single).tobytes()

    def test_rows_are_the_tensor_of_one_word_channel(self, monkeypatch):
        book = gen_codebook(4, 0.25, 5)
        calls = []

        def recording(first, second):
            calls.append((first, second))
            return channel.tensor(first, second)

        monkeypatch.setattr(bsc_id, "tensor", recording)
        pair = restricted_pair_channel(book, 0.1)
        (word, again), = calls
        assert word is again and word.input.labels == book.words
        assert word.output == bsc_id.word_alphabet(4)
        assert word.rows.tobytes() == word_channel_rows(book.words, 4, 0.1).tobytes()
        assert pair.input == word.input.product(word.input)

    def test_word_rows_and_pair_table_are_capped_before_allocating(self, monkeypatch):
        # 3 words x 16 outputs and 8 x 8 word pairs built 48 and 64 entries
        # under a cap of 16
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 16)

        def refuse(*args):
            raise AssertionError("built before the cap check")

        monkeypatch.setattr(bsc_id, "_flip_rows", refuse)
        monkeypatch.setattr(bsc_id, "_all_word_bits", refuse)
        with pytest.raises(CapacityError,
                           match=r"^channel of 3 x 16: 48 entries exceed the cap 16$"):
            word_channel_rows(("0000", "0011", "1111"), 4, 0.1)
        with pytest.raises(CapacityError, match=r"^alphabet of all 3-bit word pairs: "
                                                r"64 entries exceed the cap 16$"):
            pair_distance_table(3)


class TestDecoder:
    def test_zero_distance_accepted(self):
        assert id_decoder("0000", "0000", 4, 0.03, 0.3) == 1
        # the open two-sided window contains 0 only when it is wide enough
        assert id_decoder("0000", "0000", 4, 0.03, 1.2,
                          mode="paper-windows") == 1

    def test_strict_window_excludes_zero_when_narrow(self):
        # 0 is outside the open equal window whenever epsilon < 1; the
        # one-sided threshold rule exists precisely to avoid this artifact
        assert id_decoder("0000", "0000", 4, 0.03, 0.3,
                          mode="paper-windows") == 0
        assert id_decoder("0000", "0000", 4, 0.03, 0.3) == 1

    def test_full_distance_rejected_in_both_modes(self):
        y1, y2 = "0" * 20, "1" * 20
        for mode in ("one-sided-threshold", "paper-windows"):
            assert id_decoder(y1, y2, 20, 0.03, 0.3, mode=mode) == 0

    @pytest.mark.parametrize("word", ["000", "0a00", "0200",
                                      [0.5, 1, 0, 0], [0, 2, 0, 0]])
    def test_malformed_word_rejected(self, word):
        with pytest.raises(ShapeError, match="is not an 4-bit string"):
            id_decoder(word, "0000", 4, 0.03, 0.3)

    @pytest.mark.parametrize("word", [[0, 1, 0, 0], np.array([0, 1, 0, 0])])
    def test_array_word_gets_the_string_refusal(self, word):
        # 0/1 arrays were read as words; only '0'/'1' strings are
        with pytest.raises(ShapeError, match=r"^word .* is not an 4-bit string$"):
            id_decoder(word, "0000", 4, 0.03, 0.3)
        with pytest.raises(ShapeError) as info:
            id_decoder("0000", word, 4, 0.03, 0.3)
        assert str(info.value) == f"word {word!r} is not an 4-bit string"
        assert not hasattr(bsc_id, "_bits")

    @pytest.mark.parametrize("word", ["000", "0a00", "0200", ("0", "1", "0", "0")])
    def test_codebook_and_decoder_refuse_a_word_alike(self, word):
        with pytest.raises(ShapeError) as book_error:
            Codebook(n=4, words=("1111", word), dmin=1)
        with pytest.raises(ShapeError) as decoder_error:
            id_decoder(word, "0000", 4, 0.03, 0.3)
        assert (str(book_error.value) == str(decoder_error.value)
                == f"word {word!r} is not an 4-bit string")

    def test_threshold_boundary_flip(self):
        n, gamma, eps = 100, 0.1, 0.3
        t = acceptance_threshold(n, gamma, eps)
        at = math.floor(t)
        y_base = "0" * n
        y_at = "1" * at + "0" * (n - at)
        y_above = "1" * (at + 1) + "0" * (n - at - 1)
        assert id_decoder(y_base, y_at, n, gamma, eps) == 1
        assert id_decoder(y_base, y_above, n, gamma, eps) == 0

    def test_outside_both_windows_flagged(self):
        n, gamma, eps, delta = 1000, 0.03, 0.1, 0.5
        lo0, hi0 = window_interval(n, gamma, eps, 0.0)
        lod, hid = window_interval(n, gamma, eps, delta)
        d = int((hi0 + lod) / 2)
        assert not in_window(d, n, gamma, eps, 0.0)
        assert not in_window(d, n, gamma, eps, delta)
        y1 = "0" * n
        y2 = "1" * d + "0" * (n - d)
        assert id_decoder(y1, y2, n, gamma, eps, mode="paper-windows") == 0


class TestMonteCarlo:
    def test_noiseless_channel_never_errs(self):
        book = gen_codebook(16, 0.5, 4, strategy="lexicographic-greedy")
        est = monte_carlo_id(book, 0.0, 0.3, 2000, seed=1)
        assert est.false_rejects == 0 and est.false_accepts == 0

    def test_agrees_with_exact_rates_on_repetition(self):
        book = Codebook(n=64, words=("0" * 64, "1" * 64), dmin=64)
        trials = 40_000
        est = monte_carlo_id(book, 0.03, 0.3, trials, seed=3)
        fr, fa = exact_error_rates(book, 0.03, 0.3)
        for rate, exact, n_side in (
            (est.false_reject_rate, fr, est.equal_trials),
            (est.false_accept_rate, fa, est.distinct_trials),
        ):
            sd = math.sqrt(max(exact * (1 - exact), 1e-12) / n_side)
            assert abs(rate - exact) <= 3 * sd + 1e-9

    def test_worker_counts_bit_identical(self):
        book = gen_codebook(32, 0.25, 4, seed=2, strategy="random-greedy")
        runs = [monte_carlo_id(book, 0.05, 0.2, 9999, seed=17, workers=w)
                for w in (1, 4, 16)]
        tallies = {(r.false_rejects, r.false_accepts) for r in runs}
        assert len(tallies) == 1

    @pytest.mark.parametrize("workers, trials", [(1, 9999), (4, bsc_id.MC_CHUNK)])
    def test_no_pool_for_one_worker_or_one_chunk(self, monkeypatch, workers, trials):
        book = gen_codebook(32, 0.25, 4, seed=2, strategy="random-greedy")
        want = monte_carlo_id(book, 0.05, 0.2, trials, seed=17)

        def refuse(*args, **kwargs):
            raise AssertionError("thread pool started")

        monkeypatch.setattr(bsc_id, "ThreadPoolExecutor", refuse)
        est = monte_carlo_id(book, 0.05, 0.2, trials, seed=17, workers=workers)
        assert (est.false_rejects, est.false_accepts) == (want.false_rejects,
                                                          want.false_accepts)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("code, gamma, eps, trials, mode, tallies", [
        ((64, 0.2, 12, 3), 0.1, 0.5, 9000, "one-sided-threshold", (141, 1)),
        ((64, 0.2, 12, 3), 0.1, 0.5, 9000, "paper-windows", (219, 1)),
        ((300, 0.1, 5, 1), 0.2, 0.3, 5000, "one-sided-threshold", (0, 6)),  # n > 255
    ])
    def test_tallies_keep_their_bits(self, code, gamma, eps, trials, mode, tallies,
                                     workers):
        """(false rejects, false accepts) at seed 5, written by the simulator
        that drew each copy's flips into an array of its own."""
        n, delta, m, book_seed = code
        book = gen_codebook(n, delta, m, seed=book_seed, strategy="random-greedy")
        est = monte_carlo_id(book, gamma, eps, trials, seed=5, mode=mode,
                             workers=workers)
        assert (est.false_rejects, est.false_accepts) == tallies

    @pytest.mark.parametrize("workers", [0, -2, 2.5, "2", True])
    def test_worker_count_must_be_an_integer_of_at_least_one(self, workers):
        book = gen_codebook(16, 0.5, 4)
        with pytest.raises(RangeError) as info:
            monte_carlo_id(book, 0.05, 0.3, 100, workers=workers)
        assert str(info.value) == f"worker count {workers!r} is not an integer >= 1"

    # 2.5 words gave a 128-word codebook, 100.0 trials a bare TypeError from
    # range, and True ran one trial
    @pytest.mark.parametrize("run, text", [
        (lambda book: gen_codebook(8, 0.25, 2.5), "codebook size 2.5"),
        (lambda book: monte_carlo_id(book, 0.03, 0.3, 100.0), "trial count 100.0"),
        (lambda book: monte_carlo_id(book, 0.03, 0.3, True), "trial count True"),
    ], ids=["codebook-size", "float-trials", "bool-trials"])
    def test_count_must_be_an_integer(self, run, text):
        book = gen_codebook(16, 0.5, 4)
        with pytest.raises(RangeError, match=f"^{text} is not an integer >= 1$"):
            run(book)


class TestRates:
    def test_running_example_rate(self):
        rows = rate_table(0.03, [0.0])
        assert rows[0][2] == pytest.approx(0.8056, abs=1e-4)

    def test_noiseless_rate_is_one(self):
        assert rate_table(0.0, [0.1])[0][2] == 1.0

    def test_useless_channel_rate_is_zero(self):
        assert rate_table(0.5, [0.1])[0][2] == pytest.approx(0.0, abs=1e-12)

    def test_gv_column(self):
        rows = rate_table(0.03, [0.0, 0.5])
        assert rows[0][1] == 1.0
        assert rows[1][1] == pytest.approx(0.0, abs=1e-12)

    def test_range(self):
        with pytest.raises(RangeError):
            rate_table(0.6, [0.1])

    def test_gamma_must_be_a_real_number(self):
        # a bare TypeError from the comparison, before the unit check
        with pytest.raises(RangeError, match="^gamma '0.1' is not a real number$"):
            rate_table("0.1", [])

    def test_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)


class TestOneCheckPerRange:
    """Each range rule raises from one place, and its message names the values."""

    def test_refusals_name_their_values(self):
        with pytest.raises(RangeError, match=r"^epsilon 0\.0 must be positive$"):
            chernoff_bound(100, 0.0, 0.1, 0.03)
        with pytest.raises(RangeError, match=r"^windows undefined at delta 0\.0, "
                                             r"gamma 1\.0: both expected"):
            epsilon_max(0.0, 1.0)
        with pytest.raises(RangeError, match=r"^minimum distance ceil\(n \* delta\) = 9 "
                                             r"at n 8, delta 1\.1 is outside \[1, 8\]$"):
            gen_codebook(8, 1.1, 2)

    # The rule is the ceiling of the float product n * delta: 100 * 0.07 is
    # 7.000000000000001, so 8, and 200 * 0.1 is 20.0 although float 0.1
    # lies above 1/10. Every seeded codebook and golden follows it.
    @pytest.mark.parametrize("n, delta, dmin", [(100, 0.07, 8), (200, 0.1, 20)])
    def test_minimum_distance_is_the_ceiling_of_the_float_product(self, n, delta, dmin):
        assert bsc_id.min_distance(n, delta) == dmin

    @pytest.mark.parametrize("n", [0, -3, 2.5, True])
    def test_block_length_is_a_count(self, n):
        with pytest.raises(RangeError, match=rf"^block length n {n!r} is not an integer"):
            bsc_id.min_distance(n, 0.5)

    def test_window_sites_share_one_message(self):
        book = gen_codebook(8, 1.0, 2)
        texts = set()
        for build in (lambda: build_example_hypergraphs(book, 0.5, gamma=0.25),
                      lambda: window_split_hypergraph(8, 0.25, 1.0, 0.5),
                      lambda: bsc_id.require_windows(1.0, 0.25, 0.5)):
            with pytest.raises(EpsilonTooLarge) as info:
                build()
            texts.add(str(info.value))
        assert texts == {"epsilon 0.5 must be below (theta_delta - theta_0)"
                         "/(theta_delta + theta_0) = 0.25 for delta 1.0, gamma 0.25"}

    @pytest.mark.parametrize("epsilon", [0.0, -0.1, float("nan")])
    def test_window_split_refuses_a_width_that_is_not_positive(self, epsilon):
        with pytest.raises(RangeError, match="must be positive"):
            window_split_hypergraph(8, 0.25, 1.0, epsilon)

    # Each count entry point refuses through the one count check, before any
    # alphabet, law or table is built. 2.5 and "3" ended in a bare TypeError
    # (numpy's UFuncTypeError for a law's "3"), in a 1.0 bound from
    # chernoff_bound or in a run, True ran as 1 (a one-symbol alphabet), and
    # 0 and -3 had messages of their own.
    @pytest.mark.parametrize("value", [0, -3, 2.5, True, "3"])
    @pytest.mark.parametrize("what, run", [
        ("codebook size", lambda v: gen_codebook(8, 0.25, v)),
        ("trial count", lambda v: monte_carlo_id(gen_codebook(16, 0.5, 4), 0.03, 0.3, v)),
        ("worker count",
         lambda v: monte_carlo_id(gen_codebook(16, 0.5, 4), 0.03, 0.3, 100, workers=v)),
        ("block length n", lambda v: chernoff_bound(v, 0.3, 0.1, 0.03)),
        ("block length n", lambda v: channel.power(channel.bsc(0.1), v)),
        ("trials", lambda v: run_branch_swap_harness(v, 0)),
        ("max_edges", lambda v: run_branch_swap_harness(1, 0, max_edges=v)),
        ("max_symbols", lambda v: run_branch_swap_harness(1, 0, max_symbols=v)),
        ("alphabet size", lambda v: Alphabet.of_size(v)),
        ("alphabet size", lambda v: k_identification_table(v, 1)),
        ("subset size", lambda v: k_identification_table(3, v)),
        ("block length n", lambda v: pair_distance_distribution(v, 0, 0.1)),
        ("block length n", lambda v: exact_window_miss(v, 0, 0.03, 0.3, 0.1)),
    ], ids=["gen_codebook", "mc-trials", "mc-workers", "chernoff", "power",
            "harness-trials", "harness-max_edges", "harness-max_symbols", "of_size",
            "k-id-messages", "k-id-subset", "distance-law", "window-miss"])
    def test_counts_are_refused_alike(self, what, run, value):
        with pytest.raises(RangeError,
                           match=f"^{re.escape(f'{what} {value!r}')} is not an integer >= 1$"):
            run(value)

    # NaN ended in a bare ValueError from math.ceil, and infinity and an n
    # whose product with delta leaves the float range in an OverflowError
    @pytest.mark.parametrize("n, delta", [(8, float("nan")), (8, float("inf")),
                                          (8, float("-inf")), (10**400, 0.5)],
                             ids=["nan", "inf", "-inf", "huge-n"])
    def test_minimum_distance_must_be_finite(self, n, delta):
        text = f"minimum distance ceil(n * delta) at n {n}, delta {delta} is not finite"
        for run in (bsc_id.min_distance, lambda n, delta: gen_codebook(n, delta, 2)):
            with pytest.raises(RangeError, match=f"^{re.escape(text)}$"):
                run(n, delta)

    # A width that is not positive made every pair a reject or every
    # distance a miss: exact_error_rates(book, 0.03, nan) gave (1.0, 0.0).
    @pytest.mark.parametrize("epsilon", [float("nan"), 0.0, -0.1])
    @pytest.mark.parametrize("run", [
        lambda eps: exact_error_rates(gen_codebook(16, 0.5, 4), 0.03, eps),
        lambda eps: exact_window_miss(10, 3, 0.03, eps, 0.1),
        lambda eps: monte_carlo_id(gen_codebook(16, 0.5, 4), 0.03, eps, 100),
        lambda eps: id_decoder("0000", "0001", 4, 0.03, eps, mode="paper-windows"),
    ], ids=["exact_error_rates", "exact_window_miss", "monte_carlo_id", "id_decoder"])
    def test_decision_rule_refuses_a_width_that_is_not_positive(self, run, epsilon):
        with pytest.raises(RangeError, match=f"^epsilon {epsilon} must be positive$"):
            run(epsilon)

    # a string ended in a bare TypeError from the comparison, and True ran as 1
    @pytest.mark.parametrize("value", ["0.1", True, None])
    @pytest.mark.parametrize("what, run", [
        ("gamma", beta),
        ("delta", lambda v: theta(v, 0.1)),
        ("probability", binary_entropy),
        ("crossover probability", channel.bsc),
        ("epsilon", lambda v: chernoff_bound(100, v, 0.1, 0.03)),
        ("epsilon", lambda v: exact_window_miss(10, 3, 0.03, v, 0.1)),
    ], ids=["beta", "theta", "binary_entropy", "bsc", "chernoff", "window_miss"])
    def test_probabilities_and_widths_must_be_real_numbers(self, what, run, value):
        with pytest.raises(RangeError,
                           match=f"^{re.escape(f'{what} {value!r}')} is not a real number$"):
            run(value)

    def test_random_word_length_is_capped_before_any_draw(self, monkeypatch):
        cap = channel.DEFAULT_PRODUCT_CAP

        def refuse(*args):
            raise AssertionError("drew before checking the word length")

        monkeypatch.setattr(bsc_id, "named_rng", refuse)
        for n in (cap + 1, 10**300):
            with pytest.raises(CapacityError,
                               match=f"^random-greedy word: {n} entries exceed the cap {cap}$"):
                gen_codebook(n, 0.5, 2, strategy="random-greedy")

    def test_one_word_has_no_pairs(self):
        book = gen_codebook(8, 0.5, 1)
        with pytest.raises(ShapeError, match="^distinct-message pairs need at least "
                                             "two codewords, got 1$"):
            build_example_hypergraphs(book, 0.3, gamma=0.03)
