import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from lhckit.bsc_id import (
    Codebook,
    acceptance_threshold,
    beta,
    binary_entropy,
    build_example_hypergraphs,
    chernoff_bound,
    epsilon_max,
    exact_error_rates,
    exact_window_miss,
    gen_codebook,
    id_decoder,
    monte_carlo_id,
    pair_distance_distribution,
    rate_table,
    theta,
    window_interval,
    window_region,
    window_split_hypergraph,
)
from lhckit.errors import (
    EmptyBlock,
    EpsilonTooLarge,
    Infeasible,
    RangeError,
    ShapeError,
)

MODES = ("one-sided-threshold", "paper-windows")


def bsc_pair_distances(n: int) -> np.ndarray:
    from lhckit.bsc_id import pair_distance_table

    return pair_distance_table(n).reshape(-1)


def zip_distance(w1: str, w2: str) -> int:
    return sum(a != b for a, b in zip(w1, w2))


def pairwise_error_rates(codebook, gamma, epsilon, mode):
    """Reference oracle: one convolution law per ordered distinct codeword pair,
    averaged in pair order."""
    n = codebook.n
    thresh = acceptance_threshold(n, gamma, epsilon)
    lo0, hi0 = window_interval(n, gamma, epsilon, 0.0)

    def accept_prob(k: int) -> float:
        law = pair_distance_distribution(n, k, gamma)
        if mode == "one-sided-threshold":
            return law.cdf(thresh)
        d = np.arange(n + 1)
        return float(law.pmf[(d > lo0) & (d < hi0)].sum())

    off = [zip_distance(u, v) for u in codebook.words for v in codebook.words
           if u != v]
    return 1.0 - accept_prob(0), float(np.mean([accept_prob(k) for k in off]))


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
        with pytest.raises(RangeError, match=f"n must be positive, got {n}"):
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

    def test_random_greedy_respects_distance(self):
        book = gen_codebook(64, 0.2, 8, seed=9, strategy="random-greedy")
        dmin = math.ceil(64 * 0.2)
        dists = book.pair_distances()
        off = dists[~np.eye(8, dtype=bool)]
        assert off.min() >= dmin

    def test_distance_validation_in_constructor(self):
        with pytest.raises(ShapeError):
            Codebook(n=3, words=("000", "001"), delta=1.0, dmin=3)

    def test_constructor_names_first_close_pair_in_row_major_order(self):
        # pairs (0, 3) and (1, 2) are both too close; row-major order meets
        # (0, 3) first, column-major order would meet (1, 2) first
        words = ("0000", "1100", "1110", "1000")
        with pytest.raises(ShapeError) as info:
            Codebook(n=4, words=words, delta=0.5, dmin=2)
        assert str(info.value) == "words '0000' and '1000' at distance 1 < 2"

    @given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_pair_distances_match_zip_count(self, n, m, seed):
        rng = np.random.default_rng(seed)
        words = sorted({"".join(map(str, rng.integers(0, 2, size=n)))
                        for _ in range(m)})
        book = Codebook(n=n, words=tuple(words), delta=1 / n, dmin=1)
        expected = [[zip_distance(u, v) for v in words] for u in words]
        assert book.pair_distances().tolist() == expected


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
        probs = [pair_distance_distribution(n, k, gamma).cdf(t)
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
                        delta=0.5, dmin=100)
        got = exact_error_rates(book, 0.05, 0.4, mode=mode)
        want = pairwise_error_rates(book, 0.05, 0.4, mode)
        assert 0.0 < got[1] < 1e-50
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0)


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
            id_decoder("0000", "0000", 4, 0.03, 0.3, 0.5, mode="bogus")

    @pytest.mark.parametrize("workers", [1, 4])
    def test_monte_carlo(self, workers):
        book = gen_codebook(16, 0.5, 4)
        with pytest.raises(RangeError, match="unknown decoder mode 'bogus'"):
            monte_carlo_id(book, 0.05, 0.3, 5000, mode="bogus", workers=workers)

    def test_exact_oracle(self):
        book = gen_codebook(16, 0.5, 4)
        with pytest.raises(RangeError, match="unknown decoder mode 'bogus'"):
            exact_error_rates(book, 0.05, 0.3, mode="bogus")


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
        assert ex.input_edge_of_pair("000000", "000000") == 1
        assert ex.input_edge_of_pair("000000", "111111") == 0
        assert ex.input_edge_of_pair("000000", "000001") is None

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
        far, near = h.edge_sets
        assert {dists[i] for i in near} == {3}
        assert {dists[i] for i in far} == {5}
        with pytest.raises(EpsilonTooLarge):
            window_split_hypergraph(8, 0.25, 1.0, 0.5)

    def test_empty_window_is_named(self):
        # n=8, gamma=0.03: the equal window (0.326, 0.605) holds no integer
        with pytest.raises(EmptyBlock, match=r"equal window \(0\.32\d*, 0\.60\d*\)"):
            window_split_hypergraph(8, 0.03, 0.4, 0.3)


class TestDecoder:
    def test_zero_distance_accepted(self):
        assert id_decoder("0000", "0000", 4, 0.03, 0.3, 0.5) == 1
        # the open two-sided window contains 0 only when it is wide enough
        assert id_decoder("0000", "0000", 4, 0.03, 1.2, 0.5,
                          mode="paper-windows") == 1

    def test_strict_window_excludes_zero_when_narrow(self):
        # 0 is outside the open equal window whenever epsilon < 1; the
        # one-sided threshold rule exists precisely to avoid this artifact
        assert id_decoder("0000", "0000", 4, 0.03, 0.3, 0.5,
                          mode="paper-windows") == 0
        assert id_decoder("0000", "0000", 4, 0.03, 0.3, 0.5) == 1

    def test_full_distance_rejected_in_both_modes(self):
        y1, y2 = "0" * 20, "1" * 20
        for mode in ("one-sided-threshold", "paper-windows"):
            assert id_decoder(y1, y2, 20, 0.03, 0.3, 0.5, mode=mode) == 0

    @pytest.mark.parametrize("word", ["000", "0a00", "0200"])
    def test_malformed_word_rejected(self, word):
        with pytest.raises(ShapeError, match="is not an 4-bit string"):
            id_decoder(word, "0000", 4, 0.03, 0.3, 0.5)

    def test_threshold_boundary_flip(self):
        n, gamma, eps = 100, 0.1, 0.3
        t = acceptance_threshold(n, gamma, eps)
        at = math.floor(t)
        y_base = "0" * n
        y_at = "1" * at + "0" * (n - at)
        y_above = "1" * (at + 1) + "0" * (n - at - 1)
        assert id_decoder(y_base, y_at, n, gamma, eps, 0.5) == 1
        assert id_decoder(y_base, y_above, n, gamma, eps, 0.5) == 0

    def test_outside_both_windows_flagged(self):
        n, gamma, eps, delta = 1000, 0.03, 0.1, 0.5
        lo0, hi0 = window_interval(n, gamma, eps, 0.0)
        lod, hid = window_interval(n, gamma, eps, delta)
        d = int((hi0 + lod) / 2)
        assert window_region(d, n, gamma, eps, delta) == "outside"
        y1 = "0" * n
        y2 = "1" * d + "0" * (n - d)
        assert id_decoder(y1, y2, n, gamma, eps, delta, mode="paper-windows") == 0


class TestMonteCarlo:
    def test_noiseless_channel_never_errs(self):
        book = gen_codebook(16, 0.5, 4, strategy="lexicographic-greedy")
        est = monte_carlo_id(book, 0.0, 0.3, 2000, seed=1)
        assert est.false_rejects == 0 and est.false_accepts == 0

    def test_agrees_with_exact_rates_on_repetition(self):
        book = Codebook(n=64, words=("0" * 64, "1" * 64), delta=1.0, dmin=64)
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

    def test_interval_guard_at_zero(self):
        book = gen_codebook(16, 0.5, 2)
        est = monte_carlo_id(book, 0.0, 0.3, 100, seed=1)
        assert est.false_reject_halfwidth == pytest.approx(3.0 / est.equal_trials)


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

    def test_entropy_endpoints(self):
        assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)
