import numpy as np
import pytest
from scipy.stats import binom

from lhckit import (
    Alphabet,
    Channel,
    EdgeMap,
    FunctionTable,
    assemble_id_code,
    bsc,
    check_branch_swap,
    code_error_profile,
    deterministic_channel,
    identity_channel,
    run_branch_swap_harness,
    semi_det_split,
)
from lhckit import bsc_id, channel, jsonio
from lhckit.bipartite import random_branch_swap_instance
from lhckit.errors import (
    CapacityError,
    EdgeCountMismatch,
    HypothesisViolated,
    RequiresPartition,
    ShapeError,
)
from lhckit.hypergraph import Hypergraph


def pair_hypergraph(alpha: Alphabet, match_pairs, mismatch_pairs) -> Hypergraph:
    return Hypergraph(alpha, (tuple(sorted(mismatch_pairs)),
                              tuple(sorted(match_pairs))))


def square_split(m: int, alpha: Alphabet) -> Hypergraph:
    match = [i * m + i for i in range(m)]
    mismatch = [i * m + j for i in range(m) for j in range(m) if i != j]
    return pair_hypergraph(alpha, match, mismatch)


class TestSemiDetSplit:
    def test_identity_channels_recover_source_structure(self):
        msgs = Alphabet.of_size(2)
        ident = identity_channel(msgs)
        h = square_split(2, msgs.product(msgs))
        split = semi_det_split(ident, ident, h, h, EdgeMap.identity(2),
                               mu=np.array([0.3, 0.3]))
        assert split.g1.edges == h.edges
        assert split.g2.edges == h.edges
        assert split.cert_h_to_g1.passed and split.cert_h_to_g2.passed

    def test_repetition_instance_certs_pass(self):
        n, gamma, t = 6, 0.03, 2
        book = bsc_id.gen_codebook(n, 1.0, 2)
        cw = Alphabet(book.words)
        full = bsc_id.word_alphabet(n)
        phi1 = Channel(cw, full, bsc_id.word_channel_rows(book.words, n, gamma))
        ex = bsc_id.build_example_hypergraphs(book, epsilon=0.3, gamma=gamma)
        hyper_d = bsc_id.threshold_split_hypergraph(n, t)
        b = bsc_id.beta(gamma)
        fr = float(binom.sf(t, n, b))
        fa = float(binom.cdf(t, n, 1.0 - b))
        mu = 2.0 * np.array([fa, fr]) + 1e-9
        split = semi_det_split(phi1, phi1, ex.hyper_c, hyper_d,
                               EdgeMap.identity(2), mu=mu)
        assert split.cert_h_to_g1.passed and split.cert_h_to_g2.passed
        assert split.g1.edge_count == split.g2.edge_count == 2
        # certified levels come straight from the binomial tails
        assert np.all(split.cert_h_to_g1.lam <= mu + 1e-15)

    def test_mu_too_small_rejected(self):
        msgs = Alphabet.of_size(2)
        h = square_split(2, msgs.product(msgs))
        phi = bsc(0.05)
        bits_pairs = square_split(2, Alphabet(("0", "1")).product(Alphabet(("0", "1"))))
        with pytest.raises(HypothesisViolated):
            semi_det_split(phi, phi, bits_pairs, bits_pairs, EdgeMap.identity(2),
                           mu=np.array([1e-6, 1e-6]))


class TestBranchSwap:
    def test_identical_shapes_give_equal_verdicts(self):
        rng = np.random.default_rng(0)
        a1 = Alphabet.of_size(2, "a")
        a2 = Alphabet.of_size(2, "b")
        x2 = Alphabet.of_size(2, "v")
        phi = Channel(a2, x2, rng.dirichlet(np.ones(2), size=2))
        h = square_split(2, a1.product(a2))
        g = square_split(2, a1.product(x2))
        report = check_branch_swap(phi, h, g, h, g, np.array([0.3, 0.3]))
        assert report.hypothesis_holds == report.conclusion_holds

    def test_repetition_instance_both_pass(self):
        n, gamma, t = 6, 0.03, 2
        book = bsc_id.gen_codebook(n, 1.0, 2)
        msgs = Alphabet.of_size(2)
        cw = Alphabet(book.words)
        full = bsc_id.word_alphabet(n)
        phi = Channel(msgs, full, bsc_id.word_channel_rows(book.words, n, gamma))

        def near_split(first_words, alpha):
            match, mismatch = [], []
            for i, w in enumerate(first_words):
                for y in range(full.size):
                    d = (int(w, 2) ^ y).bit_count()
                    (match if d <= t else mismatch).append(i * full.size + y)
            return pair_hypergraph(alpha, match, mismatch)

        h = square_split(2, msgs.product(msgs))
        g = near_split(book.words, msgs.product(full))
        i_hyper = square_split(2, cw.product(msgs))
        f = near_split(book.words, cw.product(full))
        report = check_branch_swap(phi, h, g, i_hyper, f, np.array([0.02, 0.02]))
        assert report.hypothesis_holds and report.conclusion_holds

    def test_harness_counts_and_dumps(self):
        summary = run_branch_swap_harness(100, seed=5)
        assert summary.trials == 100
        assert 0 <= summary.hypothesis_held <= 100
        for report in summary.counterexamples:
            dump = jsonio.counterexample_to_dict(report)
            inst = jsonio.instance_from_dict(dump["instance"])
            again = check_branch_swap(inst.phi, inst.hyper_h, inst.hyper_g,
                                      inst.hyper_i, inst.hyper_f, inst.lam)
            assert again.hypothesis_holds and not again.conclusion_holds

    def test_harness_refuses_symbols_over_cap_before_drawing(self, monkeypatch):
        # max_symbols 3 gives a 9 x 9 channel: 81 entries
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 80)
        with pytest.raises(CapacityError, match="max_symbols 3 allows a 9 x 9"):
            run_branch_swap_harness(1, seed=5, max_symbols=3)
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 81)
        assert run_branch_swap_harness(1, seed=5, max_symbols=3).trials == 1

    def test_shape_validation(self):
        rng = np.random.default_rng(1)
        phi, h, g, i, f, lam = random_branch_swap_instance(rng)
        bad_g = Hypergraph(Alphabet.of_size(g.vertices.size, "zz"), g.edges)
        with pytest.raises(ShapeError):
            check_branch_swap(phi, h, bad_g, i, f, lam)

    def test_wrong_length_lam_rejected(self):
        phi, h, g, i, f, _ = random_branch_swap_instance(np.random.default_rng(0))
        assert h.edge_count == 1
        with pytest.raises(ShapeError, match=r"lam must have one entry per edge \(1\)"):
            check_branch_swap(phi, h, g, i, f, [0.1, 0.2, 0.3])


class TestAssembleIdCode:
    def test_noiseless_trivial_encoders(self):
        msgs = Alphabet.of_size(2)
        x = Alphabet(("u", "v"))
        enc = deterministic_channel(FunctionTable(msgs, x, (0, 1)))
        pairs = x.product(x)
        phi = identity_channel(pairs)
        h = square_split(2, msgs.product(msgs))
        g1 = square_split(2, x.product(msgs))
        g2 = square_split(2, msgs.product(x))
        f = square_split(2, pairs)
        d = square_split(2, pairs)
        code, bound = assemble_id_code(
            enc, enc, phi, h, g1, g2, f, d,
            alpha=np.zeros(2), beta=np.zeros(2), mu=np.zeros(2),
        )
        assert np.array_equal(bound, [0, 0])
        assert np.array_equal(code_error_profile(code), [0, 0])

    def test_repetition_instance_matches_binomial_oracle(self):
        n, gamma, t = 6, 0.03, 2
        book = bsc_id.gen_codebook(n, 1.0, 2)
        ex = bsc_id.build_example_hypergraphs(book, epsilon=0.3, gamma=gamma)
        msgs = Alphabet.of_size(2)
        enc = deterministic_channel(
            FunctionTable(msgs, Alphabet(book.words), (0, 1))
        )
        phi = bsc_id.restricted_pair_channel(book, gamma)
        hyper_d = bsc_id.threshold_split_hypergraph(n, t)
        b = bsc_id.beta(gamma)
        fr = float(binom.sf(t, n, b))
        fa = float(binom.cdf(t, n, 1.0 - b))
        mu = np.array([fa, fr]) + 1e-9
        code, bound = assemble_id_code(
            enc, enc, phi, ex.hyper_h, ex.hyper_g1, ex.hyper_g2, ex.hyper_c,
            hyper_d, alpha=np.zeros(2), beta=np.zeros(2), mu=mu,
        )
        profile = code_error_profile(code)
        assert np.all(profile <= bound + 1e-12)
        assert profile[0] == pytest.approx(fa, abs=1e-12)  # false accept
        assert profile[1] == pytest.approx(fr, abs=1e-12)  # false reject

    def test_flipping_window_association_flips_output(self):
        msgs = Alphabet.of_size(2)
        x = Alphabet(("u", "v"))
        enc = deterministic_channel(FunctionTable(msgs, x, (0, 1)))
        pairs = x.product(x)
        h = square_split(2, msgs.product(msgs))
        g1 = square_split(2, x.product(msgs))
        g2 = square_split(2, msgs.product(x))
        f = square_split(2, pairs)
        d = square_split(2, pairs)
        # a channel that swaps match and mismatch pairs flips the decoder bit
        swap = deterministic_channel(FunctionTable(pairs, pairs, (1, 0, 3, 2)))
        code, _ = assemble_id_code(
            enc, enc, swap, h, g1, g2, f, d,
            alpha=np.zeros(2), beta=np.zeros(2), mu=np.zeros(2),
        )
        straight, _ = assemble_id_code(
            enc, enc, identity_channel(pairs), h, g1, g2, f, d,
            alpha=np.zeros(2), beta=np.zeros(2), mu=np.zeros(2),
        )
        assert np.array_equal(code.decoder.rows[:, ::-1], straight.decoder.rows)

    def test_first_hop_edge_swap_gives_same_code(self):
        # hyper_g1 lists its edges in the opposite order from hyper_h, so the
        # first hop's edge map is a swap; beta is tight and asymmetric, so
        # the swapped middle hop passes only with beta carried through it
        msgs = Alphabet.of_size(2)
        x = Alphabet(("u", "v", "w"))
        enc = Channel(msgs, x, np.array([[0.9, 0.05, 0.05], [0.1, 0.8, 0.1]]))
        pairs = x.product(x)
        h = square_split(2, msgs.product(msgs))
        g1 = pair_hypergraph(x.product(msgs), [0, 3], [1, 2, 4, 5])
        g1_swapped = Hypergraph(g1.vertices, g1.edges[::-1])
        g2 = pair_hypergraph(msgs.product(x), [0, 4], [1, 2, 3, 5])
        f = pair_hypergraph(pairs, [0, 4], [1, 2, 3, 5, 6, 7, 8])
        beta = np.array([0.1, 0.2])  # mismatch, match: the exact profile

        def assemble(hyper_g1, beta):
            return assemble_id_code(enc, enc, identity_channel(pairs), h, hyper_g1,
                                    g2, f, f, alpha=np.array([0.1, 0.2]),
                                    beta=beta, mu=np.zeros(2))

        code, bound = assemble(g1, beta)
        swapped_code, swapped_bound = assemble(g1_swapped, beta)
        assert np.array_equal(swapped_bound, bound)
        assert np.array_equal(bound, [0.2, 0.4])
        for part in ("encoder", "decoder", "channel"):
            assert np.array_equal(getattr(swapped_code, part).rows,
                                  getattr(code, part).rows)
        with pytest.raises(HypothesisViolated, match="beta"):
            assemble(g1_swapped, beta[::-1])

    def test_decoder_edge_count_checked(self):
        msgs = Alphabet.of_size(2)
        x = Alphabet(("u", "v"))
        enc = deterministic_channel(FunctionTable(msgs, x, (0, 1)))
        pairs = x.product(x)
        h = square_split(2, msgs.product(msgs))
        g1 = square_split(2, x.product(msgs))
        g2 = square_split(2, msgs.product(x))
        f = square_split(2, pairs)
        d3 = Hypergraph(pairs, ((0,), (1, 2), (3,)))
        with pytest.raises(EdgeCountMismatch):
            assemble_id_code(enc, enc, identity_channel(pairs), h, g1, g2, f, d3,
                             alpha=np.zeros(2), beta=np.zeros(2), mu=np.zeros(2))

    def test_overlapping_decision_windows_refused(self):
        # the channel hop's edge-map inference needs disjoint windows, so an
        # overlap is refused before any decoder is read off
        msgs = Alphabet.of_size(2)
        x = Alphabet(("u", "v"))
        enc = deterministic_channel(FunctionTable(msgs, x, (0, 1)))
        pairs = x.product(x)
        h = square_split(2, msgs.product(msgs))
        g1 = square_split(2, x.product(msgs))
        g2 = square_split(2, msgs.product(x))
        f = square_split(2, pairs)
        overlap = Hypergraph(pairs, ((1, 2, 3), (0, 3)))
        with pytest.raises(RequiresPartition, match="target edges"):
            assemble_id_code(enc, enc, identity_channel(pairs), h, g1, g2, f, overlap,
                             alpha=np.zeros(2), beta=np.zeros(2), mu=np.zeros(2))
