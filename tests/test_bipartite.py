import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from lhckit import (
    BITS,
    Alphabet,
    Channel,
    EdgeMap,
    FunctionTable,
    assemble_id_code,
    bsc,
    check_branch_swap,
    code_error_profile,
    complete_1_uniform,
    decompose,
    deterministic_channel,
    identity_channel,
    infer_edge_map,
    lambda_profile,
    run_branch_swap_harness,
    sandwich_transfer,
    semi_det_split,
    tensor,
)
from lhckit import bipartite, bsc_id, channel, decomposition, jsonio
from lhckit.bipartite import random_branch_swap_instance
from lhckit.errors import (
    CapacityError,
    EdgeCountMismatch,
    HypothesisViolated,
    RangeError,
    RequiresPartition,
    ShapeError,
)
from lhckit.hypergraph import Hypergraph
from lhckit.verify import _match, edge_cost_matrix, one_sided_costs, one_sided_side

import oracles
from oracles import word_channel_rows
from conftest import rand_channel, rand_partition, sharp_channel

HARNESS_300 = json.loads(
    (Path(__file__).parent / "data" / "falsify" / "harness_300.json").read_text())


def pair_hypergraph(alpha: Alphabet, match_pairs, mismatch_pairs) -> Hypergraph:
    return Hypergraph(alpha, (tuple(sorted(mismatch_pairs)),
                              tuple(sorted(match_pairs))))


def square_split(m: int, alpha: Alphabet) -> Hypergraph:
    match = [i * m + i for i in range(m)]
    mismatch = [i * m + j for i in range(m) for j in range(m) if i != j]
    return pair_hypergraph(alpha, match, mismatch)


def repetition_split_args() -> tuple:
    """The n = 6 repetition-code product channel, its hypergraphs and mu."""
    n, gamma, t = 6, 0.03, 2
    book = bsc_id.gen_codebook(n, 1.0, 2)
    cw = Alphabet(book.words)
    full = bsc_id.word_alphabet(n)
    phi1 = Channel(cw, full, word_channel_rows(book.words, n, gamma))
    ex = bsc_id.build_example_hypergraphs(book, epsilon=0.3, gamma=gamma)
    hyper_d = bsc_id.threshold_split_hypergraph(n, t)
    b = bsc_id.beta(gamma)
    fr = float(binom.sf(t, n, b))
    fa = float(binom.cdf(t, n, 1.0 - b))
    mu = 2.0 * np.array([fa, fr]) + 1e-9
    return phi1, phi1, ex.hyper_c, hyper_d, EdgeMap.identity(2), mu


def checked_semi_det_split(phi1, phi2, source, target, e_edge, mu):
    """Reference route: both factorization orders as checked decompose calls."""
    lam = lambda_profile(tensor(phi1, phi2), source, target, e_edge)
    first = decompose(tensor(identity_channel(phi1.input), phi2),
                      tensor(phi1, identity_channel(phi2.output)),
                      source, target, e_edge, kappa=0.5, mu=mu, lam=lam)
    second = decompose(tensor(phi1, identity_channel(phi2.input)),
                       tensor(identity_channel(phi1.output), phi2),
                       source, target, e_edge, kappa=0.5, mu=mu, lam=lam)
    return first, second


def product_split_instance(rng: np.random.Generator) -> tuple:
    """Sharp phi1 x phi2 from the preimage partition of a random target.

    Each source edge is the preimage of a target edge under the two
    channels' most likely outputs; target edges without a preimage are
    dropped, and the edge map is a random bijection.
    """
    a1, a2, b1, b2 = (Alphabet.of_size(int(rng.integers(1, 4)), prefix)
                      for prefix in ("a", "b", "u", "v"))
    f1 = rng.integers(b1.size, size=a1.size)
    f2 = rng.integers(b2.size, size=a2.size)
    noise = rng.uniform(0.0, 0.12, size=2)
    phi1 = sharp_channel(rng, a1, b1, f1, noise[0])
    phi2 = sharp_channel(rng, a2, b2, f2, noise[1])
    blocks = rand_partition(rng, b1.product(b2),
                            int(rng.integers(1, b1.size * b2.size + 1))).edges
    image = [int(f1[i]) * b2.size + int(f2[j])
             for i in range(a1.size) for j in range(a2.size)]
    pairs = [(pre, block) for block in blocks
             if (pre := tuple(v for v, y in enumerate(image) if y in block))]
    perm = [int(x) for x in rng.permutation(len(pairs))]
    source = Hypergraph(a1.product(a2), tuple(pre for pre, _ in pairs))
    target = Hypergraph(b1.product(b2), tuple(pairs[perm.index(j)][1]
                                              for j in range(len(pairs))))
    e_edge = EdgeMap(len(pairs), len(pairs), perm)
    lam = lambda_profile(tensor(phi1, phi2), source, target, e_edge)
    mu = np.minimum(1.0, 2.0 * lam + rng.uniform(0.0, 0.3, size=lam.size))
    return phi1, phi2, source, target, e_edge, mu


def same_split(got, ref) -> bool:
    """Blocks and both stage certificates equal to the last bit."""
    return got.intermediate == ref.intermediate and all(
        a.edge_map == b.edge_map and a.passed == b.passed
        and a.failing_edges == b.failing_edges
        and a.lam.tobytes() == b.lam.tobytes()
        and a.per_vertex_success.tobytes() == b.per_vertex_success.tobytes()
        for a, b in ((got.cert_phi, ref.cert_phi), (got.cert_gamma, ref.cert_gamma))
    )


class TestSemiDetSplit:
    def test_identity_channels_recover_source_structure(self):
        msgs = Alphabet.of_size(2)
        ident = identity_channel(msgs)
        h = square_split(2, msgs.product(msgs))
        split_g1, split_g2 = semi_det_split(ident, ident, h, h, EdgeMap.identity(2),
                                            mu=np.array([0.3, 0.3]))
        assert split_g1.intermediate.edges == h.edges
        assert split_g2.intermediate.edges == h.edges
        assert split_g1.cert_phi.passed and split_g2.cert_phi.passed

    def test_repetition_instance_certs_pass(self):
        args = repetition_split_args()
        mu = args[-1]
        split_g1, split_g2 = semi_det_split(*args)
        assert split_g1.cert_phi.passed and split_g2.cert_phi.passed
        assert split_g1.intermediate.edge_count == split_g2.intermediate.edge_count == 2
        # certified levels come straight from the binomial tails
        assert np.all(split_g1.cert_phi.lam <= mu + 1e-15)

    def test_hypotheses_checked_once(self, monkeypatch):
        """One composite check for both orders: 1 compose, 1 composite
        profile and 4 stage certificates."""
        calls = {"compose": 0, "lambda_profile": 0, "verify_lhc": 0}
        for name in calls:
            real = getattr(decomposition, name)

            def counted(*a, _real=real, _name=name, **kw):
                calls[_name] += 1
                return _real(*a, **kw)

            monkeypatch.setattr(decomposition, name, counted)
        semi_det_split(*repetition_split_args())
        assert calls == {"compose": 1, "lambda_profile": 1, "verify_lhc": 4}

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_equals_two_checked_decompose_calls(self, seed):
        """Skipping the second order's checks changes no block and no bit."""
        args = product_split_instance(np.random.default_rng(seed))
        try:
            ref = checked_semi_det_split(*args)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                semi_det_split(*args)
            assert str(got.value) == str(exc)
            return
        split_g1, split_g2 = semi_det_split(*args)
        assert same_split(split_g1, ref[0])
        assert same_split(split_g2, ref[1])

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
        phi = Channel(msgs, full, word_channel_rows(book.words, n, gamma))

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

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_harness_keeps_its_tallies_and_profiles(self, seed):
        """300 trials per seed: the tallies, and the edge maps and float.hex
        of both profiles of every counterexample, as first recorded."""
        summary = run_branch_swap_harness(300, seed)
        got = {
            "hypothesis_held": summary.hypothesis_held,
            "conclusion_held": summary.conclusion_held,
            "counterexamples": [
                {"hypothesis_map": list(c.hypothesis_map.mapping),
                 "conclusion_map": list(c.conclusion_map.mapping),
                 "hypothesis_profile": [x.hex() for x in c.hypothesis_profile.tolist()],
                 "conclusion_profile": [x.hex() for x in c.conclusion_profile.tolist()]}
                for c in summary.counterexamples],
        }
        assert got == HARNESS_300[str(seed)]

    @pytest.mark.parametrize("kwargs, shown", [
        ({"trials": 2.5}, "trials 2.5"),
        ({"trials": True}, "trials True"),
        ({"trials": 0}, "trials 0"),
        ({"max_edges": 0}, "max_edges 0"),
        ({"max_edges": 2.5}, "max_edges 2.5"),
        ({"max_symbols": 0}, "max_symbols 0"),
    ])
    def test_harness_refuses_bad_counts_by_name(self, kwargs, shown):
        args = {"trials": 5, "seed": 1, **kwargs}
        with pytest.raises(RangeError, match=rf"^{re.escape(shown)} is not an integer >= 1$"):
            run_branch_swap_harness(**args)

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

    def test_conclusion_side_edge_count_checked(self):
        # hyper_i and hyper_f agree with each other, so neither inference
        # sees the mismatch, and a one-entry lam would broadcast over both
        # conclusion edges
        a1, a2, x1, x2 = (Alphabet.of_size(2, prefix) for prefix in "abuv")

        def one_edge(alpha):
            return Hypergraph(alpha, (tuple(range(alpha.size)),))

        with pytest.raises(EdgeCountMismatch, match="1 hyper_h edges vs 2 hyper_i edges"):
            check_branch_swap(Channel(a2, x2, np.eye(2)), one_edge(a1.product(a2)),
                              one_edge(a1.product(x2)), square_split(2, x1.product(a2)),
                              square_split(2, x1.product(x2)), 0.3)

    def test_wrong_length_lam_rejected(self):
        phi, h, g, i, f, _ = random_branch_swap_instance(np.random.default_rng(0))
        assert h.edge_count == 1
        with pytest.raises(ShapeError, match=r"lam must have one entry per edge \(1\)"):
            check_branch_swap(phi, h, g, i, f, [0.1, 0.2, 0.3])


def assert_same_harness(summary, looped) -> None:
    """A harness summary equals ``oracles.looped_harness``'s run: the tallies,
    and each counterexample in order with its maps, profile bytes and dump."""
    assert (summary.hypothesis_held, summary.conclusion_held) == looped[:2]
    assert len(summary.counterexamples) == len(looped[2])
    for got, want in zip(summary.counterexamples, looped[2]):
        assert got.hypothesis_map == want.hypothesis_map
        assert got.conclusion_map == want.conclusion_map
        assert got.hypothesis_profile.tobytes() == want.hypothesis_profile.tobytes()
        assert got.conclusion_profile.tobytes() == want.conclusion_profile.tobytes()
        assert json.dumps(jsonio.counterexample_to_dict(got), sort_keys=True) == \
            json.dumps(jsonio.counterexample_to_dict(want), sort_keys=True)


def test_harness_reads_no_labels(monkeypatch):
    """Alphabets of the draws and their checks are decided by their rules:
    no label is built, counterexamples included, until a file is written."""
    read = []
    labels = Alphabet.labels
    monkeypatch.setattr(Alphabet, "labels",
                        property(lambda a: read.append(a) or labels.fget(a)))
    summary = run_branch_swap_harness(300, 0)
    assert summary.counterexamples and not read
    jsonio.counterexample_to_dict(summary.counterexamples[0])
    assert read


class TestChunkedHarness:
    """The harness costs a chunk of trials in one kernel call; it must give
    what one ``check_branch_swap`` call per trial gives."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 12),
           st.integers(1, 5), st.integers(1, 9), st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_one_check_per_trial(self, seed, chunks, chunk, max_edges,
                                        max_symbols, data):
        """1 to 3 chunks of trials, the last one full or short."""
        trials = (chunks - 1) * chunk + data.draw(st.integers(1, chunk))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bipartite, "_chunk_trials", lambda *_: chunk)
            summary = run_branch_swap_harness(trials, seed, max_edges, max_symbols)
        assert summary.trials == trials
        assert_same_harness(summary, oracles.looped_harness(trials, seed, max_edges,
                                                            max_symbols))

    @pytest.mark.parametrize("seed, chunk", [(0, 1), (1, 7), (2, 64), (3, 299)])
    def test_counterexamples_across_chunks(self, seed, chunk):
        """The recorded 300-trial runs, each with counterexamples, cut into
        chunks of several sizes."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bipartite, "_chunk_trials", lambda *_: chunk)
            summary = run_branch_swap_harness(300, seed)
        assert summary.counterexamples
        assert_same_harness(summary, oracles.looped_harness(300, seed))

    @staticmethod
    def kernel_entries(sides) -> int:
        """Terms plus mass-table entries of one ``one_sided_costs`` call."""
        width = max(target.edge_count for *_, target, _ in sides) + 1
        return sum(other.size * phi.rows.size + source.vertices.size * width
                   for phi, other, source, _, _ in sides)

    def test_kernel_batch_is_bounded_by_the_chunk_constant(self, monkeypatch):
        """The largest kernel call holds as many sides, and no more terms and
        mass-table entries than the constant allows, at either trial count."""
        calls = []

        def recording(sides):
            calls.append((len(sides), self.kernel_entries(sides)))
            return one_sided_costs(sides)

        monkeypatch.setattr(bipartite, "one_sided_costs", recording)
        chunk = bipartite._chunk_trials(5, 9)
        largest = []
        for trials in (2 * chunk + 1, 5 * chunk):
            calls.clear()
            run_branch_swap_harness(trials, 4, max_edges=5, max_symbols=9)
            assert len(calls) == -(-trials // chunk)
            assert max(entries for _, entries in calls) <= bipartite._CHUNK_TERMS
            largest.append(max(sides for sides, _ in calls))
        assert largest == [2 * chunk, 2 * chunk]

    @pytest.mark.parametrize("max_edges, max_symbols", [(1, 1), (3, 3), (9, 4), (5, 9)])
    def test_a_chunk_of_the_largest_draws_fits_the_constant(self, max_edges, max_symbols):
        """A chunk of the largest instances the draw can give, every alphabet
        of max_symbols symbols and as many edges as allowed, is within the
        constant."""
        rng = np.random.default_rng(0)
        alpha = Alphabet.of_size(max_symbols, "a")
        square = alpha.product(alpha)
        edges = min(max_edges, square.size)
        h, g, i, f = (bipartite.random_partition(rng, square, edges) for _ in range(4))
        phi = bipartite.random_channel(rng, alpha, alpha)
        _, sides = bipartite._branch_swap_sides(phi, h, g, i, f, 0.3)
        chunk = bipartite._chunk_trials(max_edges, max_symbols)
        assert self.kernel_entries(sides * chunk) <= bipartite._CHUNK_TERMS
        assert self.kernel_entries(sides * (chunk + 1)) > bipartite._CHUNK_TERMS


def one_sided_rows(rng: np.random.Generator, kind: str, inp: int, out: int) -> np.ndarray:
    """Rows of a kind the harness and the codes meet: Dirichlet, a noisy
    map, a map, or a map whose other entries are 0.0 and the least
    subnormal."""
    if kind == "dirichlet":
        return rng.dirichlet(np.ones(out), size=inp)
    targets = rng.integers(out, size=inp)
    if kind == "sharp":
        rows = np.full((inp, out), 0.2 / out)
        rows[np.arange(inp), targets] += 0.8
        return rows
    rows = np.zeros((inp, out)) if kind == "one-hot" else \
        rng.choice([0.0, 5e-324], size=(inp, out))
    rows[np.arange(inp), targets] = 1.0
    return rows


def hop_alphabets(phi: Channel, other: Alphabet, phi_first: bool) -> tuple:
    """Source and target alphabets of id_other x phi (phi x id_other)."""
    if phi_first:
        return phi.input.product(other), phi.output.product(other)
    return other.product(phi.input), other.product(phi.output)


def one_sided_hop(other_size: int, inp: int, out: int, edges: int, phi_first: bool,
                  rng: np.random.Generator, kind: str = "dirichlet") -> tuple:
    """phi, the other factor, and random partitions of the hop's source and
    target product alphabets with equally many edges."""
    other = Alphabet.of_size(other_size, "a")
    phi = Channel(Alphabet.of_size(inp, "b"), Alphabet.of_size(out, "x"),
                  one_sided_rows(rng, kind, inp, out))
    source_alpha, target_alpha = hop_alphabets(phi, other, phi_first)
    k = min(edges, source_alpha.size, target_alpha.size)
    return (phi, other, rand_partition(rng, source_alpha, k),
            rand_partition(rng, target_alpha, k))


def vertex_left_out(hyper: Hypergraph) -> Hypergraph:
    """hyper with the last vertex of its largest edge in no edge, where that
    edge has another vertex."""
    edges = list(hyper.edges)
    largest = max(range(len(edges)), key=lambda e: len(edges[e]))
    if len(edges[largest]) > 1:
        edges[largest] = edges[largest][:-1]
    return Hypergraph(hyper.vertices, tuple(edges))


def dense_hop(phi, other, phi_first: bool) -> Channel:
    """The product channel the one-sided hops no longer build."""
    ident = identity_channel(other)
    return tensor(phi, ident) if phi_first else tensor(ident, phi)


def one_sided_route(phi, other, source, target, phi_first: bool) -> tuple:
    """Cost, map and profile of one hop on the one route every one-sided
    hop takes: ``one_sided_side``, ``one_sided_costs``, ``_match``."""
    cost = one_sided_costs([one_sided_side(phi, other, source, target, phi_first)])[0]
    mapping, picked = _match(cost)
    return cost, EdgeMap(source.edge_count, target.edge_count, mapping), np.array(picked)


class TestOneSidedHop:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 4),
           st.booleans(), st.sampled_from(["dirichlet", "sharp", "one-hot", "subnormal"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_costs_map_and_profile_equal_the_dense_product(
            self, other_size, inp, out, edges, phi_first, kind, seed):
        """Byte for byte: the full cost matrix against the dense oracle, and
        the map and profile against the oracle and ``infer_edge_map`` of the
        product channel."""
        rng = np.random.default_rng(seed)
        phi, other, source, target = one_sided_hop(other_size, inp, out, edges,
                                                   phi_first, rng, kind)
        cost, f_e, profile = oracles.dense_one_sided(phi, other, source, target, phi_first)
        got_cost, got_map, got_profile = one_sided_route(phi, other, source, target, phi_first)
        assert got_cost.tobytes() == cost.tobytes()
        dense_map, dense_profile = infer_edge_map(dense_hop(phi, other, phi_first),
                                                  source, target)
        assert got_map == f_e == dense_map
        assert got_profile.tobytes() == profile.tobytes() == dense_profile.tobytes()

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 4), st.booleans(),
           st.sampled_from(["dirichlet", "sharp", "one-hot", "subnormal"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_more_edges_than_the_other_factor_has_symbols(
            self, other_size, inp, spread, phi_first, kind, seed):
        """A singleton source partition, so the edge count is |other| times
        phi's input count, and a target partition with as many edges over
        up to four times as many outputs: the cost matrix against the dense
        oracle, and the map and profile against ``infer_edge_map`` of the
        product channel."""
        rng = np.random.default_rng(seed)
        phi, other, _, _ = one_sided_hop(other_size, inp, inp * spread, 1,
                                         phi_first, rng, kind)
        source_alpha, target_alpha = hop_alphabets(phi, other, phi_first)
        source = Hypergraph(source_alpha, tuple((v,) for v in range(source_alpha.size)))
        target = rand_partition(rng, target_alpha, source_alpha.size)
        cost = oracles.dense_one_sided_cost(phi, other, source, target, phi_first)
        got_cost, got_map, got_profile = one_sided_route(phi, other, source, target, phi_first)
        assert got_cost.tobytes() == cost.tobytes()
        dense_map, dense_profile = infer_edge_map(dense_hop(phi, other, phi_first),
                                                  source, target)
        assert got_map == dense_map
        assert got_profile.tobytes() == dense_profile.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(0, 4),
           st.sampled_from(["dirichlet", "sharp", "one-hot", "subnormal"]),
           st.integers(8, 16), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_one_batch_adds_every_mass_left_to_right(self, seed, more, kind, out, left_out):
        """Sides of both factor orders in one kernel call, in random order:
        a one-vertex source whose one target edge has 8 to 16 vertices (one
        of them maybe in no edge), a singleton source partition with more
        edges than the other factor has symbols, and up to 4 random hops,
        some of whose targets leave a vertex in no edge. Each side's cost
        matrix is the left-to-right oracle's, byte for byte, and the dense
        oracle's wherever the source has 2 or more vertices. ``edge_mass``
        raises throughout: no side takes another route."""
        rng = np.random.default_rng(seed)

        def flip() -> bool:
            return bool(rng.integers(2))

        phi_first = flip()
        phi, other, source, target = one_sided_hop(1, 1, out, 1, phi_first, rng, kind)
        sides = [(phi, other, source, vertex_left_out(target) if left_out else target,
                  phi_first)]
        phi_first, inp = flip(), int(rng.integers(2, 5))
        phi, other, _, _ = one_sided_hop(int(rng.integers(1, inp)), inp,
                                         inp * int(rng.integers(1, 4)), 1, phi_first, rng, kind)
        source_alpha, target_alpha = hop_alphabets(phi, other, phi_first)
        source = Hypergraph(source_alpha, tuple((v,) for v in range(source_alpha.size)))
        sides.append((phi, other, source, rand_partition(rng, target_alpha, source_alpha.size),
                      phi_first))
        for _ in range(more):
            phi_first = flip()
            phi, other, source, target = one_sided_hop(
                *(int(x) for x in rng.integers(1, 6, size=3)), int(rng.integers(1, 5)),
                phi_first, rng, kind)
            if flip():
                target = vertex_left_out(target)
            sides.append((phi, other, source, target, phi_first))
        sides = [one_sided_side(*sides[j]) for j in rng.permutation(len(sides))]
        with mock.patch("lhckit.verify.edge_mass", side_effect=AssertionError("edge_mass")):
            costs = one_sided_costs(sides)
        assert len(costs) == len(sides)
        for cost, side in zip(costs, sides):
            assert cost.tobytes() == oracles.left_to_right_one_sided_cost(*side).tobytes()
            if side[2].vertices.size >= 2:
                assert cost.tobytes() == oracles.dense_one_sided_cost(*side).tobytes()

    @pytest.mark.parametrize("phi_first", [False, True])
    def test_one_vertex_source_adds_its_row_left_to_right(self, phi_first):
        """With one source vertex the product's one row is phi's, which numpy
        sums pairwise once it has 8 or more entries; the kernel adds it left
        to right like every other row."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            phi, other, source, target = one_sided_hop(1, 1, 16, 1, phi_first, rng)
            left_to_right = 0.0
            for p in phi.rows[0].tolist():
                left_to_right += p
            if left_to_right != phi.rows[0].sum():
                break
        else:
            pytest.fail("no row whose pairwise sum differs from the left-to-right one")
        got, _, _ = one_sided_route(phi, other, source, target, phi_first)
        assert got.tobytes() == oracles.left_to_right_one_sided_cost(
            phi, other, source, target, phi_first).tobytes()
        assert got[0, 0] == 1.0 - left_to_right != 1.0 - phi.rows[0].sum()

    @staticmethod
    def refusal_instance(phi_first: bool) -> tuple:
        """A 2 x 2 hop whose source and target are split into two edges."""
        phi, other, _, _ = one_sided_hop(2, 2, 2, 2, phi_first, np.random.default_rng(0))
        return (phi, other, *(square_split(2, alpha)
                              for alpha in hop_alphabets(phi, other, phi_first)))

    # (argument, change, error, message): each refusal of the dense route,
    # which ``one_sided_side`` raises with the same class and message
    REFUSALS = [
        ("source", lambda h: Hypergraph(h.vertices, ((0, 1), (1, 2))), RequiresPartition,
         "source edges must be pairwise disjoint"),
        ("target", lambda h: Hypergraph(h.vertices, ((0, 1), (1, 2))), RequiresPartition,
         "target edges must be pairwise disjoint"),
        ("source", lambda h: relabeled(h), ShapeError,
         "channel input alphabet must equal the source vertex set: 4 labels against 4, "
         "first differing at position 0: '{}' against 'z0'"),
        ("target", lambda h: relabeled(h), ShapeError,
         "channel output alphabet must equal the target vertex set: 4 labels against 4, "
         "first differing at position 0: '{}' against 'z0'"),
        ("target", lambda h: first_edge_split(h), EdgeCountMismatch,
         "2 source edges vs 3 target edges"),
        # two faults: the first check to meet one reports it
        ("source", lambda h: relabeled(Hypergraph(h.vertices, ((0, 1), (1, 2)))),
         RequiresPartition, "source edges must be pairwise disjoint"),
        ("target", lambda h: first_edge_split(relabeled(h)), ShapeError,
         "channel output alphabet must equal the target vertex set: 4 labels against 4, "
         "first differing at position 0: '{}' against 'z0'"),
    ]

    @pytest.mark.parametrize("phi_first", [False, True])
    @pytest.mark.parametrize("arg, change, error, message", REFUSALS)
    def test_refusals_are_the_dense_routes(self, phi_first, arg, change, error, message):
        phi, other, source, target = self.refusal_instance(phi_first)
        hyper = {"source": source, "target": target}
        # the channel side's first label is the unchanged hypergraph's
        message = message.format(hyper[arg].vertices.labels[0])
        hyper[arg] = change(hyper[arg])
        dense = dense_hop(phi, other, phi_first)
        for route in (lambda: one_sided_side(phi, other, hyper["source"],
                                             hyper["target"], phi_first),
                      lambda: infer_edge_map(dense, hyper["source"], hyper["target"])):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                route()

    def test_overlapping_target_edges_are_refused_before_any_cost(self):
        """The kernel files each target vertex under one edge, so it would
        cost overlapping edges wrongly ([[0.8, 0.7], [1.0, 0.0]] here, where
        the product gives [[0.0, 0.7], [0.8, 0.0]]): both routes refuse them."""
        other = Alphabet.of_size(2, "a")
        phi = Channel(Alphabet.of_size(2, "b"), Alphabet.of_size(2, "x"),
                      np.array([[0.7, 0.3], [0.2, 0.8]]))
        source = Hypergraph(other.product(phi.input), ((0, 1), (2, 3)))
        target = Hypergraph(other.product(phi.output), ((0, 1, 2), (1, 2, 3)))
        dense = dense_hop(phi, other, False)
        assert edge_cost_matrix(dense, source, target).tolist() == [[0.0, 0.7], [0.8, 0.0]]
        for route in (lambda: one_sided_side(phi, other, source, target),
                      lambda: infer_edge_map(dense, source, target)):
            with pytest.raises(RequiresPartition,
                               match="^target edges must be pairwise disjoint$"):
                route()


class TestZeroAndOneEdge:
    """Partitions of no edge and of one edge on each route to a map and a
    profile: a float64 profile of shape (k,), the empty map for no edge,
    and the dense product's bits."""

    @staticmethod
    def partition(alphabet: Alphabet, k: int) -> Hypergraph:
        """No edge, or one edge holding every vertex but the last."""
        return Hypergraph(alphabet, ((tuple(range(alphabet.size - 1)),) if k else ()))

    @staticmethod
    def check(f_e: EdgeMap, profile: np.ndarray, want: tuple) -> None:
        k = f_e.source_count
        assert profile.dtype == np.float64 and profile.shape == (k,)
        if k == 0:
            assert f_e == EdgeMap(0, 0, ())
        assert f_e == want[0] and profile.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("k", [0, 1])
    def test_infer_edge_map(self, k):
        rng = np.random.default_rng(k)
        a, x = Alphabet.of_size(3, "a"), Alphabet.of_size(4, "x")
        phi = rand_channel(rng, a, x)
        source, target = self.partition(a, k), self.partition(x, k)
        self.check(*infer_edge_map(phi, source, target),
                   oracles.enumerate_best_edge_map(phi, source, target))

    @pytest.mark.parametrize("k", [0, 1])
    def test_check_branch_swap(self, k):
        rng = np.random.default_rng(10 + k)
        a1, x1 = Alphabet.of_size(2, "a"), Alphabet.of_size(3, "c")
        phi = rand_channel(rng, Alphabet.of_size(2, "b"), Alphabet.of_size(3, "x"))
        h, g = (self.partition(alpha, k) for alpha in hop_alphabets(phi, a1, False))
        i, f = (self.partition(alpha, k) for alpha in hop_alphabets(phi, x1, False))
        report = check_branch_swap(phi, h, g, i, f, 0.5)
        self.check(report.hypothesis_map, report.hypothesis_profile,
                   infer_edge_map(dense_hop(phi, a1, False), h, g))
        self.check(report.conclusion_map, report.conclusion_profile,
                   infer_edge_map(dense_hop(phi, x1, False), i, f))

    @pytest.mark.parametrize("k", [0, 1])
    def test_assembly_hop_one(self, k):
        """``assemble_id_code``'s first hop, enc1 x id_msgs."""
        rng = np.random.default_rng(20 + k)
        msgs = Alphabet.of_size(2)
        enc1 = rand_channel(rng, msgs, Alphabet.of_size(3, "x"))
        h, g1 = (self.partition(alpha, k) for alpha in hop_alphabets(enc1, msgs, True))
        _, f_e, profile = one_sided_route(enc1, msgs, h, g1, True)
        self.check(f_e, profile, infer_edge_map(dense_hop(enc1, msgs, True), h, g1))


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

    @staticmethod
    def labelled_instance(msgs: Alphabet) -> dict:
        x = Alphabet(("u", "v"))
        enc = Channel(msgs, x, np.array([[0.95, 0.05], [0.1, 0.9]]))
        pairs = x.product(x)
        return dict(enc1=enc, enc2=enc, phi=identity_channel(pairs),
                    hyper_h=square_split(2, msgs.product(msgs)),
                    hyper_g1=square_split(2, x.product(msgs)),
                    hyper_g2=square_split(2, msgs.product(x)),
                    hyper_f=square_split(2, pairs), hyper_d=square_split(2, pairs),
                    alpha=0.2, beta=0.2, mu=0.0)

    def test_relabelled_messages_assemble(self):
        # the equality function lives on the encoder's own message pairs
        code, bound = assemble_id_code(**self.labelled_instance(Alphabet(("a", "b"))))
        ref, ref_bound = assemble_id_code(**self.labelled_instance(Alphabet.of_size(2)))
        assert code.f.domain.labels == ("a|a", "a|b", "b|a", "b|b")
        assert code.f.mapping == ref.f.mapping == (1, 0, 0, 1)
        assert np.array_equal(bound, ref_bound)
        assert np.array_equal(code_error_profile(code), code_error_profile(ref))
        for part in ("encoder", "decoder", "channel"):
            assert np.array_equal(getattr(code, part).rows, getattr(ref, part).rows)

    def test_message_separator_collision_refused(self):
        """The message pairs are the first thing formed, so messages whose
        squared labels collide are refused before any other check."""
        msgs = Alphabet(("x", "x|x"))
        kwargs = self.labelled_instance(Alphabet(("a", "b")))
        kwargs["enc1"] = Channel(msgs, kwargs["enc1"].output, kwargs["enc1"].rows)
        with pytest.raises(ShapeError, match="^alphabet labels must be pairwise distinct$"):
            assemble_id_code(**kwargs)

    def test_hyper_h_on_other_pairs_refused(self):
        kwargs = self.labelled_instance(Alphabet(("a", "b")))
        numbered = Alphabet.of_size(2)
        kwargs["hyper_h"] = square_split(2, numbered.product(numbered))
        with pytest.raises(ShapeError, match="^hyper_h must live on the message-pair"):
            assemble_id_code(**kwargs)

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


def relabeled(h: Hypergraph) -> Hypergraph:
    return Hypergraph(Alphabet.of_size(h.vertices.size, "z"), h.edges)


def input_relabeled(c: Channel) -> Channel:
    return Channel(Alphabet.of_size(c.input.size, "z"), c.output, c.rows)


def output_relabeled(c: Channel) -> Channel:
    return Channel(c.input, Alphabet.of_size(c.output.size, "z"), c.rows)


def first_edge_split(h: Hypergraph) -> Hypergraph:
    """One more edge: the first edge's lowest vertex on its own."""
    head, *rest = h.edges
    return Hypergraph(h.vertices, ((head[0],), head[1:], *rest))


def assemble_args() -> tuple:
    msgs = Alphabet.of_size(2)
    x = Alphabet(("u", "v"))
    pairs = x.product(x)
    enc = deterministic_channel(FunctionTable(msgs, x, (0, 1)))
    return assemble_id_code, dict(
        enc1=enc, enc2=enc, phi=identity_channel(pairs),
        hyper_h=square_split(2, msgs.product(msgs)),
        hyper_g1=square_split(2, x.product(msgs)),
        hyper_g2=square_split(2, msgs.product(x)),
        hyper_f=square_split(2, pairs), hyper_d=square_split(2, pairs),
        alpha=np.zeros(2), beta=np.zeros(2), mu=np.zeros(2),
    )


def branch_swap_args() -> tuple:
    a1, a2, x1, x2 = (Alphabet.of_size(2, prefix) for prefix in "abuv")
    return check_branch_swap, dict(
        phi=Channel(a2, x2, np.eye(2)),
        hyper_h=square_split(2, a1.product(a2)),
        hyper_g=square_split(2, a1.product(x2)),
        hyper_i=square_split(2, x1.product(a2)),
        hyper_f=square_split(2, x1.product(x2)), lam=0.3,
    )


def semi_det_split_args() -> tuple:
    msgs = Alphabet.of_size(2)
    ident = identity_channel(msgs)
    h = square_split(2, msgs.product(msgs))
    return semi_det_split, dict(phi1=ident, phi2=ident, source=h, target=h,
                                e_edge=EdgeMap.identity(2), mu=0.3)


def decompose_args() -> tuple:
    bits1 = complete_1_uniform(BITS)
    return decompose, dict(phi=bsc(0.02), gamma=bsc(0.03), source=bits1,
                           target=bits1, e_edge=EdgeMap.identity(2),
                           kappa=0.25, mu=0.38, lam=0.095)


def sandwich_args() -> tuple:
    g = complete_1_uniform(BITS)
    return sandwich_transfer, dict(
        f_vertex=(0, 1), f_edge=EdgeMap.identity(2), h_vertex=(0, 1),
        h_edge=EdgeMap.identity(2), gamma=bsc(0.05), e_edge=EdgeMap.identity(2),
        hyper_f=g, hyper_g=g, hyper_h=g, hyper_i=g, lam=0.1,
    )


def _alphabet_message(side: str, role: str, got: str, want: str) -> str:
    return (f"channel {side} alphabet must equal the {role} vertex set: 4 labels "
            f"against 4, first differing at position 0: '{got}' against '{want}'")


# (instance, argument, change, error, message): each input that a check the
# routine no longer makes itself refused, the error class it still raises
# from the callee that meets it first, and that callee's whole message. An
# alphabet message names both sizes and the first differing label, so the
# mislabelled input can be told from it.
REFUSED_WHERE_USED = [
    (assemble_args, "enc2", input_relabeled, ShapeError,
     "label '0|0' does not end in '|z0'"),
    (assemble_args, "hyper_g1", relabeled, ShapeError,
     _alphabet_message("output", "target", "u|0", "z0")),
    (assemble_args, "hyper_g2", relabeled, ShapeError,
     _alphabet_message("output", "target", "0|u", "z0")),
    (assemble_args, "hyper_f", relabeled, ShapeError,
     _alphabet_message("output", "target", "u|u", "z0")),
    (assemble_args, "phi", input_relabeled, ShapeError,
     _alphabet_message("input", "source", "z0", "u|u")),
    (assemble_args, "phi", output_relabeled, ShapeError,
     _alphabet_message("output", "target", "z0", "u|u")),
    (branch_swap_args, "hyper_g", relabeled, ShapeError,
     _alphabet_message("output", "target", "a0|v0", "z0")),
    (branch_swap_args, "hyper_f", relabeled, ShapeError,
     _alphabet_message("output", "target", "u0|v0", "z0")),
    (branch_swap_args, "hyper_g", first_edge_split, EdgeCountMismatch,
     "2 source edges vs 3 target edges"),
    (branch_swap_args, "hyper_f", first_edge_split, EdgeCountMismatch,
     "2 source edges vs 3 target edges"),
    (branch_swap_args, "hyper_i", first_edge_split, EdgeCountMismatch,
     "2 hyper_h edges vs 3 hyper_i edges"),
    (semi_det_split_args, "source", relabeled, ShapeError,
     _alphabet_message("input", "source", "0|0", "z0")),
    (semi_det_split_args, "target", relabeled, ShapeError,
     _alphabet_message("output", "target", "0|0", "z0")),
    (decompose_args, "gamma", input_relabeled, ShapeError,
     "output alphabet of first must equal input alphabet of second: 2 labels "
     "against 2, first differing at position 0: '0' against 'z0'"),
    (sandwich_args, "e_edge",
     lambda e: EdgeMap(3, e.target_count, (*e.mapping, 0)), ShapeError,
     "edge maps do not compose: counts mismatch"),
    (sandwich_args, "e_edge",
     lambda e: EdgeMap(e.source_count, 3, e.mapping), ShapeError,
     "edge maps do not compose: counts mismatch"),
]


class TestInputsRefusedWhereUsed:
    @pytest.mark.parametrize("instance", sorted({c[0] for c in REFUSED_WHERE_USED},
                                                key=lambda f: f.__name__))
    def test_unchanged_instance_runs(self, instance):
        func, kwargs = instance()
        func(**kwargs)

    @pytest.mark.parametrize("instance, arg, change, error",
                             [case[:4] for case in REFUSED_WHERE_USED])
    def test_same_error_class(self, instance, arg, change, error):
        message = next(case[4] for case in REFUSED_WHERE_USED
                       if case[:4] == (instance, arg, change, error))
        func, kwargs = instance()
        kwargs[arg] = change(kwargs[arg])
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            func(**kwargs)

    def test_one_message_with_one_edge_decoder(self):
        # without the two-edge check this ends in a bare ValueError when the
        # one edge of hyper_h is unpacked into the off- and on-diagonal edges
        msgs = Alphabet.of_size(1)
        x = Alphabet(("u",))
        enc = deterministic_channel(FunctionTable(msgs, x, (0,)))
        pairs = x.product(x)
        one = Hypergraph(pairs, ((0,),))
        with pytest.raises(EdgeCountMismatch, match="exactly 2 edges, got 1"):
            assemble_id_code(enc, enc, identity_channel(pairs),
                             Hypergraph(msgs.product(msgs), ((0,),)),
                             Hypergraph(x.product(msgs), ((0,),)),
                             Hypergraph(msgs.product(x), ((0,),)), one, one,
                             alpha=0.0, beta=0.0, mu=0.0)
