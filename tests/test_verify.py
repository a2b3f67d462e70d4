import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhckit import (
    Alphabet,
    BITS,
    EdgeMap,
    FunctionTable,
    Hypergraph,
    bsc,
    complete_1_uniform,
    deterministic_channel,
    identity_channel,
    infer_edge_map,
    lambda_profile,
    verify_lhc,
)
from lhckit import verify
from lhckit.errors import (EdgeCountMismatch, HypothesisViolated, RangeError,
                           RequiresPartition, ShapeError)
from lhckit.verify import edge_cost_matrix, edge_vector, per_vertex_success

import oracles
from conftest import rand_channel, rand_partition, sharp_channel

BITS1 = complete_1_uniform(BITS)
ID2 = EdgeMap.identity(2)


def definition_holds(phi, source, target, f_e, lam) -> bool:
    """Direct statement of the defining inequality, as an independent oracle."""
    for a in range(source.vertices.size):
        containing = source.edges_containing(a)
        if not containing:
            continue
        allowed = frozenset.intersection(
            *(frozenset(target.edges[f_e(ei)]) for ei in containing)
        )
        p = float(phi.rows[a, sorted(allowed)].sum()) if allowed else 0.0
        if p + 1e-12 < 1.0 - min(lam[ei] for ei in containing):
            return False
    return True


class TestSuccessProb:
    def test_identity_is_one(self):
        success = per_vertex_success(identity_channel(BITS), BITS1, BITS1, ID2)
        assert success.tolist() == [1.0, 1.0]

    def test_bsc_single_crossover(self):
        assert per_vertex_success(bsc(0.03), BITS1, BITS1, ID2)[0] == pytest.approx(
            0.97, abs=1e-15
        )

    def test_overlapping_edges_disjoint_targets(self):
        source = Hypergraph(Alphabet(("a", "b", "c")), ((0, 1), (1, 2)))
        target = complete_1_uniform(BITS)
        rng = np.random.default_rng(0)
        phi = rand_channel(rng, source.vertices, BITS)
        # vertex b sits in both edges, whose targets are disjoint singletons
        assert per_vertex_success(phi, source, target, EdgeMap(2, 2, (0, 1)))[1] == 0.0

    def test_isolated_vertex(self):
        source = Hypergraph(Alphabet(("a", "b")), ((0,),))
        phi = rand_channel(np.random.default_rng(1), source.vertices, BITS)
        success = per_vertex_success(phi, source, complete_1_uniform(BITS),
                                     EdgeMap(1, 2, (0,)))
        assert success[0] == phi.rows[0, 0] and np.isnan(success[1])


class TestLambdaProfile:
    def test_noiseless_zero(self):
        assert np.array_equal(
            lambda_profile(identity_channel(BITS), BITS1, BITS1, ID2), [0.0, 0.0]
        )

    def test_bsc_profile(self):
        assert np.allclose(
            lambda_profile(bsc(0.03), BITS1, BITS1, ID2), [0.03, 0.03], atol=1e-15
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_minimal_feasible_against_definition(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 4))
        src = rand_partition(rng, Alphabet.of_size(n, "s"), min(2, n))
        tgt = rand_partition(rng, Alphabet.of_size(3, "t"),
                             int(rng.integers(1, 4)))
        phi = rand_channel(rng, src.vertices, tgt.vertices)
        f_e = EdgeMap(src.edge_count, tgt.edge_count,
                      tuple(int(j) for j in
                            rng.integers(tgt.edge_count, size=src.edge_count)))
        prof = lambda_profile(phi, src, tgt, f_e)
        assert definition_holds(phi, src, tgt, f_e, prof)
        for ei in range(src.edge_count):
            if prof[ei] <= 1e-6:
                continue
            reduced = prof.copy()
            reduced[ei] -= 1e-6
            assert not definition_holds(phi, src, tgt, f_e, reduced - 1e-13)


class TestVerify:
    def test_boundary_passes(self):
        prof = lambda_profile(bsc(0.03), BITS1, BITS1, ID2)
        assert verify_lhc(bsc(0.03), BITS1, BITS1, ID2, prof).passed

    def test_reduced_entry_fails_naming_edge(self):
        prof = lambda_profile(bsc(0.03), BITS1, BITS1, ID2)
        prof[1] -= 1e-6
        cert = verify_lhc(bsc(0.03), BITS1, BITS1, ID2, prof)
        assert not cert.passed and cert.failing_edges == (1,)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_monotone_in_lambda(self, seed):
        rng = np.random.default_rng(seed)
        src = rand_partition(rng, Alphabet.of_size(3, "s"), 2)
        tgt = rand_partition(rng, Alphabet.of_size(3, "t"), 2)
        phi = rand_channel(rng, src.vertices, tgt.vertices)
        f_e = EdgeMap(2, 2, tuple(int(j) for j in rng.integers(2, size=2)))
        lam = rng.uniform(0, 1, size=2)
        cert = verify_lhc(phi, src, tgt, f_e, lam)
        if cert.passed:
            bigger = lam + rng.uniform(0, 0.5, size=2)
            assert verify_lhc(phi, src, tgt, f_e, np.minimum(bigger, 1)).passed

    def test_partition_success_is_single_edge_probability(self):
        rng = np.random.default_rng(8)
        src = rand_partition(rng, Alphabet.of_size(4, "s"), 2)
        tgt = rand_partition(rng, Alphabet.of_size(4, "t"), 2)
        phi = rand_channel(rng, src.vertices, tgt.vertices)
        f_e = EdgeMap(2, 2, (1, 0))
        success = per_vertex_success(phi, src, tgt, f_e)
        for a in range(4):
            edge = oracles.unique_edge_of(src, a)
            direct = phi.rows[a, list(tgt.edges[f_e(edge)])].sum()
            assert success[a] == pytest.approx(direct)


class TestRequireWithin:
    def test_message_names_inequality_edge_and_both_values(self):
        with pytest.raises(HypothesisViolated,
                           match=r"^lam <= mu \* kappa fails at edge 1: 0\.3 > 0\.25$"):
            verify.require_within([0.1, 0.3, 0.4], [0.2, 0.25, 0.3], "lam <= mu * kappa")

    def test_nothing_raised_within_verify_slack(self):
        over = 0.2 + verify.VERIFY_SLACK / 2
        verify.require_within([over, 0.0], 0.2, "profile <= lam")
        with pytest.raises(HypothesisViolated, match="^profile <= lam fails at edge 0: "):
            verify.require_within([0.2 + 2 * verify.VERIFY_SLACK, 0.0], 0.2,
                                  "profile <= lam")


class TestWorstFailure:
    def test_worst_member_per_column(self):
        member = np.array([[True, False], [True, True], [False, True]])
        got = verify.worst_failure(np.array([0.9, 0.7, 1.0]), member)
        assert got.tolist() == [1.0 - 0.7, 1.0 - 0.7]

    def test_each_column_of_a_matrix_is_its_own_profile(self):
        rng = np.random.default_rng(3)
        success = rng.uniform(size=(7, 4))
        member = rng.uniform(size=(7, 3)) < 0.6
        member[0] = True  # no empty column
        got = verify.worst_failure(success, member)
        assert got.shape == (3, 4)
        for j in range(4):
            assert got[:, j].tobytes() == verify.worst_failure(success[:, j],
                                                               member).tobytes()


class TestEdgeVector:
    def test_scalar_broadcasts_and_vector_passes(self):
        assert edge_vector(0.25, 3, "mu").tolist() == [0.25, 0.25, 0.25]
        assert edge_vector([0.1, 0.2], 2, "mu").tolist() == [0.1, 0.2]

    def test_wrong_count_names_parameter_and_count(self):
        with pytest.raises(ShapeError, match=r"kappa must have one entry per edge \(3\)"):
            edge_vector([0.1, 0.2], 3, "kappa")

    # a string or a mixed list ended in a bare ValueError, a huge int in an
    # OverflowError, and True was read as 1.0
    @pytest.mark.parametrize("value, text", [
        ("abc", "mu 'abc' is not a real number"),
        (True, "mu True is not a real number"),
        (np.array([True, False, True]), "mu True is not a real number"),
        ([0.1, "a", 0.2], "mu 'a' is not a real number"),
        # a numpy scalar or array entry is named by its value, not its repr
        (np.True_, "mu True is not a real number"),
        ([np.array([0.1]), 0.2, 0.3], "mu [0.1] is not a real number"),
        (10**400, "mu holds a number past the float64 range"),
        ([0.1, 0.2, -10**400], "mu holds a number past the float64 range"),
    ])
    def test_non_number_names_parameter(self, value, text):
        with pytest.raises(RangeError, match=f"^{re.escape(text)}$"):
            edge_vector(value, 3, "mu")

    def test_fraction_array_reads_as_its_list(self):
        values = [Fraction(1, 10), Fraction(1, 4), Fraction(1, 3)]
        got = edge_vector(np.array(values, dtype=object), 3, "mu")
        assert got.dtype == np.float64
        assert got.tobytes() == edge_vector(values, 3, "mu").tobytes()

    @pytest.mark.parametrize("value, text", [
        # a complex entry is refused even where its imaginary part is 0
        (np.array([0.1, 0.2 + 1j, 0.3]), "mu (0.1+0j) is not a real number"),
        (np.array([Fraction(1, 10), "a", None], dtype=object), "mu 'a' is not a real number"),
        (np.array(True), "mu True is not a real number"),
    ])
    def test_non_number_array_names_its_first_bad_entry(self, value, text):
        with pytest.raises(RangeError, match=f"^{re.escape(text)}$") as info:
            edge_vector(value, 3, "mu")
        assert "array(" not in str(info.value)

    @pytest.mark.parametrize("value, edge", [(np.nan, 0), ([0.1, np.nan, np.nan], 1)])
    def test_nan_names_parameter_and_first_edge(self, value, edge):
        with pytest.raises(RangeError, match=f"^mu is NaN at edge {edge}$"):
            edge_vector(value, 3, "mu")

    def test_nan_lambda_does_not_certify(self):
        # NaN compares false against the profile, so unrefused it reads as a pass
        with pytest.raises(RangeError, match="lam is NaN at edge 0"):
            verify_lhc(bsc(0.1), BITS1, BITS1, ID2, np.nan)
        cert = verify_lhc(bsc(0.1), BITS1, BITS1, ID2, 0.1)  # a scalar broadcasts
        assert cert.passed and cert.lam.tolist() == [0.1, 0.1]


class TestInferEdgeMap:
    def test_low_noise_identity(self):
        f_e, lam = infer_edge_map(bsc(0.1), BITS1, BITS1)
        assert f_e.mapping == (0, 1) and np.allclose(lam, [0.1, 0.1])

    def test_high_noise_flip(self):
        f_e, lam = infer_edge_map(bsc(0.9), BITS1, BITS1)
        assert f_e.mapping == (1, 0) and np.allclose(lam, [0.1, 0.1])

    def test_tie_break_identity(self):
        f_e, lam = infer_edge_map(bsc(0.5), BITS1, BITS1)
        assert f_e.mapping == (0, 1) and np.allclose(lam, [0.5, 0.5])

    def test_requires_disjoint_edges(self):
        src = Hypergraph(Alphabet(("a", "b")), ((0, 1), (0,)))
        with pytest.raises(RequiresPartition):
            infer_edge_map(rand_channel(np.random.default_rng(0),
                                        src.vertices, BITS), src, BITS1)

    def test_size_mismatch(self):
        three = complete_1_uniform(Alphabet(("a", "b", "c")))
        phi = rand_channel(np.random.default_rng(0), three.vertices, BITS)
        with pytest.raises(EdgeCountMismatch):
            infer_edge_map(phi, three, BITS1)

    @pytest.mark.parametrize("side", ["input", "output"])
    def test_alphabets_must_be_the_vertex_sets(self, side):
        three = Hypergraph(Alphabet.of_size(3), ((0, 1), (2,)))
        four = Alphabet.of_size(4)
        phi = identity_channel(four)
        src = Hypergraph(four, ((0, 1), (2, 3))) if side == "output" else three
        tgt = Hypergraph(four, ((0, 1), (2, 3))) if side == "input" else three
        with pytest.raises(ShapeError, match=f"channel {side} alphabet"):
            edge_cost_matrix(phi, src, tgt)
        with pytest.raises(ShapeError, match=f"channel {side} alphabet"):
            infer_edge_map(phi, src, tgt)

    @pytest.mark.parametrize("labels, difference", [
        (("0", "1", "2"), "3 labels against 4, first differing at position 3: "
                          "none against '3'"),
        (("0", "1", "x", "3", "4"), "5 labels against 4, first differing at "
                                    "position 2: 'x' against '2'"),
    ])
    def test_alphabet_message_names_sizes_and_first_difference(self, labels, difference):
        four = Hypergraph(Alphabet.of_size(4), ((0, 1), (2, 3)))
        other = Hypergraph(Alphabet(labels), ((0,), (1,)))
        phi = identity_channel(other.vertices)
        message = f"channel output alphabet must equal the target vertex set: {difference}"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            per_vertex_success(phi, other, four, EdgeMap.identity(2))
        message = message.replace("output", "input").replace("target", "source")
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            infer_edge_map(phi, four, other)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n_src = int(rng.integers(2, 6))
        n_tgt = int(rng.integers(2, 6))
        k = int(rng.integers(0, min(4, n_src, n_tgt) + 1))
        # k = 0: no edges on either side, so the empty map and an empty profile
        src, tgt = (rand_partition(rng, Alphabet.of_size(size, prefix), k) if k
                    else Hypergraph(Alphabet.of_size(size, prefix), ())
                    for size, prefix in ((n_src, "s"), (n_tgt, "t")))
        phi = rand_channel(rng, src.vertices, tgt.vertices)
        got_map, got_lam = infer_edge_map(phi, src, tgt)
        want_map, want_lam = oracles.enumerate_best_edge_map(phi, src, tgt)
        assert got_lam.shape == want_lam.shape == (k,)
        assert max(got_lam, default=0.0) == pytest.approx(max(want_lam, default=0.0),
                                                          abs=1e-12)
        assert got_map.mapping == want_map.mapping


def check_matcher(allowed) -> None:
    """The library's matching, and the oracle's rebuilt test, against every
    permutation; a matching found must use allowed pairs only."""
    every = list(range(len(allowed)))
    fits = oracles.some_permutation_fits(allowed, every, every)
    assert oracles.has_perfect_matching(allowed, every, every) == fits, allowed
    owner = verify._perfect_matching([[c for c in every if row[c]] for row in allowed])
    assert (owner is not None) == fits, allowed
    if owner is not None:
        assert sorted(owner) == every and all(allowed[r][c] for c, r in enumerate(owner))


class TestMatcherAgainstBruteForce:
    """The matching test and the bottleneck assignment on tie-heavy inputs,
    where random channels almost never tie."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_every_boolean_matrix(self, k):
        for bits in itertools.product([False, True], repeat=k * k):
            check_matcher([list(bits[r * k:(r + 1) * k]) for r in range(k)])

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_random_boolean_matrices(self, k):
        rng = np.random.default_rng(k)
        for density in (0.3, 0.5, 0.7, 0.9):
            for _ in range(40):
                check_matcher((rng.random((k, k)) < density).tolist())

    def test_row_and_column_subsets(self):
        """The index lists the rebuilt lexicographic pass hands its matching
        test: any equally many rows and columns of a larger matrix, in any
        order."""
        rng = np.random.default_rng(7)
        for _ in range(300):
            allowed = (rng.random((6, 6)) < 0.5).tolist()
            size = int(rng.integers(0, 6))
            rows = [int(r) for r in rng.choice(6, size, replace=False)]
            cols = [int(c) for c in rng.choice(6, size, replace=False)]
            assert oracles.has_perfect_matching(allowed, rows, cols) == \
                oracles.some_permutation_fits(allowed, rows, cols)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_bottleneck_on_quarter_costs(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(60):
            cost = rng.integers(0, 5, size=(k, k)) / 4.0
            want = oracles.lex_first_bottleneck(cost)
            assert verify._match(cost)[0] == want, cost
            assert oracles.rebuilt_bottleneck(cost) == want, cost

    @given(st.integers(2, 3).flatmap(
        lambda k: st.lists(st.lists(st.integers(0, 4), min_size=k, max_size=k),
                           min_size=k, max_size=k)))
    @settings(max_examples=300, deadline=None)
    def test_small_matrices_compare_every_bijection(self, quarters):
        """At k = 2-3 the first bijection in permutations order with the
        least largest cost is the threshold search's lex-first mapping."""
        cost = np.array(quarters) / 4.0
        want = oracles.lex_first_bottleneck(cost)
        assert verify._match(cost)[0] == want
        assert verify._threshold_bottleneck(cost.tolist()) == want

    @given(st.integers(1, 8).flatmap(
        lambda k: st.lists(st.lists(st.integers(0, 4), min_size=k, max_size=k),
                           min_size=k, max_size=k)))
    @settings(max_examples=200, deadline=None)
    def test_match_picks_the_bottleneck_costs(self, quarters):
        """``_match``, the one tail from a cost matrix to a map and a
        profile: the rebuilt pass's mapping, and as an array the costs it
        picks have the bits of gathering them from the matrix."""
        cost = np.array(quarters) / 4.0
        mapping, picked = verify._match(cost)
        assert mapping == oracles.rebuilt_bottleneck(cost)
        assert all(type(c) is float for c in picked)
        k = len(quarters)
        assert np.array(picked).tobytes() == cost[np.arange(k), list(mapping)].tobytes()

    @pytest.mark.parametrize("k", [8, 16, 32, 64])
    @pytest.mark.parametrize("kind", ["random", "quarter"])
    def test_bottleneck_matches_rebuilt_pass(self, k, kind):
        """The kept matching gives the mapping of the pass that rebuilds a
        matching for every candidate pair, past the brute force's reach."""
        rng = np.random.default_rng(k)
        for _ in range(max(1, 64 // k)):
            cost = (rng.random((k, k)) if kind == "random"
                    else rng.integers(0, 5, size=(k, k)) / 4.0)
            assert verify._match(cost)[0] == \
                oracles.rebuilt_bottleneck(cost), cost


def rand_hypergraph(rng, alphabet: Alphabet, max_edges: int) -> Hypergraph:
    """Distinct random edges: overlaps, and uncovered (isolated) vertices."""
    edges = set()
    for _ in range(int(rng.integers(0, max_edges + 1))):
        size = int(rng.integers(1, alphabet.size + 1))
        edges.add(tuple(sorted(int(v) for v in
                               rng.choice(alphabet.size, size=size, replace=False))))
    return Hypergraph(alphabet, tuple(sorted(edges)))


class TestAgainstPerVertexOracle:
    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_frozenset_oracle(self, seed):
        rng = np.random.default_rng(seed)
        src = rand_hypergraph(rng, Alphabet.of_size(int(rng.integers(1, 8)), "s"), 5)
        tgt = rand_hypergraph(rng, Alphabet.of_size(int(rng.integers(1, 7)), "t"), 4)
        if src.edge_count and not tgt.edge_count:
            tgt = complete_1_uniform(tgt.vertices)
        if rng.integers(2):
            phi = rand_channel(rng, src.vertices, tgt.vertices)
        else:  # exact zeros and ones, so empty and full hits occur exactly
            targets = rng.integers(tgt.vertices.size, size=src.vertices.size)
            phi = deterministic_channel(
                FunctionTable(src.vertices, tgt.vertices, tuple(int(t) for t in targets)))
        # arbitrary maps: neither injective nor surjective in general
        f_e = EdgeMap(src.edge_count, tgt.edge_count,
                      tuple(int(j) for j in rng.integers(max(tgt.edge_count, 1),
                                                         size=src.edge_count)))
        want = oracles.per_vertex(phi, src, tgt, f_e)
        assert np.array_equal(per_vertex_success(phi, src, tgt, f_e), want,
                              equal_nan=True)
        prof = oracles.profile(phi, src, tgt, f_e)
        assert np.array_equal(lambda_profile(phi, src, tgt, f_e), prof)
        # error vectors straddling the profile, so both verdicts occur
        lam = np.clip(prof + rng.choice([-1e-3, 0.0, 1e-3], size=prof.size), 0, 1)
        cert = verify_lhc(phi, src, tgt, f_e, lam)
        assert np.array_equal(cert.per_vertex_success, want, equal_nan=True)
        failing = oracles.failing_edges(phi, src, tgt, f_e, lam)
        assert cert.failing_edges == failing and cert.passed == (not failing)
        assert np.array_equal(edge_cost_matrix(phi, src, tgt),
                              oracles.edge_cost(phi, src, tgt))

    def test_isolated_and_empty_intersection(self):
        src = Hypergraph(Alphabet.of_size(4, "s"), ((0, 1), (1, 2)))
        phi = rand_channel(np.random.default_rng(3), src.vertices, BITS)
        got = per_vertex_success(phi, src, BITS1, ID2)
        # vertex 1 needs both disjoint singletons; vertex 3 is isolated
        assert got[1] == 0.0 and np.isnan(got[3])
        assert got[0] == phi.rows[0, 0] and got[2] == phi.rows[2, 1]


class TestEdgeMassRounding:
    """edge_mass adds each edge's columns left to right on any row count:
    two or more rows are gathered column-major, which numpy adds one column
    at a time, and one row is accumulated. From 8 columns on numpy's
    pairwise sum of a contiguous row rounds otherwise."""

    @given(st.integers(0, 100_000), st.integers(1, 5),
           st.lists(st.integers(8, 40), min_size=1, max_size=5), st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_summation_rule(self, seed, row_count, sizes, isolated):
        rng = np.random.default_rng(seed)
        order = rng.permutation(sum(sizes) + isolated).tolist()
        bounds = np.cumsum([0, *sizes]).tolist()
        hyper = Hypergraph(Alphabet.of_size(len(order), "v"),
                           tuple(tuple(sorted(order[lo:hi]))
                                 for lo, hi in zip(bounds, bounds[1:])))
        rows = rng.dirichlet(np.ones(len(order)), size=row_count)
        mass = verify.edge_mass(rows, hyper)
        for e, edge in enumerate(hyper.edges):
            # the layout the rule rests on; numpy 1.24, the floor, must give it
            assert row_count == 1 or rows[:, list(edge)].flags.f_contiguous
            for x, row in enumerate(rows.tolist()):
                assert mass[x, e] == oracles.left_to_right(row[c] for c in edge), (x, e)


class TestGatheredBlockRounding:
    """per_vertex_success keeps the bits of the left-to-right oracle on
    groups of one or many members and allowed sets of no to hundreds of
    columns."""

    @staticmethod
    def channel(rng, src, tgt, kind):
        if kind == "dirichlet":
            return rand_channel(rng, src.vertices, tgt.vertices)
        targets = rng.integers(tgt.vertices.size, size=src.vertices.size)
        return sharp_channel(rng, src.vertices, tgt.vertices, targets, 0.05)

    def check(self, phi, src, tgt, f_e):
        got = per_vertex_success(phi, src, tgt, f_e)
        assert got.tobytes() == oracles.per_vertex(phi, src, tgt, f_e).tobytes()

    @given(st.integers(0, 100_000), st.sampled_from(["dirichlet", "sharp"]))
    @settings(max_examples=100, deadline=None)
    def test_random_hypergraphs(self, seed, kind):
        rng = np.random.default_rng(seed)
        src = rand_hypergraph(rng, Alphabet.of_size(int(rng.integers(1, 65)), "s"), 8)
        tgt = rand_hypergraph(rng, Alphabet.of_size(int(rng.integers(1, 65)), "t"), 8)
        if not tgt.edge_count:
            tgt = complete_1_uniform(tgt.vertices)
        f_e = EdgeMap(src.edge_count, tgt.edge_count,
                      tuple(int(j) for j in rng.integers(tgt.edge_count,
                                                         size=src.edge_count)))
        self.check(self.channel(rng, src, tgt, kind), src, tgt, f_e)

    @given(st.integers(0, 100_000), st.lists(st.integers(8, 40), min_size=2, max_size=5),
           st.integers(1, 6), st.sampled_from(["dirichlet", "sharp"]))
    @settings(max_examples=100, deadline=None)
    def test_one_member_groups(self, seed, sizes, count, kind):
        """A singleton edge per source vertex puts each vertex in a group of
        its own, and random edges over them overlap; the target holds
        disjoint edges of 8 to 40 vertices and overlapping ones of the same
        sizes, so allowed sets are long, short or empty."""
        rng = np.random.default_rng(seed)
        n = sum(sizes) + int(rng.integers(0, 8))
        order = rng.permutation(n).tolist()
        bounds = np.cumsum([0, *sizes]).tolist()
        disjoint = [tuple(sorted(order[lo:hi])) for lo, hi in zip(bounds, bounds[1:])]
        drawn = {tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
                 for size in sizes}
        tgt = Hypergraph(Alphabet.of_size(n, "t"),
                         tuple(disjoint + sorted(drawn - set(disjoint))))
        shared = {tuple(sorted(rng.choice(count, size=int(rng.integers(2, count + 1)),
                                          replace=False).tolist()))
                  for _ in range(int(rng.integers(0, 4)) if count > 1 else 0)}
        # vertex count stays isolated
        src = Hypergraph(Alphabet.of_size(count + 1, "s"),
                         tuple((v,) for v in range(count)) + tuple(sorted(shared)))
        f_e = EdgeMap(src.edge_count, tgt.edge_count,
                      tuple(int(j) for j in rng.integers(tgt.edge_count,
                                                         size=src.edge_count)))
        assert all(members.size == 1 for members in src.vertex_groups)
        self.check(self.channel(rng, src, tgt, kind), src, tgt, f_e)

    @pytest.mark.parametrize("kind", ["dirichlet", "sharp"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_partitions_at_224(self, seed, kind):
        rng = np.random.default_rng(seed)
        src = rand_partition(rng, Alphabet.of_size(224, "s"), 8)
        tgt = rand_partition(rng, Alphabet.of_size(224, "t"), 8)
        f_e = EdgeMap(8, 8, tuple(int(j) for j in rng.permutation(8)))
        self.check(self.channel(rng, src, tgt, kind), src, tgt, f_e)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_partitions_at_1024(self, seed):
        rng = np.random.default_rng(seed)
        src = rand_partition(rng, Alphabet.of_size(1024, "s"), 8)
        tgt = rand_partition(rng, Alphabet.of_size(1024, "t"), 8)
        f_e = EdgeMap(8, 8, tuple(int(j) for j in rng.permutation(8)))
        self.check(self.channel(rng, src, tgt, "dirichlet"), src, tgt, f_e)


class TestOneMassPerRoute:
    """A partition vertex's success is its mass on its edge's image, so a
    map's lambda_profile is its entries of the edge cost matrix, and the
    inferred map's is infer_edge_map's profile, bit for bit."""

    @given(st.integers(0, 100_000), st.integers(1, 6),
           st.sampled_from(["dirichlet", "sharp"]))
    @settings(max_examples=60, deadline=None)
    def test_lambda_profile_reads_the_edge_costs(self, seed, k, kind):
        rng = np.random.default_rng(seed)
        src = rand_partition(rng, Alphabet.of_size(int(rng.integers(k, 97)), "s"), k)
        tgt = rand_partition(rng, Alphabet.of_size(int(rng.integers(k, 161)), "t"), k)
        phi = TestGatheredBlockRounding.channel(rng, src, tgt, kind)
        cost = edge_cost_matrix(phi, src, tgt)
        f_e, profile = infer_edge_map(phi, src, tgt)
        assert lambda_profile(phi, src, tgt, f_e).tobytes() == profile.tobytes()
        # arbitrary maps: neither injective nor surjective in general
        for mapping in [f_e.mapping] + [tuple(int(j) for j in rng.integers(k, size=k))
                                        for _ in range(3)]:
            got = lambda_profile(phi, src, tgt, EdgeMap(k, k, mapping))
            assert got.tobytes() == cost[np.arange(k), list(mapping)].tobytes(), mapping


def test_verify_computes_success_once_and_one_lookup_per_signature(monkeypatch):
    calls = {"per_vertex": 0, "containing": 0}
    per_vertex = verify.per_vertex_success
    containing = Hypergraph.edges_containing

    def counted_per_vertex(*args):
        calls["per_vertex"] += 1
        return per_vertex(*args)

    def counted_containing(self, v):
        calls["containing"] += 1
        return containing(self, v)

    monkeypatch.setattr(verify, "per_vertex_success", counted_per_vertex)
    monkeypatch.setattr(Hypergraph, "edges_containing", counted_containing)
    rng = np.random.default_rng(4)
    src = Hypergraph(Alphabet.of_size(40, "s"),
                     (tuple(range(0, 15)), tuple(range(10, 30)), tuple(range(30, 35))))
    tgt = rand_partition(rng, Alphabet.of_size(30, "t"), 3)
    phi = rand_channel(rng, src.vertices, tgt.vertices)
    signatures = {row.tobytes() for row in src.incidence}
    assert len(signatures) == 5  # {0}, {0, 1}, {1}, {2} and isolated
    verify_lhc(phi, src, tgt, EdgeMap(3, 3, (0, 1, 1)), np.full(3, 0.5))
    assert calls["per_vertex"] == 1
    assert 0 < calls["containing"] <= len(signatures)
