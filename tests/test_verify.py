import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhckit import (
    Alphabet,
    BITS,
    EdgeMap,
    Hypergraph,
    bsc,
    complete_1_uniform,
    identity_channel,
    infer_edge_map,
    lambda_profile,
    success_prob,
    verify_lhc,
)
from lhckit.errors import IsolatedVertex, RequiresPartition, ShapeError, SizeMismatch
from lhckit.verify import edge_vector, enumerate_best_edge_map

from conftest import rand_channel, rand_partition

BITS1 = complete_1_uniform(BITS)
ID2 = EdgeMap.identity(2)


def definition_holds(phi, source, target, f_e, lam) -> bool:
    """Direct statement of the defining inequality, as an independent oracle."""
    for a in range(source.vertices.size):
        containing = source.edges_containing(a)
        if not containing:
            continue
        allowed = frozenset.intersection(
            *(target.edge_sets[f_e(ei)] for ei in containing)
        )
        p = float(phi.rows[a, sorted(allowed)].sum()) if allowed else 0.0
        if p + 1e-12 < 1.0 - min(lam[ei] for ei in containing):
            return False
    return True


class TestSuccessProb:
    def test_identity_is_one(self):
        assert success_prob(identity_channel(BITS), BITS1, BITS1, ID2, 0) == 1.0

    def test_bsc_single_crossover(self):
        assert success_prob(bsc(0.03), BITS1, BITS1, ID2, 0) == pytest.approx(
            0.97, abs=1e-15
        )

    def test_overlapping_edges_disjoint_targets(self):
        source = Hypergraph(Alphabet(("a", "b", "c")), ((0, 1), (1, 2)))
        target = complete_1_uniform(BITS)
        rng = np.random.default_rng(0)
        phi = rand_channel(rng, source.vertices, BITS)
        # vertex b sits in both edges, whose targets are disjoint singletons
        assert success_prob(phi, source, target, EdgeMap(2, 2, (0, 1)), 1) == 0.0

    def test_isolated_vertex(self):
        source = Hypergraph(Alphabet(("a", "b")), ((0,),))
        phi = rand_channel(np.random.default_rng(1), source.vertices, BITS)
        with pytest.raises(IsolatedVertex):
            success_prob(phi, source, complete_1_uniform(BITS), EdgeMap(1, 2, (0,)), 1)


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
        for a in range(4):
            edge = src.unique_edge_of(a)
            direct = phi.rows[a, list(tgt.edges[f_e(edge)])].sum()
            assert success_prob(phi, src, tgt, f_e, a) == pytest.approx(direct)


class TestEdgeVector:
    def test_scalar_broadcasts_and_vector_passes(self):
        assert edge_vector(0.25, 3, "mu").tolist() == [0.25, 0.25, 0.25]
        assert edge_vector([0.1, 0.2], 2, "mu").tolist() == [0.1, 0.2]

    def test_wrong_count_names_parameter_and_count(self):
        with pytest.raises(ShapeError, match=r"kappa must have one entry per edge \(3\)"):
            edge_vector([0.1, 0.2], 3, "kappa")


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
        with pytest.raises(SizeMismatch):
            infer_edge_map(phi, three, BITS1, require_bijective=True)

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_enumeration(self, seed, bijective):
        rng = np.random.default_rng(seed)
        n_src = int(rng.integers(2, 6))
        n_tgt = int(rng.integers(2, 6))
        if bijective:
            k = l = int(rng.integers(1, min(4, n_src, n_tgt) + 1))
        else:
            k = int(rng.integers(1, min(4, n_src) + 1))
            l = int(rng.integers(1, min(4, n_tgt) + 1))
        src = rand_partition(rng, Alphabet.of_size(n_src, "s"), k)
        tgt = rand_partition(rng, Alphabet.of_size(n_tgt, "t"), l)
        phi = rand_channel(rng, src.vertices, tgt.vertices)
        got_map, got_lam = infer_edge_map(phi, src, tgt,
                                          require_bijective=bijective)
        want_map, want_lam = enumerate_best_edge_map(phi, src, tgt,
                                                     require_bijective=bijective)
        assert max(got_lam) == pytest.approx(max(want_lam), abs=1e-12)
        assert got_map.mapping == want_map.mapping
