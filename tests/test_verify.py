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
    success_prob,
    verify_lhc,
)
from lhckit import verify
from lhckit.errors import IsolatedVertex, RequiresPartition, ShapeError, SizeMismatch
from lhckit.verify import edge_cost_matrix, edge_vector, per_vertex_success

import oracles
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
        want_map, want_lam = oracles.enumerate_best_edge_map(
            phi, src, tgt, require_bijective=bijective)
        assert max(got_lam) == pytest.approx(max(want_lam), abs=1e-12)
        assert got_map.mapping == want_map.mapping


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
