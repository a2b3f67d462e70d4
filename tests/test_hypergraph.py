import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhckit import (
    Alphabet,
    EdgeMap,
    FunctionTable,
    Hypergraph,
    characteristic_hypergraph,
    check_homomorphism,
    complete_1_uniform,
    hom_from_edge_map,
    identification_table,
    k_identification_table,
    make_partition_hypergraph,
    relabel_hom,
    split_product_alphabet,
)
from lhckit.errors import (
    InvalidPartition,
    RequiresBijective,
    RequiresPartition,
    ShapeError,
)

from conftest import rand_partition


def edge_sets(h: Hypergraph) -> set[frozenset[int]]:
    return set(h.edge_sets)


class TestAlphabet:
    def test_distinct_labels_required(self):
        with pytest.raises(ShapeError):
            Alphabet(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            Alphabet(())

    def test_product_row_major(self):
        prod = Alphabet(("0", "1")).product(Alphabet(("x", "y")))
        assert prod.labels == ("0|x", "0|y", "1|x", "1|y")

    def test_split_product_round_trip(self):
        a = Alphabet(("p", "q", "r"))
        b = Alphabet(("0", "1"))
        assert split_product_alphabet(a.product(b), b).labels == a.labels

    def test_split_product_rejects_non_product(self):
        with pytest.raises(ShapeError):
            split_product_alphabet(Alphabet(("a", "b", "c")), Alphabet(("0", "1")))


class TestPartition:
    def test_identity_partition(self):
        h = make_partition_hypergraph(Alphabet(("0", "1")), [{0}, {1}])
        assert h.edges == ((0,), (1,)) and h.is_partition

    def test_two_blocks(self):
        h = make_partition_hypergraph(Alphabet(("a", "b", "c")), [{0, 1}, {2}])
        assert h.edge_count == 2 and h.is_partition

    def test_overlap_names_vertex(self):
        with pytest.raises(InvalidPartition, match="'b'"):
            make_partition_hypergraph(Alphabet(("a", "b", "c")), [{0, 1}, {1, 2}])

    def test_uncovered_names_vertex(self):
        with pytest.raises(InvalidPartition, match="'c'"):
            make_partition_hypergraph(Alphabet(("a", "b", "c")), [{0, 1}])

    def test_complete_1_uniform(self):
        assert complete_1_uniform(Alphabet(("0", "1"))).edges == ((0,), (1,))
        assert complete_1_uniform(Alphabet(("z",))).edges == ((0,),)
        h = complete_1_uniform(Alphabet(("a", "b", "c")))
        assert h.edge_count == 3 and h.is_partition

    def test_unique_edge_of(self):
        h = make_partition_hypergraph(Alphabet(("a", "b", "c")), [{0, 1}, {2}])
        assert h.unique_edge_of(1) == 0 and h.unique_edge_of(2) == 1


class TestIncidence:
    H = Hypergraph(Alphabet.of_size(5, "v"), ((3, 1), (1, 2), (0,)))

    def test_matrix_and_derived_queries(self):
        h = Hypergraph(self.H.vertices, self.H.edges)
        assert h.incidence.tolist() == [
            [False, False, True], [True, True, False], [False, True, False],
            [True, False, False], [False, False, False]]
        assert h.degrees.tolist() == [1, 2, 1, 1, 0]
        assert [h.edges_containing(v) for v in range(5)] == [(2,), (0, 1), (1,), (0,), ()]
        assert h.edges_containing(5) == () and h.edges_containing(-1) == ()
        assert h.covered_vertices == frozenset({0, 1, 2, 3})
        assert not h.edges_disjoint and not h.is_partition
        assert h.edge_sets == (frozenset({1, 3}), frozenset({1, 2}), frozenset({0}))

    def test_no_edges(self):
        h = Hypergraph(Alphabet.of_size(2, "v"), ())
        assert h.incidence.shape == (2, 0) and h.edges_containing(0) == ()
        assert h.edges_disjoint and not h.is_partition and not h.covered_vertices

    def test_cached_and_read_only(self):
        h = Hypergraph(self.H.vertices, self.H.edges)
        assert h.incidence is h.incidence and h.degrees is h.degrees
        for arr in (h.incidence, h.degrees):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_equality_and_hash_ignore_the_cache(self):
        fresh = Hypergraph(self.H.vertices, ((1, 3), (2, 1), (0,)))
        used = Hypergraph(self.H.vertices, self.H.edges)
        before = hash(used)
        used.incidence, used.is_partition, used.edges_containing(1)
        assert hash(used) == before == hash(fresh) and used == fresh
        assert len({used, fresh}) == 1
        assert used != Hypergraph(self.H.vertices, ((1, 3), (1, 2)))


class TestCharacteristic:
    def test_equality_function_on_two_messages(self):
        h = characteristic_hypergraph(identification_table(2))
        # domain order: (0,0), (0,1), (1,0), (1,1)
        assert edge_sets(h) == {frozenset({0, 3}), frozenset({1, 2})}
        assert h.is_partition

    def test_constant_function(self):
        f = FunctionTable(Alphabet(("a", "b")), Alphabet(("0",)), (0, 0))
        assert characteristic_hypergraph(f).edges == ((0, 1),)

    def test_identity_function(self):
        alpha = Alphabet(("1", "2", "3"))
        f = FunctionTable(alpha, alpha, (0, 1, 2))
        assert characteristic_hypergraph(f).edges == ((0,), (1,), (2,))

    @given(
        st.integers(1, 5),
        st.integers(1, 4),
        st.data(),
    )
    @settings(max_examples=60)
    def test_always_partition(self, dom, cod, data):
        mapping = data.draw(
            st.tuples(*(st.integers(0, cod - 1) for _ in range(dom)))
        )
        f = FunctionTable(Alphabet.of_size(dom, "a"), Alphabet.of_size(cod, "b"),
                          mapping)
        assert characteristic_hypergraph(f).is_partition

    def test_k_identification_matches_membership(self):
        f = k_identification_table(3, 2)
        h = characteristic_hypergraph(f)
        assert h.is_partition and h.edge_count == 2


class TestHomomorphism:
    def test_function_is_edge_bijective_into_values(self):
        f = FunctionTable(Alphabet(("a", "b", "c")), Alphabet(("0", "1")), (0, 1, 0))
        h_f = characteristic_hypergraph(f)
        values = complete_1_uniform(f.codomain)
        report = check_homomorphism(f.mapping, EdgeMap(2, 2, (0, 1)), h_f, values)
        assert report.is_hom and report.edge_bijective and report.witness is None

    def test_identity_all_flags(self):
        g = make_partition_hypergraph(Alphabet(("a", "b", "c")), [{0, 1}, {2}])
        report = check_homomorphism((0, 1, 2), EdgeMap.identity(2), g, g)
        assert report.is_hom and report.edge_surjective and report.edge_bijective

    def test_pair_edge_into_singletons_fails_with_witness(self):
        g = Hypergraph(Alphabet(("a", "b")), ((0, 1),))
        h = complete_1_uniform(Alphabet(("x", "y")))
        report = check_homomorphism((0, 1), EdgeMap(1, 2, (0,)), g, h)
        assert not report.is_hom
        assert report.witness is not None and report.witness[0] == 0

    def test_shape_errors(self):
        g = complete_1_uniform(Alphabet(("a",)))
        with pytest.raises(ShapeError):
            check_homomorphism((0, 0), EdgeMap.identity(1), g, g)


class TestHomFromEdgeMap:
    def test_identity_picks_min_index(self):
        g = make_partition_hypergraph(Alphabet(("a", "b", "c")), [{0, 1}, {2}])
        assert hom_from_edge_map(EdgeMap.identity(2), g, g) == (0, 0, 2)

    def test_forced_construction(self):
        g = Hypergraph(Alphabet(("1", "2", "3")), ((0, 1), (2,)))
        h = Hypergraph(Alphabet(("x", "y", "z")), ((0,), (1, 2)))
        vm = hom_from_edge_map(EdgeMap(2, 2, (1, 0)), g, h)
        assert vm == (1, 1, 0)

    def test_single_edge(self):
        g = Hypergraph(Alphabet(("a", "b")), ((0, 1),))
        assert hom_from_edge_map(EdgeMap.identity(1), g, g) == (0, 0)

    def test_requires_partition(self):
        g = Hypergraph(Alphabet(("a", "b")), ((0, 1), (0,)))
        with pytest.raises(RequiresPartition):
            hom_from_edge_map(EdgeMap.identity(2), g, g)

    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=60)
    def test_always_yields_homomorphism(self, seed, n_src, n_tgt):
        rng = np.random.default_rng(seed)
        src = rand_partition(rng, Alphabet.of_size(n_src, "s"),
                             int(rng.integers(1, n_src + 1)))
        tgt = rand_partition(rng, Alphabet.of_size(n_tgt, "t"),
                             int(rng.integers(1, n_tgt + 1)))
        mapping = tuple(int(j) for j in
                        rng.integers(tgt.edge_count, size=src.edge_count))
        e_map = EdgeMap(src.edge_count, tgt.edge_count, mapping)
        vm = hom_from_edge_map(e_map, src, tgt)
        assert check_homomorphism(vm, e_map, src, tgt).is_hom


class TestRelabelHom:
    def test_equal_maps_give_identity(self):
        g = complete_1_uniform(Alphabet(("a", "b")))
        m = EdgeMap(2, 2, (1, 0))
        _, g_e = relabel_hom(m, m, g)
        assert g_e.mapping == (0, 1)

    def test_swap(self):
        g = complete_1_uniform(Alphabet(("a", "b")))
        _, g_e = relabel_hom(EdgeMap.identity(2), EdgeMap(2, 2, (1, 0)), g)
        assert g_e.mapping == (1, 0)

    def test_cycle_inverse(self):
        g = complete_1_uniform(Alphabet(("a", "b", "c")))
        cycle = EdgeMap(3, 3, (1, 2, 0))
        _, g_e = relabel_hom(EdgeMap.identity(3), cycle, g)
        assert g_e.mapping == (2, 0, 1)  # inverse cycle

    def test_compose_identity(self):
        rng = np.random.default_rng(3)
        g = complete_1_uniform(Alphabet.of_size(4))
        for _ in range(20):
            h_edge = EdgeMap(4, 4, tuple(int(i) for i in rng.permutation(4)))
            f_edge = EdgeMap(4, 4, tuple(int(i) for i in rng.integers(4, size=4)))
            _, g_e = relabel_hom(f_edge, h_edge, g)
            assert g_e.after(h_edge).mapping == f_edge.mapping

    def test_requires_bijective(self):
        g = complete_1_uniform(Alphabet(("a", "b")))
        with pytest.raises(RequiresBijective):
            relabel_hom(EdgeMap.identity(2), EdgeMap(2, 2, (0, 0)), g)


class TestRelabelInvariance:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_edge_bijectivity_invariant_under_vertex_relabeling(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        src = rand_partition(rng, Alphabet.of_size(n, "s"),
                             int(rng.integers(1, n + 1)))
        tgt = rand_partition(rng, Alphabet.of_size(n, "t"),
                             int(rng.integers(1, n + 1)))
        mapping = EdgeMap(src.edge_count, tgt.edge_count,
                          tuple(int(j) for j in
                                rng.integers(tgt.edge_count, size=src.edge_count)))
        vm = hom_from_edge_map(mapping, src, tgt)
        before = check_homomorphism(vm, mapping, src, tgt)

        perm = list(rng.permutation(n))
        inv = np.argsort(perm)
        relabeled_src = Hypergraph(
            src.vertices, tuple(tuple(sorted(perm[v] for v in e)) for e in src.edges)
        )
        vm_rel = tuple(vm[inv[v]] for v in range(n))
        after = check_homomorphism(vm_rel, mapping, relabeled_src, tgt)
        assert before.edge_bijective == after.edge_bijective
        assert before.is_hom == after.is_hom
