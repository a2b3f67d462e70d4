import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lhckit import hypergraph
from lhckit import (
    BITS,
    Alphabet,
    EdgeMap,
    FunctionCode,
    FunctionTable,
    Hypergraph,
    assemble_id_code,
    characteristic_hypergraph,
    check_homomorphism,
    complete_1_uniform,
    compose,
    hom_from_edge_map,
    identification_table,
    identity_channel,
    k_identification_table,
    split_product_alphabet,
    verify_lhc,
)
from lhckit.channel import bsc, sample
from lhckit.errors import RangeError, RequiresPartition, ShapeError

import oracles
from conftest import rand_partition


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


# Labels over a small character set that holds the separator, so products
# can collide and split_product_alphabet can meet a '|' in either factor.
label_text = st.text("ab|0", max_size=3)


@st.composite
def alphabet_specs(draw, depth: int = 2):
    """A rule for an alphabet: ("labels", tuple), ("of_size", n, prefix) or
    ("product", spec, spec), products nested up to depth."""
    kinds = ["labels", "of_size"] + (["product"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "labels":
        return kind, tuple(draw(st.lists(label_text, min_size=1, max_size=4, unique=True)))
    if kind == "of_size":
        return kind, draw(st.integers(1, 12)), draw(label_text)
    return kind, draw(alphabet_specs(depth - 1)), draw(alphabet_specs(depth - 1))


def build(spec):
    """(the alphabet by its rule, its labels written out by hand), or (None,
    None) where a product's labels collide, after checking its refusal."""
    if spec[0] == "labels":
        return Alphabet(spec[1]), spec[1]
    if spec[0] == "of_size":
        _, n, prefix = spec
        return Alphabet.of_size(n, prefix), tuple(f"{prefix}{i}" for i in range(n))
    (a, a_labels), (b, b_labels) = build(spec[1]), build(spec[2])
    if a is None or b is None:
        return None, None
    labels = tuple(f"{x}|{y}" for x in a_labels for y in b_labels)
    if len(set(labels)) < len(labels):
        with pytest.raises(ShapeError, match="^alphabet labels must be pairwise distinct$"):
            a.product(b)
        return None, None
    return a.product(b), labels


def outcome(call, *args):
    """call's result, or the message of the ShapeError it raises."""
    try:
        return call(*args)
    except ShapeError as exc:
        return f"ShapeError: {exc}"


class TestAlphabetRules:
    """An alphabet built by a rule behaves as the alphabet of its labels."""

    @given(alphabet_specs(), alphabet_specs(), st.lists(label_text, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_rule_matches_its_label_twin(self, spec, other_spec, probes):
        rule, labels = build(spec)
        other, other_labels = build(other_spec)
        if rule is None or other is None:
            return
        twin, other_twin = Alphabet(labels), Alphabet(other_labels)
        assert rule.labels == labels and rule.size == twin.size == len(labels)
        for label in (*labels[:3], *probes):
            assert outcome(rule.index, label) == outcome(twin.index, label)
        assert rule == twin and twin == rule and hash(rule) == hash(twin)
        assert rule != other_twin or labels == other_labels
        assert (rule == other) == (other == rule) == (labels == other_labels)
        for first, second in ((rule, other), (twin, other_twin), (other, rule)):
            got = outcome(first.product, second)
            want = outcome(Alphabet.product, *(
                Alphabet(x.labels) for x in (first, second)))
            assert got == want
            if isinstance(got, Alphabet):
                assert got.labels == want.labels
                split = outcome(split_product_alphabet, got, second)
                assert split == outcome(split_product_alphabet, want, Alphabet(second.labels))
                assert split == first
        got = outcome(split_product_alphabet, rule, other)
        want = outcome(split_product_alphabet, twin, other_twin)
        assert got == want and (isinstance(got, str) or got.labels == want.labels)

    @pytest.mark.parametrize("labels", [("x", "x|x"), ("a|", "a", "|a")])
    def test_separator_collision_is_refused(self, labels):
        """x|x|x is both x|(x|x) and (x|x)|x: the product's labels are
        built and checked as an explicit tuple's are."""
        a = Alphabet(labels)
        with pytest.raises(ShapeError, match="^alphabet labels must be pairwise distinct$"):
            a.product(a)
        with pytest.raises(ShapeError, match="^alphabet labels must be pairwise distinct$"):
            Alphabet(tuple(f"{x}|{y}" for x in labels for y in labels))

    def test_one_factor_without_separator_is_distinct(self):
        """A label splits at the first '|' when the first factor holds none,
        at the last when the second holds none."""
        odd = Alphabet(("x", "x|x", "|"))
        for a, b in ((odd, BITS), (BITS, odd), (odd.product(BITS), BITS)):
            p = a.product(b)
            assert len(set(p.labels)) == p.size == a.size * b.size

    def test_equal_rules_build_no_labels(self):
        rng = np.random.default_rng(0)
        words = tuple("".join(map(str, rng.integers(2, size=1000))) for _ in range(256))
        cw = Alphabet(words)
        pairs = cw.product(cw)  # n = 1000, M = 256: 65536 labels of 2001 characters
        assert pairs.size == 256 * 256
        msgs = Alphabet.of_size(256, "m")
        again = [Alphabet.of_size(256, "m"), msgs.product(cw), msgs.product(cw)]
        assert again[0] == msgs and again[1] == again[2] and cw.product(cw) == pairs
        assert split_product_alphabet(pairs, cw) is cw
        assert split_product_alphabet(again[1], Alphabet(words)) is msgs
        hypergraph._require_same_alphabet(cw.product(cw), pairs, "pairs")
        for a in (pairs, msgs, *again):
            assert a._labels is None

    def test_unlike_rules_compare_labels(self):
        a = Alphabet.of_size(1, "a|")
        b = Alphabet(("a",)).product(Alphabet.of_size(1))
        assert a == b and b == a and hash(a) == hash(b)
        assert Alphabet.of_size(2) != Alphabet.of_size(2, "x")
        assert Alphabet.of_size(2) != Alphabet.of_size(3) and Alphabet.of_size(2) != ("0", "1")

    def test_refusals_word_built_labels(self):
        with pytest.raises(ShapeError, match=re.escape(
                "w: 4 labels against 4, first differing at position 1: "
                "'a0|b1' against 'a0|c1'")):
            hypergraph._require_same_alphabet(
                Alphabet.of_size(2, "a").product(Alphabet.of_size(2, "b")),
                Alphabet.of_size(2, "a").product(Alphabet(("b0", "c1"))), "w")
        with pytest.raises(RangeError, match="^alphabet size 0 is not an integer >= 1$"):
            Alphabet.of_size(0)
        assert type(Alphabet.of_size(np.int64(3)).size) is int

    def test_frozen_repr_and_copies(self):
        a = Alphabet.of_size(2).product(BITS)
        assert repr(a) == "Alphabet(labels=('0|0', '0|1', '1|0', '1|1'))"
        assert repr(Alphabet(labels=("p",))) == "Alphabet(labels=('p',))"
        for name in ("labels", "size"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, None)
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


class TestRefusals:
    """Each constructor refusal keeps its message. The vertex indices of all
    edges are checked first, type then range, in one call; after that, where
    an edge list has two defects, the first failing edge decides, and within
    an edge emptiness comes before a repeat."""

    @pytest.mark.parametrize("labels, message", [
        ((), "alphabet must not be empty"),
        (("a", "b", "a"), "alphabet labels must be pairwise distinct"),
        ((1, "1"), "label 1 is not a string"),  # not read as the text "1"
        ((None, "a"), "label None is not a string"),
        (("a", None), "label None is not a string"),
    ])
    def test_alphabet(self, labels, message):
        with pytest.raises(ShapeError, match=f"^{message}$"):
            Alphabet(labels)

    def test_labels_are_strings(self):
        class Label(str):
            pass

        alphabet = Alphabet((Label("a"), np.str_("b")))  # a str subclass passes
        assert alphabet.labels == ("a", "b")
        with pytest.raises(ShapeError, match=r"^label \['a'\] is not a string$"):
            Alphabet(("b", ["a"]))
        assert alphabet.index("b") == 1
        with pytest.raises(ShapeError, match="^label 1 not in alphabet$"):
            Alphabet(("0", "1")).index(1)

    @pytest.mark.parametrize("edges, message", [
        (((0,), ()), "edges must be nonempty"),
        (((0, 3),), "vertex index 3 is outside [0, 3)"),
        (((-1, 0),), "vertex index -1 is outside [0, 3)"),
        (((0, 1), (1, 0, 1)), "edges must be pairwise distinct as sets"),
        # two defects: an index out of range wins wherever it stands
        (((), (7,)), "vertex index 7 is outside [0, 3)"),
        (((7,), ()), "vertex index 7 is outside [0, 3)"),
        (((0,), (0,), (7,)), "vertex index 7 is outside [0, 3)"),
        (((0,), (7,), (0,)), "vertex index 7 is outside [0, 3)"),
        # otherwise the earlier edge's refusal wins
        (((), (0,), (0,)), "edges must be nonempty"),
        (((0,), (0,), ()), "edges must be pairwise distinct as sets"),
    ])
    def test_hypergraph(self, edges, message):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            Hypergraph(Alphabet.of_size(3, "v"), edges)

    @pytest.mark.parametrize("labels, message", [
        (("a|0", "a|1", "b|0"), "alphabet of size 3 is no product with a factor of 2"),
        (("a|1", "a|0"), "label 'a|1' does not end in '|0'"),
        (("a|0", "b|1"), "labels are not in row-major product order"),
        (("a|0", "a|1", "b|1", "b|0"), "label 'b|1' does not end in '|0'"),
        (("a|0", "x", "b|0", "b|1"), "labels are not in row-major product order"),
    ])
    def test_split_product_alphabet(self, labels, message):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            split_product_alphabet(Alphabet(labels), Alphabet(("0", "1")))

    def test_edges_canonical_in_their_order(self):
        h = Hypergraph(Alphabet.of_size(4, "v"), ((3, 1, 3), [np.int64(2)], (0,)))
        assert h.edges == ((1, 3), (2,), (0,))
        assert all(type(v) is int for e in h.edges for v in e)


class TestPartition:
    def test_identity_partition(self):
        h = Hypergraph(Alphabet(("0", "1")), ((0,), (1,)))
        assert h.edges == ((0,), (1,)) and h.is_partition

    def test_two_blocks(self):
        h = Hypergraph(Alphabet(("a", "b", "c")), ((0, 1), (2,)))
        assert h.edge_count == 2 and h.is_partition

    def test_complete_1_uniform(self):
        assert complete_1_uniform(Alphabet(("0", "1"))).edges == ((0,), (1,))
        assert complete_1_uniform(Alphabet(("z",))).edges == ((0,),)
        h = complete_1_uniform(Alphabet(("a", "b", "c")))
        assert h.edge_count == 3 and h.is_partition

    def test_unique_edge_of(self):
        h = Hypergraph(Alphabet(("a", "b", "c")), ((0, 1), (2,)))
        assert oracles.unique_edge_of(h, 1) == 0 and oracles.unique_edge_of(h, 2) == 1
        assert h.incidence[[1, 2]].nonzero()[1].tolist() == [0, 1]


class TestIncidence:
    H = Hypergraph(Alphabet.of_size(5, "v"), ((3, 1), (1, 2), (0,)))

    def test_matrix_and_derived_queries(self):
        h = Hypergraph(self.H.vertices, self.H.edges)
        assert h.incidence.tolist() == [
            [False, False, True], [True, True, False], [False, True, False],
            [True, False, False], [False, False, False]]
        assert h.incidence.sum(axis=1).tolist() == [1, 2, 1, 1, 0]
        assert [h.edges_containing(v) for v in range(5)] == [(2,), (0, 1), (1,), (0,), ()]
        for v in (5, -1):  # a vertex outside the alphabet is refused, not answered ()
            with pytest.raises(ShapeError, match=rf"^vertex index {v} is outside \[0, 5\)$"):
                h.edges_containing(v)
        assert not h.edges_disjoint and not h.is_partition
        assert h.edges == ((1, 3), (1, 2), (0,))

    def test_no_edges(self):
        h = Hypergraph(Alphabet.of_size(2, "v"), ())
        assert h.incidence.shape == (2, 0) and h.edges_containing(0) == ()
        assert h.edges_disjoint and not h.is_partition and not h.incidence.sum(axis=1).any()

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_edge_vertex_outside_alphabet(self, bad):
        with pytest.raises(ShapeError, match=rf"^vertex index {bad} is outside \[0, 3\)$"):
            Hypergraph(Alphabet.of_size(3, "v"), ((0, bad),))

    def test_cached_and_read_only(self):
        h = Hypergraph(self.H.vertices, self.H.edges)
        assert h.incidence is h.incidence
        assert h.vertex_groups is h.vertex_groups
        for arr in (h.incidence, *h.vertex_groups):
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


@st.composite
def hypergraphs(draw):
    """Overlapping edges, isolated vertices and the edgeless case."""
    size = draw(st.integers(1, 12))
    edges = draw(st.lists(
        st.frozensets(st.integers(0, size - 1), min_size=1), max_size=6,
        unique=True))
    return Hypergraph(Alphabet.of_size(size, "v"), tuple(map(tuple, edges)))


class TestVertexGroups:
    @given(hypergraphs())
    @settings(max_examples=200, deadline=None)
    def test_groups_partition_vertices_by_signature(self, h):
        groups = h.vertex_groups
        flat = np.concatenate(groups)
        assert sorted(flat.tolist()) == list(range(h.vertices.size))
        signatures = []
        for members in groups:
            assert members.size and np.all(np.diff(members) > 0)
            assert not members.flags.writeable
            sigs = {h.edges_containing(int(v)) for v in members}
            assert len(sigs) == 1
            signatures.append(sigs.pop())
        assert len(set(signatures)) == len(signatures)
        assert [int(m[0]) for m in groups] == sorted(int(m[0]) for m in groups)
        assert h.vertex_groups is groups

    @given(st.integers(1, 64).flatmap(lambda size: st.tuples(
        st.just(size),
        st.lists(st.frozensets(st.integers(0, size - 1), min_size=1,
                               max_size=max(1, size // 2)),
                 max_size=10, unique=True))))
    @example((1, []))
    @example((1, [frozenset({0})]))
    @example((64, []))
    @example((7, [frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({5})]))
    @settings(max_examples=300, deadline=None)
    def test_groups_and_edges_equal_the_dict_oracle(self, drawn):
        """Overlapping edges, isolated vertices and no edges, V = 1..64."""
        size, edges = drawn
        h = Hypergraph(Alphabet.of_size(size, "v"), tuple(map(tuple, edges)))
        assert [m.tolist() for m in h.vertex_groups] == oracles.vertex_groups(h)
        assert all(m.dtype == np.intp for m in h.vertex_groups)
        assert [h.edges_containing(v) for v in range(size)] == \
            [tuple(oracles.edges_of(h, v)) for v in range(size)]

    def test_shared_signature_and_isolated_vertices(self):
        h = Hypergraph(Alphabet.of_size(6, "v"), ((3, 1), (1, 2), (0, 4)))
        assert [m.tolist() for m in h.vertex_groups] == [[0, 4], [1], [2], [3], [5]]


class TestCharacteristic:
    def test_equality_function_on_two_messages(self):
        h = characteristic_hypergraph(identification_table(2))
        # domain order: (0,0), (0,1), (1,0), (1,1)
        assert set(h.edges) == {(0, 3), (1, 2)}
        assert h.is_partition

    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=1, max_size=30)
        .map(lambda mapping: (n, mapping))))
    @settings(max_examples=100, deadline=None)
    def test_one_preimage_per_attained_value_in_codomain_order(self, drawn):
        n, mapping = drawn
        f = FunctionTable(Alphabet.of_size(len(mapping), "a"), Alphabet.of_size(n, "b"),
                          tuple(mapping))
        want = tuple(tuple(a for a, x in enumerate(mapping) if x == b)
                     for b in range(n) if b in mapping)
        assert characteristic_hypergraph(f).edges == want

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
        e_map = EdgeMap(2, 2, (0, 1))
        report = check_homomorphism(f.mapping, e_map, h_f, values)
        assert report.is_hom and e_map.bijective and report.witness is None

    def test_identity_all_flags(self):
        g = Hypergraph(Alphabet(("a", "b", "c")), ((0, 1), (2,)))
        e_map = EdgeMap.identity(2)
        report = check_homomorphism((0, 1, 2), e_map, g, g)
        assert report.is_hom and e_map.bijective

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


TWO = Hypergraph(BITS, ((0,), (1,)))


class TestIndices:
    """Every index goes through one check: an integer passes, and a float,
    a string or a bool is refused with ShapeError naming it, where ``int``
    truncated it, read True as 1 or left a bare IndexError."""

    @pytest.mark.parametrize("build, text", [
        (lambda: EdgeMap(2, 2, (0.7, 1)), "edge map entry 0.7"),
        (lambda: EdgeMap(2.0, 2, (0, 1)), "edge count 2.0"),
        (lambda: EdgeMap(2, 2, (0, np.True_)), f"edge map entry {np.True_!r}"),
        (lambda: FunctionTable(BITS, BITS, (1.9, False)), "image index 1.9"),
        (lambda: FunctionTable(BITS, BITS, (1, False)), "image index False"),
        (lambda: Hypergraph(BITS, ((0.5, 1.2),)), "vertex index 0.5"),
        (lambda: Hypergraph(BITS, ((0, "1"),)), "vertex index '1'"),
        (lambda: check_homomorphism((0.9, 1.2), EdgeMap.identity(2), TWO, TWO),
         "vertex image 0.9"),
        (lambda: sample(bsc(0.1), 0.5, np.random.default_rng(0)), "input index 0.5"),
        (lambda: sample(bsc(0.1), True, np.random.default_rng(0)), "input index True"),
    ])
    def test_non_integer_is_refused_by_name(self, build, text):
        with pytest.raises(ShapeError, match=f"^{re.escape(text)} is not an integer$"):
            build()

    @pytest.mark.parametrize("build, text", [
        (lambda: EdgeMap(0, -1, ()), "edge count -1 is outside [0, inf)"),
        (lambda: EdgeMap(2, 2, (0, 2)), "edge map entry 2 is outside [0, 2)"),
        (lambda: EdgeMap(2, 0, (0, 0)), "edge map entry 0 is outside [0, 0)"),
        (lambda: Hypergraph(BITS, ((0, 5),)), "vertex index 5 is outside [0, 2)"),
        (lambda: FunctionTable(BITS, BITS, (0, 2)), "image index 2 is outside [0, 2)"),
        (lambda: FunctionTable(BITS, BITS, (-1, 3)), "image index -1 is outside [0, 2)"),
        (lambda: check_homomorphism((0, 9), EdgeMap.identity(2), TWO, TWO),
         "vertex image 9 is outside [0, 2)"),
        (lambda: sample(bsc(0.1), 2, np.random.default_rng(0)),
         "input index 2 is outside [0, 2)"),
    ])
    def test_out_of_range_is_refused_by_name(self, build, text):
        with pytest.raises(ShapeError, match=f"^{re.escape(text)}$"):
            build()

    def test_numpy_integers_give_equal_objects_of_python_ints(self):
        built = [
            (EdgeMap(np.int64(2), np.int32(2), np.array([1, 0])), EdgeMap(2, 2, (1, 0))),
            (FunctionTable(BITS, BITS, np.array([1, 0], dtype=np.uint8)),
             FunctionTable(BITS, BITS, (1, 0))),
            (Hypergraph(BITS, (np.array([1, 0]),)), Hypergraph(BITS, ((0, 1),))),
        ]
        for got, want in built:
            assert got == want
        edge_map, table, hyper = (got for got, _ in built)
        ints = [edge_map.source_count, edge_map.target_count, *edge_map.mapping,
                *table.mapping, *hyper.edges[0]]
        assert {type(i) for i in ints} == {int}
        assert check_homomorphism(np.array([1, 0]), EdgeMap(2, 2, (1, 0)), TWO, TWO).is_hom
        assert sample(bsc(0.0), np.int64(1), np.random.default_rng(0)) == 1


class TestHomFromEdgeMap:
    def test_identity_picks_min_index(self):
        g = Hypergraph(Alphabet(("a", "b", "c")), ((0, 1), (2,)))
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
        # each vertex goes to the lowest vertex of its edge's image
        assert vm == tuple(tgt.edges[mapping[oracles.edges_of(src, v)[0]]][0]
                           for v in range(n_src))


class TestRelabelHom:
    """The edge relabeling g_E = f_E after h_E^-1, which satisfies
    g_E after h_E = f_E, built from EdgeMap.inverse and EdgeMap.after."""

    def test_equal_maps_give_identity(self):
        m = EdgeMap(2, 2, (1, 0))
        assert m.after(m.inverse()).mapping == (0, 1)

    def test_swap(self):
        g_e = EdgeMap.identity(2).after(EdgeMap(2, 2, (1, 0)).inverse())
        assert g_e.mapping == (1, 0)

    def test_cycle_inverse(self):
        cycle = EdgeMap(3, 3, (1, 2, 0))
        g_e = EdgeMap.identity(3).after(cycle.inverse())
        assert g_e.mapping == (2, 0, 1)  # inverse cycle

    def test_compose_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h_edge = EdgeMap(4, 4, tuple(int(i) for i in rng.permutation(4)))
            f_edge = EdgeMap(4, 4, tuple(int(i) for i in rng.integers(4, size=4)))
            assert f_edge.after(h_edge.inverse()).after(h_edge) == f_edge


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
        # the relabeling moves vertices, not edges: the edge map is the same,
        # and so is the first edge whose image misses a vertex
        assert before.is_hom == after.is_hom
        assert (before.witness or (None,))[0] == (after.witness or (None,))[0]


def _identity(*labels):
    return identity_channel(Alphabet(labels))


def _code(encoder, channel, decoder):
    return FunctionCode(encoder, decoder, FunctionTable(BITS, BITS, (0, 1)), channel)


def _assemble(hyper_h):
    enc = _identity("0", "1")
    return assemble_id_code(enc, enc, None, hyper_h, None, None, None, None,
                            alpha=0.0, beta=0.0, mu=0.0)


class TestOneAlphabetCheck:
    """Every alphabet-agreement site refuses through one check, whose message
    names both sizes and the first differing label after the site's words."""

    @pytest.mark.parametrize("run, text", [
        (lambda: compose(_identity("0", "1"), _identity("a", "b")),
         "output alphabet of first must equal input alphabet of second: "
         "2 labels against 2, first differing at position 0: '0' against 'a'"),
        (lambda: verify_lhc(_identity("0", "1"),
                            Hypergraph(Alphabet(("0", "1", "2")), ((0,),)),
                            Hypergraph(BITS, ((0,),)), EdgeMap.identity(1), 0.1),
         "channel input alphabet must equal the source vertex set: "
         "2 labels against 3, first differing at position 2: none against '2'"),
        (lambda: verify_lhc(_identity("0", "1"), Hypergraph(BITS, ((0,),)),
                            Hypergraph(Alphabet(("0", "x")), ((0,),)),
                            EdgeMap.identity(1), 0.1),
         "channel output alphabet must equal the target vertex set: "
         "2 labels against 2, first differing at position 1: '1' against 'x'"),
        (lambda: _code(_identity("a", "b"), _identity("a", "b"), _identity("a", "b")),
         "encoder input must be the domain of f: "
         "2 labels against 2, first differing at position 0: 'a' against '0'"),
        (lambda: _code(_identity("0", "1"), _identity("0", "1", "2"), _identity("0", "1")),
         "encoder output must feed the channel input: "
         "2 labels against 3, first differing at position 2: none against '2'"),
        (lambda: _code(_identity("0", "1"), _identity("0", "1"), _identity("0")),
         "channel output must feed the decoder input: "
         "2 labels against 1, first differing at position 1: '1' against none"),
        (lambda: _assemble(Hypergraph(Alphabet(("0|0", "0|1", "1|0", "x")), ((0, 3),))),
         "hyper_h must live on the message-pair alphabet: "
         "4 labels against 4, first differing at position 3: 'x' against '1|1'"),
    ], ids=["compose", "verify-input", "verify-output", "code-encoder-input",
            "code-encoder-output", "code-channel-output", "assemble-hyper_h"])
    def test_refusal_names_sizes_and_first_difference(self, run, text):
        with pytest.raises(ShapeError, match=f"^{re.escape(text)}$"):
            run()
