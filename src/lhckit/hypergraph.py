"""Finite hypergraphs, function tables, and homomorphism checking.

Vertices are always addressed by their index in an ordered alphabet of
distinct labels; edges are stored as sorted index tuples and compared as
sets. Partition hypergraphs (edges pairwise disjoint and covering) are the
main case: for those the unique edge containing a vertex is well defined,
which is what makes edge maps induce vertex maps. Each hypergraph caches a
read-only vertex-by-edge incidence matrix, which the per-vertex membership
queries read, and the grouping of its vertices by the edges containing them.
Every check that two alphabets agree, in channels, codes, certificates and
code assembly, is `_require_same_alphabet`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from .errors import RequiresBijective, RequiresPartition, ShapeError, _indices, _require_count

PRODUCT_SEP = "|"


class Alphabet:
    """Ordered finite set of distinct symbol labels; index is identity.

    An alphabet is its size plus one rule that names its labels: an explicit
    tuple, ``Alphabet(labels)``; ``of_size(n, prefix)``, the prefix followed
    by each index in decimal; or ``a.product(b)``, row-major with labels
    joined by '|'. ``labels`` is built on its first read (a file, a
    refusal's message, ``index``, ``hash``, an equality of unlike rules) and
    kept. Two alphabets are equal when they are one object, when they have
    the same size and equal rules (the same prefix, or equal factors), and
    otherwise when their labels are equal.

    The rule forms are distinct by construction where their labels split
    back into their parts: always for ``of_size``, and for a product when
    either factor holds no '|' in its labels (split a label at its first
    '|' if the first factor holds none, else at its last). Any other
    product builds its labels and is checked as an explicit tuple is.
    """

    __slots__ = ("size", "_rule", "_labels", "_plain")

    def __init__(self, labels: Sequence[str]):
        labels = tuple(labels)
        if not {str}.issuperset(map(type, labels)):  # a str subclass passes
            for x in labels:
                if not isinstance(x, str):
                    raise ShapeError(f"label {x!r} is not a string")
        if len(labels) == 0:
            raise ShapeError("alphabet must not be empty")
        _require_distinct(labels)
        _init(self, len(labels), None, labels, None)

    @property
    def labels(self) -> tuple[str, ...]:
        labels = self._labels
        if labels is None:
            rule = self._rule
            if isinstance(rule, str):
                labels = tuple([f"{rule}{i}" for i in range(self.size)])
            else:
                labels = _product_labels(*rule)
            object.__setattr__(self, "_labels", labels)
        return labels

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ShapeError(f"label {label!r} not in alphabet") from None

    def product(self, other: "Alphabet") -> "Alphabet":
        """Cartesian product in row-major order, labels joined by '|'."""
        out = _init(object.__new__(Alphabet), self.size * other.size, (self, other), None, False)
        if not (self._sep_free() or other._sep_free()):
            _require_distinct(out.labels)
        return out

    @staticmethod
    def of_size(n: int, prefix: str = "") -> "Alphabet":
        _require_count(n, "alphabet size")
        prefix = f"{prefix}"
        return _init(object.__new__(Alphabet), int(n), prefix, None, PRODUCT_SEP not in prefix)

    def _sep_free(self) -> bool:
        """Whether no label holds '|'; an explicit alphabet scans its labels
        on the first call."""
        if self._plain is None:
            object.__setattr__(self, "_plain", PRODUCT_SEP not in "".join(self._labels))
        return self._plain

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Alphabet):
            return NotImplemented
        if self.size != other.size:
            return False
        rule = self._rule
        return rule is not None and rule == other._rule or self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"Alphabet(labels={self.labels!r})"

    def __reduce__(self):
        return Alphabet, (self.labels,)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _init(alphabet: Alphabet, size: int, rule, labels, plain) -> Alphabet:
    """Fill an alphabet's slots: rule is None for explicit labels, the
    prefix of ``of_size`` or a product's two factors; plain is whether no
    label holds '|', or None until an explicit alphabet is asked."""
    put = object.__setattr__
    put(alphabet, "size", size)
    put(alphabet, "_rule", rule)
    put(alphabet, "_labels", labels)
    put(alphabet, "_plain", plain)
    return alphabet


def _require_distinct(labels: tuple[str, ...]) -> None:
    if len(set(labels)) != len(labels):
        raise ShapeError("alphabet labels must be pairwise distinct")


BITS = Alphabet(("0", "1"))


def _product_labels(first: Alphabet, second: Alphabet) -> tuple[str, ...]:
    return tuple([f"{a}{PRODUCT_SEP}{b}" for a in first.labels for b in second.labels])


def _require_same_alphabet(got: Alphabet, want: Alphabet, what: str) -> None:
    """The one alphabet-agreement check: raise ShapeError unless got equals
    want, naming both sizes and the first differing label after what. Labels
    are built only where the rules alone do not decide."""
    if got != want:
        a, b = got.labels, want.labels
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        at = [repr(labels[i]) if i < len(labels) else "none" for labels in (a, b)]
        raise ShapeError(f"{what}: {len(a)} labels against {len(b)}, first differing "
                         f"at position {i}: {at[0]} against {at[1]}")


def split_product_alphabet(product: Alphabet, second: Alphabet) -> Alphabet:
    """Recover the first factor of a row-major product alphabet.

    A product built as first x second gives its first factor at once.
    Otherwise the labels must be exactly first x second, '|'-joined;
    raises ShapeError if they are not.
    """
    rule = product._rule
    if isinstance(rule, tuple) and rule[1] == second:
        return rule[0]
    n2 = second.size
    if product.size % n2:
        raise ShapeError(
            f"alphabet of size {product.size} is no product with a factor of {n2}"
        )
    suffix = PRODUCT_SEP + second.labels[0]
    heads = product.labels[::n2]
    bad = next((label for label in heads if not label.endswith(suffix)), None)
    if bad is not None:
        raise ShapeError(f"label {bad!r} does not end in {suffix!r}")
    firsts = [label[: -len(suffix)] for label in heads]
    if [f"{a}{PRODUCT_SEP}{b}" for a in firsts for b in second.labels] != list(product.labels):
        raise ShapeError("labels are not in row-major product order")
    return Alphabet(tuple(firsts))


@dataclass(frozen=True)
class FunctionTable:
    """Total function between alphabets, stored as domain index -> codomain index."""

    domain: Alphabet
    codomain: Alphabet
    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = _indices(self.mapping, "image index", self.codomain.size)
        object.__setattr__(self, "mapping", mapping)
        if len(self.mapping) != self.domain.size:
            raise ShapeError("function table must be total on its domain")

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    @property
    def attained(self) -> tuple[int, ...]:
        """Codomain indices with nonempty preimage, in codomain order."""
        hit = set(self.mapping)
        return tuple(b for b in range(self.codomain.size) if b in hit)


def identification_table(m: int) -> FunctionTable:
    """Equality test on pairs from a message set of size m: (i, j) -> 1{i = j}."""
    msgs = Alphabet.of_size(m)
    dom = msgs.product(msgs)
    mapping = tuple(int(i == j) for i in range(m) for j in range(m))
    return FunctionTable(dom, BITS, mapping)


def k_identification_table(m: int, k: int) -> FunctionTable:
    """Membership test (i, S) -> 1{i in S} over all k-element subsets of the messages."""
    from itertools import combinations

    _require_count(k, "subset size")
    msgs = Alphabet.of_size(m)
    if k > m:
        raise ShapeError("subset size must satisfy 1 <= k <= m")
    subsets = list(combinations(range(m), k))
    subset_alpha = Alphabet(tuple("+".join(str(i) for i in s) for s in subsets))
    dom = msgs.product(subset_alpha)
    mapping = tuple(int(i in s) for i in range(m) for s in subsets)
    return FunctionTable(dom, BITS, mapping)


@dataclass(frozen=True)
class Hypergraph:
    """Vertex alphabet plus distinct nonempty edges (sorted index tuples)."""

    vertices: Alphabet
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        edges = tuple(map(tuple, self.edges))
        flat = tuple(chain.from_iterable(edges))
        ints = _indices(flat, "vertex index", self.vertices.size)  # every vertex index in one call
        if ints is not flat:  # numpy integers, now Python ints: cut into edges
            edges = [ints[end - len(e):end] for e, end in zip(edges, accumulate(map(len, edges)))]
        canon: dict[tuple[int, ...], None] = {}  # in edge order
        for e in edges:
            s = tuple(sorted(set(e)))
            if not s:
                raise ShapeError("edges must be nonempty")
            if s in canon:
                raise ShapeError("edges must be pairwise distinct as sets")
            canon[s] = None
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Read-only boolean V x E matrix; [v, e] is set when edge e holds v."""
        k = len(self.edges)
        s = np.zeros(self.vertices.size * k, dtype=bool)
        s.put([v * k + ei for ei, e in enumerate(self.edges) for v in e], True)
        s = s.reshape(self.vertices.size, k)
        s.setflags(write=False)
        return s

    @cached_property
    def vertex_groups(self) -> tuple[np.ndarray, ...]:
        """Read-only ascending vertex arrays, one per distinct edge signature.

        Vertices in one group lie in exactly the same edges (isolated
        vertices form the group of the empty signature); groups come in
        order of their lowest vertex. One stable sort of the incidence rows,
        packed into bytes, brings equal rows together in ascending vertex
        order; the runs are cut where a row changes.
        """
        key = np.packbits(self.incidence, axis=1)
        order = np.lexsort(key.T[::-1]) if key.shape[1] else np.arange(len(key))
        ranked = key[order]
        cuts = (np.flatnonzero((ranked[1:] != ranked[:-1]).any(axis=1)) + 1).tolist()
        starts = [0, *cuts]
        runs = [order[a:b] for a, b in zip(starts, cuts + [len(order)])]
        out = tuple([runs[i] for i in np.argsort(order[starts]).tolist()])
        for members in out:
            members.setflags(write=False)
        return out

    def edges_containing(self, v: int) -> tuple[int, ...]:
        (v,) = _indices((v,), "vertex index", self.vertices.size)
        return tuple(self.incidence[v].nonzero()[0].tolist())

    @cached_property
    def edges_disjoint(self) -> bool:
        # Read from the edge tuples: a set union is cheaper than building the
        # matrix for the many small hypergraphs that only ask this question.
        return sum(map(len, self.edges)) == len(frozenset().union(*self.edges))

    @cached_property
    def is_partition(self) -> bool:
        """Whether every vertex lies in exactly one edge."""
        return bool(np.all(self.incidence.sum(axis=1) == 1))


def _drawn_partition(alphabet: Alphabet, order: list[int], bounds: list[int]) -> Hypergraph:
    """The partition whose edges are order[lo:hi], each sorted, between
    neighbouring bounds: ``Hypergraph(alphabet, blocks)`` without its checks.

    order must be a permutation of the vertex indices as Python ints, and
    bounds strictly increasing from 0 to alphabet.size; then every block is
    nonempty, the blocks are disjoint and every index is in range, so
    nothing is checked, and ``edges_disjoint`` is stored as True.
    """
    drawn = object.__new__(Hypergraph)
    fields = drawn.__dict__
    fields["vertices"] = alphabet
    fields["edges"] = tuple([tuple(sorted(order[lo:hi])) for lo, hi in zip(bounds, bounds[1:])])
    fields["edges_disjoint"] = True
    return drawn


@dataclass(frozen=True)
class EdgeMap:
    """Total map from source edge indices to target edge indices."""

    source_count: int
    target_count: int
    mapping: tuple[int, ...]

    def __post_init__(self):
        source, target = _indices((self.source_count, self.target_count), "edge count")
        object.__setattr__(self, "source_count", source)
        object.__setattr__(self, "target_count", target)
        object.__setattr__(self, "mapping", _indices(self.mapping, "edge map entry", target))
        if len(self.mapping) != self.source_count:
            raise ShapeError("edge map must be total on source edges")

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def check_fit(self, source: Hypergraph, target: Hypergraph) -> None:
        """Raise ShapeError unless the map runs from source's to target's edges."""
        if self.source_count != source.edge_count:
            raise ShapeError("edge map not total on source edges")
        if self.target_count != target.edge_count:
            raise ShapeError("edge map target count differs from target hypergraph")

    @property
    def bijective(self) -> bool:
        return len(set(self.mapping)) == self.source_count == self.target_count

    def inverse(self) -> "EdgeMap":
        _require_bijective(self, "inverted edge map")
        inv = [0] * self.target_count
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return EdgeMap(self.target_count, self.source_count, tuple(inv))

    def after(self, first: "EdgeMap") -> "EdgeMap":
        """Composition self(first(.)) : source of `first` -> target of self."""
        if first.target_count != self.source_count:
            raise ShapeError("edge maps do not compose: counts mismatch")
        return EdgeMap(
            first.source_count,
            self.target_count,
            tuple(self.mapping[j] for j in first.mapping),
        )

    @staticmethod
    def identity(n: int) -> "EdgeMap":
        return EdgeMap(n, n, tuple(range(n)))


def _require_bijective(edge_map: EdgeMap, what: str) -> None:
    """The one check that an edge map is a bijection: RequiresBijective
    naming the map's role as what."""
    if not edge_map.bijective:
        raise RequiresBijective(f"{what} must be bijective")


@dataclass(frozen=True)
class HomReport:
    """Verdict for a candidate hypergraph homomorphism."""

    witness: tuple[int, int] | None  # (edge index, vertex index) violating inclusion

    @property
    def is_hom(self) -> bool:
        return self.witness is None


def complete_1_uniform(vertices: Alphabet) -> Hypergraph:
    """One singleton edge per vertex; all vertices disconnected."""
    return Hypergraph(vertices, tuple((v,) for v in range(vertices.size)))


def characteristic_hypergraph(f: FunctionTable) -> Hypergraph:
    """Partition of the domain into preimages, one edge per attained value."""
    preimages: dict[int, list[int]] = {}
    for a, b in enumerate(f.mapping):
        preimages.setdefault(b, []).append(a)
    return Hypergraph(f.domain, tuple([tuple(preimages[b]) for b in sorted(preimages)]))


def check_homomorphism(
    vertex_map: Sequence[int],
    edge_map: EdgeMap,
    source: Hypergraph,
    target: Hypergraph,
) -> HomReport:
    """Check that every source edge maps inside its assigned target edge."""
    vm = _indices(vertex_map, "vertex image", target.vertices.size)
    if len(vm) != source.vertices.size:
        raise ShapeError("vertex map must be total on the source vertices")
    edge_map.check_fit(source, target)

    inside = target.incidence
    witness = next(((ei, v) for ei, edge in enumerate(source.edges)
                    for v in edge if not inside[vm[v], edge_map(ei)]), None)
    return HomReport(witness)


def hom_from_edge_map(
    edge_map: EdgeMap, source: Hypergraph, target: Hypergraph
) -> tuple[int, ...]:
    """Vertex map realizing an edge map between partition hypergraphs.

    Each vertex goes to the lowest-index vertex of the image of its unique
    edge, so the construction is deterministic.
    """
    if not source.is_partition:
        raise RequiresPartition("source must be a partition hypergraph")
    if not target.is_partition:
        raise RequiresPartition("target must be a partition hypergraph")
    edge_map.check_fit(source, target)
    image_first = [target.edges[j][0] for j in edge_map.mapping]
    # each incidence row of a partition holds one edge
    return tuple([image_first[e] for e in source.incidence.argmax(axis=1).tolist()])

