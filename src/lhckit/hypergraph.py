"""Finite hypergraphs, function tables, and homomorphism checking.

Vertices are always addressed by their index in an ordered alphabet of
distinct labels; edges are stored as sorted index tuples and compared as
sets. Partition hypergraphs (edges pairwise disjoint and covering) are the
main case: for those the unique edge containing a vertex is well defined,
which is what makes edge maps induce vertex maps. Each hypergraph caches a
read-only vertex-by-edge incidence matrix, which the per-vertex membership
queries read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InvalidPartition,
    RequiresBijective,
    RequiresPartition,
    ShapeError,
)

PRODUCT_SEP = "|"


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of distinct symbol labels; index is identity."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if len(self.labels) == 0:
            raise ShapeError("alphabet must not be empty")
        if len(set(self.labels)) != len(self.labels):
            raise ShapeError("alphabet labels must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise ShapeError(f"label {label!r} not in alphabet") from None

    def product(self, other: "Alphabet") -> "Alphabet":
        """Cartesian product in row-major order, labels joined by '|'."""
        return Alphabet(
            tuple(
                f"{a}{PRODUCT_SEP}{b}" for a in self.labels for b in other.labels
            )
        )

    @staticmethod
    def of_size(n: int, prefix: str = "") -> "Alphabet":
        return Alphabet(tuple(f"{prefix}{i}" for i in range(n)))


BITS = Alphabet(("0", "1"))


def split_product_alphabet(product: Alphabet, second: Alphabet) -> Alphabet:
    """Recover the first factor of a row-major product alphabet.

    Validates that `product` is exactly first x second with '|'-joined
    labels; raises ShapeError otherwise.
    """
    n2 = second.size
    if product.size % n2:
        raise ShapeError(
            f"alphabet of size {product.size} is no product with a factor of {n2}"
        )
    firsts = []
    suffix = PRODUCT_SEP + second.labels[0]
    for i in range(product.size // n2):
        label = product.labels[i * n2]
        if not label.endswith(suffix):
            raise ShapeError(f"label {label!r} does not end in {suffix!r}")
        firsts.append(label[: -len(suffix)])
    first = Alphabet(tuple(firsts))
    if first.product(second).labels != product.labels:
        raise ShapeError("labels are not in row-major product order")
    return first


@dataclass(frozen=True)
class FunctionTable:
    """Total function between alphabets, stored as domain index -> codomain index."""

    domain: Alphabet
    codomain: Alphabet
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(int(i) for i in self.mapping))
        if len(self.mapping) != self.domain.size:
            raise ShapeError("function table must be total on its domain")
        for i in self.mapping:
            if not 0 <= i < self.codomain.size:
                raise ShapeError(f"image index {i} outside codomain")

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

    if not 1 <= k <= m:
        raise ShapeError("subset size must satisfy 1 <= k <= m")
    msgs = Alphabet.of_size(m)
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
        canon = []
        seen = set()
        for e in self.edges:
            s = frozenset(int(v) for v in e)
            if not s:
                raise ShapeError("edges must be nonempty")
            if any(not 0 <= v < self.vertices.size for v in s):
                raise ShapeError("edge contains vertex index outside alphabet")
            if s in seen:
                raise ShapeError("edges must be pairwise distinct as sets")
            seen.add(s)
            canon.append(tuple(sorted(s)))
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
    def degrees(self) -> np.ndarray:
        """Read-only number of edges containing each vertex."""
        d = self.incidence.sum(axis=1)
        d.setflags(write=False)
        return d

    @cached_property
    def edge_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(e) for e in self.edges)

    @cached_property
    def _edges_of(self) -> tuple[tuple[int, ...], ...]:
        # row-major nonzeros list each vertex's edges in ascending order
        flat = np.nonzero(self.incidence)[1].tolist()
        ends = np.cumsum(self.degrees).tolist()
        return tuple(tuple(flat[end - d:end])
                     for end, d in zip(ends, self.degrees.tolist()))

    def edges_containing(self, v: int) -> tuple[int, ...]:
        edges_of = self._edges_of
        return edges_of[v] if 0 <= v < len(edges_of) else ()

    @cached_property
    def covered_vertices(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.degrees).tolist())

    @cached_property
    def edges_disjoint(self) -> bool:
        # Read from the edge tuples: a set union is cheaper than building the
        # matrix for the many small hypergraphs that only ask this question.
        return sum(map(len, self.edges)) == len(frozenset().union(*self.edges))

    @cached_property
    def is_partition(self) -> bool:
        return bool(np.all(self.degrees == 1))

    def unique_edge_of(self, v: int) -> int:
        """Index of the single edge containing v; needs disjoint covering edges."""
        hits = self.edges_containing(v)
        if len(hits) != 1:
            raise RequiresPartition(
                f"vertex {v} lies in {len(hits)} edges; unique edge undefined"
            )
        return hits[0]


@dataclass(frozen=True)
class EdgeMap:
    """Total map from source edge indices to target edge indices."""

    source_count: int
    target_count: int
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(int(i) for i in self.mapping))
        if len(self.mapping) != self.source_count:
            raise ShapeError("edge map must be total on source edges")
        for j in self.mapping:
            if not 0 <= j < self.target_count:
                raise ShapeError(f"edge image {j} outside target range")

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    @property
    def surjective(self) -> bool:
        return len(set(self.mapping)) == self.target_count

    @property
    def injective(self) -> bool:
        return len(set(self.mapping)) == self.source_count

    @property
    def bijective(self) -> bool:
        return self.surjective and self.injective

    def inverse(self) -> "EdgeMap":
        if not self.bijective:
            raise RequiresBijective("cannot invert a non-bijective edge map")
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


@dataclass(frozen=True)
class HomReport:
    """Verdicts for a candidate hypergraph homomorphism."""

    vertex_map: tuple[int, ...]
    edge_map: EdgeMap
    is_hom: bool
    edge_surjective: bool
    edge_bijective: bool
    witness: tuple[int, int] | None  # (edge index, vertex index) violating inclusion


def make_partition_hypergraph(
    vertices: Alphabet, blocks: Sequence[Iterable[int]]
) -> Hypergraph:
    """Hypergraph whose edges are the given blocks; must partition the vertices."""
    owner: dict[int, int] = {}
    block_sets = []
    for bi, block in enumerate(blocks):
        s = frozenset(int(v) for v in block)
        if not s:
            raise InvalidPartition(f"block {bi} is empty")
        for v in sorted(s):
            if not 0 <= v < vertices.size:
                raise ShapeError(f"block {bi} names vertex {v} outside alphabet")
            if v in owner:
                raise InvalidPartition(
                    f"vertex {vertices.labels[v]!r} lies in blocks {owner[v]} and {bi}"
                )
            owner[v] = bi
        block_sets.append(s)
    for v in range(vertices.size):
        if v not in owner:
            raise InvalidPartition(f"vertex {vertices.labels[v]!r} is uncovered")
    return Hypergraph(vertices, tuple(tuple(sorted(s)) for s in block_sets))


def complete_1_uniform(vertices: Alphabet) -> Hypergraph:
    """One singleton edge per vertex; all vertices disconnected."""
    return Hypergraph(vertices, tuple((v,) for v in range(vertices.size)))


def characteristic_hypergraph(f: FunctionTable) -> Hypergraph:
    """Partition of the domain into preimages, one edge per attained value."""
    edges = []
    for b in f.attained:
        edges.append(tuple(a for a in range(f.domain.size) if f.mapping[a] == b))
    return Hypergraph(f.domain, tuple(edges))


def check_homomorphism(
    vertex_map: Sequence[int],
    edge_map: EdgeMap,
    source: Hypergraph,
    target: Hypergraph,
) -> HomReport:
    """Check that every source edge maps inside its assigned target edge."""
    vm = tuple(int(v) for v in vertex_map)
    if len(vm) != source.vertices.size:
        raise ShapeError("vertex map must be total on the source vertices")
    for w in vm:
        if not 0 <= w < target.vertices.size:
            raise ShapeError(f"vertex image {w} outside target alphabet")
    if edge_map.source_count != source.edge_count:
        raise ShapeError("edge map not total on source edges")
    if edge_map.target_count != target.edge_count:
        raise ShapeError("edge map target count differs from target hypergraph")

    witness = None
    is_hom = True
    target_sets = target.edge_sets
    for ei, edge in enumerate(source.edges):
        allowed = target_sets[edge_map(ei)]
        for v in edge:
            if vm[v] not in allowed:
                witness = (ei, v)
                is_hom = False
                break
        if not is_hom:
            break
    return HomReport(
        vertex_map=vm,
        edge_map=edge_map,
        is_hom=is_hom,
        edge_surjective=edge_map.surjective,
        edge_bijective=edge_map.bijective,
        witness=witness,
    )


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
    if edge_map.source_count != source.edge_count:
        raise ShapeError("edge map not total on source edges")
    if edge_map.target_count != target.edge_count:
        raise ShapeError("edge map target count differs from target hypergraph")
    vm = []
    for v in range(source.vertices.size):
        image_edge = target.edges[edge_map(source.unique_edge_of(v))]
        vm.append(image_edge[0])
    return tuple(vm)


def relabel_hom(
    f_edge: EdgeMap, h_edge: EdgeMap, g: Hypergraph
) -> tuple[tuple[int, ...], EdgeMap]:
    """Edge-bijective self-map of g aligning two edge maps with common source.

    Returns (vertex map, edge map g_E) with g_E = f_edge composed with the
    inverse of h_edge, so that g_E after h_edge equals f_edge exactly.
    """
    if not h_edge.bijective:
        raise RequiresBijective("relabeling requires a bijective reference edge map")
    if f_edge.source_count != h_edge.source_count:
        raise ShapeError("edge maps must share their source edge set")
    if f_edge.target_count != g.edge_count or h_edge.target_count != g.edge_count:
        raise ShapeError("edge maps must land in the edges of g")
    g_e = f_edge.after(h_edge.inverse())
    vm = hom_from_edge_map(g_e, g, g)
    return vm, g_e
