"""Definitional per-vertex oracles for certificate verification.

Each quantity is recomputed from the edge tuples alone, vertex by vertex,
with frozensets, as the defining inequality states it. Nothing here reads
the library's incidence matrix or calls its verification routines, so the
tests never grade the library against itself. Every probability is the
same gathered-row sum the definition names, so results can be compared
bitwise.
"""

from __future__ import annotations

import itertools

import numpy as np

from lhckit import EdgeMap

SLACK = 1e-12  # the verdict slack the certificate documents


def edges_of(hyper, v: int) -> list[int]:
    return [ei for ei, e in enumerate(hyper.edges) if v in e]


def success(phi, source, target, f_e, a: int) -> float:
    """Probability that phi(a) lands in the image of every edge holding a."""
    allowed = frozenset.intersection(
        *(frozenset(target.edges[f_e(ei)]) for ei in edges_of(source, a))
    )
    return float(phi.rows[a, sorted(allowed)].sum()) if allowed else 0.0


def per_vertex(phi, source, target, f_e) -> np.ndarray:
    """Success per source vertex, NaN where the vertex lies in no edge."""
    return np.array([
        success(phi, source, target, f_e, a) if edges_of(source, a) else np.nan
        for a in range(source.vertices.size)
    ])


def profile(phi, source, target, f_e) -> np.ndarray:
    p = per_vertex(phi, source, target, f_e)
    return np.array([max(1.0 - p[v] for v in edge) for edge in source.edges])


def failing_edges(phi, source, target, f_e, lam) -> tuple[int, ...]:
    prof = profile(phi, source, target, f_e)
    return tuple(ei for ei in range(source.edge_count) if lam[ei] < prof[ei] - SLACK)


def edge_cost(phi, source, target) -> np.ndarray:
    """cost[A, B]: worst failure of a vertex of A whose output must land in B."""
    return np.array([
        [max(1.0 - float(phi.rows[v, list(b)].sum()) for v in a)
         for b in target.edges]
        for a in source.edges
    ]).reshape(source.edge_count, target.edge_count)


def enumerate_best_edge_map(phi, source, target, require_bijective: bool = True):
    """Brute force over every edge map: least worst cost, first in lex order."""
    cost = edge_cost(phi, source, target)
    k, l = source.edge_count, target.edge_count
    candidates = (
        itertools.permutations(range(l), k)
        if require_bijective
        else itertools.product(range(l), repeat=k)
    )
    best = None
    for mapping in candidates:
        worst = max(cost[i, mapping[i]] for i in range(k))
        if best is None or worst < best[0]:
            best = (worst, tuple(mapping))
    assert best is not None, "no candidate edge maps exist"
    return EdgeMap(k, l, best[1]), cost[np.arange(k), list(best[1])]
