"""Exact verification of the local-homomorphism inequality.

A channel between the vertex sets of two hypergraphs is locally homomorphic
at an error vector when, for every vertex lying in at least one source edge,
the output lands in the intersection of the images of all edges containing
it with probability at least 1 minus the smallest error among those edges.
Vertices in no edge impose no constraint. Everything here is computed by
exact summation over materialized channel rows; there is no sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .channel import Channel
from .errors import (
    IsolatedVertex,
    RequiresPartition,
    ShapeError,
    SizeMismatch,
)
from .hypergraph import EdgeMap, Hypergraph

VERIFY_SLACK = 1e-12


def edge_vector(value, count: int, name: str) -> np.ndarray:
    """Per-edge float vector: a scalar is broadcast to all count edges."""
    v = np.asarray(value, dtype=np.float64)
    if v.ndim == 0:
        v = np.full(count, float(v))
    if v.shape != (count,):
        raise ShapeError(f"{name} must have one entry per edge ({count})")
    return v


@dataclass(frozen=True, eq=False)
class LhcCertificate:
    """Edge map plus error vector with per-vertex evidence and a verdict."""

    edge_map: EdgeMap
    lam: np.ndarray
    per_vertex_success: np.ndarray  # NaN where the vertex is isolated
    passed: bool
    edge_bijective: bool
    failing_edges: tuple[int, ...]

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _check_shapes(phi: Channel, source: Hypergraph, target: Hypergraph, f_e: EdgeMap):
    if phi.input.labels != source.vertices.labels:
        raise ShapeError("channel input alphabet must equal the source vertex set")
    if phi.output.labels != target.vertices.labels:
        raise ShapeError("channel output alphabet must equal the target vertex set")
    if f_e.source_count != source.edge_count:
        raise ShapeError("edge map not total on source edges")
    if f_e.target_count != target.edge_count:
        raise ShapeError("edge map target count differs from target hypergraph")


def _allowed(target: Hypergraph, f_e: EdgeMap, hits) -> np.ndarray:
    """Ascending target vertices lying in the image of every edge in hits."""
    images = [f_e(ei) for ei in hits]
    return np.flatnonzero(target.incidence[:, images].all(axis=1))


def success_prob(
    phi: Channel, source: Hypergraph, target: Hypergraph, f_e: EdgeMap, a: int
) -> float:
    """Probability that phi(a) lands in every image of an edge containing a."""
    _check_shapes(phi, source, target, f_e)
    hits = source.edges_containing(a)
    if not hits:
        raise IsolatedVertex(f"vertex {a} lies in no edge of the source hypergraph")
    return float(phi.rows[a, _allowed(target, f_e, hits)].sum())


def per_vertex_success(
    phi: Channel, source: Hypergraph, target: Hypergraph, f_e: EdgeMap
) -> np.ndarray:
    """Success probability per source vertex; NaN for isolated vertices.

    Vertices with the same incidence row (edge signature) share their
    allowed target set, so it is intersected once per signature.
    """
    _check_shapes(phi, source, target, f_e)
    out = np.full(source.vertices.size, np.nan)
    _, first, sig = np.unique(
        source.incidence, axis=0, return_index=True, return_inverse=True
    )
    sig = sig.reshape(-1)
    members_of = np.split(np.argsort(sig, kind="stable"),
                          np.cumsum(np.bincount(sig))[:-1])
    for rep, members in zip(first.tolist(), members_of):
        hits = source.edges_containing(rep)
        if hits:
            allowed = _allowed(target, f_e, hits)
            out[members] = phi.rows[np.ix_(members, allowed)].sum(axis=1)
    return out


def _profile(success: np.ndarray, source: Hypergraph) -> np.ndarray:
    """Worst failure 1 - success among the vertices of each source edge."""
    return np.where(source.incidence, 1.0 - success[:, None], -np.inf).max(axis=0)


def lambda_profile(
    phi: Channel, source: Hypergraph, target: Hypergraph, f_e: EdgeMap
) -> np.ndarray:
    """Pointwise-minimal error vector making the certificate pass.

    Each edge takes the worst failure probability among its vertices; this is
    minimal because the constraint at a vertex lower-bounds every edge
    containing it.
    """
    return _profile(per_vertex_success(phi, source, target, f_e), source)


def verify_lhc(
    phi: Channel,
    source: Hypergraph,
    target: Hypergraph,
    f_e: EdgeMap,
    lam,
) -> LhcCertificate:
    """Certificate for phi : source -> target at the given error vector."""
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (source.edge_count,):
        raise ShapeError(
            f"error vector has shape {lam.shape}, expected ({source.edge_count},)"
        )
    success = per_vertex_success(phi, source, target, f_e)
    profile = _profile(success, source)
    failing = tuple(
        int(e) for e in np.nonzero(lam < profile - VERIFY_SLACK)[0]
    )
    return LhcCertificate(
        edge_map=f_e,
        lam=lam,
        per_vertex_success=success,
        passed=not failing,
        edge_bijective=f_e.bijective,
        failing_edges=failing,
    )


def edge_mass(rows: np.ndarray, hyper: Hypergraph) -> np.ndarray:
    """mass[x, e] = probability that row x lands in edge e of hyper.

    Each edge's columns are gathered and summed in ascending order, so every
    caller thresholding this mass sees the same rounding.
    """
    mass = np.zeros((rows.shape[0], hyper.edge_count))
    for e, edge in enumerate(hyper.edges):
        mass[:, e] = rows[:, list(edge)].sum(axis=1)
    return mass


def edge_cost_matrix(
    phi: Channel, source: Hypergraph, target: Hypergraph
) -> np.ndarray:
    """cost[A, B] = worst failure probability of any vertex of A aimed at B."""
    mass = edge_mass(phi.rows, target)
    cost = np.zeros((source.edge_count, target.edge_count))
    for ai, edge in enumerate(source.edges):
        cost[ai] = (1.0 - mass[list(edge), :]).max(axis=0)
    return cost


def _has_perfect_matching(allowed: np.ndarray) -> bool:
    penalty = np.where(allowed, 0.0, 1.0)
    rows, cols = linear_sum_assignment(penalty)
    return bool(penalty[rows, cols].sum() == 0.0)


def _bottleneck_assignment(cost: np.ndarray) -> tuple[int, ...]:
    """Bijection minimizing the max cost; lexicographically smallest on ties."""
    k = cost.shape[0]
    thresholds = np.unique(cost)
    lo, hi = 0, thresholds.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(cost <= thresholds[mid]):
            hi = mid
        else:
            lo = mid + 1
    t_star = thresholds[lo]
    allowed = cost <= t_star

    mapping: list[int] = []
    free = list(range(k))
    for i in range(k):
        for j in free:
            if not allowed[i, j]:
                continue
            rest_rows = list(range(i + 1, k))
            rest_cols = [c for c in free if c != j]
            if not rest_rows or _has_perfect_matching(
                allowed[np.ix_(rest_rows, rest_cols)]
            ):
                mapping.append(j)
                free.remove(j)
                break
        else:
            raise AssertionError("bottleneck matching lost feasibility")
    return tuple(mapping)


def infer_edge_map(
    phi: Channel,
    source: Hypergraph,
    target: Hypergraph,
    require_bijective: bool = True,
) -> tuple[EdgeMap, np.ndarray]:
    """Edge map minimizing the worst edge error, with its error profile.

    Restricted to partition hypergraphs, where each source edge's error under
    a candidate map is independent of the other edges. The bijective case is
    a bottleneck assignment; ties break to the lexicographically smallest
    mapping.
    """
    if not source.edges_disjoint:
        raise RequiresPartition("source edges must be pairwise disjoint")
    if not target.edges_disjoint:
        raise RequiresPartition("target edges must be pairwise disjoint")
    cost = edge_cost_matrix(phi, source, target)
    if require_bijective:
        if source.edge_count != target.edge_count:
            raise SizeMismatch(
                f"{source.edge_count} source edges vs {target.edge_count} target edges"
            )
        mapping = _bottleneck_assignment(cost)
    else:
        # unconstrained edges choose independently; among maps achieving the
        # minimal worst error, take the lexicographically smallest mapping
        t_star = cost.min(axis=1).max()
        mapping = tuple(
            int(np.nonzero(row <= t_star)[0][0]) for row in cost
        )
    f_e = EdgeMap(source.edge_count, target.edge_count, mapping)
    lam = cost[np.arange(source.edge_count), list(mapping)]
    return f_e, lam
