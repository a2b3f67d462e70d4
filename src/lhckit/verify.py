"""Exact verification of the local-homomorphism inequality.

A channel between the vertex sets of two hypergraphs is locally homomorphic
at an error vector when, for every vertex lying in at least one source edge,
the output lands in the intersection of the images of all edges containing
it with probability at least 1 minus the smallest error among those edges.
Vertices in no edge impose no constraint. Everything here is computed by
exact summation over materialized channel rows; there is no sampling.

One summation rule holds for every mass, a row's probability on a set of
columns: its entries, in ascending column order, are added to 0.0 one at a
time, left to right. ``edge_mass``, ``per_vertex_success`` and
``one_sided_costs`` all follow it, so a quantity that two routes read, such
as a partition vertex's success and its mass on its edge's image, is one
float.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .channel import Channel
from .errors import (EdgeCountMismatch, HypothesisViolated, RangeError,
                     RequiresPartition, ShapeError, _require_real)
from .hypergraph import Alphabet, EdgeMap, Hypergraph, _require_same_alphabet

VERIFY_SLACK = 1e-12
_INPUT_RULE = "channel input alphabet must equal the source vertex set"
_OUTPUT_RULE = "channel output alphabet must equal the target vertex set"


def exceeds(value, bound) -> np.ndarray:
    """Where value lies above its bound by more than VERIFY_SLACK.

    The one tolerance rule of every certificate, hypothesis and bound check.
    """
    return np.asarray(bound) < np.asarray(value) - VERIFY_SLACK


def require_within(value, bound, what: str) -> None:
    """Raise HypothesisViolated where value exceeds its bound (see ``exceeds``).

    The one refusal of a violated per-edge bound: the message names the
    inequality ``what``, the first failing edge and both values there.
    """
    value, bound = np.broadcast_arrays(value, bound)
    bad = np.flatnonzero(exceeds(value, bound))
    if bad.size:
        e = int(bad[0])
        raise HypothesisViolated(
            f"{what} fails at edge {e}: {float(value[e])!r} > {float(bound[e])!r}"
        )


def worst_failure(success, member) -> np.ndarray:
    """Worst failure 1 - success among the members of each column of member.

    The one rule that forms an error profile. member is a V x E boolean
    membership matrix whose every column holds a member (an edge, or an
    attained value's preimage); a (V,) success gives (E,), a (V, L) one
    gives (E, L). Only members' rows are gathered, grouped by column, so
    the work is the number of memberships times L.
    """
    column, row = np.nonzero(member.T)  # grouped by column
    return _grouped_worst(success, row, np.searchsorted(column, np.arange(member.shape[1])))


def _grouped_worst(success, rows, starts) -> np.ndarray:
    """``worst_failure``'s grouped max: row g of the result is the worst
    1 - success over success's rows rows[starts[g]:starts[g + 1]] (the
    last group runs to the end), and no group is empty."""
    return np.maximum.reduceat(1.0 - success[rows], starts, axis=0)


def require_disjoint_edges(source: Hypergraph, target: Hypergraph) -> None:
    """Raise RequiresPartition unless both hypergraphs have disjoint edges."""
    if not source.edges_disjoint:
        raise RequiresPartition("source edges must be pairwise disjoint")
    if not target.edges_disjoint:
        raise RequiresPartition("target edges must be pairwise disjoint")


def edge_vector(value, count: int, name: str) -> np.ndarray:
    """Per-edge float vector: a scalar is broadcast to all count edges.

    The one per-edge number check: every entry must be a real number that
    float64 holds, not a bool, and not NaN, or RangeError names the
    parameter and the first bad entry. NaN compares false against every
    bound, so unrefused it would let a certificate pass or a hypothesis
    check hold vacuously. A list and an ndarray pass the same entries: a
    float or integer array at once, any other (bool, complex, object) entry
    by entry, so a ``Fraction`` array reads as its list does.
    """
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "fiu"):
        value = value.tolist() if isinstance(value, np.ndarray) else value
        for x in value if isinstance(value, (list, tuple)) else [value]:
            _require_real(x, name)
    try:
        v = np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise RangeError(f"{name} holds a number past the float64 range") from None
    if v.ndim == 0:
        v = np.full(count, float(v))
    if v.shape != (count,):
        raise ShapeError(f"{name} must have one entry per edge ({count})")
    if np.isnan(v).any():
        raise RangeError(f"{name} is NaN at edge {int(np.argmax(np.isnan(v)))}")
    return v


@dataclass(frozen=True, eq=False)
class LhcCertificate:
    """Edge map plus error vector with per-vertex evidence and the failing edges."""

    edge_map: EdgeMap
    lam: np.ndarray
    per_vertex_success: np.ndarray  # NaN where the vertex is isolated
    failing_edges: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.failing_edges

    @property
    def edge_bijective(self) -> bool:
        return self.edge_map.bijective

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def _check_alphabets(phi: Channel, source: Hypergraph, target: Hypergraph):
    _require_same_alphabet(phi.input, source.vertices, _INPUT_RULE)
    _require_same_alphabet(phi.output, target.vertices, _OUTPUT_RULE)


def _allowed(target: Hypergraph, f_e: EdgeMap, hits) -> np.ndarray:
    """Ascending target vertices lying in the image of every edge in hits."""
    images = [f_e(ei) for ei in hits]
    return (np.array(target.edges[images[0]]) if len(images) == 1  # sorted, unique
            else np.flatnonzero(target.incidence[:, images].all(axis=1)))


def _masses(rows: np.ndarray, cols) -> np.ndarray:
    """Each row's mass on the ascending columns cols, by the module's one
    summation rule. ``rows[:, cols]`` of two or more rows comes out
    column-major, so numpy adds its row sums one column at a time; one row
    would come out contiguous and be summed pairwise, so it is accumulated
    from 0.0 instead, which also gives 0.0 for no columns."""
    if rows.shape[0] == 1:
        return np.cumsum(np.append(0.0, rows[0, cols]))[-1:]
    return rows[:, cols].sum(axis=1)


def per_vertex_success(
    phi: Channel, source: Hypergraph, target: Hypergraph, f_e: EdgeMap
) -> np.ndarray:
    """Success probability per source vertex; NaN for isolated vertices.

    Vertices with the same edge signature share their allowed target set,
    so it is intersected once per group of ``source.vertex_groups``, which
    the hypergraph caches. Each vertex's success is its row's mass on that
    set, summed for the group's rows at once.
    """
    _check_alphabets(phi, source, target)
    f_e.check_fit(source, target)
    rows = phi.rows
    out = np.full(source.vertices.size, np.nan)
    for members in source.vertex_groups:
        hits = source.edges_containing(members[0])
        if hits:
            out[members] = _masses(rows.take(members, 0), _allowed(target, f_e, hits))
    return out


def lambda_profile(
    phi: Channel, source: Hypergraph, target: Hypergraph, f_e: EdgeMap
) -> np.ndarray:
    """Pointwise-minimal error vector making the certificate pass.

    Each edge takes the worst failure probability among its vertices; this is
    minimal because the constraint at a vertex lower-bounds every edge
    containing it.
    """
    return worst_failure(per_vertex_success(phi, source, target, f_e),
                         source.incidence)


def verify_lhc(
    phi: Channel,
    source: Hypergraph,
    target: Hypergraph,
    f_e: EdgeMap,
    lam,
) -> LhcCertificate:
    """Certificate for phi : source -> target at the given error vector."""
    lam = edge_vector(lam, source.edge_count, "lam")
    success = per_vertex_success(phi, source, target, f_e)
    profile = worst_failure(success, source.incidence)
    failing = tuple(int(e) for e in np.nonzero(exceeds(profile, lam))[0])
    return LhcCertificate(
        edge_map=f_e,
        lam=lam,
        per_vertex_success=success,
        failing_edges=failing,
    )


def edge_mass(rows: np.ndarray, hyper: Hypergraph) -> np.ndarray:
    """mass[x, e] = probability that row x lands in edge e of hyper.

    Each edge's columns are summed in ascending order by the module's one
    rule, so edge costs, decomposition blocks and certificates see one
    rounding.
    """
    mass = np.zeros((rows.shape[0], hyper.edge_count))
    for e, edge in enumerate(hyper.edges):
        mass[:, e] = _masses(rows, list(edge))
    return mass


def edge_cost_matrix(
    phi: Channel, source: Hypergraph, target: Hypergraph
) -> np.ndarray:
    """cost[A, B] = worst failure probability of any vertex of A aimed at B."""
    _check_alphabets(phi, source, target)
    return worst_failure(edge_mass(phi.rows, target), source.incidence)


def one_sided_side(
    phi: Channel,
    other: Alphabet,
    source: Hypergraph,
    target: Hypergraph,
    phi_first: bool = False,
) -> tuple:
    """The side (phi, other, source, target, phi_first) for
    ``one_sided_costs``, after ``infer_edge_map``'s refusals of
    id_other x phi (phi x id_other when phi_first) in its order, with its
    messages: disjoint edges, the two alphabets, the edge counts."""
    require_disjoint_edges(source, target)
    ins, outs = (phi.input, other), (phi.output, other)
    if not phi_first:
        ins, outs = ins[::-1], outs[::-1]
    _require_same_alphabet(ins[0].product(ins[1]), source.vertices, _INPUT_RULE)
    _require_same_alphabet(outs[0].product(outs[1]), target.vertices, _OUTPUT_RULE)
    _require_edge_counts(source, target, "source", "target")
    return phi, other, source, target, phi_first


def one_sided_costs(sides) -> list[np.ndarray]:
    """``edge_cost_matrix`` of id_other x phi (phi x id_other when
    phi_first) for each checked side (phi, other, source, target,
    phi_first), read from phi's rows and target's edges in one pass.

    Row (a, b) of id x phi holds phi[b, x] in column (a, x) and 0.0
    elsewhere, so its mass on a target edge is the sum of phi[b, x] over the
    x with (a, x) in the edge. Every side's terms phi[b, x], each side's in
    (a, b, x) order, go into one ``np.bincount``: a source row has a bin per
    column of one (rows, w) mass table, w one more than the largest target
    edge count, and a term goes into its row's column for the edge holding
    (a, x), or the last one when none does. ``np.bincount`` adds one term at
    a time, so each mass follows the module's one summation rule, left to
    right in ascending x, and keeps its bits whatever else is in the batch;
    the product's zeros that ``edge_mass`` would add change nothing.
    One ``_grouped_worst`` over the table then gives every side's worst
    failure per source edge.

    Work and memory are the sides' terms (|other| times phi's entries) plus
    their rows times w; the product channel has |other|^2 times phi's
    entries. A caller bounds them by the size of its batch.
    """
    width = max(target.edge_count for *_, target, _ in sides) + 1
    bins, terms, members, starts = [], [], [], []
    row = 0  # the side's first row in the mass table
    for phi, other, source, target, phi_first in sides:
        edge_of = [width - 1] * target.vertices.size  # edges are disjoint
        for e, edge in enumerate(target.edges):
            for v in edge:
                edge_of[v] = e
        (p, q), m, n = phi.rows.shape, other.size, source.vertices.size
        first = np.arange(row * width, (row + n) * width, width)  # per source vertex
        if phi_first:  # source (b, a), target (x, a)
            first, edge_of = first.reshape(p, m).T, np.array(edge_of).reshape(q, m).T
        else:  # source (a, b), target (a, x)
            first, edge_of = first.reshape(m, p), np.array(edge_of).reshape(m, q)
        bins.append((first[:, :, None] + edge_of[:, None, :]).ravel())  # [a, b, x]
        terms += [phi.rows.ravel()] * m
        for edge in source.edges:
            starts.append(len(members))
            members.extend([row + v for v in edge])
        row += n
    mass = np.bincount(np.concatenate(bins), np.concatenate(terms), minlength=row * width)
    worst = _grouped_worst(mass.reshape(row, width), members, starts)
    costs, e = [], 0  # each side's first source edge in worst
    for _, _, source, target, _ in sides:
        costs.append(worst[e:e + source.edge_count, :target.edge_count])
        e += source.edge_count
    return costs


def _augment(adj: list, owner: list, r: int, seen: set, vacant: int) -> bool:
    """Kuhn's augmenting path from row r to a column that row ``vacant`` holds.

    adj[r] lists row r's allowed columns, and owner[c] is the row holding
    column c, or -1. Columns in seen, and those held by rows below
    ``vacant``, are passed over; with ``vacant`` -1 the path ends at a
    column no row holds. On success every column on the path passes to the
    row that reached it; on failure owner is unchanged.
    """
    for c in adj[r]:
        if owner[c] == vacant and c not in seen:  # an end one step away
            owner[c] = r
            return True
    for c in adj[r]:
        holder = owner[c]
        if holder > vacant and c not in seen:
            seen.add(c)
            if _augment(adj, owner, holder, seen, vacant):
                owner[c] = r
                return True
    return False


def _perfect_matching(adj: list) -> list | None:
    """owner[c] of some perfect matching of rows onto columns within adj, or
    None if there is none. Exact, and at the edge counts of a partition
    cheaper than building an array for a compiled solver."""
    owner = [-1] * len(adj)
    if all(_augment(adj, owner, r, set(), -1) for r in range(len(adj))):
        return owner
    return None


def _threshold_bottleneck(flat: list) -> tuple[int, ...]:
    """``_match``'s mapping of the k x k cost lists flat, k >= 2.

    A binary search over the distinct costs, from the largest row minimum
    up, finds the least threshold at which the pairs costing no more hold a
    perfect matching; each row's columns are sorted by cost once, so a
    probe bisects each row for its allowed prefix instead of comparing all
    k^2 costs. The lexicographic pass keeps one such matching: row i takes
    the first allowed column j left for which the rows after i still match
    onto the columns left. Where row r holds j, that is an augmenting path
    from r, not through j, to the column row i holds (Berge), so each
    candidate costs one path search.
    """
    k = len(flat)
    thresholds = sorted({c for row in flat for c in row})
    # below the largest row minimum some row has no column left
    lo, hi = bisect_left(thresholds, max(map(min, flat))), len(thresholds) - 1
    # each row's columns by ascending cost, so a probe takes a prefix
    by_cost = [(sorted(range(k), key=row.__getitem__), row.__getitem__) for row in flat]
    while lo < hi:
        mid = (lo + hi) // 2
        t = thresholds[mid]
        allowed = [cols[:bisect_right(cols, t, key=at)] for cols, at in by_cost]
        if _perfect_matching(allowed) is None:
            lo = mid + 1
        else:
            hi = mid
    t = thresholds[lo]
    adj = [[j for j, c in enumerate(row) if c <= t] for row in flat]
    owner = _perfect_matching(adj)
    for i in range(k):
        # rows below i hold their columns for good
        for j in adj[i]:
            r = owner[j]
            if r == i or r > i and _augment(adj, owner, r, {j}, i):
                owner[j] = i
                break
    return tuple(sorted(range(k), key=owner.__getitem__))  # owner inverted


def infer_edge_map(
    phi: Channel,
    source: Hypergraph,
    target: Hypergraph,
) -> tuple[EdgeMap, np.ndarray]:
    """Bijective edge map minimizing the worst edge error, with its profile.

    Restricted to partition hypergraphs, where each source edge's error under
    a candidate map is independent of the other edges. The map is a
    bottleneck assignment; ties break to the lexicographically smallest
    mapping.
    """
    require_disjoint_edges(source, target)
    cost = edge_cost_matrix(phi, source, target)
    _require_edge_counts(source, target, "source", "target")
    mapping, picked = _match(cost)
    return EdgeMap(source.edge_count, target.edge_count, mapping), np.array(picked)


def _require_edge_counts(first: Hypergraph, second: Hypergraph, first_role: str,
                         second_role: str) -> None:
    """The one check that two hypergraphs have as many edges: an
    EdgeCountMismatch naming each count with its hypergraph's role."""
    if first.edge_count != second.edge_count:
        raise EdgeCountMismatch(f"{first.edge_count} {first_role} edges vs "
                                f"{second.edge_count} {second_role} edges")


def _match(cost: np.ndarray) -> tuple[tuple[int, ...], list[float]]:
    """The bottleneck mapping of a square cost matrix and the costs it
    picks, row by row, as Python floats: every cost matrix's one way to a
    map and a profile.

    The mapping minimizes the max cost and is lexicographically smallest on
    ties. Up to k = 3 rows the at most 6 bijections are compared directly:
    the first in ``permutations`` order whose largest cost is least is, by
    definition, that bijection. Larger matrices take
    ``_threshold_bottleneck``.
    """
    flat = cost.tolist()
    if len(flat) < 4:
        mapping = min(permutations(range(len(flat))),
                      key=lambda p: max([row[j] for row, j in zip(flat, p)], default=0.0))
    else:
        mapping = _threshold_bottleneck(flat)
    return mapping, [row[j] for row, j in zip(flat, mapping)]
