"""Definitional oracles for certificate verification, code error and the
binomial laws of the BSC example.

Each certificate quantity is recomputed from the edge tuples alone, vertex
by vertex, with frozensets, as the defining inequality states it; a code's
error is the explicit triple sum over encoder, channel and decoder; a
one-sided hop's costs come from its dense product channel, summed as numpy
sums it or left to right as the one-sided kernel does. Nothing
here reads the library's incidence matrix or calls its verification
routines, so the tests never grade the library against itself; the one
exception, ``looped_harness``, is the falsification harness run one
``check_branch_swap`` call per trial, against which the chunked harness is
graded (``check_branch_swap`` itself is graded against the dense oracles
here). Every
probability is the same gathered-row sum the definition names, so results
can be compared bitwise. The binomial laws are exact rationals instead, so
the library's float laws are graded in ulp.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from lhckit import EdgeMap

SLACK = 1e-12  # the verdict slack the certificate documents


def edges_of(hyper, v: int) -> list[int]:
    return [ei for ei, e in enumerate(hyper.edges) if v in e]


def unique_edge_of(hyper, v: int) -> int:
    """Index of the one edge holding v; ValueError unless there is exactly one."""
    (edge,) = edges_of(hyper, v)
    return edge


def vertex_groups(hyper) -> list[list[int]]:
    """Vertices grouped by the tuple of edges holding them, groups in order
    of their lowest vertex: one dict entry per signature, vertex by vertex."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(hyper.vertices.size):
        groups.setdefault(tuple(edges_of(hyper, v)), []).append(v)
    return list(groups.values())


def gathered_per_vertex(phi, source, target, f_e) -> np.ndarray:
    """Success per source vertex by one ``np.ix_`` block per signature group,
    summed along its rows; NaN where the vertex lies in no edge."""
    out = np.full(source.vertices.size, np.nan)
    for members in vertex_groups(source):
        hits = edges_of(source, members[0])
        if hits:
            allowed = frozenset.intersection(
                *(frozenset(target.edges[f_e(ei)]) for ei in hits))
            cols = np.array(sorted(allowed), dtype=np.intp)
            out[members] = phi.rows[np.ix_(members, cols)].sum(axis=1)
    return out


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


def lex_first_bottleneck(cost) -> tuple[int, ...]:
    """Brute force over every injection of rows into columns: least worst
    cost, first in lex order."""
    k, l = np.shape(cost)
    best = None
    for mapping in itertools.permutations(range(l), k):
        worst = max((cost[i][mapping[i]] for i in range(k)), default=0.0)
        if best is None or worst < best[0]:
            best = (worst, tuple(mapping))
    assert best is not None, "no candidate edge maps exist"
    return best[1]


def some_permutation_fits(allowed, rows, cols) -> bool:
    """Whether some bijection of rows onto cols keeps every pair allowed."""
    return len(rows) == len(cols) and any(
        all(allowed[r][c] for r, c in zip(rows, perm))
        for perm in itertools.permutations(cols))


def has_perfect_matching(allowed, rows, cols) -> bool:
    """Whether rows match one-to-one onto the equally many cols within
    allowed (a nested list of booleans indexed [row][col]), by Kuhn's
    augmenting paths from an empty matching."""
    owner: dict = {}  # col -> the row it is matched to

    def augment(r: int, seen: set) -> bool:
        row = allowed[r]
        for c in cols:
            if row[c] and c not in seen:
                seen.add(c)
                if c not in owner or augment(owner[c], seen):
                    owner[c] = r
                    return True
        return False

    return all(augment(r, set()) for r in rows)


def rebuilt_bottleneck(cost) -> tuple[int, ...]:
    """Lex-first bottleneck bijection that tests every candidate pair with a
    matching built from nothing: the binary search over the distinct costs,
    then for each row the first allowed free column after which the later
    rows still match onto the columns left."""
    k = cost.shape[0]
    if k == 0:
        return ()
    every = list(range(k))
    thresholds = np.unique(cost)
    lo, hi = 0, thresholds.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if has_perfect_matching((cost <= thresholds[mid]).tolist(), every, every):
            hi = mid
        else:
            lo = mid + 1
    allowed = (cost <= thresholds[lo]).tolist()
    mapping: list[int] = []
    free = every
    for i in range(k):
        j = next(j for j in free if allowed[i][j] and has_perfect_matching(
            allowed, every[i + 1:], [c for c in free if c != j]))
        mapping.append(j)
        free = [c for c in free if c != j]
    return tuple(mapping)


def blocked_hamming(a, b, cap: int = 1 << 20) -> np.ndarray:
    """Hamming distances between the rows of two bit matrices, letter by
    letter: rows of a compared in blocks of at most cap letter pairs."""
    out = np.empty((len(a), len(b)), dtype=np.int_)
    step = max(1, cap // max(1, b.size))
    for i in range(0, len(a), step):
        out[i:i + step] = (a[i:i + step, None] != b).sum(axis=-1)
    return out


def dense_one_sided_cost(phi, other, source, target, phi_first=False):
    """Cost matrix of id_other x phi (phi x id_other when phi_first) through
    the dense product: ``np.kron`` of the identity and phi's rows, each
    target edge's columns gathered and summed as one block (the gather and
    rounding ``edge_mass`` documents), and the worst failure over each
    source edge's vertices."""
    eye = np.eye(other.size)
    rows = np.kron(phi.rows, eye) if phi_first else np.kron(eye, phi.rows)
    mass = [rows[:, list(edge)].sum(axis=1) for edge in target.edges]
    return np.array([[max(1.0 - float(m[v]) for v in a) for m in mass]
                     for a in source.edges]).reshape(source.edge_count, target.edge_count)


def left_to_right_one_sided_cost(phi, other, source, target, phi_first=False):
    """Cost matrix of id_other x phi (phi x id_other when phi_first) by the
    one-sided kernel's summation rule: each vertex's mass on a target edge
    is its dense product row's entries in that edge added to 0.0 one at a
    time, in ascending column order, by a Python loop (no numpy sum and no
    ``sum``, which compensates from Python 3.12 on), and the worst failure
    over each source edge's vertices."""
    eye = np.eye(other.size)
    rows = (np.kron(phi.rows, eye) if phi_first else np.kron(eye, phi.rows)).tolist()

    def mass(v: int, edge) -> float:
        total = 0.0
        for c in sorted(edge):
            total += rows[v][c]
        return total

    return np.array([[max(1.0 - mass(v, edge) for v in a) for edge in target.edges]
                     for a in source.edges]).reshape(source.edge_count, target.edge_count)


def dense_one_sided(phi, other, source, target, phi_first=False):
    """``dense_one_sided_cost``, with the edge map of least worst cost, first
    in lex order over every bijection, and the profile it picks."""
    cost = dense_one_sided_cost(phi, other, source, target, phi_first)
    mapping = lex_first_bottleneck(cost)
    k = source.edge_count
    return cost, EdgeMap(k, target.edge_count, mapping), cost[np.arange(k), list(mapping)]


def looped_harness(trials, seed, max_edges=3, max_symbols=3):
    """The falsification harness one trial at a time: each trial draws its
    instance with ``random_branch_swap_instance`` from the harness's stream
    and runs ``check_branch_swap`` on it. Returns both tallies and the
    counterexample reports in trial order."""
    from lhckit import check_branch_swap, named_rng
    from lhckit.bipartite import random_branch_swap_instance

    rng = named_rng(seed, 0x51AB)
    hypothesis_held = conclusion_held = 0
    counterexamples = []
    for _ in range(trials):
        report = check_branch_swap(*random_branch_swap_instance(
            rng, max_edges=max_edges, max_symbols=max_symbols))
        hypothesis_held += report.hypothesis_holds
        conclusion_held += report.conclusion_holds
        if report.is_counterexample:
            counterexamples.append(report)
    return hypothesis_held, conclusion_held, counterexamples


def enumerate_best_edge_map(phi, source, target):
    """Brute force over every bijective edge map: least worst cost, first in
    lex order."""
    cost = edge_cost(phi, source, target)
    k, l = source.edge_count, target.edge_count
    mapping = lex_first_bottleneck(cost)
    return EdgeMap(k, l, mapping), cost[np.arange(k), list(mapping)]


def brute_force_profile(code) -> np.ndarray:
    """Worst failure per attained value, by an explicit triple sum over
    encoder, channel and decoder outcomes."""
    enc, ch, dec = code.encoder.rows, code.channel.rows, code.decoder.rows
    lam = []
    for b in code.f.attained:
        col = code.value_column(b)
        worst = 0.0
        for a in range(code.f.domain.size):
            if code.f.mapping[a] != b:
                continue
            p = 0.0
            for x in range(ch.shape[0]):
                for y in range(ch.shape[1]):
                    p += enc[a, x] * ch[x, y] * dec[y, col]
            worst = max(worst, 1.0 - p)
        lam.append(worst)
    return np.array(lam)


def _binomial_numerators(t: int, a: int, d: int) -> list[int]:
    """d**t * Bin(t, a/d) at 0..t, integers."""
    return [math.comb(t, j) * a**j * (d - a) ** (t - j) for j in range(t + 1)]


def exact_binomial_row(t: int, p: float) -> list[Fraction]:
    """Bin(t, p) at 0..t in exact rationals, p read exactly from its float."""
    a, d = Fraction(p).as_integer_ratio()
    return [Fraction(c, d**t) for c in _binomial_numerators(t, a, d)]


def exact_distance_law(n: int, k: int, p: float, at=None) -> list[Fraction]:
    """Law of Bin(n - k, p) + Bin(k, 1 - p) in exact rationals, at the
    distances in at (default 0..n): the output distance of a pair at input
    distance k when each letter is flipped by exactly one copy with
    probability p. Each entry is the convolution sum of the two rows'
    integer numerators over their common denominator."""
    a, d = Fraction(p).as_integer_ratio()
    same, diff = _binomial_numerators(n - k, a, d), _binomial_numerators(k, d - a, d)
    return [Fraction(sum(same[i] * diff[j - i]
                         for i in range(max(0, j - k), min(j, n - k) + 1)), d**n)
            for j in (range(n + 1) if at is None else at)]


def ulps(x: float, exact: Fraction) -> Fraction:
    """|x - exact| in units in the last place of exact: 2**(e - 52) where
    exact lies in [2**e, 2**(e + 1)), as for a normal float. exact is a
    positive rational over a power of two, as every law at a float p is."""
    num, den = exact.numerator, exact.denominator
    e = num.bit_length() - den.bit_length()
    x_num, x_den = x.as_integer_ratio()
    common = max(den, x_den)  # both powers of two
    diff = abs(x_num * (common // x_den) - num * (common // den))
    return Fraction(diff << max(0, 52 - e), common << max(0, e - 52))
