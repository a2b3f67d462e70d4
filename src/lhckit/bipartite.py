"""Bipartite encoders: semi-deterministic splits, branch swapping, ID assembly.

When the encoder factors over two independently chosen messages, the
two-stage split applies to either factorization order and yields
intermediate hypergraphs in which one message is already encoded. The
branch-swap step moves a certificate for "second message encoded, first
still raw" to "second message encoded, first already a codeword"; it is
treated as a checked claim and always re-verified directly, with a
falsification harness collecting any counterexamples. Assembly chains the
three certificates into an identification code whose error is bounded by
their sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channel
from .channel import Channel, deterministic_channel, identity_channel, named_rng, tensor
from .decomposition import DecompositionResult, _split, decompose
from .codes import FunctionCode, code_error_profile
from .errors import (
    DecompositionFailure,
    EdgeCountMismatch,
    ShapeError,
    _require_count,
)
from .hypergraph import (
    Alphabet,
    BITS,
    EdgeMap,
    FunctionTable,
    Hypergraph,
    characteristic_hypergraph,
    identification_table,
    split_product_alphabet,
    _require_same_alphabet,
)
from .verify import (_match, edge_vector, exceeds, infer_edge_map, lambda_profile,
                     one_sided_costs, one_sided_side, require_within)


@dataclass(frozen=True, eq=False)
class BipartiteInstance:
    """Self-contained branch-swap instance: four hypergraphs, the per-branch
    channel, and the error vector under test. Its alphabets are derived: a2
    and x2 are phi's input and output, and a1 and x1 are the first factors
    of hyper_h's and hyper_i's vertex alphabets (ShapeError if either is no
    product with a2)."""

    hyper_h: Hypergraph  # on a1 x a2
    hyper_g: Hypergraph  # on a1 x x2
    hyper_i: Hypergraph  # on x1 x a2
    hyper_f: Hypergraph  # on x1 x x2
    phi: Channel  # a2 -> x2
    lam: np.ndarray

    @property
    def a1(self) -> Alphabet:
        return split_product_alphabet(self.hyper_h.vertices, self.a2)

    @property
    def x1(self) -> Alphabet:
        return split_product_alphabet(self.hyper_i.vertices, self.a2)

    @property
    def a2(self) -> Alphabet:
        return self.phi.input

    @property
    def x2(self) -> Alphabet:
        return self.phi.output


@dataclass(frozen=True, eq=False)
class BranchSwapReport:
    """Direct verification of hypothesis and conclusion of the branch swap;
    each side holds when its profile stays within the instance's lam."""

    hypothesis_map: EdgeMap
    conclusion_map: EdgeMap
    hypothesis_profile: np.ndarray
    conclusion_profile: np.ndarray
    instance: BipartiteInstance

    @property
    def hypothesis_holds(self) -> bool:
        return not exceeds(self.hypothesis_profile, self.instance.lam).any()

    @property
    def conclusion_holds(self) -> bool:
        return not exceeds(self.conclusion_profile, self.instance.lam).any()

    @property
    def is_counterexample(self) -> bool:
        return self.hypothesis_holds and not self.conclusion_holds


def semi_det_split(
    phi1: Channel,
    phi2: Channel,
    source: Hypergraph,
    target: Hypergraph,
    e_edge: EdgeMap,
    mu,
) -> tuple[DecompositionResult, DecompositionResult]:
    """Split a product channel through both one-sided factorizations.

    The product phi1 x phi2 must be a certified edge-bijective locally
    homomorphic channel from source to target. Decomposing
    (phi1 x id)(id x phi2) yields an intermediate on a1 x b2; the other
    order yields one on b1 x a2. Both intermediates have as many edges as
    the target, and both one-sided channels are certified at mu. The block
    threshold kappa is the most permissive value, one half. Returns both
    splits in that order; each holds its intermediate and, as ``cert_phi``,
    the certificate from the source to it.

    Both orders share the source, target, edge map, kappa, mu, lam and
    product channel, so ``decompose`` checks the hypotheses once, for the
    first order, and the second runs its ``_split`` directly.
    """
    lam = lambda_profile(tensor(phi1, phi2), source, target, e_edge)
    split_g1 = decompose(tensor(identity_channel(phi1.input), phi2),
                         tensor(phi1, identity_channel(phi2.output)),
                         source, target, e_edge, kappa=0.5, mu=mu, lam=lam)
    # the kappa and mu vectors decompose checked, as its certificates hold them
    kappa, mu = split_g1.cert_gamma.lam, split_g1.cert_phi.lam
    split_g2, _ = _split(tensor(phi1, identity_channel(phi2.input)),
                         tensor(identity_channel(phi1.output), phi2),
                         source, target, e_edge, kappa, mu, lam)
    return split_g1, split_g2


def check_branch_swap(
    phi: Channel,
    hyper_h: Hypergraph,
    hyper_g: Hypergraph,
    hyper_i: Hypergraph,
    hyper_f: Hypergraph,
    lam,
) -> BranchSwapReport:
    """Verify hypothesis and conclusion of the branch swap directly.

    Hypothesis: id x phi from hyper_h (raw x raw) to hyper_g (raw x sent)
    passes at lam under the best bijective edge map. Conclusion: id x phi
    from hyper_i (sent x raw) to hyper_f (sent x sent) passes at lam
    likewise. The error vector is applied positionally to the source edges
    on each side, so a caller with a correspondence between the edges of
    hyper_h and hyper_i lists hyper_i's edges in hyper_h's order, as
    ``assemble_id_code`` does. All four hypergraphs need the same edge
    count. A report with a failed conclusion under a passing hypothesis is
    a counterexample candidate.

    Neither side forms id x phi: ``one_sided_costs`` reads both sides' edge
    costs from phi's rows in one call, with the bits the product would give.
    Each side checks its own alphabets and edge counts as ``infer_edge_map``
    does; only hyper_h against hyper_i is compared here, since lam is
    indexed by the edges of both.
    """
    lam, sides = _branch_swap_sides(phi, hyper_h, hyper_g, hyper_i, hyper_f, lam)
    return _report((phi, hyper_h, hyper_g, hyper_i, hyper_f, lam),
                   *_swap_verdicts(sides, [lam, lam]))


def _branch_swap_sides(phi: Channel, hyper_h: Hypergraph, hyper_g: Hypergraph,
                       hyper_i: Hypergraph, hyper_f: Hypergraph, lam) -> tuple:
    """``check_branch_swap``'s refusals, in its order: lam as a per-edge
    vector and the checked hypothesis and conclusion sides."""
    if hyper_i.edge_count != hyper_h.edge_count:
        raise EdgeCountMismatch(
            f"{hyper_h.edge_count} hyper_h edges vs {hyper_i.edge_count} hyper_i edges"
        )
    lam = edge_vector(lam, hyper_h.edge_count, "lam")
    a1 = split_product_alphabet(hyper_h.vertices, phi.input)
    hypothesis = one_sided_side(phi, a1, hyper_h, hyper_g)
    x1 = split_product_alphabet(hyper_i.vertices, phi.input)
    return lam, [hypothesis, one_sided_side(phi, x1, hyper_i, hyper_f)]


class _Verdict(NamedTuple):
    mapping: tuple[int, ...]
    profile: np.ndarray
    holds: bool


def _swap_verdicts(sides: list, lams: list) -> list[_Verdict]:
    """The bottleneck mapping, its profile and the verdict of each checked
    side at its lam.

    All sides are costed by one ``one_sided_costs`` call and matched one by
    one by ``_match``; one ``exceeds`` call then holds every picked profile
    against its lam.
    """
    matches = [_match(cost) for cost in one_sided_costs(sides)]
    picked = np.array([c for _, costs in matches for c in costs])
    bad = exceeds(picked, np.concatenate(lams)).tolist()
    verdicts, start = [], 0
    for mapping, _ in matches:
        end = start + len(mapping)
        verdicts.append(_Verdict(mapping, picked[start:end], not any(bad[start:end])))
        start = end
    return verdicts


def _report(instance: tuple, hypothesis: _Verdict, conclusion: _Verdict) -> BranchSwapReport:
    """The report of an instance (phi, hyper_h, hyper_g, hyper_i, hyper_f,
    lam) from its two sides' verdicts."""
    phi, h, g, i, f, lam = instance
    k = lam.size
    return BranchSwapReport(EdgeMap(k, k, hypothesis.mapping),
                            EdgeMap(k, k, conclusion.mapping),
                            hypothesis.profile, conclusion.profile,
                            BipartiteInstance(h, g, i, f, phi, lam))


def assemble_id_code(
    enc1: Channel,
    enc2: Channel,
    phi: Channel,
    hyper_h: Hypergraph,
    hyper_g1: Hypergraph,
    hyper_g2: Hypergraph,
    hyper_f: Hypergraph,
    hyper_d: Hypergraph,
    alpha,
    beta,
    mu,
) -> tuple[FunctionCode, np.ndarray]:
    """Build an identification code from two one-sided encoder certificates.

    Verifies the three locally homomorphic channels (first encoder from
    hyper_h to hyper_g1 at alpha, second encoder from hyper_h to hyper_g2 at
    beta, channel from hyper_f to hyper_d at mu) and re-verifies the swapped
    middle hop, hyper_g1 to hyper_f at beta, with ``check_branch_swap``. Its
    hyper_g1 is reordered through the first hop's edge map, so beta lines up
    with the edges of hyper_h on both sides and the middle hop's map is the
    composite hyper_h -> hyper_f. For two edges the reorder cannot change
    a map that passes below 1/2: a source edge's costs for two disjoint
    target edges sum to at least 1, so the bottleneck assignment can only
    tie at 1/2 or above. The edge maps then compose so the decoder maps the
    window reached from the all-equal edge to output 1. Returns the
    product-encoder code and the bound alpha + beta + mu per attained
    function value; the code's exact error profile is recomputed and must
    obey the bound.

    Only the three checks no hop makes are made here: hyper_h lives on the
    message pairs, it is their equality partition, and hyper_d has two
    edges. Every other alphabet and edge count is checked by the hop that
    meets it first.
    """
    msgs = enc1.input
    f_id = FunctionTable(msgs.product(msgs), BITS,
                         identification_table(msgs.size).mapping)
    _require_same_alphabet(hyper_h.vertices, f_id.domain,
                           "hyper_h must live on the message-pair alphabet")
    h_ref = characteristic_hypergraph(f_id)
    if set(hyper_h.edges) != set(h_ref.edges):
        raise ShapeError("hyper_h must be the equality-test partition")
    if hyper_d.edge_count != 2:
        raise EdgeCountMismatch(
            f"decoder hypergraph needs exactly 2 edges, got {hyper_d.edge_count}"
        )

    k = hyper_h.edge_count
    alpha = edge_vector(alpha, k, "alpha")
    beta = edge_vector(beta, k, "beta")
    mu = edge_vector(mu, k, "mu")

    # Hop 1: first message encoded, second kept; enc1 x id is never formed.
    m1, prof1 = _match(one_sided_costs(
        [one_sided_side(enc1, msgs, hyper_h, hyper_g1, phi_first=True)])[0])
    require_within(prof1, alpha, "first encoder hop profile <= alpha")
    # Second encoder: stated with the first message raw, re-verified with it
    # already encoded rather than assumed.
    g1_in_h_order = Hypergraph(hyper_g1.vertices, tuple(hyper_g1.edges[j] for j in m1))
    swap = check_branch_swap(enc2, hyper_h, hyper_g2, g1_in_h_order, hyper_f, beta)
    require_within(swap.hypothesis_profile, beta, "second encoder hop profile <= beta")
    require_within(swap.conclusion_profile, beta,
                   "swapped second encoder hop profile <= beta")
    m2 = swap.conclusion_map  # hyper_h edge -> hyper_f edge
    # Final hop through the channel into the decision windows.
    m3, prof3 = infer_edge_map(phi, hyper_f, hyper_d)
    require_within(prof3, mu, "channel hop profile <= mu")

    # h_ref's edges are the preimages of 0 (off-diagonal) and 1 (diagonal)
    off_edge, diag_edge = map(hyper_h.edges.index, h_ref.edges)
    accept_edge = m3.after(m2)(diag_edge)
    decoder = deterministic_channel(
        FunctionTable(hyper_d.vertices, BITS, hyper_d.incidence[:, accept_edge].astype(int))
    )

    code = FunctionCode(tensor(enc1, enc2), decoder, f_id, phi)
    bound_by_edge = alpha + beta + mu[list(m2.mapping)]
    # Express the bound per attained value (0 then 1).
    bound = np.array([bound_by_edge[off_edge], bound_by_edge[diag_edge]])

    profile = code_error_profile(code)
    if exceeds(profile, bound).any():
        raise DecompositionFailure(
            f"assembled code error {profile} exceeds bound {bound} "
            "although all three hops were certified"
        )
    return code, bound


# ---------------------------------------------------------------------------
# Falsification harness: the branch swap quantifies over all shape-valid
# hypergraph quadruples, but its construction builds compatible bijections.
# Whether it holds for arbitrary quadruples is open; this harness samples
# them and keeps any instance where the hypothesis passes but the
# conclusion fails.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HarnessSummary:
    """Tally of one falsification run plus all counterexample instances."""

    trials: int
    hypothesis_held: int
    conclusion_held: int
    counterexamples: tuple[BranchSwapReport, ...]


def random_partition(rng: np.random.Generator, alphabet: Alphabet,
                     edge_count: int) -> Hypergraph:
    """Uniformly shuffled split of the vertices into edge_count blocks."""
    n = alphabet.size
    order = rng.permutation(n).tolist()
    # the indices numpy draws from range(n - 1) are those it draws from
    # arange(1, n), so each cut is one more than its index
    cuts = sorted(rng.choice(n - 1, size=edge_count - 1, replace=False).tolist()) \
        if edge_count > 1 else []
    bounds = [0, *[c + 1 for c in cuts], n]
    # the constructor sorts each block
    return Hypergraph(alphabet, tuple([order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]))


def random_channel(rng: np.random.Generator, inp: Alphabet, out: Alphabet,
                   sharp: bool = False, noise: float = 0.2) -> Channel:
    """Dirichlet rows, or a noisy deterministic map when sharp is set."""
    if sharp:
        rows = np.full((inp.size, out.size), noise / out.size)
        targets = rng.integers(out.size, size=inp.size)
        rows[np.arange(inp.size), targets] += 1.0 - noise
    else:
        rows = rng.dirichlet(np.ones(out.size), size=inp.size)
    rows = rows / rows.sum(axis=1, keepdims=True)
    return channel._adopt(inp, out, rows)


def random_branch_swap_instance(
    rng: np.random.Generator, max_edges: int = 3, max_symbols: int = 3
) -> tuple[Channel, Hypergraph, Hypergraph, Hypergraph, Hypergraph, float]:
    """Shape-valid random instance for check_branch_swap."""
    sizes = rng.integers(1, max_symbols + 1, size=4)
    a1 = Alphabet.of_size(int(sizes[0]), "a")
    a2 = Alphabet.of_size(int(sizes[1]), "b")
    x1 = Alphabet.of_size(int(sizes[2]), "u")
    x2 = Alphabet.of_size(int(sizes[3]), "v")
    min_vertices = min(
        a1.size * a2.size, a1.size * x2.size, x1.size * a2.size, x1.size * x2.size
    )
    edges = int(rng.integers(1, min(max_edges, min_vertices) + 1))
    hyper_h = random_partition(rng, a1.product(a2), edges)
    hyper_g = random_partition(rng, a1.product(x2), edges)
    hyper_i = random_partition(rng, x1.product(a2), edges)
    hyper_f = random_partition(rng, x1.product(x2), edges)
    phi = random_channel(rng, a2, x2, sharp=bool(rng.integers(2)),
                         noise=float(rng.uniform(0.0, 0.3)))
    lam = float(rng.uniform(0.1, 0.45))
    return phi, hyper_h, hyper_g, hyper_i, hyper_f, lam


def check_harness_symbols(max_symbols) -> None:
    """Raise CapacityError if max_symbols is over the harness's size bound.

    The bound is the cap on the largest one-sided hop, id x phi from a1 x a2
    to a1 x x2, as a dense (s * s) x (s * s) channel at s = max_symbols. The
    harness reads that hop's costs from phi without forming the channel, but
    the bound still guards memory: ``_chunk_trials`` puts at least one trial
    in a kernel call, and one trial's terms and mass-table entries grow as
    s^3: about 73k at s = 32, against 65k ``_CHUNK_TERMS``, and about
    2 * 10^9 in one ``np.bincount`` at s = 1000. So the bound keeps one
    kernel call near ``_CHUNK_TERMS``. It runs before any alphabet is built.
    """
    side = max_symbols * max_symbols
    channel._check_entries(side * side, "max_symbols {} allows a {} x {} channel",
                           max_symbols, side, side)


# A harness chunk holds at most this many terms and mass-table entries (see
# _chunk_trials), so the kernel's memory does not grow with the trials.
_CHUNK_TERMS = 1 << 16


def _chunk_trials(max_edges: int, max_symbols: int) -> int:
    """Trials per kernel call: as many as keep the largest possible chunk
    within _CHUNK_TERMS terms and mass-table entries, and at least one.

    A side has at most s^3 terms and s^2 source rows of at most
    min(max_edges, s^2) + 1 entries, at s = max_symbols, and a trial has two.
    """
    s = max_symbols
    per_trial = 2 * s * s * (s + min(max_edges, s * s) + 1)
    return max(1, _CHUNK_TERMS // per_trial)


def run_branch_swap_harness(
    trials: int, seed: int, max_edges: int = 3, max_symbols: int = 3
) -> HarnessSummary:
    """Sample instances, verify both sides, and collect counterexamples.

    Each count must be an integer >= 1 (RangeError naming it otherwise).
    Each trial draws its instance and runs ``check_branch_swap``'s checks as
    that call would, in trial order; both sides of a chunk of trials are
    then costed by one ``one_sided_costs`` call and matched one by one, and
    a report is built only for a counterexample. The tallies, maps and
    profiles are ``check_branch_swap``'s.
    """
    for value, what in ((trials, "trials"), (max_edges, "max_edges"),
                        (max_symbols, "max_symbols")):
        _require_count(value, what)
    check_harness_symbols(max_symbols)
    rng = named_rng(seed, 0x51AB)
    chunk = _chunk_trials(max_edges, max_symbols)
    hypothesis_held = 0
    conclusion_held = 0
    counterexamples: list[BranchSwapReport] = []
    for done in range(0, trials, chunk):
        drawn, sides, lams = [], [], []
        for _ in range(min(chunk, trials - done)):
            phi, h, g, i, f, lam = random_branch_swap_instance(
                rng, max_edges=max_edges, max_symbols=max_symbols
            )
            lam, pair = _branch_swap_sides(phi, h, g, i, f, lam)
            drawn.append((phi, h, g, i, f, lam))
            sides += pair
            lams += [lam, lam]
        verdicts = iter(_swap_verdicts(sides, lams))
        for instance in drawn:
            hypothesis, conclusion = next(verdicts), next(verdicts)
            hypothesis_held += hypothesis.holds
            conclusion_held += conclusion.holds
            if hypothesis.holds and not conclusion.holds:
                counterexamples.append(_report(instance, hypothesis, conclusion))
    return HarnessSummary(trials, hypothesis_held, conclusion_held, tuple(counterexamples))
