"""Splitting a certified two-stage channel through its intermediate alphabet.

Given a composite channel that is an edge-bijective locally homomorphic
channel between two partition hypergraphs, the intermediate alphabet can be
partitioned by thresholding the second stage's hitting probabilities. Both
stages are then certified separately, which yields the facts that a channel
carrying any reliable code is itself locally homomorphic, and that encoder
and decoder can be made deterministic at a factor of four in error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel, compose, deterministic_channel
from .codes import FunctionCode, code_error_profile, value_hypergraph
from .errors import (
    DecompositionFailure,
    EmptyBlock,
    HypothesisViolated,
    LambdaTooLarge,
)
from .hypergraph import (
    EdgeMap,
    FunctionTable,
    Hypergraph,
    characteristic_hypergraph,
    _require_bijective,
)
from .verify import (
    LhcCertificate,
    edge_mass,
    edge_vector,
    lambda_profile,
    require_disjoint_edges,
    require_within,
    verify_lhc,
)


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Intermediate hypergraph with certificates for both channel stages.

    The intermediate keeps the full middle alphabet as vertex set, so its
    blocks need not cover it; uncovered vertices are isolated and carry no
    constraint. Block i belongs to source edge i, so ``cert_phi.edge_map``
    is the identity and ``cert_gamma.edge_map`` is the composite's edge map.
    """

    intermediate: Hypergraph
    cert_phi: LhcCertificate
    cert_gamma: LhcCertificate


def decompose(
    phi: Channel,
    gamma: Channel,
    source: Hypergraph,
    target: Hypergraph,
    e_edge: EdgeMap,
    kappa,
    mu,
    lam,
) -> DecompositionResult:
    """Split a certified composite gamma(phi(.)) into two certified stages.

    Checks the preconditions, each with its named error, then returns
    ``_split``'s blocks and stage certificates. Preconditions: both
    hypergraphs have pairwise disjoint edges (partitions, possibly of a
    covered subset), the composite passes at lam with a bijective edge map,
    every lam entry is below one half, and lam <= mu * kappa with kappa at
    most one half.
    """
    require_disjoint_edges(source, target)
    eta = compose(phi, gamma)  # ShapeError unless phi's output feeds gamma
    k = source.edge_count
    kappa = edge_vector(kappa, k, "kappa")
    mu = edge_vector(mu, k, "mu")
    lam = edge_vector(lam, k, "lam")

    _require_bijective(e_edge, "composite edge map")
    require_within(lambda_profile(eta, source, target, e_edge), lam,
                   "composite profile <= lam")
    if np.any(lam >= 0.5):
        raise HypothesisViolated("every lam entry must be below 1/2")
    _require_half(kappa)
    require_within(lam, mu * kappa, "lam <= mu * kappa")
    return _split(phi, gamma, source, target, e_edge, kappa, mu, lam)


def _require_half(kappa) -> None:
    """The one check that every kappa entry is at most 1/2: strict, with no
    VERIFY_SLACK, since thresholds 1 - kappa of at least 1/2 keep the blocks
    of disjoint edges disjoint."""
    if np.any(kappa > 0.5):
        raise HypothesisViolated("every kappa entry must be at most 1/2")


def _split(phi, gamma, source, target, e_edge, kappa, mu, lam) -> DecompositionResult:
    """Blocks and stage certificates of a split whose hypotheses hold.

    Blocks of the intermediate alphabet collect the symbols from which gamma
    hits each target edge with probability above 1 - kappa (strict, no
    tolerance, so boundary mass is excluded). kappa, mu and lam are per-edge
    vectors. Nothing here checks ``decompose``'s preconditions, so a caller
    that skips ``decompose`` must have established them; a stage certificate
    that fails anyway raises ``DecompositionFailure`` with the instance.
    """
    k = source.edge_count
    # Hitting probability of each target edge from each intermediate symbol.
    hit = edge_mass(gamma.rows, target)

    blocks = []
    for ai in range(k):
        members = np.nonzero(hit[:, e_edge(ai)] > 1.0 - kappa[ai])[0]
        if members.size == 0:
            raise EmptyBlock(
                f"no intermediate symbol hits target edge {e_edge(ai)} "
                f"with probability above {1.0 - kappa[ai]}"
            )
        blocks.append(tuple(members.tolist()))

    seen: dict[int, int] = {}
    for ai, block in enumerate(blocks):
        for b in block:
            if b in seen:
                raise DecompositionFailure(
                    f"blocks {seen[b]} and {ai} overlap at symbol {b} "
                    "despite kappa <= 1/2",
                    instance=_instance_dump(phi, gamma, source, target, e_edge,
                                            kappa, mu, lam),
                )
            seen[b] = ai

    intermediate = Hypergraph(gamma.input, tuple(blocks))
    # source edge i -> block i -> target edge e_edge(i)
    cert_phi = verify_lhc(phi, source, intermediate, EdgeMap.identity(k), mu)
    cert_gamma = verify_lhc(gamma, intermediate, target, e_edge, kappa)
    if not (cert_phi.passed and cert_gamma.passed):
        raise DecompositionFailure(
            "a stage certificate failed although all hypotheses were verified "
            f"(phi: {cert_phi.verdict}, gamma: {cert_gamma.verdict})",
            instance=_instance_dump(phi, gamma, source, target, e_edge,
                                    kappa, mu, lam),
        )
    return DecompositionResult(intermediate, cert_phi, cert_gamma)


def _instance_dump(phi, gamma, source, target, e_edge, kappa, mu, lam) -> dict:
    # jsonio imports bipartite, which imports this module
    from .jsonio import channel_to_dict, edge_map_to_dict, hypergraph_to_dict

    return {
        "phi": channel_to_dict(phi),
        "gamma": channel_to_dict(gamma),
        "source": hypergraph_to_dict(source),
        "target": hypergraph_to_dict(target),
        "edge_map": edge_map_to_dict(e_edge),
        "kappa": list(map(float, np.atleast_1d(kappa))),
        "mu": list(map(float, np.atleast_1d(mu))),
        "lambda": list(map(float, np.atleast_1d(lam))),
    }


def channel_is_lhc(
    code: FunctionCode, kappa
) -> tuple[Hypergraph, Hypergraph, LhcCertificate]:
    """Certify the bare channel of a reliable code as locally homomorphic.

    Splits the composite twice with ``_split``: first between
    channel-with-encoder and decoder (block threshold one half, certified at
    twice the code error), then between encoder and channel (certified at
    one half, blocks thresholded at kappa). Returns hypergraphs on the
    channel input and output alphabets and a passing certificate for the
    channel between them at kappa, which must satisfy 4 * lam <= kappa <= 1/2
    for the code's error profile lam. The intermediate error vectors are the
    proof's choices, 2 * lam and 1/2. Every edge map is the identity, so
    block i of both hypergraphs belongs to attained value i.

    Neither split re-checks its hypotheses: the composite passes at its own
    exact profile lam, the second split's composite is the first split's
    first stage, certified at 2 * lam, and 4 * lam <= kappa <= 1/2 implies
    the rest (lam <= 1/8, and 2 * lam <= kappa / 2 within VERIFY_SLACK).
    """
    lam = code_error_profile(code)
    kappa = edge_vector(kappa, lam.size, "kappa")
    require_within(4.0 * lam, kappa, "4 * lam <= kappa")
    _require_half(kappa)
    return _channel_split(code, lam, kappa)


def _channel_split(code: FunctionCode, lam: np.ndarray, kappa: np.ndarray) -> tuple:
    """``channel_is_lhc``'s hypergraphs and certificate at the code's error
    profile lam and a kappa vector that the caller has checked."""
    n_vals = lam.size
    h_f = characteristic_hypergraph(code.f)
    identity = EdgeMap.identity(n_vals)
    half = np.full(n_vals, 0.5)

    # First split: (channel after encoder) vs decoder, threshold 1/2.
    first = _split(code.encoded, code.decoder, h_f, value_hypergraph(code), identity,
                   half, 2.0 * lam, lam)
    hyper_out = first.intermediate  # blocks on the channel output alphabet

    # Second split: encoder vs channel, aimed at the first split's blocks;
    # its intermediate holds the blocks on the channel input alphabet.
    second = _split(code.encoder, code.channel, h_f, hyper_out, identity,
                    kappa, half, 2.0 * lam)
    return second.intermediate, hyper_out, second.cert_gamma


def derandomize(code: FunctionCode) -> tuple[Channel, Channel]:
    """Deterministic encoder and decoder at a factor of four in error.

    Runs the double split at kappa = 4 * lam, whose blocks i on the channel
    input and output both belong to attained value i. It then reads off a
    deterministic encoder (the input inside each input block with the
    highest success in the channel's certificate, which is its mass on its
    output block, lowest index among bit-equal successes) and decoder (value
    of the covering output block, first codomain value for uncovered
    outputs). Requires every profile entry below 1/8.
    """
    lam = code_error_profile(code)
    if np.any(lam >= 0.125):
        raise LambdaTooLarge(
            f"error profile max {lam.max()} is not below 1/8; "
            "the factor-4 construction needs kappa = 4 * lam <= 1/2"
        )
    # kappa = 4 * lam <= 1/2 holds by the check above.
    hyper_in, hyper_out, cert = _channel_split(code, lam, 4.0 * lam)

    attained = code.f.attained
    enc_choice = {
        attained[vi]: max(block, key=lambda x: (cert.per_vertex_success[x], -x))
        for vi, block in enumerate(hyper_in.edges)
    }
    enc_map = tuple(enc_choice[code.f.mapping[a]] for a in range(code.f.domain.size))
    enc = deterministic_channel(
        FunctionTable(code.f.domain, code.channel.input, enc_map)
    )

    dec_map = [0] * code.decoder.input.size
    for vi, block in enumerate(hyper_out.edges):
        for y in block:
            dec_map[y] = attained[vi]
    dec = deterministic_channel(
        FunctionTable(code.decoder.input, code.f.codomain, tuple(dec_map))
    )
    return enc, dec
