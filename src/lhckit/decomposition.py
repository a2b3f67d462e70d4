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
    RequiresPartition,
    ShapeError,
)
from .hypergraph import (
    EdgeMap,
    FunctionTable,
    Hypergraph,
    characteristic_hypergraph,
)
from .verify import (
    VERIFY_SLACK,
    LhcCertificate,
    edge_mass,
    edge_vector,
    lambda_profile,
    verify_lhc,
)


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Intermediate hypergraph with certificates for both channel stages.

    The intermediate keeps the full middle alphabet as vertex set, so its
    blocks need not cover it; uncovered vertices are isolated and carry no
    constraint.
    """

    intermediate: Hypergraph
    edge_map_phi: EdgeMap
    edge_map_gamma: EdgeMap
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

    Blocks of the intermediate alphabet collect the symbols from which gamma
    hits each target edge with probability above 1 - kappa (strict, no
    tolerance, so boundary mass is excluded). Preconditions: both hypergraphs
    have pairwise disjoint edges (partitions, possibly of a covered subset),
    the composite passes at lam with a bijective edge map, every lam entry is
    below one half, and lam <= mu * kappa with kappa at most one half.
    """
    if not source.edges_disjoint:
        raise RequiresPartition("source edges must be pairwise disjoint")
    if not target.edges_disjoint:
        raise RequiresPartition("target edges must be pairwise disjoint")
    if phi.output.labels != gamma.input.labels:
        raise ShapeError("phi output must feed gamma input")
    k = source.edge_count
    kappa = edge_vector(kappa, k, "kappa")
    mu = edge_vector(mu, k, "mu")
    lam = edge_vector(lam, k, "lam")

    if not e_edge.bijective:
        raise HypothesisViolated("composite edge map must be bijective")
    composite = compose(phi, gamma)
    cert_eta = verify_lhc(composite, source, target, e_edge, lam)
    if not cert_eta.passed:
        raise HypothesisViolated(
            f"composite channel fails at lam on edges {cert_eta.failing_edges}"
        )
    if np.any(lam >= 0.5):
        raise HypothesisViolated("every lam entry must be below 1/2")
    if np.any(kappa > 0.5):
        raise HypothesisViolated("every kappa entry must be at most 1/2")
    bad = np.nonzero(lam > mu * kappa + VERIFY_SLACK)[0]
    if bad.size:
        raise HypothesisViolated(
            f"lam <= mu * kappa fails at edge {bad[0]}: "
            f"{lam[bad[0]]} > {mu[bad[0]]} * {kappa[bad[0]]}"
        )

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
        blocks.append(tuple(int(b) for b in members))

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
    f_edge = EdgeMap.identity(k)  # source edge i -> block i
    g_edge = EdgeMap(k, target.edge_count, tuple(e_edge(i) for i in range(k)))

    cert_phi = verify_lhc(phi, source, intermediate, f_edge, mu)
    cert_gamma = verify_lhc(gamma, intermediate, target, g_edge, kappa)
    if not (cert_phi.passed and cert_gamma.passed):
        raise DecompositionFailure(
            "a stage certificate failed although all hypotheses were verified "
            f"(phi: {cert_phi.verdict}, gamma: {cert_gamma.verdict})",
            instance=_instance_dump(phi, gamma, source, target, e_edge,
                                    kappa, mu, lam),
        )
    return DecompositionResult(intermediate, f_edge, g_edge, cert_phi, cert_gamma)


def _instance_dump(phi, gamma, source, target, e_edge, kappa, mu, lam) -> dict:
    return {
        "phi": {"input": list(phi.input.labels), "output": list(phi.output.labels),
                "rows": phi.rows.tolist()},
        "gamma": {"input": list(gamma.input.labels),
                  "output": list(gamma.output.labels),
                  "rows": gamma.rows.tolist()},
        "source": {"vertices": list(source.vertices.labels),
                   "edges": [list(e) for e in source.edges]},
        "target": {"vertices": list(target.vertices.labels),
                   "edges": [list(e) for e in target.edges]},
        "edge_map": list(e_edge.mapping),
        "kappa": list(map(float, np.atleast_1d(kappa))),
        "mu": list(map(float, np.atleast_1d(mu))),
        "lambda": list(map(float, np.atleast_1d(lam))),
    }


def channel_is_lhc(
    code: FunctionCode,
    kappa,
    mu_decoder_split=None,
    mu_encoder_split=None,
) -> tuple[Hypergraph, Hypergraph, LhcCertificate]:
    """Certify the bare channel of a reliable code as locally homomorphic.

    Splits the composite twice: first between channel-with-encoder and
    decoder (block threshold one half, certified at twice the code error),
    then between encoder and channel (certified at one half, blocks
    thresholded at kappa). Returns hypergraphs on the channel input and
    output alphabets and a passing certificate for the channel between them
    at kappa, which must satisfy 4 * lam <= kappa <= 1/2 for the code's
    error profile lam. The intermediate error vectors default to the proof
    choices 2 * lam and 1/2 but can be overridden.
    """
    lam = code_error_profile(code)
    n_vals = lam.size
    kappa = edge_vector(kappa, n_vals, "kappa")
    bad = np.nonzero(4.0 * lam > kappa + VERIFY_SLACK)[0]
    if bad.size:
        raise HypothesisViolated(
            f"4 * lam <= kappa fails at value {bad[0]}: "
            f"4 * {lam[bad[0]]} > {kappa[bad[0]]}"
        )
    if np.any(kappa > 0.5):
        raise HypothesisViolated("kappa must be at most 1/2")
    mu_dec = edge_vector(2.0 * lam if mu_decoder_split is None else mu_decoder_split,
                        n_vals, "mu_decoder_split")
    mu_enc = edge_vector(0.5 if mu_encoder_split is None else mu_encoder_split,
                        n_vals, "mu_encoder_split")

    h_f = characteristic_hypergraph(code.f)
    values = value_hypergraph(code)
    e_edge = EdgeMap.identity(h_f.edge_count)

    # First split: (channel after encoder) vs decoder, threshold 1/2.
    first = decompose(
        phi=compose(code.encoder, code.channel),
        gamma=code.decoder,
        source=h_f,
        target=values,
        e_edge=e_edge,
        kappa=np.full(n_vals, 0.5),
        mu=mu_dec,
        lam=lam,
    )
    hyper_out = first.intermediate  # blocks on the channel output alphabet

    # Second split: encoder vs channel, aimed at the first split's blocks.
    lam_mid = lambda_profile(compose(code.encoder, code.channel),
                             h_f, hyper_out, first.edge_map_phi)
    second = decompose(
        phi=code.encoder,
        gamma=code.channel,
        source=h_f,
        target=hyper_out,
        e_edge=first.edge_map_phi,
        kappa=kappa,
        mu=mu_enc,
        lam=lam_mid,
    )
    hyper_in = second.intermediate  # blocks on the channel input alphabet
    return hyper_in, hyper_out, second.cert_gamma


def derandomize(code: FunctionCode, kappa=None) -> tuple[Channel, Channel]:
    """Deterministic encoder and decoder at a factor of four in error.

    Runs the double split at kappa = 4 * lam (overridable), then reads off a
    deterministic encoder (best input inside each block, lowest index on
    ties) and decoder (value of the covering output block, first codomain
    value for uncovered outputs). Requires every profile entry below 1/8.
    """
    lam = code_error_profile(code)
    if np.any(lam >= 0.125):
        raise LambdaTooLarge(
            f"error profile max {lam.max()} is not below 1/8; "
            "the factor-4 construction needs kappa = 4 * lam <= 1/2"
        )
    kappa = edge_vector(4.0 * lam if kappa is None else kappa, lam.size, "kappa")
    hyper_in, hyper_out, cert = channel_is_lhc(code, kappa)

    # Hitting probability of each output block from each channel input.
    hit = edge_mass(code.channel.rows, hyper_out)

    attained = code.f.attained
    enc_choice = {}
    for vi in range(len(attained)):
        block = hyper_in.edges[vi]
        target_edge = cert.edge_map(vi)
        best = max(block, key=lambda x: (hit[x, target_edge], -x))
        enc_choice[attained[vi]] = best
    enc_map = tuple(enc_choice[code.f.mapping[a]] for a in range(code.f.domain.size))
    enc = deterministic_channel(
        FunctionTable(code.f.domain, code.channel.input, enc_map)
    )

    dec_map = [0] * code.decoder.input.size
    for vi in range(len(attained)):
        for y in hyper_out.edges[cert.edge_map(vi)]:
            dec_map[y] = attained[vi]
    dec = deterministic_channel(
        FunctionTable(code.decoder.input, code.f.codomain, tuple(dec_map))
    )
    return enc, dec
