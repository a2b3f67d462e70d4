"""Equivalence between function-computation codes and channel certificates.

A function code computes f over a channel via a stochastic encoder and
decoder. The composite encoder-channel-decoder map preserves the preimage
partition of f exactly when it is an edge-bijective locally homomorphic
channel into the disconnected hypergraph on the attained values, and the
error vectors on both sides coincide. The deterministic-sandwich transfer
moves a certificate through deterministic relabelings on both ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import Channel, compose, deterministic_channel
from .errors import DecompositionFailure, ShapeError
from .hypergraph import (
    EdgeMap,
    FunctionTable,
    Hypergraph,
    characteristic_hypergraph,
    check_homomorphism,
    _require_bijective,
    _require_same_alphabet,
)
from .verify import LhcCertificate, edge_vector, verify_lhc, worst_failure


@dataclass(frozen=True, eq=False)
class FunctionCode:
    """Encoder/decoder pair for computing f over a channel."""

    encoder: Channel
    decoder: Channel
    f: FunctionTable
    channel: Channel

    def __post_init__(self):
        _require_same_alphabet(self.encoder.input, self.f.domain,
                               "encoder input must be the domain of f")
        _require_same_alphabet(self.encoder.output, self.channel.input,
                               "encoder output must feed the channel input")
        _require_same_alphabet(self.channel.output, self.decoder.input,
                               "channel output must feed the decoder input")
        for b in self.f.attained:
            if self.f.codomain.labels[b] not in self.decoder.output.labels:
                raise ShapeError(
                    f"decoder output misses attained value "
                    f"{self.f.codomain.labels[b]!r}"
                )

    @cached_property
    def encoded(self) -> Channel:
        """The channel after the encoder, channel(encoder(.)), built once."""
        return compose(self.encoder, self.channel)

    @cached_property
    def composite(self) -> Channel:
        """The end-to-end channel decoder(channel(encoder(.))), built once."""
        return compose(self.encoded, self.decoder)

    def value_column(self, b: int) -> int:
        """Decoder output index carrying codomain value b."""
        return self.decoder.output.index(self.f.codomain.labels[b])


def code_error_profile(code: FunctionCode) -> np.ndarray:
    """Worst failure probability per attained value, by exact matrix algebra."""
    attained = code.f.attained
    preimage = np.equal.outer(code.f.mapping, attained)
    cols = [code.value_column(b) for b in attained]
    # each input's row of preimage holds one True, at its own value
    return worst_failure(code.composite.rows[:, cols][preimage], preimage)


def value_hypergraph(code: FunctionCode) -> Hypergraph:
    """Singleton edges for the attained values, over the decoder output alphabet."""
    edges = tuple((code.value_column(b),) for b in code.f.attained)
    return Hypergraph(code.decoder.output, edges)


def code_to_lhc(code: FunctionCode) -> LhcCertificate:
    """Certificate that the composite channel preserves the preimages of f.

    The source is the characteristic hypergraph of f, the target has one
    singleton edge per attained value, and the edge map sends each preimage
    to its value. The certificate error equals the code error profile, so
    the two error computations agree; where they do not, DecompositionFailure
    names the failing edges.
    """
    h_f = characteristic_hypergraph(code.f)
    target = value_hypergraph(code)
    e_map = EdgeMap.identity(h_f.edge_count)
    lam = code_error_profile(code)
    cert = verify_lhc(code.composite, h_f, target, e_map, lam)
    if not cert.passed:
        raise DecompositionFailure(f"edges {list(cert.failing_edges)} fail the certificate "
                                   "of their own code error profile")
    return cert


def lhc_to_code(psi_cert: LhcCertificate, code: FunctionCode) -> FunctionCode:
    """Recover a function code from an edge-bijective composite certificate.

    The certificate's edge map may permute which singleton edge each preimage
    hits; a deterministic relabeling of the decoder output undoes that, and
    the resulting code's error profile is bounded by the certificate error.
    """
    _require_bijective(psi_cert.edge_map, "certificate edge map")
    target = value_hypergraph(code)
    canonical = EdgeMap.identity(target.edge_count)
    # g sends the vertex carrying each certificate edge to the canonical value.
    g_e = canonical.after(psi_cert.edge_map.inverse())
    vertex_map = list(range(code.decoder.output.size))
    for ei, edge in enumerate(target.edges):
        vertex_map[edge[0]] = target.edges[g_e(ei)][0]
    g_table = FunctionTable(code.decoder.output, code.decoder.output, tuple(vertex_map))
    relabeled = compose(code.decoder, deterministic_channel(g_table))
    return FunctionCode(code.encoder, relabeled, code.f, code.channel)


def sandwich_transfer(
    f_vertex,
    f_edge: EdgeMap,
    h_vertex,
    h_edge: EdgeMap,
    gamma: Channel,
    e_edge: EdgeMap,
    hyper_f: Hypergraph,
    hyper_g: Hypergraph,
    hyper_h: Hypergraph,
    hyper_i: Hypergraph,
    lam,
) -> tuple[EdgeMap, tuple[bool, bool]]:
    """Check the certificate transfer through a deterministic sandwich.

    With edge-bijective homomorphisms f : F -> G and h : H -> I around a
    channel gamma between the vertex sets of G and H, the composite
    h(gamma(f(.))) : F -> I at lam corresponds to gamma : G -> H at lam with
    the conjugated edge map. Both verdicts are returned; the theory says
    they agree. An e_edge that does not run from the edges of F to those of
    I raises ShapeError where the edge maps are composed.
    """
    for role, vertex, edge, start, end in (("prefix", f_vertex, f_edge, hyper_f, hyper_g),
                                           ("suffix", h_vertex, h_edge, hyper_h, hyper_i)):
        rep = check_homomorphism(vertex, edge, start, end)
        if not rep.is_hom:
            raise ShapeError(f"{role} map is not a homomorphism (witness {rep.witness})")
        _require_bijective(edge, f"{role} edge map")

    pre = deterministic_channel(
        FunctionTable(hyper_f.vertices, hyper_g.vertices, tuple(f_vertex))
    )
    post = deterministic_channel(
        FunctionTable(hyper_h.vertices, hyper_i.vertices, tuple(h_vertex))
    )
    composite = compose(compose(pre, gamma), post)

    lam = edge_vector(lam, hyper_f.edge_count, "lam")
    f_inv = f_edge.inverse()
    g_edge = h_edge.inverse().after(e_edge.after(f_inv))
    # lam is indexed by the edges of F; carry it over to G through f's edge map.
    lam_inner = lam[[f_inv(j) for j in range(hyper_g.edge_count)]]
    verdict_outer = verify_lhc(composite, hyper_f, hyper_i, e_edge, lam).passed
    verdict_inner = verify_lhc(gamma, hyper_g, hyper_h, g_edge, lam_inner).passed
    return g_edge, (verdict_outer, verdict_inner)
