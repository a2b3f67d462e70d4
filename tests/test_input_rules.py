"""Each input rule with one raise site is refused alike, with one message
shape, at every public entry that applies it: bijective edge maps,
edge-count agreement, probability vectors and JSON kinds."""

import numpy as np
import pytest

from lhckit import (
    Alphabet,
    BITS,
    Channel,
    EdgeMap,
    FunctionCode,
    FunctionTable,
    Hypergraph,
    LhcCertificate,
    PairDistanceLaw,
    bsc,
    check_branch_swap,
    code_to_lhc,
    complete_1_uniform,
    decompose,
    identity_channel,
    infer_edge_map,
    jsonio,
    lhc_to_code,
    sandwich_transfer,
)
from lhckit.errors import EdgeCountMismatch, RequiresBijective, ShapeError

FOLD = EdgeMap(2, 2, (0, 0))  # both edges onto edge 0
SINGLETONS = complete_1_uniform(BITS)
LAM = np.array([0.1, 0.1])


def certificate_with_a_folding_map():
    ident = identity_channel(BITS)
    code = FunctionCode(ident, ident, FunctionTable(BITS, BITS, (0, 1)), ident)
    cert = code_to_lhc(code)
    return LhcCertificate(edge_map=FOLD, lam=cert.lam,
                          per_vertex_success=cert.per_vertex_success,
                          failing_edges=()), code


def sandwich(f_edge, h_edge):
    # the folding vertex map (0, 0) is a homomorphism for FOLD on singletons
    f_vertex = (0, 0) if f_edge is FOLD else (0, 1)
    h_vertex = (0, 0) if h_edge is FOLD else (0, 1)
    return sandwich_transfer(f_vertex, f_edge, h_vertex, h_edge, bsc(0.1),
                             EdgeMap.identity(2), *[SINGLETONS] * 4, LAM)


@pytest.mark.parametrize("call, what", [
    (lambda: FOLD.inverse(), "inverted edge map"),
    (lambda: lhc_to_code(*certificate_with_a_folding_map()), "certificate edge map"),
    (lambda: sandwich(FOLD, EdgeMap.identity(2)), "prefix edge map"),
    (lambda: sandwich(EdgeMap.identity(2), FOLD), "suffix edge map"),
    # decompose raised HypothesisViolated with this message
    (lambda: decompose(identity_channel(BITS), identity_channel(BITS), SINGLETONS,
                       SINGLETONS, FOLD, 0.25, 0.1, 0.02), "composite edge map"),
], ids=["inverse", "lhc_to_code", "sandwich-prefix", "sandwich-suffix", "decompose"])
def test_a_non_bijective_edge_map_is_refused_at_every_entry(call, what):
    with pytest.raises(RequiresBijective, match=f"^{what} must be bijective$"):
        call()


def hypergraph(alphabet: Alphabet, *edges) -> Hypergraph:
    return Hypergraph(alphabet, edges)


def branch_swap(h_edges, g_edges, i_edges):
    """check_branch_swap with phi the identity on two symbols and each
    hypergraph on its four product vertices."""
    a1, a2, x1, x2 = (Alphabet.of_size(2, prefix) for prefix in "abuv")
    two = ((0, 1), (2, 3))
    return check_branch_swap(Channel(a2, x2, np.eye(2)), hypergraph(a1.product(a2), *h_edges),
                             hypergraph(a1.product(x2), *g_edges),
                             hypergraph(x1.product(a2), *i_edges),
                             hypergraph(x1.product(x2), *two), 0.3)


@pytest.mark.parametrize("call, message", [
    (lambda: infer_edge_map(identity_channel(Alphabet.of_size(4)),
                            hypergraph(Alphabet.of_size(4), (0, 1), (2, 3)),
                            hypergraph(Alphabet.of_size(4), (0,), (1,), (2, 3))),
     "2 source edges vs 3 target edges"),
    # the hypothesis hop id x phi : hyper_h -> hyper_g
    (lambda: branch_swap(((0, 1), (2, 3)), ((0, 1), (2,), (3,)), ((0, 1), (2, 3))),
     "2 source edges vs 3 target edges"),
    # hyper_i and hyper_f agree with each other, so neither hop sees the
    # mismatch, and a one-entry lam would broadcast over both conclusion edges
    (lambda: branch_swap(((0, 1, 2, 3),), ((0, 1, 2, 3),), ((0, 1), (2, 3))),
     "1 hyper_h edges vs 2 hyper_i edges"),
], ids=["infer_edge_map", "branch-swap-hyper_g", "branch-swap-hyper_i"])
def test_edge_count_messages_name_both_roles(call, message):
    with pytest.raises(EdgeCountMismatch, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("pmf, tail", [
    ([np.nan, np.nan, np.nan], "holds nan; probabilities must lie in [0, 1]"),
    ([0.5, np.nan, 0.5], "holds nan; probabilities must lie in [0, 1]"),
    ([-0.5, 1.0, 0.5], "holds -0.5; probabilities must lie in [0, 1]"),
    ([0.0, 1.5, -0.5], "holds 1.5; probabilities must lie in [0, 1]"),
    ([0.5, 0.5, 0.5], "sums to 1.5, not 1 within 1e-12"),
], ids=["all-nan", "nan", "negative", "above-1", "sum"])
def test_a_pmf_is_refused_as_a_channel_row_is(pmf, tail):
    """PairDistanceLaw accepted the first four; a channel row never did."""
    with pytest.raises(ShapeError) as law:
        PairDistanceLaw(2, 1, pmf)
    with pytest.raises(ShapeError) as row:
        Channel(Alphabet.of_size(1), Alphabet.of_size(3), [pmf])
    assert (str(law.value), str(row.value)) == (f"pmf {tail}", f"row 0 {tail}")


@pytest.mark.parametrize("load, payload, message", [
    (jsonio.hypergraph_from_dict, [], "hypergraph must be a JSON object, got an array"),
    (jsonio.channel_from_dict, "rows", "channel must be a JSON object, got a string"),
    (jsonio.edge_map_from_dict, None, "edge map must be a JSON object, got null"),
    (jsonio.hypergraph_from_dict, {"vertices": "ab", "edges": []},
     "vertices must be a JSON array, got a string"),
    (jsonio.function_table_from_dict, {"domain": ["a"], "codomain": ["b"], "map": True},
     "map must be a JSON array, got a boolean"),
], ids=["object-array", "object-string", "object-null", "array-string", "array-boolean"])
def test_a_json_kind_is_named_never_the_value(load, payload, message):
    with pytest.raises(ShapeError, match=f"^{message}$"):
        load(payload)
