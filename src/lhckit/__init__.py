"""Toolkit for locally homomorphic channels over finite alphabets.

Converts between function-computation codes and channel certificates,
decomposes certified two-stage channels, derandomizes codes at a factor of
four in error, assembles identification codes from independent per-message
encoders, and instantiates deterministic identification over two parallel
binary symmetric channels with exact and Monte Carlo error evaluation.
"""

from .hypergraph import (
    Alphabet,
    BITS,
    EdgeMap,
    FunctionTable,
    HomReport,
    Hypergraph,
    characteristic_hypergraph,
    check_homomorphism,
    complete_1_uniform,
    hom_from_edge_map,
    identification_table,
    k_identification_table,
    split_product_alphabet,
)
from .channel import (
    Channel,
    bsc,
    compose,
    deterministic_channel,
    identity_channel,
    named_rng,
    power,
    sample,
    tensor,
)
from .verify import (
    LhcCertificate,
    infer_edge_map,
    lambda_profile,
    verify_lhc,
)
from .codes import (
    FunctionCode,
    code_error_profile,
    code_to_lhc,
    lhc_to_code,
    sandwich_transfer,
)
from .decomposition import (
    DecompositionResult,
    channel_is_lhc,
    decompose,
    derandomize,
)
from .bipartite import (
    BipartiteInstance,
    BranchSwapReport,
    assemble_id_code,
    check_branch_swap,
    run_branch_swap_harness,
    semi_det_split,
)
from .bsc_id import (
    Codebook,
    ErrorEstimate,
    PairDistanceLaw,
    beta,
    binary_entropy,
    build_example_hypergraphs,
    chernoff_bound,
    epsilon_max,
    exact_error_rates,
    exact_window_miss,
    gen_codebook,
    id_decoder,
    monte_carlo_id,
    pair_distance_distribution,
    rate_table,
    theta,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
