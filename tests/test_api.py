import lhckit

# The exported names, sorted; a change to the public surface edits this list.
PUBLIC = [
    "Alphabet", "BITS", "BipartiteInstance", "BranchSwapReport", "Channel",
    "Codebook", "DecompositionResult", "EdgeMap", "ErrorEstimate",
    "FunctionCode", "FunctionTable", "HomReport", "Hypergraph",
    "LhcCertificate", "PairDistanceLaw", "assemble_id_code", "beta",
    "binary_entropy", "bipartite", "bsc", "bsc_id",
    "build_example_hypergraphs", "channel", "channel_is_lhc",
    "characteristic_hypergraph", "check_branch_swap", "check_homomorphism",
    "chernoff_bound", "code_error_profile", "code_to_lhc", "codes",
    "complete_1_uniform", "compose", "decompose", "decomposition",
    "derandomize", "deterministic_channel", "epsilon_max", "errors",
    "exact_error_rates", "exact_window_miss", "gen_codebook",
    "hom_from_edge_map", "hypergraph", "id_decoder", "identification_table",
    "identity_channel", "infer_edge_map", "k_identification_table",
    "lambda_profile", "lhc_to_code", "monte_carlo_id", "named_rng",
    "pair_distance_distribution", "power", "rate_table",
    "run_branch_swap_harness", "sample", "sandwich_transfer",
    "semi_det_split", "split_product_alphabet", "tensor", "theta", "verify",
    "verify_lhc",
]


def test_public_surface_is_pinned():
    assert sorted(lhckit.__all__) == PUBLIC
