import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhckit import (
    BITS,
    EdgeMap,
    FunctionCode,
    FunctionTable,
    bsc,
    channel_is_lhc,
    characteristic_hypergraph,
    code_error_profile,
    complete_1_uniform,
    compose,
    decompose,
    derandomize,
    identity_channel,
)
from lhckit.codes import value_hypergraph
from lhckit.errors import EmptyBlock, HypothesisViolated, LambdaTooLarge, RangeError
from lhckit.verify import edge_mass

from conftest import reliable_code, two_stage_instance

BITS1 = complete_1_uniform(BITS)
ID2 = EdgeMap.identity(2)


def checked_channel_is_lhc(code: FunctionCode, kappa):
    """Reference route: the same two splits as two checked decompose calls."""
    lam = code_error_profile(code)
    h_f = characteristic_hypergraph(code.f)
    identity = EdgeMap.identity(lam.size)
    first = decompose(compose(code.encoder, code.channel), code.decoder, h_f,
                      value_hypergraph(code), identity,
                      kappa=0.5, mu=2.0 * lam, lam=lam)
    second = decompose(code.encoder, code.channel, h_f, first.intermediate,
                       identity, kappa=kappa, mu=0.5, lam=2.0 * lam)
    return second.intermediate, first.intermediate, second.cert_gamma


def bit_code(gamma: float) -> FunctionCode:
    f = FunctionTable(BITS, BITS, (0, 1))
    ident = identity_channel(BITS)
    return FunctionCode(ident, ident, f, bsc(gamma))


class TestDecompose:
    def test_failure_instance_reads_back_through_jsonio(self):
        from lhckit import jsonio
        from lhckit.decomposition import _instance_dump

        d = _instance_dump(bsc(0.05), bsc(0.1), BITS1, BITS1, ID2,
                           kappa=0.25, mu=0.38, lam=0.095)
        assert np.array_equal(jsonio.channel_from_dict(d["gamma"]).rows,
                              bsc(0.1).rows)
        assert jsonio.hypergraph_from_dict(d["target"]) == BITS1
        assert jsonio.edge_map_from_dict(d["edge_map"]) == ID2
        assert d["lambda"] == [0.095]

    def test_overlapping_blocks_raise_with_the_instance(self, tmp_path):
        """At kappa 0.9, outside decompose's hypotheses, gamma's one row
        [0.5, 0.5] hits both singleton target edges above 1 - kappa, so both
        blocks hold its symbol; the error's instance is written to a file
        and reads back as it was given."""
        from lhckit import Alphabet, Channel, jsonio
        from lhckit.decomposition import _split
        from lhckit.errors import DecompositionFailure

        source = complete_1_uniform(Alphabet(("s0", "s1")))
        phi = Channel(source.vertices, Alphabet(("m",)), np.ones((2, 1)))
        gamma = Channel(phi.output, BITS, np.array([[0.5, 0.5]]))
        swap = EdgeMap(2, 2, (1, 0))
        with pytest.raises(DecompositionFailure,
                           match="^blocks 0 and 1 overlap at symbol 0 despite") as info:
            _split(phi, gamma, source, BITS1, swap, np.full(2, 0.9),
                   np.array([0.4, 0.3]), np.array([0.2, 0.1]))
        path = tmp_path / "instance.json"
        jsonio.write_json(path, info.value.instance)
        back = jsonio.read_json(path)
        for key, given_channel in (("phi", phi), ("gamma", gamma)):
            read = jsonio.channel_from_dict(back[key])
            assert (read.input, read.output) == (given_channel.input, given_channel.output)
            assert np.array_equal(read.rows, given_channel.rows)
        assert jsonio.hypergraph_from_dict(back["source"]) == source
        assert jsonio.hypergraph_from_dict(back["target"]) == BITS1
        assert jsonio.edge_map_from_dict(back["edge_map"]) == swap
        assert (back["kappa"], back["mu"], back["lambda"]) == ([0.9, 0.9], [0.4, 0.3],
                                                               [0.2, 0.1])

    def test_two_noisy_stages(self):
        result = decompose(bsc(0.05), bsc(0.05), BITS1, BITS1, ID2,
                           kappa=0.25, mu=0.38, lam=0.095)
        assert result.intermediate.edges == ((0,), (1,))
        assert result.cert_phi.passed and result.cert_gamma.passed
        # exact stage profiles sit at the crossover probability
        assert np.allclose(
            1.0 - result.cert_phi.per_vertex_success, [0.05, 0.05], atol=1e-12
        )
        assert np.allclose(
            1.0 - result.cert_gamma.per_vertex_success, [0.05, 0.05], atol=1e-12
        )

    def test_identity_second_stage_recovers_target(self):
        result = decompose(bsc(0.05), identity_channel(BITS), BITS1, BITS1, ID2,
                           kappa=0.4, mu=0.2, lam=0.05)
        assert result.intermediate.edges == BITS1.edges
        assert np.all(result.cert_gamma.per_vertex_success == 1.0)

    def test_kappa_above_half_rejected(self):
        with pytest.raises(HypothesisViolated, match="kappa"):
            decompose(bsc(0.05), bsc(0.05), BITS1, BITS1, ID2,
                      kappa=0.6, mu=0.38, lam=0.095)

    @pytest.mark.parametrize("name", ["kappa", "mu", "lam"])
    def test_nan_hypothesis_refused(self, name):
        # a NaN entry fails every comparison, so unrefused it slips past each check
        params = dict(kappa=0.25, mu=0.38, lam=0.095) | {name: [0.1, np.nan]}
        with pytest.raises(RangeError, match=f"{name} is NaN at edge 1"):
            decompose(bsc(0.05), bsc(0.05), BITS1, BITS1, ID2, **params)

    def test_lam_mu_kappa_inequality_named(self):
        with pytest.raises(HypothesisViolated, match=r"^lam <= mu \* kappa fails at "
                           r"edge 0: 0\.095 > 0\.020000000000000004$"):
            decompose(bsc(0.05), bsc(0.05), BITS1, BITS1, ID2,
                      kappa=0.1, mu=0.2, lam=0.095)

    @pytest.mark.parametrize("name, message", [
        ("lam", "every lam entry must be below 1/2"),
        ("kappa", "every kappa entry must be at most 1/2"),
    ])
    def test_half_is_strict_inside_verify_slack(self, name, message):
        # 1e-13 is below VERIFY_SLACK, but the 1/2 checks take no slack
        params = dict(kappa=0.25, mu=1.0, lam=0.095) | {name: 0.5 + 1e-13}
        with pytest.raises(HypothesisViolated, match=f"^{message}$"):
            decompose(bsc(0.02), bsc(0.03), BITS1, BITS1, ID2, **params)

    def test_boundary_mass_gives_empty_block(self):
        # the second stage hits the target edge with probability exactly
        # 1 - kappa, which the strict threshold excludes
        with pytest.raises(EmptyBlock):
            decompose(identity_channel(BITS), bsc(0.25), BITS1, BITS1, ID2,
                      kappa=0.25, mu=1.0, lam=0.25)

    def test_composite_must_pass(self):
        with pytest.raises(HypothesisViolated,
                           match=r"^composite profile <= lam fails at edge 0: "
                           r"0\.31999999999999984 > 0\.01$"):
            decompose(bsc(0.2), bsc(0.2), BITS1, BITS1, ID2,
                      kappa=0.5, mu=0.9, lam=0.01)

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_random_instances_always_certify(self, seed):
        rng = np.random.default_rng(seed)
        inst = two_stage_instance(rng)
        result = decompose(**inst)
        assert result.cert_phi.passed and result.cert_gamma.passed
        assert result.intermediate.edges_disjoint

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_blocks_disjoint_whenever_kappa_small(self, seed):
        rng = np.random.default_rng(seed)
        inst = two_stage_instance(rng)
        result = decompose(**inst)
        covered = set()
        for e in result.intermediate.edges:
            assert covered.isdisjoint(e)
            covered.update(e)


class TestChannelIsLhc:
    def test_perfect_code_over_identity(self):
        code = bit_code(0.0)
        hyper_in, hyper_out, cert = channel_is_lhc(code, kappa=0.5)
        assert cert.passed
        assert hyper_in.edge_count == hyper_out.edge_count == 2
        assert np.allclose(1.0 - cert.per_vertex_success, 0.0, atol=1e-12)

    def test_noisy_bit_code(self):
        code = bit_code(0.01)
        assert np.allclose(code_error_profile(code), [0.01, 0.01])
        hyper_in, hyper_out, cert = channel_is_lhc(code, kappa=0.04)
        assert cert.passed and cert.edge_bijective
        assert hyper_in.edge_count == hyper_out.edge_count == 2

    def test_four_lambda_bound_checked(self):
        code = bit_code(0.2)
        with pytest.raises(HypothesisViolated,
                           match=r"^4 \* lam <= kappa fails at edge 0: "
                           r"0\.7999999999999998 > 0\.5$"):
            channel_is_lhc(code, kappa=0.5)

    def test_half_is_strict_inside_verify_slack(self):
        with pytest.raises(HypothesisViolated,
                           match="^every kappa entry must be at most 1/2$"):
            channel_is_lhc(bit_code(0.01), kappa=0.5 + 1e-13)

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_edge_counts_match_attained_values(self, seed):
        rng = np.random.default_rng(seed)
        code = reliable_code(rng)
        hyper_in, hyper_out, cert = channel_is_lhc(code, 4.0 * code_error_profile(code))
        assert hyper_in.edge_count == len(code.f.attained)
        assert hyper_out.edge_count == len(code.f.attained)
        assert cert.passed
        assert cert.edge_map == EdgeMap.identity(len(code.f.attained))

    @given(st.integers(0, 100_000), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_equals_two_checked_decompose_calls(self, seed, u):
        """Skipping decompose's checks changes no block and no certificate bit."""
        code = reliable_code(np.random.default_rng(seed))
        four_lam = 4.0 * code_error_profile(code)
        kappa = four_lam + u * (0.5 - four_lam)
        hyper_in, hyper_out, cert = channel_is_lhc(code, kappa)
        ref_in, ref_out, ref = checked_channel_is_lhc(code, kappa)
        assert hyper_in.edges == ref_in.edges
        assert hyper_out.edges == ref_out.edges
        assert cert.edge_map == ref.edge_map
        assert cert.lam.tobytes() == ref.lam.tobytes()
        assert cert.per_vertex_success.tobytes() == ref.per_vertex_success.tobytes()


class TestDerandomize:
    def test_deterministic_code_stays_within_original(self):
        code = bit_code(0.02)
        enc, dec = derandomize(code)
        new_profile = code_error_profile(FunctionCode(enc, dec, code.f, code.channel))
        assert np.all(new_profile <= code_error_profile(code) + 1e-12)

    def test_mixture_encoder_snaps_to_best_branch(self):
        f = FunctionTable(BITS, BITS, (0, 1))
        rows = np.array([[0.9, 0.1], [0.1, 0.9]])
        from lhckit import Channel

        enc = Channel(BITS, BITS, rows)
        code = FunctionCode(enc, identity_channel(BITS), f, identity_channel(BITS))
        assert np.allclose(code_error_profile(code), [0.1, 0.1])
        enc2, dec2 = derandomize(code)
        new = FunctionCode(enc2, dec2, f, code.channel)
        assert np.array_equal(code_error_profile(new), [0.0, 0.0])
        assert enc2.deterministic and dec2.deterministic

    def test_lambda_too_large(self):
        with pytest.raises(LambdaTooLarge):
            derandomize(bit_code(0.2))

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_picks_are_the_first_argmax_of_edge_mass(self, seed):
        """Each message goes to the input of its value's block with the most
        ``edge_mass`` on the value's output block, the lowest such index.
        The channel's leakage is uniform, so a block's masses are equal but
        for their rounding, which the picks must follow."""
        code = reliable_code(np.random.default_rng(seed), min_mid=16, max_mid=48)
        hyper_in, hyper_out, _ = channel_is_lhc(code, 4.0 * code_error_profile(code))
        mass = edge_mass(code.channel.rows, hyper_out)
        picks = np.argmax(derandomize(code)[0].rows, axis=1)
        for a, value in enumerate(code.f.mapping):
            vi = code.f.attained.index(value)
            block = list(hyper_in.edges[vi])
            assert picks[a] == block[int(np.argmax(mass[block, vi]))], (a, vi)

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_factor_four_bound(self, seed):
        rng = np.random.default_rng(seed)
        code = reliable_code(rng)
        lam = code_error_profile(code)
        enc, dec = derandomize(code)
        new = FunctionCode(enc, dec, code.f, code.channel)
        assert enc.deterministic and dec.deterministic
        assert np.all(code_error_profile(new) <= 4.0 * lam + 1e-12)
