import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhckit import (
    Alphabet,
    BITS,
    EdgeMap,
    FunctionCode,
    FunctionTable,
    bsc,
    code_error_profile,
    code_to_lhc,
    complete_1_uniform,
    compose,
    deterministic_channel,
    identification_table,
    identity_channel,
    lhc_to_code,
    sandwich_transfer,
    tensor,
)
from lhckit.errors import RequiresBijective, ShapeError

import oracles
from conftest import identity_channel_between, rand_channel, sandwich_instance


def perfect_identity_code(size: int = 2) -> FunctionCode:
    alpha = Alphabet.of_size(size)
    f = FunctionTable(alpha, alpha, tuple(range(size)))
    ident = identity_channel(alpha)
    return FunctionCode(ident, ident, f, ident)


def random_code(rng, dom_size=3, cod_size=2, mid=3) -> FunctionCode:
    dom = Alphabet.of_size(dom_size, "a")
    cod = Alphabet.of_size(cod_size, "b")
    x = Alphabet.of_size(mid, "x")
    y = Alphabet.of_size(mid, "y")
    mapping = tuple(int(v) for v in rng.integers(cod_size, size=dom_size))
    f = FunctionTable(dom, cod, mapping)
    return FunctionCode(
        rand_channel(rng, dom, x), rand_channel(rng, y, cod), f,
        rand_channel(rng, x, y),
    )


class TestErrorProfile:
    def test_noiseless_identity(self):
        assert np.array_equal(code_error_profile(perfect_identity_code()), [0, 0])

    def test_equality_code_over_one_noisy_copy(self):
        # one message re-encoded as a bit through the noisy copy, the other
        # kept clean; the decoder compares them exactly
        f = identification_table(2)
        msgs = Alphabet.of_size(2)
        prod = BITS.product(msgs)
        enc = deterministic_channel(FunctionTable(f.domain, prod, (0, 1, 2, 3)))
        ch = tensor(bsc(0.03), identity_channel(msgs))
        dec = deterministic_channel(FunctionTable(prod, BITS, (1, 0, 0, 1)))
        code = FunctionCode(enc, dec, f, ch)
        lam = code_error_profile(code)
        assert np.allclose(lam, [0.03, 0.03], atol=1e-15)
        assert np.allclose(lam, oracles.brute_force_profile(code), atol=1e-12)

    def test_constant_decoder(self):
        f = FunctionTable(Alphabet.of_size(2, "a"), BITS, (0, 1))
        enc = identity_channel_between(f.domain, Alphabet.of_size(2, "x"))
        ch = identity_channel_between(Alphabet.of_size(2, "x"),
                                      Alphabet.of_size(2, "y"))
        dec = deterministic_channel(
            FunctionTable(Alphabet.of_size(2, "y"), BITS, (0, 0))
        )
        lam = code_error_profile(FunctionCode(enc, dec, f, ch))
        assert lam[0] == 0.0 and lam[1] == 1.0


    @pytest.mark.parametrize("seed", range(8))
    def test_masked_max_equals_per_input_loop(self, seed):
        rng = np.random.default_rng(seed)
        code = random_code(rng, dom_size=int(rng.integers(2, 7)),
                           cod_size=int(rng.integers(1, 4)))
        psi = code.composite.rows
        loop = [max([0.0] + [1.0 - psi[a, code.value_column(b)]
                             for a in range(code.f.domain.size)
                             if code.f.mapping[a] == b])
                for b in code.f.attained]
        assert code_error_profile(code).tolist() == loop
        assert np.allclose(loop, oracles.brute_force_profile(code), atol=1e-12)

    def test_composite_is_built_once(self):
        code = random_code(np.random.default_rng(1))
        assert code.composite is code.composite
        assert np.array_equal(
            code.composite.rows,
            compose(compose(code.encoder, code.channel), code.decoder).rows)


class TestCodeToLhc:
    def test_perfect_code_passes_at_zero(self):
        cert = code_to_lhc(perfect_identity_code())
        assert cert.passed and np.array_equal(cert.lam, [0, 0])
        assert cert.edge_bijective

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_certificate_equals_brute_force_profile(self, seed):
        rng = np.random.default_rng(seed)
        code = random_code(rng, dom_size=int(rng.integers(1, 4)),
                           cod_size=int(rng.integers(1, 3)),
                           mid=int(rng.integers(1, 4)))
        cert = code_to_lhc(code)
        assert np.allclose(cert.lam, oracles.brute_force_profile(code), atol=1e-12)


class TestLhcToCode:
    def test_aligned_decoder_unchanged(self):
        code = perfect_identity_code()
        cert = code_to_lhc(code)
        restored = lhc_to_code(cert, code)
        assert np.allclose(restored.decoder.rows, code.decoder.rows)

    def test_permuted_decoder_recovered(self):
        rng = np.random.default_rng(4)
        dom = Alphabet.of_size(3, "a")
        cod = Alphabet.of_size(2, "b")
        x = Alphabet.of_size(3, "x")
        y = Alphabet.of_size(3, "y")
        f = FunctionTable(dom, cod, (0, 1, 0))
        code = FunctionCode(
            rand_channel(rng, dom, x), rand_channel(rng, y, cod), f,
            rand_channel(rng, x, y),
        )
        base = code_error_profile(code)
        # permute the decoder output labels and patch the certificate map
        swap = deterministic_channel(
            FunctionTable(code.f.codomain, code.f.codomain, (1, 0))
        )
        from lhckit.channel import compose

        scrambled = FunctionCode(code.encoder, compose(code.decoder, swap),
                                 code.f, code.channel)
        cert = code_to_lhc(code)
        swapped_cert_map = EdgeMap(2, 2, (1, 0))
        from lhckit.verify import LhcCertificate

        cert_perm = LhcCertificate(
            edge_map=swapped_cert_map, lam=cert.lam,
            per_vertex_success=cert.per_vertex_success, failing_edges=(),
        )
        restored = lhc_to_code(cert_perm, scrambled)
        assert np.allclose(code_error_profile(restored), base, atol=1e-12)

    def test_cyclic_shift_inverted(self):
        rng = np.random.default_rng(9)
        dom = Alphabet.of_size(3, "a")
        cod = Alphabet.of_size(3, "b")
        f = FunctionTable(dom, cod, (0, 1, 2))
        x = Alphabet.of_size(3, "x")
        y = Alphabet.of_size(3, "y")
        code = FunctionCode(
            sharp(rng, dom, x, (0, 1, 2)), sharp(rng, y, cod, (0, 1, 2)), f,
            sharp(rng, x, y, (0, 1, 2)),
        )
        base = code_error_profile(code)
        shift = deterministic_channel(FunctionTable(cod, cod, (1, 2, 0)))
        from lhckit.channel import compose

        scrambled = FunctionCode(code.encoder, compose(code.decoder, shift),
                                 code.f, code.channel)
        cert = code_to_lhc(code)
        from lhckit.verify import LhcCertificate

        cert_shift = LhcCertificate(
            edge_map=EdgeMap(3, 3, (1, 2, 0)), lam=cert.lam,
            per_vertex_success=cert.per_vertex_success, failing_edges=(),
        )
        restored = lhc_to_code(cert_shift, scrambled)
        assert np.allclose(code_error_profile(restored), base, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_bounded_by_certificate(self, seed):
        rng = np.random.default_rng(seed)
        code = random_code(rng)
        cert = code_to_lhc(code)
        restored = lhc_to_code(cert, code)
        assert np.all(code_error_profile(restored) <= cert.lam + 1e-12)

    def test_requires_bijective(self):
        code = perfect_identity_code()
        cert = code_to_lhc(code)
        from lhckit.verify import LhcCertificate

        broken = LhcCertificate(
            edge_map=EdgeMap(2, 2, (0, 0)), lam=cert.lam,
            per_vertex_success=cert.per_vertex_success, failing_edges=(),
        )
        with pytest.raises(RequiresBijective):
            lhc_to_code(broken, code)


def sharp(rng, inp, out, targets, noise=0.05):
    rows = np.full((inp.size, out.size), noise / out.size)
    for i, t in enumerate(targets):
        rows[i, t] += 1.0 - noise
    rows /= rows.sum(axis=1, keepdims=True)
    from lhckit import Channel

    return Channel(inp, out, rows)


class TestValueRelabelInvariance:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_codomain_permutation_preserves_profile_and_verdict(self, seed):
        rng = np.random.default_rng(seed)
        dom = Alphabet.of_size(3, "a")
        cod = Alphabet.of_size(2, "b")
        x = Alphabet.of_size(3, "x")
        y = Alphabet.of_size(3, "y")
        f = FunctionTable(dom, cod, (0, 1, 0))
        code = FunctionCode(
            rand_channel(rng, dom, x), rand_channel(rng, y, cod), f,
            rand_channel(rng, x, y),
        )
        # rename the two values by swapping: same code, labels permuted
        cod_swapped = Alphabet((cod.labels[1], cod.labels[0]))
        f_swapped = FunctionTable(dom, cod_swapped, (1, 0, 1))
        from lhckit import Channel

        dec_swapped = Channel(y, cod_swapped, code.decoder.rows[:, ::-1])
        relabeled = FunctionCode(code.encoder, dec_swapped, f_swapped, code.channel)
        cert = code_to_lhc(code)
        cert_relabeled = code_to_lhc(relabeled)
        assert cert.passed == cert_relabeled.passed
        assert sorted(cert.lam) == pytest.approx(sorted(cert_relabeled.lam),
                                                 abs=1e-15)


class TestSandwichTransfer:
    def test_identity_sandwich(self):
        g = complete_1_uniform(BITS)
        e_edge = EdgeMap.identity(2)
        g_edge, (outer, inner) = sandwich_transfer(
            (0, 1), EdgeMap.identity(2), (0, 1), EdgeMap.identity(2),
            bsc(0.05), e_edge, g, g, g, g, np.array([0.1, 0.1]),
        )
        assert g_edge.mapping == (0, 1) and outer and inner

    def test_scalar_lam_is_broadcast(self):
        g = complete_1_uniform(BITS)
        args = ((0, 1), EdgeMap.identity(2), (0, 1), EdgeMap.identity(2),
                bsc(0.05), EdgeMap.identity(2), g, g, g, g)
        for lam in (0.04, 0.1):
            assert (sandwich_transfer(*args, lam)
                    == sandwich_transfer(*args, np.array([lam, lam])))
        with pytest.raises(ShapeError, match=r"lam must have one entry per edge \(2\)"):
            sandwich_transfer(*args, [0.1, 0.1, 0.1])

    def test_permutation_relabelings_agree(self):
        g = complete_1_uniform(BITS)
        f_outer = complete_1_uniform(Alphabet(("p", "q")))
        i_outer = complete_1_uniform(Alphabet(("r", "s")))
        # relabel by the swap on both sides
        f_map, h_map = (1, 0), (1, 0)
        f_edge, h_edge = EdgeMap(2, 2, (1, 0)), EdgeMap(2, 2, (1, 0))
        for e_mapping in ((0, 1), (1, 0)):
            g_edge, (outer, inner) = sandwich_transfer(
                f_map, f_edge, h_map, h_edge, bsc(0.1),
                EdgeMap(2, 2, e_mapping), f_outer, g, g, i_outer,
                np.array([0.1, 0.1]),
            )
            assert outer == inner

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_verdicts_agree_on_random_sandwiches(self, seed):
        rng = np.random.default_rng(seed)
        inst = sandwich_instance(rng)
        _, (outer, inner) = sandwich_transfer(**inst)
        assert outer == inner

    def test_requires_bijective_prefix(self):
        g = complete_1_uniform(BITS)
        with pytest.raises(RequiresBijective):
            sandwich_transfer(
                (0, 0), EdgeMap(2, 2, (0, 0)), (0, 1), EdgeMap.identity(2),
                bsc(0.1), EdgeMap.identity(2), g, g, g, g, np.array([0.1, 0.1]),
            )
