import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lhckit import (
    Alphabet,
    BITS,
    FunctionTable,
    bsc,
    compose,
    deterministic_channel,
    identity_channel,
    named_rng,
    power,
    sample,
    tensor,
)
from lhckit.errors import CapacityError, RangeError, ShapeError

from conftest import rand_channel


def marginal_output(phi, keep_first: int) -> np.ndarray:
    """Marginalize a product-output channel onto its first `keep_first` symbols."""
    if phi.output.size % keep_first:
        raise ShapeError("output size is not a multiple of the requested marginal")
    block = phi.output.size // keep_first
    return phi.rows.reshape(phi.input.size, keep_first, block).sum(axis=2)


class TestConstructors:
    def test_bsc_endpoints(self):
        assert np.array_equal(bsc(0.0).rows, np.eye(2))
        assert np.all(bsc(0.5).rows == 0.5)
        assert np.allclose(bsc(0.03).rows, [[0.97, 0.03], [0.03, 0.97]])

    def test_bsc_range(self):
        with pytest.raises(RangeError):
            bsc(1.5)

    def test_identity_from_function(self):
        f = FunctionTable(BITS, BITS, (0, 1))
        assert np.array_equal(deterministic_channel(f).rows, np.eye(2))

    def test_constant_function(self):
        f = FunctionTable(Alphabet(("a", "b")), BITS, (0, 0))
        ch = deterministic_channel(f)
        assert np.array_equal(ch.rows, [[1, 0], [1, 0]])
        assert ch.deterministic

    def test_equality_function_matrix(self):
        from lhckit import identification_table

        ch = deterministic_channel(identification_table(2))
        expected = np.zeros((4, 2))
        expected[[0, 3], 1] = 1.0  # (m, m) pairs
        expected[[1, 2], 0] = 1.0
        assert np.array_equal(ch.rows, expected)

    def test_row_sum_validation(self):
        with pytest.raises(ShapeError, match="sums to"):
            from lhckit import Channel

            Channel(BITS, BITS, np.array([[0.5, 0.5 + 1e-6], [0.5, 0.5]]))


class TestCompose:
    def test_identity_neutral(self):
        phi = bsc(0.2)
        assert np.allclose(compose(identity_channel(BITS), phi).rows, phi.rows)

    def test_bsc_crossover_addition(self):
        assert np.allclose(compose(bsc(0.05), bsc(0.05)).rows, bsc(0.095).rows,
                           atol=1e-12)

    def test_constant_second_stage(self):
        const = deterministic_channel(FunctionTable(BITS, BITS, (0, 0)))
        rows = compose(bsc(0.3), const).rows
        assert np.allclose(rows, [[1, 0], [1, 0]])

    def test_alphabet_mismatch(self):
        three = Alphabet(("a", "b", "c"))
        with pytest.raises(ShapeError):
            compose(bsc(0.1), identity_channel(three))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_associative(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [int(s) for s in rng.integers(2, 4, size=4)]
        alphas = [Alphabet.of_size(s, f"s{i}") for i, s in enumerate(sizes)]
        chs = [rand_channel(rng, alphas[i], alphas[i + 1]) for i in range(3)]
        left = compose(compose(chs[0], chs[1]), chs[2])
        right = compose(chs[0], compose(chs[1], chs[2]))
        assert np.allclose(left.rows, right.rows, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_row_stochastic_preserved(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (Alphabet.of_size(int(s), p)
                   for s, p in zip(rng.integers(2, 5, size=3), "abc"))
        out = compose(rand_channel(rng, a, b), rand_channel(rng, b, c))
        assert np.allclose(out.rows.sum(axis=1), 1.0, atol=1e-12)


class TestTensor:
    def test_identity_tensor(self):
        out = tensor(identity_channel(BITS), identity_channel(BITS))
        assert np.array_equal(out.rows, np.eye(4))
        assert out.input.labels == ("0|0", "0|1", "1|0", "1|1")

    def test_bsc_tensor_identity_rows(self):
        msgs = Alphabet(("m1", "m2"))
        out = tensor(bsc(0.25), identity_channel(msgs))
        for x in range(2):
            for m in range(2):
                for y in range(2):
                    for m2 in range(2):
                        expected = bsc(0.25).rows[x, y] * (m == m2)
                        assert out.rows[x * 2 + m, y * 2 + m2] == pytest.approx(
                            expected, abs=1e-15
                        )

    def test_crossover_product_entry(self):
        out = tensor(bsc(0.1), bsc(0.2))
        assert out.rows[0, 3] == pytest.approx(0.1 * 0.2, abs=1e-15)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            tensor(bsc(0.1), bsc(0.1), cap=3)
        with pytest.raises(CapacityError, match=r"4 x 4 = 16 entries exceeds cap 15"):
            tensor(bsc(0.1), bsc(0.1), cap=15)
        assert tensor(bsc(0.1), bsc(0.1), cap=16).rows.shape == (4, 4)

    def test_marginalization_recovers_first_factor(self):
        rng = np.random.default_rng(5)
        a = rand_channel(rng, BITS, BITS)
        b = rand_channel(rng, BITS, BITS)
        marg = marginal_output(tensor(a, b), keep_first=2)
        # joint input (x, u): marginal over second output recovers a's row at x
        for x in range(2):
            for u in range(2):
                assert np.allclose(marg[x * 2 + u], a.rows[x], atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_tensor_row_stochastic(self, seed):
        rng = np.random.default_rng(seed)
        a = rand_channel(rng, Alphabet.of_size(2, "a"), Alphabet.of_size(3, "b"))
        b = rand_channel(rng, Alphabet.of_size(3, "c"), Alphabet.of_size(2, "d"))
        assert np.allclose(tensor(a, b).rows.sum(axis=1), 1.0, atol=1e-12)


class TestPower:
    def test_power_one(self):
        assert np.array_equal(power(bsc(0.2), 1).rows, bsc(0.2).rows)

    def test_double_flip(self):
        sq = power(bsc(0.1), 2)
        assert sq.rows[0, 3] == pytest.approx(0.01, abs=1e-15)

    def test_triple_clean(self):
        cube = power(bsc(0.03), 3)
        assert cube.rows[0, 0] == pytest.approx(0.97**3, abs=1e-12)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            power(bsc(0.1), 25)

    def test_cap_counts_entries_not_alphabet_sides(self):
        # 16 x 16 = 256 entries, although each side (16) is within the cap
        with pytest.raises(CapacityError, match=r"16 x 16 = 256 entries exceeds cap 100"):
            power(bsc(0.1), 4, cap=100)
        assert power(bsc(0.1), 4, cap=256).rows.shape == (16, 16)

    def test_power_checks_final_size_before_any_product(self, monkeypatch):
        import lhckit.channel as channel

        def no_kron(*args):
            raise AssertionError("allocated before the cap check")

        monkeypatch.setattr(channel.np, "kron", no_kron)
        # each side (1024) is within the cap; the 2**20 entries are not
        with pytest.raises(CapacityError, match=r"1024 x 1024 = 1048576 entries"):
            power(bsc(0.1), 10, cap=1 << 12)


class TestSample:
    def test_deterministic_channel_sampling(self):
        f = FunctionTable(Alphabet(("a", "b")), BITS, (1, 0))
        ch = deterministic_channel(f)
        rng = named_rng(1, "det")
        assert [sample(ch, 0, rng) for _ in range(5)] == [1] * 5

    def test_noiseless_bsc(self):
        rng = named_rng(1, "clean")
        assert sample(bsc(0.0), 0, rng) == 0

    def test_flip_fraction_concentrates(self):
        ch = bsc(0.03)
        rng = named_rng(42, "flips")
        flips = sum(sample(ch, 0, rng) for _ in range(100_000))
        assert abs(flips / 100_000 - 0.03) < 0.002

    def test_named_stream_reproducible(self):
        a = named_rng(7, "x", 3).integers(1 << 30)
        b = named_rng(7, "x", 3).integers(1 << 30)
        c = named_rng(7, "x", 4).integers(1 << 30)
        assert a == b and a != c
