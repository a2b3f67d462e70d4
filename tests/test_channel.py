import math
import re
import sys

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
from lhckit import channel
from lhckit.bipartite import check_harness_symbols
from lhckit.bsc_id import Codebook, restricted_pair_channel
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
        with pytest.raises(ShapeError, match=r"^row 0 sums to 1\.000001\d*, not 1"):
            from lhckit import Channel

            Channel(BITS, BITS, np.array([[0.5, 0.5 + 1e-6], [0.5, 0.5]]))


    def test_caller_array_stays_writable(self):
        """Channel used to freeze the float64 array it was handed."""
        from lhckit import Channel

        rows = np.eye(2)
        # the array itself, or a buffer that numpy reads as a view of it
        for handed in (rows, memoryview(rows)):
            ch = Channel(BITS, BITS, handed)
            rows[0, 0] = 0.5
            assert rows.flags.writeable and not ch.rows.flags.writeable
            assert np.array_equal(ch.rows, np.eye(2))
            rows[0, 0] = 1.0
        # a read-only array is copied too: its owner may turn writing back on
        assert Channel(BITS, BITS, ch.rows).rows is not ch.rows

    def test_rows_cannot_change_after_the_checks(self):
        from lhckit import Channel

        r = np.eye(2)
        r.setflags(write=False)
        ch = Channel(BITS, BITS, r)
        r.setflags(write=True)
        r[0] = [0.5, 0.5]
        assert np.array_equal(ch.rows, np.eye(2)) and not ch.rows.flags.writeable

    def test_builders_keep_their_new_arrays(self):
        """The package's own builders freeze the array they made, uncopied,
        after the constructor's checks."""
        from lhckit.channel import _adopt

        rows = np.eye(2)
        ch = _adopt(BITS, BITS, rows)
        assert ch.rows is rows and not rows.flags.writeable
        with pytest.raises(ShapeError, match=r"^row 0 sums to 1\.5, not 1"):
            _adopt(BITS, BITS, np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_names_its_row(self, value):
        from lhckit import Channel

        rows = np.array([[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]])
        rows[1] = value
        with pytest.raises(ShapeError, match=rf"row 1 holds {value!r}; "
                                             r"probabilities must lie in \[0, 1\]"):
            Channel(Alphabet.of_size(3), BITS, rows)


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


def factor_rows(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    """m x n rows: Dirichlet, sharp (a noisy deterministic map), or a 1.0
    per row among entries of 0 and 5e-324, the least subnormal."""
    rng = np.random.default_rng(seed)
    if kind == "dirichlet":
        return rng.dirichlet(np.ones(n), size=m)
    target = rng.integers(n, size=m)
    if kind == "sharp":
        rows = np.full((m, n), 0.2 / n)
        rows[np.arange(m), target] += 0.8
        return rows
    rows = np.where(rng.random((m, n)) < 0.5, 0.0, 5e-324)
    rows[np.arange(m), target] = 1.0
    return rows


factors = st.builds(factor_rows, st.sampled_from(["dirichlet", "sharp", "tiny"]),
                    st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))


class TestTensor:
    @given(factors, factors)
    @settings(max_examples=200, deadline=None)
    def test_rows_are_kron_byte_for_byte(self, r1, r2):
        c1, c2 = (channel.Channel(Alphabet.of_size(r.shape[0], "x"),
                                  Alphabet.of_size(r.shape[1], "y"), r) for r in (r1, r2))
        rows, want = tensor(c1, c2).rows, np.kron(r1, r2)
        assert rows.shape == want.shape and rows.tobytes() == want.tobytes()

    def test_separator_collision_refused(self):
        """("x", "x|x") squared has "x|x|x" twice: refused by the product."""
        odd = identity_channel(Alphabet(("x", "x|x")))
        with pytest.raises(ShapeError, match="^alphabet labels must be pairwise distinct$"):
            tensor(odd, odd)

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

    def test_capacity_cap(self, monkeypatch):
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 3)
        with pytest.raises(CapacityError):
            tensor(bsc(0.1), bsc(0.1))
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 15)
        with pytest.raises(CapacityError, match=r"4 x 4: 16 entries exceed the cap 15"):
            tensor(bsc(0.1), bsc(0.1))
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 16)
        assert tensor(bsc(0.1), bsc(0.1)).rows.shape == (4, 4)

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

    def test_cap_counts_entries_not_alphabet_sides(self, monkeypatch):
        # 16 x 16 = 256 entries, although each side (16) is within the cap
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 100)
        with pytest.raises(CapacityError, match=r"16 x 16: 256 entries exceed the cap 100"):
            power(bsc(0.1), 4)
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 256)
        assert power(bsc(0.1), 4).rows.shape == (16, 16)

    def test_power_checks_final_size_before_any_product(self, monkeypatch):
        def no_kron(*args):
            raise AssertionError("allocated before the cap check")

        monkeypatch.setattr(channel.np, "kron", no_kron)
        monkeypatch.setattr(channel, "DEFAULT_PRODUCT_CAP", 1 << 12)
        # each side (1024) is within the cap; the 2**20 entries are not
        with pytest.raises(CapacityError, match=r"1024 x 1024: 1048576 entries"):
            power(bsc(0.1), 10)


class TestCapMessages:
    """A size of more than 14000 bits, near or past the digit limit of
    ``str``, is written as about a power of two, so the refusal is still
    CapacityError with a one-line message, the same on every interpreter."""

    def test_power_of_a_huge_block_length(self):
        with pytest.raises(CapacityError) as info:
            power(bsc(0.1), 20000)
        assert str(info.value) == ("channel of ~2**20000.0 x ~2**20000.0: ~2**40000.0 entries "
                                   f"exceed the cap {channel.DEFAULT_PRODUCT_CAP}")

    def test_restricted_pair_channel_of_long_words(self):
        book = Codebook(8000, ("0" * 8000, "1" * 8000), 1)
        with pytest.raises(CapacityError) as info:
            restricted_pair_channel(book, 0.1)
        assert str(info.value) == ("channel of 4 x ~2**16000.0: ~2**16002.0 entries "
                                   f"exceed the cap {channel.DEFAULT_PRODUCT_CAP}")

    def test_size_not_a_power_of_two(self):
        with pytest.raises(CapacityError) as info:
            check_harness_symbols(3**9000)
        assert str(info.value) == ("max_symbols ~2**14264.7 allows a ~2**28529.3 x "
                                   "~2**28529.3 channel: ~2**57058.7 entries exceed "
                                   f"the cap {channel.DEFAULT_PRODUCT_CAP}")

    def test_the_form_follows_the_value_not_the_digit_limit(self):
        assert channel._int_text(2**14000 - 1) == str(2**14000 - 1)
        assert channel._int_text(2**14000) == "~2**14000.0"
        assert channel._int_text(math.inf) == "inf"

    @pytest.mark.parametrize("limit", [0, 640])  # unlimited, and the least allowed
    def test_text_does_not_move_with_the_digit_limit(self, limit):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no digit limit to set")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            with pytest.raises(CapacityError) as info:
                power(bsc(0.1), 20000)
        finally:
            sys.set_int_max_str_digits(old)
        assert str(info.value) == ("channel of ~2**20000.0 x ~2**20000.0: ~2**40000.0 entries "
                                   f"exceed the cap {channel.DEFAULT_PRODUCT_CAP}")


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

    @pytest.mark.parametrize("seed", [1.7, "7", True, np.True_, -1, None])
    def test_seed_is_an_integer_at_least_zero(self, seed):
        with pytest.raises(RangeError, match=f"^{re.escape(f'seed {seed!r}')} "
                                             "is not an integer >= 0$"):
            named_rng(seed)

    # -5 ended in numpy's bare ValueError from SeedSequence
    @pytest.mark.parametrize("part", [-5, np.int64(-1), True])
    def test_integer_stream_part_is_at_least_zero(self, part):
        with pytest.raises(RangeError, match=f"^{re.escape(f'stream part {part!r}')} "
                                             "is not an integer >= 0$"):
            named_rng(1, "x", part)

    def test_numpy_integer_seed_keeps_the_stream(self):
        assert named_rng(np.int64(7), "demo").random() == named_rng(7, "demo").random()

    def test_input_index_outside_alphabet(self):
        with pytest.raises(ShapeError, match=r"^input index 2 is outside \[0, 2\)$"):
            sample(bsc(0.1), 2, named_rng(0))

    def test_named_stream_reproducible(self):
        a = named_rng(7, "x", 3).integers(1 << 30)
        b = named_rng(7, "x", 3).integers(1 << 30)
        c = named_rng(7, "x", 4).integers(1 << 30)
        assert a == b and a != c
