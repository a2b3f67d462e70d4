"""Finite stochastic channels as row-stochastic matrices.

Composition is matrix product, independent parallel use is the Kronecker
product, and memoryless block use is the repeated Kronecker power. Product
alphabets are in row-major order with labels joined by '|' (built when a
file or a message reads them), which is part of the file format contract;
a hard cap on the entries of a dense product matrix, checked before it is
allocated, keeps large block lengths out of dense matrices (the
binary-symmetric example has analytic distance laws for those).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ShapeError, _indices, _require_count, _require_unit
from .hypergraph import BITS, Alphabet, FunctionTable, _require_same_alphabet

ROW_SUM_TOL = 1e-12
# Most entries of any dense product matrix or word-pair set; every builder
# reads it when called, so assigning the module attribute changes the cap.
DEFAULT_PRODUCT_CAP = 1 << 20


@dataclass(frozen=True, eq=False)
class Channel:
    """Stochastic map between finite alphabets; rows[x, y] = Pr(output y | input x).

    The channel's rows are read-only, and only the channel holds them: the
    constructor keeps a checked copy of the array it is handed.
    """

    input: Alphabet
    output: Alphabet
    rows: np.ndarray

    def __post_init__(self):
        self._keep(np.array(self.rows, dtype=np.float64))

    def _keep(self, rows: np.ndarray) -> None:
        """Check rows against the alphabets, then store them read-only."""
        if rows.shape != (self.input.size, self.output.size):
            raise ShapeError(
                f"rows shape {rows.shape} does not match alphabets "
                f"({self.input.size}, {self.output.size})"
            )
        # NaN fails both comparisons, so non-finite entries are refused here
        if not (rows.min() >= 0.0 and rows.max() <= 1.0):
            x, y = np.argwhere(~((rows >= 0.0) & (rows <= 1.0)))[0]
            raise ShapeError(
                f"row {x} holds {float(rows[x, y])!r}; probabilities must lie in [0, 1]"
            )
        sums = rows.sum(axis=1)
        dev = np.abs(sums - 1.0)
        if dev.max() > ROW_SUM_TOL:
            x = int(np.argmax(dev > ROW_SUM_TOL))
            raise ShapeError(
                f"row {x} sums to {float(sums[x])!r}, not 1 within {ROW_SUM_TOL}"
            )
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def deterministic(self) -> bool:
        return bool(np.all(self.rows.max(axis=1) >= 1.0 - ROW_SUM_TOL))


def _adopt(inp: Alphabet, out: Alphabet, rows: np.ndarray) -> Channel:
    """Channel on a new float64 array that no caller holds.

    The package's builders hand their arrays over here: the constructor's
    checks run, and the array is frozen and kept without a copy.
    """
    ch = object.__new__(Channel)
    object.__setattr__(ch, "input", inp)
    object.__setattr__(ch, "output", out)
    ch._keep(rows)
    return ch


def deterministic_channel(f: FunctionTable) -> Channel:
    """Channel placing all mass on f(a) for each input a."""
    rows = np.zeros((f.domain.size, f.codomain.size))
    rows[np.arange(f.domain.size), list(f.mapping)] = 1.0
    return _adopt(f.domain, f.codomain, rows)


def identity_channel(alphabet: Alphabet) -> Channel:
    return _adopt(alphabet, alphabet, np.eye(alphabet.size))


def bsc(gamma: float) -> Channel:
    """Binary symmetric channel with crossover probability gamma."""
    _require_unit(gamma, "crossover probability")
    return _adopt(BITS, BITS, np.array([[1.0 - gamma, gamma], [gamma, 1.0 - gamma]]))


def compose(first: Channel, second: Channel) -> Channel:
    """Feed the output of `first` into `second`."""
    _require_same_alphabet(first.output, second.input,
                           "output alphabet of first must equal input alphabet of second")
    rows = first.rows @ second.rows
    np.clip(rows, 0.0, 1.0, out=rows)
    return _adopt(first.input, second.output, rows)


def _check_entries(entries: int, what: str, *sizes) -> None:
    """The one cap refusal: CapacityError naming what, its ``{}`` fields
    filled with sizes, when its dense array would hold more entries than
    the cap. The message is formatted only then, and an integer near or
    past the digit limit of ``str`` is written as about a power of two."""
    if entries > DEFAULT_PRODUCT_CAP:
        raise CapacityError(f"{what.format(*map(_int_text, sizes))}: {_int_text(entries)} "
                            f"entries exceed the cap {DEFAULT_PRODUCT_CAP}")


def _int_text(value) -> str:
    """str(value), or ~2**L for an integer of more than 14000 bits (4215
    digits, under the default 4300-digit limit of ``str``). The form is
    chosen from the value alone, so every interpreter writes the same text."""
    if isinstance(value, int) and value.bit_length() > 14000:
        return f"~2**{math.log2(value):.1f}"
    return str(value)


def tensor(phi1: Channel, phi2: Channel) -> Channel:
    """Independent parallel use of two channels on the product alphabets."""
    (m, n), (p, q) = phi1.rows.shape, phi2.rows.shape
    _check_entries(m * p * n * q, "channel of {} x {}", m * p, n * q)
    # np.kron's entries, each one product, without its general-rank set-up
    rows = (phi1.rows[:, None, :, None] * phi2.rows[None, :, None, :]).reshape(m * p, n * q)
    return _adopt(phi1.input.product(phi2.input), phi1.output.product(phi2.output), rows)


def power(phi: Channel, n: int) -> Channel:
    """n independent letter-wise uses of phi."""
    _require_count(n, "block length n")
    rows, cols = phi.input.size**n, phi.output.size**n
    _check_entries(rows * cols, "channel of {} x {}", rows, cols)
    out = phi
    for _ in range(n - 1):
        out = tensor(out, phi)
    return out


def named_rng(seed: int, *stream: object) -> np.random.Generator:
    """Generator for a named stream, stable in (seed, stream) across runs.

    The one place a seed enters, and the one seed check: an integer >= 0,
    never a bool, float or string (RangeError naming it otherwise). An
    integer stream part must be >= 0 too; any other part is hashed."""
    _require_count(seed, "seed", 0)
    entropy: list[int] = [int(seed)]
    for part in stream:
        if isinstance(part, (int, np.integer)):
            _require_count(part, "stream part", 0)
            entropy.append(int(part))
        else:
            digest = hashlib.sha256(str(part).encode("utf-8")).digest()
            entropy.append(int.from_bytes(digest[:8], "big"))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def sample(phi: Channel, x: int, rng: np.random.Generator) -> int:
    """Draw one output index from row x."""
    (x,) = _indices((x,), "input index", phi.input.size)
    return int(rng.choice(phi.output.size, p=phi.rows[x]))
