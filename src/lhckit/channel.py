"""Finite stochastic channels as row-stochastic matrices.

Composition is matrix product, independent parallel use is the Kronecker
product, and memoryless block use is the repeated Kronecker power. Product
alphabets are materialized in row-major order with labels joined by '|',
which is part of the file format contract; a hard cap on the entries of a
dense product matrix, checked before it is allocated, keeps large block
lengths out of dense matrices (the binary-symmetric example has
analytic distance laws for those).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, RangeError, ShapeError
from .hypergraph import BITS, Alphabet, FunctionTable

ROW_SUM_TOL = 1e-12
DEFAULT_PRODUCT_CAP = 1 << 20


@dataclass(frozen=True, eq=False)
class Channel:
    """Stochastic map between finite alphabets; rows[x, y] = Pr(output y | input x)."""

    input: Alphabet
    output: Alphabet
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.shape != (self.input.size, self.output.size):
            raise ShapeError(
                f"rows shape {rows.shape} does not match alphabets "
                f"({self.input.size}, {self.output.size})"
            )
        if np.any(rows < 0.0) or np.any(rows > 1.0):
            raise ShapeError("probabilities must lie in [0, 1]")
        sums = rows.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            raise ShapeError(
                f"row {bad[0]} sums to {sums[bad[0]]!r}, not 1 within {ROW_SUM_TOL}"
            )
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def deterministic(self) -> bool:
        return bool(np.all(self.rows.max(axis=1) >= 1.0 - ROW_SUM_TOL))


def deterministic_channel(f: FunctionTable) -> Channel:
    """Channel placing all mass on f(a) for each input a."""
    rows = np.zeros((f.domain.size, f.codomain.size))
    rows[np.arange(f.domain.size), list(f.mapping)] = 1.0
    return Channel(f.domain, f.codomain, rows)


def identity_channel(alphabet: Alphabet) -> Channel:
    return Channel(alphabet, alphabet, np.eye(alphabet.size))


def bsc(gamma: float) -> Channel:
    """Binary symmetric channel with crossover probability gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise RangeError(f"crossover probability {gamma} outside [0, 1]")
    return Channel(BITS, BITS, np.array([[1.0 - gamma, gamma], [gamma, 1.0 - gamma]]))


def compose(first: Channel, second: Channel) -> Channel:
    """Feed the output of `first` into `second`."""
    if first.output.labels != second.input.labels:
        raise ShapeError("output alphabet of first must equal input alphabet of second")
    rows = first.rows @ second.rows
    return Channel(first.input, second.output, np.clip(rows, 0.0, 1.0))


def _check_entries(in_size: int, out_size: int, cap: int) -> None:
    """Refuse a dense in x out channel with more than cap entries."""
    if in_size * out_size > cap:
        raise CapacityError(
            f"channel of {in_size} x {out_size} = {in_size * out_size} "
            f"entries exceeds cap {cap}"
        )


def tensor(
    phi1: Channel, phi2: Channel, cap: int = DEFAULT_PRODUCT_CAP
) -> Channel:
    """Independent parallel use of two channels on the product alphabets."""
    _check_entries(phi1.input.size * phi2.input.size,
                   phi1.output.size * phi2.output.size, cap)
    return Channel(
        phi1.input.product(phi2.input),
        phi1.output.product(phi2.output),
        np.kron(phi1.rows, phi2.rows),
    )


def power(phi: Channel, n: int, cap: int = DEFAULT_PRODUCT_CAP) -> Channel:
    """n independent letter-wise uses of phi."""
    if n < 1:
        raise RangeError("block length must be at least 1")
    _check_entries(phi.input.size**n, phi.output.size**n, cap)
    out = phi
    for _ in range(n - 1):
        out = tensor(out, phi, cap=cap)
    return out


def named_rng(seed: int, *stream: object) -> np.random.Generator:
    """Generator for a named stream, stable in (seed, stream) across runs."""
    entropy: list[int] = [int(seed)]
    for part in stream:
        if isinstance(part, (int, np.integer)):
            entropy.append(int(part))
        else:
            digest = hashlib.sha256(str(part).encode("utf-8")).digest()
            entropy.append(int.from_bytes(digest[:8], "big"))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def sample(phi: Channel, x: int, rng: np.random.Generator) -> int:
    """Draw one output index from row x."""
    if not 0 <= x < phi.input.size:
        raise ShapeError(f"input index {x} outside alphabet")
    return int(rng.choice(phi.output.size, p=phi.rows[x]))
