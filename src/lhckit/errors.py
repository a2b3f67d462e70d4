"""Exception types shared across the toolkit, and the one index, integer,
real number and unit-interval checks."""

import operator
from numbers import Real

import numpy as np


class LhcKitError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(LhcKitError):
    """Alphabets, matrices or maps do not fit together."""


class RequiresPartition(LhcKitError):
    """Operation is only defined for partition hypergraphs."""


class RequiresBijective(LhcKitError):
    """Operation needs a bijective edge map."""


class RangeError(LhcKitError):
    """Numeric parameter outside its admissible range."""


class CapacityError(LhcKitError):
    """A product alphabet would exceed the materialization cap."""


class EmptyBlock(LhcKitError):
    """A thresholded block came out empty; hypotheses are too tight."""


class HypothesisViolated(LhcKitError):
    """A stated precondition inequality fails; the message names it."""


class LambdaTooLarge(LhcKitError):
    """Error profile too large for the factor-4 derandomization."""


class EdgeCountMismatch(LhcKitError):
    """Edge counts differ where a bijection or a chain requires them to fit."""


class EpsilonTooLarge(LhcKitError):
    """Window width parameter makes the accept/reject windows collide."""


class Infeasible(LhcKitError):
    """Greedy codebook search exhausted before reaching the requested size."""


class DecompositionFailure(LhcKitError):
    """A certificate that the theory guarantees failed; carries the instance.

    Raised only when preconditions were verified and a conclusion still did
    not hold, so the payload is either a bug reproducer or a counterexample.
    """

    def __init__(self, message: str, instance: dict | None = None):
        super().__init__(message)
        self.instance = instance or {}


def _indices(values, what: str, size: int | float = float("inf")) -> tuple[int, ...]:
    """The one index check: the values as a tuple of Python ints in
    [0, size), any int >= 0 where no size is given; values itself when it
    is a tuple of them.

    A Python or numpy integer passes; anything else, a bool or numpy bool
    included, raises ShapeError naming the first such value after what, as
    ``int`` would truncate 0.7 to 0 and read True as 1. Only each distinct
    type is looked at in Python, and ``operator.index`` converts. The range
    is read from the builtin ``min`` and ``max``; a value outside it raises
    ShapeError naming the first such value.
    """
    values = tuple(values)
    if not {int}.issuperset(map(type, values)):
        bad = [t for t in set(map(type, values))
               if t is bool or not issubclass(t, (int, np.integer))]
        if bad:
            value = next(x for x in values if type(x) in bad)
            raise ShapeError(f"{what} {value!r} is not an integer")
        values = tuple(map(operator.index, values))
    if values and not 0 <= min(values) <= max(values) < size:
        value = next(x for x in values if not 0 <= x < size)
        raise ShapeError(f"{what} {value} is outside [0, {size})")
    return values


def _require_count(value, what: str, least: int = 1) -> None:
    """Raise RangeError unless value is an integer >= least; a bool is no
    integer. A count is at least 1, a seed (``channel.named_rng``) at least 0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise RangeError(f"{what} {value!r} is not an integer >= {least}")


def _require_real(value, what: str) -> None:
    """Raise RangeError unless value is a real number; a bool is no number.
    A numpy scalar or array is named by its ``tolist()`` value, not its repr."""
    # a float passes without the slower abstract-class check
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        if isinstance(value, (np.ndarray, np.generic)):
            value = value.tolist()
        raise RangeError(f"{what} {value!r} is not a real number")


def _require_unit(value, what: str) -> None:
    """Raise RangeError unless value is a real number with 0 <= value <= 1;
    NaN lies outside."""
    _require_real(value, what)
    if not 0.0 <= value <= 1.0:
        raise RangeError(f"{what} {value} outside [0, 1]")
