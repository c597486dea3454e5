"""Error taxonomy shared across modules, and the input validators.

Two families matter to callers (and to the CLI exit-code policy):
InputError for rejected input, ResourceLimitExceeded for aborted work.
Everything else is a plain bug and should surface as-is.

Each kind of input has one validator, called by every public entry point:
`check_int` for an integer in a range, `check_rational` for an exact
rational, and `orbifold.check_orders` for a sequence of ramification
orders.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Integral, Rational


class OrbkeError(Exception):
    """Base class for all package errors."""


class InputError(OrbkeError, ValueError):
    """Input violates a documented precondition.  CLI exit code 1."""


class WrongLength(InputError):
    """Ramification tuple does not have n+2 entries."""


class OrderBelowMinimum(InputError):
    """A ramification index is below the configured minimum order."""


class PairwiseCoprimeViolation(InputError):
    """Two ramification indices share a prime factor."""


class NotFanoOrbifold(InputError):
    """delta outside (0,1): K_X + Delta is not negative (or Delta empty)."""


class InvalidQuadricPencil(InputError):
    """A quadric-pencil eigenvalue is zero; the pencil is degenerate."""


class ThresholdOutsideGrid(OrbkeError):
    """Every probed lambda sits on one side of the integrability threshold.

    `direction` is "above" when the threshold lies above the grid (all
    slopes flat) and "below" when it lies below (all slopes supercritical).
    """

    def __init__(self, direction: str, message: str):
        super().__init__(message)
        self.direction = direction


class ResourceLimitExceeded(OrbkeError, RuntimeError):
    """Work aborted by a configured cap.  CLI exit code 2."""


class NodeBudgetExceeded(ResourceLimitExceeded):
    """Enumeration hit the node cap; carries the partial result."""

    def __init__(self, message: str, partial):
        super().__init__(message)
        self.partial = partial


class SearchSpaceTooLarge(ResourceLimitExceeded):
    """Brute-force scan would exceed the raw-candidate guard."""


def check_int(value, what: str, lo=None, hi=None, error=InputError) -> int:
    """Plain int of an Integral but bool (else InputError) in [lo, hi] (else `error`)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InputError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if lo is not None and value < lo or hi is not None and value > hi:
        bounds = f">= {lo}" if hi is None else f"<= {hi}" if lo is None else f"in {lo}..{hi}"
        raise error(f"{what} must be {bounds}, got {value}")
    return value


def check_rational(value, what: str) -> Fraction:
    """value as a Fraction: any Rational but bool, else InputError."""
    if isinstance(value, bool) or not isinstance(value, Rational):
        raise InputError(f"{what} must be rational, got {value!r}")
    return Fraction(value)
