"""Exception types shared across the package, and the one check of each kind of input."""

import math
from numbers import Complex, Integral, Real


class DomainError(ValueError):
    """Input lies outside the validity range of a type or operation."""


class DegenerateBranchError(ArithmeticError):
    """The selected measurement branch has (numerically) zero probability."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed, indicating a bug rather than bad input."""


def check_choice(kind: str, value: object, choices: tuple[str, ...]) -> None:
    """Raise DomainError unless ``value`` is one of the named ``choices``."""
    if value not in choices:
        raise DomainError(f"unknown {kind} {value!r}, expected one of {choices}")


def check_integer(kind: str, value: object, lo: float = -math.inf, hi: float = math.inf) -> None:
    """Raise DomainError unless ``value`` is an integer in [lo, hi]; ``bool`` is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{kind} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise DomainError(f"{kind} must lie in [{lo}, {hi}], got {value}")


def check_real(kind: str, value: object, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``value`` as a float if it is a real number in [lo, hi], where NaN never lies; it
    refuses what ``check_complex`` refuses, and a complex number too."""
    z = check_complex(kind, value)
    if not (isinstance(value, Real) and lo <= z.real <= hi):
        raise DomainError(f"{kind} must be a real number in [{lo}, {hi}], got {value!r}")
    return z.real


def check_complex(kind: str, value: object) -> complex:
    """``value`` as a complex if it is a number, numpy's scalars included. A ``bool``, a
    string, ``None``, an array and an integer too large for a float are refused."""
    if isinstance(value, bool) or not isinstance(value, Complex):
        raise DomainError(f"{kind} must be a number, got {value!r} of type {type(value).__name__}")
    try:
        return complex(value)
    except OverflowError:
        raise DomainError(f"{kind} is an integer too large for a float") from None
