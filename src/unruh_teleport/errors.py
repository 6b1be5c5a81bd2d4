"""Exception types shared across the package, and the one check of each kind of input: a
named choice, an integer, a number, a value type, a container and an array."""

import math
from numbers import Complex, Integral, Real

import numpy as np


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
        try:
            shown = str(value)
        except ValueError:  # past Python's int-to-str limit, 4,300 digits by default
            k = int(math.log10(abs(value))) - 9  # so that the quotient below has 9 to 11 digits
            shown = f"an integer of {k + len(str(abs(value) // 10**k))} digits"
        raise DomainError(f"{kind} must lie in [{lo}, {hi}], got {shown}")


def check_real(kind: str, value: object, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``value`` as a float if it is a real number in [lo, hi], where NaN never lies; it
    refuses what ``check_complex`` refuses, and a complex number too."""
    z = check_complex(kind, value)
    if not (isinstance(value, Real) and lo <= z.real <= hi):
        from .teleport import _RANGE_TEXTS  # at a refusal only: teleport imports this module
        shown = _RANGE_TEXTS.get((lo, hi), f"[{lo}, {hi}]")
        raise DomainError(f"{kind} must be a real number in {shown}, got {value!r}")
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


def check_fields(value_type: type, value: object) -> dict:
    """``vars(value)``, the private kernels' keyword arguments, if ``value`` is a ``value_type``."""
    if not isinstance(value, value_type):
        raise DomainError(f"expected {value_type.__name__}, got {type(value).__name__}")
    return vars(value)


def check_container(what: str, value: object, kind: type) -> tuple | dict:
    """``kind(value)``, a tuple or a dict, if ``value`` converts to it; a refusal names ``what``."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:  # not iterable, or not of (key, value) pairs
        raise DomainError(f"{what}: {exc}") from None


def check_array(what: str, value: object, shape: tuple, numbers: str = "real") -> np.ndarray:
    """``value`` as an array if it nests "real" (bools included) or "complex" ``numbers`` in
    ``shape``, where None is any length. A refusal names ``what`` and the numbers."""
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nesting has no array shape
        raise DomainError(f"{what} of {numbers} numbers, not ragged") from None
    fits = len(a.shape) == len(shape) and all(n in (None, m) for n, m in zip(shape, a.shape))
    if not fits or a.dtype.kind not in ("biuf" if numbers == "real" else "biufc"):
        raise DomainError(f"{what} of {numbers} numbers, not {a.dtype} of shape {a.shape}")
    return a
