"""Exception types shared across the package, and the checks of named choices and integers."""

from numbers import Integral


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


def check_integer(kind: str, value: object) -> None:
    """Raise DomainError unless ``value`` is an integer; ``bool`` is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{kind} must be an integer, got {value!r}")
