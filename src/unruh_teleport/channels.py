"""Initial two-qubit communication channels.

Every channel handled here is diagonal in the Pauli correlation sense,

    rho = (I + c11 sx.sx + c22 sy.sy + c33 sz.sz) / 4,

written in the computational basis |00>, |01>, |10>, |11> with the first
qubit held by the sender (Alice) and the second by the receiver (Bob).
The Bell states, Werner states and diagonal X-states are all of this form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

from ._linalg import PAULIS
from .errors import DomainError, check_choice

# Each channel preset and the parameters it reads.
PRESET_PARAMS = {"bell-phi-plus": (), "bell-psi-minus": (), "werner": ("fidelity",),
                 "x-state": ("c11", "c22", "c33")}
PRESET_NAMES = tuple(PRESET_PARAMS)
# The x-state used by the figure presets and the verification suite.
X_STATE_EXAMPLE = {"c11": -0.9, "c22": -0.8, "c33": -0.7}

EIGENVALUE_TOL = 1e-12
# sigma (x) sigma for sx, sy, sz: the terms the correlation triple weighs.
_PAULI_PAIRS = tuple(np.kron(sigma, sigma) for sigma in PAULIS)
_IDENTITY_4 = np.eye(4, dtype=complex)
# Signs of (c11, c22, c33) in the eigenvalues of the correlation-diagonal states.
_BELL_SIGNS = ((-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))


@dataclass(frozen=True)
class CorrelationDyadic:
    """Diagonal correlation coefficients (c11, c22, c33) of a two-qubit state."""

    c11: float
    c22: float
    c33: float

    def __post_init__(self) -> None:
        for name in ("c11", "c22", "c33"):
            value = getattr(self, name)
            if not (math.isfinite(value) and -1.0 <= value <= 1.0):
                raise DomainError(f"{name} must lie in [-1, 1], got {value}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c11, self.c22, self.c33)


class PhysicalityCheck(NamedTuple):
    physical: bool
    min_eigenvalue: float


def preset_dyadic(
    preset: str,
    *,
    fidelity: float | None = None,
    c11: float | None = None,
    c22: float | None = None,
    c33: float | None = None,
) -> CorrelationDyadic:
    """Expand a named channel preset to its correlation triple.

    ``werner`` requires ``fidelity`` in [0, 1] and maps to (-F, -F, -F);
    ``x-state`` requires all three coefficients explicitly; the other
    presets ignore them.
    """
    check_choice("channel preset", preset, PRESET_NAMES)
    if preset == "bell-phi-plus":
        return CorrelationDyadic(1.0, -1.0, 1.0)
    if preset == "bell-psi-minus":
        return CorrelationDyadic(-1.0, -1.0, -1.0)
    if preset == "werner":
        if fidelity is None:
            raise DomainError("werner preset requires the fidelity parameter")
        if not (math.isfinite(fidelity) and 0.0 <= fidelity <= 1.0):
            raise DomainError(f"fidelity must lie in [0, 1], got {fidelity}")
        return CorrelationDyadic(-fidelity, -fidelity, -fidelity)
    if c11 is None or c22 is None or c33 is None:
        raise DomainError("x-state preset requires c11, c22 and c33")
    return CorrelationDyadic(c11, c22, c33)


def _dyadic_to_density(c11: ArrayLike, c22: ArrayLike, c33: ArrayLike) -> np.ndarray:
    """Density matrices (last two axes) of correlation triples; broadcasts."""
    m = _IDENTITY_4
    for c, pair in zip((c11, c22, c33), _PAULI_PAIRS):
        m = m + np.asarray(c)[..., None, None] * pair
    return m / 4.0


def _bell_eigenvalues(c11: ArrayLike, c22: ArrayLike, c33: ArrayLike) -> np.ndarray:
    """Eigenvalues (last axis, unsorted) of the density matrices of correlation
    triples; broadcasts. The states are Bell-diagonal, so each eigenvalue is
    (1 +- c11 +- c22 +- c33)/4 (R. & M. Horodecki, PRA 54, 1838 (1996))."""
    eigenvalues = np.stack([1.0 + a * c11 + b * c22 + c * c33 for a, b, c in _BELL_SIGNS], -1)
    eigenvalues /= 4.0
    return eigenvalues


def dyadic_to_density(d: CorrelationDyadic) -> np.ndarray:
    """Dense 4x4 density matrix of the correlation triple.

    Hermitian with unit trace by construction; positivity depends on the
    coefficients and is checked by :func:`validate_physical`.
    """
    return _dyadic_to_density(*d.as_tuple())


def validate_physical(d: CorrelationDyadic) -> PhysicalityCheck:
    """Report whether the induced density matrix is positive semidefinite.

    Returns a verdict plus the minimum eigenvalue; never raises. The
    ``EIGENVALUE_TOL`` slack absorbs eigensolver noise on rank-deficient states.
    """
    eigenvalues = np.linalg.eigvalsh(dyadic_to_density(d))
    smallest = float(eigenvalues[0])
    return PhysicalityCheck(smallest >= -EIGENVALUE_TOL, smallest)


def require_physical(d: CorrelationDyadic) -> None:
    """Raise DomainError unless the induced density matrix is positive semidefinite."""
    check = validate_physical(d)
    if not check.physical:
        raise DomainError(
            f"channel dyadic {d.as_tuple()} is unphysical "
            f"(min eigenvalue {check.min_eigenvalue:.3e})"
        )
