"""Uniform-acceleration channel acting on the receiver's qubit.

The receiver's qubit is re-expressed in the coordinates natural to a
uniformly accelerated observer. Its two logical states embed into a pair of
modes, one accessible and one causally disconnected:

    |0>  ->  cos(r) |0>|0>  +  sin(r) |1>|1>
    |1>  ->  qr |1>|0>  +  ql |0>|1>,        |qr|^2 + |ql|^2 = 1,

and tracing out the disconnected mode degrades the shared channel. The
acceleration parameter r lies in [0, pi/4]: r = 0 is the inertial limit and
r = pi/4 the infinite-acceleration limit, via tan(r) = exp(-pi*omega*c/a).

Two implementations are kept deliberately independent. ``accelerate``
produces the eight closed-form coefficients b1..b8 of the degraded state,
while ``bogoliubov_oracle`` builds the embedding isometry explicitly and
performs the partial trace; their agreement is part of the verification
suite.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace

import numpy as np
from numpy.typing import ArrayLike

from ._linalg import IDENTITY_2, _abs2, _kron, _matrices, partial_trace
from .channels import CorrelationDyadic, _dyadic_to_density
from .errors import DomainError, check_choice

R_MAX = math.pi / 4
WEIGHT_NORM_TOL = 1e-12
CHANNEL_TOL = 1e-12

# wsma: excitation purely in the right-moving mode (single-mode approximation).
# bsma: equal right/left mixing (beyond the single-mode approximation).
MODE_WEIGHTS: dict[str, tuple[complex, complex]] = {
    "wsma": (1.0 + 0.0j, 0.0j),
    "bsma": (complex(1.0 / math.sqrt(2.0)), complex(1.0 / math.sqrt(2.0))),
}
MODE_NAMES = tuple(MODE_WEIGHTS)


@dataclass(frozen=True)
class UnruhParams:
    """Acceleration parameter r plus the complex mode weights (qr, ql)."""

    r: float
    qr: complex = 1.0 + 0.0j
    ql: complex = 0.0j

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and 0.0 <= self.r <= R_MAX):
            raise DomainError(f"r must lie in [0, pi/4], got {self.r}")
        norm = abs(self.qr) ** 2 + abs(self.ql) ** 2
        if not abs(norm - 1.0) <= WEIGHT_NORM_TOL:  # also rejects NaN weights
            raise DomainError(
                f"|qr|^2 + |ql|^2 must equal 1 within {WEIGHT_NORM_TOL}, got {norm}"
            )


def mode_params(r: float, mode: str = "wsma") -> UnruhParams:
    """UnruhParams for one of the named mode presets."""
    check_choice("mode preset", mode, MODE_NAMES)
    qr, ql = MODE_WEIGHTS[mode]
    return UnruhParams(r, qr, ql)


def r_from_acceleration(omega: float, accel: float, c: float) -> float:
    """Acceleration parameter r = arctan(exp(-pi*omega*c/accel)).

    ``omega`` is the mode frequency (rad/s), ``accel`` the proper
    acceleration (m/s^2), ``c`` the speed of light (m/s). accel = 0 maps to
    the inertial value r = 0; accel -> infinity approaches r = pi/4.
    """
    if not omega > 0:
        raise DomainError(f"omega must be positive, got {omega}")
    if not c > 0:
        raise DomainError(f"c must be positive, got {c}")
    if accel < 0:
        raise DomainError(f"accel must be non-negative, got {accel}")
    if accel == 0:
        return 0.0
    return math.atan(math.exp(-math.pi * omega * c / accel))


@dataclass(frozen=True)
class AcceleratedChannel:
    """The eight coefficients of the degraded two-qubit state.

    Layout in the (sender, receiver) computational basis:
    b1 -> (00,00), b2 -> (00,11), b3 -> (11,00), b4 -> (01,01),
    b5 -> (10,10), b6 -> (10,01), b7 -> (01,10), b8 -> (11,11).
    """

    b1: complex
    b2: complex
    b3: complex
    b4: complex
    b5: complex
    b6: complex
    b7: complex
    b8: complex
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool) -> None:
        if not validate:
            return
        # Written as ``not ... <=`` so that a NaN coefficient fails every check.
        trace = self.b1 + self.b4 + self.b5 + self.b8
        if not abs(trace - 1.0) <= CHANNEL_TOL:
            raise DomainError(f"diagonal coefficients must sum to 1, got {trace}")
        if not abs(self.b3 - self.b2.conjugate()) <= CHANNEL_TOL:
            raise DomainError("b3 must equal conj(b2)")
        if not abs(self.b7 - self.b6.conjugate()) <= CHANNEL_TOL:
            raise DomainError("b7 must equal conj(b6)")
        for name in ("b1", "b4", "b5", "b8"):
            value = getattr(self, name)
            if not (abs(value.imag) <= CHANNEL_TOL and value.real >= -CHANNEL_TOL):
                raise DomainError(f"{name} must be real and non-negative, got {value}")

    def as_tuple(self) -> tuple[complex, ...]:
        return (self.b1, self.b2, self.b3, self.b4, self.b5, self.b6, self.b7, self.b8)


def _accelerate(
    c11: ArrayLike, c22: ArrayLike, c33: ArrayLike, r: ArrayLike, qr: ArrayLike, ql: ArrayLike
) -> tuple[np.ndarray, ...]:
    """Coefficients (b1, ..., b8) of :func:`accelerate`; broadcasts over every argument."""
    a1 = (1.0 + c33) / 4.0
    a2 = (1.0 - c33) / 4.0
    a3 = (c11 + c22) / 4.0
    a4 = (c11 - c22) / 4.0
    cr, sr = np.cos(r), np.sin(r)
    big_r, big_l = _abs2(qr), _abs2(ql)
    qrc, qlc = qr.conjugate(), ql.conjugate()
    return (
        a1 * cr * cr + a2 * big_l,
        a4 * qrc * cr + a3 * ql * sr,
        a3 * qlc * sr + a4 * qr * cr,
        a1 * sr * sr + a2 * big_r,
        a2 * cr * cr + a1 * big_l,
        a3 * qrc * cr + a4 * ql * sr,
        a3 * qr * cr + a4 * qlc * sr,
        a2 * sr * sr + a1 * big_r,
    )


def accelerate(d: CorrelationDyadic, u: UnruhParams) -> AcceleratedChannel:
    """Closed-form coefficients of the channel after accelerating Bob's qubit.

    The four auxiliary combinations are a1 = (1+c33)/4, a2 = (1-c33)/4,
    a3 = (c11+c22)/4 and a4 = (c11-c22)/4. Hermiticity requires
    b7 = conj(b6), which fixes the roles of a3 and a4 in b7; the broken
    alternative that swaps them is kept in :func:`accelerate_swapped_b7`
    purely so the verification report can show the size of the violation.
    """
    b = _accelerate(*d.as_tuple(), u.r, u.qr, u.ql)
    return AcceleratedChannel(*(np.asarray(x).item() for x in b))


def accelerate_swapped_b7(d: CorrelationDyadic, u: UnruhParams) -> AcceleratedChannel:
    """Variant with the (01,10) coefficient copied from the (11,00) one: b7 := b3.

    This plausible transcription slip breaks b7 = conj(b6) by
    |c22|/2 * |conj(ql) sin(r) - qr cos(r)|, which vanishes for c22 = 0 and
    at bsma with r = pi/4. It is never used by any computation path; the
    verification report and the mutation tests exercise it to demonstrate the
    cross-checks catch it.
    """
    good = accelerate(d, u)
    return replace(good, b7=good.b3, validate=False)


# (row, column) of b1..b8 in the dense matrix, per the AcceleratedChannel docstring.
_PLACES = ((0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (2, 1), (1, 2), (3, 3))


def _accelerated_density(*b: ArrayLike) -> np.ndarray:
    """Dense 4x4 matrices (last two axes) of the coefficients b1..b8; broadcasts."""
    return _matrices(4, 4, dict(zip(_PLACES, b)))


def accelerated_density(ch: AcceleratedChannel) -> np.ndarray:
    """Dense 4x4 matrix with b1..b8 placed per the class docstring."""
    return _accelerated_density(*ch.as_tuple())


def _bogoliubov_isometry(r: ArrayLike, qr: ArrayLike, ql: ArrayLike) -> np.ndarray:
    """4x2 isometries (last two axes) of :func:`bogoliubov_isometry`; broadcasts."""
    return _matrices(4, 2, {(0, 0): np.cos(r), (3, 0): np.sin(r), (2, 1): qr, (1, 1): ql})


def bogoliubov_isometry(u: UnruhParams) -> np.ndarray:
    """4x2 isometry embedding the receiver's qubit into the two-mode space.

    Columns are the images of |0> and |1>; rows are ordered |00>, |01>,
    |10>, |11> over (accessible mode, disconnected mode).
    """
    return _bogoliubov_isometry(u.r, u.qr, u.ql)


def _bogoliubov_oracle(
    c11: ArrayLike, c22: ArrayLike, c33: ArrayLike, r: ArrayLike, qr: ArrayLike, ql: ArrayLike
) -> np.ndarray:
    """Channel matrices (last two axes) of :func:`bogoliubov_oracle`; broadcasts."""
    rho = _dyadic_to_density(c11, c22, c33)
    embed = _kron(IDENTITY_2, _bogoliubov_isometry(r, qr, ql))
    big = embed @ rho @ np.swapaxes(embed, -1, -2).conj()
    return partial_trace(big, (2, 2, 2), keep=(0, 1))


def bogoliubov_oracle(d: CorrelationDyadic, u: UnruhParams) -> np.ndarray:
    """Accelerated channel computed by explicit embedding and partial trace.

    Independent of :func:`accelerate`: applies (I x V) rho (I x V)^dagger on
    the three-factor space (sender, accessible mode, disconnected mode) and
    traces out the last factor.
    """
    return _bogoliubov_oracle(*d.as_tuple(), u.r, u.qr, u.ql)
