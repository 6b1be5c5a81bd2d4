"""Fisher information of the teleported state in the Bloch representation.

For a single qubit with Bloch vector s(kappa),

    F = |ds/dkappa|^2 + (s . ds/dkappa)^2 / (1 - |s|^2)

for mixed states, reducing to |ds/dkappa|^2 on the pure shell |s| = 1.
The estimated parameter is the weight angle theta, the phase angle phi, or
the acceleration parameter r.

Two normalization modes are supported. ``normalized`` uses the Bloch vector
of the trace-1 conditional state (the physically standard choice and the
default); ``as-published`` keeps the 00-branch weight (trace 1/4) folded
into the Bloch vector, a convention found in parts of the literature, so
its vectors are exactly four times smaller. Bloch components are always
obtained as traces of the branch matrix, never from separately tabulated
component formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import CorrelationDyadic
from .errors import ConsistencyError, DomainError, check_choice
from .teleport import InputState, _branch_rho, bloch_of
from .unruh import R_MAX, UnruhParams

PARAM_NAMES = ("theta", "phi", "r")
NORM_NAMES = ("normalized", "as-published")
METHOD_NAMES = ("analytic", "fd")

PURE_BRANCH_EPS = 1e-9
DEFAULT_FD_STEP = 1e-5
# Largest step whose one-sided r stencils (r + 2h, r - 2h) stay inside [0, pi/4].
MAX_FD_STEP = R_MAX / 3.0
NEGATIVE_CLAMP = 1e-9


@dataclass(frozen=True)
class FisherValue:
    value: float
    pure_branch: bool
    clamped: bool


@dataclass(frozen=True)
class FisherResult:
    """Fisher information with full provenance of how it was computed."""

    value: float
    param: str
    mode: str
    method: str
    fd_step: float | None
    pure_branch: bool
    clamped: bool


def _bloch_raw(
    theta: float, phi: float, d: CorrelationDyadic, u: UnruhParams, mode: str
) -> np.ndarray:
    """Bloch vector of the branch state at raw angles, without range checks.

    The closed-form branch matrix extends smoothly to any real theta and
    phi, which the finite-difference stencils rely on.
    """
    rho = _branch_rho(theta, phi, d.c11, d.c22, d.c33, u.r, u.qr, u.ql)
    s = bloch_of(rho)
    if mode == "normalized":
        return s / float(rho[0, 0].real + rho[1, 1].real)
    return s


def bloch_teleported(
    state: InputState, d: CorrelationDyadic, u: UnruhParams, mode: str = "normalized"
) -> np.ndarray:
    """Bloch vector of the teleported branch state in the requested mode."""
    check_choice("normalization mode", mode, NORM_NAMES)
    return _bloch_raw(state.theta, state.phi, d, u, mode)


def _bloch_partial_analytic(
    theta: float, phi: float, d: CorrelationDyadic, u: UnruhParams, param: str
) -> np.ndarray:
    """Hand-derived partials of the branch Bloch components (branch-weighted scale).

    Derived by differentiating the trace expressions of the closed-form
    branch matrix; cross-validated against central differences before being
    trusted anywhere.
    """
    cr, sr = math.cos(u.r), math.sin(u.r)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    big_r, big_l = abs(u.qr) ** 2, abs(u.ql) ** 2
    uu = u.qr.conjugate() * cr + u.ql * sr
    vv = u.qr.conjugate() * cr - u.ql * sr
    if param == "theta":
        dsx = (ct / 4.0) * (d.c11 * cp * uu.real - d.c22 * sp * vv.imag)
        dsy = -(ct / 4.0) * (d.c11 * cp * uu.imag + d.c22 * sp * vv.real)
        dsz = (d.c33 * st / 8.0) * ((big_l - big_r) - math.cos(2.0 * u.r))
    elif param == "phi":
        dsx = (st / 4.0) * (-d.c11 * sp * uu.real - d.c22 * cp * vv.imag)
        dsy = -(st / 4.0) * (-d.c11 * sp * uu.imag + d.c22 * cp * vv.real)
        dsz = 0.0
    else:
        du = -u.qr.conjugate() * sr + u.ql * cr
        dv = -u.qr.conjugate() * sr - u.ql * cr
        dsx = (st / 4.0) * (d.c11 * cp * du.real - d.c22 * sp * dv.imag)
        dsy = -(st / 4.0) * (d.c11 * cp * du.imag + d.c22 * sp * dv.real)
        dsz = -(math.sin(2.0 * u.r) / 4.0) * (1.0 + d.c33 * ct)
    return np.array([dsx, dsy, dsz])


def _bloch_partial_fd(
    theta: float,
    phi: float,
    d: CorrelationDyadic,
    u: UnruhParams,
    param: str,
    mode: str,
    h: float,
) -> np.ndarray:
    def s_at(t: float, p: float, rr: float) -> np.ndarray:
        return _bloch_raw(t, p, d, replace(u, r=rr), mode)

    if param == "theta":
        return (s_at(theta + h, phi, u.r) - s_at(theta - h, phi, u.r)) / (2.0 * h)
    if param == "phi":
        return (s_at(theta, phi + h, u.r) - s_at(theta, phi - h, u.r)) / (2.0 * h)
    r = u.r
    if r - h >= 0.0 and r + h <= R_MAX:
        return (s_at(theta, phi, r + h) - s_at(theta, phi, r - h)) / (2.0 * h)
    # Second-order one-sided stencils keep every evaluation inside [0, pi/4].
    if r - h < 0.0:
        return (
            -3.0 * s_at(theta, phi, r)
            + 4.0 * s_at(theta, phi, r + h)
            - s_at(theta, phi, r + 2.0 * h)
        ) / (2.0 * h)
    return (
        3.0 * s_at(theta, phi, r)
        - 4.0 * s_at(theta, phi, r - h)
        + s_at(theta, phi, r - 2.0 * h)
    ) / (2.0 * h)


def bloch_partial(
    state: InputState,
    d: CorrelationDyadic,
    u: UnruhParams,
    param: str,
    mode: str = "normalized",
    method: str = "analytic",
    fd_step: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Partial derivative of the Bloch vector with respect to one estimand.

    ``fd_step`` is used by ``method="fd"`` only and must lie in (0, pi/12].
    """
    check_choice("estimand", param, PARAM_NAMES)
    check_choice("normalization mode", mode, NORM_NAMES)
    check_choice("derivative method", method, METHOD_NAMES)
    if method == "analytic":
        ds = _bloch_partial_analytic(state.theta, state.phi, d, u, param)
        return 4.0 * ds if mode == "normalized" else ds
    if not (math.isfinite(fd_step) and 0.0 < fd_step <= MAX_FD_STEP):
        raise DomainError(f"fd_step must lie in (0, pi/12], got {fd_step}")
    return _bloch_partial_fd(state.theta, state.phi, d, u, param, mode, fd_step)


def fisher_from_bloch(s: np.ndarray, ds: np.ndarray) -> FisherValue:
    """Fisher information from a Bloch vector and its parameter derivative.

    Takes the pure-state branch when 1 - |s|^2 <= 1e-9, below which the
    mixed-state denominator only amplifies rounding noise. Tiny negative
    results (above -1e-9) clamp to zero with the clamp recorded; anything
    more negative indicates a bug and raises.
    """
    s = np.asarray(s, dtype=float)
    ds = np.asarray(ds, dtype=float)
    norm2 = float(s @ s)
    if math.sqrt(norm2) > 1.0 + 1e-12:
        raise DomainError(f"|s| = {math.sqrt(norm2)} exceeds 1, not a physical Bloch vector")
    gap = 1.0 - norm2
    if gap > PURE_BRANCH_EPS:
        value = float(ds @ ds) + float(s @ ds) ** 2 / gap
        pure = False
    else:
        value = float(ds @ ds)
        pure = True
    clamped = False
    if value < 0.0:
        if value < -NEGATIVE_CLAMP:
            raise ConsistencyError(f"Fisher information {value} is negative beyond rounding")
        value, clamped = 0.0, True
    return FisherValue(value=value, pure_branch=pure, clamped=clamped)


def fisher(
    state: InputState,
    d: CorrelationDyadic,
    u: UnruhParams,
    param: str,
    *,
    mode: str = "normalized",
    method: str = "analytic",
    fd_step: float = DEFAULT_FD_STEP,
) -> FisherResult:
    """Fisher information of the teleported state for one estimand."""
    s = bloch_teleported(state, d, u, mode)
    ds = bloch_partial(state, d, u, param, mode, method, fd_step)
    fv = fisher_from_bloch(s, ds)
    return FisherResult(
        value=fv.value,
        param=param,
        mode=mode,
        method=method,
        fd_step=fd_step if method == "fd" else None,
        pure_branch=fv.pure_branch,
        clamped=fv.clamped,
    )
