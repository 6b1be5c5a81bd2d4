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
its vectors are exactly four times smaller. Bloch components are read from
the closed-form branch entries (``teleport._bloch_components``).

The private functions are one array kernel that broadcasts over a point
mapping (theta, phi, c11, c22, c33, r, qr, ql); the public functions call
it at one point. The kernel trusts its callers: the public functions and
``SweepSpec`` check the named choices and the fd step with ``check_args``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import _abs2
from .channels import CorrelationDyadic
from .errors import ConsistencyError, DomainError, check_choice
from .teleport import InputState, _bloch_components, _branch_entries
from .unruh import R_MAX, UnruhParams

PARAM_NAMES = ("theta", "phi", "r")
VARIABLE_DOMAINS: dict[str, tuple[float, float]] = {
    "theta": (0.0, math.pi),
    "phi": (0.0, 2.0 * math.pi),
    "r": (0.0, R_MAX),
}
# Largest number of sweep points, or of verify draws, one run may ask for (1024 x 1024).
MAX_POINTS = 2**20
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


def check_args(
    param: str | None, mode: str, method: str = "analytic", fd_step: float = DEFAULT_FD_STEP
) -> None:
    """Raise DomainError unless the kernel's arguments are valid, in this order:
    estimand (unless None), normalization mode, derivative method, and the fd
    step, which must lie in (0, pi/12] when the method is ``fd``."""
    if param is not None:
        check_choice("estimand", param, PARAM_NAMES)
    check_choice("normalization mode", mode, NORM_NAMES)
    check_choice("derivative method", method, METHOD_NAMES)
    if method == "fd" and not (math.isfinite(fd_step) and 0.0 < fd_step <= MAX_FD_STEP):
        raise DomainError(f"fd_step must lie in (0, pi/12], got {fd_step}")


def _point(state: InputState, d: CorrelationDyadic, u: UnruhParams) -> dict:
    """The fields of the three value types are the kernel's arguments."""
    return {**vars(state), **vars(d), **vars(u)}


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the last axis, summed exactly as the 1-d ``a @ b``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _bloch(p: dict, mode: str) -> np.ndarray:
    """Bloch vectors (last axis) of the branch state at raw angles, without range checks.

    The closed-form branch matrix extends smoothly to any real theta, phi
    and r, which the finite-difference stencils rely on.
    """
    r00, r01, r10, r11 = _branch_entries(**p)
    s = _bloch_components(r00, r01, r10, r11)
    if mode == "normalized":
        return s / np.expand_dims(r00 + r11, -1)
    return s


def _partial_analytic(p: dict, param: str) -> np.ndarray:
    """Hand-derived partials of the branch Bloch components (branch-weighted scale).

    Derived by differentiating the trace expressions of the closed-form
    branch matrix; cross-validated against central differences before being
    trusted anywhere.
    """
    theta, phi, r, qr, ql = p["theta"], p["phi"], p["r"], p["qr"], p["ql"]
    c11, c22, c33 = p["c11"], p["c22"], p["c33"]
    cr, sr = np.cos(r), np.sin(r)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    uu = qr.conjugate() * cr + ql * sr
    vv = qr.conjugate() * cr - ql * sr
    if param == "theta":
        dsx = (ct / 4.0) * (c11 * cp * uu.real - c22 * sp * vv.imag)
        dsy = -(ct / 4.0) * (c11 * cp * uu.imag + c22 * sp * vv.real)
        dsz = (c33 * st / 8.0) * ((_abs2(ql) - _abs2(qr)) - np.cos(2.0 * r))
    elif param == "phi":
        dsx = (st / 4.0) * (-c11 * sp * uu.real - c22 * cp * vv.imag)
        dsy = -(st / 4.0) * (-c11 * sp * uu.imag + c22 * cp * vv.real)
        dsz = 0.0
    else:
        du = -qr.conjugate() * sr + ql * cr
        dv = -qr.conjugate() * sr - ql * cr
        dsx = (st / 4.0) * (c11 * cp * du.real - c22 * sp * dv.imag)
        dsy = -(st / 4.0) * (c11 * cp * du.imag + c22 * sp * dv.real)
        dsz = -(np.sin(2.0 * r) / 4.0) * (1.0 + c33 * ct)
    return np.stack(np.broadcast_arrays(dsx, dsy, dsz), -1)


def _partial(p: dict, param: str, mode: str, method: str, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Partial derivatives of the Bloch vectors; ``h`` is the fd step, in (0, pi/12]."""
    if method == "analytic":
        ds = _partial_analytic(p, param)
        # The normalized vector is s / tr, so its partial is ds / tr: the factor
        # 4.0 is 1/tr, exact because the branch trace is identically 1/4 at every
        # theta, phi and r. verify's "branch probability equals 1/4" check and its
        # section [4] (analytic against central differences) guard this.
        return 4.0 * ds if mode == "normalized" else ds

    def s_at(step: float) -> np.ndarray:
        return _bloch({**p, param: p[param] + step}, mode)

    plus, minus = s_at(h), s_at(-h)
    central = (plus - minus) / (2.0 * h)
    if param != "r":
        return central
    # Second-order one-sided stencils keep every evaluation inside [0, pi/4].
    s = _bloch(p, mode)
    low = (-3.0 * s + 4.0 * plus - s_at(2.0 * h)) / (2.0 * h)
    high = (3.0 * s - 4.0 * minus + s_at(-2.0 * h)) / (2.0 * h)
    r = np.expand_dims(p["r"], -1)
    return np.where(r - h < 0.0, low, np.where(r + h > R_MAX, high, central))


def _fisher_from_bloch(s: np.ndarray, ds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fisher values, pure-branch flags and clamp flags over the leading axes."""
    norm2 = _dot(s, s)
    if np.any(np.sqrt(norm2) > 1.0 + 1e-12):
        largest = float(np.sqrt(np.max(norm2)))
        raise DomainError(f"|s| = {largest} exceeds 1, not a physical Bloch vector")
    gap = 1.0 - norm2
    pure = gap <= PURE_BRANCH_EPS
    dd, sd = _dot(ds, ds), _dot(s, ds)
    # float_power squares as the scalar formula's ``** 2`` did (libm pow).
    value = np.where(pure, dd, dd + np.float_power(sd, 2.0) / np.where(pure, 1.0, gap))
    # NaN passes every comparison above; a non-finite value is a bug, not bad input.
    if not np.all(np.isfinite(value)):
        raise ConsistencyError(f"Fisher information {float(np.max(value))} is not finite")
    if np.any(value < -NEGATIVE_CLAMP):
        raise ConsistencyError(
            f"Fisher information {float(np.min(value))} is negative beyond rounding"
        )
    clamped = value < 0.0
    return np.where(clamped, 0.0, value), pure, clamped


def _fisher(
    p: dict, param: str, mode: str, method: str, fd_step: float = DEFAULT_FD_STEP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _fisher_from_bloch(_bloch(p, mode), _partial(p, param, mode, method, fd_step))


def bloch_teleported(
    state: InputState, d: CorrelationDyadic, u: UnruhParams, mode: str = "normalized"
) -> np.ndarray:
    """Bloch vector of the teleported branch state in the requested mode."""
    check_args(None, mode)
    return _bloch(_point(state, d, u), mode)


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
    check_args(param, mode, method, fd_step)
    return _partial(_point(state, d, u), param, mode, method, fd_step)


def fisher_from_bloch(s: np.ndarray, ds: np.ndarray) -> FisherValue:
    """Fisher information from a Bloch vector and its parameter derivative.

    Takes the pure-state branch when 1 - |s|^2 <= 1e-9, below which the
    mixed-state denominator only amplifies rounding noise. Tiny negative
    results (above -1e-9) clamp to zero with the clamp recorded; anything
    more negative indicates a bug and raises.
    """
    value, pure, clamped = _fisher_from_bloch(
        np.asarray(s, dtype=float), np.asarray(ds, dtype=float)
    )
    return FisherValue(value=float(value), pure_branch=bool(pure), clamped=bool(clamped))


def fisher(
    state: InputState,
    d: CorrelationDyadic,
    u: UnruhParams,
    param: str,
    *,
    mode: str = "normalized",
    method: str = "analytic",
    fd_step: float = DEFAULT_FD_STEP,
) -> FisherValue:
    """Fisher information of the teleported state for one estimand."""
    check_args(param, mode, method, fd_step)
    value, pure, clamped = _fisher(_point(state, d, u), param, mode, method, fd_step)
    return FisherValue(value=float(value), pure_branch=bool(pure), clamped=bool(clamped))
