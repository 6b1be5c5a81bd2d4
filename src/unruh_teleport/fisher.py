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
its vectors and their partials are exactly a quarter of the normalized ones.
This module alone applies that quarter, exactly (a power of two), once (``_scaled``), to the
normalized s, analytic partials or central differences of ``_vectors``, which knows no norm.

The private functions are one array kernel on (x, y, z) components that broadcasts over
a point mapping (theta, phi, c11, c22, c33, r, qr, ql), with s and its analytic partials
from one pass; the public functions call it at one point and take or give 3-vectors. The
kernel trusts its callers and raises nothing; it gives NaN for a vector past the unit
ball. The public functions and ``SweepSpec`` check the named choices and the fd step
first (``check_args``), ``fisher_from_bloch`` refuses a non-finite entry or a vector
past the ball, and ``fisher``, ``fisher_from_bloch`` and ``sweep.run_sweep`` raise on a
value that is not finite (``_finite``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import CorrelationDyadic, require_physical
from .errors import (
    ConsistencyError, DomainError, check_array, check_choice, check_fields, check_real
)
from .teleport import MAX_FD_STEP, VARIABLE_DOMAINS, InputState, _branch_bloch
from .unruh import UnruhParams

PARAM_NAMES = tuple(VARIABLE_DOMAINS)
# Largest number of sweep points, or of verify draws, one run may ask for (1024 x 1024).
MAX_POINTS = 2**20
NORM_NAMES = ("normalized", "as-published")
# As-published Bloch vectors keep the branch weight 1/4, a power of two, so it scales exactly.
_MODE_SCALE = dict(zip(NORM_NAMES, (1.0, 0.25)))
METHOD_NAMES = ("analytic", "fd")

PURE_BRANCH_EPS = 1e-9
BALL_SLACK = 1e-12
DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True)
class FisherValue:
    """One Fisher value and whether it took the pure branch."""

    value: float
    pure_branch: bool


def check_args(
    param: str, mode: str, method: str = "analytic", fd_step: float = DEFAULT_FD_STEP
) -> None:
    """Raise DomainError unless the kernel's arguments are valid, in this order:
    estimand, normalization mode, derivative method, and the fd step, which
    must lie in (0, pi/12], from ``math.ulp(0.0)`` up, when the method is ``fd``."""
    check_choice("estimand", param, PARAM_NAMES)
    check_choice("normalization mode", mode, NORM_NAMES)
    check_choice("derivative method", method, METHOD_NAMES)
    if method == "fd":
        check_real("fd_step", fd_step, math.ulp(0.0), MAX_FD_STEP)


def _point(state: InputState, d: CorrelationDyadic, u: UnruhParams) -> dict:
    """The fields of the three value types are the kernel's arguments; the channel must be physical."""
    p = {**check_fields(InputState, state), **check_fields(CorrelationDyadic, d),
         **check_fields(UnruhParams, u)}
    require_physical(d)
    return p


def _dot(a: tuple, b: tuple) -> np.ndarray:
    """Dot products of (x, y, z) components or 3-vectors, summed in a fixed order; broadcasts."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def _norm(v: tuple) -> np.ndarray:
    """Euclidean norms of vectors given as components."""
    return np.sqrt(_dot(v, v))


def _scaled(vectors: list[tuple], mode: str) -> list[tuple]:
    """The components of normalized vectors in ``mode``: as-published ones are a quarter.
    A scale of 1 leaves them as they are, the bits that multiplying by 1.0 gives."""
    scale = _MODE_SCALE[mode]
    return vectors if scale == 1.0 else [tuple(scale * c for c in v) for v in vectors]


def _vectors(p: dict, wrt: tuple = (), stepped: tuple = (), h: float = DEFAULT_FD_STEP) -> list:
    """Components of the normalized Bloch vectors at raw angles and of their partials in
    ``wrt``, from one pass of the closed form; then of the central difference in each name of
    ``stepped``, from s-only passes at p + h and p - h that may step past a domain edge."""
    vectors = _branch_bloch(**p, wrt=wrt)
    for name in stepped:
        plus, minus = (_branch_bloch(**{**p, name: p[name] + step})[0] for step in (h, -h))
        vectors.append(tuple((a - b) / (2.0 * h) for a, b in zip(plus, minus)))
    return vectors


def _pair(p: dict, param: str, mode: str, method: str, h: float = DEFAULT_FD_STEP) -> list[tuple]:
    """Components of the Bloch vectors and of their partials in ``param``, in ``mode``."""
    wrt, stepped = ((param,), ()) if method == "analytic" else ((), (param,))
    return _scaled(_vectors(p, wrt, stepped, h), mode)


def _fisher_from_bloch(s: tuple, ds: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Fisher values and pure-branch flags from vector components, NaN past the unit ball.
    Both terms of a value are >= 0: a sum of squares, and a square over a gap above 1e-9."""
    norm2 = _dot(s, s)
    gap = 1.0 - norm2
    pure = gap <= PURE_BRANCH_EPS
    dd, sd = _dot(ds, ds), _dot(s, ds)
    value = np.where(pure, dd, dd + sd * sd / np.where(pure, 1.0, gap))
    return np.where(np.sqrt(norm2) > 1.0 + BALL_SLACK, np.nan, value), pure


def _finite(value: np.ndarray) -> np.ndarray:
    """``value`` if every entry is finite; a non-finite Fisher value is a bug, not bad input."""
    if not np.all(np.isfinite(value)):
        raise ConsistencyError(f"Fisher information {float(np.max(value))} is not finite")
    return value


def _fisher(
    p: dict, param: str, mode: str, method: str, fd_step: float = DEFAULT_FD_STEP
) -> tuple[np.ndarray, np.ndarray]:
    return _fisher_from_bloch(*_pair(p, param, mode, method, fd_step))


def bloch_teleported(
    state: InputState, d: CorrelationDyadic, u: UnruhParams, mode: str = "normalized"
) -> np.ndarray:
    """Bloch vector of the teleported branch state in the requested mode."""
    check_choice("normalization mode", mode, NORM_NAMES)
    return np.array(_scaled(_vectors(_point(state, d, u)), mode)[0])


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
    return np.array(_pair(_point(state, d, u), param, mode, method, fd_step)[1])


def fisher_from_bloch(s: np.ndarray, ds: np.ndarray) -> FisherValue:
    """Fisher information from a Bloch vector and its parameter derivative.

    Takes the pure-state branch when 1 - |s|^2 <= 1e-9, below which the
    mixed-state denominator only amplifies rounding noise. A non-finite entry and
    |s| > 1 + 1e-12 are refused, and so is a ds whose value overflows. The value is never
    negative; a NaN is a bug.
    """
    s, ds = (check_array("s and ds must be 3-vectors", v, (3,)).astype(float) for v in (s, ds))
    if not np.isfinite([s, ds]).all():
        raise DomainError(f"s = {s.tolist()} or ds = {ds.tolist()} is not finite")
    norm = float(_norm(s))
    if norm > 1.0 + BALL_SLACK:
        raise DomainError(f"|s| = {norm} exceeds 1, not a physical Bloch vector")
    with np.errstate(over="ignore"):
        value, pure = _fisher_from_bloch(s, ds)
    if np.isinf(value):
        raise DomainError(f"ds = {ds.tolist()} is too large: its Fisher information overflows")
    return FisherValue(value=float(_finite(value)), pure_branch=bool(pure))


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
    value, pure = _fisher(_point(state, d, u), param, mode, method, fd_step)
    return FisherValue(value=float(_finite(value)), pure_branch=bool(pure))
