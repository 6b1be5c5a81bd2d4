"""Self-verification: every closed form checked against its independent oracle.

The report is plain text, deterministic for a given (trials, seed) pair, and
contains six sections: channel oracle equivalence, teleportation oracle
equivalence, agreement of the two branch-state forms, derivative
cross-validation, the module invariant suite, and an informational
measurement of how badly the swapped-b7 variant violates Hermiticity.

``verify`` builds one array per kernel argument from its seeded draws. Over
blocks of ``BLOCK`` draws it runs each broadcasting form once over the stacked
draws: the accelerated channel together with its inertial counterpart, both
oracles, the two branch-state forms, the isometry and the swapped-b7 variant.
Each check folds the block's per-draw errors into a running maximum and keeps
the draw behind it, which a failed check names. The oracles stay independent:
they share no code with the coefficient form, the angle closed form or the
Fisher kernel. The Fisher-kernel checks then run once over the whole arrays.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._linalg import IDENTITY_2, _hermiticity_gaps, _min_eigenvalues
from .channels import X_STATE_EXAMPLE, _dyadic_to_density, preset_dyadic
from .errors import ConsistencyError, DomainError
from .fisher import (
    NORM_NAMES, PARAM_NAMES, _bloch, _dot, _fisher, _fisher_from_bloch, _partial, _point, fisher
)
from .sampling import sample_dyadic, sample_input, sample_unruh
from .sweep import MAX_POINTS
from .teleport import (
    InputState,
    _branch_entries,
    _branch_matrix,
    _teleport_analytic,
    _teleport_circuit_oracle,
)
from .unruh import (
    R_MAX,
    UnruhParams,
    _accelerate,
    _accelerated_density,
    _bogoliubov_isometry,
    _bogoliubov_oracle,
    _swapped_b7,
    mode_params,
)

EQUIV_TOL = 1e-12
DERIV_TOL = 1e-6
DERIV_FLOOR = 1e-3
FISHER_TOL = 1e-9
# Draws per pass of the broadcasting forms. It bounds the stacked (draws, 8, 8)
# arrays: at 64 each stays under 128 KiB. Blocks of 256 ran at most a few
# percent faster and kept about 0.6 MB more memory resident over repeated runs.
BLOCK = 64

# A draw's index and its (name, value) pairs of the kernel arguments.
Draw = tuple[int, tuple[tuple[str, float | complex], ...]]


@dataclass(frozen=True)
class Check:
    section: int
    name: str
    max_error: float
    tolerance: float | None  # None marks an informational entry
    passed: bool
    draw: Draw | None = None  # the draw with the largest error, for per-draw checks


@dataclass(frozen=True)
class VerifyReport:
    trials: int
    seed: int
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"verification report: trials={self.trials} seed={self.seed}"]
        section_titles = {
            1: "[1] accelerated channel: closed form vs isometry oracle",
            2: "[2] teleported branch: coefficient form vs circuit oracle",
            3: "[3] teleported branch: coefficient form vs angle closed form",
            4: "[4] bloch partials: analytic vs central difference",
            5: "[5] invariant suite",
            6: "[6] swapped-b7 variant (informational)",
        }
        current = 0
        for check in self.checks:
            if check.section != current:
                current = check.section
                lines.append(section_titles[current])
            if check.tolerance is None:
                lines.append(f"    {check.name:<52} max {check.max_error:.3e}")
            else:
                status = "PASS" if check.passed else "FAIL"
                lines.append(
                    f"    {check.name:<52} max err {check.max_error:.3e}"
                    f"  tol {check.tolerance:.0e}  {status}"
                )
                if not check.passed and check.draw is not None:
                    index, point = check.draw
                    values = " ".join(f"{key}={value!r}" for key, value in point)
                    lines.append(f"      worst draw: {index} {values}")
        gated = [c for c in self.checks if c.tolerance is not None]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({len(gated)} gated checks)")
        return "\n".join(lines) + "\n"


def _worse(a: float, b: float) -> bool:
    """Whether error ``b`` is worse than ``a``: larger, or the first NaN
    (``max(a, nan)`` returns ``a`` and would drop it)."""
    return b > a or (b != b and a == a)


def _worst(a: float, b: float) -> float:
    """The worse of two errors; NaN once either is NaN."""
    return b if _worse(a, b) else a


def _check(
    section: int,
    name: str,
    max_error: float,
    tolerance: float | None,
    draw: Draw | None = None,
) -> Check:
    passed = True if tolerance is None else max_error <= tolerance
    return Check(section, name, float(max_error), tolerance, passed, draw)


def _draws(trials: int, seed: int) -> dict[str, np.ndarray]:
    """The shared seeded draws (input state, physical dyadic, acceleration
    params) as one array per kernel argument."""
    rng = np.random.default_rng(seed)
    points = [
        _point(sample_input(rng), sample_dyadic(rng), sample_unruh(rng)) for _ in range(trials)
    ]
    return {key: np.array([p[key] for p in points]) for key in points[0]}


def _largest(m: np.ndarray) -> np.ndarray:
    """Largest elementwise magnitude of each matrix (last two axes)."""
    return np.max(np.abs(m), axis=(-2, -1))


def _draw_errors(p: dict, inertial: UnruhParams) -> dict[tuple[int, str], np.ndarray]:
    """Per-draw errors of the oracle checks and the per-draw invariants over one
    block of draws, under their (section, report name)."""
    theta, phi, r, qr, ql = p["theta"], p["phi"], p["r"], p["qr"], p["ql"]
    c11, c22, c33 = p["c11"], p["c22"], p["c33"]
    # The channel and its inertial counterpart (r = 0, wsma) as one stack of two.
    pair = {
        key: np.stack(np.broadcast_arrays(p[key], getattr(inertial, key)))
        for key in ("r", "qr", "ql")
    }
    both = _accelerate(c11, c22, c33, **pair)
    m, m_inertial = _accelerated_density(*both)
    b = [x[0] for x in both]
    oracle = _bogoliubov_oracle(c11, c22, c33, r, qr, ql)
    rho = _teleport_analytic(theta, phi, *b)
    circuit = _teleport_circuit_oracle(theta, phi, oracle)
    closed = _branch_matrix(*_branch_entries(**p))
    swapped_b7 = _swapped_b7(c11, c22, r, qr, ql)
    identity = m_inertial - _dyadic_to_density(c11, c22, c33)
    v = _bogoliubov_isometry(r, qr, ql)
    gram = np.swapaxes(v, -1, -2).conj() @ v
    prob = rho[..., 0, 0].real + rho[..., 1, 1].real
    return {
        # [1] closed-form coefficients against the embedding-isometry oracle,
        # [2] the coefficient-form branch state against the three-qubit
        # circuit, [3] the coefficient form against the explicit angle form.
        (1, "max elementwise difference"): _largest(m - oracle),
        (2, "max elementwise difference"): _largest(rho - circuit),
        (3, "max elementwise difference"): _largest(rho - closed),
        # [6] size of the Hermiticity violation if b7 were assembled with
        # the correlation combinations swapped. Informational only.
        (6, "hermiticity gap |b7 - conj(b6)|"): np.abs(swapped_b7 - b[5].conjugate()),
        # Accelerated channels: trace, hermiticity, positivity, inertial identity.
        (5, "accelerated channel unit trace"): np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0),
        (5, "accelerated channel hermitian"): _hermiticity_gaps(m),
        (5, "accelerated channel positive"): -_min_eigenvalues(m),
        (5, "identity channel at r=0 wsma"): _largest(identity),
        (5, "isometry columns orthonormal"): _largest(gram - IDENTITY_2),
        # Branch states: probability exactly 1/4, Hermitian, positive.
        (5, "branch probability equals 1/4"): np.abs(prob - 0.25),
        (5, "branch state hermitian"): _hermiticity_gaps(rho),
        (5, "branch state positive"): -_min_eigenvalues(rho / prob[..., None, None]),
    }


def verify(trials: int = 1000, seed: int = 42) -> VerifyReport:
    """Run every oracle cross-check and invariant check with seeded draws."""
    # The batched Fisher checks hold arrays sized by the trials.
    if not 1 <= trials <= MAX_POINTS:
        raise DomainError(f"trials must lie in [1, {MAX_POINTS}], got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    batch = _draws(trials, seed)

    # Each block of draws runs every broadcasting form once. Each check keeps
    # its largest error and that draw's index under its (section, name).
    inertial = mode_params(0.0, "wsma")
    worst: dict[tuple[int, str], tuple[float, int | None]] = {}
    for start in range(0, trials, BLOCK):
        block = {key: column[start:start + BLOCK] for key, column in batch.items()}
        for key, errors in _draw_errors(block, inertial).items():
            i = int(np.argmax(errors))  # the first NaN, else the first largest error
            error, index = worst.get(key, (0.0, None))
            if _worse(error, float(errors[i])):
                error, index = float(errors[i]), start + i
            worst[key] = (error, index)
    per_draw = []
    for (section, name), (error, index) in worst.items():
        draw = None
        if index is not None:
            draw = (index, tuple((key, column[index].item()) for key, column in batch.items()))
        per_draw.append(_check(section, name, error, None if section == 6 else EQUIV_TOL, draw))
    checks = [c for c in per_draw if c.section <= 3]

    # [4] analytic partials against central differences (relative error,
    # counted unless the derivative is degenerate, so a NaN one counts).
    err = 0.0
    for mode in NORM_NAMES:
        for param in PARAM_NAMES:
            analytic = _partial(batch, param, mode, "analytic")
            numeric = _partial(batch, param, mode, "fd")
            scale = _norm(analytic)
            kept = ~(scale <= DERIV_FLOOR)
            if kept.any():
                err = _worst(err, float(np.max(_norm(analytic - numeric)[kept] / scale[kept])))
    checks.append(_check(4, "max relative difference", err, DERIV_TOL))

    # [5] Named presets build Hermitian, unit-trace, physical states.
    presets = [
        preset_dyadic("bell-phi-plus"),
        preset_dyadic("bell-psi-minus"),
        preset_dyadic("werner", fidelity=0.0),
        preset_dyadic("werner", fidelity=0.5),
        preset_dyadic("werner", fidelity=1.0),
        preset_dyadic("x-state", **X_STATE_EXAMPLE),
    ]
    m = _dyadic_to_density(*np.array([d.as_tuple() for d in presets]).T)
    trace = np.trace(m, axis1=-2, axis2=-1).real
    for name, errors in (
        ("preset states hermitian", _hermiticity_gaps(m)),
        ("preset states unit trace", np.abs(trace - 1.0)),
        ("preset states positive", -_min_eigenvalues(m)),
    ):
        checks.append(_check(5, name, _worst(0.0, float(np.max(errors))), EQUIV_TOL))

    # Eigenvalues of any dyadic-induced matrix sum to 1 (9x9x9 grid, one
    # c11 plane at a time).
    axis = np.linspace(-1.0, 1.0, 9)
    c22, c33 = np.meshgrid(axis, axis, indexing="ij")
    err = 0.0
    for c11 in axis:
        eig_sum = np.linalg.eigvalsh(_dyadic_to_density(c11, c22, c33)).sum(-1)
        err = _worst(err, float(np.max(np.abs(eig_sum - 1.0))))
    checks.append(_check(5, "dyadic grid eigenvalue sum", err, EQUIV_TOL))

    # The accelerated-channel and branch-state checks of the blocks of draws.
    checks.extend(c for c in per_draw if c.section == 5)

    # Bloch vectors stay inside the physical ball in both modes.
    s_n = _bloch(batch, "normalized")
    err_norm = _worst(0.0, float(np.max(_norm(s_n))) - 1.0)
    err_quarter = _worst(0.0, float(np.max(_norm(_bloch(batch, "as-published")))) - 0.25)
    checks.append(_check(5, "normalized bloch norm <= 1", err_norm, EQUIV_TOL))
    checks.append(_check(5, "as-published bloch norm <= 1/4", err_quarter, EQUIV_TOL))

    # The Fisher-value checks. The kernel raises ConsistencyError on a
    # non-finite value; that fails the check with an infinite error.
    for name, error, tolerance in (
        ("fisher finite and non-negative", lambda: _fisher_sign_error(batch), FISHER_TOL),
        ("fisher invariant under s_y reflection", lambda: _reflection_error(batch, s_n), 1e-15),
        ("anchor: weight information = cos(r)^2", _anchor_error, FISHER_TOL),
        ("mode scaling 1/16 at r=0", _mode_scaling_error, FISHER_TOL),
        ("continuity near the pure shell", _continuity_error, 1e-3),
    ):
        checks.append(_check(5, name, _kernel_error(error), tolerance))

    checks.extend(c for c in per_draw if c.section == 6)
    return VerifyReport(trials=trials, seed=seed, checks=tuple(checks))


def _kernel_error(error: Callable[[], float]) -> float:
    """The error of a Fisher-kernel check, or inf once the kernel meets a non-finite value."""
    try:
        return error()
    except ConsistencyError:
        return math.inf


def _fisher_sign_error(batch: dict) -> float:
    """Fisher values are non-negative for every estimand and mode (the kernel
    raises on a non-finite one)."""
    err = 0.0
    for mode in NORM_NAMES:
        for param in PARAM_NAMES:
            err = _worst(err, float(np.max(-_fisher(batch, param, mode, "analytic")[0])))
    return err


def _reflection_error(batch: dict, s_n: np.ndarray) -> float:
    """Negating one fixed Bloch component everywhere leaves the Fisher value unchanged."""
    flip = np.array([1.0, -1.0, 1.0])
    ds = _partial(batch, "theta", "normalized", "analytic")
    a = _fisher_from_bloch(s_n, ds)[0]
    b = _fisher_from_bloch(s_n * flip, ds * flip)[0]
    return float(np.max(np.abs(a - b)))


def _anchor_error() -> float:
    """Weight-angle information equals cos(r)^2 for the (1,-1,1) Bell channel in
    the single-mode limit."""
    grid = np.meshgrid(
        np.linspace(0.0, math.pi, 7),
        np.linspace(0.0, 2.0 * math.pi, 7),
        np.linspace(0.0, R_MAX, 7),
        indexing="ij",
    )
    anchor = {
        **vars(preset_dyadic("bell-phi-plus")),
        **vars(mode_params(0.0, "wsma")),
        **dict(zip(PARAM_NAMES, grid)),
    }
    value = _fisher(anchor, "theta", "normalized", "analytic")[0]
    return float(np.max(np.abs(value - np.float_power(np.cos(anchor["r"]), 2.0))))


def _mode_scaling_error() -> float:
    """At r=0 for maximally entangled channels the as-published value is
    exactly 1/16 of the normalized one."""
    err = 0.0
    angles = {"theta": np.array([0.3, 1.2, 2.4]), "phi": np.array([0.7, 2.5, 4.9])}
    for preset in ("bell-phi-plus", "bell-psi-minus"):
        p = {**vars(preset_dyadic(preset)), **vars(mode_params(0.0, "wsma")), **angles}
        for param in PARAM_NAMES:
            f_n = _fisher(p, param, "normalized", "analytic")[0]
            f_p = _fisher(p, param, "as-published", "analytic")[0]
            err = _worst(err, float(np.max(np.abs(f_p - f_n / 16.0))))
    return err


def _continuity_error() -> float:
    """The mixed-branch value stays continuous as the pure shell is approached."""
    state = InputState(1.0, 0.3)
    f_near = fisher(state, preset_dyadic("bell-phi-plus"), mode_params(1e-4, "wsma"), "theta")
    return abs(f_near.value - 1.0) if not f_near.pure_branch else math.inf


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, as ``np.linalg.norm`` of one vector."""
    return np.sqrt(_dot(v, v))
