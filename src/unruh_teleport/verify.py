"""Self-verification: every closed form checked against its independent oracle.

The report is plain text, deterministic for a given (trials, seed) pair, and
contains six sections: channel oracle equivalence, teleportation oracle
equivalence, agreement of the two branch-state forms, derivative
cross-validation, the module invariant suite, and an informational
measurement of how badly the swapped-b7 variant violates Hermiticity.

``verify`` makes one pass over its seeded draws: the accelerated channel,
both oracles, the two branch-state forms, the inertial channel and the
swapped-b7 variant are each evaluated once per draw, and every check keeps a
running maximum of its error. The Fisher-kernel checks then run once over
arrays built from the same draws.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ._linalg import hermiticity_gap, min_eigenvalue
from .channels import (
    X_STATE_EXAMPLE,
    CorrelationDyadic,
    dyadic_to_density,
    preset_dyadic,
    validate_physical,
)
from .errors import DomainError
from .fisher import (
    NORM_NAMES, PARAM_NAMES, _bloch, _dot, _fisher, _fisher_from_bloch, _partial, _point, fisher
)
from .sampling import sample_dyadic, sample_input, sample_unruh
from .sweep import MAX_POINTS
from .teleport import (
    InputState,
    teleport_analytic,
    teleport_circuit_oracle,
    teleport_closed_form,
)
from .unruh import (
    R_MAX,
    accelerate,
    accelerate_swapped_b7,
    accelerated_density,
    bogoliubov_isometry,
    bogoliubov_oracle,
    mode_params,
)

EQUIV_TOL = 1e-12
DERIV_TOL = 1e-6
DERIV_FLOOR = 1e-3
FISHER_TOL = 1e-9


@dataclass(frozen=True)
class Check:
    section: int
    name: str
    max_error: float
    tolerance: float | None  # None marks an informational entry
    passed: bool


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
        gated = [c for c in self.checks if c.tolerance is not None]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"result: {verdict} ({len(gated)} gated checks)")
        return "\n".join(lines) + "\n"


def _worst(a: float, b: float) -> float:
    """The larger error, and NaN once either is NaN (``max(a, nan)`` returns ``a``)."""
    return b if b > a or b != b else a


def _check(section: int, name: str, max_error: float, tolerance: float | None) -> Check:
    passed = True if tolerance is None else max_error <= tolerance
    return Check(section, name, float(max_error), tolerance, passed)


def verify(trials: int = 1000, seed: int = 42) -> VerifyReport:
    """Run every oracle cross-check and invariant check with seeded draws."""
    # The batched Fisher checks hold arrays sized by the trials.
    if not 1 <= trials <= MAX_POINTS:
        raise DomainError(f"trials must lie in [1, {MAX_POINTS}], got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)

    # Shared draw set: (input state, physical dyadic, acceleration params).
    draws = [
        (sample_input(rng), sample_dyadic(rng), sample_unruh(rng)) for _ in range(trials)
    ]

    # The one pass over the draws. Each check keeps its largest error under
    # its report name; the section [5] names come out in report order.
    inertial = mode_params(0.0, "wsma")
    worst: defaultdict[str, float] = defaultdict(float)
    points = []
    for state, d, u in draws:
        channel, oracle = accelerate(d, u), bogoliubov_oracle(d, u)
        m = accelerated_density(channel)
        bob = teleport_analytic(state, channel)
        identity = accelerated_density(accelerate(d, inertial)) - dyadic_to_density(d)
        v = bogoliubov_isometry(u)
        swapped = accelerate_swapped_b7(d, u)
        for name, error in (
            # [1] closed-form coefficients against the embedding-isometry oracle,
            # [2] the coefficient-form branch state against the three-qubit
            # circuit, [3] the coefficient form against the explicit angle form.
            ("[1]", np.max(np.abs(m - oracle))),
            ("[2]", np.max(np.abs(bob.rho - teleport_circuit_oracle(state, oracle).rho))),
            ("[3]", np.max(np.abs(bob.rho - teleport_closed_form(state, d, u).rho))),
            # [6] size of the Hermiticity violation if b7 were assembled with
            # the correlation combinations swapped. Informational only.
            ("[6]", abs(swapped.b7 - swapped.b6.conjugate())),
            # Accelerated channels: trace, hermiticity, positivity, inertial identity.
            ("accelerated channel unit trace", abs(float(np.trace(m).real) - 1.0)),
            ("accelerated channel hermitian", hermiticity_gap(m)),
            ("accelerated channel positive", -min_eigenvalue(m)),
            ("identity channel at r=0 wsma", np.max(np.abs(identity))),
            ("isometry columns orthonormal", np.max(np.abs(v.conj().T @ v - np.eye(2)))),
            # Branch states: probability exactly 1/4, Hermitian, positive.
            ("branch probability equals 1/4", abs(bob.outcome_prob - 0.25)),
            ("branch state hermitian", hermiticity_gap(bob.rho)),
            ("branch state positive", -min_eigenvalue(bob.rho_normalized)),
        ):
            worst[name] = _worst(worst[name], float(error))
        points.append(_point(state, d, u))
    checks = [
        _check(1, "max elementwise difference", worst.pop("[1]"), EQUIV_TOL),
        _check(2, "max elementwise difference", worst.pop("[2]"), EQUIV_TOL),
        _check(3, "max elementwise difference", worst.pop("[3]"), EQUIV_TOL),
    ]
    swapped_gap = worst.pop("[6]")

    # Every draw as one array per kernel argument, for the batched Fisher checks.
    batch = {key: np.array([p[key] for p in points]) for key in points[0]}

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
    err_herm = err_trace = err_psd = 0.0
    presets = [
        preset_dyadic("bell-phi-plus"),
        preset_dyadic("bell-psi-minus"),
        preset_dyadic("werner", fidelity=0.0),
        preset_dyadic("werner", fidelity=0.5),
        preset_dyadic("werner", fidelity=1.0),
        preset_dyadic("x-state", **X_STATE_EXAMPLE),
    ]
    for d in presets:
        m = dyadic_to_density(d)
        err_herm = _worst(err_herm, hermiticity_gap(m))
        err_trace = _worst(err_trace, abs(float(np.trace(m).real) - 1.0))
        err_psd = _worst(err_psd, -validate_physical(d).min_eigenvalue)
    checks.append(_check(5, "preset states hermitian", err_herm, EQUIV_TOL))
    checks.append(_check(5, "preset states unit trace", err_trace, EQUIV_TOL))
    checks.append(_check(5, "preset states positive", err_psd, EQUIV_TOL))

    # Eigenvalues of any dyadic-induced matrix sum to 1 (9x9x9 grid).
    err = 0.0
    for c in itertools.product(np.linspace(-1.0, 1.0, 9), repeat=3):
        eig = np.linalg.eigvalsh(dyadic_to_density(CorrelationDyadic(*c)))
        err = _worst(err, abs(float(eig.sum()) - 1.0))
    checks.append(_check(5, "dyadic grid eigenvalue sum", err, EQUIV_TOL))

    # The accelerated-channel and branch-state checks of the pass over the draws.
    checks.extend(_check(5, name, error, EQUIV_TOL) for name, error in worst.items())

    # Bloch vectors stay inside the physical ball in both modes.
    s_n = _bloch(batch, "normalized")
    err_norm = _worst(0.0, float(np.max(_norm(s_n))) - 1.0)
    err_quarter = _worst(0.0, float(np.max(_norm(_bloch(batch, "as-published")))) - 0.25)
    checks.append(_check(5, "normalized bloch norm <= 1", err_norm, EQUIV_TOL))
    checks.append(_check(5, "as-published bloch norm <= 1/4", err_quarter, EQUIV_TOL))

    # Fisher values: finite and non-negative for every estimand and mode.
    err = 0.0
    for mode in NORM_NAMES:
        for param in PARAM_NAMES:
            value = _fisher(batch, param, mode, "analytic")[0]
            err = _worst(err, float(np.max(np.where(np.isfinite(value), -value, math.inf))))
    checks.append(_check(5, "fisher finite and non-negative", err, FISHER_TOL))

    # Reflection invariance: negating one fixed Bloch component everywhere
    # leaves the Fisher value unchanged.
    flip = np.array([1.0, -1.0, 1.0])
    ds = _partial(batch, "theta", "normalized", "analytic")
    a = _fisher_from_bloch(s_n, ds)[0]
    b = _fisher_from_bloch(s_n * flip, ds * flip)[0]
    err = float(np.max(np.abs(a - b)))
    checks.append(_check(5, "fisher invariant under s_y reflection", err, 1e-15))

    # Closed-form anchor: weight-angle information equals cos(r)^2 for the
    # (1,-1,1) Bell channel in the single-mode limit.
    phi_plus = preset_dyadic("bell-phi-plus")
    grid = np.meshgrid(
        np.linspace(0.0, math.pi, 7),
        np.linspace(0.0, 2.0 * math.pi, 7),
        np.linspace(0.0, R_MAX, 7),
        indexing="ij",
    )
    anchor = {**vars(phi_plus), **vars(inertial), **dict(zip(PARAM_NAMES, grid))}
    value = _fisher(anchor, "theta", "normalized", "analytic")[0]
    err = float(np.max(np.abs(value - np.float_power(np.cos(anchor["r"]), 2.0))))
    checks.append(_check(5, "anchor: weight information = cos(r)^2", err, FISHER_TOL))

    # Mode scaling at r=0 for maximally entangled channels: the
    # as-published value is exactly 1/16 of the normalized one.
    err = 0.0
    angles = {"theta": np.array([0.3, 1.2, 2.4]), "phi": np.array([0.7, 2.5, 4.9])}
    for preset in ("bell-phi-plus", "bell-psi-minus"):
        p = {**vars(preset_dyadic(preset)), **vars(inertial), **angles}
        for param in PARAM_NAMES:
            f_n = _fisher(p, param, "normalized", "analytic")[0]
            f_p = _fisher(p, param, "as-published", "analytic")[0]
            err = _worst(err, float(np.max(np.abs(f_p - f_n / 16.0))))
    checks.append(_check(5, "mode scaling 1/16 at r=0", err, FISHER_TOL))

    # Mixed-branch value stays continuous as the pure shell is approached.
    state = InputState(1.0, 0.3)
    f_near = fisher(state, phi_plus, mode_params(1e-4, "wsma"), "theta")
    err = abs(f_near.value - 1.0) if not f_near.pure_branch else math.inf
    checks.append(_check(5, "continuity near the pure shell", err, 1e-3))

    checks.append(_check(6, "hermiticity gap |b7 - conj(b6)|", swapped_gap, None))
    return VerifyReport(trials=trials, seed=seed, checks=tuple(checks))


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, as ``np.linalg.norm`` of one vector."""
    return np.sqrt(_dot(v, v))
