"""Self-verification: every closed form checked against its independent oracle.

The report is plain text, deterministic for a given (trials, seed) pair, and
contains six sections: channel oracle equivalence, teleportation oracle
equivalence, agreement of the two branch-state forms, derivative
cross-validation, the module invariant suite, and an informational
measurement of how badly the swapped-b7 variant violates Hermiticity.

The seeded draws are the scalar samplers' draws, bit for bit, from
``sampling.sample_draws``: one buffer of doubles in stream order, a
closed-form accept rule, and each decision confirmed by ``eigvalsh``.
``CHECKS`` lists every check in report order with its tolerance. Three
producers give each check its errors under (section, name). ``_draw_errors``
runs each broadcasting form once per block of ``BLOCK`` seeded draws: the
accelerated channel together with its inertial counterpart, both oracles, the
two branch-state forms and the isometry.
``_kernel_errors`` runs the Bloch and Fisher kernels once over all draws.
``_fixed_errors`` covers the presets, a grid of channels and the Fisher
anchors. One fold reduces each check's errors to its largest. Every check
with per-draw errors (16 gated ones and the informational one) keeps the draw
behind that error, which a failed check names; the fixed-input checks name
none. The oracles stay independent: they share no code with the coefficient
form, the angle closed form or the Fisher kernel.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._linalg import IDENTITY_2, _hermiticity_gaps, _min_eigenvalues
from .channels import X_STATE_EXAMPLE, _dyadic_to_density, preset_dyadic
from .errors import ConsistencyError, DomainError, check_integer
from .fisher import (
    MAX_POINTS, NORM_NAMES, PARAM_NAMES, _bloch, _dot, _fisher, _fisher_from_bloch, _partial, fisher
)
from .sampling import sample_draws
from .teleport import (
    InputState, _branch_entries, _branch_matrix, _teleport_analytic, _teleport_circuit_oracle
)
from .unruh import (
    R_MAX, UnruhParams, _accelerate, _accelerated_density, _bogoliubov_isometry,
    _bogoliubov_oracle, mode_params,
)

EQUIV_TOL = 1e-12
DERIV_TOL = 1e-6
DERIV_FLOOR = 1e-3
FISHER_TOL = 1e-9
# Draws per pass of the broadcasting forms, and candidates per eigvalsh pass of
# the sampler. It bounds the stacked (draws, 8, 8) arrays: at 64 each stays
# under 128 KiB. Blocks of 256 ran at most a few percent faster and kept about
# 0.6 MB more memory resident over repeated runs.
BLOCK = 64

# A draw's index and its (name, value) pairs of the kernel arguments.
Draw = tuple[int, tuple[tuple[str, float | complex], ...]]

# Every check in report order: (section, name, tolerance); a tolerance of
# None marks the informational entry.
CHECKS: tuple[tuple[int, str, float | None], ...] = (
    (1, "max elementwise difference", EQUIV_TOL),
    (2, "max elementwise difference", EQUIV_TOL),
    (3, "max elementwise difference", EQUIV_TOL),
    (4, "max relative difference", DERIV_TOL),
    (5, "preset states hermitian", EQUIV_TOL),
    (5, "preset states unit trace", EQUIV_TOL),
    (5, "preset states positive", EQUIV_TOL),
    (5, "dyadic grid eigenvalue sum", EQUIV_TOL),
    (5, "accelerated channel unit trace", EQUIV_TOL),
    (5, "accelerated channel hermitian", EQUIV_TOL),
    (5, "accelerated channel positive", EQUIV_TOL),
    (5, "identity channel at r=0 wsma", EQUIV_TOL),
    (5, "isometry columns orthonormal", EQUIV_TOL),
    (5, "branch probability equals 1/4", EQUIV_TOL),
    (5, "branch state hermitian", EQUIV_TOL),
    (5, "branch state positive", EQUIV_TOL),
    (5, "normalized bloch norm <= 1", EQUIV_TOL),
    (5, "as-published bloch norm <= 1/4", EQUIV_TOL),
    (5, "fisher finite and non-negative", FISHER_TOL),
    (5, "fisher invariant under s_y reflection", 1e-15),
    (5, "anchor: weight information = cos(r)^2", FISHER_TOL),
    (5, "mode scaling 1/16 at r=0", FISHER_TOL),
    (5, "continuity near the pure shell", 1e-3),
    (6, "hermiticity gap |b7 - conj(b6)|", None),
)


@dataclass(frozen=True)
class Check:
    section: int
    name: str
    max_error: float
    tolerance: float | None  # None marks an informational entry
    draw: Draw | None = None  # the draw with the largest error, for per-draw checks

    @property
    def passed(self) -> bool:
        return self.tolerance is None or self.max_error <= self.tolerance


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
        # [6] size of the Hermiticity violation if b7 were copied from b3,
        # as in the swapped-b7 variant. Informational only.
        (6, "hermiticity gap |b7 - conj(b6)|"): np.abs(b[2] - b[5].conjugate()),
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


def _kernel_errors(p: dict) -> dict[tuple[int, str], np.ndarray | float]:
    """Per-draw errors of the checks that run the Bloch and Fisher kernels over
    all draws at once, under their (section, report name)."""
    combos = [(param, mode) for mode in NORM_NAMES for param in PARAM_NAMES]
    # [4] analytic partials against central differences: the relative error,
    # counted unless the derivative is degenerate (so a NaN one counts), worst
    # over every estimand and mode.
    relative = 0.0
    for param, mode in combos:
        analytic = _partial(p, param, mode, "analytic")
        scale = _norm(analytic)
        difference = _norm(analytic - _partial(p, param, mode, "fd"))
        kept = ~(scale <= DERIV_FLOOR)
        relative = np.maximum(
            relative, np.divide(difference, scale, out=np.zeros_like(scale), where=kept)
        )
    s_n = _bloch(p, "normalized")
    ds = _partial(p, "theta", "normalized", "analytic")
    flip = np.array([1.0, -1.0, 1.0])
    return {
        (4, "max relative difference"): relative,
        # Bloch vectors stay inside the physical ball in both modes.
        (5, "normalized bloch norm <= 1"): _norm(s_n) - 1.0,
        (5, "as-published bloch norm <= 1/4"): _norm(_bloch(p, "as-published")) - 0.25,
        # Fisher values are non-negative for every estimand and mode, and
        # negating one fixed Bloch component everywhere leaves them unchanged.
        (5, "fisher finite and non-negative"): _kernel_error(
            lambda: np.max([-_fisher(p, param, mode, "analytic")[0] for param, mode in combos], 0)
        ),
        (5, "fisher invariant under s_y reflection"): _kernel_error(
            lambda: np.abs(
                _fisher_from_bloch(s_n, ds)[0] - _fisher_from_bloch(s_n * flip, ds * flip)[0]
            )
        ),
    }


def _fixed_errors() -> dict[tuple[int, str], float]:
    """Errors of the checks on fixed inputs, each reduced to one number."""
    # Named presets build Hermitian, unit-trace, physical states.
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
    # Eigenvalues of any dyadic-induced matrix sum to 1 (9x9x9 grid, one c11
    # plane at a time).
    axis = np.linspace(-1.0, 1.0, 9)
    c22, c33 = np.meshgrid(axis, axis, indexing="ij")
    eig_sums = [np.linalg.eigvalsh(_dyadic_to_density(c11, c22, c33)).sum(-1) for c11 in axis]
    return {
        (5, "preset states hermitian"): np.max(_hermiticity_gaps(m)),
        (5, "preset states unit trace"): np.max(np.abs(trace - 1.0)),
        (5, "preset states positive"): np.max(-_min_eigenvalues(m)),
        (5, "dyadic grid eigenvalue sum"): np.max(np.abs(np.array(eig_sums) - 1.0)),
        (5, "anchor: weight information = cos(r)^2"): _kernel_error(_anchor_error),
        (5, "mode scaling 1/16 at r=0"): _kernel_error(_mode_scaling_error),
        (5, "continuity near the pure shell"): _kernel_error(_continuity_error),
    }


def verify(trials: int = 1000, seed: int = 42) -> VerifyReport:
    """Run every oracle cross-check and invariant check with seeded draws."""
    check_integer("trials", trials)
    check_integer("seed", seed)
    # The batched Fisher checks hold arrays sized by the trials.
    if not 1 <= trials <= MAX_POINTS:
        raise DomainError(f"trials must lie in [1, {MAX_POINTS}], got {trials}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    batch = sample_draws(seed, trials, BLOCK)

    # Each block of draws runs every broadcasting form once.
    inertial = mode_params(0.0, "wsma")
    blocks = [
        _draw_errors({key: column[start:start + BLOCK] for key, column in batch.items()}, inertial)
        for start in range(0, trials, BLOCK)
    ]
    produced = {key: np.concatenate([block[key] for block in blocks]) for key in blocks[0]}
    produced.update(_kernel_errors(batch))
    produced.update(_fixed_errors())
    listed = [(section, name) for section, name, _ in CHECKS]
    if sorted(produced) != sorted(listed):
        unmatched = sorted(produced.keys() ^ set(listed))
        raise ConsistencyError(f"checks not both produced and listed once: {unmatched}")

    # One fold. An error array names its worst draw: the first NaN, else the
    # first largest error. A scalar names none. An error at or below zero
    # reads 0 and names no draw.
    checks = []
    for section, name, tolerance in CHECKS:
        errors = np.asarray(produced[section, name])
        index = int(np.argmax(errors))
        error = float(errors.flat[index])
        draw = None
        if not (error > 0.0 or math.isnan(error)):
            error = 0.0
        elif errors.ndim:
            draw = (index, tuple((key, column[index].item()) for key, column in batch.items()))
        checks.append(Check(section, name, error, tolerance, draw))
    return VerifyReport(trials=trials, seed=seed, checks=tuple(checks))


def _kernel_error(error: Callable[[], np.ndarray | float]) -> np.ndarray | float:
    """The errors of a Fisher-kernel check, or inf once the kernel meets a non-finite value."""
    try:
        return error()
    except ConsistencyError:
        return math.inf


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
    return np.max(np.abs(value - np.float_power(np.cos(anchor["r"]), 2.0)))


def _mode_scaling_error() -> float:
    """At r=0 for maximally entangled channels the as-published value is
    exactly 1/16 of the normalized one."""
    angles = {"theta": np.array([0.3, 1.2, 2.4]), "phi": np.array([0.7, 2.5, 4.9])}
    errors = []
    for preset in ("bell-phi-plus", "bell-psi-minus"):
        p = {**vars(preset_dyadic(preset)), **vars(mode_params(0.0, "wsma")), **angles}
        for param in PARAM_NAMES:
            f_n = _fisher(p, param, "normalized", "analytic")[0]
            f_p = _fisher(p, param, "as-published", "analytic")[0]
            errors.append(np.abs(f_p - f_n / 16.0))
    return np.max(errors)


def _continuity_error() -> float:
    """The mixed-branch value stays continuous as the pure shell is approached."""
    state = InputState(1.0, 0.3)
    f_near = fisher(state, preset_dyadic("bell-phi-plus"), mode_params(1e-4, "wsma"), "theta")
    return abs(f_near.value - 1.0) if not f_near.pure_branch else math.inf


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, as ``np.linalg.norm`` of one vector."""
    return np.sqrt(_dot(v, v))
