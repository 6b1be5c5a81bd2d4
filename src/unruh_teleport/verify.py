"""Self-verification: every closed form checked against its independent oracle.

The report is plain text, deterministic for a given (trials, seed) pair, and
contains six sections: channel oracle equivalence, teleportation oracle
equivalence, agreement of the two branch-state forms, derivative
cross-validation, the module invariant suite, and an informational
measurement of how badly the swapped-b7 variant violates Hermiticity.

``sample_draws`` gives the seeded draws without rejection: each dyadic is a uniform point
of the tetrahedron of physical channels, placed by its Bell eigenvalues, the closed form of
``validate_physical`` that [5] checks by ``eigvalsh``. Each check is one entry of a
producer: its section, name and tolerance next to its errors. ``_fixed_errors`` covers the
presets and a grid of channels. The draws come in blocks of ``BLOCK``, and each block is
checked once by each of two producers. ``_draw_errors`` runs each broadcasting form once:
the accelerated channel, both oracles, the two branch-state forms and the isometry, plus one
more channel evaluation for the inertial counterpart. ``_kernel_errors`` makes 7 passes of
the closed form (s and its three partials in one, six s-only ones for the central
differences), scaled once per norm after both derivative methods.
``_anchor_errors`` covers the Fisher anchors at fixed inputs. ``verify`` states no check
itself: the report orders sections by number and, within a section, keeps the order of the
four producers as listed here. No kernel raises: a fault is a non-finite error, a FAIL. A
running fold keeps each check's largest error and the draw behind it over the blocks (17
gated checks and the informational one have per-draw errors), which a failed check names;
the fixed-input checks name none. The oracles stay independent: they share no code with the
coefficient form or with the closed-form Bloch vector that [3] and the Fisher kernel read.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from ._linalg import IDENTITY_2, _eigenvalues, _hermiticity_gaps, _min_eigenvalues
from .channels import (
    _BELL_SIGNS, X_STATE_EXAMPLE, _bell_eigenvalues, _dyadic_to_density, preset_dyadic
)
from .errors import check_integer
from .fisher import (
    MAX_POINTS, NORM_NAMES, PARAM_NAMES, VARIABLE_DOMAINS, _fisher, _fisher_from_bloch, _norm,
    _scaled, _vectors,
)
from .teleport import _bloch_matrix, _branch_bloch, _teleport_analytic, _teleport_circuit_oracle
from .unruh import (
    _accelerate, _accelerated_density, _bogoliubov_isometry, _bogoliubov_oracle, mode_params
)

EQUIV_TOL = 1e-12
DERIV_TOL = 1e-6
DERIV_FLOOR = 1e-3
FISHER_TOL = 1e-9
# Draws per block, read from the stream, checked once by each producer and folded before the
# next is read: the least power of two at or above the default 1,000 trials, so the default
# run makes one pass. Each stacked (draws, 8, 8) array then holds 1 MiB. verify(1000, 42)
# took a median 47 / 33 / 26 / 22 / 21 ms at 64 / 128 / 256 / 512 / 1,024 (2-core Xeon,
# Python 3.11, numpy 2.4, 25 shuffled rounds).
BLOCK = 1 << 10

# A draw's index and its (name, value) pairs of the kernel arguments.
Draw = tuple[int, tuple[tuple[str, float | complex], ...]]
# A check as its producer states it: (section, name, tolerance); a tolerance
# of None marks the informational entry.
Entry = tuple[int, str, float | None]


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


def _draw_errors(p: dict) -> dict[Entry, np.ndarray]:
    """Per-draw errors of the oracle checks and the per-draw invariants over one
    block of draws, under their entries."""
    theta, phi, r, qr, ql = p["theta"], p["phi"], p["r"], p["qr"], p["ql"]
    c11, c22, c33 = p["c11"], p["c22"], p["c33"]
    b = _accelerate(c11, c22, c33, r, qr, ql)
    m = _accelerated_density(*b)
    inertial = _accelerate(c11, c22, c33, **vars(mode_params(0.0, "wsma")))
    oracle = _bogoliubov_oracle(c11, c22, c33, r, qr, ql)
    rho = _teleport_analytic(theta, phi, *b)
    circuit = _teleport_circuit_oracle(theta, phi, oracle)
    closed = _bloch_matrix(*_branch_bloch(**p)[0])
    channel = _dyadic_to_density(c11, c22, c33)
    identity = _accelerated_density(*inertial) - channel
    v = _bogoliubov_isometry(r, qr, ql)
    gram = np.swapaxes(v, -1, -2).conj() @ v
    prob = rho[..., 0, 0].real + rho[..., 1, 1].real
    return {
        # [1] closed-form coefficients against the embedding-isometry oracle,
        # [2] the coefficient-form branch state against the three-qubit
        # circuit, [3] the coefficient form against the closed-form Bloch vector.
        (1, "max elementwise difference", EQUIV_TOL): _largest(m - oracle),
        (2, "max elementwise difference", EQUIV_TOL): _largest(rho - circuit),
        (3, "max elementwise difference", EQUIV_TOL): _largest(rho - closed),
        # [6] size of the Hermiticity violation if b7 were copied from b3,
        # as in the swapped-b7 variant. Informational only.
        (6, "hermiticity gap |b7 - conj(b6)|", None): np.abs(b[2] - b[5].conjugate()),
        # The closed-form physicality rule of validate_physical against the eigensolver.
        (5, "min channel eigenvalue: closed form vs eigvalsh", EQUIV_TOL):
            np.abs(_bell_eigenvalues(c11, c22, c33).min(axis=-1) - _min_eigenvalues(channel)),
        # Accelerated channels: trace, hermiticity, positivity, inertial identity.
        (5, "accelerated channel unit trace", EQUIV_TOL):
            np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0),
        (5, "accelerated channel hermitian", EQUIV_TOL): _hermiticity_gaps(m),
        (5, "accelerated channel positive", EQUIV_TOL): -_min_eigenvalues(m),
        (5, "identity channel at r=0 wsma", EQUIV_TOL): _largest(identity),
        (5, "isometry columns orthonormal", EQUIV_TOL): _largest(gram - IDENTITY_2),
        # Branch states: probability exactly 1/4, Hermitian, positive.
        (5, "branch probability equals 1/4", EQUIV_TOL): np.abs(prob - 0.25),
        (5, "branch state hermitian", EQUIV_TOL): _hermiticity_gaps(rho),
        (5, "branch state positive", EQUIV_TOL): -_min_eigenvalues(rho / prob[..., None, None]),
    }


def _kernel_errors(p: dict) -> dict[Entry, np.ndarray]:
    """Per-draw errors of the checks that run the Bloch and Fisher kernels over one block of
    draws, under their entries (a non-finite value is an error)."""
    passes = _vectors(p, PARAM_NAMES, PARAM_NAMES)  # s, analytic partials, central differences
    bloch = {mode: _scaled(passes, mode) for mode in NORM_NAMES}
    # [4] analytic partials against central differences: the relative error,
    # counted unless the derivative is degenerate (so a NaN one counts), worst
    # over every estimand and mode.
    relative, values = 0.0, []
    for mode, (s, *partials) in bloch.items():
        for partial, central in zip(partials[:3], partials[3:]):
            scale = _norm(partial)
            difference = _norm(tuple(a - b for a, b in zip(partial, central)))
            kept = ~(scale <= DERIV_FLOOR)
            relative = np.maximum(
                relative, np.divide(difference, scale, out=np.zeros_like(scale), where=kept)
            )
            values.append(_fisher_from_bloch(s, partial)[0])
    s_n, ds = bloch["normalized"][:2]
    flipped = [(x, -y, z) for x, y, z in (s_n, ds)]
    return {
        (4, "max relative difference", DERIV_TOL): relative,
        # Bloch vectors stay inside the physical ball in both modes.
        (5, "normalized bloch norm <= 1", EQUIV_TOL): _norm(s_n) - 1.0,
        (5, "as-published bloch norm <= 1/4", EQUIV_TOL): _norm(bloch["as-published"][0]) - 0.25,
        # Fisher values from the passes above are finite (else an error of inf) and non-negative
        # for every estimand and mode; negating one fixed Bloch component leaves them unchanged.
        (5, "fisher finite and non-negative", FISHER_TOL):
            np.max([np.where(np.isfinite(f), -f, np.inf) for f in values], 0),
        (5, "fisher invariant under s_y reflection", 1e-15):
            np.abs(values[0] - _fisher_from_bloch(*flipped)[0]),
    }


def _fixed_errors() -> dict[Entry, np.ndarray | float]:
    """Errors of the preset and dyadic-grid checks, each reduced to one number."""
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
    # Eigenvalues of any dyadic-induced matrix sum to 1 (9x9x9 grid).
    axis = np.linspace(-1.0, 1.0, 9)
    grid = np.meshgrid(axis, axis, axis, indexing="ij")
    eig_sums = _eigenvalues(_dyadic_to_density(*grid)).sum(-1)
    return {
        (5, "preset states hermitian", EQUIV_TOL): np.max(_hermiticity_gaps(m)),
        (5, "preset states unit trace", EQUIV_TOL): np.max(np.abs(trace - 1.0)),
        (5, "preset states positive", EQUIV_TOL): np.max(-_min_eigenvalues(m)),
        (5, "dyadic grid eigenvalue sum", EQUIV_TOL): np.max(np.abs(eig_sums - 1.0)),
    }


def _anchor_errors() -> dict[Entry, np.ndarray | float]:
    """Errors of the Fisher anchors at fixed inputs, each reduced to one number."""
    bell, inertial = vars(preset_dyadic("bell-phi-plus")), vars(mode_params(0.0, "wsma"))
    # Weight-angle information equals cos(r)^2 for the (1,-1,1) Bell channel in the
    # single-mode limit, over a grid of the three variables.
    grid = np.ix_(*(np.linspace(*VARIABLE_DOMAINS[name], 7) for name in PARAM_NAMES))
    anchor = {**bell, **inertial, **dict(zip(PARAM_NAMES, grid))}
    cr = np.cos(anchor["r"])
    # At r=0 for maximally entangled channels the as-published value is exactly 1/16 of
    # the normalized one: the two Bell presets as rows, the three input states as columns.
    both = np.array([preset_dyadic(n).as_tuple() for n in ("bell-phi-plus", "bell-psi-minus")])
    p = {**dict(zip(("c11", "c22", "c33"), both.T[..., None])), **inertial}
    p.update(theta=np.array([0.3, 1.2, 2.4]), phi=np.array([0.7, 2.5, 4.9]))
    f_n, f_p = np.array(
        [[_fisher(p, param, mode, "analytic")[0] for param in PARAM_NAMES] for mode in NORM_NAMES]
    )
    # The mixed-branch value stays continuous as the pure shell is approached.
    near = {**bell, **vars(mode_params(1e-4, "wsma")), "theta": 1.0, "phi": 0.3}
    value, pure = _fisher(near, "theta", "normalized", "analytic")
    return {
        (5, "anchor: weight information = cos(r)^2", FISHER_TOL):
            np.max(np.abs(_fisher(anchor, "theta", "normalized", "analytic")[0] - cr * cr)),
        (5, "mode scaling 1/16 at r=0", FISHER_TOL): np.max(np.abs(f_p - f_n / 16.0)),
        (5, "continuity near the pure shell", 1e-3): abs(value - 1.0) if not pure else math.inf,
    }


def sample_draws(seed: int, n: int) -> dict[str, np.ndarray]:
    """``n >= 1`` seeded draws as one array per key of ``fisher._point``: uniform
    angles, a uniform physical dyadic, uniform r and weights on the normalization
    circle. They come from one ``random.Random(seed)`` stream: draw i maps nine little-endian
    64-bit words of ``randbytes`` to doubles, each word's top 53 bits times 2**-53, so draw i
    does not depend on n or on how the stream is read in blocks. Python promises only the
    sequence of ``random()`` across its versions; the report pins guard ``randbytes``."""
    check_integer("seed", seed, 0)  # random.Random seeds with |seed|, and int() truncates a float
    return _draws(random.Random(int(seed)), n)


def _draws(stream: random.Random, n: int) -> dict[str, np.ndarray]:
    """The next ``n`` draws of ``sample_draws`` from ``stream``."""
    u = (np.frombuffer(stream.randbytes(72 * n), "<u8").reshape(n, 9) >> 11) * 2.0**-53
    # The spacings of three sorted uniforms are uniform on the simplex: as Bell
    # eigenvalues, a uniform point of the tetrahedron of physical dyadics whose
    # corners are the rows of _BELL_SIGNS. The doubles are multiples of 2**-53,
    # so the spacings and the dyadic are exact, whatever the summation order.
    w = np.diff(np.sort(u[:, 6:], axis=1), axis=1, prepend=0.0, append=1.0)
    dyadic = dict(zip(("c11", "c22", "c33"), (w @ _BELL_SIGNS).T))
    mu = np.pi / 2.0 * u[:, 3]
    theta, phi, r = (lo + (hi - lo) * x for (lo, hi), x in zip(VARIABLE_DOMAINS.values(), u.T))
    return {
        "theta": theta,
        "phi": phi,
        **dyadic,
        "r": r,
        "qr": np.cos(mu) * np.exp(2.0j * np.pi * u[:, 4]),
        "ql": np.sin(mu) * np.exp(2.0j * np.pi * u[:, 5]),
    }


def _fold(worst: dict, produced: dict, draws: dict | None = None, start: int = 0) -> None:
    """Fold each entry's errors into ``worst[entry]``, an (error, draw) pair: the first NaN, else
    the first largest error so far (a tie keeps the earlier draw). An error array indexes
    ``draws``, whose first draw is draw ``start``; a scalar names no draw."""
    for entry, errors in produced.items():
        errors = np.asarray(errors)
        index = int(np.argmax(errors))
        error, held = float(errors.flat[index]), worst.get(entry)
        if held is None or not (math.isnan(held[0]) or error <= held[0]):
            draw = None if not errors.ndim else (
                start + index, tuple((key, column[index].item()) for key, column in draws.items()))
            worst[entry] = (error, draw)


def verify(trials: int = 1000, seed: int = 42) -> VerifyReport:
    """Run every oracle cross-check and invariant check with seeded draws."""
    check_integer("trials", trials, 1, MAX_POINTS)
    check_integer("seed", seed, 0)
    stream, worst = random.Random(int(seed)), {}
    _fold(worst, _fixed_errors())
    # Each block of draws runs every broadcasting form once, the channel forms twice, then the
    # kernel checks once; only each check's worst draw outlives it.
    for start in range(0, trials, BLOCK):
        draws = _draws(stream, min(BLOCK, trials - start))
        _fold(worst, _draw_errors(draws), draws, start)
        _fold(worst, _kernel_errors(draws), draws, start)
    _fold(worst, _anchor_errors())

    # Sections in ascending order, each in the fold's order; an error at most 0 reads 0.
    checks = []
    for (section, name, tolerance), (error, draw) in sorted(worst.items(), key=lambda e: e[0][0]):
        if not (error > 0.0 or math.isnan(error)):
            error, draw = 0.0, None
        checks.append(Check(section, name, error, tolerance, draw))
    return VerifyReport(trials=trials, seed=seed, checks=tuple(checks))
