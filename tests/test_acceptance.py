"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the margin of each
criterion next to its tolerance.
"""

import copy
import math
import time

import numpy as np
import pytest

from unruh_teleport import (
    InputState,
    accelerate,
    accelerated_density,
    bloch_partial,
    bogoliubov_oracle,
    figure_spec,
    fisher,
    mode_params,
    preset_dyadic,
    run_sweep,
    teleport_analytic,
    teleport_circuit_oracle,
    teleport_closed_form,
    verify,
)
from unruh_teleport import sweep
from unruh_teleport.fisher import _fisher
from unruh_teleport.sweep import FIGURE_IDS

from samplers import sample_dyadic, sample_input, sample_unruh

PHI_PLUS = preset_dyadic("bell-phi-plus")
SINGLET = preset_dyadic("bell-psi-minus")

SEED = 20240611


def render_rows(spec, rows, fmt):
    return b"".join(sweep._pieces(spec, rows, fmt)).decode()


def _line(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    return passed


@pytest.fixture(scope="module")
def channel_draws():
    rng = np.random.default_rng(SEED)
    return [(sample_dyadic(rng), sample_unruh(rng)) for _ in range(1000)]


@pytest.fixture(scope="module")
def teleport_draws():
    rng = np.random.default_rng(SEED + 1)
    return [(sample_input(rng), sample_dyadic(rng), sample_unruh(rng)) for _ in range(1000)]


def test_criterion_1_channel_oracle_equivalence(channel_draws):
    start = time.perf_counter()
    worst = 0.0
    for d, u in channel_draws:
        closed = accelerated_density(accelerate(d, u))
        oracle = bogoliubov_oracle(d, u)
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    assert _line(
        1,
        "channel-oracle equivalence",
        ok,
        f"max err {worst:.3e} < 1e-12, runtime {elapsed:.2f}s < 5s",
    )


def test_criterion_2_teleportation_oracle_equivalence(teleport_draws):
    worst_circuit = 0.0
    worst_forms = 0.0
    for state, d, u in teleport_draws:
        analytic = teleport_analytic(state, accelerate(d, u))
        circuit = teleport_circuit_oracle(state, bogoliubov_oracle(d, u))
        closed = teleport_closed_form(state, d, u)
        worst_circuit = max(worst_circuit, float(np.max(np.abs(analytic.rho - circuit.rho))))
        worst_forms = max(worst_forms, float(np.max(np.abs(analytic.rho - closed.rho))))
    ok = worst_circuit < 1e-12 and worst_forms < 1e-12
    assert _line(
        2,
        "teleportation-oracle equivalence",
        ok,
        f"circuit err {worst_circuit:.3e}, form agreement {worst_forms:.3e}, both < 1e-12",
    )


def test_criterion_3_branch_probability(teleport_draws):
    worst = 0.0
    for state, d, u in teleport_draws:
        bob = teleport_analytic(state, accelerate(d, u))
        worst = max(worst, abs(bob.outcome_prob - 0.25))
    ok = worst < 1e-12
    assert _line(3, "branch probability 1/4", ok, f"max |p - 1/4| = {worst:.3e} < 1e-12")


def test_criterion_4_closed_form_anchors():
    tol = 1e-9
    inertial = mode_params(0.0, "wsma")

    # The 21^3 grid in one kernel call, and one of its points through the public fisher.
    theta, phi, r = np.ix_(np.linspace(0.0, math.pi, 21), np.linspace(0.0, 2.0 * math.pi, 21),
                           np.linspace(0.0, math.pi / 4, 21))
    point = {**vars(PHI_PLUS), **vars(inertial), "theta": theta, "phi": phi, "r": r}
    values = _fisher(point, "theta", "normalized", "analytic")[0]
    err_cos = float(np.max(np.abs(values - np.cos(r) ** 2)))
    t, f, q = float(theta[7, 0, 0]), float(phi[0, 12, 0]), float(r[0, 0, 16])
    value = fisher(InputState(t, f), PHI_PLUS, mode_params(q, "wsma"), "theta").value
    err_cos = max(err_cos, abs(value - math.cos(q) ** 2))

    err_inertial = 0.0
    for theta in np.linspace(0.0, math.pi, 21):
        for phi in np.linspace(0.0, 2.0 * math.pi, 5):
            state = InputState(float(theta), float(phi))
            err_inertial = max(
                err_inertial, abs(fisher(state, PHI_PLUS, inertial, "theta").value - 1.0)
            )
            err_inertial = max(
                err_inertial,
                abs(fisher(state, PHI_PLUS, inertial, "phi").value - math.sin(float(theta)) ** 2),
            )

    # At r = 0 exactly the branch state is pure and the acceleration
    # derivative vanishes, so the constant holds on (0, pi/4].
    err_fr = 0.0
    for r in np.linspace(0.0, math.pi / 4, 22)[1:]:
        value = fisher(InputState(0.0, math.pi / 4), PHI_PLUS, mode_params(float(r), "wsma"), "r").value
        err_fr = max(err_fr, abs(value - 4.0))

    err_scale = 0.0
    for d in (PHI_PLUS, SINGLET):
        for theta, phi in ((0.3, 0.7), (1.2, 2.5), (2.4, 4.9), (math.pi / 2, math.pi / 4)):
            state = InputState(theta, phi)
            for param in ("theta", "phi", "r"):
                f_n = fisher(state, d, inertial, param, mode="normalized").value
                f_p = fisher(state, d, inertial, param, mode="as-published").value
                err_scale = max(err_scale, abs(f_p - f_n / 16.0))

    worst = max(err_cos, err_inertial, err_fr, err_scale)
    ok = worst < tol
    assert _line(
        4,
        "closed-form anchors",
        ok,
        f"cos^2r {err_cos:.3e}, r=0 values {err_inertial:.3e}, "
        f"F_r=4 {err_fr:.3e}, 1/16 scaling {err_scale:.3e}, all < 1e-9",
    )


def test_criterion_5_derivative_cross_validation():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    compared = 0
    for _ in range(500):
        state, d, u = sample_input(rng), sample_dyadic(rng), sample_unruh(rng)
        for mode in ("normalized", "as-published"):
            for param in ("theta", "phi", "r"):
                analytic = bloch_partial(state, d, u, param, mode, "analytic")
                scale = float(np.linalg.norm(analytic))
                if scale <= 1e-3:
                    continue
                numeric = bloch_partial(state, d, u, param, mode, "fd")
                worst = max(worst, float(np.linalg.norm(analytic - numeric)) / scale)
                compared += 1
    ok = worst < 1e-6 and compared > 0
    assert _line(
        5,
        "derivative cross-validation",
        ok,
        f"max rel err {worst:.3e} < 1e-6 over {compared} comparisons",
    )


def test_criterion_6_physicality_suite(channel_draws, teleport_draws):
    err_channel = 0.0
    for d, u in channel_draws:
        m = accelerated_density(accelerate(d, u))
        err_channel = max(err_channel, float(np.max(np.abs(m - m.conj().T))))
        err_channel = max(err_channel, abs(float(np.trace(m).real) - 1.0))
        err_channel = max(err_channel, max(0.0, -float(np.linalg.eigvalsh(m)[0])))

    err_bob = 0.0
    for state, d, u in teleport_draws:
        bob = teleport_analytic(state, accelerate(d, u))
        err_bob = max(err_bob, float(np.max(np.abs(bob.rho - bob.rho.conj().T))))
        err_bob = max(err_bob, abs(float(np.trace(bob.rho_normalized).real) - 1.0))
        err_bob = max(err_bob, max(0.0, -float(np.linalg.eigvalsh(bob.rho_normalized)[0])))

    fisher_ok = True
    min_fisher = math.inf
    for fig_id in FIGURE_IDS:
        rows = run_sweep(figure_spec(fig_id))
        values = rows.fisher
        fisher_ok = fisher_ok and bool(np.all(np.isfinite(values)))
        min_fisher = min(min_fisher, float(values.min()))

    ok = err_channel < 1e-12 and err_bob < 1e-12 and fisher_ok and min_fisher >= -1e-9
    assert _line(
        6,
        "physicality suite",
        ok,
        f"channel err {err_channel:.3e}, branch err {err_bob:.3e} (< 1e-12); "
        f"figure sweeps finite with min {min_fisher:.3e} >= -1e-9",
    )


def test_criterion_7_qualitative_figure_check():
    # Verified against the finite-difference backend before being pinned.
    state = InputState(math.pi / 4, math.pi / 4)
    grid = np.linspace(0.0, math.pi / 4, 64)
    analytic = np.array(
        [
            fisher(state, PHI_PLUS, mode_params(float(r), "wsma"), "theta",
                   mode="as-published").value
            for r in grid
        ]
    )
    numeric = np.array(
        [
            fisher(state, PHI_PLUS, mode_params(float(r), "wsma"), "theta",
                   mode="as-published", method="fd").value
            for r in grid
        ]
    )
    strictly_decreasing = bool(np.all(np.diff(analytic) < 0.0))
    fd_agrees = bool(np.all(np.diff(numeric) < 0.0)) and float(
        np.max(np.abs(analytic - numeric))
    ) < 1e-9
    ok = strictly_decreasing and fd_agrees
    assert _line(
        7,
        "weight information strictly decreasing in r",
        ok,
        f"64-point grid, f(0)={analytic[0]:.6f} -> f(pi/4)={analytic[-1]:.6f}, "
        f"fd backend agrees within {np.max(np.abs(analytic - numeric)):.3e}",
    )


def test_criterion_8_mutation_detected():
    # The swapped cross coefficient must trip the oracle equivalence and the
    # Hermiticity gate for a channel whose cross terms differ.
    d = SINGLET
    u = mode_params(math.pi / 8, "wsma")
    good = accelerate(d, u)
    mutant = copy.copy(good)
    object.__setattr__(mutant, "b7", good.b3)  # the swapped-b7 slip: b7 := b3

    m = accelerated_density(mutant)
    hermiticity_violation = float(np.max(np.abs(m - m.conj().T)))

    state = InputState(1.1, 0.9)
    analytic = teleport_analytic(state, mutant)
    circuit = teleport_circuit_oracle(state, bogoliubov_oracle(d, u))
    oracle_gap = float(np.max(np.abs(analytic.rho - circuit.rho)))

    ok = hermiticity_violation > 1e-12 and oracle_gap > 1e-12
    assert _line(
        8,
        "mutation test detects swapped b7",
        ok,
        f"hermiticity gap {hermiticity_violation:.3e} and oracle gap {oracle_gap:.3e}, "
        f"both far above 1e-12",
    )


def test_criterion_9_determinism():
    first = verify(trials=1000, seed=42).render()
    second = verify(trials=1000, seed=42).render()
    reports_identical = first == second

    emissions_identical = True
    for fig_id in FIGURE_IDS:
        outputs = []
        for _ in range(2):
            spec = figure_spec(fig_id)
            rows = run_sweep(spec)
            outputs.append(render_rows(spec, rows, "csv") + render_rows(spec, rows, "json"))
        emissions_identical = emissions_identical and outputs[0] == outputs[1]

    ok = reports_identical and emissions_identical and "result: PASS" in first
    assert _line(
        9,
        "determinism",
        ok,
        "verify(1000, 42) byte-identical across runs; all 16 figure emissions "
        "byte-identical across runs",
    )
