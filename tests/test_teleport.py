import math

import numpy as np
import pytest

from unruh_teleport import (
    AcceleratedChannel,
    DegenerateBranchError,
    DomainError,
    InputState,
    accelerate,
    bloch_of,
    bogoliubov_oracle,
    mode_params,
    preset_dyadic,
    teleport_analytic,
    teleport_circuit_oracle,
    teleport_closed_form,
)
from unruh_teleport import teleport
from unruh_teleport.channels import X_STATE_EXAMPLE
from unruh_teleport.fisher import _point
from unruh_teleport._linalg import _kron, _matrices
from unruh_teleport.unruh import _accelerate, _bogoliubov_oracle
from unruh_teleport.verify import sample_draws

from samplers import sample_dyadic, sample_input, sample_unruh

PHI_PLUS = preset_dyadic("bell-phi-plus")
SINGLET = preset_dyadic("bell-psi-minus")
X_STATE = preset_dyadic("x-state", c11=-0.9, c22=-0.8, c33=-0.7)
EPS = np.finfo(float).eps


class TestInputState:
    def test_angle_ranges(self):
        with pytest.raises(DomainError, match="theta"):
            InputState(-0.1, 0.0)
        with pytest.raises(DomainError, match="theta"):
            InputState(math.pi + 0.1, 0.0)
        with pytest.raises(DomainError, match="phi"):
            InputState(0.1, 2.0 * math.pi + 0.1)

    def test_amplitudes_normalized(self):
        state = InputState(1.234, 4.321)
        assert abs(state.alpha**2 + abs(state.beta) ** 2 - 1.0) < 1e-15


class TestInertialBellTeleport:
    def test_exact_teleportation_at_r0(self):
        rng = np.random.default_rng(21)
        ch = accelerate(PHI_PLUS, mode_params(0.0, "wsma"))
        for _ in range(50):
            state = sample_input(rng)
            bob = teleport_analytic(state, ch)
            assert abs(bob.outcome_prob - 0.25) < 1e-12
            assert np.max(np.abs(bob.rho_normalized - state.density())) < 1e-12
            # fidelity against the pure input
            amp = np.array([state.alpha, state.beta])
            fid = (amp.conj() @ bob.rho_normalized @ amp).real
            assert abs(fid - 1.0) < 1e-12

    def test_plus_state(self):
        bob = teleport_analytic(
            InputState(math.pi / 2, 0.0), accelerate(PHI_PLUS, mode_params(0.0, "wsma"))
        )
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert abs(bob.outcome_prob - 0.25) < 1e-12
        assert np.max(np.abs(bob.rho_normalized - plus)) < 1e-12


class TestBranchStructure:
    def test_classical_input_has_no_coherences(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            ch = accelerate(sample_dyadic(rng), sample_unruh(rng))
            bob = teleport_analytic(InputState(0.0, 1.3), ch)
            assert bob.rho[0, 1] == 0.0 and bob.rho[1, 0] == 0.0

    def test_outcome_probability_is_quarter(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            ch = accelerate(sample_dyadic(rng), sample_unruh(rng))
            bob = teleport_analytic(sample_input(rng), ch)
            assert abs(bob.outcome_prob - 0.25) < 1e-12

    def test_branch_state_hermitian(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            state, d, u = sample_input(rng), sample_dyadic(rng), sample_unruh(rng)
            rho = teleport_closed_form(state, d, u).rho
            assert abs(rho[1, 0] - rho[0, 1].conjugate()) < 1e-12

    def test_pinned_singlet_branch(self):
        # Frozen after first computation; independently confirmed by the
        # circuit oracle below.
        bob = teleport_closed_form(
            InputState(math.pi / 2, math.pi / 4), SINGLET, mode_params(math.pi / 8, "wsma")
        )
        expected = np.array(
            [
                [0.1066941738241592 + 0.0j, -0.08166018530477354 - 0.08166018530477352j],
                [-0.08166018530477354 + 0.08166018530477352j, 0.14330582617584078 + 0.0j],
            ]
        )
        assert np.max(np.abs(bob.rho - expected)) < 1e-15
        assert abs(bob.outcome_prob - 0.25) < 1e-15


class TestCircuitOracle:
    def test_matches_analytic_on_random_draws(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            state, d, u = sample_input(rng), sample_dyadic(rng), sample_unruh(rng)
            analytic = teleport_analytic(state, accelerate(d, u))
            circuit = teleport_circuit_oracle(state, bogoliubov_oracle(d, u))
            assert np.max(np.abs(analytic.rho - circuit.rho)) < 1e-12
            assert abs(analytic.outcome_prob - circuit.outcome_prob) < 1e-12

    def test_maximally_mixed_channel_transfers_nothing(self):
        rng = np.random.default_rng(26)
        channel = np.eye(4, dtype=complex) / 4.0
        for _ in range(10):
            bob = teleport_circuit_oracle(sample_input(rng), channel)
            assert np.max(np.abs(bob.rho_normalized - np.eye(2) / 2.0)) < 1e-12

    def test_result_does_not_alias_constants(self):
        # The gates are built once; editing a returned branch state in place
        # must not change the next result.
        state, oracle = InputState(1.0, 0.3), bogoliubov_oracle(X_STATE, mode_params(0.4, "bsma"))
        expected = teleport_circuit_oracle(state, oracle)
        first = teleport_circuit_oracle(state, oracle)
        first.rho[...] = 5.0
        first.rho_normalized[...] = 5.0
        again = teleport_circuit_oracle(state, oracle)
        assert np.array_equal(again.rho, expected.rho)
        assert np.array_equal(again.rho_normalized, expected.rho_normalized)

    def test_unnormalized_channel_fails_probability_bookkeeping(self):
        channel = np.eye(4, dtype=complex) / 8.0  # trace 1/2
        with pytest.raises(DomainError):
            teleport_circuit_oracle(InputState(1.0, 1.0), channel)

    @pytest.mark.parametrize("entry, change", [
        (None, None), ((0, 0), 2e-9), ((1, 1), 2e-9j), ((0, 3), math.nan), ((3, 0), math.inf),
        ((2, 2), math.nan),
    ])
    def test_channel_off_unit_trace_or_non_finite_is_refused(self, entry, change):
        # The identity matrix, or a valid density with one entry moved: the trace off by
        # more than 1e-9, or an entry that is not finite.
        channel = np.eye(4)
        if entry is not None:
            channel = bogoliubov_oracle(X_STATE, mode_params(0.3, "bsma"))
            channel[entry] += change
        with pytest.raises(DomainError, match="channel_density must be finite with trace 1"):
            teleport_circuit_oracle(InputState(1.0, 1.0), channel)

    def test_trace_within_1e_9_of_1_is_accepted(self):
        channel = bogoliubov_oracle(X_STATE, mode_params(0.3, "bsma"))
        channel[0, 0] += 5e-10
        channel[1, 1] += 5e-10j
        teleport_circuit_oracle(InputState(1.0, 1.0), channel)


class TestCoefficientVsClosedForm:
    def test_agreement_on_grid(self):
        # The 9 x 17 x 17 grid (r, theta, phi) in one broadcast call per form, and one of
        # its points through the public functions, for each preset and mode.
        presets = [PHI_PLUS, SINGLET, preset_dyadic("werner", fidelity=0.62), X_STATE]
        r, theta, phi = np.ix_(np.linspace(0.0, math.pi / 4, 9), np.linspace(0.0, math.pi, 17),
                               np.linspace(0.0, 2.0 * math.pi, 17))
        worst = 0.0
        for d in presets:
            for mode in ("wsma", "bsma"):
                u = mode_params(0.0, mode)
                b = _accelerate(*d.as_tuple(), r, u.qr, u.ql)
                a = teleport._teleport_analytic(theta, phi, *b)
                closed = teleport._bloch_matrix(*teleport._branch_bloch(theta, phi, *d.as_tuple(),
                                                                        r, u.qr, u.ql)[0])
                worst = max(worst, float(np.max(np.abs(a - closed))))
                state = InputState(float(theta[0, 5, 0]), float(phi[0, 0, 11]))
                u = mode_params(float(r[6, 0, 0]), mode)
                a = teleport_analytic(state, accelerate(d, u)).rho
                closed = teleport_closed_form(state, d, u).rho
                worst = max(worst, float(np.max(np.abs(a - closed))))
        assert worst < 1e-12


class TestDegenerateBranch:
    def test_analytic_zero_branch(self):
        # Valid coefficients (unreachable by acceleration) with an empty
        # 00-branch for a classical |0> input.
        ch = AcceleratedChannel(0.0, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.5)
        with pytest.raises(DegenerateBranchError):
            teleport_analytic(InputState(0.0, 0.0), ch)

    def test_small_branch_is_normalized(self):
        # A 00-branch of probability 5e-11 lies above DEGENERATE_PROB (1e-15), so it is kept.
        ch = AcceleratedChannel(5e-11, 0.0, 0.0, 5e-11, 0.5 - 5e-11, 0.0, 0.0, 0.5 - 5e-11)
        bob = teleport_analytic(InputState(0.0, 0.0), ch)
        assert abs(bob.outcome_prob - 5e-11) <= 1e-24
        assert abs(np.trace(bob.rho_normalized).real - 1.0) <= 1e-15

    def test_circuit_zero_branch(self):
        channel = np.zeros((4, 4), dtype=complex)
        channel[2, 2] = 1.0  # |10><10|
        with pytest.raises(DegenerateBranchError):
            teleport_circuit_oracle(InputState(0.0, 0.0), channel)


class TestBlochOf:
    def test_maximally_mixed(self):
        assert np.array_equal(bloch_of(np.eye(2, dtype=complex) / 2.0), np.zeros(3))

    def test_ground_state(self):
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        assert np.array_equal(bloch_of(rho), np.array([0.0, 0.0, 1.0]))

    def test_zero_component_is_positive_zero(self):
        # Im rho10 = -0.0 and Im rho01 = +0.0 give sy = -0.0 until bloch_of adds 0.0.
        rho = np.array([[0.6, 0.0], [-0.0j, 0.4]], dtype=complex)
        assert rho[1, 0].imag == 0.0 and math.copysign(1.0, rho[1, 0].imag) == -1.0
        assert math.copysign(1.0, bloch_of(rho)[1]) == 1.0

    def test_plus_state(self):
        rho = np.full((2, 2), 0.5, dtype=complex)
        assert np.allclose(bloch_of(rho), np.array([1.0, 0.0, 0.0]), atol=1e-15)

    def test_norm_bound_for_normalized_states(self):
        rng = np.random.default_rng(27)
        for _ in range(100):
            state, d, u = sample_input(rng), sample_dyadic(rng), sample_unruh(rng)
            s = bloch_of(teleport_closed_form(state, d, u).rho_normalized)
            assert np.linalg.norm(s) <= 1.0 + 1e-12


class TestBroadcastForms:
    def test_stacked_draws_equal_the_public_functions(self):
        # Each broadcasting form over stacked draws gives, at every draw, the
        # public function's branch matrix at that draw: bit for bit, except
        # that numpy's array loops may fuse the coefficient form's complex
        # products (multiply-add) where its scalar arithmetic does not.
        rng = np.random.default_rng(12)
        draws = [(sample_input(rng), sample_dyadic(rng), sample_unruh(rng)) for _ in range(40)]
        points = [_point(*draw) for draw in draws]
        p = {key: np.array([q[key] for q in points]) for key in points[0]}
        channels = [accelerate(d, u) for _, d, u in draws]
        b = [np.array(column) for column in zip(*(ch.as_tuple() for ch in channels))]
        oracles = np.array([bogoliubov_oracle(d, u) for _, d, u in draws])
        analytic = teleport._teleport_analytic(p["theta"], p["phi"], *b)
        circuit = teleport._teleport_circuit_oracle(p["theta"], p["phi"], oracles)
        closed = teleport._bloch_matrix(*teleport._branch_bloch(**p)[0])
        for i, ((state, d, u), ch) in enumerate(zip(draws, channels)):
            assert np.max(np.abs(analytic[i] - teleport_analytic(state, ch).rho)) <= EPS
            assert np.array_equal(circuit[i], teleport_circuit_oracle(state, oracles[i]).rho)
            assert np.array_equal(closed[i], teleport_closed_form(state, d, u).rho)


def _projected_circuit_oracle(theta, phi, channel_density):
    # The circuit oracle's branch by projection and partial trace: the sender's
    # qubits projected onto |00> by a 0/1 diagonal sandwich, then traced out.
    beta = np.sin(theta / 2.0) * np.exp(1.0j * phi)
    amp = _matrices(2, 1, {(0, 0): np.cos(theta / 2.0), (1, 0): beta})
    input_density = amp * np.swapaxes(amp, -1, -2).conj()
    cnot, hadamard = teleport._CNOT_GATE, teleport._HADAMARD_GATE
    evolved = (
        hadamard @ cnot @ _kron(input_density, channel_density)
        @ cnot.conj().T @ hadamard.conj().T
    )
    proj_00 = np.kron(np.diag([1.0, 0.0, 0.0, 0.0]), np.eye(2)).astype(complex)
    projected = proj_00 @ evolved @ proj_00
    return np.einsum("...aiaj->...ij", projected.reshape(*projected.shape[:-2], 4, 2, 4, 2))


class TestCircuitOracleBlock:
    def test_seeded_draws_equal_projection_and_partial_trace(self):
        p = sample_draws(11, 2000)
        oracles = _bogoliubov_oracle(p["c11"], p["c22"], p["c33"], p["r"], p["qr"], p["ql"])
        circuit = teleport._teleport_circuit_oracle(p["theta"], p["phi"], oracles)
        assert circuit.shape == (2000, 2, 2)
        assert np.array_equal(circuit, _projected_circuit_oracle(p["theta"], p["phi"], oracles))

    def test_presets_at_r0_equal_projection_and_partial_trace(self):
        # The six presets of verify's invariant suite, inertial in both modes,
        # on a grid of input states that includes the poles.
        presets = [
            PHI_PLUS, SINGLET,
            preset_dyadic("werner", fidelity=0.0), preset_dyadic("werner", fidelity=0.5),
            preset_dyadic("werner", fidelity=1.0), preset_dyadic("x-state", **X_STATE_EXAMPLE),
        ]
        theta, phi = np.ix_(np.linspace(0.0, math.pi, 7), np.linspace(0.0, 2.0 * math.pi, 7))
        for d in presets:
            for mode in ("wsma", "bsma"):
                oracle = bogoliubov_oracle(d, mode_params(0.0, mode))
                circuit = teleport._teleport_circuit_oracle(theta, phi, oracle)
                assert circuit.shape == (7, 7, 2, 2)
                assert np.array_equal(circuit, _projected_circuit_oracle(theta, phi, oracle))
