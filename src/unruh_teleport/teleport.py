"""Single-qubit teleportation through the (possibly accelerated) channel.

The sender holds the unknown state cos(theta/2)|0> + sin(theta/2)e^{i phi}|1>
and one half of the two-qubit channel. She applies a CNOT from the unknown
qubit onto her channel qubit, a Hadamard on the unknown qubit, and measures
both. Only the branch where she reads 00 is modelled here; on that branch no
corrective gate is applied to the receiver (for the (1, -1, 1) Bell channel
at zero acceleration the branch already reproduces the input exactly, which
pins the convention). The branch state is kept unnormalized with trace equal
to the outcome probability, identically 1/4 for unit-trace channels.

``teleport_analytic`` works from the channel coefficients, and
``teleport_closed_form`` from the angles and channel parameters directly;
``teleport_circuit_oracle`` runs the full three-qubit circuit and is the
independent reference for both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from ._linalg import CNOT, HADAMARD, IDENTITY_2, PAULIS, partial_trace
from .channels import CorrelationDyadic
from .errors import ConsistencyError, DegenerateBranchError, DomainError
from .unruh import AcceleratedChannel, UnruhParams

DEGENERATE_PROB = 1e-15
# Constant factors of the circuit on (unknown, sender, receiver): CNOT from the
# unknown qubit onto the sender's, Hadamard on the unknown qubit, and the
# projector onto the sender's 00 outcome.
_CNOT_GATE = np.kron(CNOT, IDENTITY_2)
_HADAMARD_GATE = np.kron(HADAMARD, np.eye(4, dtype=complex))
_PROJ_00 = np.kron(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex), IDENTITY_2)


@dataclass(frozen=True)
class InputState:
    """Weight and phase angles of the teleported pure state."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and 0.0 <= self.theta <= math.pi):
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")
        if not (math.isfinite(self.phi) and 0.0 <= self.phi <= 2.0 * math.pi):
            raise DomainError(f"phi must lie in [0, 2*pi], got {self.phi}")

    @property
    def alpha(self) -> float:
        return math.cos(self.theta / 2.0)

    @property
    def beta(self) -> complex:
        return math.sin(self.theta / 2.0) * cmath.exp(1.0j * self.phi)

    def density(self) -> np.ndarray:
        amp = np.array([self.alpha, self.beta], dtype=complex)
        return np.outer(amp, amp.conj())


@dataclass(frozen=True)
class BobState:
    """Receiver's conditional state for the sender's 00 outcome.

    ``rho`` is unnormalized with trace equal to ``outcome_prob``;
    ``rho_normalized`` is the corresponding trace-1 state.
    """

    rho: np.ndarray
    outcome_prob: float
    rho_normalized: np.ndarray


def _bob_state(rho: np.ndarray) -> BobState:
    prob = float(rho[0, 0].real + rho[1, 1].real)
    if prob <= DEGENERATE_PROB:
        raise DegenerateBranchError(
            f"outcome probability {prob} is too small to normalize the branch state"
        )
    return BobState(rho=rho, outcome_prob=prob, rho_normalized=rho / prob)


def teleport_analytic(state: InputState, ch: AcceleratedChannel) -> BobState:
    """Branch state assembled from the channel coefficients."""
    alpha, beta = state.alpha, state.beta
    a2 = alpha * alpha
    sb = math.sin(state.theta / 2.0)
    b2 = sb * sb
    ab = alpha * beta.conjugate()
    ba = ab.conjugate()
    rho = 0.5 * np.array(
        [
            [a2 * ch.b1 + b2 * ch.b5, ab * ch.b2 + ba * ch.b6],
            [ab * ch.b7 + ba * ch.b3, a2 * ch.b4 + b2 * ch.b8],
        ],
        dtype=complex,
    )
    return _bob_state(rho)


def _abs2(z: ArrayLike) -> np.ndarray:
    """Elementwise ``abs(z) ** 2`` to the bit: hypot, then libm pow (not always x * x)."""
    return np.float_power(np.hypot(np.real(z), np.imag(z)), 2.0)


def _branch_entries(
    theta: ArrayLike,
    phi: ArrayLike,
    c11: ArrayLike,
    c22: ArrayLike,
    c33: ArrayLike,
    r: ArrayLike,
    qr: ArrayLike,
    ql: ArrayLike,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Entries (rho00, rho01, rho10, rho11) of the branch state, written
    directly in the angles and channel parameters.

    Broadcasts over every argument. Algebraically identical to the
    coefficient form; both off-diagonals are spelled out independently so
    their mutual conjugacy stays a meaningful cross-check.
    """
    cr, sr = np.cos(r), np.sin(r)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    big_r, big_l = _abs2(qr), _abs2(ql)
    r00 = (cr * cr * (1.0 + c33 * ct) + big_l * (1.0 - c33 * ct)) / 8.0
    r11 = (sr * sr * (1.0 + c33 * ct) + big_r * (1.0 - c33 * ct)) / 8.0
    r01 = (st / 8.0) * (
        c11 * cp * (qr.conjugate() * cr + ql * sr)
        + 1.0j * c22 * sp * (qr.conjugate() * cr - ql * sr)
    )
    r10 = (st / 8.0) * (
        c11 * cp * (ql.conjugate() * sr + qr * cr)
        + 1.0j * c22 * sp * (ql.conjugate() * sr - qr * cr)
    )
    return r00, r01, r10, r11


def teleport_closed_form(state: InputState, d: CorrelationDyadic, u: UnruhParams) -> BobState:
    """Branch state from the closed-form angle expressions.

    Redundant with ``teleport_analytic`` composed with ``accelerate``; kept
    as an independent evaluation path for the verification suite.
    """
    r00, r01, r10, r11 = _branch_entries(**vars(state), **vars(d), **vars(u))
    return _bob_state(np.array([[r00, r01], [r10, r11]], dtype=complex))


def teleport_circuit_oracle(state: InputState, channel_density: np.ndarray) -> BobState:
    """Branch state from the full three-qubit circuit.

    Forms input x channel on the factors (unknown, sender, receiver),
    applies CNOT (control = unknown qubit) then Hadamard on the unknown
    qubit, projects the first two qubits onto |00> and traces them out.
    """
    full = np.kron(state.density(), channel_density)
    evolved = _HADAMARD_GATE @ _CNOT_GATE @ full @ _CNOT_GATE.conj().T @ _HADAMARD_GATE.conj().T

    diag = np.diag(evolved).real
    branch_probs = [diag[base] + diag[base + 1] for base in (0, 2, 4, 6)]
    if abs(sum(branch_probs) - 1.0) > 1e-9:
        raise ConsistencyError(
            f"branch probabilities sum to {sum(branch_probs)}, expected 1"
        )

    projected = _PROJ_00 @ evolved @ _PROJ_00
    rho = partial_trace(projected, (2, 2, 2), keep=(2,))
    return _bob_state(rho)


def bloch_of(rho: np.ndarray) -> np.ndarray:
    """Bloch components (tr(rho sx), tr(rho sy), tr(rho sz)) of a 2x2 matrix."""
    return np.array([np.trace(rho @ sigma).real for sigma in PAULIS])
