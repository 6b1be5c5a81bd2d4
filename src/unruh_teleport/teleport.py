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
``teleport_closed_form`` from the affine Bloch action of the channel and the
receiver's Kraus pair (``_branch_bloch``, whose one pass gives the Fisher kernel
s and its partials); ``teleport_circuit_oracle`` runs the full three-qubit
circuit and is the independent reference for both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from ._linalg import CNOT, HADAMARD, IDENTITY_2, _abs2, _kron, _matrices
from .channels import CorrelationDyadic
from .errors import DegenerateBranchError, DomainError, check_array, check_fields, check_real
from .unruh import R_MAX, AcceleratedChannel, UnruhParams

VARIABLE_DOMAINS: dict[str, tuple[float, float]] = {
    "theta": (0.0, math.pi),
    "phi": (0.0, 2.0 * math.pi),
    "r": (0.0, R_MAX),
}
# Largest fd step accepted: pi/12, a third of the r range.
MAX_FD_STEP = R_MAX / 3.0
# How refusals write those ranges, the fd step's and omega's and c's.
_RANGE_TEXTS = {**dict(zip(VARIABLE_DOMAINS.values(), ("[0, pi]", "[0, 2pi]", "[0, pi/4]"))),
                (math.ulp(0.0), MAX_FD_STEP): "(0, pi/12]", (math.ulp(0.0), math.inf): "(0, inf]"}
DEGENERATE_PROB = 1e-15
# Constant factors of the circuit on (unknown, sender, receiver): CNOT from the
# unknown qubit onto the sender's, and Hadamard on the unknown qubit.
_CNOT_GATE = np.kron(CNOT, IDENTITY_2)
_HADAMARD_GATE = np.kron(HADAMARD, np.eye(4, dtype=complex))


@dataclass(frozen=True)
class InputState:
    """Weight and phase angles of the teleported pure state, stored as floats."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        for name in ("theta", "phi"):
            value = check_real(name, getattr(self, name), *VARIABLE_DOMAINS[name])
            object.__setattr__(self, name, value)

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


def _branch_matrix(r00: ArrayLike, r01: ArrayLike, r10: ArrayLike, r11: ArrayLike) -> np.ndarray:
    """Complex 2x2 matrices (last two axes) from their entries; broadcasts."""
    return _matrices(2, 2, {(0, 0): r00, (0, 1): r01, (1, 0): r10, (1, 1): r11})


def _teleport_analytic(theta: ArrayLike, phi: ArrayLike, *b: ArrayLike) -> np.ndarray:
    """Branch matrices (last two axes) of :func:`teleport_analytic` from the angles and
    the coefficients b1..b8; broadcasts over every argument."""
    b1, b2, b3, b4, b5, b6, b7, b8 = b
    alpha = np.cos(theta / 2.0)
    sb = np.sin(theta / 2.0)
    beta = sb * np.exp(1.0j * phi)
    alpha2 = alpha * alpha
    beta2 = sb * sb
    ab = alpha * beta.conjugate()
    ba = ab.conjugate()
    return 0.5 * _branch_matrix(
        alpha2 * b1 + beta2 * b5, ab * b2 + ba * b6, ab * b7 + ba * b3, alpha2 * b4 + beta2 * b8
    )


def teleport_analytic(state: InputState, ch: AcceleratedChannel) -> BobState:
    """Branch state assembled from the channel coefficients."""
    return _bob_state(_teleport_analytic(*check_fields(InputState, state).values(),
                                         *check_fields(AcceleratedChannel, ch).values()))


def _branch_bloch(
    theta: ArrayLike,
    phi: ArrayLike,
    c11: ArrayLike,
    c22: ArrayLike,
    c33: ArrayLike,
    r: ArrayLike,
    qr: ArrayLike,
    ql: ArrayLike,
    wrt: tuple[str, ...] = (),
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Normalized Bloch vectors of the branch state and then their partials in ``wrt``
    ("theta", "phi" or "r"): (x, y, z) components from one set of sines and cosines; broadcasts.

    The Bell-diagonal channel scales the input's Bloch vector n by
    (c11, -c22, c33), and the receiver's Kraus pair maps the result affinely:
    s = A(r) (T n) + b(r). s is linear in n and in (A, b), so a partial
    replaces one factor by its derivative.
    """
    st, ct = np.sin(theta), np.cos(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    trig = np.cos(r), np.sin(r), np.cos(2.0 * r), _abs2(ql) - _abs2(qr)
    vectors = []
    for name in ("s", *wrt):
        if name == "theta":
            n = (ct * cp, ct * sp, -st)
        elif name == "phi":
            n = (-st * sp, st * cp, 0.0)
        else:
            n = (st * cp, st * sp, ct)
        cr, sr, c2r, d = trig
        if name == "r":  # the derivatives of cos r, sin r and cos 2r; d does not move
            cr, sr, c2r, d = -sr, cr, -2.0 * np.sin(2.0 * r), 0.0
        x, y, z = c11 * n[0], -c22 * n[1], c33 * n[2]
        u = qr.conjugate() * cr + ql * sr
        w = qr.conjugate() * cr - ql * sr
        offset = 0.0 if name in ("theta", "phi") else (c2r + d) / 2.0
        sx = u.real * x + w.imag * y
        sy = w.real * y - u.imag * x
        sz = ((c2r - d) / 2.0) * z + offset
        vectors.append((sx, sy, sz))
    return vectors


def _bloch_matrix(sx: ArrayLike, sy: ArrayLike, sz: ArrayLike) -> np.ndarray:
    """Branch matrices (last two axes), of trace 1/4, of normalized Bloch vectors given
    as component columns; broadcasts."""
    return _branch_matrix(1.0 + sz, sx - 1.0j * sy, sx + 1.0j * sy, 1.0 - sz) / 8.0


def teleport_closed_form(state: InputState, d: CorrelationDyadic, u: UnruhParams) -> BobState:
    """Branch state from the closed-form Bloch vector in the angles and channel parameters.

    The same state as ``teleport_analytic`` composed with ``accelerate``: the
    one-point public form of ``_branch_bloch``, which verify and the Fisher kernel read.
    """
    p = {**check_fields(InputState, state), **check_fields(CorrelationDyadic, d)}
    return _bob_state(_bloch_matrix(*_branch_bloch(**p, **check_fields(UnruhParams, u))[0]))


def _teleport_circuit_oracle(
    theta: ArrayLike, phi: ArrayLike, channel_density: np.ndarray
) -> np.ndarray:
    """Branch matrices (last two axes) of :func:`teleport_circuit_oracle`, the |00>
    block of the sender's qubits, from only the gate rows and columns that reach it; broadcasts."""
    beta = np.sin(theta / 2.0) * np.exp(1.0j * phi)
    amp = _matrices(2, 1, {(0, 0): np.cos(theta / 2.0), (1, 0): beta})
    input_density = amp * np.swapaxes(amp, -1, -2).conj()
    return (
        (_HADAMARD_GATE @ _CNOT_GATE)[:2] @ _kron(input_density, channel_density)
        @ _CNOT_GATE.conj().T @ _HADAMARD_GATE.conj().T[:, :2]
    )


def teleport_circuit_oracle(state: InputState, channel_density: np.ndarray) -> BobState:
    """Branch state from the full three-qubit circuit.

    Forms input x channel on the factors (unknown, sender, receiver),
    applies CNOT (control = unknown qubit) then Hadamard on the unknown
    qubit, and reads the |00> block of the first two qubits, which is their
    projection onto |00> followed by the partial trace over them. The channel
    density must have finite entries and a trace within 1e-9 of 1.
    """
    m = check_array("channel_density must be a 4x4 matrix", channel_density, (4, 4), "complex")
    trace = np.trace(m)
    if not (np.isfinite(m).all() and abs(trace - 1.0) <= 1e-9):
        raise DomainError(f"channel_density must be finite with trace 1, got trace {trace}")
    return _bob_state(_teleport_circuit_oracle(*check_fields(InputState, state).values(), m))


def bloch_of(rho: np.ndarray) -> np.ndarray:
    """Bloch components (tr(rho sx), tr(rho sy), tr(rho sz)) of a 2x2 matrix, as the
    traces reduce to: sx = Re(rho01 + rho10), sy = Im rho10 - Im rho01,
    sz = Re(rho00 - rho11).

    Adding 0.0 writes a zero component as +0.0, the sign the traces of matrix
    products give it (Im rho10 = -0.0 and Im rho01 = +0.0 would give sy = -0.0).
    """
    rho = check_array("rho must be a 2x2 matrix", rho, (2, 2), "complex")
    (r00, r01), (r10, r11) = rho.astype(complex)
    return np.array([r01.real + r10.real, r10.imag - r01.imag, (r00 - r11).real]) + 0.0
