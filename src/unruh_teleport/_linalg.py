"""Dense linear-algebra helpers for two- and three-qubit matrices."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
# Control on the first factor, target on the second.
CNOT = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    dtype=complex,
)


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``dims`` gives the local dimension of each factor; the result keeps the
    factors in their original order.
    """
    n = len(dims)
    keep = list(keep)
    reshaped = rho.reshape(*dims, *dims)
    indices = list(range(2 * n))
    for i in range(n):
        if i not in keep:
            indices[n + i] = indices[i]
    out = [indices[i] for i in keep] + [indices[n + i] for i in keep]
    kept_dim = int(np.prod([dims[i] for i in keep]))
    return np.einsum(reshaped, indices, out).reshape(kept_dim, kept_dim)


def hermiticity_gap(m: np.ndarray) -> float:
    """Largest elementwise deviation of ``m`` from its conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T)))


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(m)[0])
