"""Dense linear-algebra helpers for two- and three-qubit matrices."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np
from numpy.typing import ArrayLike

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


def _abs2(z: ArrayLike) -> np.ndarray:
    """Elementwise ``abs(z) ** 2`` to the bit: hypot, then libm pow (not always x * x)."""
    return np.float_power(np.hypot(np.real(z), np.imag(z)), 2.0)


def _matrices(rows: int, cols: int, entries: Mapping[tuple[int, int], ArrayLike]) -> np.ndarray:
    """Complex matrices (last two axes) holding ``entries`` at their (row, column)
    and zeros elsewhere; broadcasts over the entries."""
    m = np.zeros((*np.broadcast(*entries.values()).shape, rows, cols), dtype=complex)
    for (i, j), value in entries.items():
        m[..., i, j] = value
    return m


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products over the last two axes, as ``np.kron``; broadcasts."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``dims`` gives the local dimension of each factor; the result keeps the
    factors in their original order. Broadcasts over leading axes of ``rho``.
    """
    n = len(dims)
    keep = list(keep)
    lead = rho.shape[:-2]
    reshaped = rho.reshape(*lead, *dims, *dims)
    indices = list(range(2 * n))
    for i in range(n):
        if i not in keep:
            indices[n + i] = indices[i]
    out = [indices[i] for i in keep] + [indices[n + i] for i in keep]
    kept_dim = int(np.prod([dims[i] for i in keep]))
    traced = np.einsum(reshaped, [Ellipsis, *indices], [Ellipsis, *out])
    return traced.reshape(*lead, kept_dim, kept_dim)


def _hermiticity_gaps(m: np.ndarray) -> np.ndarray:
    """Largest elementwise deviation from the conjugate transpose, over leading axes."""
    return np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), axis=(-2, -1))


def hermiticity_gap(m: np.ndarray) -> float:
    """Largest elementwise deviation of ``m`` from its conjugate transpose."""
    return float(_hermiticity_gaps(m))


def _min_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalues of Hermitian matrices, over leading axes."""
    return np.linalg.eigvalsh(m)[..., 0]


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(_min_eigenvalues(m))
