"""Dense linear-algebra helpers for two- and three-qubit matrices."""

from __future__ import annotations

from collections.abc import Mapping

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
    """Elementwise squared modulus ``re*re + im*im``."""
    return np.real(z) * np.real(z) + np.imag(z) * np.imag(z)


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


def _hermiticity_gaps(m: np.ndarray) -> np.ndarray:
    """Largest elementwise deviation from the conjugate transpose, over leading axes."""
    return np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()), axis=(-2, -1))


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian matrices; NaN for a matrix with a non-finite entry."""
    finite = np.isfinite(m).all(axis=(-2, -1), keepdims=True)
    return np.where(finite[..., 0], np.linalg.eigvalsh(np.where(finite, m, 0.0)), np.nan)


def _min_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalues of Hermitian matrices, over leading axes."""
    return _eigenvalues(m)[..., 0]
