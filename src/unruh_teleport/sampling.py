"""Seeded random draws shared by the verification suite and the tests.

``sample_draws`` gives the scalar samplers' draws as arrays, bit for bit: it reads
one buffer of doubles in stream order, accepts a dyadic by the closed-form Bell
eigenvalues and confirms each decision by ``eigvalsh``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ._linalg import _abs2, _min_eigenvalues
from .channels import (
    EIGENVALUE_TOL, CorrelationDyadic, _bell_eigenvalues, _dyadic_to_density, validate_physical
)
from .errors import ConsistencyError, DomainError
from .fisher import VARIABLE_DOMAINS
from .teleport import InputState
from .unruh import R_MAX, WEIGHT_NORM_TOL, UnruhParams

# Slots of one dyadic candidate (3 doubles) per draw in the first buffer. A draw
# takes 2 slots and one per candidate, 3 candidates on average.
SLOTS_PER_DRAW = 6


def sample_dyadic(rng: np.random.Generator, physical: bool = True) -> CorrelationDyadic:
    """Uniform draw from [-1, 1]^3, rejection-sampled to physical states by default."""
    while True:
        d = CorrelationDyadic(*rng.uniform(-1.0, 1.0, 3))
        if not physical or validate_physical(d).physical:
            return d


def sample_unruh(rng: np.random.Generator) -> UnruhParams:
    """Uniform r in [0, pi/4] with complex weights on the normalization circle."""
    r = float(rng.uniform(0.0, R_MAX))
    mu = float(rng.uniform(0.0, math.pi / 2.0))
    chi, xi = rng.uniform(0.0, 2.0 * math.pi, 2)
    return UnruhParams(
        r,
        math.cos(mu) * cmath.exp(1.0j * chi),
        math.sin(mu) * cmath.exp(1.0j * xi),
    )


def sample_input(rng: np.random.Generator) -> InputState:
    return InputState(float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 2.0 * math.pi)))


def sample_draws(seed: int, n: int, block: int) -> dict[str, np.ndarray]:
    """``n >= 1`` turns of ``sample_input``, ``sample_dyadic`` and ``sample_unruh`` on
    ``default_rng(seed)``, bit for bit, as one array per key of ``fisher._point``. Each
    accept decision is confirmed by ``eigvalsh`` (the rule of ``validate_physical``),
    ``block`` candidates at a time."""
    slots = SLOTS_PER_DRAW * n
    while True:
        u = np.random.default_rng(seed).random(2 + 3 * slots)
        # Slot j is the candidate at offset 2 + 3j: a draw reads its 2 angles, 3 doubles
        # per candidate, then its 4 weights, 3 slots' worth with the next draw's angles.
        c = [_uniform(u[k::3], -1.0, 1.0) for k in (2, 3, 4)]
        accept = _bell_eigenvalues(*c).min(axis=-1) >= -EIGENVALUE_TOL
        visited, slot, decisions = [], 0, accept.tolist()
        for _ in range(n):
            while slot < slots and not decisions[slot]:
                visited.append(slot)
                slot += 1
            visited.append(slot)
            slot += 3
        if slot <= slots:
            break
        slots *= 2  # a fresh generator: the longer buffer starts with the same doubles
    visited = np.array(visited)
    for first in range(0, len(visited), block):
        part = visited[first:first + block]
        physical = _min_eigenvalues(_dyadic_to_density(*(x[part] for x in c))) >= -EIGENVALUE_TOL
        if np.any(physical != accept[part]):
            raise ConsistencyError(f"closed-form physicality disagrees with eigvalsh at {part}")
    chosen = visited[accept[visited]]
    at = 3 * chosen + 5  # the offset of each draw's r; the next draw's angles follow xi
    start = np.concatenate([[0], at[:-1] + 4])
    mu, chi, xi = (_uniform(u[at + i], 0.0, high).tolist()
                   for i, high in ((1, math.pi / 2.0), (2, 2.0 * math.pi), (3, 2.0 * math.pi)))
    dyadic = dict(zip(("c11", "c22", "c33"), (x[chosen] for x in c)))
    draws = {
        "theta": _uniform(u[start], 0.0, math.pi),
        "phi": _uniform(u[start + 1], 0.0, 2.0 * math.pi),
        **dyadic,
        "r": _uniform(u[at], 0.0, R_MAX),
        # The weights as sample_unruh forms them, with math and cmath per draw.
        "qr": np.array([math.cos(m) * cmath.exp(1.0j * x) for m, x in zip(mu, chi)]),
        "ql": np.array([math.sin(m) * cmath.exp(1.0j * x) for m, x in zip(mu, xi)]),
    }
    # The domain checks of the value types.
    for key, (low, high) in {**VARIABLE_DOMAINS, **dict.fromkeys(dyadic, (-1.0, 1.0))}.items():
        if not np.all((low <= draws[key]) & (draws[key] <= high)):
            raise DomainError(f"{key} draws must lie in [{low}, {high}]")
    if not np.all(np.abs(_abs2(draws["qr"]) + _abs2(draws["ql"]) - 1.0) <= WEIGHT_NORM_TOL):
        raise DomainError(f"|qr|^2 + |ql|^2 draws must equal 1 within {WEIGHT_NORM_TOL}")
    return draws


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """``Generator.uniform(low, high)`` from the doubles ``u`` that it would read."""
    return low + (high - low) * u
