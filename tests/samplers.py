"""Scalar seeded samplers: one value type per call, drawn from a ``Generator``."""

from __future__ import annotations

import cmath
import math

import numpy as np

from unruh_teleport.channels import CorrelationDyadic, validate_physical
from unruh_teleport.teleport import InputState
from unruh_teleport.unruh import R_MAX, UnruhParams


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
