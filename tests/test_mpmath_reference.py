"""The Bloch kernel against the coefficient algebra written out in mpmath.

verify [4] compares the analytic partials with central differences of the same
closed form, so this module is the independent check of the derivative: the
accelerated coefficients and the 00-branch entries at 40 digits, differentiated
by a central difference of step 1e-15.
"""

import math

import mpmath
import numpy as np

from unruh_teleport import preset_dyadic
from unruh_teleport.channels import X_STATE_EXAMPLE
from unruh_teleport.fisher import PARAM_NAMES, _bloch, _partial
from unruh_teleport.unruh import MODE_WEIGHTS, R_MAX
from unruh_teleport.verify import sample_draws

DIGITS = 40
STEP = mpmath.mpf("1e-15")
TOL = 1e-15
SEED = 5
WEIGHTS = {**MODE_WEIGHTS, "0.6-0.8i": (0.6 + 0.0j, 0.8j)}
EDGE_CHANNELS = ("bell-phi-plus", "bell-psi-minus", "x-state")


def mp_bloch(theta, phi, c11, c22, c33, r, qr, ql):
    """Normalized Bloch vector of the branch state from the coefficients b1..b8."""
    a1, a2, a3, a4 = (1 + c33) / 4, (1 - c33) / 4, (c11 + c22) / 4, (c11 - c22) / 4
    cr, sr = mpmath.cos(r), mpmath.sin(r)
    big_r, big_l = abs(qr) ** 2, abs(ql) ** 2
    qrc, qlc = mpmath.conj(qr), mpmath.conj(ql)
    b1, b4 = a1 * cr**2 + a2 * big_l, a1 * sr**2 + a2 * big_r
    b5, b8 = a2 * cr**2 + a1 * big_l, a2 * sr**2 + a1 * big_r
    b2, b3 = a4 * qrc * cr + a3 * ql * sr, a3 * qlc * sr + a4 * qr * cr
    b6, b7 = a3 * qrc * cr + a4 * ql * sr, a3 * qr * cr + a4 * qlc * sr
    alpha = mpmath.cos(theta / 2)
    beta = mpmath.sin(theta / 2) * mpmath.expj(phi)
    ab = alpha * mpmath.conj(beta)
    ba = mpmath.conj(ab)
    r00 = (alpha**2 * b1 + abs(beta) ** 2 * b5) / 2
    r11 = (alpha**2 * b4 + abs(beta) ** 2 * b8) / 2
    r01, r10 = (ab * b2 + ba * b6) / 2, (ab * b7 + ba * b3) / 2
    s = (mpmath.re(r01 + r10), mpmath.im(r10) - mpmath.im(r01), mpmath.re(r00 - r11))
    return [x / mpmath.re(r00 + r11) for x in s]


def reference(point: dict) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The Bloch vector at ``point`` and its central differences in each estimand."""
    with mpmath.workdps(DIGITS):
        p = {key: mpmath.mpmathify(value) for key, value in point.items()}
        s = mp_bloch(**p)
        ds = {}
        for param in PARAM_NAMES:
            plus = mp_bloch(**{**p, param: p[param] + STEP})
            minus = mp_bloch(**{**p, param: p[param] - STEP})
            ds[param] = np.array([float((a - b) / (2 * STEP)) for a, b in zip(plus, minus)])
        return np.array([float(x) for x in s]), ds


def reference_points(seed: int) -> list[dict]:
    """The seeded draws and the domain edges on three channels, under every weight pair."""
    draws = sample_draws(seed, 64)
    points = []
    for qr, ql in WEIGHTS.values():
        points += [
            {**{key: column[i].item() for key, column in draws.items()}, "qr": qr, "ql": ql}
            for i in range(64)
        ]
        for name in EDGE_CHANNELS:
            d = vars(preset_dyadic(name, **X_STATE_EXAMPLE))
            for theta in (0.0, math.pi):
                for phi in (0.0, 2.0 * math.pi):
                    for r in (0.0, R_MAX):
                        points.append(
                            {"theta": theta, "phi": phi, **d, "r": r, "qr": qr, "ql": ql}
                        )
    return points


def test_bloch_and_analytic_partials_match_mpmath():
    points = reference_points(SEED)
    p = {key: np.array([q[key] for q in points]) for key in points[0]}
    s = _bloch(p, "normalized")
    partials = {param: _partial(p, param, "normalized", "analytic") for param in PARAM_NAMES}
    for i, point in enumerate(points):
        s_ref, ds_ref = reference(point)
        assert np.max(np.abs(s[i] - s_ref)) <= TOL, point
        for param in PARAM_NAMES:
            assert np.max(np.abs(partials[param][i] - ds_ref[param])) <= TOL, (param, point)
