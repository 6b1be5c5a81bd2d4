import hashlib
import importlib
import itertools
import math

import numpy as np
import pytest

from unruh_teleport import (
    ConsistencyError,
    CorrelationDyadic,
    DomainError,
    InputState,
    bloch_partial,
    bloch_teleported,
    fisher,
    fisher_from_bloch,
    mode_params,
    preset_dyadic,
)
from unruh_teleport.fisher import (
    DEFAULT_FD_STEP, MAX_FD_STEP, METHOD_NAMES, NORM_NAMES, PARAM_NAMES, _fisher,
    _fisher_from_bloch, _pair, _scaled, _vectors,
)
from unruh_teleport.channels import X_STATE_EXAMPLE
from unruh_teleport.sweep import figure_spec
from unruh_teleport.unruh import MODE_WEIGHTS, R_MAX, UnruhParams
from unruh_teleport.verify import sample_draws

from samplers import sample_dyadic, sample_input, sample_unruh

PHI_PLUS = preset_dyadic("bell-phi-plus")
SINGLET = preset_dyadic("bell-psi-minus")
X_STATE = preset_dyadic("x-state", c11=-0.9, c22=-0.8, c33=-0.7)
INERTIAL = mode_params(0.0, "wsma")
# The derivatives whose as-published values must be a quarter of the normalized ones: the
# analytic and fd at the default step and at steps whose ±h ends reach the subnormal range.
QUARTER_DERIVATIVES = [("analytic", DEFAULT_FD_STEP)] + [
    ("fd", h) for h in (DEFAULT_FD_STEP, math.ulp(0.0), 1e-310, 1e-300)]
# SHA-256 of the public Bloch vectors and partials at r = 0 and theta in {0, pi}, as
# TestBlochPartial.test_vectors_at_the_edges_keep_their_bytes writes them.
EDGE_VECTORS_SHA256 = "2a7567dd104334d26793db555d9cca8b47df8f5f1dbb116aa42eb96851c5038e"


def stacked(vector):
    """A vector's component columns, broadcast and stacked on a last axis of 3."""
    return np.stack(np.broadcast_arrays(*vector), -1)


def input_bloch(theta, phi):
    return np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )


class TestBlochTeleported:
    def test_inertial_bell_channel_returns_input_bloch(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            state = sample_input(rng)
            s = bloch_teleported(state, PHI_PLUS, INERTIAL, "normalized")
            assert np.max(np.abs(s - input_bloch(state.theta, state.phi))) < 1e-12

    def test_as_published_is_quarter_of_normalized(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            state, d, u = sample_input(rng), sample_dyadic(rng), sample_unruh(rng)
            s_n = bloch_teleported(state, d, u, "normalized")
            s_p = bloch_teleported(state, d, u, "as-published")
            assert np.max(np.abs(s_p - s_n / 4.0)) < 1e-13

    def test_pole_has_no_transverse_components(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            d, u = sample_dyadic(rng), sample_unruh(rng)
            for mode in ("normalized", "as-published"):
                s = bloch_teleported(InputState(0.0, 2.2), d, u, mode)
                assert s[0] == 0.0 and s[1] == 0.0

    def test_as_published_norm_bound(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            state, d, u = sample_input(rng), sample_dyadic(rng), sample_unruh(rng)
            s = bloch_teleported(state, d, u, "as-published")
            assert np.linalg.norm(s) <= 0.25 + 1e-12

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            bloch_teleported(InputState(1.0, 1.0), PHI_PLUS, INERTIAL, "raw")

    @pytest.mark.parametrize("points", ["draws", "figure", "edges"])
    def test_as_published_is_exactly_a_quarter(self, points):
        # Bit for bit, for the vectors and for both derivative methods, fd at steps down to
        # the least subnormal too, where the ends of a difference are subnormal at the edges.
        if points == "draws":
            p = sample_draws(8, 200)
        elif points == "figure":
            spec = figure_spec("1b", 64)
            p = {**vars(spec.dyadic), "qr": spec.qr, "ql": spec.ql, **dict(spec.fixed),
                 **dict(zip(spec.axis_names, np.ix_(*(a.points() for a in spec.axes))))}
        else:
            # Both Bell presets by wsma and bsma by theta, phi and r at and next to the edges.
            preset, branch, theta, phi, r = np.ix_(
                [0, 1], [0, 1], [0.0, 1e-300, math.pi / 3, math.pi], [0.0, 1.0], [0.0, 0.3, R_MAX])
            bell = np.array([PHI_PLUS.as_tuple(), SINGLET.as_tuple()])
            weights = [mode_params(0.0, m) for m in ("wsma", "bsma")]
            qr, ql = (np.array([getattr(u, key) for u in weights])[branch] for key in ("qr", "ql"))
            p = {**dict(zip(("c11", "c22", "c33"), bell.T[:, preset])),
                 "qr": qr, "ql": ql, "theta": theta, "phi": phi, "r": r}
        s = {mode: stacked(_scaled(_vectors(p), mode)[0]) for mode in NORM_NAMES}
        assert np.array_equal(s["as-published"], 0.25 * s["normalized"])
        for param, (method, h) in itertools.product(PARAM_NAMES, QUARTER_DERIVATIVES):
            ds_n = stacked(_pair(p, param, "normalized", method, h)[1])
            ds_p = stacked(_pair(p, param, "as-published", method, h)[1])
            assert np.array_equal(ds_p, 0.25 * ds_n), (param, method, h)
        if points == "edges":
            # The public functions at the first edge point with the least step: the
            # as-published partial is [0.25, 0, 0] and its Fisher information 1/16.
            args, least = (InputState(0.0, 0.0), PHI_PLUS, INERTIAL, "theta"), math.ulp(0.0)
            fd = {mode: bloch_partial(*args, mode, "fd", least) for mode in NORM_NAMES}
            assert fd["as-published"].tobytes() == (0.25 * fd["normalized"]).tobytes()
            assert fisher(*args, mode="as-published", method="fd", fd_step=least).value == 0.0625


class TestFisherFromBloch:
    def test_center_unit_speed(self):
        result = fisher_from_bloch(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        assert result.value == 1.0
        assert not result.pure_branch

    def test_mixed_radial_term(self):
        result = fisher_from_bloch(np.array([0.5, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert abs(result.value - 4.0 / 3.0) < 1e-15

    def test_pure_shell_tangent(self):
        result = fisher_from_bloch(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        assert result.value == 1.0
        assert result.pure_branch

    def test_gap_below_the_pure_cutoff_takes_the_pure_branch(self):
        # 1 - |s|^2 = 5e-10 lies under PURE_BRANCH_EPS (1e-9), but not under 1e-10.
        result = fisher_from_bloch([math.sqrt(1.0 - 5e-10), 0.0, 0.0], [0.0, 1.0, 0.0])
        assert result.pure_branch and result.value == 1.0

    def test_vector_just_past_the_rounding_slack_rejected(self):
        # |s| = 1 + 2e-12 is past the 1e-12 allowed for rounding.
        with pytest.raises(DomainError, match="exceeds 1"):
            fisher_from_bloch([1.0 + 2e-12, 0.0, 0.0], [0.0, 1.0, 0.0])

    def test_overlong_vector_rejected(self):
        with pytest.raises(DomainError):
            fisher_from_bloch(np.array([1.1, 0.0, 0.0]), np.ones(3))

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError, match="not finite"):
            fisher_from_bloch(np.array([np.nan, 0.0, 0.0]), np.array([0.1, 0.0, 0.0]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="not finite"):
                fisher_from_bloch(np.array([0.1, 0.0, 0.0]), np.array([bad, 0.0, 0.0]))

    def test_a_ds_whose_value_overflows_is_refused(self):
        # At s = 0 the value is |ds|^2: 1e308 is finite, 1e310 overflows. Tier-1 turns
        # warnings into errors, so numpy's overflow warning must not escape either.
        assert fisher_from_bloch([0.0, 0.0, 0.0], [1e154, 0.0, 0.0]).value == 1e308
        with pytest.raises(DomainError, match=r"ds = \[1e\+155, 0\.0, 0\.0\] is too large"):
            fisher_from_bloch([0.0, 0.0, 0.0], [1e155, 0.0, 0.0])

    def test_a_formula_fault_is_an_internal_failure(self, monkeypatch):
        # Past the input refusals, a non-finite value from the formula is a bug, not bad input.
        fisher_module = importlib.import_module("unruh_teleport.fisher")
        monkeypatch.setattr(fisher_module, "_fisher_from_bloch",
                            lambda s, ds: (np.float64(np.nan), np.bool_(False)))
        with pytest.raises(ConsistencyError, match="not finite"):
            fisher_from_bloch([0.1, 0.0, 0.0], [0.1, 0.0, 0.0])

    @pytest.mark.parametrize("shape_s,shape_ds", [((4,), (4,)), ((2,), (2,)), ((3,), (4,)),
                                                  ((2, 3), (2, 3)), ((1, 3), (1, 3)), ((), ())])
    def test_anything_but_two_3_vectors_rejected(self, shape_s, shape_ds):
        s, ds = np.full(shape_s, 0.1), np.full(shape_ds, 0.2)
        with pytest.raises(DomainError, match="must be 3-vectors"):
            fisher_from_bloch(s, ds)
        with pytest.raises(DomainError, match="must be 3-vectors"):
            fisher_from_bloch(s.tolist(), ds.tolist())

    def test_ragged_input_rejected(self):
        with pytest.raises(DomainError, match="must be 3-vectors of real numbers, not ragged"):
            fisher_from_bloch([[0.1, 0.2], [0.3]], [0.1, 0.0, 0.0])
        with pytest.raises(DomainError, match="must be 3-vectors of real numbers, not ragged"):
            fisher_from_bloch([0.1, 0.0, 0.0], [[0.1, 0.2], [0.3]])

    def test_string_input_rejected(self):
        with pytest.raises(DomainError, match="must be 3-vectors of real numbers, not <U"):
            fisher_from_bloch(["0.1", "0", "0"], [0.1, 0.0, 0.0])
        with pytest.raises(DomainError, match="must be 3-vectors of real numbers"):
            fisher_from_bloch([0.1, 0.0, 0.0], ["0.1", 0.0, 0.0])

    def test_complex_input_rejected(self):
        with pytest.raises(DomainError, match="must be 3-vectors of real numbers, not complex128"):
            fisher_from_bloch([1 + 0j, 0, 0], [0.1, 0.0, 0.0])
        with pytest.raises(DomainError, match="must be 3-vectors of real numbers"):
            fisher_from_bloch([0.1, 0.0, 0.0], np.array([0.1, 0.0, 0.0]) + 0j)

    def test_seeded_values_are_finite_and_non_negative(self):
        # Both terms are >= 0 (a sum of squares, and a square over a gap above 1e-9), so no
        # value needs a clamp, the pure band 1 - |s|^2 <= 1e-9 and |s| up to 1 + 1e-12 included.
        rng = np.random.default_rng(38)
        direction = rng.normal(size=(4000, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = np.concatenate([rng.uniform(0.0, 1.0, 2000),
                                 rng.uniform(1.0 - 2e-9, 1.0 + 0.99e-12, 2000)])
        s, ds = direction * radius[:, None], rng.uniform(-3.0, 3.0, (4000, 3))
        value, pure = _fisher_from_bloch(s.T, ds.T)
        assert np.all(np.isfinite(value)) and np.all(value >= 0.0)
        assert pure.any() and not pure.all()
        # The kernel raises nothing: a non-finite entry gives a non-finite value at its
        # row, which the public function refuses.
        for bad in (np.nan, np.inf, -np.inf):
            for vector in (s, ds):
                original, vector[17, 1] = vector[17, 1], bad
                assert not np.isfinite(_fisher_from_bloch(s.T, ds.T)[0][17])
                with pytest.raises((ConsistencyError, DomainError)):
                    fisher_from_bloch(s[17], ds[17])
                vector[17, 1] = original

    def test_reflection_invariance(self):
        rng = np.random.default_rng(35)
        flip = np.array([1.0, -1.0, 1.0])
        for _ in range(200):
            s = rng.uniform(-0.5, 0.5, 3)
            ds = rng.uniform(-2.0, 2.0, 3)
            a = fisher_from_bloch(s, ds).value
            b = fisher_from_bloch(s * flip, ds * flip).value
            assert a == b


class TestBlochPartial:
    def test_inertial_bell_theta_partial(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            state = sample_input(rng)
            ds = bloch_partial(state, PHI_PLUS, INERTIAL, "theta", "normalized", "analytic")
            ct, st = math.cos(state.theta), math.sin(state.theta)
            expected = np.array(
                [ct * math.cos(state.phi), ct * math.sin(state.phi), -st]
            )
            assert np.max(np.abs(ds - expected)) < 1e-12

    def test_phi_partial_vanishes_at_pole(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            d, u = sample_dyadic(rng), sample_unruh(rng)
            state = InputState(0.0, 1.0)
            for method in ("analytic", "fd"):
                ds = bloch_partial(state, d, u, "phi", "normalized", method)
                assert np.array_equal(ds, np.zeros(3))

    def test_analytic_matches_central_difference(self):
        rng = np.random.default_rng(38)
        checked = 0
        while checked < 150:
            state, d, u = sample_input(rng), sample_dyadic(rng), sample_unruh(rng)
            for mode in ("normalized", "as-published"):
                for param in ("theta", "phi", "r"):
                    analytic = bloch_partial(state, d, u, param, mode, "analytic")
                    scale = np.linalg.norm(analytic)
                    if scale <= 1e-3:
                        continue
                    numeric = bloch_partial(state, d, u, param, mode, "fd")
                    assert np.linalg.norm(analytic - numeric) / scale < 1e-6
                    checked += 1

    def test_fd_matches_analytic_at_r_endpoints(self):
        rng = np.random.default_rng(39)
        for r in (0.0, 1e-7, math.pi / 4 - 1e-7, math.pi / 4):
            for _ in range(10):
                state, d = sample_input(rng), sample_dyadic(rng)
                u = mode_params(r, "bsma")
                analytic = bloch_partial(state, d, u, "r", "normalized", "analytic")
                numeric = bloch_partial(state, d, u, "r", "normalized", "fd")
                scale = max(np.linalg.norm(analytic), 1e-3)
                assert np.linalg.norm(analytic - numeric) / scale < 1e-6

    @pytest.mark.parametrize("h", [DEFAULT_FD_STEP, MAX_FD_STEP])
    @pytest.mark.parametrize("r", [0.0, R_MAX])
    def test_fd_r_is_one_central_difference(self, r, h, monkeypatch):
        # The closed form is smooth past both r edges, so F_r steps to r - h and r + h only,
        # besides the s pass at r itself.
        fisher_module = importlib.import_module("unruh_teleport.fisher")
        branch_bloch, seen = fisher_module._branch_bloch, []

        def recording_bloch(**p):
            seen.extend(np.ravel(p["r"]).tolist())
            return branch_bloch(**p)

        monkeypatch.setattr(fisher_module, "_branch_bloch", recording_bloch)
        u = UnruhParams(r, 0.6 + 0.0j, 0.48 + 0.64j)
        bloch_partial(InputState(1.1, 2.3), X_STATE, u, "r", method="fd", fd_step=h)
        assert sorted(seen) == [r - h, r, r + h]

    def test_vectors_at_the_edges_keep_their_bytes(self):
        # At r = 0 and theta in {0, pi}, many components are zeros whose signs the closed
        # form's operand order fixes (30 of them -0.0); the digest of every public vector
        # there, in both norms and methods, pins those signs with the values.
        digest, negative = hashlib.sha256(), 0
        for name in ("bell-phi-plus", "bell-psi-minus", "werner", "x-state"):
            d = preset_dyadic(name, fidelity=0.6, **X_STATE_EXAMPLE)
            for theta, phi, mode, norm in itertools.product(
                    (0.0, math.pi), (0.0, 1.0), ("wsma", "bsma"), NORM_NAMES):
                state, u = InputState(theta, phi), mode_params(0.0, mode)
                vectors = [bloch_teleported(state, d, u, norm)]
                vectors += [bloch_partial(state, d, u, param, norm, method)
                            for param, method in itertools.product(PARAM_NAMES, METHOD_NAMES)]
                for v in vectors:
                    digest.update(v.tobytes())
                    negative += int(np.sum((v == 0.0) & np.signbit(v)))
        assert negative == 30
        assert digest.hexdigest() == EDGE_VECTORS_SHA256

    def test_unknown_method(self):
        with pytest.raises(DomainError, match="method"):
            bloch_partial(InputState(1.0, 1.0), PHI_PLUS, INERTIAL, "theta", method="spectral")

    def test_unknown_param(self):
        with pytest.raises(DomainError):
            bloch_partial(InputState(1.0, 1.0), PHI_PLUS, INERTIAL, "lambda")


class TestFisherAnchors:
    def test_weight_information_is_cos_squared_r(self):
        # Includes both poles, where the branch state is pure. The 9^3 points go
        # through one broadcasting kernel call, and one of them through ``fisher``.
        axes = [np.linspace(0.0, hi, 9) for hi in (math.pi, 2.0 * math.pi, math.pi / 4)]
        grid = dict(zip(PARAM_NAMES, np.meshgrid(*axes, indexing="ij")))
        p = {**vars(PHI_PLUS), **vars(INERTIAL), **grid}
        value = _fisher(p, "theta", "normalized", "analytic")[0]
        assert value.shape == (9, 9, 9)
        assert np.all(np.abs(value - np.cos(grid["r"]) ** 2) < 1e-9)
        theta, phi, r = (float(axis[i]) for axis, i in zip(axes, (4, 3, 5)))
        result = fisher(InputState(theta, phi), PHI_PLUS, mode_params(r, "wsma"), "theta")
        assert abs(result.value - math.cos(r) ** 2) < 1e-9

    def test_inertial_values(self):
        for theta in np.linspace(0.0, math.pi, 21):
            state = InputState(float(theta), 0.77)
            f_theta = fisher(state, PHI_PLUS, INERTIAL, "theta")
            f_phi = fisher(state, PHI_PLUS, INERTIAL, "phi")
            assert abs(f_theta.value - 1.0) < 1e-9
            assert f_theta.pure_branch
            assert abs(f_phi.value - math.sin(float(theta)) ** 2) < 1e-9

    def test_acceleration_information_at_north_pole(self):
        # F_r = 4 for every r > 0; at r = 0 exactly the branch state is pure
        # and the derivative vanishes, so the constant only holds away from 0.
        for r in np.linspace(0.0, math.pi / 4, 22)[1:]:
            result = fisher(InputState(0.0, 0.4), PHI_PLUS, mode_params(float(r), "wsma"), "r")
            assert abs(result.value - 4.0) < 1e-9

    def test_acceleration_information_vanishes_at_inertial_pure_point(self):
        result = fisher(InputState(0.0, 0.4), PHI_PLUS, INERTIAL, "r")
        assert result.pure_branch
        assert result.value == 0.0

    def test_mode_scaling_sixteenth_at_r0(self):
        for d in (PHI_PLUS, SINGLET):
            for theta, phi in ((0.3, 0.7), (1.2, 2.5), (math.pi / 2, math.pi / 4)):
                state = InputState(theta, phi)
                for param in ("theta", "phi", "r"):
                    f_n = fisher(state, d, INERTIAL, param, mode="normalized").value
                    f_p = fisher(state, d, INERTIAL, param, mode="as-published").value
                    assert abs(f_p - f_n / 16.0) < 1e-9


class TestPureShellBand:
    """F_r = 4 for bell-phi-plus at theta = 0 with wsma weights, at every r > 0. Next to
    the pure shell the gap 1 - |s|^2 and s . ds both cancel, so the band r <= 1e-4 reads
    far from 4 (ROADMAP item 1). The strict xfails turn into failures once it is fixed."""

    @staticmethod
    def _error(r):
        value = fisher(InputState(0.0, 0.0), PHI_PLUS, mode_params(r, "wsma"), "r").value
        return abs(value - 4.0) / max(1.0, abs(value))

    def test_acceleration_information_outside_the_band(self):
        for r in (1e-3, 1e-2, math.pi / 8, math.pi / 4):
            assert self._error(r) <= 1e-9, r

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the gap and s . ds cancel next to the pure shell")
    def test_acceleration_information_in_the_band(self):
        for r in (1e-9, 1e-7, 1e-5, 1e-4):
            assert self._error(r) <= 1e-9, r

    def test_weights_off_their_norm_keep_the_bloch_vector_in_the_ball(self):
        # Passes once UnruhParams refuses these weights, or once |s| stays within rounding of 1.
        try:
            u = UnruhParams(0.0, 1.0 + 4.99e-13, 0.0)
        except DomainError:
            return
        s = bloch_teleported(InputState(math.pi, 0.4), PHI_PLUS, u)
        assert np.linalg.norm(s) <= 1.0 + 4.0 * np.finfo(float).eps


class TestFisherProperties:
    def test_non_negative_and_finite(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            state, d, u = sample_input(rng), sample_dyadic(rng), sample_unruh(rng)
            for mode in ("normalized", "as-published"):
                for param in ("theta", "phi", "r"):
                    result = fisher(state, d, u, param, mode=mode)
                    assert math.isfinite(result.value)
                    assert result.value >= 0.0

    def test_wsma_information_non_increasing_in_r(self):
        # With wsma weights the receiver map is a generalized amplitude-damping
        # family that composes in r, so by the data-processing inequality the
        # normalized F_theta and F_phi cannot grow with r. One kernel call per
        # draw and estimand evaluates the whole r grid.
        qr, ql = MODE_WEIGHTS["wsma"]
        r = np.linspace(0.0, R_MAX, 200)
        rng = np.random.default_rng(44)
        points = []
        for _ in range(300):
            state, d = sample_input(rng), sample_dyadic(rng)
            points.append({**vars(state), **vars(d), "r": r, "qr": qr, "ql": ql})
        theta, phi, grid_r = np.meshgrid(
            np.linspace(0.0, math.pi, 13), np.linspace(0.0, 2.0 * math.pi, 13), r, indexing="ij"
        )
        for d in (PHI_PLUS, SINGLET):
            points.append({**vars(d), "theta": theta, "phi": phi, "r": grid_r, "qr": qr, "ql": ql})
        for i, p in enumerate(points):
            for param in ("theta", "phi"):
                value = _fisher(p, param, "normalized", "analytic")[0]
                assert np.max(np.diff(value, axis=-1)) <= 1e-12, (i, param)

    def test_continuity_toward_pure_shell(self):
        result = fisher(InputState(1.0, 0.3), PHI_PLUS, mode_params(1e-4, "wsma"), "theta")
        assert not result.pure_branch
        assert abs(result.value - 1.0) < 1e-3

    def test_theta_reflection_for_inertial_limit_channel(self):
        # Exact for the (1,-1,1) channel in the single-mode limit, where the
        # weight information is theta-independent.
        u = mode_params(math.pi / 8, "wsma")
        for theta in np.linspace(0.1, math.pi / 2, 7):
            for phi in np.linspace(0.0, 2.0 * math.pi, 5):
                f1 = fisher(InputState(float(theta), float(phi)), PHI_PLUS, u, "theta").value
                f2 = fisher(
                    InputState(float(math.pi - theta), float(phi)), PHI_PLUS, u, "theta"
                ).value
                assert abs(f1 - f2) < 1e-9

    def test_phi_reflection_symmetry(self):
        # Real mode weights make s_x even and s_y odd in phi, so the Fisher
        # value is invariant under phi -> 2*pi - phi.
        u = mode_params(math.pi / 8, "wsma")
        for d in (PHI_PLUS, X_STATE):
            for theta in np.linspace(0.0, math.pi, 7):
                for phi in np.linspace(0.1, math.pi, 7):
                    f1 = fisher(InputState(float(theta), float(phi)), d, u, "theta").value
                    f2 = fisher(
                        InputState(float(theta), float(2.0 * math.pi - phi)), d, u, "theta"
                    ).value
                    assert abs(f1 - f2) < 1e-9

    def test_theta_reflection_is_not_general(self):
        # Regression record: the theta -> pi - theta reflection does NOT hold
        # once acceleration mixes the populations asymmetrically. Pinned
        # counterexample for the partially entangled channel.
        u = mode_params(math.pi / 8, "wsma")
        f1 = fisher(InputState(math.pi / 3, math.pi / 4), X_STATE, u, "theta").value
        f2 = fisher(InputState(2.0 * math.pi / 3, math.pi / 4), X_STATE, u, "theta").value
        assert abs(f1 - f2) > 0.05

    def test_fd_method_matches_analytic(self):
        result = fisher(
            InputState(1.0, 1.0), PHI_PLUS, mode_params(0.1, "wsma"), "theta", method="fd"
        )
        analytic = fisher(InputState(1.0, 1.0), PHI_PLUS, mode_params(0.1, "wsma"), "theta")
        assert abs(result.value - analytic.value) < 1e-6


BAD_FD_STEPS = (0.0, math.nan, -1e-5, math.pi / 12 + 1e-9)


class TestLibraryBoundary:
    """The public functions check the fd step and the channel themselves, not only the CLI."""

    @pytest.mark.parametrize("fd_step", BAD_FD_STEPS)
    def test_fd_step_out_of_range(self, fd_step):
        state, u = InputState(1.0, 1.0), mode_params(0.1, "wsma")
        with pytest.raises(DomainError, match="fd_step"):
            fisher(state, PHI_PLUS, u, "r", method="fd", fd_step=fd_step)
        with pytest.raises(DomainError, match="fd_step"):
            bloch_partial(state, PHI_PLUS, u, "r", method="fd", fd_step=fd_step)

    @pytest.mark.parametrize("fd_step", BAD_FD_STEPS)
    def test_analytic_ignores_fd_step(self, fd_step):
        state, u = InputState(1.0, 1.0), mode_params(0.1, "wsma")
        assert fisher(state, PHI_PLUS, u, "r", fd_step=fd_step) == fisher(state, PHI_PLUS, u, "r")
        assert np.array_equal(
            bloch_partial(state, PHI_PLUS, u, "r", fd_step=fd_step),
            bloch_partial(state, PHI_PLUS, u, "r"),
        )

    def test_unphysical_channel_is_refused(self):
        # (1, 1, 1) gives a density matrix with least eigenvalue -0.5, which run_sweep refuses.
        state, d, u = InputState(1.0, 0.7), CorrelationDyadic(1.0, 1.0, 1.0), UnruhParams(0.2)
        for call in (lambda: fisher(state, d, u, "theta"), lambda: bloch_teleported(state, d, u),
                     lambda: bloch_partial(state, d, u, "theta")):
            with pytest.raises(DomainError, match=r"unphysical \(min eigenvalue -5\.000e-01\)"):
                call()
