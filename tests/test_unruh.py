import copy
import math

import numpy as np
import pytest

from unruh_teleport import (
    AcceleratedChannel,
    CorrelationDyadic,
    DomainError,
    UnruhParams,
    accelerate,
    accelerated_density,
    bogoliubov_isometry,
    bogoliubov_oracle,
    dyadic_to_density,
    mode_params,
    preset_dyadic,
    r_from_acceleration,
)
from unruh_teleport import unruh
from unruh_teleport._linalg import _abs2
from unruh_teleport.channels import PRESET_NAMES, X_STATE_EXAMPLE, _dyadic_to_density

from samplers import sample_dyadic, sample_unruh

SQRT2_4 = math.sqrt(2.0) / 4.0


class TestRFromAcceleration:
    def test_infinite_acceleration_limit(self):
        assert r_from_acceleration(1.0, math.inf, 1.0) == pytest.approx(math.pi / 4, abs=1e-15)

    def test_inertial_limit(self):
        assert r_from_acceleration(1.0, 0.0, 1.0) == 0.0

    def test_small_acceleration_underflows_to_zero(self):
        assert r_from_acceleration(1.0, 1e-6, 1.0) == 0.0

    def test_log_two_point(self):
        # pi*omega*c/a = ln 2  =>  tan r = 1/2.
        accel = math.pi / math.log(2.0)
        assert r_from_acceleration(1.0, accel, 1.0) == pytest.approx(math.atan(0.5), abs=1e-15)

    @pytest.mark.parametrize(
        "omega,accel,c",
        [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 1.0, -2.0),
         # A NaN acceleration, and pi*omega*c/accel = inf/inf, which has no value.
         (1.0, math.nan, 1.0), (math.inf, math.inf, 1.0), (1.0, math.inf, math.inf)],
    )
    def test_domain_errors(self, omega, accel, c):
        with pytest.raises(DomainError):
            r_from_acceleration(omega, accel, c)


class TestUnruhParams:
    def test_mode_presets(self):
        wsma = mode_params(0.2, "wsma")
        assert (wsma.qr, wsma.ql) == (1.0 + 0.0j, 0.0j)
        bsma = mode_params(0.2, "bsma")
        assert bsma.qr.real == pytest.approx(1.0 / math.sqrt(2.0))
        assert bsma.qr == bsma.ql
        assert abs(abs(bsma.qr) ** 2 + abs(bsma.ql) ** 2 - 1.0) < 1e-12

    def test_unknown_mode(self):
        with pytest.raises(DomainError):
            mode_params(0.1, "ssma")

    def test_r_out_of_range(self):
        with pytest.raises(DomainError):
            UnruhParams(math.pi / 4 + 1e-9)
        with pytest.raises(DomainError):
            UnruhParams(-1e-9)

    def test_weight_normalization(self):
        with pytest.raises(DomainError):
            UnruhParams(0.1, 0.707 + 0j, 0.707 + 0j)
        UnruhParams(0.1, complex(math.cos(0.3)), complex(math.sin(0.3)))

    @pytest.mark.parametrize(
        "qr,ql",
        [(1e200, 0j), (0j, -1e200j), (complex(1e308, 1e308), 0j), (complex(1.7e308, 1.7e308), 0j)],
    )
    def test_huge_weight_is_a_domain_error(self, qr, ql):
        # Squaring |qr| overflows above about 1e154, and abs() itself above about 1.8e308.
        with pytest.raises(DomainError, match=r"\|qr\|\^2 \+ \|ql\|\^2 must equal 1 .*got inf"):
            UnruhParams(0.1, complex(qr), complex(ql))

    @pytest.mark.parametrize(
        "qr,ql", [(1.0, 0.0), (math.sqrt(0.5), math.sqrt(0.5)), (0.6, 0.8j), (0.48 + 0.64j, 0.6j)]
    )
    def test_weight_norm_is_the_kernels_abs2(self, qr, ql):
        # Scaled by 1 + k*1e-13 the norm is off by about 2k*1e-13, past the 1e-14 edge
        # unless k = 0, so both verdicts occur; the constructor's must be the one _abs2 gives.
        verdicts = set()
        for k in range(-8, 9):
            scale = 1.0 + k * 1e-13
            qr_k, ql_k = complex(qr) * scale, complex(ql) * scale
            kernel = abs(_abs2(qr_k) + _abs2(ql_k) - 1.0) <= unruh.WEIGHT_NORM_TOL
            try:
                UnruhParams(0.1, qr_k, ql_k)
                accepted = True
            except DomainError:
                accepted = False
            assert accepted == kernel, (qr_k, ql_k)
            verdicts.add(accepted)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("off, accepted", [(5e-15, True), (-5e-15, True), (2e-14, False),
                                               (-2e-14, False)])
    def test_weight_norm_edge_is_1e_14(self, off, accepted):
        # Rounding puts |qr|^2 + |ql|^2 at most 2 ulp (4.4e-16) from 1 for the weights of
        # sample_draws; the edge lies between that and 2e-14.
        qr, ql = complex(math.sqrt(1.0 + off)), 0.0j
        assert abs(_abs2(qr) - 1.0 - off) < 1e-15
        if accepted:
            assert UnruhParams(0.1, qr, ql).qr == qr
        else:
            with pytest.raises(DomainError, match="must equal 1 within 1e-14"):
                UnruhParams(0.1, qr, ql)


class TestAccelerate:
    def test_inertial_limit_is_identity_channel(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = sample_dyadic(rng, physical=False)
            m = accelerated_density(accelerate(d, mode_params(0.0, "wsma")))
            assert np.max(np.abs(m - dyadic_to_density(d))) < 1e-15

    def test_singlet_infinite_acceleration_coefficients(self):
        ch = accelerate(preset_dyadic("bell-psi-minus"), mode_params(math.pi / 4, "wsma"))
        expected = (0.0, 0.0, 0.0, 0.5, 0.25, -SQRT2_4, -SQRT2_4, 0.25)
        for value, want in zip(ch.as_tuple(), expected):
            assert abs(value - want) < 1e-15

    def test_bsma_invariants_hold_for_any_dyadic(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = sample_dyadic(rng, physical=False)
            ch = accelerate(d, mode_params(math.pi / 8, "bsma"))
            trace = ch.b1 + ch.b4 + ch.b5 + ch.b8
            assert abs(trace - 1.0) < 1e-12
            assert abs(ch.b3 - ch.b2.conjugate()) < 1e-12
            assert abs(ch.b7 - ch.b6.conjugate()) < 1e-12
            for value in (ch.b1, ch.b4, ch.b5, ch.b8):
                assert value.real >= -1e-12 and abs(value.imag) < 1e-12

    def test_random_draw_invariants(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            ch = accelerate(sample_dyadic(rng, physical=False), sample_unruh(rng))
            m = accelerated_density(ch)
            assert abs(np.trace(m).real - 1.0) < 1e-12
            assert np.max(np.abs(m - m.conj().T)) < 1e-12


class TestAcceleratedDensity:
    def test_singlet_infinite_acceleration_placement(self):
        ch = accelerate(preset_dyadic("bell-psi-minus"), mode_params(math.pi / 4, "wsma"))
        m = accelerated_density(ch)
        assert np.allclose(np.diag(m), [0.0, 0.5, 0.25, 0.25], atol=1e-15)
        assert abs(m[2, 1] - (-SQRT2_4)) < 1e-15  # (10,01)
        assert abs(m[1, 2] - (-SQRT2_4)) < 1e-15  # (01,10)
        off = m - np.diag(np.diag(m))
        off[2, 1] = off[1, 2] = 0.0
        assert np.max(np.abs(off)) == 0.0

    def test_positive_for_physical_sources(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            m = accelerated_density(accelerate(sample_dyadic(rng), sample_unruh(rng)))
            assert np.linalg.eigvalsh(m)[0] >= -1e-12

    def test_positive_on_mode_preset_grid(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            d = sample_dyadic(rng)
            for r in np.linspace(0.0, math.pi / 4, 9):
                for mode in ("wsma", "bsma"):
                    m = accelerated_density(accelerate(d, mode_params(float(r), mode)))
                    assert np.linalg.eigvalsh(m)[0] >= -1e-12


class TestChannelValidation:
    def test_bad_trace_rejected(self):
        with pytest.raises(DomainError):
            AcceleratedChannel(0.5, 0, 0, 0.5, 0.5, 0, 0, 0.5)

    def test_coefficients_just_past_the_tolerance_rejected(self):
        # 1e-10 off, past CHANNEL_TOL (1e-12): the trace, a conjugate pair, a diagonal sign.
        for coefficients in ((0.25 + 1e-10, 0, 0, 0.25, 0.25, 0, 0, 0.25),
                             (0.25, 0.1, 0.1 + 1e-10, 0.25, 0.25, 0, 0, 0.25),
                             (-1e-10, 0, 0, 0.5, 0.25, 0, 0, 0.25 + 1e-10)):
            with pytest.raises(DomainError):
                AcceleratedChannel(*coefficients)

    def test_broken_conjugacy_rejected(self):
        with pytest.raises(DomainError, match="b7"):
            AcceleratedChannel(0.25, 0, 0, 0.25, 0.25, 0.1, 0.2, 0.25)

    def test_negative_diagonal_rejected(self):
        with pytest.raises(DomainError, match="b1"):
            AcceleratedChannel(-0.1, 0, 0, 0.35, 0.35, 0, 0, 0.4)

    def test_nan_coefficient_rejected(self):
        with pytest.raises(DomainError):
            AcceleratedChannel(math.nan, 0j, 0j, 0.0, 0.0, 0j, 0j, 0.0)

    @pytest.mark.parametrize("index", range(8))
    @pytest.mark.parametrize("nan", [math.nan, complex(math.nan, 0.0), complex(0.0, math.nan)])
    def test_nan_in_any_coefficient_rejected(self, index, nan):
        coefficients = [0.25, 0j, 0j, 0.25, 0.25, 0j, 0j, 0.25]
        coefficients[index] = nan
        with pytest.raises(DomainError):
            AcceleratedChannel(*coefficients)


class TestBogoliubovOracle:
    def test_isometry_orthonormal(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            v = bogoliubov_isometry(sample_unruh(rng))
            assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-12

    def test_inertial_limit_is_embedding(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = sample_dyadic(rng, physical=False)
            m = bogoliubov_oracle(d, mode_params(0.0, "wsma"))
            assert np.max(np.abs(m - dyadic_to_density(d))) < 1e-15

    def test_matches_closed_form(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            d, u = sample_dyadic(rng), sample_unruh(rng)
            closed = accelerated_density(accelerate(d, u))
            assert np.max(np.abs(closed - bogoliubov_oracle(d, u))) < 1e-12


def accelerate_swapped_b7(d: CorrelationDyadic, u: UnruhParams) -> AcceleratedChannel:
    """Variant with the (01,10) coefficient copied from the (11,00) one: b7 := b3.

    This plausible transcription slip breaks b7 = conj(b6) by
    |c22|/2 * |conj(ql) sin(r) - qr cos(r)|, which vanishes for c22 = 0 and
    at bsma with r = pi/4. No computation path uses it; the mutation tests
    exercise it to show the cross-checks catch it.
    """
    good = accelerate(d, u)
    mutant = copy.copy(good)
    object.__setattr__(mutant, "b7", good.b3)
    return mutant


class TestSwappedB7Variant:
    def test_breaks_hermiticity_when_cross_terms_differ(self):
        # (c11+c22)/4 != (c11-c22)/4 for the singlet, so the swap is visible.
        d = preset_dyadic("bell-psi-minus")
        u = mode_params(math.pi / 8, "wsma")
        ch = accelerate_swapped_b7(d, u)
        gap = abs(ch.b7 - ch.b6.conjugate())
        assert abs(gap - math.cos(math.pi / 8) / 2.0) < 1e-12
        m = accelerated_density(ch)
        assert np.max(np.abs(m - m.conj().T)) > 0.4

    def test_matches_corrected_form_when_cross_terms_coincide(self):
        # c22 = 0 makes the symmetric and antisymmetric combinations equal.
        d = CorrelationDyadic(0.6, 0.0, 0.3)
        u = mode_params(math.pi / 8, "wsma")
        assert abs(accelerate_swapped_b7(d, u).b7 - accelerate(d, u).b7) < 1e-15

    def test_mutant_b7_is_b3_with_gap_from_c22(self):
        # The mutant's b7 is b3 bit for bit, so b7 - conj(b6) reduces to
        # (c22/2)(conj(ql) sin r - qr cos r): zero at bsma with r = pi/4.
        rng = np.random.default_rng(29)
        draws = [(sample_dyadic(rng), sample_unruh(rng)) for _ in range(200)]
        presets = [preset_dyadic(name, fidelity=0.6, **X_STATE_EXAMPLE) for name in PRESET_NAMES]
        draws += [(d, mode_params(r, mode)) for d in presets for mode in ("wsma", "bsma")
                  for r in (0.0, math.pi / 8, math.pi / 4)]
        for d, u in draws:
            mutant = accelerate_swapped_b7(d, u)
            assert mutant.b7 == accelerate(d, u).b3
            gap = abs(d.c22) / 2.0 * abs(u.ql.conjugate() * math.sin(u.r) - u.qr * math.cos(u.r))
            assert abs(abs(mutant.b7 - mutant.b6.conjugate()) - gap) <= 1e-15


class TestBroadcastForms:
    def test_stacked_draws_equal_the_public_functions(self):
        # Each broadcasting form over stacked draws gives, at every draw, the
        # public function's result at that draw, bit for bit.
        rng = np.random.default_rng(11)
        draws = [(sample_dyadic(rng), sample_unruh(rng)) for _ in range(40)]
        c = {key: np.array([getattr(d, key) for d, _ in draws]) for key in ("c11", "c22", "c33")}
        w = {key: np.array([getattr(u, key) for _, u in draws]) for key in ("r", "qr", "ql")}
        b = unruh._accelerate(**c, **w)
        density = unruh._accelerated_density(*b)
        swapped = b[2]
        isometry = unruh._bogoliubov_isometry(**w)
        oracle = unruh._bogoliubov_oracle(**c, **w)
        dyadic = _dyadic_to_density(**c)
        for i, (d, u) in enumerate(draws):
            ch = accelerate(d, u)
            assert [x[i] for x in b] == list(ch.as_tuple())
            assert np.array_equal(density[i], accelerated_density(ch))
            assert swapped[i] == accelerate_swapped_b7(d, u).b7
            assert np.array_equal(isometry[i], bogoliubov_isometry(u))
            assert np.array_equal(oracle[i], bogoliubov_oracle(d, u))
            assert np.array_equal(dyadic[i], dyadic_to_density(d))
