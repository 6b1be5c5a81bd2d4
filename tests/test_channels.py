import math
from fractions import Fraction

import numpy as np
import pytest

from unruh_teleport import (
    CorrelationDyadic,
    DomainError,
    dyadic_to_density,
    preset_dyadic,
    validate_physical,
)
from unruh_teleport.channels import _bell_eigenvalues, _dyadic_to_density

KET_00 = np.array([1, 0, 0, 0], dtype=complex)
KET_01 = np.array([0, 1, 0, 0], dtype=complex)
KET_10 = np.array([0, 0, 1, 0], dtype=complex)
KET_11 = np.array([0, 0, 0, 1], dtype=complex)


def projector(ket):
    return np.outer(ket, ket.conj())


def exact_min_eigenvalue(c11, c22, c33):
    """Least of (1 + a c11 + b c22 + c c33)/4 over the sign rows with a*b*c = -1,
    in rational arithmetic on the float inputs."""
    c = [Fraction(x) for x in (c11, c22, c33)]
    rows = ((-1, -1, -1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))
    return min((1 + sum(sign * x for sign, x in zip(row, c))) / 4 for row in rows)


class TestPresets:
    def test_bell_psi_minus(self):
        assert preset_dyadic("bell-psi-minus").as_tuple() == (-1.0, -1.0, -1.0)

    def test_bell_phi_plus(self):
        assert preset_dyadic("bell-phi-plus").as_tuple() == (1.0, -1.0, 1.0)

    def test_werner_zero_is_maximally_mixed(self):
        assert preset_dyadic("werner", fidelity=0.0).as_tuple() == (0.0, 0.0, 0.0)

    def test_werner_maps_to_minus_f(self):
        assert preset_dyadic("werner", fidelity=0.7).as_tuple() == (-0.7, -0.7, -0.7)

    def test_x_state_passthrough(self):
        d = preset_dyadic("x-state", c11=-0.9, c22=-0.8, c33=-0.7)
        assert d.as_tuple() == (-0.9, -0.8, -0.7)

    def test_werner_requires_fidelity(self):
        with pytest.raises(DomainError):
            preset_dyadic("werner")

    def test_werner_fidelity_range(self):
        with pytest.raises(DomainError, match="fidelity"):
            preset_dyadic("werner", fidelity=1.2)
        with pytest.raises(DomainError, match="fidelity"):
            preset_dyadic("werner", fidelity=-0.1)

    def test_x_state_requires_all_coefficients(self):
        with pytest.raises(DomainError):
            preset_dyadic("x-state", c11=0.1, c22=0.2)

    def test_x_state_coefficient_range_names_field(self):
        with pytest.raises(DomainError, match="c22"):
            preset_dyadic("x-state", c11=0.1, c22=1.5, c33=0.2)

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            preset_dyadic("ghz")


class TestCorrelationDyadic:
    def test_out_of_range_coefficient(self):
        with pytest.raises(DomainError, match="c11"):
            CorrelationDyadic(1.0001, 0.0, 0.0)

    def test_non_finite_coefficient(self):
        with pytest.raises(DomainError):
            CorrelationDyadic(math.nan, 0.0, 0.0)


class TestDyadicToDensity:
    def test_identity_dyadic_is_maximally_mixed(self):
        m = dyadic_to_density(CorrelationDyadic(0.0, 0.0, 0.0))
        assert np.array_equal(m, np.eye(4) / 4)

    def test_singlet_projector(self):
        # Independent tensor-product construction of (|01> - |10>)/sqrt(2).
        psi = (KET_01 - KET_10) / math.sqrt(2)
        m = dyadic_to_density(CorrelationDyadic(-1.0, -1.0, -1.0))
        assert np.max(np.abs(m - projector(psi))) < 1e-15

    def test_phi_plus_projector(self):
        psi = (KET_00 + KET_11) / math.sqrt(2)
        m = dyadic_to_density(CorrelationDyadic(1.0, -1.0, 1.0))
        assert np.max(np.abs(m - projector(psi))) < 1e-15

    def test_presets_hermitian_unit_trace(self):
        presets = [
            preset_dyadic("bell-phi-plus"),
            preset_dyadic("bell-psi-minus"),
            preset_dyadic("werner", fidelity=0.3),
            preset_dyadic("x-state", c11=-0.9, c22=-0.8, c33=-0.7),
        ]
        for d in presets:
            m = dyadic_to_density(d)
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert abs(np.trace(m).real - 1.0) < 1e-12

    def test_grid_eigenvalue_sum(self):
        grid = np.linspace(-1.0, 1.0, 9)
        for c11 in grid:
            for c22 in grid:
                for c33 in grid:
                    eig = np.linalg.eigvalsh(dyadic_to_density(CorrelationDyadic(c11, c22, c33)))
                    assert abs(eig.sum() - 1.0) < 1e-12

    def test_result_does_not_alias_constants(self):
        # The sigma (x) sigma products are built once; a caller that edits a
        # returned matrix in place must not change the next result.
        d = preset_dyadic("x-state", c11=-0.9, c22=-0.8, c33=-0.7)
        expected = dyadic_to_density(d).copy()
        dyadic_to_density(d)[...] = 7.0
        dyadic_to_density(CorrelationDyadic(0.0, 0.0, 0.0))[...] = -3.0
        assert np.array_equal(dyadic_to_density(d), expected)


class TestValidatePhysical:
    def test_singlet_is_physical_rank_one(self):
        check = validate_physical(CorrelationDyadic(-1.0, -1.0, -1.0))
        assert check.physical
        assert abs(check.min_eigenvalue) < 1e-12

    def test_all_plus_ones_unphysical(self):
        check = validate_physical(CorrelationDyadic(1.0, 1.0, 1.0))
        assert not check.physical
        assert abs(check.min_eigenvalue - (-0.5)) < 1e-12

    def test_maximally_mixed(self):
        check = validate_physical(CorrelationDyadic(0.0, 0.0, 0.0))
        assert check.physical
        assert abs(check.min_eigenvalue - 0.25) < 1e-12

    def test_named_presets_physical(self):
        assert validate_physical(preset_dyadic("bell-phi-plus")).physical
        assert validate_physical(preset_dyadic("bell-psi-minus")).physical
        assert validate_physical(preset_dyadic("x-state", c11=-0.9, c22=-0.8, c33=-0.7)).physical
        for f in np.linspace(0.0, 1.0, 11):
            assert validate_physical(preset_dyadic("werner", fidelity=float(f))).physical

    # Werner F=0.5 reads exactly 0.125 and the x-state example -2**-55. Seeded
    # triples take three roundings, of sums at most 2, 3 and 4 (half ulps 2**-53,
    # 2**-52 and 2**-52), then an exact division by 4: an error of at most 5 * 2**-55.
    @pytest.mark.parametrize("triples,bound", [
        ([(-0.5, -0.5, -0.5)], 0),
        ([(-0.9, -0.8, -0.7)], 0),
        (np.random.default_rng(17).uniform(-1.0, 1.0, (2000, 3)).tolist(), Fraction(1, 2**52)),
    ], ids=["werner-0.5", "x-state-example", "seeded"])
    def test_min_eigenvalue_is_the_rounded_exact_value(self, triples, bound):
        for c in triples:
            got = validate_physical(CorrelationDyadic(*c)).min_eigenvalue
            assert abs(Fraction(got) - exact_min_eigenvalue(*c)) <= bound

    def test_least_eigenvalue_past_the_tolerance_is_unphysical(self):
        # The Bell eigenvalue (1 - c11 - c22 - c33)/4 is -1e-10, past EIGENVALUE_TOL (1e-12).
        check = validate_physical(CorrelationDyadic(0.5, 0.25, 0.25 + 4e-10))
        assert not check.physical
        assert abs(check.min_eigenvalue + 1e-10) <= 1e-16

    def test_never_raises(self):
        check = validate_physical(CorrelationDyadic(1.0, 1.0, -1.0))
        assert isinstance(check.physical, bool)


class TestBellEigenvalues:
    @staticmethod
    def _assert_matches_eigvalsh(c11, c22, c33):
        closed = np.sort(_bell_eigenvalues(c11, c22, c33), axis=-1)
        dense = np.linalg.eigvalsh(_dyadic_to_density(c11, c22, c33))
        assert np.max(np.abs(closed - dense)) <= 1e-15

    def test_closed_form_matches_eigvalsh_on_the_dyadic_grid(self):
        axis = np.linspace(-1.0, 1.0, 9)
        self._assert_matches_eigvalsh(*np.meshgrid(axis, axis, axis, indexing="ij"))

    @pytest.mark.parametrize("c", [(1.0, 1.0, -1.0), (-1.0, -1.0, -1.0), (1.0, -1.0, 1.0)])
    def test_closed_form_matches_eigvalsh_at_the_edges(self, c):
        self._assert_matches_eigvalsh(*c)
        # Rank one at every edge point: three zero eigenvalues and one equal to 1.
        assert sorted(_bell_eigenvalues(*c).tolist()) == [0.0, 0.0, 0.0, 1.0]
