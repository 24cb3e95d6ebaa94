"""The first-order reflection operator and its eigenvalue structure."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from circlejacobi.dunkl import apply_k, lambda_n, verify_bispectral
from circlejacobi.laurent import ONE_MINUS_Z2, LaurentPoly
from circlejacobi.opuc import JacobiParams, family_from_verblunsky

from circle_oracle import (
    SINGLE_MOMENT as P_SM,
    apply_k_single_moment,
    chi_basis,
    constant,
    lambda_single_moment,
    max_chi_index,
    selfadjoint_residual,
)
from conftest import GRID
from test_laurent import assert_normal, laurents

F = Fraction

# Laurent inputs that include the zero polynomial, symmetric f (R f = f,
# where K reduces to theta) and antisymmetric f (R f = -f).
k_inputs = st.one_of(
    laurents(),
    laurents().map(lambda g: g + g.reflect()),
    laurents().map(lambda g: g - g.reflect()),
    st.just(LaurentPoly.zero()),
)


@st.composite
def jacobi_params(draw):
    """Rational (alpha, beta) > -1, with alpha = beta (so d = 0) drawn on
    its own and denominators up to 10^12, so s can carry a large one."""

    def rational():
        den = draw(st.one_of(st.integers(1, 12), st.integers(1, 10**12)))
        return F(draw(st.integers(1 - den, 4 * den)), den)

    alpha = rational()
    beta = alpha if draw(st.booleans()) else rational()
    return JacobiParams(alpha, beta)


class TestEigenvalues:
    def test_single_moment_pattern(self):
        # 0, 2, -1, 3, -2, 4, ...
        want = [F(0), F(2), F(-1), F(3), F(-2), F(4), F(-3)]
        assert [lambda_single_moment(n) for n in range(7)] == want
        assert [lambda_n(P_SM, n) for n in range(7)] == want

    def test_general_closed_form(self):
        p = JacobiParams(1, 2)
        assert lambda_n(p, 0) == 0
        assert lambda_n(p, 2) == -1
        assert lambda_n(p, 1) == 1 + 4  # (n+1)/2 + alpha + beta + 1
        assert lambda_n(p, 5) == 3 + 4

    def test_specialization_agrees_far_out(self):
        assert all(
            lambda_n(P_SM, n) == lambda_single_moment(n) for n in range(101)
        )

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            lambda_n(P_SM, -1)
        with pytest.raises(ValueError):
            lambda_single_moment(-2)

    def test_distinct_across_parity(self):
        # even eigenvalues are <= 0, odd ones are > 0 whenever s > -1
        for alpha, beta in GRID:
            p = JacobiParams(alpha, beta)
            for n in range(0, 30, 2):
                assert lambda_n(p, n) <= 0
            for n in range(1, 30, 2):
                assert lambda_n(p, n) > 0


class TestApplyK:
    def test_frozen_single_moment_actions(self):
        # K psi_1 = 2 psi_1 and K psi_2 = -psi_2 at the single-moment point
        psi1 = LaurentPoly({1: 1, 0: F(1, 2)})
        psi2 = LaurentPoly({-1: 1, 0: F(2, 3), 1: F(1, 3)})
        assert apply_k(psi1, P_SM) == psi1 * 2
        assert apply_k(psi2, P_SM) == -psi2
        assert apply_k_single_moment(psi1) == psi1 * 2
        assert apply_k_single_moment(psi2) == -psi2

    def test_kills_constants(self):
        assert apply_k(constant(5), JacobiParams(1, 2)).is_zero
        assert apply_k_single_moment(LaurentPoly.one()).is_zero

    def test_linear(self):
        p = JacobiParams(F(3, 2), F(1, 2))
        f = LaurentPoly({2: 1, -1: 3})
        g = LaurentPoly({0: 1, 1: -2})
        assert apply_k(f + g, p) == apply_k(f, p) + apply_k(g, p)
        assert apply_k(f * F(2, 7), p) == apply_k(f, p) * F(2, 7)

    @given(laurents(max_terms=5).filter(lambda f: f.reflect() != f), st.integers(0, 12))
    def test_division_always_exact(self, f, n):
        """(R - I)f vanishes at z = +-1, so the divided term never
        leaves a remainder, for any Laurent input: apply_k equals the
        composed formula, whose div_exact raises on a remainder, at
        lam = 0 and lam = lambda_n."""
        for alpha, beta in ((F(1, 2), F(-1, 2)), (F(1), F(2))):
            p = JacobiParams(alpha, beta)
            divided = (LaurentPoly({2: p.s, 1: p.d}) * (f.reflect() - f)).div_exact(
                ONE_MINUS_Z2
            )
            for lam in (0, lambda_n(p, n)):
                assert apply_k(f, p, lam) == f.theta() - f * lam + divided
        apply_k_single_moment(f)

    @given(laurents(max_terms=5))
    def test_specializations_coincide(self, f):
        assert apply_k(f, P_SM) == apply_k_single_moment(f)

    @given(k_inputs, jacobi_params())
    @example(LaurentPoly.zero(), JacobiParams(1, 2))
    @example(LaurentPoly({2: 1, -2: 1, 0: 3}), JacobiParams(F(1, 3), F(-1, 7)))
    @example(LaurentPoly({3: F(1, 2), -3: F(-1, 2)}), JacobiParams(F(2, 5), F(2, 5)))
    @example(LaurentPoly({1: 4, -3: F(2, 9)}), JacobiParams(F(1, 10**12 - 1), F(-1, 10**11)))
    def test_matches_composed_formula(self, f, p):
        """The one-pass integer kernel equals the composed formula
        theta f + ((s z^2 + d z)(R f - f)) / (1 - z^2), in normal form."""
        want = f.theta() + (LaurentPoly({2: p.s, 1: p.d}) * (f.reflect() - f)).div_exact(
            ONE_MINUS_Z2
        )
        got = apply_k(f, p)
        assert got == want
        assert_normal(got)

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_triangular_on_chi_flag(self, alpha, beta):
        """K chi_n = lambda_n chi_n + lower chi terms: the operator is
        triangular in the Laurent ordering with the eigenvalues on the
        diagonal, which is why the eigenfunctions exist at every n."""
        p = JacobiParams(alpha, beta)
        for n in range(21):
            res = apply_k(chi_basis(n), p) - chi_basis(n) * lambda_n(p, n)
            assert max_chi_index(res) < n


class TestBispectral:
    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_families_are_eigenfunctions(self, alpha, beta, family):
        rep = verify_bispectral(family(alpha, beta, 12))
        assert rep.ok
        assert len(rep.checks) == 13

    def test_requires_parameters(self):
        fam = family_from_verblunsky([F(-1, 2), F(-1, 3)])
        with pytest.raises(ValueError):
            verify_bispectral(fam)

    def test_perturbed_family_fails(self, family):
        a = [F(-1, n + 2) for n in range(6)]
        a[1] += F(1, 100)
        bad = family_from_verblunsky(a, params=P_SM)
        rep = verify_bispectral(bad)
        assert not rep.ok
        assert any(c.detail for c in rep.failures)


class TestSelfAdjointness:
    def test_residual_small_on_weighted_circle(self):
        f = LaurentPoly({2: 1, 0: F(1, 3)})
        g = LaurentPoly({-1: 1, 1: F(1, 2)})
        points = ((F(1, 2), F(-1, 2)), (F(0), F(0)), (F(1), F(2)), (F(3, 7), F(-2, 5)))
        for alpha, beta in points:
            res = selfadjoint_residual(f, g, JacobiParams(alpha, beta))
            assert isinstance(res, Fraction) and res == 0
