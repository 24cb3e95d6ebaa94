"""Verblunsky coefficients, the monic chain, and its Laurent companions."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from circlejacobi.errors import BadSupport, BadVerblunsky, ParamOutOfRange
from circlejacobi.laurent import LaurentPoly, Rational
from circlejacobi.opuc import (
    JacobiParams,
    OPUCFamily,
    build_family,
    family_from_verblunsky,
    per_family,
    star,
    szego_advance,
    verblunsky,
)

from circle_oracle import (
    chi_basis,
    chi_index,
    single_moment_phi,
    single_moment_verblunsky,
    support,
)
from conftest import GRID, PARAM, verblunsky_lists

F = Fraction


class TestParams:
    def test_domain(self):
        with pytest.raises(ParamOutOfRange):
            JacobiParams(-1, 0)
        with pytest.raises(ParamOutOfRange):
            JacobiParams(0, F(-3, 2))
        p = JacobiParams("3/2", "1/2")
        assert p.alpha == F(3, 2) and isinstance(p.alpha, Fraction)

    def test_derived_sums(self):
        p = JacobiParams(F(3, 2), F(1, 2))
        assert p.s == 3  # alpha + beta + 1
        assert p.d == 1  # alpha - beta

    def test_cached_sums_leave_identity_to_the_fields(self):
        p, q = JacobiParams(F(3, 2), F(1, 2)), JacobiParams(F(3, 2), F(1, 2))
        assert (p.s, p.d) == (3, 1) and p.s is p.s
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert repr(p) == "JacobiParams(alpha=Rational(3, 2), beta=Rational(1, 2))"
        assert p != JacobiParams(F(3, 2), F(-1, 2))

    def test_fields_are_read_only(self):
        p = JacobiParams(F(3, 2), F(1, 2))
        for name in ("alpha", "beta"):
            with pytest.raises(AttributeError):
                setattr(p, name, F(0))
        assert (p.alpha, p.beta) == (F(3, 2), F(1, 2))

    @given(PARAM, PARAM)
    def test_sums_exact_and_equal_points_alike(self, alpha, beta):
        p, q = JacobiParams(alpha, beta), JacobiParams(str(alpha), str(beta))
        assert (p.s, p.d) == (alpha + beta + 1, alpha - beta)
        assert all(type(v) is Rational for v in (p.alpha, p.beta, p.s, p.d))
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)


class TestVerblunsky:
    def test_single_moment_column(self):
        p = JacobiParams(F(1, 2), F(-1, 2))
        for n in range(20):
            assert verblunsky(p, n) == F(-1, n + 2)
            assert single_moment_verblunsky(n) == F(-1, n + 2)

    def test_free_point_vanishes(self):
        p = JacobiParams(F(-1, 2), F(-1, 2))
        assert all(verblunsky(p, n) == 0 for n in range(20))

    def test_symmetric_point(self):
        p = JacobiParams(0, 0)
        assert verblunsky(p, 0) == 0
        assert verblunsky(p, 1) == F(-1, 3)
        assert verblunsky(p, 2) == 0

    def test_alternating_closed_form(self):
        p = JacobiParams(F(1), F(2))
        # -(alpha + 1/2 + (-1)^(n+1) (beta + 1/2)) / (n + alpha + beta + 2)
        assert verblunsky(p, 0) == -(F(3, 2) - F(5, 2)) / 5
        assert verblunsky(p, 1) == -(F(3, 2) + F(5, 2)) / 6
        assert verblunsky(p, 3) == -4 / F(8)

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_always_inside_unit_interval(self, alpha, beta):
        p = JacobiParams(alpha, beta)
        for n in range(60):
            assert -1 < verblunsky(p, n) < 1


class TestStar:
    def test_reverses_coefficients(self):
        f = LaurentPoly({0: 1, 1: 2, 3: 5})
        assert star(f, 3) == LaurentPoly({3: 1, 2: 2, 0: 5})

    def test_degree_slack_allowed(self):
        # the reversal degree may exceed the actual degree
        f = LaurentPoly({0: 2})
        assert star(f, 2) == LaurentPoly({2: 2})

    def test_rejects_negative_support(self):
        with pytest.raises(BadSupport):
            star(LaurentPoly({-1: 1}), 3)
        with pytest.raises(BadSupport):
            star(LaurentPoly({4: 1}), 3)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=6))
    def test_involution(self, coeffs):
        f = LaurentPoly(dict(enumerate(coeffs)))
        n = len(coeffs) - 1
        assert star(star(f, n), n) == f


class TestFamily:
    def test_single_moment_phi_frozen(self, family):
        fam = family(F(1, 2), F(-1, 2), 8)
        # phi_n = (1/(n+1)) sum_k (k+1) z^k
        for n in range(9):
            want = LaurentPoly({k: F(k + 1, n + 1) for k in range(n + 1)})
            assert fam.phi[n] == want
            assert single_moment_phi(n) == want

    def test_psi_frozen_small(self, family):
        fam = family(F(1, 2), F(-1, 2), 4)
        assert fam.psi[0] == LaurentPoly.one()
        assert fam.psi[1] == LaurentPoly({1: 1, 0: F(1, 2)})
        assert fam.psi[2] == LaurentPoly({-1: 1, 0: F(2, 3), 1: F(1, 3)})

    def test_free_family_is_chi(self, family):
        fam = family(F(-1, 2), F(-1, 2), 10)
        for n in range(11):
            assert fam.psi[n] == chi_basis(n)
            assert fam.h[n] == 1

    def test_h_is_cumulative_product(self, family):
        fam = family(F(0), F(0), 8)
        acc = F(1)
        for n in range(9):
            assert fam.h[n] == acc
            if n < 8:
                acc *= 1 - fam.a[n] ** 2

    def test_monic_and_degree(self, family):
        fam = family(F(3, 2), F(1, 2), 12)
        for n, phi in enumerate(fam.phi):
            assert phi.coeff(n) == 1
            assert phi.max_exp == n
            assert phi.min_exp >= 0

    @settings(deadline=None)
    @given(verblunsky_lists(20))
    @example([verblunsky(JacobiParams(1, 2), n) for n in range(13)])
    def test_psi_laurent_window(self, a):
        fam = family_from_verblunsky(a)
        for n, psi in enumerate(fam.psi):
            lo = -(n // 2)
            hi = lo + n
            assert psi.min_exp >= lo and psi.max_exp <= hi
            # the leading chi coefficient is phi_n's leading one
            assert psi.coeff(hi if n % 2 else lo) == 1

    def test_szego_advance_step(self):
        phi1 = LaurentPoly({1: 1, 0: F(1, 2)})
        a1 = F(-1, 3)
        phi2 = szego_advance(phi1, a1, 1)
        assert phi2 == LaurentPoly({2: 1, 1: F(2, 3), 0: F(1, 3)})

    @pytest.mark.parametrize("a", [F(1), F(-1)])
    def test_szego_advance_refuses_a_unit_coefficient(self, a):
        with pytest.raises(BadVerblunsky):
            szego_advance(LaurentPoly({1: 1, 0: F(1, 2)}), a, 1)

    def test_bad_verblunsky_rejected(self):
        with pytest.raises(BadVerblunsky):
            family_from_verblunsky([F(1)])
        with pytest.raises(BadVerblunsky):
            family_from_verblunsky([F(0), F(3, 2)])

    def test_build_family_requires_positive_size(self):
        with pytest.raises(ValueError):
            build_family(JacobiParams(0, 0), 0)


class TestFamilyRecord:
    def test_equality_ignores_the_memo(self):
        p = JacobiParams(F(1), F(2))
        fam, twin = build_family(p, 6), build_family(p, 6)
        fam.derived["probe"] = fam.a[0]
        assert fam == twin and fam.derived != twin.derived

    def test_each_field_takes_part(self):
        fam = build_family(JacobiParams(F(1), F(2)), 6)
        fields = {"params": fam.params, "a": fam.a, "phi": fam.phi, "h": fam.h, "psi": fam.psi}
        assert OPUCFamily(**fields) == fam
        for name, value in fields.items():
            changed = None if name == "params" else value[:-1]
            assert OPUCFamily(**{**fields, name: changed}) != fam, name

    @pytest.mark.parametrize("k", range(7))
    def test_one_different_coefficient_is_unequal(self, k):
        fam = build_family(JacobiParams(F(1), F(2)), 6)
        a = list(fam.a)
        a[k] += F(1, 100)
        bad = OPUCFamily(fam.params, tuple(a), fam.phi, fam.h, fam.psi)
        assert bad != fam and not bad == fam

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(build_family(JacobiParams(0, 0), 3))


class TestChiBasis:
    def test_ordering(self):
        assert chi_basis(0) == LaurentPoly.one()
        assert chi_basis(1) == LaurentPoly({1: 1})
        assert chi_basis(2) == LaurentPoly({-1: 1})
        assert chi_basis(3) == LaurentPoly({2: 1})
        assert chi_basis(4) == LaurentPoly({-2: 1})

    def test_chi_index_inverts(self):
        for n in range(12):
            [exp] = support(chi_basis(n))
            assert chi_index(exp) == n


@given(
    st.lists(
        st.fractions(min_value=F(-7, 8), max_value=F(7, 8), max_denominator=8),
        min_size=1,
        max_size=7,
    )
)
def test_structural_identities_hold_for_any_coefficients(a):
    """The Laurent companions of any admissible coefficient sequence
    satisfy the reflection and recurrence row identities."""
    from circlejacobi.cmv import verify_gevp_and_five_term, verify_reflection_rows

    fam = family_from_verblunsky([F(x) for x in a])
    assert verify_reflection_rows(fam).ok
    assert verify_gevp_and_five_term(fam).ok
    for n in range(fam.size + 1):
        assert fam.h[n] > 0


class TestPerFamily:
    def test_builds_once_per_instance_and_args(self):
        calls = []

        @per_family("probe")
        def probe(fam, *args):
            calls.append((id(fam), args))
            return [fam.a[0], *args]

        p = JacobiParams(F(1), F(2))
        fam = build_family(p, 4)
        first = probe(fam)
        assert probe(fam) is first
        assert probe(fam, 3) is probe(fam, 3)
        assert probe(fam, 3, "Q") is not probe(fam, 3)
        assert calls == [(id(fam), ()), (id(fam), (3,)), (id(fam), (3, "Q"))]
        # the key is the name alone without args, else (name, *args)
        assert fam.derived == {"probe": first, ("probe", 3): [fam.a[0], 3],
                               ("probe", 3, "Q"): [fam.a[0], 3, "Q"]}

    def test_memo_belongs_to_the_instance_not_the_params(self):
        @per_family("a0")
        def a0(fam):
            return fam.a[0]

        p = JacobiParams(F(1), F(2))
        clean = build_family(p, 4)
        bad = family_from_verblunsky([clean.a[0] + F(1, 100), *clean.a[1:]], params=p)
        assert bad.params == clean.params
        assert a0(clean) == clean.a[0]
        assert a0(bad) == clean.a[0] + F(1, 100)
        assert clean.derived == {"a0": clean.a[0]}
        assert bad.derived == {"a0": clean.a[0] + F(1, 100)}

    def test_a_failed_build_leaves_no_entry(self):
        @per_family("top")
        def top(fam, n):
            return fam.phi[n]

        fam = build_family(JacobiParams(F(1), F(2)), 4)
        with pytest.raises(IndexError):
            top(fam, 9)
        assert fam.derived == {}
