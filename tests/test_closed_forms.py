"""The closed forms on integer parts equal their Fraction expressions.

Each closed form of the package is one integer numerator and denominator
reduced once; ``closed_form_oracle`` keeps the same formula as a chain
of Fraction operations.  The points below reach the cancelled forms
(alpha + beta = 0 for ``jacobi_b`` at k = 0, alpha + beta = -1 for
``jacobi_u`` at k = 1), integer parameters, alpha = beta, parameters
over one denominator and over unrelated ones, parameters near -1 and
with about 200-bit denominators.
"""

from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings, strategies as st

import closed_form_oracle as oracle
from circlejacobi import algebra, dunkl, opuc, szego
from circlejacobi.laurent import Rational
from circlejacobi.opuc import JacobiParams, family_from_verblunsky
from conftest import PARAM, VERBLUNSKY_A, verblunsky_lists

# a rational in (-1/2, 1/2), for the points on alpha + beta = 0 and -1
HALF_OPEN = st.fractions(min_value=F(-1, 2), max_value=F(1, 2), max_denominator=40).filter(
    lambda t: abs(t) < F(1, 2))
WIDE = st.integers(2**199, 2**200)

POINTS = st.one_of(
    st.tuples(PARAM, PARAM),
    PARAM.map(lambda a: (a, a)),
    st.tuples(st.integers(0, 6), st.integers(0, 6)).map(lambda t: (F(t[0]), F(t[1]))),
    st.integers(1, 12).flatmap(lambda q: st.tuples(
        st.integers(1 - q, 3 * q), st.integers(1 - q, 3 * q)).map(
            lambda t: (F(t[0], q), F(t[1], q)))),
    HALF_OPEN.map(lambda t: (t, -t)),
    HALF_OPEN.map(lambda t: (t - F(1, 2), -t - F(1, 2))),
    st.tuples(WIDE, WIDE, st.integers(-2, 3)).map(
        lambda t: (F(t[0] + 1, t[0]) + t[2], F(1, t[1]) - 1 + F(1, 1 + t[1]))),
)


def assert_form(got, want) -> None:
    """got is a reduced Rational equal to the Fraction want."""
    assert type(got) is Rational and got == want, (got, want)
    assert got.denominator > 0 and gcd(got.numerator, got.denominator) == 1


class TestParameterForms:
    @settings(deadline=None)
    @given(POINTS)
    def test_scalars_of_a_point(self, point):
        p = JacobiParams(*point)
        for n in range(41):
            assert_form(opuc.verblunsky(p, n), oracle.verblunsky(p, n))
            assert_form(dunkl.lambda_n(p, n), oracle.lambda_n(p, n))
            assert_form(algebra.big_lambda(p, n), oracle.big_lambda(p, n))
            assert_form(szego._mu(p, n), oracle.mu(p, n))

    @settings(deadline=None)
    @given(POINTS)
    def test_classical_recurrence(self, point):
        # the Q chain's oracle runs at (alpha + 1, beta + 1)
        for shift in (0, 1):
            alpha, beta = (Rational(v + shift) for v in point)
            for k in range(31):
                assert_form(szego.jacobi_b(alpha, beta, k), oracle.jacobi_b(alpha, beta, k))
                if k:
                    assert_form(szego.jacobi_u(alpha, beta, k), oracle.jacobi_u(alpha, beta, k))

    def test_cancelled_forms_stay_defined(self):
        # alpha + beta = 0 and -1 make the general k = 0 and k = 1 forms 0/0
        assert szego.jacobi_b(Rational(1, 3), Rational(-1, 3), 0) == F(-2, 3)
        assert szego.jacobi_u(Rational(-1, 4), Rational(-3, 4), 1) == F(3, 2)

    @given(st.one_of(POINTS, st.tuples(st.fractions(), st.fractions()),
                     st.tuples(st.integers(-9, 9), st.integers(-9, 9))))
    def test_relation_constants_of_raw_points(self, point):
        # derive_representation passes points JacobiParams rejects, ints included
        for got, want in zip(algebra.relation_constants(*point),
                             oracle.relation_constants(*point)):
            for g, w in zip(got, want):
                assert_form(g, w)

    @given(st.one_of(PARAM, st.integers(1, 2**64).map(lambda q: F(1, q) - 1)),
           st.one_of(PARAM, st.integers(1, 2**64).map(lambda q: F(1, q) - 1)))
    def test_verblunsky_inside_the_disk_without_a_check(self, alpha, beta):
        # verblunsky has no range check: for alpha, beta > -1 the integer
        # form's numerator is smaller than its denominator at every n
        p = JacobiParams(alpha, beta)
        for n in range(401):
            a = opuc.verblunsky(p, n)
            assert abs(a.numerator) < a.denominator, n


# a_k lists over one denominator, and lists whose a_k have their own
COMMON_DENOMINATOR = st.integers(2, 60).flatmap(
    lambda q: st.lists(st.integers(1 - q, q - 1), min_size=1, max_size=24).map(
        lambda nums: [F(k, q) for k in nums]))
WIDE_A = st.lists(st.one_of(VERBLUNSKY_A, WIDE.map(lambda q: F(q - 1, q)),
                            WIDE.map(lambda q: F(1 - q, q + 1))), min_size=1, max_size=24)


class TestFamilyForms:
    @settings(deadline=None)
    @given(st.one_of(verblunsky_lists(24), COMMON_DENOMINATOR, WIDE_A, POINTS))
    def test_recurrence_coefficients(self, data):
        if isinstance(data, tuple):  # a Jacobi family at that point
            fam = opuc.build_family(JacobiParams(*data), 20)
        else:
            fam = family_from_verblunsky(data)
        size = fam.size
        # each form reads a_k up to k = 2n, 2n + 2, 2n - 1, 2n + 1 and 2n - 2
        for form, top in ((szego.b_coeff, size // 2), (szego.bt_coeff, (size - 2) // 2),
                          (szego.u_coeff, (size + 1) // 2), (szego.ut_coeff, (size - 1) // 2),
                          (szego._c2, (size + 2) // 2)):
            want = getattr(oracle, form.__name__.strip("_"))
            for n in range(top + 1):
                assert_form(form(fam, n), want(fam, n))
