"""Exact Laurent arithmetic: frozen examples and algebraic properties."""

import operator
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from circlejacobi.errors import NotDivisible, ZeroArgument
from circlejacobi.laurent import (
    LaurentPoly,
    ONE_MINUS_Z2,
    Rational,
    Z,
    Z_MINUS_ZINV,
    Z_PLUS_ZINV,
    _pair,
    _signed,
)

from circle_oracle import constant

F = Fraction


@st.composite
def laurents(draw, max_terms=6, span=6):
    n = draw(st.integers(0, max_terms))
    d: dict[int, Fraction] = {}
    for _ in range(n):
        e = draw(st.integers(-span, span))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        d[e] = d.get(e, F(0)) + F(num, den)
    return LaurentPoly(d)


nonzero_laurents = laurents().filter(lambda f: not f.is_zero)


@st.composite
def divisors(draw):
    """Integer polynomials of span >= 1 whose primitive part has a leading
    coefficient other than 1 or -1, at a random (often negative) offset,
    scaled by a random rational."""
    lo = draw(st.integers(-5, 3))
    span = draw(st.integers(1, 4))
    body = [draw(st.integers(-9, 9)) for _ in range(span)]
    lead = draw(st.integers(2, 9)) * draw(st.sampled_from((1, -1)))
    if not body[0] or gcd(lead, *body) > 1:
        # a nonzero constant term keeps the span, content 1 keeps lead
        # the leading coefficient of the primitive part
        body[0] = 1
    scale = F(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return LaurentPoly({lo + i: c for i, c in enumerate([*body, lead])}) * scale


# A reference model: a Laurent polynomial as a dict exponent -> nonzero Fraction.

def model(f: LaurentPoly) -> dict:
    return dict(f.items())


def model_add(f: dict, g: dict, sign=1) -> dict:
    out = dict(f)
    for k, c in g.items():
        out[k] = out.get(k, F(0)) + sign * c
    return {k: c for k, c in out.items() if c}


def model_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for j, a in f.items():
        for k, b in g.items():
            out[j + k] = out.get(j + k, F(0)) + a * b
    return {k: c for k, c in out.items() if c}


def assert_normal(f: LaurentPoly) -> None:
    """The stored form: positive denominator, nonzero end numerators, and
    no factor common to the denominator and every numerator."""
    assert f._den > 0
    if f.is_zero:
        assert (f._lo, f._num, f._den) == (0, (), 1)
    else:
        assert f._num[0] and f._num[-1]
        assert gcd(f._den, *f._num) == 1


@st.composite
def constructor_items(draw):
    """(exponent, value) items: exponents in [-3, 3], so they repeat, and
    values n/d, zero among them, as an int, an unreduced "n/d" string, a
    Fraction or a Rational."""
    items = []
    for _ in range(draw(st.integers(0, 8))):
        n, d = draw(st.integers(-9, 9)), draw(st.integers(1, 9))
        items.append((draw(st.integers(-3, 3)),
                      draw(st.sampled_from([n, f"{n}/{d}", F(n, d), Rational(n, d)]))))
    return items


class TestConstruction:
    @given(constructor_items())
    def test_items_match_fraction_model(self, items):
        """Repeated exponents add up, zero sums are dropped, every value
        type is read exactly, and the result is in normal form; a mapping
        is read as its items."""
        want: dict = {}
        for k, v in items:
            want[k] = want.get(k, F(0)) + F(v)
        f = LaurentPoly(items)
        assert model(f) == {k: c for k, c in want.items() if c}
        assert_normal(f)
        last = dict(items)
        g = LaurentPoly(last)
        assert model(g) == {k: F(v) for k, v in last.items() if F(v)}
        assert_normal(g)

    def test_zero_coefficients_are_not_stored(self):
        f = LaurentPoly({0: 1, 2: 0, 5: F(0)})
        assert list(f.items()) == [(0, 1)]
        assert len(f) == 1

    def test_duplicate_exponents_accumulate(self):
        f = LaurentPoly([(1, F(1, 2)), (1, F(1, 2)), (0, 3)])
        assert f == LaurentPoly({0: 3, 1: 1})

    def test_cancellation_in_constructor(self):
        f = LaurentPoly([(2, 1), (2, -1)])
        assert f.is_zero

    @pytest.mark.parametrize("exponent", [1.5, F(3, 2), 2.0, F(2)])
    def test_non_integer_exponents_are_rejected(self, exponent):
        # operator.index, not int: int(1.5) and int(Fraction(3, 2)) are 1,
        # which used to turn both into z without a word
        with pytest.raises(TypeError):
            LaurentPoly({exponent: 1})
        with pytest.raises(TypeError):
            LaurentPoly([(exponent, 1)])

    def test_int_and_bool_exponents(self):
        assert LaurentPoly({True: 2, False: 1, -3: 1}) == LaurentPoly({1: 2, 0: 1, -3: 1})
        f = LaurentPoly([(-2, 1), (7, F(1, 2))])
        assert list(f.items()) == [(-2, 1), (7, F(1, 2))]

    def test_string_scalars_are_exact(self):
        f = LaurentPoly({-1: "1/3"})
        assert f.coeff(-1) == F(1, 3)

    def test_constants(self):
        assert Z == LaurentPoly.monomial(1)
        assert ONE_MINUS_Z2 == LaurentPoly({0: 1, 2: -1})
        assert Z_MINUS_ZINV == LaurentPoly({1: 1, -1: -1})
        assert Z_PLUS_ZINV == LaurentPoly({1: 1, -1: 1})

    def test_min_max_exp_of_zero_raise(self):
        with pytest.raises(ValueError):
            LaurentPoly.zero().min_exp
        with pytest.raises(ValueError):
            LaurentPoly.zero().max_exp


class TestArithmetic:
    def test_product_frozen(self):
        # (1 + 2z)(3 - z) = 3 + 5z - 2z^2
        f = LaurentPoly({0: 1, 1: 2})
        g = LaurentPoly({0: 3, 1: -1})
        assert f * g == LaurentPoly({0: 3, 1: 5, 2: -2})

    def test_scalar_ops(self):
        f = LaurentPoly({-1: 1, 1: 1})
        assert f * 2 == LaurentPoly({-1: 2, 1: 2})
        assert 2 * f == f * F(2)
        assert f / 2 == LaurentPoly({-1: F(1, 2), 1: F(1, 2)})
        assert f + 1 == LaurentPoly({-1: 1, 0: 1, 1: 1})
        assert 1 - f == LaurentPoly({-1: -1, 0: 1, 1: -1})

    def test_pow(self):
        assert Z_PLUS_ZINV**2 == LaurentPoly({-2: 1, 0: 2, 2: 1})
        assert list((Z**5).items()) == [(5, 1)]
        assert Z**0 == LaurentPoly.one()
        with pytest.raises(ValueError):
            Z**-1

    def test_equality_with_scalars(self):
        assert constant(F(2, 3)) == F(2, 3)
        assert LaurentPoly.zero() == 0
        assert LaurentPoly({1: 1}) != 1

    def test_hashable(self):
        s = {LaurentPoly({0: 1}), LaurentPoly.one(), Z}
        assert len(s) == 2

    @given(laurents(), laurents(), laurents())
    def test_distributive(self, f, g, h):
        assert f * (g + h) == f * g + f * h

    @given(laurents(), laurents())
    def test_mul_commutes(self, f, g):
        assert f * g == g * f


class TestNormalForm:
    @given(laurents(), laurents(), laurents())
    def test_operation_order_gives_one_form(self, f, g, h):
        left, right = f * (g + h), f * g + f * h
        assert left == right and hash(left) == hash(right)
        back = (f + g) - g
        assert back == f and hash(back) == hash(f)
        assert hash(f * g) == hash(g * f)

    @given(laurents(), laurents(), st.fractions(max_denominator=50))
    def test_every_result_is_normal(self, f, g, c):
        for r in (f + g, f - g, f * g, f * c, -f, f.theta(), f.deriv(),
                  f.reflect(), f.shift(-3), 1 - f):
            assert_normal(r)

    def test_scaled_copies_share_one_form(self):
        f = LaurentPoly({-1: F(2, 3), 2: F(4, 9)})
        assert (f * 6) / 6 == f and hash((f * 6) / 6) == hash(f)
        assert (f * F(3, 2)) * F(2, 3) == f
        assert_normal(f * F(9, 2))

    @given(laurents(), laurents(), st.fractions(max_denominator=50))
    def test_matches_dict_model(self, f, g, c):
        mf, mg = model(f), model(g)
        assert model(f + g) == model_add(mf, mg)
        assert model(f - g) == model_add(mf, mg, -1)
        assert model(f * g) == model_mul(mf, mg)
        assert model(f * c) == {k: v * c for k, v in mf.items() if v * c}
        assert model(f.reflect()) == {-k: v for k, v in mf.items()}
        assert model(f.shift(2)) == {k + 2: v for k, v in mf.items()}
        assert model(f.theta()) == {k: k * v for k, v in mf.items() if k}
        assert model(f.deriv()) == {k - 1: k * v for k, v in mf.items() if k}
        h = f + g
        for k in range(-14, 15):
            assert h.coeff(k) == model_add(mf, mg).get(k, 0)
        assert [k for k, _ in h.items()] == sorted(model_add(mf, mg))
        assert len(h) == len(model_add(mf, mg))


@st.composite
def lincomb_terms(draw, max_terms=5):
    """(scalar, polynomial) pairs: int and Fraction scalars, zero among
    them, over shifted and reflected polynomials of unequal supports."""
    scalars = st.one_of(
        st.integers(-6, 6), st.fractions(max_denominator=40), st.just(F(0))
    )
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        f = draw(laurents())
        f = draw(st.sampled_from([f, f.shift(3), f.shift(-5), f.reflect()]))
        terms.append((draw(scalars), f))
    return terms


class TestLincomb:
    @given(lincomb_terms())
    def test_matches_operator_sum(self, terms):
        want = LaurentPoly.zero()
        for c, f in terms:
            want = want + f * c
        got = LaurentPoly.lincomb(terms)
        assert got == want and hash(got) == hash(want)
        assert_normal(got)

    @given(lincomb_terms())
    def test_cancelling_terms_give_zero(self, terms):
        got = LaurentPoly.lincomb([*terms, *((-c, f) for c, f in terms)])
        assert (got._lo, got._num, got._den) == (0, (), 1)

    def test_empty_and_zero_terms(self):
        f = LaurentPoly({-1: F(1, 3), 2: 5})
        cancel = [(F(1, 2), f), (F(1, 3), f), (F(-5, 6), f), (2, f.shift(1)), (-2, f.shift(1))]
        for terms in ([], [(0, f)], [(F(0), f)], [(3, LaurentPoly.zero())], cancel):
            got = LaurentPoly.lincomb(terms)
            assert (got._lo, got._num, got._den) == (0, (), 1)
        assert LaurentPoly.lincomb([(1, f)]) == f
        assert LaurentPoly.lincomb(iter([(2, f), (F(-1, 2), f)])) == f * F(3, 2)

    def test_shifted_terms_multiply_by_fixed_polynomials(self):
        f = LaurentPoly({-2: F(2, 7), 0: -1, 3: F(5, 3)})
        assert LaurentPoly.lincomb([(1, f.shift(1)), (-1, f.shift(-1))]) == Z_MINUS_ZINV * f
        assert LaurentPoly.lincomb([(1, f.shift(1)), (1, f.shift(-1))]) == Z_PLUS_ZINV * f
        d2 = [(1, f.shift(2)), (-2, f), (1, f.shift(-2))]
        assert LaurentPoly.lincomb(d2) == Z_MINUS_ZINV * Z_MINUS_ZINV * f

    def test_wide_denominators_frozen(self):
        # 1/6 z + 1/10 z = 4/15 z over the lcm 30, not the product 60
        got = LaurentPoly.lincomb([(F(1, 2), LaurentPoly({1: F(1, 3)})),
                                   (F(1, 5), LaurentPoly({1: F(1, 2)}))])
        assert (got._lo, got._num, got._den) == (1, (4,), 15)


class TestStructureMaps:
    def test_reflect_frozen(self):
        f = LaurentPoly({2: 1, -1: 2})
        assert f.reflect() == LaurentPoly({-2: 1, 1: 2})

    def test_shift(self):
        f = LaurentPoly({0: 1, 1: 1})
        assert f.shift(2) == LaurentPoly({2: 1, 3: 1})
        assert f.shift(-1) == LaurentPoly({-1: 1, 0: 1})
        assert f.shift() == LaurentPoly({1: 1, 2: 1})

    def test_theta_and_deriv_frozen(self):
        f = LaurentPoly({-2: 3})
        assert f.theta() == LaurentPoly({-2: -6})
        assert f.deriv() == LaurentPoly({-3: -6})
        assert constant(7).theta().is_zero

    @given(laurents())
    def test_reflect_involution(self, f):
        assert f.reflect().reflect() == f

    @given(laurents(), laurents())
    def test_reflect_is_ring_map(self, f, g):
        assert (f * g).reflect() == f.reflect() * g.reflect()
        assert (f + g).reflect() == f.reflect() + g.reflect()

    @given(laurents(), laurents())
    def test_theta_leibniz(self, f, g):
        assert (f * g).theta() == f.theta() * g + f * g.theta()

    @given(laurents())
    def test_theta_is_z_deriv(self, f):
        assert f.theta() == f.deriv().shift(1)

    @given(laurents())
    def test_reflect_negates_theta(self, f):
        # theta(Rf) = -R(theta f)
        assert f.reflect().theta() == -(f.theta().reflect())


class TestDivision:
    def test_exact_quotient_frozen(self):
        # (1 - z^2) / (1 - z) = 1 + z
        num = LaurentPoly({0: 1, 2: -1})
        den = LaurentPoly({0: 1, 1: -1})
        assert num.div_exact(den) == LaurentPoly({0: 1, 1: 1})

    def test_laurent_normalization(self):
        # (z - 1/z) / (1 - 1/z) = z + 1
        num = Z_MINUS_ZINV
        den = LaurentPoly({0: 1, -1: -1})
        assert num.div_exact(den) == LaurentPoly({0: 1, 1: 1})

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            LaurentPoly({0: 1, 2: 1}).div_exact(LaurentPoly({0: 1, 1: 1}))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            Z.div_exact(LaurentPoly.zero())

    def test_zero_dividend(self):
        assert LaurentPoly.zero().div_exact(Z).is_zero

    @given(laurents(), nonzero_laurents)
    def test_mul_div_roundtrip(self, f, g):
        assert (f * g).div_exact(g) == f

    @given(laurents(), divisors())
    def test_non_unit_leading_coefficient(self, q, g):
        assert (q * g).div_exact(g) == q

    def test_non_unit_leading_coefficient_frozen(self):
        # (1/2 + z/3)(3 - 2z^-1 + 5z) / (3 - 2z^-1 + 5z) = 1/2 + z/3
        g = LaurentPoly({-1: -2, 0: 3, 1: 5})
        q = LaurentPoly({0: F(1, 2), 1: F(1, 3)})
        assert (q * g).div_exact(g) == q
        assert (q * g).div_exact(q) == g

    @given(laurents(), divisors(), st.data())
    def test_remainder_raises(self, q, g, data):
        # a nonzero r spanning fewer exponents than g is no multiple of g,
        # so q g + r is not divisible by g
        lo = data.draw(st.integers(-6, 6))
        r = LaurentPoly({
            lo + i: data.draw(st.fractions(max_denominator=9))
            for i in range(g.max_exp - g.min_exp)
        })
        if r.is_zero:
            r = LaurentPoly.monomial(lo)
        with pytest.raises(NotDivisible, match=r"\) does not divide \("):
            (q * g + r).div_exact(g)

    def test_not_divisible_message(self):
        with pytest.raises(NotDivisible) as exc:
            LaurentPoly({0: 1, 2: 1}).div_exact(LaurentPoly({0: 2, 1: 3}))
        assert str(exc.value) == "(2 + 3*z) does not divide (1 + z^2) exactly"


class TestEvaluation:
    def test_frozen_value(self):
        f = LaurentPoly({-1: 1, 0: F(2, 3), 1: F(1, 3)})
        assert f(F(1, 2)) == 2 + F(2, 3) + F(1, 6)

    def test_zero_argument_raises(self):
        with pytest.raises(ZeroArgument):
            LaurentPoly({-1: 1})(0)

    @given(laurents(), laurents())
    def test_evaluation_is_ring_map(self, f, g):
        z0 = F(3, 2)
        assert (f * g)(z0) == f(z0) * g(z0)
        assert (f + g)(z0) == f(z0) + g(z0)


def fraction_text(f: LaurentPoly) -> str:
    """The canonical text built term by term from reduced Fractions."""
    parts: list[str] = []
    for k, c in f.items():
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "z" if k == 1 else f"z^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


@st.composite
def wide_laurents(draw):
    """Numerators and denominators far past one machine word, with the
    +-1 coefficients, the constant term and negative leading terms that
    the text form treats specially."""
    coeff = st.one_of(
        st.sampled_from([F(1), F(-1), F(2), F(-1, 2)]),
        st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**30)),
    )
    return LaurentPoly(draw(st.dictionaries(st.integers(-4, 4), coeff, max_size=6)))


class TestText:
    @given(st.one_of(laurents(), wide_laurents()))
    def test_matches_fraction_built_text(self, f):
        assert f.text() == fraction_text(f)
        assert (-f).text() == fraction_text(-f)

    def test_canonical_forms(self):
        assert LaurentPoly.zero().text() == "0"
        assert LaurentPoly({-1: F(1, 3), 0: F(2, 3), 1: F(1, 3)}).text() == (
            "1/3*z^-1 + 2/3 + 1/3*z"
        )
        assert LaurentPoly({1: 1, -1: -1}).text() == "-z^-1 + z"
        assert LaurentPoly({0: -2, 2: 1}).text() == "-2 + z^2"
        assert str(Z) == "z"


# Operands of the Rational tests: 0, +-1, small and about 600-bit ints, as
# an int, a Fraction or a Rational.
BIG = st.integers(2**599, 2**600) | st.integers(-(2**600), -(2**599))
INTS = st.sampled_from((0, 1, -1)) | st.integers(-9, 9) | BIG
NONZERO = INTS.filter(bool)
RATIONALS = st.builds(Rational, INTS, NONZERO)
OPERANDS = INTS | st.builds(F, INTS, NONZERO) | RATIONALS
SMALL = st.builds(Rational, st.integers(-50, 50), st.integers(1, 50))


def assert_reduced(v) -> None:
    assert type(v) is Rational
    assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


@st.composite
def same_denominator(draw):
    """Two reduced Rationals over one denominator: 1 (so 0 and +-1 are
    reachable), small or about 600 bits."""
    d = draw(st.just(1) | st.integers(2, 12) | BIG.map(abs))
    m, n = (draw(INTS.filter(lambda k: gcd(k, d) == 1)) for _ in range(2))
    return Rational(m, d), Rational(n, d)


class TestRational:
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    @given(RATIONALS, OPERANDS)
    def test_binary_operators_match_fraction(self, op, r, x):
        if op is operator.truediv and x == 0:
            with pytest.raises(ZeroDivisionError):
                op(r, x)
            return
        got = op(r, x)
        assert got == op(F(r), F(x))
        assert_reduced(got)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    @given(RATIONALS, OPERANDS)
    def test_reflected_operators_match_fraction(self, op, r, x):
        got = op(x, r)
        assert got == op(F(x), F(r))
        assert_reduced(got)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    @given(same_denominator())
    def test_equal_denominators_match_fraction(self, op, pair):
        # + and - over one denominator go through the general gcd steps,
        # which reduce n/d with g = d; both orders and r op r
        a, b = pair
        assert a.denominator == b.denominator
        for x, y in ((a, b), (b, a), (a, a)):
            got = op(x, y)
            assert got == op(F(x), F(y))
            assert_reduced(got)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    @given(RATIONALS, INTS | st.just(True))
    def test_int_operands_match_fraction(self, op, r, k):
        # the int path: + and - keep r's denominator, * takes one gcd
        for got, want in ((op(r, k), op(F(r), k)), (op(k, r), op(k, F(r)))):
            assert got == want
            assert_reduced(got)
            if op is not operator.mul:
                assert got.denominator == r.denominator

    @given(INTS, NONZERO, INTS, NONZERO)
    def test_signed_and_pair(self, n, d, m, e):
        # _signed reduces n/d with one gcd and moves the sign onto n, and
        # _pair puts two scalars over the lcm of their denominators
        got = _signed(n, d)
        assert got == F(n, d)
        assert_reduced(got)
        x, y = Rational(n, d), F(m, e)
        xn, yn, q = _pair(x, y)
        assert q == lcm(x.denominator, y.denominator) and (F(xn, q), F(yn, q)) == (x, y)
        with pytest.raises(ZeroDivisionError):
            _signed(n, 0)

    @given(RATIONALS, st.integers(-5, 5))
    def test_negation_and_int_powers(self, r, k):
        assert -r == -F(r)
        assert_reduced(-r)
        if r == 0 and k < 0:
            with pytest.raises(ZeroDivisionError):
                r ** k
            return
        assert r ** k == F(r) ** k
        assert_reduced(r ** k)

    @given(RATIONALS)
    def test_division_by_zero_raises(self, r):
        for zero in (0, F(0), Rational(0)):
            with pytest.raises(ZeroDivisionError):
                r / zero

    @given(RATIONALS, OPERANDS)
    def test_comparisons_match_fraction(self, r, x):
        f = F(r)
        for op in (operator.eq, operator.lt, operator.gt, operator.le):
            assert op(r, x) == op(f, x) and op(x, r) == op(x, f)

    @given(RATIONALS)
    def test_hash_str_and_identity(self, r):
        f = F(r)
        assert r == f and hash(r) == hash(f) and str(r) == str(f)
        if r.denominator == 1:
            assert r == r.numerator and hash(r) == hash(r.numerator)
        assert Rational(r) is r

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv, operator.pow])
    @given(SMALL, st.floats(-100, 100).filter(bool))
    def test_float_operands_give_fractions_result(self, op, r, x):
        def outcome(a, b):
            try:
                return op(a, b)
            except (ZeroDivisionError, OverflowError) as exc:
                return type(exc)

        for got, want in ((outcome(r, x), outcome(F(r), x)), (outcome(x, r), outcome(x, F(r)))):
            assert type(got) is type(want) and got == want

    @given(laurents())
    def test_polynomials_hand_out_rationals(self, f):
        for k, c in f.items():
            assert_reduced(c)
            assert f.coeff(k) == c and type(f.coeff(k)) is Rational
        assert type(f.coeff(99)) is Rational and type(f(F(3, 2))) is Rational


# Scalars of the lincomb reference model: ints (0, +-1 and True among
# them), plain Fractions and Rationals, small and about 600 bits.
LINCOMB_SCALARS = INTS | st.just(True) | st.builds(F, INTS, NONZERO) | RATIONALS
DENOMINATORS = st.integers(1, 12) | BIG.map(abs)


@st.composite
def mixed_denominator_terms(draw):
    """(scalar, polynomial) pairs whose polynomials are zero, stored over
    one shared denominator, or stored over a denominator of their own."""
    shared = draw(DENOMINATORS)
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("zero", "shared", "own")))
        if kind == "zero":
            f = LaurentPoly.zero()
        else:
            den = shared if kind == "shared" else draw(DENOMINATORS)
            lo = draw(st.integers(-5, 5))
            # a leading numerator 1 keeps den the stored denominator
            nums = [1, *draw(st.lists(INTS, max_size=4))]
            f = LaurentPoly({lo + i: F(c, den) for i, c in enumerate(nums)})
            assert f._den == den
        terms.append((draw(LINCOMB_SCALARS), f))
    return terms


def model_lincomb(terms, den=1) -> dict:
    """sum(c * f) / den as a dict exponent -> nonzero Fraction."""
    out: dict = {}
    for c, f in terms:
        for k, v in f.items():
            out[k] = out.get(k, F(0)) + F(c) * F(v)
    return {k: v / den for k, v in out.items() if v}


class TestLincombReference:
    @given(mixed_denominator_terms())
    def test_matches_fraction_sum(self, terms):
        got = LaurentPoly.lincomb(terms)
        assert model(got) == model_lincomb(terms)
        assert_normal(got)
        assert type(got._den) is int and all(type(c) is int for c in got._num)

    @given(mixed_denominator_terms(), DENOMINATORS)
    def test_divisor_divides_the_sum(self, terms, den):
        got = LaurentPoly.lincomb(iter(terms), den)
        assert model(got) == model_lincomb(terms, den)
        assert_normal(got)
        assert got == LaurentPoly.lincomb(terms) * F(1, den)

    def test_int_subclass_and_unit_scalars(self):
        f = LaurentPoly({-1: F(1, 3), 2: 5})
        assert LaurentPoly.lincomb([(True, f), (False, f.shift(1))]) == f
        assert LaurentPoly.lincomb([(-1, f), (True, f.shift(1))], 2) == (f.shift(1) - f) * F(1, 2)
        with pytest.raises(TypeError):
            LaurentPoly.lincomb([(1.5, f)])
