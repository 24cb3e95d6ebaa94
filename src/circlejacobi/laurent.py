"""Exact Laurent-polynomial arithmetic over the rationals.

A Laurent polynomial c_lo z^lo + ... + c_hi z^hi is stored as its lowest
exponent ``lo``, a dense tuple of integer numerators and one positive
integer denominator ``den``, so that c_k = nums[k - lo] / den.  Every
result is brought to one normal form: both end numerators are nonzero and
gcd(den, *nums) = 1, i.e. a primitive integer part over the least common
denominator (content and primitive part, Knuth, *TAOCP* vol. 2, §4.6.1;
FLINT's ``fmpq_poly`` uses the same layout).  The form is unique, so
equality and hashing compare plain tuples and a zero-residual test is an
emptiness test.  Arithmetic runs on Python ints with one gcd per result,
and exact division is integer long division; ``coeff``, ``items`` and
``evaluate`` hand out reduced ``Rational`` values (the package's one
scalar type, a ``Fraction`` whose arithmetic skips the generic dispatch
of ``fractions``).  Instances are immutable: arithmetic always returns
new objects.

An identity residual is a short linear combination sum c_j f_j with
rational scalars.  ``LaurentPoly.lincomb`` forms it in one walk over the
terms' integer parts: one common denominator (an lcm only if they differ),
one dense list of numerators and one normalization, so a zero residual
costs no gcd.  Multiplying by a fixed polynomial such as z - 1/z becomes
shifted terms, since ``shift`` and ``reflect`` are O(1).  ``+``, ``-``
and ``*`` normalize after each step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, index, sub
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import NotDivisible, ZeroArgument

_new = object.__new__


def _rational(n: int, d: int) -> "Rational":
    """n/d from parts already in lowest terms, d > 0."""
    r = _new(Rational)
    r._numerator, r._denominator = n, d
    return r


def _signed(n: int, d: int) -> "Rational":
    """n/d in lowest terms, for ints n and d != 0: one gcd, the sign moved to n."""
    g = gcd(n, d) if d > 0 else -gcd(n, d) if d else 0  # d = 0: n // 0 raises
    return _rational(n // g, d // g)


def _pair(x, y) -> tuple[int, int, int]:
    """(X, Y, Q) with x = X/Q, y = Y/Q over the lcm Q of the Rationals' denominators."""
    xd, yd = x._denominator, y._denominator
    q = lcm(xd, yd)
    return x._numerator * (q // xd), y._numerator * (q // yd), q


def _parts(x) -> "tuple[int, int] | None":
    """(numerator, denominator) of an int or Fraction operand, else None."""
    t = type(x)
    if t is Rational or t is Fraction:
        return x._numerator, x._denominator
    return (x, 1) if isinstance(x, int) else None


def _additive(sa: int, sb: int, fallback):
    """sa a + sb b (sa, sb = +-1) for a Rational a in one frame: an int b needs no gcd, others
    the gcd steps of Fraction._add (Knuth, TAOCP vol. 2, 4.5.1)."""

    def op(a, b):
        t, da = type(b), a._denominator
        if t is Rational or t is Fraction:
            nb, db = b._numerator * sb, b._denominator
        elif isinstance(b, int):  # gcd(n + k d, d) = gcd(n, d) = 1
            return _rational(sa * a._numerator + sb * b * da, da)
        else:
            return fallback(a, b)
        na = a._numerator * sa
        g = gcd(da, db)
        if g == 1:
            return _rational(na * db + da * nb, da * db)
        s = da // g
        n = na * (db // g) + nb * s
        g2 = gcd(n, g)
        return _rational(n // g2, s * (db // g2))

    return op


class Rational(Fraction):
    """The package's one scalar type: every coefficient read out of a
    polynomial, and every structural constant, is a reduced Rational.

    With an int or Fraction operand, each operator below reads its parts
    in one frame and stores the reduced parts directly; any other
    operand, and division by zero, go to Fraction's own method.
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if denominator is None and type(numerator) is Rational:
            return numerator
        return Fraction.__new__(cls, numerator, denominator)

    __add__ = __radd__ = _additive(1, 1, Fraction.__add__)
    __sub__ = _additive(1, -1, Fraction.__sub__)
    __rsub__ = _additive(-1, 1, Fraction.__rsub__)

    def __mul__(a, b):
        t, na, da = type(b), a._numerator, a._denominator
        if t is Rational or t is Fraction:
            nb, db = b._numerator, b._denominator
            g1, g2 = gcd(na, db), gcd(nb, da)
            return _rational((na // g1) * (nb // g2), (da // g2) * (db // g1))
        if isinstance(b, int):
            g = gcd(b, da)
            return _rational(na * (b // g), da // g)
        return Fraction.__mul__(a, b)

    __rmul__ = __mul__

    def __truediv__(a, b):
        p = _parts(b)
        if not (p and p[0]):
            return Fraction.__truediv__(a, b)
        return _signed(a._numerator * p[1], a._denominator * p[0])

    def __neg__(a):
        return _rational(-a._numerator, a._denominator)

    def __pow__(a, b):
        if type(b) is not int:
            return Fraction.__pow__(a, b)
        r = _rational(a._numerator ** abs(b), a._denominator ** abs(b))
        return r if b >= 0 else _ONE / r

    def __eq__(a, b):
        p = _parts(b)
        return a._numerator == p[0] and a._denominator == p[1] if p else Fraction.__eq__(a, b)

    __hash__ = Fraction.__hash__

    def __lt__(a, b):
        p = _parts(b)
        return a._numerator * p[1] < p[0] * a._denominator if p else Fraction.__lt__(a, b)

    def __gt__(a, b):
        p = _parts(b)
        return a._numerator * p[1] > p[0] * a._denominator if p else Fraction.__gt__(a, b)

    def __le__(a, b):
        p = _parts(b)
        return a._numerator * p[1] <= p[0] * a._denominator if p else Fraction.__le__(a, b)


Scalar = Union[int, str, Fraction]

_ZERO = _rational(0, 1)
_ONE = _rational(1, 1)


def _make(lo: int, nums: tuple[int, ...], den: int) -> "LaurentPoly":
    """A polynomial from parts already in normal form."""
    res = LaurentPoly.__new__(LaurentPoly)
    res._lo = lo
    res._num = nums
    res._den = den
    return res


def _normal(lo: int, nums: Sequence[int], den: int) -> "LaurentPoly":
    """sum(nums[i] z^(lo + i)) / den, den > 0, in normal form: end zeros
    trimmed, then numerators and denominator divided by their gcd."""
    start, stop = 0, len(nums)
    while stop and not nums[stop - 1]:
        stop -= 1
    while start < stop and not nums[start]:
        start += 1
    if start == stop:
        return _ZERO_POLY
    g = gcd(den, *nums[start:stop])
    if g == 1:
        return _make(lo + start, tuple(nums[start:stop]), den)
    return _make(lo + start, tuple([c // g for c in nums[start:stop]]), den // g)


class LaurentPoly:
    """A Laurent polynomial sum(c_k * z^k) with rational coefficients.

    The zero polynomial has empty support (lo = 0, no numerators, den = 1).
    Coefficients are real rationals, so conjugation is the identity
    throughout the package.  The constructor takes (exponent, value)
    items, exponents read by ``operator.index`` and repeats adding up, as
    one ``lincomb`` of monomials, so ``_normal`` makes its normal form.
    """

    __slots__ = ("_lo", "_num", "_den")

    def __init__(self, coeffs: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        f = LaurentPoly.lincomb([(Rational(v), _make(index(k), (1,), 1)) for k, v in items])
        self._lo, self._num, self._den = f._lo, f._num, f._den

    # ---------------------------------------------------------------- constructors

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return _ZERO_POLY

    @classmethod
    def one(cls) -> "LaurentPoly":
        return _make(0, (1,), 1)

    @classmethod
    def monomial(cls, exponent: int, coeff: Scalar = 1) -> "LaurentPoly":
        """c * z^exponent (the exponent may be negative); an int c is
        stored as it is, any other c read through ``Rational``."""
        n, d = (coeff, 1) if type(coeff) is int else Rational(coeff).as_integer_ratio()
        return _make(exponent, (n,), d) if n else _ZERO_POLY

    # ---------------------------------------------------------------- inspection

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def min_exp(self) -> int:
        if not self._num:
            raise ValueError("the zero polynomial has no support")
        return self._lo

    @property
    def max_exp(self) -> int:
        if not self._num:
            raise ValueError("the zero polynomial has no support")
        return self._lo + len(self._num) - 1

    def coeff(self, exponent: int) -> Rational:
        """Coefficient of z^exponent (0 if absent)."""
        i = exponent - self._lo
        if 0 <= i < len(self._num) and self._num[i]:
            c, den = self._num[i], self._den
            g = gcd(c, den)
            return _rational(c // g, den // g)
        return _ZERO

    def items(self) -> Iterator[tuple[int, Rational]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        den = self._den
        for k, c in enumerate(self._num, self._lo):
            if c:
                g = gcd(c, den)
                yield k, _rational(c // g, den // g)

    def __len__(self) -> int:
        return len(self._num) - self._num.count(0)

    def __bool__(self) -> bool:
        return bool(self._num)

    # ---------------------------------------------------------------- equality

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return _make(0, (other.numerator,), other.denominator) if other else _ZERO_POLY
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._lo == o._lo and self._den == o._den and self._num == o._num

    def __hash__(self) -> int:
        return hash((self._lo, self._num, self._den))

    # ---------------------------------------------------------------- ring operations

    @staticmethod
    def lincomb(
        terms: Iterable[tuple[int | Fraction, "LaurentPoly"]], den: int = 1
    ) -> "LaurentPoly":
        """sum(c * f for c, f in terms) / den, with int or Fraction scalars c.

        One walk over the terms reads each scalar's integer parts (c over 1
        for an int), drops zero scalars and zero polynomials, and collects
        the support and the distinct denominators, whose lcm is taken only
        when there are two or more.  The integer numerators are summed in
        one dense list, a multiplier of 1 or -1 as a plain add or subtract,
        and normalized once.  ``den`` serves the banded row products, whose
        scalars are a row's integer numerators over its one denominator.
        """
        live, dens, lo, hi = [], set(), 0, 0
        for c, f in terms:
            t, nums = type(c), f._num
            if t is int:
                p, q = c, 1
            elif t is Rational or isinstance(c, Fraction):
                p, q = c._numerator, c._denominator
            else:
                p, q = index(c), 1
            if p and nums:
                flo, q = f._lo, q * f._den
                if flo < lo or not live:
                    lo = flo
                if flo + len(nums) > hi or not live:
                    hi = flo + len(nums)
                dens.add(q)
                live.append((p, q, flo, nums))
        if not live:
            return _ZERO_POLY
        common = dens.pop() if len(dens) == 1 else lcm(*dens)
        out = [0] * (hi - lo)
        for p, q, i, nums in live:
            if q != common:
                p *= common // q
            i -= lo
            j = i + len(nums)
            if p == 1:
                out[i:j] = map(add, out[i:j], nums)
            elif p == -1:
                out[i:j] = map(sub, out[i:j], nums)
            else:
                out[i:j] = [x + p * y for x, y in zip(out[i:j], nums)]
        return _normal(lo, out, common * den)

    def __add__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly.lincomb(((1, self), (1, o)))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _make(self._lo, tuple([-c for c in self._num]), self._den)

    def __sub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly.lincomb(((1, self), (-1, o)))

    def __rsub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly.lincomb(((1, o), (-1, self)))

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.lincomb([(other, self)])
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return _ZERO_POLY
        if len(a) < len(b):
            a, b = b, a
        n = len(a)
        out = [0] * (n + len(b) - 1)
        for j, c in enumerate(b):
            if c:
                out[j:j + n] = [x + c * y for x, y in zip(out[j:j + n], a)]
        return _normal(self._lo + other._lo, out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LaurentPoly":
        """Division by a nonzero scalar only; use div_exact for polynomials."""
        if isinstance(other, (int, Fraction)):
            return self * (_ONE / other)
        return NotImplemented

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # ---------------------------------------------------------------- structure maps

    def reflect(self) -> "LaurentPoly":
        """f(z) -> f(1/z): negate every exponent."""
        if not self._num:
            return self
        return _make(1 - self._lo - len(self._num), self._num[::-1], self._den)

    def shift(self, power: int = 1) -> "LaurentPoly":
        """Multiply by z^power (exponent shift)."""
        if not self._num:
            return self
        return _make(self._lo + power, self._num, self._den)

    def theta(self) -> "LaurentPoly":
        """The Euler operator z d/dz: scales each coefficient by its exponent."""
        nums = [c * k for k, c in enumerate(self._num, self._lo)]
        return _normal(self._lo, nums, self._den)

    def deriv(self) -> "LaurentPoly":
        """d/dz, valid on Laurent polynomials: z^k -> k z^(k-1)."""
        nums = [c * k for k, c in enumerate(self._num, self._lo)]
        return _normal(self._lo - 1, nums, self._den)

    # ---------------------------------------------------------------- division

    def div_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Return q with self == q * divisor, raising NotDivisible otherwise.

        Dropping the lowest exponents (units of the Laurent ring) leaves
        integer polynomials F and G with nonzero constant terms, so the
        Laurent quotient exists exactly when G divides F.  Write
        G = content * P with P primitive.  By Gauss's lemma P divides the
        integer polynomial F over the rationals only if the quotient has
        integer coefficients, so integer long division by P decides it:
        each leading numerator must be an exact multiple of P's leading
        coefficient (a leading 1, as in the package's divisor z - 1/z,
        needs no divmod), and the remainder must vanish.  No fraction
        arises on the way.
        """
        if not isinstance(divisor, LaurentPoly):
            raise TypeError("divisor must be a LaurentPoly")
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        content = gcd(*divisor._num)
        prim = [c // content for c in divisor._num] if content > 1 else divisor._num
        deg = len(prim) - 1
        rem = list(self._num)
        lead = prim[-1]
        # the divisor's lower terms, as offsets below the leading one
        taps = [(j - deg, c) for j, c in enumerate(prim[:-1]) if c]
        quot = [0] * max(len(rem) - deg, 0)
        for top in range(len(rem) - 1, deg - 1, -1):
            r = rem[top]
            if not r:
                continue
            if lead == 1:
                q = r
            else:
                q, left = divmod(r, lead)
                if left:
                    break
            quot[top - deg] = q
            for off, c in taps:
                rem[top + off] -= q * c
        else:
            if not any(rem[:deg]) and quot:
                dg = divisor._den
                nums = quot if dg == 1 else [q * dg for q in quot]
                return _normal(self._lo - divisor._lo, nums, self._den * content)
        raise NotDivisible(f"({divisor.text()}) does not divide ({self.text()}) exactly")

    # ---------------------------------------------------------------- evaluation

    def evaluate(self, z0: Scalar) -> Rational:
        """Exact evaluation at a nonzero rational point."""
        x = Rational(z0)
        if not x:
            raise ZeroArgument("Laurent polynomials cannot be evaluated at z = 0")
        total = _ZERO
        for c in reversed(self._num):
            total = total * x + c
        return total * x**self._lo / self._den

    __call__ = evaluate

    # ---------------------------------------------------------------- text form

    def text(self) -> str:
        """Canonical text form with ascending exponents, e.g.
        "1/3*z^-1 + 2/3 + 1/3*z"."""
        if not self._num:
            return "0"
        den = self._den
        parts: list[str] = []
        for k, c in enumerate(self._num, self._lo):
            if not c:
                continue
            # c/den in lowest terms as the magnitude p/q and a sign
            g = gcd(c, den)
            p, q = c // g, den // g
            neg = p < 0
            if neg:
                p = -p
            mag = str(p) if q == 1 else f"{p}/{q}"
            if k == 0:
                body = mag
            else:
                var = "z" if k == 1 else f"z^{k}"
                body = var if mag == "1" else f"{mag}*{var}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()})"


#: The zero polynomial that every zero result shares (``zero``, _normal,
#: lincomb): instances are immutable, and a family holds hundreds of zero
#: residuals.
_ZERO_POLY = _make(0, (), 1)

#: The monomial z, for building expressions.
Z = LaurentPoly.monomial(1)

#: 1 - z^2, the exact divisor appearing in the Dunkl-type operator.
ONE_MINUS_Z2 = LaurentPoly({0: 1, 2: -1})

#: z - z^-1, the exact divisor appearing in the real-line map.
Z_MINUS_ZINV = LaurentPoly({1: 1, -1: -1})

#: z + z^-1, the symmetrized variable x(z) of the real-line map.
Z_PLUS_ZINV = LaurentPoly({1: 1, -1: 1})
