"""Trigonometric moments, Toeplitz determinants, and orthogonality checks.

Every moment is an exact rational.  The substitution x = cos t turns the
n-th trigonometric moment of the Jacobi circle weight
(1 - cos t)^(alpha+1/2) (1 + cos t)^(beta+1/2) into

    sigma_n = int T_n(x) (1-x)^alpha (1+x)^beta dx / int (1-x)^alpha (1+x)^beta dx.

With x = 1 - 2u, T_n(1 - 2u) = 2F1(-n, n; 1/2; u), and u follows the
Beta(alpha+1, beta+1) law, whose k-th moment is the Beta-integral ratio
(alpha+1)_k / (alpha+beta+2)_k.  Integrating the terminating series term
by term gives

    sigma_n = 3F2(-n, n, alpha+1; 1/2, alpha+beta+2; 1)

(Andrews, Askey and Roy, *Special Functions*, ch. 2-3), a finite sum of
rationals for every rational alpha, beta > -1.  ``sigma`` sums it in
Horner form, innermost term first, on one integer numerator and one
integer denominator, and reduces once at the end.  The single-moment
weight (1 - cos t)/(2 pi) is the point (1/2, -1/2) of the family and
Lebesgue measure the point (-1/2, -1/2); their closed-form moments live
in ``tests/circle_oracle.py``, as independent oracles for the sum.

A ``MomentSeq`` keeps each sigma_k of one parameter point once, and also
as integer numerators over one common denominator, so ``inner_product``
is an integer dot product followed by one ``Fraction``.  The moments
suite reads one ``MomentSeq`` per family (``family_moments``), at the
family's own (alpha, beta).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import NonPositive
from .laurent import LaurentPoly
from .opuc import JacobiParams, OPUCFamily, family_params, per_family, require_params
from .report import VerificationReport

_ZERO = Fraction(0)
_ONE = Fraction(1)


def sigma(p: JacobiParams, n: int) -> Fraction:
    """The n-th trigonometric moment of the weight at p, normalized so
    sigma_0 = 1.

    Real symmetric weights give sigma_{-n} = sigma_n, which is baked in.
    """
    k = abs(n)
    if k == 0:
        return _ONE  # sigma_0 = 1 by normalization
    # 3F2(-k, k, alpha+1; 1/2, alpha+beta+2; 1) = 1 + r_0 (1 + r_1 (1 + ...
    # (1 + r_{k-1}))) with the term ratios
    # r_j = (j-k)(j+k)(j+alpha+1) / ((j+1/2)(j+1)(j+alpha+beta+2)) = rn/rd
    # in integers, summed innermost first as num/den; the factor (j - k)
    # ends the series after j = k - 1
    a1 = p.alpha + 1
    b2 = p.alpha + p.beta + 2
    p1, q1 = a1.numerator, a1.denominator
    p2, q2 = b2.numerator, b2.denominator
    num = den = 1
    for j in range(k - 1, -1, -1):
        rn = 2 * (j - k) * (j + k) * (j * q1 + p1) * q2
        rd = (2 * j + 1) * (j + 1) * (j * q2 + p2) * q1
        num, den = rd * den + rn * num, rd * den
    return Fraction(num, den)


class MomentSeq:
    """The moments of the weight at one parameter point, each computed once.

    ``value(k)`` is sigma_k as a ``Fraction``.  ``integer_view(top)`` is
    sigma_0..sigma_top as integer numerators over one common denominator,
    the lcm of theirs, built from ``value`` and extended on demand.  Both
    are write-once per index, so sharing a MomentSeq across verifications
    is safe.
    """

    def __init__(self, params: JacobiParams):
        self.params = params
        self._cache: dict[int, Fraction] = {}
        self._nums: tuple[int, ...] = ()
        self._den = 1

    def value(self, n: int) -> Fraction:
        k = abs(n)
        if k not in self._cache:
            self._cache[k] = sigma(self.params, k)
        return self._cache[k]

    def integer_view(self, top: int) -> tuple[tuple[int, ...], int]:
        """(nums, den) with sigma_k = nums[k] / den for every k < len(nums),
        and len(nums) > top."""
        if len(self._nums) <= top:
            new = [self.value(k) for k in range(len(self._nums), top + 1)]
            den = lcm(self._den, *(v.denominator for v in new))
            scale = den // self._den
            self._nums = (
                *(c * scale for c in self._nums),
                *(v.numerator * (den // v.denominator) for v in new),
            )
            self._den = den
        return self._nums, self._den


@per_family("moments")
def family_moments(fam: OPUCFamily) -> MomentSeq:
    """The MomentSeq at the family's (alpha, beta), made once per family,
    so every moment report of the family shares it."""
    return MomentSeq(require_params(fam))


def _det_fraction(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Bareiss fraction-free elimination.

    Each row is first scaled to integers by the lcm of its denominators;
    Bareiss elimination (Math. Comp. 22, 1968) then keeps every entry an
    integer minor of the scaled matrix, so each division by the previous
    pivot is exact, and the scales are divided back out at the end.
    """
    n = len(rows)
    scale = 1
    m: list[list[int]] = []
    for row in rows:
        d = lcm(*(v.denominator for v in row))
        scale *= d
        m.append([v.numerator * (d // v.denominator) for v in row])
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot is None:
                return _ZERO
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pk, row_k = m[k][k], m[k]
        for row in m[k + 1:]:
            rk = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - rk * row_k[j]) // prev
        prev = pk
    return Fraction(sign * m[-1][-1], scale)


def _positive_delta(n: int, det: Fraction) -> Fraction:
    """det as Delta_n, which must be positive."""
    if det <= 0:
        raise NonPositive(f"Delta_{n} = {det} <= 0")
    return det


def toeplitz_delta(ms: MomentSeq, n: int) -> Fraction:
    """Delta_n = det[sigma_{k-j}]_{j,k=0..n-1}, with Delta_0 = 1.

    Raises NonPositive when the determinant fails the positivity every
    genuine probability weight guarantees.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return _ONE
    det = _det_fraction([[ms.value(k - j) for k in range(n)] for j in range(n)])
    return _positive_delta(n, det)


def determinantal_phi(ms: MomentSeq, n: int) -> LaurentPoly:
    """phi_n from the bordered Toeplitz determinant divided by Delta_n.

    The bordered matrix stacks rows [sigma_{k-j}]_{k=0..n} for
    j = 0..n-1 on top of the monomial row (1, z, ..., z^n); expansion
    runs along that last row.  The minor of column n is Delta_n's
    Toeplitz matrix, so its cofactor is Delta_n itself and z^n gets
    coefficient 1.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if n == 0:
        return LaurentPoly.one()
    top = [[ms.value(k - j) for k in range(n + 1)] for j in range(n)]
    delta = _positive_delta(n, _det_fraction([row[:n] for row in top]))
    coeffs: dict[int, Fraction] = {n: _ONE}
    for col in range(n):
        minor = [row[:col] + row[col + 1:] for row in top]
        sign = -1 if (n + col) % 2 else 1
        c = sign * _det_fraction(minor) / delta
        if c:
            coeffs[col] = c
    return LaurentPoly(coeffs)


def inner_product(f: LaurentPoly, g: LaurentPoly, ms: MomentSeq) -> Fraction:
    """<f, g>_w = sum_{j,k} f_j g_k sigma_{j-k} with sigma_0 = 1, exact.

    The coefficient of z^m in f(z) g(1/z) is sum_{j-k=m} f_j g_k, so the
    double sum is one Laurent product paired with the moments: the
    product's integer numerators dotted with the moment numerators of
    ``ms.integer_view``, over the product of the two denominators."""
    prod = f * g.reflect()
    nums, lo = prod._num, prod._lo
    if not nums:
        return _ZERO
    sig, den = ms.integer_view(max(-lo, lo + len(nums) - 1))
    return Fraction(sum(c * sig[abs(m)] for m, c in enumerate(nums, lo)), prod._den * den)


def _family_moments_to(fam: OPUCFamily, n_max: int) -> MomentSeq:
    """``family_moments(fam)``, for a report that reads the family's
    phi_n and h_n up to n_max."""
    if n_max > fam.size:
        raise ValueError("family too short for requested range")
    return family_moments(fam)


def orthogonality_check(fam: OPUCFamily, n_max: int) -> VerificationReport:
    """<phi_n, phi_m>_w = h_n delta_{nm} for all m <= n <= n_max, exactly."""
    ms = _family_moments_to(fam, n_max)
    rep = VerificationReport(
        identity="orthogonality",
        relation="<phi_n, phi_m>_w = h_n delta_nm",
        params=family_params(fam, weight="jacobi", n_max=n_max),
    )
    for n in range(n_max + 1):
        for m in range(n + 1):
            v = inner_product(fam.phi[n], fam.phi[m], ms)
            target = fam.h[n] if m == n else _ZERO
            ok = v == target
            rep.add(f"n={n},m={m}", ok, "" if ok else f"<{n},{m}> = {v}, expected {target}")
    return rep


def verify_toeplitz_h(fam: OPUCFamily, n_max: int) -> VerificationReport:
    """Delta_{n+1}/Delta_n = h_n, exact."""
    ms = _family_moments_to(fam, n_max)
    rep = VerificationReport(
        identity="toeplitz-h",
        relation="Delta_{n+1} / Delta_n = h_n = prod_{k<n} (1 - a_k^2)",
        params=family_params(fam, weight="jacobi", n_max=n_max),
    )
    deltas = [toeplitz_delta(ms, n) for n in range(n_max + 2)]
    for n in range(n_max + 1):
        ratio = deltas[n + 1] / deltas[n]
        ok = ratio == fam.h[n]
        rep.add(f"n={n}", ok, "" if ok else f"{ratio} != {fam.h[n]}")
    return rep


def verify_determinantal_match(fam: OPUCFamily, n_max: int) -> VerificationReport:
    """Determinantal phi_n equals the Szego-recurrence phi_n, exact."""
    ms = _family_moments_to(fam, n_max)
    rep = VerificationReport(
        identity="determinantal-match",
        relation="bordered-Toeplitz phi_n = recurrence phi_n",
        params=family_params(fam, weight="jacobi", n_max=n_max),
    )
    for n in range(n_max + 1):
        res = LaurentPoly.lincomb([(1, determinantal_phi(ms, n)), (-1, fam.phi[n])])
        rep.residual(f"n={n}", res)
    return rep
