"""Reference models of the moments layer that no CLI path reads.

These are the moments layer's earlier forms, each computed from its
definition with no state shared between calls: every Delta_n by its own
Bareiss elimination (with row swaps), the determinantal phi_n by the
n + 1 cofactor minors of its bordered Toeplitz matrix, and the inner
product as one Laurent product f(z) g(1/z) paired with the moments.
``circlejacobi.moments`` reads all of them off one held elimination and
held pairing vectors; the tests compare the two.
"""

from fractions import Fraction
from math import lcm

from circlejacobi.errors import NonPositive
from circlejacobi.laurent import LaurentPoly
from circlejacobi.moments import MomentSeq

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
    """Delta_n = det[sigma_{k-j}]_{j,k=0..n-1}, with Delta_0 = 1, by its own
    elimination; only Delta_n itself is checked positive."""
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
