"""The closed forms of the Jacobi OPUC as chains of Fraction operations.

The package forms each closed form as one integer numerator and one
integer denominator, reduced once (``opuc.verblunsky``,
``dunkl.lambda_n``, ``algebra.big_lambda`` and ``relation_constants``,
``szego.jacobi_b``, ``jacobi_u``, ``b_coeff``, ``u_coeff``, ``bt_coeff``,
``ut_coeff``, ``_c2`` and ``_mu``).  This module keeps the same formulas
written out as plain ``fractions.Fraction`` expressions, one operation at
a time, so that the tests can compare the two at any point.  It shares
no arithmetic with the package: the parameters and the a_k are read as
Fractions first.
"""

from fractions import Fraction as F


def _s(p):
    """s = alpha + beta + 1 of a JacobiParams."""
    return F(p.alpha) + F(p.beta) + 1


def verblunsky(p, n: int) -> F:
    """a_n = -(alpha + 1/2 + (-1)^(n+1) (beta + 1/2)) / (n + alpha + beta + 2)."""
    x = _s(p) if n % 2 else F(p.alpha) - F(p.beta)
    return x / (-1 - n - _s(p))


def lambda_n(p, n: int) -> F:
    """-n/2 for even n, (n + 1)/2 + s for odd n."""
    return F(-n, 2) if n % 2 == 0 else _s(p) + (n + 1) // 2


def big_lambda(p, n: int) -> F:
    """m (s + m), m = ceil(n/2)."""
    m = (n + 1) // 2
    return m * (_s(p) + m)


def relation_constants(alpha, beta):
    """(s, -s) and (s + 1, alpha - beta), s = alpha + beta + 1."""
    alpha, beta = F(alpha), F(beta)
    s = alpha + beta + 1
    return (s, -s), (s + 1, alpha - beta)


def jacobi_b(alpha, beta, k: int) -> F:
    """2(beta^2 - alpha^2) / ((2k + s)(2k + s + 2)), s = alpha + beta; at
    k = 0 the cancelled 2(beta - alpha) / (s + 2)."""
    alpha, beta = F(alpha), F(beta)
    s = alpha + beta
    if k == 0:
        return 2 * (beta - alpha) / (s + 2)
    return 2 * (beta**2 - alpha**2) / ((2 * k + s) * (2 * k + s + 2))


def jacobi_u(alpha, beta, k: int) -> F:
    """16 k (k + alpha)(k + beta)(k + s) / ((2k + s)^2 (2k + s + 1)(2k + s - 1));
    at k = 1 the cancelled 16 (alpha + 1)(beta + 1) / ((s + 2)^2 (s + 3))."""
    alpha, beta = F(alpha), F(beta)
    s = alpha + beta
    if k == 1:
        return 16 * (alpha + 1) * (beta + 1) / ((s + 2) ** 2 * (s + 3))
    return (
        16 * k * (k + alpha) * (k + beta) * (k + s)
        / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
    )


def _a(fam, k: int) -> F:
    """a_k as a Fraction, with a_k = -1 for every k < 0."""
    return F(fam.a[k]) if k >= 0 else F(-1)


def u_coeff(fam, n: int) -> F:
    return (1 + _a(fam, 2 * n - 1)) * (1 - _a(fam, 2 * n - 3)) * (1 - _a(fam, 2 * n - 2) ** 2)


def b_coeff(fam, n: int) -> F:
    return _a(fam, 2 * n) * (1 - _a(fam, 2 * n - 1)) - _a(fam, 2 * n - 2) * (
        1 + _a(fam, 2 * n - 1)
    )


def ut_coeff(fam, n: int) -> F:
    return (1 + _a(fam, 2 * n - 1)) * (1 - _a(fam, 2 * n + 1)) * (1 - _a(fam, 2 * n) ** 2)


def bt_coeff(fam, n: int) -> F:
    return _a(fam, 2 * n) * (1 - _a(fam, 2 * n + 1)) - _a(fam, 2 * n + 2) * (
        1 + _a(fam, 2 * n + 1)
    )


def c2(fam, n: int) -> F:
    """2(1 - a_{2n-3})(1 - a_{2n-2}^2), the P_{n-1} weight of C'_n."""
    return 2 * (1 - _a(fam, 2 * n - 3)) * (1 - _a(fam, 2 * n - 2) ** 2)


def mu(p, n: int) -> F:
    """mu_n = n + alpha + beta + 1 of the raising relation."""
    return n + F(p.alpha) + F(p.beta) + 1
