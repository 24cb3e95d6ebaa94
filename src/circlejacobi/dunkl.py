"""The first-order Dunkl-type operator and its CMV eigenvalue structure.

K = z d/dz + z((alpha+beta+1) z + alpha - beta)/(1 - z^2) (R - I) with
R the reflection f(z) -> f(1/z).  On Laurent polynomials the divided
term is exact: (R - I)f vanishes at z = +-1, so 1 - z^2 always divides.
K psi_n = lambda_n psi_n with lambda_n = -n/2 for even n and
(n+1)/2 + alpha + beta + 1 for odd n.

The residual r_n = K psi_n - lambda_n psi_n of that eigenproblem has
one home, ``k_residual``, built once per family.  K is linear, so every
identity that follows from it (Y psi_n in ``algebra``) is formed from
r_n and equals the direct formula for any psi_n.

The closed forms at the single-moment point (alpha, beta) = (1/2, -1/2),
K = z d/dz + z/(1 - z) (R - I) and its eigenvalues, and the symmetry of
K in the weighted inner product, live in ``tests/circle_oracle.py`` as
independent oracles.
"""

from __future__ import annotations

from itertools import accumulate, count
from math import lcm

from .laurent import LaurentPoly, Rational, _normal, _rational
from .opuc import JacobiParams, OPUCFamily, family_params, per_family, require_params
from .report import VerificationReport


def apply_k(f: LaurentPoly, p: JacobiParams, lam: Rational | int = 0) -> LaurentPoly:
    """K f - lam f at parameters p, in one pass over f's integer parts.

    With f = sum c_k z^k over its denominator, padded to exponents
    -m..m, the reflected difference r_k = c_{-k} - c_k is multiplied by
    S z^2 + D z, where S/E = alpha + beta + 1 and D/E = alpha - beta
    share the denominator E.  Division by 1 - z^2 is the running sum
    q_k = numer_k + q_{k-2}, taken separately over even and odd k.  For
    lam = ln/ld, S and D are taken ld times, so out_k = E (ld k - ln) c_k
    + ld q_k, E k c_k (theta f) less ln E c_k, is normalized once over
    E ld times f's denominator; lam = 0 gives K f itself.

    The division is exact for every f and every (S, D): r_{-k} = -r_k,
    so r(1) = sum r_k = 0 and r(-1) = sum (-1)^k r_k = 0, hence 1 - z^2
    divides r and (S z^2 + D z) r: the two top partial sums, the
    remainder, are zero, and the zip with c below leaves them out.
    """
    nums = f._num
    if not nums:
        return f
    lo = f._lo
    hi = lo + len(nums) - 1
    m = max(hi, -lo)
    c = [0] * (lo + m) + list(nums) + [0] * (m - hi)
    r = [a - b for a, b in zip(reversed(c), c)]
    s, d = p.s, p.d
    ln, ld = lam.as_integer_ratio()
    e = lcm(s._denominator, d._denominator)
    big_s, big_d = s._numerator * e // s._denominator * ld, d._numerator * e // d._denominator * ld
    # numer_k = ld (S r_{k-2} + D r_{k-1}) on exponents -m..m+2
    numer = [big_s * a + big_d * b for a, b in zip([0, 0, *r], [0, *r, 0])]
    q = numer[:]
    q[0::2] = accumulate(numer[0::2])
    q[1::2] = accumulate(numer[1::2])
    step = e * ld  # the weight E (ld k - ln) of c_k, from k = -m on
    out = [w * a + b for w, a, b in zip(count(-e * (m * ld + ln), step), c, q)]
    return _normal(-m, out, f._den * step)


@per_family("K")
def k_residual(fam: OPUCFamily, n: int) -> LaurentPoly:
    """r_n = K psi_n - lambda_n psi_n at the family's parameters, in one
    ``apply_k`` pass.  Built once per family: the bispectral check
    reports it, and the Y eigencheck and the central extension form
    Y psi_n out of it, since K psi_n = lambda_n psi_n + r_n."""
    return apply_k(fam.psi[n], fam.params, lambda_n(fam.params, n))


def lambda_n(p: JacobiParams, n: int) -> Rational:
    """Eigenvalue of K on psi_n: -n/2 for even n, (n+1)/2 + s for odd n,
    formed as (S + Q (n+1)/2)/Q on s = S/Q, in lowest terms as s is."""
    if n < 0:
        raise ValueError("index must be >= 0")
    if n % 2 == 0:
        return _rational(-(n // 2), 1)
    return _rational(p.s._numerator + (n + 1) // 2 * p.s._denominator, p.s._denominator)


def verify_bispectral(fam: OPUCFamily) -> VerificationReport:
    """Exact check of K psi_n = lambda_n psi_n for every n in the family."""
    require_params(fam)
    rep = VerificationReport(
        identity="bispectral-eigen",
        relation="K psi_n = lambda_n psi_n",
        params=family_params(fam, n_max=fam.size),
    )
    for n in range(fam.size + 1):
        rep.residual(f"n={n}", k_residual(fam, n))
    return rep
