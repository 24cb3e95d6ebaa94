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
rationals for every rational alpha, beta > -1.  The Lebesgue and
single-moment weights keep their closed forms, which serve as independent
oracles for the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import NonPositive, ParamOutOfRange
from .laurent import LaurentPoly
from .opuc import OPUCFamily, family_params
from .report import VerificationReport

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Weight:
    """A normalized probability weight on the unit circle."""

    kind: str  # "jacobi" | "single_moment" | "lebesgue"
    alpha: Fraction | None = None
    beta: Fraction | None = None
    xi: Fraction | None = None

    @classmethod
    def jacobi(cls, alpha, beta) -> "Weight":
        alpha, beta = Fraction(alpha), Fraction(beta)
        if alpha <= -1 or beta <= -1:
            raise ParamOutOfRange("jacobi weight needs alpha > -1 and beta > -1")
        return cls("jacobi", alpha=alpha, beta=beta)

    @classmethod
    def single_moment(cls, xi=1) -> "Weight":
        xi = Fraction(xi)
        if not -1 <= xi <= 1:
            raise ParamOutOfRange("single-moment weight needs |xi| <= 1")
        return cls("single_moment", xi=xi)

    @classmethod
    def lebesgue(cls) -> "Weight":
        return cls("lebesgue")


def sigma(w: Weight, n: int) -> Fraction:
    """The n-th trigonometric moment, normalized so sigma_0 = 1.

    Real symmetric weights give sigma_{-n} = sigma_n, which is baked in.
    """
    k = abs(n)
    if k == 0:
        return _ONE  # sigma_0 = 1 by normalization
    if w.kind == "lebesgue":
        return _ZERO
    if w.kind == "single_moment":
        return -w.xi / 2 if k == 1 else _ZERO
    # 3F2(-k, k, alpha+1; 1/2, alpha+beta+2; 1) as a running term ratio;
    # the factor (j - k) ends the series after j = k - 1.
    a1 = w.alpha + 1
    b2 = w.alpha + w.beta + 2
    term = total = _ONE
    for j in range(k):
        term *= (j - k) * (j + k) * (j + a1) / ((j + _HALF) * (j + 1) * (j + b2))
        total += term
    return total


class MomentSeq:
    """Lazy cache of moments for one weight.

    The cache is write-once per index, so sharing a MomentSeq across
    verifications is safe.
    """

    def __init__(self, weight: Weight):
        self.weight = weight
        self._cache: dict[int, Fraction] = {}

    def value(self, n: int) -> Fraction:
        k = abs(n)
        if k not in self._cache:
            self._cache[k] = sigma(self.weight, k)
        return self._cache[k]


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
    if det <= 0:
        raise NonPositive(f"Delta_{n} = {det} <= 0")
    return det


def determinantal_phi(ms: MomentSeq, n: int) -> LaurentPoly:
    """phi_n from the bordered Toeplitz determinant divided by Delta_n.

    The bordered matrix stacks rows [sigma_{k-j}]_{k=0..n} for
    j = 0..n-1 on top of the monomial row (1, z, ..., z^n); expansion
    runs along that last row.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if n == 0:
        return LaurentPoly.one()
    delta = toeplitz_delta(ms, n)
    top = [[ms.value(k - j) for k in range(n + 1)] for j in range(n)]
    coeffs: dict[int, Fraction] = {}
    for col in range(n + 1):
        minor = [[row[k] for k in range(n + 1) if k != col] for row in top]
        sign = -1 if (n + col) % 2 else 1
        c = sign * _det_fraction(minor) / delta
        if c:
            coeffs[col] = c
    return LaurentPoly(coeffs)


def inner_product(f: LaurentPoly, g: LaurentPoly, ms: MomentSeq) -> Fraction:
    """<f, g>_w = sum_{j,k} f_j g_k sigma_{j-k} with sigma_0 = 1, exact.

    The coefficient of z^m in f(z) g(1/z) is sum_{j-k=m} f_j g_k, so the
    double sum is one Laurent product paired with the moments."""
    return sum((c * ms.value(m) for m, c in (f * g.reflect()).items()), _ZERO)


def orthogonality_check(fam: OPUCFamily, w: Weight, n_max: int) -> VerificationReport:
    """<phi_n, phi_m>_w = h_n delta_{nm} for all m <= n <= n_max, exactly."""
    if n_max > fam.size:
        raise ValueError("family too short for requested range")
    ms = MomentSeq(w)
    rep = VerificationReport(
        identity="orthogonality",
        relation="<phi_n, phi_m>_w = h_n delta_nm",
        params=family_params(fam, weight=w.kind, n_max=n_max),
    )
    for n in range(n_max + 1):
        for m in range(n + 1):
            v = inner_product(fam.phi[n], fam.phi[m], ms)
            target = fam.h[n] if m == n else _ZERO
            ok = v == target
            rep.add(f"n={n},m={m}", ok, "" if ok else f"<{n},{m}> = {v}, expected {target}")
    return rep


def verify_toeplitz_h(fam: OPUCFamily, w: Weight, n_max: int) -> VerificationReport:
    """Delta_{n+1}/Delta_n = h_n, exact."""
    ms = MomentSeq(w)
    rep = VerificationReport(
        identity="toeplitz-h",
        relation="Delta_{n+1} / Delta_n = h_n = prod_{k<n} (1 - a_k^2)",
        params=family_params(fam, weight=w.kind, n_max=n_max),
    )
    deltas = [toeplitz_delta(ms, n) for n in range(n_max + 2)]
    for n in range(n_max + 1):
        ratio = deltas[n + 1] / deltas[n]
        ok = ratio == fam.h[n]
        rep.add(f"n={n}", ok, "" if ok else f"{ratio} != {fam.h[n]}")
    return rep


def verify_determinantal_match(
    fam: OPUCFamily, w: Weight, n_max: int
) -> VerificationReport:
    """Determinantal phi_n equals the Szego-recurrence phi_n, exact."""
    ms = MomentSeq(w)
    rep = VerificationReport(
        identity="determinantal-match",
        relation="bordered-Toeplitz phi_n = recurrence phi_n",
        params=family_params(fam, weight=w.kind, n_max=n_max),
    )
    for n in range(n_max + 1):
        rep.residual(f"n={n}", determinantal_phi(ms, n) - fam.phi[n])
    return rep
