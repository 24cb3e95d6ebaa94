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

A ``MomentSeq`` keeps each sigma_k of one parameter point once, also over
one common denominator, with one Bareiss elimination of their Toeplitz
matrix for every Delta_n and determinantal phi_n, and one integer pairing
vector per polynomial for inner products: O(N^3) exact work at size N.
The suite reads one per family (``family_moments``).
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .errors import NonPositive, NotDivisible
from .laurent import _ONE, _ZERO, LaurentPoly, Rational, _normal, _signed
from .opuc import JacobiParams, OPUCFamily, family_params, per_family, require_params
from .report import VerificationReport



def sigma(p: JacobiParams, n: int) -> Rational:
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
    q1, q2 = p.alpha._denominator, p.s._denominator  # alpha + 1 = p1/q1, s + 1 = p2/q2
    p1, p2 = p.alpha._numerator + q1, p.s._numerator + q2
    num = den = 1
    for j in range(k - 1, -1, -1):
        rn = 2 * (j - k) * (j + k) * (j * q1 + p1) * q2
        rd = (2 * j + 1) * (j + 1) * (j * q2 + p2) * q1
        num, den = rd * den + rn * num, rd * den
    return _signed(num, den)


def _check_delta(n: int, pivot: int, den: int) -> None:
    if pivot <= 0:  # Delta_n = pivot / den^n, positive for every genuine weight
        raise NonPositive(f"Delta_{n} = {Rational(pivot, den ** n)} <= 0")


class MomentSeq:
    """The moments of the weight at one parameter point, each computed once.

    ``value(k)`` is sigma_k as a ``Rational``.  ``integer_view(top)`` is
    sigma_0..sigma_top as integer numerators over one common denominator,
    the lcm of theirs, extended on demand.  It and what ``elimination``
    and ``pairing`` hold only grow, so a MomentSeq can be shared.
    """

    def __init__(self, params: JacobiParams):
        self.params = params
        self._cache: dict[int, Rational] = {}
        self._nums: tuple[int, ...] = ()
        self._den = 1
        self._rows: list[list[int]] = []
        self._rows_den = 1
        self._pairings: dict[LaurentPoly, tuple[int, list[int], int]] = {}

    def value(self, n: int) -> Rational:
        k = abs(n)
        if k not in self._cache:
            self._cache[k] = sigma(self.params, k)
        return self._cache[k]

    def integer_view(self, top: int) -> tuple[tuple[int, ...], int]:
        """(nums, den) with sigma_k = nums[k] / den for every k < len(nums),
        and len(nums) > top."""
        if len(self._nums) <= top:
            new = [self.value(k) for k in range(len(self._nums), top + 1)]
            den = lcm(self._den, *(v._denominator for v in new))
            scale = den // self._den
            self._nums = (
                *(c * scale for c in self._nums),
                *(v._numerator * (den // v._denominator) for v in new),
            )
            self._den = den
        return self._nums, self._den

    def elimination(self, cols: int) -> tuple[list[list[int]], int]:
        """(rows, den): Bareiss elimination (Math. Comp. 22, 1968) of the
        symmetric T = den * [sigma_{k-j}] over columns 0..cols-1 or more,
        Delta_1..Delta_{cols-1} checked positive.  rows[k][j - k] = U[k][j],
        the minor of T on rows 0..k, columns 0..k-1, j: U[k][k] = den^(k+1)
        Delta_{k+1}."""
        nums, den = self.integer_view(cols - 1)
        if den != self._rows_den:  # a minor of order k + 1 scales by s^(k+1)
            s = den // self._rows_den
            self._rows = [[u * s ** (k + 1) for u in row] for k, row in enumerate(self._rows)]
            self._rows_den = den
        while len(self._rows) < cols:
            self._border(nums)
        return self._rows, den

    def _border(self, nums: tuple[int, ...]) -> None:
        """Column n = len(rows) through every step, then pivot row n.  Step k
        maps t_i to (t_i U[k][k] - m_i t_k) / U[k-1][k-1] for i > k, where
        by symmetry the multiplier m_i is U[k][i], and t_k for i = n."""
        rows = self._rows
        n = len(rows)
        if n:
            _check_delta(n, rows[-1][0], self._rows_den)
        col, prev = [nums[n - i] for i in range(n + 1)], 1
        for k, row in enumerate(rows):
            pk, ck = row[0], col[k]
            row.append(ck)
            for i in range(k + 1, n + 1):
                col[i] = (col[i] * pk - row[i - k] * ck) // prev
            prev = pk
        rows.append([col[n]])

    def pairing(self, f: LaurentPoly, lo: int, hi: int) -> tuple[int, list[int], int]:
        """(start, vec, den): <f, z^k>_w = sum_j f_j sigma_{j-k} is
        vec[k - start] / den for lo <= k <= hi, f nonzero.  Held per f over
        f's span and [lo, hi], formed again only for a call past them."""
        held = self._pairings.get(f)
        if held is None or held[0] > lo or held[0] + len(held[1]) <= hi:
            flo = f._lo
            lo, hi = min(lo, flo), max(hi, flo + len(f._num) - 1)
            top = hi - lo
            sig, den = self.integer_view(top)
            two = sig[top:0:-1] + sig[:top + 1]  # two[t + top] = sigma_|t|
            vec = [sum(map(mul, f._num, two[flo - k + top:])) for k in range(lo, hi + 1)]
            held = self._pairings[f] = (lo, vec, f._den * den)
        return held


@per_family("moments")
def family_moments(fam: OPUCFamily) -> MomentSeq:
    """The MomentSeq at the family's (alpha, beta), made once per family,
    so every moment report of the family shares it."""
    return MomentSeq(require_params(fam))


def toeplitz_delta(ms: MomentSeq, n: int) -> Rational:
    """Delta_n = det[sigma_{k-j}]_{j,k=0..n-1}, with Delta_0 = 1: the pivot
    U[n-1][n-1] of ``ms.elimination(n)`` over den^n.  NonPositive names the
    first of Delta_1..Delta_n that is not positive; no later one is formed.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if n == 0:
        return _ONE
    rows, den = ms.elimination(n)
    _check_delta(n, rows[n - 1][0], den)
    return _signed(rows[n - 1][0], den ** n)


def determinantal_phi(ms: MomentSeq, n: int) -> LaurentPoly:
    """phi_n from the bordered Toeplitz determinant divided by Delta_n.

    Rows [sigma_{k-j}]_{k=0..n}, j < n, on (1, z, ..., z^n), expanded along
    that last row: c_k = cofactor of z^k / Delta_n, c_n = 1.  Row j in its
    place repeats a row, so sum_k c_k sigma_{k-j} = 0 for j < n, as for the
    rows 0..n-1 of ``ms.elimination``, invertible triangular combinations
    of them.  x_k = D c_k, D = U[n-1][n-1] = den^n Delta_n, is an integer
    cofactor, so back substitution x_n = D, x_k = -(sum_{j>k} U[k][j] x_j)
    / U[k][k] divides exactly; a remainder raises NotDivisible.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    if n == 0:
        return LaurentPoly.one()
    rows, _ = ms.elimination(n + 1)
    x = [0] * n + [rows[n - 1][0]]
    for k in range(n - 1, -1, -1):
        q, r = divmod(-sum(map(mul, rows[k][1:n + 1 - k], x[k + 1:])), rows[k][0])
        if r:
            raise NotDivisible(f"back substitution for phi_{n} leaves {r} in row {k}")
        x[k] = q
    return _normal(0, x, x[n])


def inner_product(f: LaurentPoly, g: LaurentPoly, ms: MomentSeq) -> Rational:
    """<f, g>_w = sum_{j,k} f_j g_k sigma_{j-k} with sigma_0 = 1, exact:
    sum_k g_k <f, z^k>_w, g's integer numerators dotted with f's held
    ``ms.pairing`` vector, and one ``Rational``."""
    if not f or not g:
        return _ZERO
    start, vec, den = ms.pairing(f, g._lo, g._lo + len(g._num) - 1)
    return _signed(sum(map(mul, g._num, vec[g._lo - start:])), g._den * den)


def _report(fam: OPUCFamily, n_max: int, identity: str, relation: str):
    """(MomentSeq, empty report) for a report that reads the family's phi_n
    and h_n up to n_max."""
    if n_max > fam.size:
        raise ValueError("family too short for requested range")
    ms = family_moments(fam)
    return ms, VerificationReport(
        identity, relation, family_params(fam, weight="jacobi", n_max=n_max))


def orthogonality_check(fam: OPUCFamily, n_max: int) -> VerificationReport:
    """<phi_n, phi_m>_w = h_n delta_{nm} for all m <= n <= n_max, exactly."""
    ms, rep = _report(fam, n_max, "orthogonality", "<phi_n, phi_m>_w = h_n delta_nm")
    for n in range(n_max + 1):
        for m in range(n + 1):
            v = inner_product(fam.phi[n], fam.phi[m], ms)
            target = fam.h[n] if m == n else _ZERO
            ok = v == target
            rep.add(f"n={n},m={m}", ok, "" if ok else f"<{n},{m}> = {v}, expected {target}")
    return rep


def verify_toeplitz_h(fam: OPUCFamily, n_max: int) -> VerificationReport:
    """Delta_{n+1}/Delta_n = h_n, exact."""
    ms, rep = _report(fam, n_max, "toeplitz-h",
                      "Delta_{n+1} / Delta_n = h_n = prod_{k<n} (1 - a_k^2)")
    deltas = [toeplitz_delta(ms, n) for n in range(n_max + 2)]
    for n in range(n_max + 1):
        ratio = deltas[n + 1] / deltas[n]
        ok = ratio == fam.h[n]
        rep.add(f"n={n}", ok, "" if ok else f"{ratio} != {fam.h[n]}")
    return rep


def verify_determinantal_match(fam: OPUCFamily, n_max: int) -> VerificationReport:
    """Determinantal phi_n equals the Szego-recurrence phi_n, exact."""
    ms, rep = _report(fam, n_max, "determinantal-match",
                      "bordered-Toeplitz phi_n = recurrence phi_n")
    for n in range(n_max + 1):
        res = LaurentPoly.lincomb([(1, determinantal_phi(ms, n)), (-1, fam.phi[n])])
        rep.residual(f"n={n}", res)
    return rep
