"""Reflection block matrices and the pentadiagonal CMV matrix.

M1 and M2 are the exact involutive block truncations built from the
Verblunsky coefficients; their product C = M1 M2 is the CMV matrix.  A
finite truncation can cut the final 2x2 block, so every operator tracks
how many leading rows agree with the semi-infinite matrix
(``valid_rows``); verifications only assert on those rows and report the
rest as skipped.

The reflection residuals A_n = psi_n(1/z) - (M1 psi)_n and
B_n = z psi_n(1/z) - (M2 psi)_n are built once per family and row
(``reflection_residual``): the upper row of each 2x2 block from psi,
the lower row from the upper one, since each block is an involution.
The pencil and the five-term recurrence follow from them by ring
algebra, so their rows are formed as short combinations of A and B: the
same Laurent polynomials as the direct formulas for any psi, and zero
at no arithmetic cost on a clean family.
``spectrum`` reads eigenvalues off the blocks and off phi_n, no matrix formed.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import BadVerblunsky, ConvergenceFailure
from .laurent import _ZERO_POLY, LaurentPoly, Rational, _normal
from .opuc import JacobiParams, OPUCFamily, build_family, family_params, per_family, verblunsky
from .report import VerificationReport


class BandedOperator:
    """Exact banded matrix with row-validity metadata.

    Row i is stored as its generating polynomial sum_j M[i, j] z^j, a
    ``LaurentPoly`` keyed by i, and zero rows are not stored; the
    polynomial's normal form makes that representation unique, so a
    matrix identity holds on row i exactly when row i of its residual
    ``lincomb`` is absent.

    ``bandwidth`` bounds how far past its index a row reaches.  It is
    metadata that the constructors, ``lincomb`` and ``@`` set by
    construction; ``@`` forms every product by one rule whatever it says.

    ``valid_rows`` counts the leading rows whose entries coincide with
    the semi-infinite operator the truncation approximates, including
    the guarantee that the full support of each such row is stored.
    Products propagate this conservatively.
    """

    __slots__ = ("size", "bandwidth", "valid_rows", "rows")

    def __init__(
        self,
        size: int,
        rows: dict[int, LaurentPoly],
        bandwidth: int,
        valid_rows: int,
    ):
        self.size = size
        self.rows = {i: r for i, r in rows.items() if r}
        self.bandwidth = bandwidth
        self.valid_rows = valid_rows

    # ------------------------------------------------------------- constructors

    @classmethod
    def identity(cls, size: int) -> "BandedOperator":
        return cls.diagonal([1] * size)

    @classmethod
    def diagonal(cls, values: Sequence[Rational]) -> "BandedOperator":
        rows = {i: LaurentPoly.monomial(i, v) for i, v in enumerate(values)}
        return cls(len(values), rows, 0, len(values))

    # ------------------------------------------------------------- arithmetic

    def _check_size(self, other: "BandedOperator") -> None:
        if self.size != other.size:
            raise ValueError("operator size mismatch")

    @staticmethod
    def lincomb(terms: Sequence[tuple[Rational | int, "BandedOperator"]]) -> "BandedOperator":
        """sum(c * A for c, A in terms), one ``LaurentPoly.lincomb`` per row
        that some term with c != 0 stores, in ascending order.

        The sum is valid on the rows every term is valid on, zero scalars
        included; its bandwidth is the largest among the terms with c != 0.
        """
        first = terms[0][1]
        for _, a in terms:
            first._check_size(a)
        live = [(c, a) for c, a in terms if c]
        rows = {
            i: LaurentPoly.lincomb([(c, a.rows.get(i, _ZERO_POLY)) for c, a in live])
            for i in sorted(set().union(*(a.rows for _, a in live)))
        }
        return BandedOperator(
            first.size,
            rows,
            max((a.bandwidth for _, a in live), default=0),
            min(a.valid_rows for _, a in terms),
        )

    def __matmul__(self, other: "BandedOperator") -> "BandedOperator":
        """Row i of the product is sum_j self[i, j] * (row j of other), one
        ``LaurentPoly.lincomb`` over the stored rows of other that row i
        reaches, formed only when it reaches one: a factor that stores no
        row leaves nothing to form, and a diagonal factor costs one term
        per row.  The scalars are row i's integer numerators and its
        denominator is applied once, as lincomb's ``den``.  The bandwidths
        add; ``product_valid_rows`` gives the valid rows."""
        self._check_size(other)
        stored = other.rows
        rows = {}
        for i, row in self.rows.items():
            terms = [(c, stored[j]) for j, c in enumerate(row._num, row._lo) if c and j in stored]
            if terms:
                rows[i] = LaurentPoly.lincomb(terms, row._den)
        return BandedOperator(
            self.size, rows, self.bandwidth + other.bandwidth, self.product_valid_rows(other)
        )

    def product_valid_rows(self, other: "BandedOperator") -> int:
        """The valid rows of ``self @ other``: row i needs row i of self and
        every row of other it reaches, up to i + self.bandwidth."""
        return max(min(self.valid_rows, other.valid_rows - self.bandwidth), 0)

    # ------------------------------------------------------------- actions

    def row_parts(
        self, i: int, vectors: Sequence[LaurentPoly], scale: int = 1
    ) -> tuple[list[tuple[int, LaurentPoly]], int]:
        """(terms, den) with ``LaurentPoly.lincomb(terms, den)`` equal to
        scale * sum_j M[i, j] * vectors[j]: terms pairs scale times each
        nonzero integer numerator of row i with its vector, and den is the
        row's denominator."""
        row = self.rows.get(i, _ZERO_POLY)
        return [(scale * c, vectors[j]) for j, c in enumerate(row._num, row._lo) if c], row._den


def _reflection_blocks(
    a: Sequence[Rational], size: int, first_row: int
) -> BandedOperator:
    """Identity rows before first_row, then the 2x2 blocks
    [[a_r, 1], [1 - a_r^2, -a_r]] = [[p, q] / q, [q^2 - p^2, -pq] / q^2] for
    a_r = p/q at rows r = first_row, first_row + 2, ...  A block cut by the
    truncation keeps only its diagonal entry, and its row is not valid.
    Each a_r is checked as its block reads it; no other a_k is checked."""
    if size < 1:
        raise ValueError("size must be >= 1")
    last = size - 1 - (size - 1 - first_row) % 2  # row of the last block
    if len(a) <= last:
        raise ValueError(f"need Verblunsky coefficients up to index {last}")
    rows = {r: LaurentPoly.monomial(r) for r in range(first_row)}
    for r in range(first_row, size, 2):
        if not -1 < a[r] < 1:
            raise BadVerblunsky(f"a_{r} = {a[r]} lies outside (-1, 1)")
        p, q = a[r].as_integer_ratio()
        if r + 1 < size:
            rows[r] = _normal(r, (p, q), q)
            rows[r + 1] = _normal(r, (q * q - p * p, -p * q), q * q)
        else:
            # cut block: partner column truncated away
            rows[r] = _normal(r, (p,), q)
    cut = (size - first_row) % 2 == 1
    return BandedOperator(size, rows, 1, size - 1 if cut else size)


def build_m1(a: Sequence[Rational], size: int) -> BandedOperator:
    """Truncation of M1: a leading 1x1 block [1], then 2x2 blocks with
    parameters a_1, a_3, a_5, ... (the only ones read) from row 1."""
    return _reflection_blocks(a, size, 1)


def build_m2(a: Sequence[Rational], size: int) -> BandedOperator:
    """Truncation of M2: 2x2 blocks with parameters a_0, a_2, a_4, ...
    (the only ones read) starting at row 0."""
    return _reflection_blocks(a, size, 0)


def _reference_a(fam: OPUCFamily, count: int) -> list[Rational]:
    """Coefficients the verification matrices are built from.

    A family that carries its parameter point is checked against the
    matrices that point dictates, so a family whose stored coefficients
    have drifted from the claimed parameters produces residuals instead
    of being excused by rebuilding both sides from the same data."""
    if fam.params is not None:
        return [verblunsky(fam.params, k) for k in range(count)]
    return list(fam.a[:count])


@per_family("cmv")
def family_operators(fam: OPUCFamily, size: int) -> tuple[BandedOperator, BandedOperator]:
    """M1 and M2 at this size, built from ``_reference_a`` once per family
    and size, so both row verifications (at size N + 1) and the algebra's
    representation at the same size read one build."""
    a = _reference_a(fam, size)
    return build_m1(a, size), build_m2(a, size)


@per_family("reflection")
def reflection_residual(fam: OPUCFamily, m: int, n: int, *, op: BandedOperator) -> LaurentPoly:
    """A_n = psi_n(1/z) - (M1 psi)_n (m = 1, op = M1) or B_n = z psi_n(1/z)
    - (M2 psi)_n (m = 2, op = M2), once per family and row, from row n of
    op, a valid row: the same at every size, so the CMV rows at size N + 1,
    the central extension's tie-in at the algebra's size and the psi(P,Q)
    rows (``szego.psi_pq_residuals``) share one build.

    An upper block row (n - first_row even, first_row = 1 for M1 and 0
    for M2) is formed from psi.  The lower row of the block is formed from
    it: with a = a_{n-1} read off row n - 1 of op and f*(z) = f(1/z), the
    block [[a, 1], [1 - a^2, -a]] gives, for any psi,

        A_n = -A_{n-1}* - a A_{n-1},    B_n = -z B_{n-1}* - a B_{n-1},

    zero with no nonzero term when the upper row is zero.  Since a^2 < 1
    the lower row is zero exactly when the upper row is."""
    first = 2 - m
    if n > first and (n - first) % 2:
        up = reflection_residual(fam, m, n - 1, op=op)
        star = up.reflect() if m == 1 else up.reflect().shift(1)
        return LaurentPoly.lincomb([(-1, star), (-op.rows[n - 1].coeff(n - 1), up)])
    psi = fam.psi
    terms, den = op.row_parts(n, psi, -1)
    image = psi[n].reflect() if m == 1 else psi[n].reflect().shift(1)
    return LaurentPoly.lincomb([(den, image), *terms], den)


def m1_upper_row(fam: OPUCFamily, n: int) -> tuple[Rational, LaurentPoly]:
    """(a_n, A_n) for the upper row n = 1, 3, 5, ... of a complete M1 block
    at size N + 1: the reference coefficient M1 reads there and the held
    reflection residual, for ``szego.psi_pq_residuals``."""
    m1 = family_operators(fam, fam.size + 1)[0]
    if n % 2 == 0 or not 0 < n < m1.valid_rows - 1:
        raise ValueError(f"row {n} is not the upper row of a complete M1 block")
    return m1.rows[n].coeff(n), reflection_residual(fam, 1, n, op=m1)


def verify_reflection_rows(fam: OPUCFamily) -> VerificationReport:
    """Row-wise checks psi_n(1/z) = sum_m (M1)_{nm} psi_m and
    z psi_n(1/z) = sum_m (M2)_{nm} psi_m on rows with complete blocks:
    the residuals A_n and B_n of ``reflection_residual``."""
    size = fam.size + 1
    m1, m2 = family_operators(fam, size)
    rep = VerificationReport(
        identity="reflection-rows",
        relation="psi(1/z) = M1 psi(z) ; z psi(1/z) = M2 psi(z)",
        params=family_params(fam, size=size),
    )
    for n in range(size):
        for k, op in ((1, m1), (2, m2)):
            if n < op.valid_rows:
                rep.residual(f"M{k} row {n}", reflection_residual(fam, k, n, op=op))
            else:
                rep.skip(f"M{k} row {n} (cut block)")
    return rep


def verify_gevp_and_five_term(fam: OPUCFamily) -> VerificationReport:
    """Row-wise checks of M2 psi = z M1 psi and of the five-term
    recurrence C psi = z psi on interior rows, formed from the reflection
    residuals A, B of ``reflection_residual``:

        (M2 psi)_n - z (M1 psi)_n = z A_n - B_n,
        (C psi)_n - z psi_n = -z A_n(1/z) - sum_m (M1)_{nm} B_m.

    The second holds because C = M1 M2: its row n is
    sum_m (M1)_{nm} (M2 psi)_m, and sum_m (M1)_{nm} psi_m(1/z) is
    (M1 psi)_n evaluated at 1/z.  C itself is never built.  Its rows are
    checked where the product ``M1 @ M2`` would be valid, n <
    ``M1.product_valid_rows(M2)``; every m that M1 row n reaches there
    is a valid row of M2."""
    size = fam.size + 1
    m1, m2 = family_operators(fam, size)
    res_m1, res_m2 = ([reflection_residual(fam, k, n, op=op) for n in range(op.valid_rows)]
                      for k, op in ((1, m1), (2, m2)))
    c_rows = m1.product_valid_rows(m2)
    rep = VerificationReport(
        identity="cmv-rows",
        relation="M2 psi = z M1 psi ; (M1 M2) psi = z psi",
        params=family_params(fam, size=size),
    )
    lc = LaurentPoly.lincomb
    pencil_rows = min(m1.valid_rows, m2.valid_rows)
    for n in range(size):
        if n < pencil_rows:
            rep.residual(f"pencil row {n}", lc([(1, res_m1[n].shift(1)), (-1, res_m2[n])]))
        else:
            rep.skip(f"pencil row {n} (boundary)")
        if n < c_rows:
            terms, den = m1.row_parts(n, res_m2, -1)
            rep.residual(f"C row {n}", lc([(-den, res_m1[n].reflect().shift(1)), *terms], den))
        else:
            rep.skip(f"C row {n} (boundary)")
    return rep


def spectrum(p: JacobiParams, size: int, matrix: str = "c") -> list[complex]:
    """Eigenvalues of the size x size truncation of C = M1 M2, M1 or M2
    (matrix "c", "m1" or "m2") at p, sorted by argument in (-pi, pi], then
    modulus; a real one has imaginary part +0.0, so a negative one sorts at
    pi.  A complete reflection block has trace 0 and determinant -1, so 1
    and -1; a cut block has its entry a_{size-1}.  det(z - C) = phi_size
    (Simon, *OPUC* 4.2): 0 as often as its lowest exponent, then ``_zeros``."""
    if matrix != "c":
        first = {"m1": 1, "m2": 0}[matrix]
        evs = [1.0] * first + [1.0, -1.0] * ((size - first) // 2)
        evs += [float(verblunsky(p, size - 1))] * ((size - first) % 2)
    else:
        phi = build_family(p, size).phi[size]
        evs = [0.0] * phi._lo + _zeros(phi._num)
    return sorted(map(complex, evs), key=lambda v: (math.atan2(v.imag, v.real), abs(v)))


def _zeros(nums: Sequence[int]) -> list[complex]:
    """The zeros of the real q(z) = sum nums[k] z^k, q(0) != 0: Aberth sweeps
    (Aberth, *Math. Comp.* 27, 1973) from fixed points on |z| = |q(0)/lead|^(1/deg)
    by q/q' in complex floats until each |q(z)| is within Horner's rounding
    bound, then by the exact ``_newton`` step, final once within 2^-30 max(1, |z|).
    Those on or above the real axis are kept, with their conjugates."""
    deg = len(nums) - 1
    c = [(x / nums[-1], abs(x / nums[-1])) for x in reversed(nums)]
    z = [c[-1][1] ** (1 / deg) * math.e ** (2j * math.pi * j / deg + 0.4j) for j in range(deg)]
    final, exact = {}, False
    for _ in range(500):
        moved = False
        for j, zj in enumerate(z):
            if j in final:
                continue
            if exact:
                zn = _newton(nums, zj)
                w = zj - zn
                if abs(w) <= 2**-30 * max(1, abs(zj)):
                    final[j] = zn
                    continue
            else:
                p, dp, bound, r = 0j, 0j, 0.0, abs(zj)
                for ck, sk in c:
                    dp, p, bound = dp * zj + p, p * zj + ck, bound * r + sk
                if abs(p) <= 4 * deg * 2**-53 * bound:
                    continue
                w = p / dp
            w /= 1 - w * sum([1 / (zj - zk) for k, zk in enumerate(z) if k != j])
            if abs(w) < math.inf:
                z[j], moved = zj - w, True
        evs = [v for v in final.values() if v.imag >= 0]
        evs += [v.conjugate() for v in evs if v.imag]
        if len(final) == deg == len(evs):
            return evs
        exact = exact or not moved
    raise ConvergenceFailure(f"no {deg} zeros closed under conjugation in 500 sweeps")


def _newton(nums: Sequence[int], z: complex) -> complex:
    """z - q(z)/q'(z), exact, rounded once and made real within 2^-52 max(1, |z|)
    of the axis: (Z D - P)/(D E) for z = Z/E, E = 2^t, from Horner on Gaussian
    integers, Z = X + iY, P = E^deg q(z) and D = E^(deg-1) q'(z)."""
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    e = max(xd, yd)
    x, y, t = xn * (e // xd), yn * (e // yd), e.bit_length() - 1
    pr, pj, dr, dj = nums[-1], 0, 0, 0
    for k, ck in enumerate(reversed(nums[:-1]), 1):
        dr, dj = dr * x - dj * y + pr, dr * y + dj * x + pj
        pr, pj = pr * x - pj * y + (ck << t * k), pr * y + pj * x
    nr, nj = x * dr - y * dj - pr, x * dj + y * dr - pj
    norm = (dr * dr + dj * dj) * e
    re, im = (nr * dr + nj * dj) / norm, (nj * dr - nr * dj) / norm
    return complex(re, 0.0 if abs(im) <= 2**-52 * max(1, abs(complex(re, im))) else im)
