"""Closed forms and reference models on the circle side that no CLI path
reads.

The single-moment weight (1 - cos t)/(2 pi) is the point
(alpha, beta) = (1/2, -1/2) of the Jacobi circle family, and Lebesgue
measure dt/(2 pi) is the point (-1/2, -1/2).  At those points the
Verblunsky coefficients, phi_n, the eigenvalues of K, K itself and the
moments have closed forms that share no code with the general formulas
of the package, so the tests check those formulas against them.  Also
here: the chi ordering and its inverse, the support of a Laurent
polynomial, a banded row applied to vectors through its reduced entries,
the entries of a banded operator, the CMV matrix C = M1 M2, and the
symmetry of K in the weighted inner product.
"""

from fractions import Fraction

from circlejacobi.cmv import build_m1, build_m2
from circlejacobi.dunkl import apply_k
from circlejacobi.laurent import LaurentPoly
from circlejacobi.moments import MomentSeq, inner_product
from circlejacobi.opuc import JacobiParams

SINGLE_MOMENT = JacobiParams(Fraction(1, 2), Fraction(-1, 2))
LEBESGUE = JacobiParams(Fraction(-1, 2), Fraction(-1, 2))

_ONE_MINUS_Z = LaurentPoly({0: 1, 1: -1})


def constant(c) -> LaurentPoly:
    """The constant Laurent polynomial c."""
    return LaurentPoly({0: c})


def single_moment_verblunsky(n: int) -> Fraction:
    """a_n = -1/(n+2) for the single-moment measure (1 - cos t)/(2 pi)."""
    return Fraction(-1, n + 2)


def single_moment_phi(n: int) -> LaurentPoly:
    """phi_n = (1/(n+1)) sum_{k=0}^{n} (k+1) z^k at the single-moment point."""
    if n < 0:
        raise ValueError("index must be >= 0")
    scale = Fraction(1, n + 1)
    return LaurentPoly({k: scale * (k + 1) for k in range(n + 1)})


def lambda_single_moment(n: int) -> Fraction:
    """Single-moment eigenvalues: -n/2 for even n, (n+3)/2 for odd n."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return Fraction(-n, 2) if n % 2 == 0 else Fraction(n + 3, 2)


def apply_k_single_moment(f: LaurentPoly) -> LaurentPoly:
    """K at the single-moment point, K = z d/dz + z/(1 - z) (R - I), as
    composed LaurentPoly operations: a code path independent of the
    one-pass integer kernel ``dunkl.apply_k``."""
    refl = f.reflect() - f
    out = f.theta()
    if refl.is_zero:
        return out
    return out + refl.shift(1).div_exact(_ONE_MINUS_Z)


def single_moment_sigma(n: int) -> Fraction:
    """sigma_n of (1 - cos t)/(2 pi): 1, then -1/2 at n = +-1, then 0."""
    k = abs(n)
    return Fraction(1) if k == 0 else Fraction(-1, 2) if k == 1 else Fraction(0)


def lebesgue_sigma(n: int) -> Fraction:
    """sigma_n of dt/(2 pi): 1 at n = 0, else 0."""
    return Fraction(int(n == 0))


def support(f: LaurentPoly) -> tuple[int, ...]:
    """Exponents carrying a nonzero coefficient, ascending."""
    return tuple(k for k, _ in f.items())


def row_terms(op, i: int, vectors, sign: int = 1) -> list:
    """The pairs (sign * M[i, j], vectors[j]) of row i of the
    ``BandedOperator`` op, its entries read one by one as reduced
    scalars through ``items()``, as terms of ``LaurentPoly.lincomb``."""
    return [(sign * v, vectors[j]) for j, v in op.rows.get(i, LaurentPoly.zero()).items()]


def apply_row(op, i: int, vectors) -> LaurentPoly:
    """sum_j M[i, j] * vectors[j] for row i of the ``BandedOperator`` op."""
    return LaurentPoly.lincomb(row_terms(op, i, vectors))


def entries(op):
    """(i, j, M[i, j]) for the nonzero entries of the ``BandedOperator``
    op, row by row, each read as a reduced ``Rational``."""
    for i, row in sorted(op.rows.items()):
        for j, v in row.items():
            yield i, j, v


def cmv_matrix(a, size: int):
    """C = M1 M2 from the coefficients a, pentadiagonal by construction:
    each factor's rows reach one column on either side, so the product's
    reach two, and ``@`` sets bandwidth 1 + 1."""
    return build_m1(a, size) @ build_m2(a, size)


def chi_basis(n: int) -> LaurentPoly:
    """The reordered monomial basis: chi_0 = 1, chi_{2k-1} = z^k, chi_{2k} = z^-k."""
    if n < 0:
        raise ValueError("basis index must be >= 0")
    if n % 2:
        return LaurentPoly.monomial((n + 1) // 2)
    return LaurentPoly.monomial(-(n // 2))


def chi_index(exponent: int) -> int:
    """Position of the monomial z^exponent in the chi ordering."""
    return 2 * exponent - 1 if exponent >= 1 else -2 * exponent


def max_chi_index(f: LaurentPoly) -> int:
    """Largest chi position present in f (-1 for the zero polynomial)."""
    if f.is_zero:
        return -1
    return max(chi_index(k) for k in support(f))


def selfadjoint_residual(f: LaurentPoly, g: LaurentPoly, p: JacobiParams) -> Fraction:
    """<K f, g>_w - <f, K g>_w in the weighted inner product
    <u, v>_w = int u(e^it) v(e^-it) w(t) dt / int w(t) dt at p, exact."""
    ms = MomentSeq(p)
    return inner_product(apply_k(f, p), g, ms) - inner_product(f, apply_k(g, p), ms)
