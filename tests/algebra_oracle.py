"""Reference models of the circle Jacobi algebra that no CLI path reads.

The canonical form of the structure constants (g1, g2, g3, g4), and the
truncated block-matrix representation built straight from the closed
forms a_n and lambda_n, with the pair X = M1 M2 + M2 M1,
Y = K^2 - (alpha+beta+1) K on it.  ``algebra.family_representation``
is the verifier's own build of that representation, out of the family's
M1 and M2; the tests compare the two.
"""

from dataclasses import dataclass
from fractions import Fraction

from circlejacobi.cmv import BandedOperator, build_m1, build_m2
from circlejacobi.dunkl import lambda_n
from circlejacobi.errors import Degenerate
from circlejacobi.opuc import JacobiParams, verblunsky


@dataclass(frozen=True)
class AlgebraParams:
    """Structure constants (g1, g2, g3, g4) of the defining relations."""

    g1: Fraction
    g2: Fraction
    g3: Fraction
    g4: Fraction

    def __post_init__(self) -> None:
        for name in ("g1", "g2", "g3", "g4"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))


@dataclass(frozen=True)
class CanonicalForm:
    """Parameters (alpha, beta) of the canonical relations together with
    the substitution K -> mu K + nu that produced them."""

    alpha: Fraction
    beta: Fraction
    mu: Fraction
    nu: Fraction


def canonicalize(g: AlgebraParams) -> CanonicalForm:
    """Reduce (g1, g2, g3, g4) to canonical (alpha, beta, mu, nu).

    Requires g3 != g1 and g2 != 0; otherwise the quadruple is degenerate
    and no substitution reaches the canonical form with both parameters
    free.
    """
    if g.g3 == g.g1 or g.g2 == 0:
        raise Degenerate(f"degenerate structure constants {g}")
    mu = Fraction(1) / (g.g3 - g.g1)
    splus = -g.g2 * mu  # alpha + beta + 1
    d = g.g4 * mu  # alpha - beta
    alpha = (splus - 1 + d) / 2
    beta = (splus - 1 - d) / 2
    nu = (splus - mu * g.g1) / 2
    # substituting back must reproduce the input exactly
    if (splus - 2 * nu) / mu != g.g1:
        raise AssertionError("canonical form does not reproduce g1")
    if -splus / mu != g.g2:
        raise AssertionError("canonical form does not reproduce g2")
    if (splus + 1 - 2 * nu) / mu != g.g3:
        raise AssertionError("canonical form does not reproduce g3")
    if d / mu != g.g4:
        raise AssertionError("canonical form does not reproduce g4")
    return CanonicalForm(alpha=alpha, beta=beta, mu=mu, nu=nu)


def _representation(p: JacobiParams, size: int):
    """(M1, M2, K): the block reflection matrices and the diagonal K of
    the closed-form representation, truncated to size x size."""
    a = [verblunsky(p, n) for n in range(size)]
    k = BandedOperator.diagonal([lambda_n(p, n) for n in range(size)])
    return build_m1(a, size), build_m2(a, size), k


def build_xy_matrix(p: JacobiParams, size: int) -> tuple[BandedOperator, BandedOperator]:
    """X = M2 M1 + M1 M2 and Y = K^2 - (alpha+beta+1) K in the
    closed-form block-matrix representation."""
    m1, m2, k = _representation(p, size)
    lc = BandedOperator.lincomb
    return lc([(1, m2 @ m1), (1, m1 @ m2)]), lc([(1, k @ k), (-p.s, k)])
