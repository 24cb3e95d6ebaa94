"""The classical Jacobi chain walked step by step: the reference the
Szegő classical match is checked against.

``szego.verify_classical_match`` forms P_n - O_n out of the held
three-term residuals; this module keeps the oracle O_n itself, run as
the monic three-term recurrence directly in z, so that the tests can
compare the two.  It reads no circle-side data, only the closed-form
coefficients ``szego.jacobi_b`` and ``szego.jacobi_u``.
"""

from collections.abc import Iterator
from fractions import Fraction

from circlejacobi.errors import ParamOutOfRange
from circlejacobi.laurent import LaurentPoly, Z_PLUS_ZINV
from circlejacobi.szego import jacobi_b, jacobi_u


def classical_jacobi_chain(alpha, beta, n: int) -> Iterator[LaurentPoly]:
    """Yield the monic Jacobi polynomials P_0, ..., P_n with parameters
    (alpha, beta), rescaled from [-1, 1] to [-2, 2] (argument x/2).

    Runs the closed-form three-term recurrence for the monic chain once,
    directly in z with x f = f.shift(1) + f.shift(-1), holding only the
    two previous polynomials; the n = 1 step is taken in its cancelled
    form so parameter sums near -1 stay well-defined.  The parameters are
    checked when iteration starts.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= -1 or beta <= -1:
        raise ParamOutOfRange("oracle needs alpha > -1 and beta > -1")
    if n < 0:
        raise ValueError("degree must be >= 0")
    prev = LaurentPoly.one()
    yield prev
    if n == 0:
        return
    cur = LaurentPoly.lincomb([(1, Z_PLUS_ZINV), (-jacobi_b(alpha, beta, 0), prev)])
    yield cur
    for k in range(1, n):
        step = [(1, cur.shift(1)), (1, cur.shift(-1)), (-jacobi_b(alpha, beta, k), cur),
                (-jacobi_u(alpha, beta, k), prev)]
        prev, cur = cur, LaurentPoly.lincomb(step)
        yield cur


def classical_jacobi_oracle(alpha, beta, n: int) -> LaurentPoly:
    """The degree-n member of classical_jacobi_chain(alpha, beta, n)."""
    for poly in classical_jacobi_chain(alpha, beta, n):
        pass
    return poly
