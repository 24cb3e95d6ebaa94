"""The circle Jacobi algebra and its representations.

The algebra has three generators: two involutions M1, M2 and one more
generator K, subject to the anticommutation relations

    {K, M1} = g1 M1 + g2 I,    {K, M2} = g3 M2 + g4 I.

A nondegenerate quadruple (g1, g2, g3, g4) can be brought by an affine
substitution K -> mu K + nu to the canonical form

    {K, M1} = (alpha + beta + 1)(M1 - I),
    {K, M2} = (alpha + beta + 2) M2 + (alpha - beta) I.

Representing M1, M2 by the block reflection matrices of a CMV system
and K by a diagonal, the relations alone force the eigenvalues lambda_n
and the Verblunsky coefficients a_n; derive_representation performs
that construction from the matrix entries.  The module also checks the
functional realization (M1 = R, M2 = z R, K the Dunkl-type operator)
and the pair X = M1 M2 + M2 M1, Y = K^2 - (alpha+beta+1) K, which
closes into a centrally extended quadratic algebra with M1 as the
extension element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

from .cmv import BandedOperator, build_m1, build_m2, family_operators
from .dunkl import apply_k, k_residual, lambda_n
from .errors import Degenerate, InconsistentSystem
from .laurent import LaurentPoly
from .opuc import JacobiParams, OPUCFamily, verblunsky
from .report import VerificationReport
from .szego import build_p, build_q, p_top, psi_pq_residuals, q_top

Operator = Callable[[LaurentPoly], LaurentPoly]


# --------------------------------------------------------------------------
# Canonical form
# --------------------------------------------------------------------------


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


# --------------------------------------------------------------------------
# Representation on the block matrices: deriving lambda_n and a_n
# --------------------------------------------------------------------------


def derive_representation(alpha, beta, n_max: int):
    """Force (lambda_n, a_n), n <= n_max, out of the canonical relations.

    K is taken diagonal and M1, M2 the block reflection matrices.  The
    leading 1x1 block of M1 reads 2 lambda_0 = (alpha+beta+1)(1 - 1), so
    lambda_0 = 0 for every (alpha, beta).  The off-diagonal block entries
    (which equal 1 independently of the a_n) then chain the eigenvalues
    together, and each block diagonal determines its a_n.  Every block
    yields one extra diagonal equation, which must hold as a consistency
    condition or the system has no such representation.

    Returns (lam, a), two tuples of Fractions of length n_max + 1.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    splus = alpha + beta + 1  # coefficient in the M1 relation
    c2 = alpha + beta + 2  # M2 block coefficient
    d = alpha - beta

    # off-diagonal entries: the (2n, 2n+1) entry of the M2 relation and
    # the (2n+1, 2n+2) entry of the M1 relation both sit on a 1, so
    # lambda_{k+1} = c - lambda_k with c = c2 (k even) or splus (k odd)
    lam = [Fraction(0)]
    for k in range(n_max + 1):
        lam.append((c2 if k % 2 == 0 else splus) - lam[k])

    a: list[Fraction] = [Fraction(0)] * (n_max + 1)
    for n in range(0, n_max + 1, 2):
        # M2 block on rows (n, n+1) with diagonal (a_n, -a_n):
        #   2 lambda_n a_n = c2 a_n + d      (row n)
        #  -2 lambda_{n+1} a_n = -c2 a_n + d (row n+1, consistency)
        den = 2 * lam[n] - c2
        if den == 0:
            raise Degenerate(f"a_{n} undetermined: vanishing diagonal pivot")
        a[n] = d / den
        if -2 * lam[n + 1] * a[n] != -c2 * a[n] + d:
            raise InconsistentSystem(f"second diagonal equation fails at a_{n}")
    for n in range(1, n_max + 1, 2):
        # M1 block on rows (n, n+1) with diagonal (a_n, -a_n):
        #   2 lambda_n a_n = splus (a_n - 1)
        #  -2 lambda_{n+1} a_n = splus (-a_n - 1)  (consistency)
        den = 2 * lam[n] - splus
        if den == 0:
            raise Degenerate(f"a_{n} undetermined: vanishing diagonal pivot")
        a[n] = -splus / den
        if -2 * lam[n + 1] * a[n] != splus * (-a[n] - 1):
            raise InconsistentSystem(f"second diagonal equation fails at a_{n}")
    return tuple(lam[: n_max + 1]), tuple(a)


def verify_representation_derivation(p: JacobiParams, n_max: int) -> VerificationReport:
    """The derived (lambda_n, a_n) coincide with the closed forms."""
    rep = VerificationReport(
        identity="representation-derivation",
        relation="block-matrix representation forces lambda_n and a_n",
        params={"alpha": p.alpha, "beta": p.beta, "n_max": n_max},
    )
    lam, a = derive_representation(p.alpha, p.beta, n_max)
    for n in range(n_max + 1):
        want = lambda_n(p, n)
        rep.add(
            f"lambda n={n}", lam[n] == want,
            "" if lam[n] == want else f"derived {lam[n]} != {want}",
        )
    for n in range(n_max + 1):
        want = verblunsky(p, n)
        rep.add(
            f"a n={n}", a[n] == want,
            "" if a[n] == want else f"derived {a[n]} != {want}",
        )
    return rep


# --------------------------------------------------------------------------
# Matrix form of the defining relations
# --------------------------------------------------------------------------


def _representation(p: JacobiParams, size: int):
    """(M1, M2, K): the block reflection matrices and the diagonal K of
    the closed-form representation, truncated to size x size."""
    a = [verblunsky(p, n) for n in range(size)]
    k = BandedOperator.diagonal([lambda_n(p, n) for n in range(size)])
    return build_m1(a, size), build_m2(a, size), k


def family_representation(fam: OPUCFamily, size: int):
    """``_representation`` at the family's parameters.  M1 and M2 are
    ``cmv.family_operators``, built once per family and size, so the
    matrix relations, the central extension and, at size N + 1, the CMV
    row checks read one build; the diagonal K is formed per call."""
    m1, m2 = family_operators(fam, size)
    return m1, m2, BandedOperator.diagonal([lambda_n(fam.params, n) for n in range(size)])


def _rows_match(rep, label: str, terms: list[tuple[Fraction, BandedOperator]]) -> None:
    """The matrix identity sum c * A = 0, given as its signed terms: every
    valid row of the residual must be absent; later rows are skipped."""
    res = BandedOperator.lincomb(terms)
    n = res.valid_rows
    bad = [i for i in res.rows if i < n]
    rep.add(
        label,
        not bad,
        f"rows {bad[:4]} differ" if bad else f"{n} rows agree",
    )
    if n < res.size:
        rep.skip(f"{label}: rows {n}..{res.size - 1} (truncation boundary)")


def verify_relations_matrix(fam: OPUCFamily, size: int) -> VerificationReport:
    """Both defining relations and both involutions as exact identities
    between truncated matrices at the family's parameters, on every row
    unaffected by truncation."""
    if size < 3:
        raise ValueError("need size >= 3")
    p = fam.params
    m1, m2, k = family_representation(fam, size)
    eye = BandedOperator.identity(size)
    rep = VerificationReport(
        identity="algebra-matrix",
        relation="{K, M1} = (a+b+1)(M1 - I); {K, M2} = (a+b+2) M2 + (a-b) I",
        params={"alpha": p.alpha, "beta": p.beta, "size": size},
    )
    _rows_match(rep, "M1^2 = I", [(1, m1 @ m1), (-1, eye)])
    _rows_match(rep, "M2^2 = I", [(1, m2 @ m2), (-1, eye)])
    _rows_match(rep, "M1 relation", [(1, k @ m1), (1, m1 @ k), (-p.s, m1), (p.s, eye)])
    _rows_match(
        rep, "M2 relation", [(1, k @ m2), (1, m2 @ k), (-(p.s + 1), m2), (-p.d, eye)]
    )
    return rep


# --------------------------------------------------------------------------
# Functional realization: M1 = R, M2 = z R, K of Dunkl type
# --------------------------------------------------------------------------


def op_m1(f: LaurentPoly) -> LaurentPoly:
    return f.reflect()


def op_m2(f: LaurentPoly) -> LaurentPoly:
    return f.reflect().shift(1)


def _y_terms(kf: LaurentPoly, p: JacobiParams) -> list[tuple[Fraction, LaurentPoly]]:
    """Y f = K(K f) - (alpha+beta+1) K f as terms of ``LaurentPoly.lincomb``,
    from K f."""
    return [(1, apply_k(kf, p)), (-p.s, kf)]


def _y_psi_terms(fam: OPUCFamily, n: int, shift: Fraction | int = 0) -> list:
    """Y psi_n - shift psi_n as terms of ``LaurentPoly.lincomb``, out of
    r_n = ``k_residual(fam, n)``.  K is linear and K psi_n = lambda_n
    psi_n + r_n, so

        Y psi_n = (lambda_n^2 - s lambda_n) psi_n + (lambda_n - s) r_n + K r_n

    with s = alpha + beta + 1, for every psi_n; on an eigenfunction r_n
    is zero and K r_n costs nothing."""
    p = fam.params
    lam, r = lambda_n(p, n), k_residual(fam, n)
    return [(lam * lam - p.s * lam - shift, fam.psi[n]), (lam - p.s, r), (1, apply_k(r, p))]


def build_xy(p: JacobiParams) -> tuple[Operator, Operator]:
    """X = M2 M1 + M1 M2 and Y = K^2 - (alpha+beta+1) K as maps on
    Laurent polynomials."""

    def x_op(f: LaurentPoly) -> LaurentPoly:
        return LaurentPoly.lincomb([(1, op_m2(op_m1(f))), (1, op_m1(op_m2(f)))])

    def y_op(f: LaurentPoly) -> LaurentPoly:
        return LaurentPoly.lincomb(_y_terms(apply_k(f, p), p))

    return x_op, y_op


def _xy_matrix(p: JacobiParams, m1, m2, k) -> tuple[BandedOperator, BandedOperator]:
    lc = BandedOperator.lincomb
    return lc([(1, m2 @ m1), (1, m1 @ m2)]), lc([(1, k @ k), (-p.s, k)])


def build_xy_matrix(p: JacobiParams, size: int) -> tuple[BandedOperator, BandedOperator]:
    """The same pair in the block-matrix representation."""
    return _xy_matrix(p, *_representation(p, size))


def verify_relations_functional(p: JacobiParams, d: int) -> VerificationReport:
    """Defining relations and involutions applied to the monomials z^k,
    |k| <= d, in the functional realization."""
    rep = VerificationReport(
        identity="algebra-functional",
        relation="relations on M1 = R, M2 = zR, K of Dunkl type",
        params={"alpha": p.alpha, "beta": p.beta, "monomial_range": d},
    )
    # K z^k, K z^-k and K z^(1-k) meet every monomial's K image again, so
    # each distinct image is computed once per call
    k_op = cache(lambda f: apply_k(f, p))
    lc = LaurentPoly.lincomb
    for k in range(-d, d + 1):
        f = LaurentPoly.monomial(k)
        m1f, m2f, kf = op_m1(f), op_m2(f), k_op(f)
        checks = {
            "M1^2": lc([(1, op_m1(m1f)), (-1, f)]),
            "M2^2": lc([(1, op_m2(m2f)), (-1, f)]),
            "M1 rel": lc([(1, k_op(m1f)), (1, op_m1(kf)), (-p.s, m1f), (p.s, f)]),
            "M2 rel": lc([(1, k_op(m2f)), (1, op_m2(kf)), (-(p.s + 1), m2f), (-p.d, f)]),
        }
        for name, res in checks.items():
            rep.residual(f"{name} k={k}", res)
    return rep


def verify_central_extension(
    fam: OPUCFamily, d: int = 10, matrix_size: int = 21
) -> VerificationReport:
    """The closure of X and Y into the extended quadratic algebra:

        [X, M1] = [Y, M1] = 0
        [X, [X, Y]] = 2 X^2 - 8 I
        [Y, [Y, X]] = 2 {X, Y} + (a+b)(a+b+2) X + 2(b-a) M1 + 2(a-b)(a+b+1) I

    checked both functionally on monomials z^k, |k| <= d, and as banded
    matrix identities at the given truncation size, with the two
    realizations tied together on the Laurent eigenfunctions: row n of X
    and Y applied to psi must equal X psi_n = (z + 1/z) psi_n and
    Y psi_n = (lambda_n^2 - s lambda_n) psi_n + (lambda_n - s) r_n + K r_n,
    the latter formed from r_n = K psi_n - lambda_n psi_n
    (``_y_psi_terms``).
    """
    if fam.params is None:
        raise ValueError("family carries no (alpha, beta) parameters")
    p = fam.params
    rep = VerificationReport(
        identity="central-extension",
        relation="X, Y close into an extended quadratic algebra over M1",
        params={"alpha": p.alpha, "beta": p.beta, "monomial_range": d,
                "matrix_size": matrix_size},
    )
    x_op, y_op = build_xy(p)
    # a LaurentPoly has one normal form and a tuple hash, so each distinct
    # Y image is computed once per call and read back by every check
    y_op = cache(y_op)
    c_x = (p.alpha + p.beta) * (p.alpha + p.beta + 2)
    c_m1 = 2 * (p.beta - p.alpha)
    c_i = 2 * p.d * p.s
    lc = LaurentPoly.lincomb

    def jr2_terms(f: LaurentPoly) -> list:
        """[Y, [Y, X]] f - 2 {X, Y} f - c_x X f, with [Y, [Y, X]] expanded
        to YYX - 2 YXY + XYY; what JR2 leaves when alpha = beta."""
        xf, yf = x_op(f), y_op(f)
        xyf, yxf = x_op(yf), y_op(xf)
        return [(1, y_op(yxf)), (-2, y_op(xyf)), (1, x_op(y_op(yf))),
                (-2, xyf), (-2, yxf), (-c_x, xf)]

    for k in range(-d, d + 1):
        f = LaurentPoly.monomial(k)
        m1f, xf, yf = op_m1(f), x_op(f), y_op(f)
        xxf = x_op(xf)
        checks = {
            "[X,M1]": lc([(1, x_op(m1f)), (-1, op_m1(xf))]),
            "[Y,M1]": lc([(1, y_op(m1f)), (-1, op_m1(yf))]),
            # [X, [X, Y]] = XXY - 2 XYX + YXX
            "JR1": lc([(1, x_op(x_op(yf))), (-2, x_op(y_op(xf))), (1, y_op(xxf)),
                       (-2, xxf), (8, f)]),
            "JR2": lc([*jr2_terms(f), (-c_m1, m1f), (-c_i, f)]),
        }
        for name, res in checks.items():
            rep.residual(f"{name} k={k}", res)
    if p.alpha == p.beta:
        res = lc(jr2_terms(LaurentPoly.monomial(1)))
        rep.residual("extension term drops at alpha=beta", res)

    # matrix side
    m1, m2, k = family_representation(fam, matrix_size)
    x, y = _xy_matrix(p, m1, m2, k)
    eye = BandedOperator.identity(matrix_size)
    # XY and YX once: [X,Y] is their difference, and {X,Y} enters JR2 as
    # the two terms; [Y,[Y,X]] = -Y[X,Y] + [X,Y]Y
    xy, yx = x @ y, y @ x
    xy_comm = BandedOperator.lincomb([(1, xy), (-1, yx)])
    _rows_match(rep, "[X,M1] matrix", [(1, x @ m1), (-1, m1 @ x)])
    _rows_match(rep, "[Y,M1] matrix", [(1, y @ m1), (-1, m1 @ y)])
    _rows_match(
        rep, "JR1 matrix",
        [(1, x @ xy_comm), (-1, xy_comm @ x), (-2, x @ x), (8, eye)],
    )
    _rows_match(
        rep, "JR2 matrix",
        [(-1, y @ xy_comm), (1, xy_comm @ y), (-2, xy), (-2, yx),
         (-c_x, x), (-c_m1, m1), (-c_i, eye)],
    )

    # the matrix rows reproduce the functional action on the psi basis;
    # a row may reach bandwidth columns past its index
    top = min(fam.size + 1 - x.bandwidth, x.valid_rows, y.valid_rows)
    bad = [
        n
        for n in range(top)
        if x.apply_row(n, fam.psi) != x_op(fam.psi[n])
        or y.apply_row(n, fam.psi) != lc(_y_psi_terms(fam, n))
    ]
    rep.add(
        "matrix rows match functional action on psi",
        not bad,
        f"rows {bad[:4]}" if bad else f"{top} rows agree",
    )
    return rep


# --------------------------------------------------------------------------
# The Y eigenproblem
# --------------------------------------------------------------------------


def big_lambda(p: JacobiParams, n: int) -> Fraction:
    """Y-eigenvalue of psi_n: pairs to m(alpha+beta+m+1), m = ceil(n/2)."""
    m = (n + 1) // 2
    return m * (p.alpha + p.beta + m + 1)


def _y_pair_residual(fam: OPUCFamily, n: int, sign: int, f_terms: list,
                     y_psi: list[LaurentPoly], e: dict[int, LaurentPoly]) -> LaurentPoly:
    """(Y - Lambda_2n) f for f = P_n (sign 1) or F_n (sign -1), given as
    terms of ``LaurentPoly.lincomb``, out of the "Y psi" residuals y_psi
    and the psi(P,Q) residuals E_k = e[k] (``szego.psi_pq_residuals``).

    With c = 1 + sign a_{2n-1} (c = 0 at n = 0, where a_{-1} = -1),
    f = sign psi_2n + c psi_{2n-1} + g with g = -sign E_2n - c E_{2n-1},
    the "P from psi" or "Q from psi" residual.  Lambda_2n = Lambda_{2n-1}
    and Y is linear, so

        (Y - Lambda_2n) f = sign y_psi[2n] + c y_psi[2n-1] + (Y - Lambda_2n) g,

    for any psi, P and Q; on a clean family g is zero and K never meets
    f.  At odd N the top n has no psi_2n, and g = f - c psi_{2n-1}."""
    p = fam.params
    terms, g_terms = [], []
    if 2 * n <= fam.size:
        terms.append((sign, y_psi[2 * n]))
        g_terms.append((-sign, e[2 * n]))
    else:
        g_terms.extend(f_terms)
    if n:
        c = 1 + sign * fam.a[2 * n - 1]
        terms.append((c, y_psi[2 * n - 1]))
        g_terms.append((-c, e[2 * n - 1] if 2 * n <= fam.size else fam.psi[2 * n - 1]))
    g = LaurentPoly.lincomb(g_terms)
    return LaurentPoly.lincomb(
        [*terms, *_y_terms(apply_k(g, p), p), (-big_lambda(p, 2 * n), g)])


def y_eigencheck(fam: OPUCFamily) -> VerificationReport:
    """Y psi_n = Lambda_n psi_n with the paired eigenvalues, and the
    symmetric/antisymmetric eigenfunctions P_n, F_n = (z - 1/z) Q_{n-1}
    distinguished only by the reflection sign, for every index the family
    holds.

    "Y psi n" follows from the bispectral residual r_n = K psi_n -
    lambda_n psi_n (``dunkl.k_residual``) by linearity of K:

        Y psi_n - Lambda_n psi_n = (lambda_n^2 - s lambda_n - Lambda_n) psi_n
                                   + (lambda_n - s) r_n + K r_n,

    s = alpha + beta + 1, the same Laurent polynomial as the direct
    K(K psi_n) - s K psi_n - Lambda_n psi_n for any psi_n.  "Y P n" and
    "Y F n" follow in turn from the "Y psi" residuals at 2n and 2n - 1
    and the psi(P,Q) residuals (``_y_pair_residual``).  P_n and Q_{n-1}
    are plain Laurent polynomials, so "R P n" and "R F n" certify their
    parity.  "R F n" reads Q_{n-1} = Q_{n-1}(1/z), the same verdict as
    F_n(1/z) = -F_n, since z - 1/z reflects to its negative and is no
    zero divisor."""
    if fam.params is None:
        raise ValueError("family carries no (alpha, beta) parameters")
    p = fam.params
    rep = VerificationReport(
        identity="y-eigen",
        relation="Y psi_n = Lambda_n psi_n; Y P_n = Lambda_{2n} P_n; Y F_n = Lambda_{2n} F_n",
        params={"alpha": p.alpha, "beta": p.beta, "n_max": fam.size},
    )
    lc = LaurentPoly.lincomb
    for n in range(fam.size + 1):
        lam = lambda_n(p, n)
        ok = lam * lam - p.s * lam == big_lambda(p, n)
        rep.add(f"Lambda coherence n={n}", ok)
    # Y f - Lambda f, one normalization each; Y psi_n is formed from r_n
    y_psi = [lc(_y_psi_terms(fam, n, big_lambda(p, n))) for n in range(fam.size + 1)]
    for n, res in enumerate(y_psi):
        rep.residual(f"Y psi n={n}", res)
    e = psi_pq_residuals(fam)
    for n in range(p_top(fam.size) + 1):
        pn = build_p(fam, n)
        rep.residual(f"Y P n={n}", _y_pair_residual(fam, n, 1, [(1, pn)], y_psi, e))
        rep.add(f"R P n={n}", pn.reflect() == pn)
    for n in range(1, q_top(fam.size) + 2):
        q = build_q(fam, n - 1)
        fn = [(1, q.shift(1)), (-1, q.shift(-1))]  # (z - 1/z) Q_{n-1}
        rep.residual(f"Y F n={n}", _y_pair_residual(fam, n, -1, fn, y_psi, e))
        rep.add(f"R F n={n}", q.reflect() == q)
    return rep
