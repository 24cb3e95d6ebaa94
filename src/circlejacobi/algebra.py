"""The circle Jacobi algebra and its representations.

The algebra has three generators: two involutions M1, M2 and one more
generator K, subject to the canonical anticommutation relations

    {K, M1} = (alpha + beta + 1)(M1 - I),
    {K, M2} = (alpha + beta + 2) M2 + (alpha - beta) I,

whose constants have one home, ``relation_constants``: the derivation,
the matrix relations and the functional relation residuals all read it.
Representing M1, M2 by the block reflection matrices of a CMV system
and K by a diagonal, the relations alone force the eigenvalues lambda_n
and the Verblunsky coefficients a_n; derive_representation performs
that construction from the matrix entries.  The module also checks the
functional realization (M1 = R, M2 = z R, K the Dunkl-type operator)
and the pair X = M1 M2 + M2 M1, Y = K^2 - (alpha+beta+1) K, which
closes into a centrally extended quadratic algebra with M1 as the
extension element.  That closure lies in the two-sided ideal of the
defining relations, so on monomials it is the zero polynomial whenever
the relation residuals vanish and K keeps each level, and only
otherwise is it formed, from its definition; as truncated matrices it
is formed from the held relation residuals M1^2 - I, M2^2 - I and the
two anticommutator residuals, forming no X or Y (``verify_central_extension``).
"""

from __future__ import annotations

from .cmv import BandedOperator, family_operators, reflection_residual
from .dunkl import apply_k, k_residual, lambda_n
from .errors import Degenerate
from .laurent import _ZERO, _ZERO_POLY, LaurentPoly, Rational, _pair, _rational, _signed
from .opuc import (JacobiParams, OPUCFamily, family_params, per_family, require_params,
                   verblunsky)
from .report import VerificationReport
from .szego import _x_terms, build_p, build_q, p_top, psi_pq_residuals, q_top


# --------------------------------------------------------------------------
# Representation on the block matrices: deriving lambda_n and a_n
# --------------------------------------------------------------------------


def relation_constants(alpha, beta) -> tuple[tuple[Rational, Rational], ...]:
    """(c, e) of {K, M1} and of {K, M2}, each relation written as
    {K, M} = c M + e I: (s, -s) and (s + 1, alpha - beta), with
    s = alpha + beta + 1.  The one home of the defining relations'
    constants; it takes raw (alpha, beta), because
    ``derive_representation`` accepts points ``JacobiParams`` rejects.
    Formed on the parts alpha = A/Q, beta = B/Q, with two reductions."""
    a, b, q = _pair(Rational(alpha), Rational(beta))
    s = _signed(a + b + q, q)
    sn, sd = s._numerator, s._denominator
    return (s, _rational(-sn, sd)), (_rational(sn + sd, sd), _signed(a - b, q))


def derive_representation(alpha, beta, n_max: int):
    """Force (lambda_n, a_n), n <= n_max, out of the canonical relations.

    K is taken diagonal and M1, M2 the block reflection matrices.  The
    leading 1x1 block of M1 reads 2 lambda_0 = (alpha+beta+1)(1 - 1), so
    lambda_0 = 0 for every (alpha, beta).  The off-diagonal block entries
    (which equal 1 independently of the a_n) then chain the eigenvalues
    together, and each block diagonal determines its a_n.  The block's
    second diagonal equation (row n+1) holds by construction: with
    lambda_{n+1} = c - lambda_n it reads -2 (c - lambda_n) a_n = -c a_n + e,
    which is the row n equation 2 lambda_n a_n = c a_n + e that a_n was
    just solved from.  So every (alpha, beta) with nonvanishing pivots has
    exactly one such representation.

    Returns (lam, a), two tuples of Fractions of length n_max + 1.
    """
    m1_rel, m2_rel = relation_constants(alpha, beta)
    lam: list[Rational] = [_ZERO]
    a: list[Rational] = []
    for n in range(n_max + 1):
        # rows (n, n+1) hold the block of M2 (n even) or M1 (n odd), with
        # diagonal (a_n, -a_n) and off-diagonal 1; its relation
        # {K, M} = c M + e I reads
        #   lambda_n + lambda_{n+1} = c        (off-diagonal)
        #   2 lambda_n a_n = c a_n + e         (row n)
        #  -2 lambda_{n+1} a_n = -c a_n + e    (row n+1, the row n equation)
        c, e = m1_rel if n % 2 else m2_rel
        lam.append(c - lam[n])
        den = 2 * lam[n] - c
        if den == 0:
            raise Degenerate(f"a_{n} undetermined: vanishing diagonal pivot")
        a.append(e / den)
    return tuple(lam[: n_max + 1]), tuple(a)


def verify_representation_derivation(p: JacobiParams, n_max: int) -> VerificationReport:
    """The derived (lambda_n, a_n) coincide with the closed forms."""
    rep = VerificationReport(
        identity="representation-derivation",
        relation="block-matrix representation forces lambda_n and a_n",
        params={"alpha": p.alpha, "beta": p.beta, "n_max": n_max},
    )
    lam, a = derive_representation(p.alpha, p.beta, n_max)
    for sym, derived, closed in (("lambda", lam, lambda_n), ("a", a, verblunsky)):
        for n in range(n_max + 1):
            want = closed(p, n)
            ok = derived[n] == want
            rep.add(f"{sym} n={n}", ok, "" if ok else f"derived {derived[n]} != {want}")
    return rep


# --------------------------------------------------------------------------
# Matrix form of the defining relations
# --------------------------------------------------------------------------


def family_representation(fam: OPUCFamily, size: int):
    """(M1, M2, K) truncated to size x size at the family's parameters:
    the block reflection matrices and the diagonal K = diag(lambda_n).
    M1 and M2 are ``cmv.family_operators``, built once per family and
    size, so the matrix relations, the central extension and, at size
    N + 1, the CMV row checks read one build; K is formed per call."""
    m1, m2 = family_operators(fam, size)
    return m1, m2, BandedOperator.diagonal([lambda_n(fam.params, n) for n in range(size)])


def _rows_match(rep, label: str, res: BandedOperator) -> None:
    """The matrix identity whose residual is res: every valid row of res
    must be absent; later rows are skipped."""
    n = res.valid_rows
    bad = [i for i in res.rows if i < n]
    rep.add(
        label,
        not bad,
        f"rows {bad[:4]} differ" if bad else f"{n} rows agree",
    )
    if n < res.size:
        rep.skip(f"{label}: rows {n}..{res.size - 1} (truncation boundary)")


@per_family("matrix relations")
def matrix_relation_residuals(fam: OPUCFamily, size: int) -> tuple[BandedOperator, ...]:
    """(r1, r2, r3, r4) = (M1^2 - I, M2^2 - I, K M1 + M1 K - c M1 - e I,
    K M2 + M2 K - c M2 - e I) on the truncated representation, with (c, e)
    of M1 and of M2 from ``relation_constants``, built once per family and
    size: the matrix relation checks, and what the central extension's
    matrix side is formed from.  Each carries the valid rows of its
    defining ``lincomb``."""
    p = require_params(fam)
    m1, m2, k = family_representation(fam, size)
    eye = BandedOperator.identity(size)
    lcb = BandedOperator.lincomb
    return (
        lcb([(1, m1 @ m1), (-1, eye)]),
        lcb([(1, m2 @ m2), (-1, eye)]),
        *(lcb([(1, k @ m), (1, m @ k), (-c, m), (-e, eye)])
          for m, (c, e) in zip((m1, m2), relation_constants(p.alpha, p.beta))),
    )


def verify_relations_matrix(fam: OPUCFamily, size: int) -> VerificationReport:
    """Both involutions and both defining relations as exact identities
    between truncated matrices at the family's parameters, on every row
    unaffected by truncation: the family's held residuals r1 .. r4
    (``matrix_relation_residuals``), each checked on its valid rows."""
    if size < 3:
        raise ValueError("need size >= 3")
    rep = VerificationReport(
        identity="algebra-matrix",
        relation="{K, M1} = (a+b+1)(M1 - I); {K, M2} = (a+b+2) M2 + (a-b) I",
        params=family_params(fam, size=size),
    )
    for label, res in zip(("M1^2 = I", "M2^2 = I", "M1 relation", "M2 relation"),
                          matrix_relation_residuals(fam, size)):
        _rows_match(rep, label, res)
    return rep


# --------------------------------------------------------------------------
# Functional realization: M1 = R, M2 = z R, K of Dunkl type
# --------------------------------------------------------------------------


def op_m1(f: LaurentPoly) -> LaurentPoly:
    return f.reflect()


def op_m2(f: LaurentPoly) -> LaurentPoly:
    return f.reflect().shift(1)


@per_family("Y psi")
def y_psi_residual(fam: OPUCFamily, n: int) -> LaurentPoly:
    """Y psi_n - Lambda_n psi_n, the "Y psi n" residual, built once per
    family out of r_n = ``k_residual(fam, n)``: the Y eigencheck reports
    it, and the central extension's tie-in reads it.  K is linear and
    K psi_n = lambda_n psi_n + r_n, so

        Y psi_n = (lambda_n^2 - s lambda_n) psi_n + (lambda_n - s) r_n + K r_n

    with s = alpha + beta + 1, for every psi_n; on an eigenfunction r_n
    is zero and K r_n costs nothing.  lambda_n^2 - s lambda_n = Lambda_n
    at every (alpha, beta) ("Lambda coherence"), so psi_n's coefficient is 0."""
    p = fam.params
    lam, r = lambda_n(p, n), k_residual(fam, n)
    return LaurentPoly.lincomb([(lam * lam - p.s * lam - big_lambda(p, n), fam.psi[n]),
                                (lam - p.s, r), (1, apply_k(r, p))])


@per_family("K z")
def k_monomial(fam: OPUCFamily, j: int) -> LaurentPoly:
    """K z^j at the family's parameters, built once per family: the
    relation residuals read it, and the central extension's guard reads
    whether it keeps V_|j|."""
    return apply_k(LaurentPoly.monomial(j), fam.params)


@per_family("relations")
def relation_residuals(fam: OPUCFamily, j: int) -> tuple[LaurentPoly, LaurentPoly]:
    """(r3 z^j, r4 z^j): the defining relations' residuals on z^j,

        r = K M + M K - c M - e I,

    with (c, e) of M1 and of M2 from ``relation_constants``, built once
    per family out of the held K z^j and K z^m, z^m = M z^j (z^-j for
    M1, z^(1-j) for M2): the "M1 rel" and "M2 rel" checks, and what the
    central extension reads."""
    p, lc = fam.params, LaurentPoly.lincomb
    f, kf = LaurentPoly.monomial(j), k_monomial(fam, j)
    residuals = []
    for op, (c, e) in zip((op_m1, op_m2), relation_constants(p.alpha, p.beta)):
        mf = op(f)  # the monomial z^m
        residuals.append(lc([(1, k_monomial(fam, mf.max_exp)), (1, op(kf)), (-c, mf), (-e, f)]))
    return tuple(residuals)


def verify_relations_functional(fam: OPUCFamily, d: int) -> VerificationReport:
    """Defining relations and involutions applied to the monomials z^k,
    |k| <= d, in the functional realization at the family's parameters;
    the relation checks report the family's ``relation_residuals``."""
    p = require_params(fam)
    rep = VerificationReport(
        identity="algebra-functional",
        relation="relations on M1 = R, M2 = zR, K of Dunkl type",
        params=family_params(fam, monomial_range=d),
    )
    lc = LaurentPoly.lincomb
    for k in range(-d, d + 1):
        f = LaurentPoly.monomial(k)
        involutions = [lc([(1, op(op(f))), (-1, f)]) for op in (op_m1, op_m2)]
        for name, res in zip(("M1^2", "M2^2", "M1 rel", "M2 rel"),
                             (*involutions, *relation_residuals(fam, k))):
            rep.residual(f"{name} k={k}", res)
    return rep


def _central_residuals(p: JacobiParams, s: Rational, jr2: tuple,
                       f: LaurentPoly) -> tuple[LaurentPoly, ...]:
    """([Y, M1] f, JR1 f, JR2 f) formed from their definitions, with
    K = ``apply_k``, Y = K^2 - s K, X the product by z + 1/z and JR2's
    constants jr2 = (c_x, c_m1, c_i) (``verify_central_extension``)."""
    lc = LaurentPoly.lincomb

    def x_op(g):
        return lc(_x_terms(g))

    def y_op(g):
        kg = apply_k(g, p)
        return lc([(1, apply_k(kg, p)), (-s, kg)])

    c_x, c_m1, c_i = jr2
    xf, yf = x_op(f), y_op(f)
    xxf, xyf, yxf = x_op(xf), x_op(yf), y_op(xf)
    return (lc([(1, y_op(op_m1(f))), (-1, op_m1(yf))]),
            # [X, [X, Y]] = XXY - 2 XYX + YXX
            lc([(1, x_op(xyf)), (-2, x_op(yxf)), (1, y_op(xxf)), (-2, xxf), (8, f)]),
            # [Y, [Y, X]] = YYX - 2 YXY + XYY, {X, Y} = XY + YX
            lc([(1, y_op(yxf)), (-2, y_op(xyf)), (1, x_op(y_op(yf))), (-2, xyf), (-2, yxf),
                (-c_x, xf), (-c_m1, op_m1(f)), (-c_i, f)]))


def _central_matrix_derived(a: BandedOperator, b: BandedOperator, k: BandedOperator,
                            r: tuple, s: Rational, d: Rational) -> list[BandedOperator]:
    """[X,M1], [Y,M1], JR1 and JR2 as truncated matrices, out of the held
    residuals r = (r1, r2, r3, r4) (``matrix_relation_residuals``) by the
    free-algebra expansions of ``verify_central_extension``, with A = M1
    and B = M2.  No X, C or Y is formed: X eps1 = A (B eps1) + B (A eps1),
    eps1 Y = (eps1 K) K - s eps1 K and the like are the same finite
    matrices, with the same valid rows.  On a clean family r3 and r4 are
    zero, r1 and r2 hold at most the cut block's row, and products with
    no stored row on one side form nothing."""
    lcb = BandedOperator.lincomb
    r1, r2, r3, r4 = r
    ar4, r4a, br3, r3b = a @ r4, r4 @ a, b @ r3, r3 @ b
    eps1 = lcb([(1, ar4), (-1, r4a), (1, br3), (-1, r3b)])
    eps2 = lcb([(1, ar4), (1, r4a), (-1, br3), (-1, r3b)])
    ar2a, br1b = a @ r2 @ a, b @ r1 @ b
    # AB eps1, BA eps1, eps1 AB, eps1 BA: sums for X, differences for C
    abe, bae, eab, eba = a @ (b @ eps1), b @ (a @ eps1), eps1 @ a @ b, eps1 @ b @ a
    ke, ek = k @ eps1, eps1 @ k
    h = lcb([(-2, r1), (2, r2), (-2, ar2a), (2, br1b), (1, abe), (1, bae), (-1, eab),
             (-1, eba)])
    sigma = lcb([(2 * d, r3), (2 * s, r4), (1, k @ eps2), (1, eps2 @ k), (-s, eps2),
                 (-1, k @ ke), (s, ke), (1, ek @ k), (-s, ek)])
    return [
        lcb([(1, b @ r1), (-1, r1 @ b)]),
        lcb([(1, k @ r3), (-1, r3 @ k)]),
        lcb([(-4, r1), (-4, r2), (-4, ar2a), (-4, br1b), (2, abe), (-2, bae), (2, eab),
             (-2, eba), (2, eps1 @ eps1), (1, h @ k), (1, k @ h), (-s, h)]),
        lcb([(-1, eps2), (1, ke), (-1, ek), (2 * s, r4),
             (1, sigma @ k), (1, k @ sigma), (-s, sigma)]),
    ]


def x_psi_residual(m1: BandedOperator, m2: BandedOperator, a, b, n: int) -> LaurentPoly:
    """Row n of X = M1 M2 + M2 M1 on psi minus x psi_n, for any psi where
    M1 M2 and M2 M1 are valid, out of the reflection residuals A_m = a[m]
    and B_m = b[m] (``cmv.reflection_residual``), as (M1 psi)_n(1/z) =
    psi_n - A_n(1/z) and the like give: -z A_n(1/z) - B_n(1/z)
    - sum_m (M1)_{nm} B_m - sum_m (M2)_{nm} A_m."""
    t1, d1 = m1.row_parts(n, b, -1)
    t2, d2 = m2.row_parts(n, a, -d1)
    own = [(-d1 * d2, a[n].reflect().shift(1)), (-d1 * d2, b[n].reflect())]
    return LaurentPoly.lincomb([*((d2 * c, f) for c, f in t1), *t2, *own], d1 * d2)


def verify_central_extension(fam: OPUCFamily, d: int, matrix_size: int) -> VerificationReport:
    """The closure of X and Y into the extended quadratic algebra:

        [X, M1] = [Y, M1] = 0
        [X, [X, Y]] = 2 X^2 - 8 I                                      (JR1)
        [Y, [Y, X]] = 2 {X, Y} + (a+b)(a+b+2) X + 2(b-a) M1 + 2(a-b)(a+b+1) I  (JR2)

    checked both functionally on monomials z^k, |k| <= d, and as banded
    matrix identities at the given truncation size, with the two
    realizations tied together on the Laurent eigenfunctions: row n of X
    and Y applied to psi must equal X psi_n = (z + 1/z) psi_n and Y psi_n.

    Both realizations read their constants from ``relation_constants``:
    s = a+b+1, the c of {K, M1}, and d = a-b, the e of {K, M2};
    Y = K^2 - s K, and JR2's constants are (s-1)(s+1), -2d and 2ds.  With
    A = M1, B = M2, X = AB + BA, C = AB - BA, the residuals r1 = A^2 - I,
    r2 = B^2 - I, r3 = {K, A} - s A + s I and r4 = {K, B} - (s+1) B - d I,
    eps1 = A r4 - r4 A + B r3 - r3 B and eps2 = A r4 + r4 A - B r3 - r3 B,
    the free algebra on A, B, K gives [X, K] = C + eps1,
    [C, K] = X + 2d A + 2s B + eps2, and

        [X, M1] = B r1 - r1 B,
        [Y, M1] = K r3 - r3 K,
        JR1 = -4 (r1 + r2 + A r2 A + B r1 B) + 2 (C eps1 + eps1 C + eps1^2)
              + H K + K H - s H,
        H = -2 r1 + 2 r2 - 2 A r2 A + 2 B r1 B + [X, eps1],
        JR2 = -eps2 + [K, eps1] + 2s r4 + sigma K + K sigma - s sigma,
        sigma = 2d r3 + 2s r4 + K eps2 + eps2 K - s eps2 - [Y, eps1].

    They read s and d as the table's c of {K, M1} and e of {K, M2}, and
    take r3 and r4 in the table's shape (e = -c for M1, c = s + 1 for
    M2), which ``relation_constants`` has at every (alpha, beta).

    Functional side.  R and zR make r1 and r2 zero, and [X, M1] reads no
    K and is formed directly.  The family holds r3, r4 on each monomial
    (``relation_residuals``, also reported by
    ``verify_relations_functional``), so for every linear K each other
    check vanishes when the residuals its expansion reads do.  Degree
    count: write V_m = span{z^i : |i| <= m}.  A keeps V_m, and B, X and
    C map it into V_(m+1).  If K keeps V_d, the expansions on z^k,
    |k| <= d, read r3 only on V_(d+2) (eps1 X K z^k reads r3 B X K z^k)
    and r4 only on V_(d+1); at alpha = beta the JR2 check on z reads V_2.
    So r3 and r4 are read on the monomials of V_(d+2); when they are all
    zero and every held K z^j lies in V_|j|, every residual the
    expansions read vanishes, and the three checks are the zero
    polynomial without being formed.  Otherwise they are formed from
    their definitions with K = ``apply_k`` (``_central_residuals``).

    Matrix side.  Truncation breaks M1^2 = I or M2^2 = I at a cut block,
    so the expansions keep their r1 and r2 terms.  The four checks are
    formed (``_central_matrix_derived``) from the family's held r1 .. r4
    at this size (``matrix_relation_residuals``, which
    ``verify_relations_matrix`` reports): the same matrices as the
    definitions, row for row.  Each check reads the valid rows its
    residual carries, which ``@`` and ``lincomb`` propagate by
    ``product_valid_rows`` through the expansion as through the
    definition.  The two counts agree at every size: each is the size
    less a constant that depends on its parity alone once the size passes
    the smallest ones, and the tests compare them through size 120.

    The tie-in forms no X or Y: by associativity, row n of X on psi is row
    n of M1 on M2 psi plus row n of M2 on M1 psi, on the rows where M1 M2
    and M2 M1 are valid and reach psi_N at most, which misses x psi_n by
    the reflection residuals of the rows read, one build per row shared
    with the CMV rows (``x_psi_residual``); Y's truncation is
    diag(lambda_n^2 - s lambda_n) = diag(Lambda_n), so its row n on psi
    misses Y psi_n by the held "Y psi n" residual (``y_psi_residual``).
    """
    p = require_params(fam)
    rep = VerificationReport(
        identity="central-extension",
        relation="X, Y close into an extended quadratic algebra over M1",
        params=family_params(fam, monomial_range=d, matrix_size=matrix_size),
    )
    # s = a+b+1 and delta = a-b, the d of the expansions (d here is the
    # monomial range), read by both realizations; JR2's constants
    # (a+b)(a+b+2), 2(b-a) and 2(a-b)(a+b+1), read by the functional
    # definitions
    (s, _), (_, delta) = relation_constants(p.alpha, p.beta)
    jr2 = ((s - 1) * (s + 1), -2 * delta, 2 * delta * s)
    lc = LaurentPoly.lincomb

    def holds(j: int) -> bool:
        """r3 z^j = r4 z^j = 0 and K z^j lies in V_|j|."""
        kz = k_monomial(fam, j)
        return not any(relation_residuals(fam, j)) and (
            not kz or max(kz.max_exp, -kz.min_exp) <= abs(j))

    clean = all(holds(j) for j in range(-d - 2, d + 3))

    def derived(f):
        return (_ZERO_POLY,) * 3 if clean else _central_residuals(p, s, jr2, f)

    for k in range(-d, d + 1):
        f = LaurentPoly.monomial(k)
        x_m1 = lc([*_x_terms(op_m1(f)), (-1, op_m1(lc(_x_terms(f))))])
        for name, res in zip(("[X,M1]", "[Y,M1]", "JR1", "JR2"), (x_m1, *derived(f))):
            rep.residual(f"{name} k={k}", res)
    if p.alpha == p.beta:
        # c_m1 and c_i vanish, so JR2 on z is what the extension term leaves
        rep.residual("extension term drops at alpha=beta", derived(LaurentPoly.monomial(1))[2])

    # matrix side
    m1, m2, k = family_representation(fam, matrix_size)
    held = matrix_relation_residuals(fam, matrix_size)
    for label, res in zip(("[X,M1] matrix", "[Y,M1] matrix", "JR1 matrix", "JR2 matrix"),
                          _central_matrix_derived(m1, m2, k, held, s, delta)):
        _rows_match(rep, label, res)

    # the matrix rows reproduce the functional action on the psi basis
    top = min(fam.size - 1, m1.product_valid_rows(m2), m2.product_valid_rows(m1))
    a, b = ([reflection_residual(fam, k, j, op=op) for j in range(top + 1)]
            for k, op in ((1, m1), (2, m2)))
    bad = [n for n in range(top) if x_psi_residual(m1, m2, a, b, n) or y_psi_residual(fam, n)]
    rep.add(
        "matrix rows match functional action on psi",
        not bad,
        f"rows {bad[:4]}" if bad else f"{top} rows agree",
    )
    return rep


# --------------------------------------------------------------------------
# The Y eigenproblem
# --------------------------------------------------------------------------


def big_lambda(p: JacobiParams, n: int) -> Rational:
    """Y-eigenvalue of psi_n: pairs to m(alpha+beta+m+1), m = ceil(n/2),
    formed as m (S + m Q)/Q on the parts s = S/Q and reduced once."""
    m = (n + 1) // 2
    return _signed(m * (p.s._numerator + m * p.s._denominator), p.s._denominator)


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
    kg = apply_k(g, p)  # Y g = K(K g) - s K g
    return LaurentPoly.lincomb(
        [*terms, (1, apply_k(kg, p)), (-p.s, kg), (-big_lambda(p, 2 * n), g)])


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
    p = require_params(fam)
    rep = VerificationReport(
        identity="y-eigen",
        relation="Y psi_n = Lambda_n psi_n; Y P_n = Lambda_{2n} P_n; Y F_n = Lambda_{2n} F_n",
        params=family_params(fam, n_max=fam.size),
    )
    lc = LaurentPoly.lincomb
    for n in range(fam.size + 1):
        lam = lambda_n(p, n)
        ok = lam * lam - p.s * lam == big_lambda(p, n)
        rep.add(f"Lambda coherence n={n}", ok)
    # Y f - Lambda f, one normalization each; Y psi_n is formed from r_n
    y_psi = [y_psi_residual(fam, n) for n in range(fam.size + 1)]
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
