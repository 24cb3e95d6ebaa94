"""The map to orthogonal polynomials on [-2, 2] and its exact closure.

From the odd-index circle polynomials the symmetrization
P_n = z^(1-n) phi_{2n-1}(z) + z^(n-1) phi_{2n-1}(1/z) and the exact
quotient Q_n = (z^-n phi_{2n+1}(z) - z^n phi_{2n+1}(1/z)) / (z - 1/z)
produce two monic chains in x(z) = z + 1/z.  This module builds both,
once per family, derives their three-term recurrence coefficients from
the Verblunsky data, checks the Christoffel/Geronimus transforms
connecting them, and matches them against the classical Jacobi
recurrence, whose coefficients (``jacobi_b``, ``jacobi_u``) read only
(alpha, beta).

Five families of residuals and coefficients are built once per family
(``opuc.per_family``): each chain with the closed-form coefficients of
its recurrence (``recurrence``), their three-term residuals T_n
and T~_n (``three_term_residuals``), the residuals E_k of psi_k out of
(P, Q) (``psi_pq_residuals``), the christoffel' residuals C'_n
(``christoffel_prime_residuals``) and the raising residuals H_n
(``raising_residuals``).  The identities that follow from them by ring
algebra are formed out of them, the same Laurent polynomial as the
direct formula for any input: the recurrence closure's span test
(-T_n + (b^_n - b_n) p_n + (u^_n - u_n) p_{n-1}, with the fitted and the
closed-form coefficients), the even rows E_2n out of E_{2n-1} and the M1
reflection residual A_{2n-1} (``cmv.m1_upper_row``), the
Christoffel row, P and Q from psi, the psi(P,P) rows (E_k plus a
multiple of C'_n / (z - 1/z)), the classical match (P_n - O_n from T_n
and the two coefficient sets), H_n from T_n, T~_{n-1} and C'_n, and the
ODE from the direct theta-PQ residual and H_n; so are Y P_n and Y F_n
in ``algebra.y_eigencheck``.  On a clean family these residuals are
zero and the combinations cost next to nothing.  The classical match
and the ODE still fail under a corrupted a_k: the oracle's
(beta_n, upsilon_n), and mu_n, f3 and f4 of H_n, come from
(alpha, beta), not from the family.

Since P_n reads phi_{2n-1} and Q_n reads phi_{2n+1}, a family of size N
carries P_0..P_{p_top(N)} and Q_0..Q_{q_top(N)}.  Each three-term
recurrence runs to the step that reads its chain's last member, n =
p_top(N) - 1 for P and q_top(N) - 1 for Q; the coefficients those steps
read are all in the family.  Every P/Q size bound, here and in
``algebra`` and ``suites``, is one of these.

Polynomials in x are plain Laurent polynomials in z, and equality in x
is exact equality in z.  Nothing here assumes that P_n and Q_n are
reflection-invariant: ``algebra.y_eigencheck`` checks their parity
("R P n", "R F n").
"""

from __future__ import annotations

from .cmv import m1_upper_row
from .laurent import _ZERO, Z_MINUS_ZINV, LaurentPoly, Rational, _pair, _rational, _signed
from .opuc import BOUNDARY_A, JacobiParams, OPUCFamily, family_params, per_family, require_params
from .report import VerificationReport

_HALF = Rational(1, 2)


# --------------------------------------------------------------------------
# The symmetrized variable x(z) = z + 1/z
# --------------------------------------------------------------------------

# A product by a fixed polynomial in z, as shifted terms of
# LaurentPoly.lincomb, which normalizes the whole residual once.


def _x_terms(f: LaurentPoly, c=1) -> list:
    """c x(z) f = c z f + c f / z."""
    return [(c, f.shift(1)), (c, f.shift(-1))]


def _d_terms(f: LaurentPoly, c=1) -> list:
    """c (z - 1/z) f."""
    return [(c, f.shift(1)), (-c, f.shift(-1))]


def _d2_terms(f: LaurentPoly) -> list:
    """(z - 1/z)^2 f = z^2 f - 2 f + f / z^2."""
    return [(1, f.shift(2)), (-2, f), (1, f.shift(-2))]


# --------------------------------------------------------------------------
# The classical Jacobi recurrence (kept free of any circle-side input)
# --------------------------------------------------------------------------


def jacobi_b(alpha: Rational, beta: Rational, k: int) -> Rational:
    """beta_k of the monic Jacobi recurrence O_{k+1} = (x - beta_k) O_k -
    upsilon_k O_{k-1} at (alpha, beta), rescaled from [-1, 1] to [-2, 2]
    (argument x/2): 2(beta^2 - alpha^2) / ((2k + s)(2k + s + 2)) with
    s = alpha + beta, taken at k = 0 in its cancelled form so s = 0
    stays well-defined.  On alpha = A/Q, beta = B/Q and T = (2k + s) Q it
    is 2(B^2 - A^2) / (T (T + 2Q)), at k = 0 2(B - A) / (T + 2Q)."""
    a, b, q = _pair(alpha, beta)
    t = a + b + 2 * k * q
    if k == 0:
        return _signed(2 * (b - a), t + 2 * q)
    return _signed(2 * (b * b - a * a), t * (t + 2 * q))


def jacobi_u(alpha: Rational, beta: Rational, k: int) -> Rational:
    """upsilon_k (k >= 1) of the same recurrence:
    16 k (k + alpha)(k + beta)(k + s) / ((2k + s)^2 (2k + s + 1)(2k + s - 1)),
    taken at k = 1 in its cancelled form so s = -1 stays well-defined.  On
    alpha = A/Q, beta = B/Q and T = (2k + s) Q it is
    16 k (kQ + A)(kQ + B)(kQ + A + B) Q / (T^2 (T + Q)(T - Q))."""
    a, b, q = _pair(alpha, beta)
    kq = k * q
    t = a + b + 2 * kq
    if k == 1:
        return _signed(16 * (a + q) * (b + q) * q, t * t * (t + q))
    return _signed(16 * k * (kq + a) * (kq + b) * (kq + a + b) * q, t * t * (t + q) * (t - q))


# --------------------------------------------------------------------------
# The two chains built from the circle data
# --------------------------------------------------------------------------


def p_top(size: int) -> int:
    """The last n with P_n in a family of this size."""
    return (size + 1) // 2


def q_top(size: int) -> int:
    """The last n with Q_n in a family of this size."""
    return (size - 1) // 2


@per_family("P")
def build_p(fam: OPUCFamily, n: int) -> LaurentPoly:
    """P_n = z^(1-n) phi_{2n-1}(z) + z^(n-1) phi_{2n-1}(1/z), P_0 = 1,
    built once per family."""
    if n == 0:
        return LaurentPoly.one()
    t = fam.phi[2 * n - 1]
    return LaurentPoly.lincomb([(1, t.shift(1 - n)), (1, t.reflect().shift(n - 1))])


@per_family("Q")
def build_q(fam: OPUCFamily, n: int) -> LaurentPoly:
    """Q_n = (z^-n phi_{2n+1}(z) - z^n phi_{2n+1}(1/z)) / (z - 1/z),
    built once per family.

    The numerator is antisymmetric, hence vanishes at z = +-1, so the
    division is exact.
    """
    t = fam.phi[2 * n + 1]
    num = LaurentPoly.lincomb([(1, t.shift(-n)), (-1, t.reflect().shift(n))])
    return num.div_exact(Z_MINUS_ZINV)


def _need_pair(fam: OPUCFamily) -> None:
    """The three-term, closure and transforms reports need size >= 3."""
    if fam.size < 3:
        raise ValueError("need a family of size >= 3")


def _a(fam: OPUCFamily, k: int) -> Rational:
    """Extended coefficient accessor: a_k = -1 for every k < 0.

    An a_k with k <= -2 only ever multiplies 1 + a_{-1} = 0, so the
    closed forms below hold at n = 0 as written."""
    return fam.a[k] if k >= 0 else BOUNDARY_A


def _ratios(fam: OPUCFamily, *ks: int) -> list[int]:
    """[p_k, q_k, ...] with a_k = p_k/q_k for each k in turn (``_a``): each
    closed form below is one integer quotient on them, reduced once, with
    1 + a_i = (q_i + p_i)/q_i and 1 - a_k^2 = (q_k^2 - p_k^2)/q_k^2."""
    xs = [_a(fam, k) for k in ks]
    return [v for x in xs for v in (x._numerator, x._denominator)]


def u_coeff(fam: OPUCFamily, n: int) -> Rational:
    """u_n = (1 + a_{2n-1})(1 - a_{2n-3})(1 - a_{2n-2}^2) > 0 for n >= 1; u_0 = 0."""
    pi, qi, pj, qj, pk, qk = _ratios(fam, 2 * n - 1, 2 * n - 3, 2 * n - 2)
    return _signed((qi + pi) * (qj - pj) * (qk * qk - pk * pk), qi * qj * qk * qk)


def b_coeff(fam: OPUCFamily, n: int) -> Rational:
    """b_n = a_{2n}(1 - a_{2n-1}) - a_{2n-2}(1 + a_{2n-1}); b_0 = 2 a_0."""
    pi, qi, pj, qj, pk, qk = _ratios(fam, 2 * n, 2 * n - 1, 2 * n - 2)
    return _signed(pi * (qj - pj) * qk - pk * (qj + pj) * qi, qi * qj * qk)


def ut_coeff(fam: OPUCFamily, n: int) -> Rational:
    """u~_n = (1 + a_{2n-1})(1 - a_{2n+1})(1 - a_{2n}^2) > 0 for n >= 1; u~_0 = 0."""
    pi, qi, pj, qj, pk, qk = _ratios(fam, 2 * n - 1, 2 * n + 1, 2 * n)
    return _signed((qi + pi) * (qj - pj) * (qk * qk - pk * pk), qi * qj * qk * qk)


def bt_coeff(fam: OPUCFamily, n: int) -> Rational:
    """b~_n = a_{2n}(1 - a_{2n+1}) - a_{2n+2}(1 + a_{2n+1})."""
    pi, qi, pj, qj, pk, qk = _ratios(fam, 2 * n, 2 * n + 1, 2 * n + 2)
    return _signed(pi * (qj - pj) * qk - pk * (qj + pj) * qi, qi * qj * qk)


@per_family("recurrence")
def recurrence(fam: OPUCFamily, name: str) -> tuple[tuple, tuple, tuple]:
    """(chain, b, u) of the P recurrence (name "P"): P_0..P_m out of the
    ``build_p`` memo, m = p_top(N), and the closed forms b_0..b_{m-1},
    u_0..u_{m-1} of every step that reads the chain's last member; or
    Q_0..Q_m, m = q_top(N), with (b~, u~) ("Q").  Built once per family:
    every recurrence, transform, classical and raising residual reads it."""
    build, b_of, u_of, top = {"P": (build_p, b_coeff, u_coeff, p_top),
                              "Q": (build_q, bt_coeff, ut_coeff, q_top)}[name]
    steps = range(top(fam.size))
    chain = tuple(build(fam, n) for n in range(len(steps) + 1))
    return chain, tuple(b_of(fam, n) for n in steps), tuple(u_of(fam, n) for n in steps)


def _c2(fam: OPUCFamily, n: int) -> Rational:
    """2(1 - a_{2n-3})(1 - a_{2n-2}^2), the P_{n-1} weight of C'_n."""
    pj, qj, pk, qk = _ratios(fam, 2 * n - 3, 2 * n - 2)
    return _signed(2 * (qj - pj) * (qk * qk - pk * pk), qj * qk * qk)


# --------------------------------------------------------------------------
# Verifications
# --------------------------------------------------------------------------


@per_family("three-term")
def three_term_residuals(fam: OPUCFamily, name: str) -> list[LaurentPoly]:
    """T_n = P_{n+1} + b_n P_n + u_n P_{n-1} - x P_n for n = 0 ..
    p_top(N) - 1 (name "P"), or the Q residuals with (b~_n, u~_n) for
    n = 0 .. q_top(N) - 1 (name "Q"), built once per family: the
    three-term check reports them, and the Christoffel transform, the
    closure's span test, the classical match and the raising residuals
    are formed from them."""
    chain, b, u = recurrence(fam, name)
    out = []
    for n in range(len(b)):
        terms = [(1, chain[n + 1]), (b[n], chain[n]), *_x_terms(chain[n], -1)]
        if n >= 1:
            terms.append((u[n], chain[n - 1]))
        out.append(LaurentPoly.lincomb(terms))
    return out


def verify_three_term(fam: OPUCFamily) -> VerificationReport:
    """P_{n+1} + b_n P_n + u_n P_{n-1} = x P_n, and the Q analogue."""
    _need_pair(fam)
    rep = VerificationReport(
        identity="three-term",
        relation="P_{n+1} + b_n P_n + u_n P_{n-1} = x P_n (and Q with b~, u~)",
        params=family_params(fam),
    )
    for name in ("P", "Q"):
        for n, res in enumerate(three_term_residuals(fam, name)):
            rep.residual(f"{name} n={n}", res)
    return rep


def fit_recurrence(chain: list[LaurentPoly] | tuple[LaurentPoly, ...]):
    """Read (b_n, u_n) off a monic chain by exact coefficient matching.

    Returns (b, u) with u_0 = 0.  The chain must be monic with
    deg p_n = n, which this checks, raising ValueError that names the
    first bad index.  Then x p_n - p_{n+1} has degree <= n, and since
    x^k = z^k + k z^(k-2) + ..., its z^n and z^(n-1) coefficients give

        b_n = [z^(n-1)] p_n - [z^n] p_{n+1},
        u_n = [z^(n-2)] p_n + 1 - [z^(n-1)] p_{n+1} - b_n [z^(n-1)] p_n,

    O(1) reads per step.  Whether x p_n - p_{n+1} really lies in
    span(p_n, p_{n-1}) is not decided here (``verify_recurrence_closure``).
    """
    for n, p in enumerate(chain):
        if p.coeff(n) != 1 or p.max_exp != n:
            raise ValueError(f"chain element {n} is not monic of degree {n}")
    b: list[Rational] = []
    u: list[Rational] = [_ZERO]
    for n in range(len(chain) - 1):
        pn, nxt = chain[n], chain[n + 1]
        bn = pn.coeff(n - 1) - nxt.coeff(n)
        b.append(bn)
        if n >= 1:
            u.append(pn.coeff(n - 2) + 1 - nxt.coeff(n - 1) - bn * pn.coeff(n - 1))
    return tuple(b), tuple(u)


def verify_recurrence_closure(fam: OPUCFamily) -> VerificationReport:
    """Fitted recurrence coefficients equal the Verblunsky formulas, and
    each chain closes: x p_n - p_{n+1} lies in span(p_n, p_{n-1}).

    With (b_n, u_n) fitted by ``fit_recurrence``, (b^_n, u^_n) the closed
    forms and T_n the three-term residuals (``three_term_residuals``),
    the span residual of step n >= 1 is

        x p_n - p_{n+1} - b_n p_n - u_n p_{n-1}
            = -T_n + (b^_n - b_n) p_n + (u^_n - u_n) p_{n-1},

    the same Laurent polynomial for any chain; "chain in span" holds when
    it is zero at every step.
    """
    _need_pair(fam)
    rep = VerificationReport(
        identity="recurrence-closure",
        relation="fitted (b_n, u_n) and (b~_n, u~_n) = closed forms in a_k",
        params=family_params(fam),
    )
    for name, tilde in (("P", ""), ("Q", "~")):
        chain, want_b, want_u = recurrence(fam, name)
        fit_b, fit_u = fit_recurrence(chain)
        top = len(want_b) - 1
        three_term = three_term_residuals(fam, name)
        clean = not any(
            LaurentPoly.lincomb([(-1, three_term[n]), (want_b[n] - fit_b[n], chain[n]),
                                 (want_u[n] - fit_u[n], chain[n - 1])])
            for n in range(1, top + 1)
        )
        rep.add(f"{name} chain in span", clean)
        for sym, fit, want, first in (("b", fit_b, want_b, 0), ("u", fit_u, want_u, 1)):
            for n in range(first, top + 1):
                ok = fit[n] == want[n]
                rep.add(f"{sym}{tilde}_{n}", ok, "" if ok else f"fit {fit[n]} != {want[n]}")
    return rep


@per_family("psi(P,Q)")
def psi_pq_residuals(fam: OPUCFamily) -> dict[int, LaurentPoly]:
    """E_k, the residual of psi_k out of (P, Q), for k = 0 .. N:

        E_{2n-1} = psi_{2n-1} - (P_n + D Q_{n-1}) / 2,
        E_2n = psi_2n - ((1 - a') P_n - (1 + a') D Q_{n-1}) / 2,

    D = z - 1/z, a' = a_{2n-1}, and E_0 = psi_0 - P_0 (the Q term carries
    1 + a_{-1} = 0).  Built once per family: the transforms report them
    and form P and Q from psi and the psi(P,P) rows out of them, and the
    Y eigencheck forms Y P_n and Y F_n out of them.

    E_0 and E_{2n-1} are formed directly.  psi_2n is the other psi of
    the M1 block at rows 2n - 1, 2n, so with A = A_{2n-1}, the held M1
    reflection residual, a the reference a_{2n-1} that M1 reads (both
    from ``cmv.m1_upper_row``, M1 at size N + 1) and f*(z) = f(1/z),

        E_2n = E_{2n-1}* - a E_{2n-1} - A
               + [(P_n* - P_n) - D (Q_{n-1}* - Q_{n-1}) + (a' - a)(P_n + D Q_{n-1})] / 2,

    the same Laurent polynomial as the direct formula for any psi, P and
    Q.  Each bracket term is formed only when its factor is nonzero, so
    on a clean family E_2n passes no nonzero term to ``lincomb``.
    """
    lc, psi = LaurentPoly.lincomb, fam.psi
    out = {0: lc([(1, psi[0]), (-1, build_p(fam, 0))])}
    for n in range(1, p_top(fam.size) + 1):
        pn, q = build_p(fam, n), build_q(fam, n - 1)
        out[2 * n - 1] = odd = lc([(1, psi[2 * n - 1]), (-_HALF, pn), *_d_terms(q, -_HALF)])
        if 2 * n <= fam.size:
            a, upper = m1_upper_row(fam, 2 * n - 1)
            terms = [(1, odd.reflect()), (-a, odd), (-1, upper)]
            p_star, q_star = pn.reflect(), q.reflect()
            if p_star != pn:
                terms += [(_HALF, p_star), (-_HALF, pn)]
            if q_star != q:
                terms += [*_d_terms(q_star, -_HALF), *_d_terms(q, _HALF)]
            drift = _a(fam, 2 * n - 1) - a
            if drift:
                terms += [(drift / 2, pn), *_d_terms(q, drift / 2)]
            out[2 * n] = lc(terms)
    return out


@per_family("christoffel'")
def christoffel_prime_residuals(fam: OPUCFamily) -> dict[int, LaurentPoly]:
    """C'_n = (z - 1/z)^2 Q_{n-1} - (x + 2 a_{2n-2}) P_n + c2_n P_{n-1}
    for n = 1 .. p_top(N), c2_n = 2(1 - a_{2n-3})(1 - a_{2n-2}^2), built
    once per family: the transforms report them and form the christoffel
    and psi(P,P) rows out of them, and the raising residuals read them."""
    out = {}
    for n in range(1, p_top(fam.size) + 1):
        pn = build_p(fam, n)
        out[n] = LaurentPoly.lincomb([
            *_d2_terms(build_q(fam, n - 1)), *_x_terms(pn, -1),
            (-2 * _a(fam, 2 * n - 2), pn), (_c2(fam, n), build_p(fam, n - 1)),
        ])
    return out


def verify_transforms(fam: OPUCFamily) -> VerificationReport:
    """The Christoffel and Geronimus transforms between the chains plus
    the exact reconstruction of psi from (P, Q) or (P_n, P_{n-1}) and
    the extraction of (P, Q) back from psi.

    Four of the identities follow from others by ring algebra and are
    formed out of their residuals, which equals the direct formula for
    any psi, P and Q.  With T_n the P three-term residuals
    (``three_term_residuals``) and C'_n the "christoffel'" residuals
    (``christoffel_prime_residuals``),

        christoffel_n = C'_n - T_n,

    since the christoffel weights (a_2n + a_{2n-2})(1 - a_{2n-1}) of P_n
    and (1 - a_{2n-1})(1 - a_{2n-3})(1 - a_{2n-2}^2) of P_{n-1} equal
    2 a_{2n-2} + b_n and c2_n - u_n identically in the a's, with
    c2_n = 2(1 - a_{2n-3})(1 - a_{2n-2}^2).  With E_k the "psi(P,Q)"
    residuals (``psi_pq_residuals``), a = a_{2n-1} and D = z - 1/z,

        P from psi_n = -E_{2n} - (1 + a) E_{2n-1},
        Q from psi_n = E_{2n} + (a - 1) E_{2n-1},
        psi(P,P)_{2n-1} = E_{2n-1} + C'_n / (2 D),
        psi(P,P)_2n = E_2n - (1 + a) C'_n / (2 D).

    D times a psi(P,P) residual is D psi_k minus its numerator, and
    differs from D E_k only by the C'_n term, so the numerator is
    divisible by D exactly when C'_n is: NotDivisible is raised in the
    same cases, naming C'_n.
    """
    _need_pair(fam)
    rep = VerificationReport(
        identity="szego-transforms",
        relation="Christoffel / Geronimus / psi reconstruction / PQ extraction",
        params=family_params(fam),
    )
    lc = LaurentPoly.lincomb
    p, q = recurrence(fam, "P")[0], recurrence(fam, "Q")[0]
    size = fam.size
    # (z - 1/z)^2 Q_{n-1} = (x + 2 a_{2n-2}) P_n - 2(1 - a_{2n-3})(1 - a_{2n-2}^2) P_{n-1}
    christoffel_prime = christoffel_prime_residuals(fam)

    # (z - 1/z)^2 Q_{n-1} = P_{n+1} + (a_2n + a_{2n-2})(1 - a_{2n-1}) P_n
    #                       - (1 - a_{2n-1})(1 - a_{2n-3})(1 - a_{2n-2}^2) P_{n-1}
    three_term = three_term_residuals(fam, "P")
    for n in range(1, q_top(size) + 1):
        rep.residual(f"christoffel n={n}", lc([(1, christoffel_prime[n]), (-1, three_term[n])]))
    for n, res in christoffel_prime.items():
        rep.residual(f"christoffel' n={n}", res)

    # P_n = Q_n - (1 + a_{2n-1})(a_2n + a_{2n-2}) Q_{n-1}
    #       - (1 + a_{2n-1})(1 + a_{2n-3})(1 - a_{2n-2}^2) Q_{n-2}
    for n in range(1, q_top(size) + 1):
        lead = 1 + _a(fam, 2 * n - 1)
        c1 = lead * (_a(fam, 2 * n) + _a(fam, 2 * n - 2))
        terms = [(1, p[n]), (-1, q[n]), (c1, q[n - 1])]
        if n >= 2:
            c2 = lead * (1 + _a(fam, 2 * n - 3)) * (1 - _a(fam, 2 * n - 2) ** 2)
            terms.append((c2, q[n - 2]))
        # at n = 1 the Q_{-1} coefficient carries the factor 1 + a_{-1} = 0
        rep.residual(f"geronimus n={n}", lc(terms))

    # psi_{2n-1} = (P_n + (z - 1/z) Q_{n-1}) / 2
    # psi_2n     = ((1 - a_{2n-1}) P_n - (1 + a_{2n-1})(z - 1/z) Q_{n-1}) / 2
    psi_pq = psi_pq_residuals(fam)  # E_k, the residual of psi_k
    for n in range(1, p_top(size) + 1):
        rep.residual(f"psi(P,Q) n={2 * n - 1}", psi_pq[2 * n - 1])
        if 2 * n <= size:
            rep.residual(f"psi(P,Q) n={2 * n}", psi_pq[2 * n])
    rep.residual("psi(P,Q) n=0", psi_pq[0])

    # The same two functions out of P_n and P_{n-1} alone, via exact
    # division by z - 1/z:
    # psi_{2n-1} = ((z + a_{2n-2}) P_n - (1-a_{2n-3})(1-a_{2n-2}^2) P_{n-1}) / (z - 1/z)
    # psi_2n = ((1+a_{2n-1})(1-a_{2n-3})(1-a_{2n-2}^2) P_{n-1}
    #           - (a_{2n-1} z + 1/z + a_{2n-2}(1+a_{2n-1})) P_n) / (z - 1/z)
    # formed from E_k and C'_n / (z - 1/z)
    for n in range(1, p_top(size) + 1):
        c = christoffel_prime[n].div_exact(Z_MINUS_ZINV)
        rep.residual(f"psi(P,P) n={2 * n - 1}", lc([(1, psi_pq[2 * n - 1]), (_HALF, c)]))
        if 2 * n <= size:
            lead = 1 + _a(fam, 2 * n - 1)
            rep.residual(f"psi(P,P) n={2 * n}", lc([(1, psi_pq[2 * n]), (-lead / 2, c)]))

    # P_n = psi_2n + (1 + a_{2n-1}) psi_{2n-1}
    # (z - 1/z) Q_{n-1} = -psi_2n + (1 - a_{2n-1}) psi_{2n-1}
    # both inverting the psi(P,Q) pair, so formed from its residuals
    for n in range(1, size // 2 + 1):
        am = _a(fam, 2 * n - 1)
        even, odd = psi_pq[2 * n], psi_pq[2 * n - 1]
        rep.residual(f"P from psi n={n}", lc([(-1, even), (-1 - am, odd)]))
        rep.residual(f"Q from psi n={n}", lc([(1, even), (am - 1, odd)]))
    return rep


def _oracle_gaps(fam: OPUCFamily, name: str, alpha: Rational, beta: Rational) -> list:
    """D_n = chain_n - O_n for every member of the P chain (name "P") or
    the Q chain ("Q"), with O_n the monic Jacobi polynomial at
    (alpha, beta) on [-2, 2].  O_n obeys O_{n+1} = (x - beta_n) O_n -
    upsilon_n O_{n-1} (``jacobi_b``, ``jacobi_u``), so with T_n the held
    three-term residuals and (b_n, u_n) the chain's closed forms

        D_{n+1} = T_n + (x - beta_n) D_n - upsilon_n D_{n-1}
                  + (beta_n - b_n) chain_n + (upsilon_n - u_n) chain_{n-1},

    from D_0 = chain_0 - 1; the upsilon terms drop at n = 0.  That is the
    same Laurent polynomial as chain_n minus the oracle for any chain.
    """
    chain, b, u = recurrence(fam, name)
    gaps = [LaurentPoly.lincomb([(1, chain[0]), (-1, LaurentPoly.one())])]
    for n, res in enumerate(three_term_residuals(fam, name)):
        gap, cb = gaps[n], jacobi_b(alpha, beta, n)
        terms = [(1, res), *_x_terms(gap), (-cb, gap), (cb - b[n], chain[n])]
        if n >= 1:
            cu = jacobi_u(alpha, beta, n)
            terms += [(-cu, gaps[n - 1]), (cu - u[n], chain[n - 1])]
        gaps.append(LaurentPoly.lincomb(terms))
    return gaps


def verify_classical_match(fam: OPUCFamily) -> VerificationReport:
    """P_n equals the classical oracle at (alpha, beta) and Q_n equals it
    at (alpha + 1, beta + 1), exactly, for every P_n and Q_n the family
    holds.  Each residual P_n - O_n is formed from the three-term
    residuals (``_oracle_gaps``), so on a clean family every term is
    zero; the oracle's (beta_n, upsilon_n) come from (alpha, beta) alone,
    so a corrupted a_k still fails it."""
    p = require_params(fam)
    if fam.size < 1:
        raise ValueError("need a family of size >= 1")
    al, be = p.alpha, p.beta
    rep = VerificationReport(
        identity="classical-match",
        relation="P_n = monic Jacobi(alpha, beta), Q_n = monic Jacobi(alpha+1, beta+1) on [-2, 2]",
        params=family_params(fam, n_max=p_top(fam.size)),
    )
    for name, shift in (("P", 0), ("Q", 1)):
        for n, res in enumerate(_oracle_gaps(fam, name, al + shift, be + shift)):
            rep.residual(f"{name} n={n}", res)
    return rep


def _mu(p: JacobiParams, n: int) -> Rational:
    """mu_n = n + alpha + beta + 1, as (S + n Q)/Q on s = S/Q, in lowest terms as s is."""
    return _rational(p.s._numerator + n * p.s._denominator, p.s._denominator)


@per_family("raising")
def raising_residuals(fam: OPUCFamily) -> dict[int, LaurentPoly]:
    """H_n = D theta Q_{n-1} + (sigma x + delta) Q_{n-1} - mu_n P_n for
    n = 1 .. p_top(N), built once per family: the Jacobi raising relation
    (Szego, Orthogonal Polynomials, 1939, sec. 4.21) with D = z - 1/z,
    sigma = alpha + beta + 2, delta = 2(alpha - beta) and
    mu_n = n + alpha + beta + 1.  For symmetric Q_{n-1} it is K acting on
    F_n = D Q_{n-1}: H_n = (K - s) F_n - mu_n P_n, s = alpha + beta + 1.

    H_1 is formed directly.  With L f = D theta f + (sigma x + delta) f,
    L(x f) = x L f + D^2 f, so the Q three-term step, C'_n
    (``christoffel_prime_residuals``) and the P three-term step give

        H_{n+1} = (x - b~_{n-1}) H_n - u~_{n-1} H_{n-1} + L T~_{n-1} + C'_n
                  - mu_{n+1} T_n + f3 P_n + f4 P_{n-1},
        f3 = 2 a_{2n-2} - mu_n b~_{n-1} + mu_{n+1} b_n,
        f4 = -c2_n - mu_{n-1} u~_{n-1} + mu_{n+1} u_n,

    the same Laurent polynomial as the direct formula for any chains.  f3
    and f4 vanish on Jacobi data but not on a corrupted family, since the
    mu_n come from (alpha, beta).
    """
    p = require_params(fam)
    sigma, delta = p.s + 1, 2 * p.d

    def raise_terms(f: LaurentPoly) -> list:
        return [*_d_terms(f.theta()), *_x_terms(f, sigma), (delta, f)]

    top = p_top(fam.size)
    if top < 1:
        return {}
    lc = LaurentPoly.lincomb
    out = {1: lc([*raise_terms(build_q(fam, 0)), (-_mu(p, 1), build_p(fam, 1))])}
    _, b, u = recurrence(fam, "P")
    _, bt, ut = recurrence(fam, "Q")
    t, tt = three_term_residuals(fam, "P"), three_term_residuals(fam, "Q")
    cp = christoffel_prime_residuals(fam)
    for n in range(1, top):
        f3 = 2 * _a(fam, 2 * n - 2) - _mu(p, n) * bt[n - 1] + _mu(p, n + 1) * b[n]
        f4 = -_c2(fam, n) - _mu(p, n - 1) * ut[n - 1] + _mu(p, n + 1) * u[n]
        h = out[n]
        terms = [*_x_terms(h), (-bt[n - 1], h), *raise_terms(tt[n - 1]), (1, cp[n]),
                 (-_mu(p, n + 1), t[n]), (f3, build_p(fam, n)), (f4, build_p(fam, n - 1))]
        if n >= 2:  # u~_0 = 0
            terms.append((-ut[n - 1], out[n - 1]))
        out[n + 1] = lc(terms)
    return out


def verify_dep_and_pq_identity(fam: OPUCFamily) -> VerificationReport:
    """Two differential identities for the P chain, exact after clearing
    the z^2 - 1 denominator using d/dz = (1/z) theta, for every P_n the
    family holds:

      (z^2-1) z^2 P_n'' + z((a+b+2) z^2 + 2(a-b) z + a+b) P_n'
          = n(n+a+b+1) (z^2-1) P_n
      theta P_n = n (z - 1/z) Q_{n-1}

    The theta-PQ residual G_n = theta P_n - n (z - 1/z) Q_{n-1} is formed
    directly, once for both rows.  With z^2 P'' = theta^2 P - theta P,
    theta P_n = G_n + n D Q_{n-1} and the raising residuals H_n
    (``raising_residuals``), the ODE residual is

        (z^2 - 1) theta G_n + ((a+b+1)(z^2 + 1) + 2(a-b) z) G_n
            + n (z^2 - 1) H_n,

    the same Laurent polynomial as the direct formula for any chains.
    For symmetric P_n it is (z^2 - 1)(Y - Lambda_{2n}) P_n, the Y
    eigenproblem on P_n (``algebra.y_eigencheck``), with
    (Y - Lambda_{2n}) P_n = (K - s) G_n + n H_n, s = a + b + 1.
    """
    p = require_params(fam)
    top = p_top(fam.size)
    rep = VerificationReport(
        identity="hypergeometric-ode",
        relation="second-order ODE for P_n ; theta P_n = n (z - 1/z) Q_{n-1}",
        params=family_params(fam, n_max=top),
    )
    lc = LaurentPoly.lincomb
    theta_pq = []
    for n in range(top + 1):
        terms = [(1, build_p(fam, n).theta())]
        if n:
            terms += _d_terms(build_q(fam, n - 1), -n)
        theta_pq.append(lc(terms))
    raising = raising_residuals(fam)
    s1, delta = p.s, 2 * p.d
    for n, g in enumerate(theta_pq):
        tg = g.theta()
        terms = [(1, tg.shift(2)), (-1, tg), (s1, g.shift(2)), (s1, g), (delta, g.shift(1))]
        if n:
            terms += [(n, raising[n].shift(2)), (-n, raising[n])]
        rep.residual(f"ODE n={n}", lc(terms))
    for n, g in enumerate(theta_pq):
        rep.residual(f"theta-PQ n={n}", g)
    return rep
