"""The map to orthogonal polynomials on [-2, 2] and its exact closure.

From the odd-index circle polynomials the symmetrization
P_n = z^(1-n) phi_{2n-1}(z) + z^(n-1) phi_{2n-1}(1/z) and the exact
quotient Q_n = (z^-n phi_{2n+1}(z) - z^n phi_{2n+1}(1/z)) / (z - 1/z)
produce two monic chains in x(z) = z + 1/z.  This module builds both,
once per family, derives their three-term recurrence coefficients from
the Verblunsky data, checks the Christoffel/Geronimus transforms
connecting them, and matches everything against an independently coded
classical Jacobi recurrence.

Two families of residuals are built once per family
(``opuc.per_family``): the three-term residuals of both chains
(``three_term_residuals``) and the residuals E_k of psi_k out of (P, Q)
(``psi_pq_residuals``).  The identities that follow from them by ring
algebra are formed out of them, the same Laurent polynomial as the
direct formula for any input: the recurrence closure's span test
(-T_n + (b^_n - b_n) p_n + (u^_n - u_n) p_{n-1}, with the fitted and the
closed-form coefficients), the Christoffel row, P and Q from psi, and
the psi(P,P) rows (E_k plus a multiple of C'_n / (z - 1/z)); so are
Y P_n and Y F_n in ``algebra.y_eigencheck``.

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

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParamOutOfRange
from .laurent import LaurentPoly, Z_MINUS_ZINV, Z_PLUS_ZINV
from .opuc import BOUNDARY_A, OPUCFamily, family_params, per_family
from .report import VerificationReport

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


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
# Independent classical oracle (kept free of any circle-side input)
# --------------------------------------------------------------------------


def classical_jacobi_chain(alpha, beta, n: int) -> Iterator[LaurentPoly]:
    """Yield the monic Jacobi polynomials P_0, ..., P_n with parameters
    (alpha, beta), rescaled from [-1, 1] to [-2, 2] (argument x/2).

    Runs the closed-form three-term recurrence for the monic chain once,
    directly in z with x f = f.shift(1) + f.shift(-1), holding only the
    two previous polynomials; the n = 1 step is taken in its cancelled
    form so parameter sums near -1 stay well-defined.  This is the oracle
    the circle construction is matched against, so it deliberately reads
    no circle-side data.  The parameters are checked when iteration
    starts.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= -1 or beta <= -1:
        raise ParamOutOfRange("oracle needs alpha > -1 and beta > -1")
    if n < 0:
        raise ValueError("degree must be >= 0")
    s = alpha + beta

    def b_coeff(k: int) -> Fraction:
        if k == 0:
            return 2 * (beta - alpha) / (s + 2)
        return 2 * (beta**2 - alpha**2) / ((2 * k + s) * (2 * k + s + 2))

    def u_coeff(k: int) -> Fraction:
        if k == 1:
            return 16 * (alpha + 1) * (beta + 1) / ((s + 2) ** 2 * (s + 3))
        return (
            16 * k * (k + alpha) * (k + beta) * (k + s)
            / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1))
        )

    prev = LaurentPoly.one()
    yield prev
    if n == 0:
        return
    cur = LaurentPoly.lincomb([(1, Z_PLUS_ZINV), (-b_coeff(0), prev)])
    yield cur
    for k in range(1, n):
        step = [*_x_terms(cur), (-b_coeff(k), cur), (-u_coeff(k), prev)]
        prev, cur = cur, LaurentPoly.lincomb(step)
        yield cur


def classical_jacobi_oracle(alpha, beta, n: int) -> LaurentPoly:
    """The degree-n member of classical_jacobi_chain(alpha, beta, n)."""
    for poly in classical_jacobi_chain(alpha, beta, n):
        pass
    return poly


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


def _chains(fam: OPUCFamily) -> tuple[list[LaurentPoly], list[LaurentPoly]]:
    """P_0..P_{p_top} and Q_0..Q_{q_top} of the family, out of its memo."""
    if fam.size < 3:
        raise ValueError("need a family of size >= 3")
    return (
        [build_p(fam, n) for n in range(p_top(fam.size) + 1)],
        [build_q(fam, n) for n in range(q_top(fam.size) + 1)],
    )


def _a(fam: OPUCFamily, k: int) -> Fraction:
    """Extended coefficient accessor: a_{-1} = -1 by convention.

    Indices <= -2 only ever appear multiplied by 1 + a_{-1} = 0, so
    reading one is a bug, not a case to define."""
    if k >= 0:
        return fam.a[k]
    if k == -1:
        return BOUNDARY_A
    raise AssertionError(f"a_{k} must never be read")


def _weight(n: int, w: Fraction) -> Fraction:
    """w as the recurrence weight at n >= 1, which must be positive."""
    if w <= 0:
        raise AssertionError(f"recurrence weight at n={n} is not positive")
    return w


def u_coeff(fam: OPUCFamily, n: int) -> Fraction:
    """u_n = (1 + a_{2n-1})(1 - a_{2n-3})(1 - a_{2n-2}^2) > 0; u_0 = 0."""
    if n == 0:  # the factor 1 + a_{-1} = 0
        return _ZERO
    lead = 1 + _a(fam, 2 * n - 1)
    return _weight(n, lead * (1 - _a(fam, 2 * n - 3)) * (1 - _a(fam, 2 * n - 2) ** 2))


def b_coeff(fam: OPUCFamily, n: int) -> Fraction:
    """b_n = a_{2n}(1 - a_{2n-1}) - a_{2n-2}(1 + a_{2n-1}); b_0 = 2 a_0."""
    lead = 1 + _a(fam, 2 * n - 1)
    first = _a(fam, 2 * n) * (1 - _a(fam, 2 * n - 1))
    if lead == 0:
        return first
    return first - _a(fam, 2 * n - 2) * lead


def ut_coeff(fam: OPUCFamily, n: int) -> Fraction:
    """u~_n = (1 + a_{2n-1})(1 - a_{2n+1})(1 - a_{2n}^2) > 0; u~_0 = 0."""
    if n == 0:  # the factor 1 + a_{-1} = 0
        return _ZERO
    lead = 1 + _a(fam, 2 * n - 1)
    return _weight(n, lead * (1 - _a(fam, 2 * n + 1)) * (1 - _a(fam, 2 * n) ** 2))


def bt_coeff(fam: OPUCFamily, n: int) -> Fraction:
    """b~_n = a_{2n}(1 - a_{2n+1}) - a_{2n+2}(1 + a_{2n+1})."""
    return _a(fam, 2 * n) * (1 - _a(fam, 2 * n + 1)) - _a(fam, 2 * n + 2) * (
        1 + _a(fam, 2 * n + 1)
    )


# --------------------------------------------------------------------------
# Verifications
# --------------------------------------------------------------------------


def _recurrences(fam: OPUCFamily) -> dict:
    """name -> (label tilde, chain, b, u, last n) of the P and the Q
    recurrence: each stops one short of its chain's end."""
    p, q = _chains(fam)
    return {
        "P": ("", p, b_coeff, u_coeff, p_top(fam.size) - 1),
        "Q": ("~", q, bt_coeff, ut_coeff, q_top(fam.size) - 1),
    }


def _three_term_residual(fam: OPUCFamily, chain, b_of, u_of, n: int) -> LaurentPoly:
    """chain_{n+1} + b_n chain_n + u_n chain_{n-1} - x chain_n."""
    terms = [(1, chain[n + 1]), (b_of(fam, n), chain[n]), *_x_terms(chain[n], -1)]
    if n >= 1:
        terms.append((u_of(fam, n), chain[n - 1]))
    return LaurentPoly.lincomb(terms)


@per_family("three-term")
def three_term_residuals(fam: OPUCFamily, name: str) -> list[LaurentPoly]:
    """T_n = P_{n+1} + b_n P_n + u_n P_{n-1} - x P_n for n = 0 ..
    p_top(N) - 1 (name "P"), or the Q residuals with (b~_n, u~_n) for
    n = 0 .. q_top(N) - 1 (name "Q"), built once per family: the
    three-term check reports them, and the Christoffel transform and the
    closure's span test are formed from them."""
    _, chain, b_of, u_of, top = _recurrences(fam)[name]
    return [_three_term_residual(fam, chain, b_of, u_of, n) for n in range(top + 1)]


def verify_three_term(fam: OPUCFamily) -> VerificationReport:
    """P_{n+1} + b_n P_n + u_n P_{n-1} = x P_n, and the Q analogue."""
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
    b: list[Fraction] = []
    u: list[Fraction] = [_ZERO]
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
    rep = VerificationReport(
        identity="recurrence-closure",
        relation="fitted (b_n, u_n) and (b~_n, u~_n) = closed forms in a_k",
        params=family_params(fam),
    )
    for name, (tilde, chain, b_of, u_of, top) in _recurrences(fam).items():
        fit_b, fit_u = fit_recurrence(chain)
        want_b = [b_of(fam, n) for n in range(top + 1)]
        want_u = [u_of(fam, n) for n in range(top + 1)]
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

        E_{2n-1} = psi_{2n-1} - (P_n + (z - 1/z) Q_{n-1}) / 2,
        E_2n = psi_2n - ((1 - a) P_n - (1 + a)(z - 1/z) Q_{n-1}) / 2,

    a = a_{2n-1}, and E_0 = psi_0 - P_0 (the Q term carries
    1 + a_{-1} = 0).  Built once per family: the transforms report them
    and form P and Q from psi and the psi(P,P) rows out of them, and the
    Y eigencheck forms Y P_n and Y F_n out of them.
    """
    lc, psi = LaurentPoly.lincomb, fam.psi
    out = {0: lc([(1, psi[0]), (-1, build_p(fam, 0))])}
    for n in range(1, p_top(fam.size) + 1):
        pn, q = build_p(fam, n), build_q(fam, n - 1)
        out[2 * n - 1] = lc([(1, psi[2 * n - 1]), (-_HALF, pn), *_d_terms(q, -_HALF)])
        if 2 * n <= fam.size:
            am = _a(fam, 2 * n - 1)
            out[2 * n] = lc([(1, psi[2 * n]), ((am - 1) / 2, pn), *_d_terms(q, (1 + am) / 2)])
    return out


def verify_transforms(fam: OPUCFamily) -> VerificationReport:
    """The Christoffel and Geronimus transforms between the chains plus
    the exact reconstruction of psi from (P, Q) or (P_n, P_{n-1}) and
    the extraction of (P, Q) back from psi.

    Four of the identities follow from others by ring algebra and are
    formed out of their residuals, which equals the direct formula for
    any psi, P and Q.  With T_n the P three-term residuals
    (``three_term_residuals``) and C'_n the "christoffel'" residuals,

        christoffel_n = C'_n - T_n - e1 P_n - e2 P_{n-1},
        e1 = c1 - 2 a_{2n-2} - b_n,
        e2 = 2(1 - a_{2n-3})(1 - a_{2n-2}^2) - c2 - u_n,

    where c1, c2 are the christoffel coefficients; e1 and e2 vanish
    identically in the a's.  With E_k the "psi(P,Q)" residuals
    (``psi_pq_residuals``), a = a_{2n-1} and D = z - 1/z,

        P from psi_n = -E_{2n} - (1 + a) E_{2n-1},
        Q from psi_n = E_{2n} + (a - 1) E_{2n-1},
        psi(P,P)_{2n-1} = E_{2n-1} + C'_n / (2 D),
        psi(P,P)_2n = E_2n - (1 + a) C'_n / (2 D).

    D times a psi(P,P) residual is D psi_k minus its numerator, and
    differs from D E_k only by the C'_n term, so the numerator is
    divisible by D exactly when C'_n is: NotDivisible is raised in the
    same cases, naming C'_n.
    """
    rep = VerificationReport(
        identity="szego-transforms",
        relation="Christoffel / Geronimus / psi reconstruction / PQ extraction",
        params=family_params(fam),
    )
    lc = LaurentPoly.lincomb
    p, q = _chains(fam)
    size = fam.size

    # (z - 1/z)^2 Q_{n-1} = (x + 2 a_{2n-2}) P_n - 2(1 - a_{2n-3})(1 - a_{2n-2}^2) P_{n-1},
    # formed first: the christoffel residual is built from it
    christoffel_prime = {}
    for n in range(1, p_top(size) + 1):
        c2 = 2 * (1 - _a(fam, 2 * n - 3)) * (1 - _a(fam, 2 * n - 2) ** 2)
        christoffel_prime[n] = lc([*_d2_terms(q[n - 1]), *_x_terms(p[n], -1),
                                   (-2 * _a(fam, 2 * n - 2), p[n]), (c2, p[n - 1])])

    # (z - 1/z)^2 Q_{n-1} = P_{n+1} + (a_2n + a_{2n-2})(1 - a_{2n-1}) P_n
    #                       - (1 - a_{2n-1})(1 - a_{2n-3})(1 - a_{2n-2}^2) P_{n-1}
    three_term = three_term_residuals(fam, "P")
    for n in range(1, q_top(size) + 1):
        a0, a1, a3 = _a(fam, 2 * n - 2), _a(fam, 2 * n - 1), _a(fam, 2 * n - 3)
        c1 = (_a(fam, 2 * n) + a0) * (1 - a1)
        c2 = (1 - a1) * (1 - a3) * (1 - a0 ** 2)
        e1 = c1 - 2 * a0 - b_coeff(fam, n)
        e2 = 2 * (1 - a3) * (1 - a0 ** 2) - c2 - u_coeff(fam, n)
        res = lc([(1, christoffel_prime[n]), (-1, three_term[n]), (-e1, p[n]), (-e2, p[n - 1])])
        rep.residual(f"christoffel n={n}", res)
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


def verify_classical_match(fam: OPUCFamily) -> VerificationReport:
    """P_n equals the classical oracle at (alpha, beta) and Q_n equals it
    at (alpha + 1, beta + 1), exactly, for every P_n and Q_n the family
    holds."""
    if fam.params is None:
        raise ValueError("family carries no (alpha, beta) parameters")
    p = fam.params
    rep = VerificationReport(
        identity="classical-match",
        relation="P_n = monic Jacobi(alpha, beta), Q_n = monic Jacobi(alpha+1, beta+1) on [-2, 2]",
        params=family_params(fam, n_max=p_top(fam.size)),
    )
    for n, oracle in enumerate(classical_jacobi_chain(p.alpha, p.beta, p_top(fam.size))):
        rep.residual(f"P n={n}", LaurentPoly.lincomb([(1, build_p(fam, n)), (-1, oracle)]))
    for n, oracle in enumerate(classical_jacobi_chain(p.alpha + 1, p.beta + 1, q_top(fam.size))):
        rep.residual(f"Q n={n}", LaurentPoly.lincomb([(1, build_q(fam, n)), (-1, oracle)]))
    return rep


def verify_dep_and_pq_identity(fam: OPUCFamily) -> VerificationReport:
    """Two differential identities for the P chain, exact after clearing
    the z^2 - 1 denominator using d/dz = (1/z) theta, for every P_n the
    family holds:

      (z^2-1) z^2 P_n'' + z((a+b+2) z^2 + 2(a-b) z + a+b) P_n'
          = n(n+a+b+1) (z^2-1) P_n
      theta P_n = n (z - 1/z) Q_{n-1}
    """
    if fam.params is None:
        raise ValueError("family carries no (alpha, beta) parameters")
    al, be = fam.params.alpha, fam.params.beta
    top = p_top(fam.size)
    rep = VerificationReport(
        identity="hypergeometric-ode",
        relation="second-order ODE for P_n ; theta P_n = n (z - 1/z) Q_{n-1}",
        params=family_params(fam, n_max=top),
    )
    lc = LaurentPoly.lincomb
    # the drift (a+b+2) z^3 + 2(a-b) z^2 + (a+b) z as (coefficient, power);
    # products by it and by z^2 - 1 become shifted terms
    drift = ((al + be + 2, 3), (2 * (al - be), 2), (al + be, 1))
    for n in range(top + 1):
        f = build_p(fam, n)
        f1 = f.deriv()
        f2 = f1.deriv()
        ev = n * (n + al + be + 1)
        terms = [(1, f2.shift(4)), (-1, f2.shift(2)), (-ev, f.shift(2)), (ev, f)]
        terms += [(c, f1.shift(k)) for c, k in drift]
        rep.residual(f"ODE n={n}", lc(terms))
    for n in range(top + 1):
        terms = [(1, build_p(fam, n).theta())]
        if n:
            terms += _d_terms(build_q(fam, n - 1), -n)
        rep.residual(f"theta-PQ n={n}", lc(terms))
    return rep
