"""Identities formed out of other identities' residuals.

The verifier builds each base residual once per family (K psi_n -
lambda_n psi_n, the reflection rows A_n and B_n, the P and Q three-term
rows, the psi(P,Q) rows E_k, the christoffel' rows C'_n, the raising
rows H_n, and the algebra's relation residuals on monomials) and forms
every identity that follows from them as a short combination of those
residuals.  The direct formulas
live here as the reference model: on clean, corrupted and perturbed
families every rewritten check must read exactly what the direct formula
gives, and raise where it raises.
"""

import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache, partial

import pytest

from circlejacobi import algebra, cmv, dunkl, suites, szego
from circlejacobi.cmv import BandedOperator
from circlejacobi.dunkl import apply_k, lambda_n
from circlejacobi.errors import NotDivisible
from circlejacobi.laurent import LaurentPoly, Rational, Z_MINUS_ZINV, Z_PLUS_ZINV
from circlejacobi.opuc import (
    JacobiParams,
    OPUCFamily,
    build_family,
    family_from_verblunsky,
    verblunsky,
)
from circlejacobi.report import Check
from circlejacobi.szego import build_p, build_q, p_top, q_top
from algebra_oracle import build_xy_matrix
from circle_oracle import apply_row, row_terms, support
from classical_oracle import classical_jacobi_chain
from conftest import GRID

F = Fraction
lc = LaurentPoly.lincomb


# --------------------------------------------------------------------------
# Direct formulas: label -> residual, or the tie-in check itself
# --------------------------------------------------------------------------


def direct_bispectral(fam):
    p = fam.params
    return {f"n={n}": lc([(1, apply_k(f, p)), (-lambda_n(p, n), f)])
            for n, f in enumerate(fam.psi)}


def _y_direct(f, p):
    kf = apply_k(f, p)
    return [(1, apply_k(kf, p)), (-p.s, kf)]


def direct_y_eigen(fam):
    """Y psi_n, and Y P_n and Y F_n = Y (z - 1/z) Q_{n-1} from K applied
    twice, with the reflection sign of F_n read on F_n itself."""
    p = fam.params
    out = {f"Y psi n={n}": lc([*_y_direct(f, p), (-algebra.big_lambda(p, n), f)])
           for n, f in enumerate(fam.psi)}
    for n in range(p_top(fam.size) + 1):
        f = build_p(fam, n)
        out[f"Y P n={n}"] = lc([*_y_direct(f, p), (-algebra.big_lambda(p, 2 * n), f)])
    for n in range(1, q_top(fam.size) + 2):
        f = Z_MINUS_ZINV * build_q(fam, n - 1)
        out[f"Y F n={n}"] = lc([*_y_direct(f, p), (-algebra.big_lambda(p, 2 * n), f)])
        out[f"R F n={n}"] = Check(f"R F n={n}", f.reflect() == -f)
    return out


def direct_tie_in(fam, matrix_size):
    """The last check of the central extension, from K applied twice to psi_n."""
    p = fam.params
    x, y = build_xy_matrix(p, matrix_size)
    top = min(fam.size + 1 - x.bandwidth, x.valid_rows, y.valid_rows)
    bad = [n for n in range(top)
           if apply_row(x, n, fam.psi) != Z_PLUS_ZINV * fam.psi[n]
           or apply_row(y, n, fam.psi) != lc(_y_direct(fam.psi[n], p))]
    return Check("matrix rows match functional action on psi", not bad,
                 f"rows {bad[:4]}" if bad else f"{top} rows agree")


def direct_central_functional(fam, d):
    """The central extension's monomial checks from X and Y applied
    directly, each distinct Y image computed once.  K is looked up in
    ``algebra`` at each call, so a wrong K patched in there reaches Y."""
    p = fam.params

    def x_op(f):
        return Z_PLUS_ZINV * f

    @cache
    def y_op(f):
        kf = algebra.apply_k(f, p)
        return lc([(1, algebra.apply_k(kf, p)), (-p.s, kf)])

    m1 = partial(cmv.reflection, m=1)
    c_x = (p.alpha + p.beta) * (p.alpha + p.beta + 2)
    c_m1 = 2 * (p.beta - p.alpha)
    c_i = 2 * p.d * p.s

    def jr2_terms(f):
        """[Y, [Y, X]] f - 2 {X, Y} f - c_x X f, with [Y, [Y, X]] expanded
        to YYX - 2 YXY + XYY; what JR2 leaves when alpha = beta."""
        xf, yf = x_op(f), y_op(f)
        xyf, yxf = x_op(yf), y_op(xf)
        return [(1, y_op(yxf)), (-2, y_op(xyf)), (1, x_op(y_op(yf))),
                (-2, xyf), (-2, yxf), (-c_x, xf)]

    out = {}
    for k in range(-d, d + 1):
        f = LaurentPoly.monomial(k)
        xf, yf = x_op(f), y_op(f)
        xxf = x_op(xf)
        out[f"[X,M1] k={k}"] = lc([(1, x_op(m1(f))), (-1, m1(xf))])
        out[f"[Y,M1] k={k}"] = lc([(1, y_op(m1(f))), (-1, m1(yf))])
        # [X, [X, Y]] = XXY - 2 XYX + YXX
        out[f"JR1 k={k}"] = lc([(1, x_op(x_op(yf))), (-2, x_op(y_op(xf))), (1, y_op(xxf)),
                                (-2, xxf), (8, f)])
        out[f"JR2 k={k}"] = lc([*jr2_terms(f), (-c_m1, m1(f)), (-c_i, f)])
    if p.alpha == p.beta:
        out["extension term drops at alpha=beta"] = lc(jr2_terms(LaurentPoly.monomial(1)))
    return out


def _matrix_operands(fam, size):
    """M1, M2, the diagonal K and I at this size, K read from the possibly
    patched ``algebra.lambda_n``, and the table's (c, e) of M1 and M2."""
    p = fam.params
    m1, m2 = cmv.family_operators(fam, size)
    k = BandedOperator.diagonal([algebra.lambda_n(p, n) for n in range(size)])
    return m1, m2, k, BandedOperator.identity(size), algebra.relation_constants(p.alpha, p.beta)


def direct_relations_matrix(fam, size):
    """The four matrix relation residuals from their definitions."""
    m1, m2, k, eye, rels = _matrix_operands(fam, size)
    lcb = BandedOperator.lincomb
    out = {"M1^2 = I": lcb([(1, m1 @ m1), (-1, eye)]), "M2^2 = I": lcb([(1, m2 @ m2), (-1, eye)])}
    for name, m, (c, e) in zip(("M1 relation", "M2 relation"), (m1, m2), rels):
        out[name] = lcb([(1, k @ m), (1, m @ k), (-c, m), (-e, eye)])
    return out


def direct_central_matrix(fam, size):
    """The central extension's four matrix residuals from their
    definitions, with s = alpha + beta + 1 and d = alpha - beta read from
    the table as the c of {K, M1} and the e of {K, M2}."""
    m1, m2, k, eye, ((s, _), (_, d)) = _matrix_operands(fam, size)
    return central_definitions(m1, m2, k, eye, s, d)


def central_definitions(m1, m2, k, eye, s, d):
    """[X,M1], [Y,M1], JR1 and JR2 formed from their definitions out of
    M1, M2, K and I, with X = M1 M2 + M2 M1 and Y = K^2 - s K."""
    lcb = BandedOperator.lincomb

    def comm(a, b):
        return lcb([(1, a @ b), (-1, b @ a)])

    x = lcb([(1, m1 @ m2), (1, m2 @ m1)])
    y = lcb([(1, k @ k), (-s, k)])
    # JR2's constants (a+b)(a+b+2), 2(b-a) and 2(a-b)(a+b+1)
    c_x, c_m1, c_i = (s - 1) * (s + 1), -2 * d, 2 * d * s
    return {
        "[X,M1] matrix": comm(x, m1),
        "[Y,M1] matrix": comm(y, m1),
        "JR1 matrix": lcb([(1, comm(x, comm(x, y))), (-2, x @ x), (8, eye)]),
        "JR2 matrix": lcb([(1, comm(y, comm(y, x))), (-2, x @ y), (-2, y @ x),
                           (-c_x, x), (-c_m1, m1), (-c_i, eye)]),
    }


def direct_reflection(fam):
    m1, m2 = cmv.family_operators(fam, fam.size + 1)
    psi, out = fam.psi, {}
    for n in range(m1.valid_rows):
        out[f"M1 row {n}"] = lc([(1, psi[n].reflect()), *row_terms(m1, n, psi, -1)])
    for n in range(m2.valid_rows):
        out[f"M2 row {n}"] = lc([(1, psi[n].reflect().shift(1)), *row_terms(m2, n, psi, -1)])
    return out


def direct_cmv_rows(fam):
    m1, m2 = cmv.family_operators(fam, fam.size + 1)
    c = m1 @ m2
    psi = fam.psi
    z_psi = [f.shift(1) for f in psi]
    out = {}
    for n in range(min(m1.valid_rows, m2.valid_rows)):
        out[f"pencil row {n}"] = lc([*row_terms(m2, n, psi), *row_terms(m1, n, z_psi, -1)])
    for n in range(c.valid_rows):
        out[f"C row {n}"] = lc([*row_terms(c, n, psi), (-1, z_psi[n])])
    return out


def direct_three_term(fam):
    if fam.size < 3:
        raise ValueError("need a family of size >= 3")
    out = {}
    for n in range(p_top(fam.size)):
        pn = build_p(fam, n)
        terms = [(1, build_p(fam, n + 1)), (szego.b_coeff(fam, n), pn),
                 (-1, pn.shift(1)), (-1, pn.shift(-1))]
        if n >= 1:
            terms.append((szego.u_coeff(fam, n), build_p(fam, n - 1)))
        out[f"P n={n}"] = lc(terms)
    return out


def direct_psi_pq(fam):
    """E_k = psi_k minus its formula in (P, Q), each row from psi_k itself."""
    psi = fam.psi
    out = {0: psi[0] - build_p(fam, 0)}
    for n in range(1, p_top(fam.size) + 1):
        pn, dq = build_p(fam, n), Z_MINUS_ZINV * build_q(fam, n - 1)
        out[2 * n - 1] = psi[2 * n - 1] - (pn + dq) / 2
        if 2 * n <= fam.size:
            am = szego._a(fam, 2 * n - 1)
            out[2 * n] = psi[2 * n] - ((1 - am) * pn - (1 + am) * dq) / 2
    return out


def direct_transforms(fam):
    if fam.size < 3:
        raise ValueError("need a family of size >= 3")
    a = szego._a
    psi = fam.psi
    out = {f"psi(P,Q) n={k}": e for k, e in direct_psi_pq(fam).items()}
    P = [build_p(fam, n) for n in range(p_top(fam.size) + 1)]
    Q = [build_q(fam, n) for n in range(q_top(fam.size) + 1)]
    for n in range(1, q_top(fam.size) + 1):
        c1 = (a(fam, 2 * n) + a(fam, 2 * n - 2)) * (1 - a(fam, 2 * n - 1))
        c2 = (1 - a(fam, 2 * n - 1)) * (1 - a(fam, 2 * n - 3)) * (1 - a(fam, 2 * n - 2) ** 2)
        d2q = Q[n - 1].shift(2) - 2 * Q[n - 1] + Q[n - 1].shift(-2)
        out[f"christoffel n={n}"] = d2q - P[n + 1] - c1 * P[n] + c2 * P[n - 1]
    for n in range(1, fam.size // 2 + 1):
        am = a(fam, 2 * n - 1)
        dq = Z_MINUS_ZINV * Q[n - 1]
        out[f"P from psi n={n}"] = P[n] - psi[2 * n] - (1 + am) * psi[2 * n - 1]
        out[f"Q from psi n={n}"] = dq + psi[2 * n] + (am - 1) * psi[2 * n - 1]
    for n in range(1, p_top(fam.size) + 1):
        a2 = a(fam, 2 * n - 2)
        c2 = (1 - a(fam, 2 * n - 3)) * (1 - a2 ** 2)
        num = LaurentPoly({1: 1, 0: a2}) * P[n] - c2 * P[n - 1]
        out[f"psi(P,P) n={2 * n - 1}"] = psi[2 * n - 1] - num.div_exact(Z_MINUS_ZINV)
        if 2 * n <= fam.size:
            am = a(fam, 2 * n - 1)
            num = (1 + am) * c2 * P[n - 1] - LaurentPoly({1: am, 0: a2 * (1 + am), -1: 1}) * P[n]
            out[f"psi(P,P) n={2 * n}"] = psi[2 * n] - num.div_exact(Z_MINUS_ZINV)
    return out


def direct_closure(fam):
    """The fit by expanding x p_n - p_{n+1} at every step: b_n and u_n read
    off it, and the span tested on what b_n p_n + u_n p_{n-1} leaves."""
    if fam.size < 3:
        raise ValueError("need a family of size >= 3")
    out = {}
    for name, tilde, build, b_of, u_of, top in (
        ("P", "", build_p, szego.b_coeff, szego.u_coeff, p_top(fam.size) - 1),
        ("Q", "~", build_q, szego.bt_coeff, szego.ut_coeff, q_top(fam.size) - 1),
    ):
        chain = [build(fam, n) for n in range(top + 2)]
        for n, f in enumerate(chain):
            if f.coeff(n) != 1 or f.max_exp != n:
                raise ValueError(f"chain element {n} is not monic of degree {n}")
        clean = True
        for n in range(top + 1):
            diff = Z_PLUS_ZINV * chain[n] - chain[n + 1]
            fit = {"b": diff.coeff(n)}
            if n >= 1:
                fit["u"] = diff.coeff(n - 1) - fit["b"] * chain[n].coeff(n - 1)
                clean &= (diff - fit["b"] * chain[n] - fit["u"] * chain[n - 1]).is_zero
            for sym, got in fit.items():
                want = (b_of if sym == "b" else u_of)(fam, n)
                label = f"{sym}{tilde}_{n}"
                out[label] = Check(label, got == want, "" if got == want else f"fit {got} != {want}")
        out[f"{name} chain in span"] = Check(f"{name} chain in span", clean)
    return out


def direct_classical(fam):
    """P_n and Q_n against the oracle chain walked step by step, at
    (alpha, beta) and (alpha + 1, beta + 1)."""
    p, out = fam.params, {}
    for name, build, top, shift in (("P", build_p, p_top(fam.size), 0),
                                    ("Q", build_q, q_top(fam.size), 1)):
        for n, oracle in enumerate(classical_jacobi_chain(p.alpha + shift, p.beta + shift, top)):
            out[f"{name} n={n}"] = lc([(1, build(fam, n)), (-1, oracle)])
    return out


def direct_ode(fam):
    """The z-form ODE from P_n' and P_n'', and theta P_n - n (z - 1/z) Q_{n-1}."""
    al, be = fam.params.alpha, fam.params.beta
    z2 = LaurentPoly.monomial(2)
    drift = LaurentPoly({3: al + be + 2, 2: 2 * (al - be), 1: al + be})
    out = {}
    for n in range(p_top(fam.size) + 1):
        f = build_p(fam, n)
        f1 = f.deriv()
        ev = n * (n + al + be + 1)
        out[f"ODE n={n}"] = (z2 - 1) * z2 * f1.deriv() + drift * f1 - ev * (z2 - 1) * f
        theta = f.theta()
        out[f"theta-PQ n={n}"] = theta - n * Z_MINUS_ZINV * build_q(fam, n - 1) if n else theta
    return out


def direct_raising(fam):
    """H_n = (z - 1/z) theta Q_{n-1} + (sigma x + delta) Q_{n-1} - mu_n P_n."""
    al, be = fam.params.alpha, fam.params.beta
    out = {}
    for n in range(1, p_top(fam.size) + 1):
        q = build_q(fam, n - 1)
        out[n] = (Z_MINUS_ZINV * q.theta() + ((al + be + 2) * Z_PLUS_ZINV + 2 * (al - be)) * q
                  - (n + al + be + 1) * build_p(fam, n))
    return out


# --------------------------------------------------------------------------
# Families
# --------------------------------------------------------------------------


def _rational(rng, top=5):
    return F(rng.randint(-top, top), rng.randint(1, 7))


def _point(rng):
    return JacobiParams(F(rng.randint(-9, 30), 10), F(rng.randint(-9, 30), 10))


def corrupted_family(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    return suites.family(_point(rng), n, corrupt_a=rng.randint(0, n - 1))


def perturbed_family(seed, tagged=True, odd=False):
    """A family whose psi_n, P_n and Q_n are moved at random: psi by
    rational monomials, Q_n by a symmetric polynomial, and P_n by a
    symmetric multiple of (z - 1/z)^2, which keeps the psi(P,P) divisions
    exact.  Untagged families carry random coefficients and no params;
    odd ones have an odd size, whose top P_n and F_n have no psi_2n."""
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    if odd:
        n |= 1
    if tagged:
        base = build_family(_point(rng), n)
    else:
        base = family_from_verblunsky([F(rng.randint(-9, 9), 10) for _ in range(n + 1)])
    psi = tuple(
        f + LaurentPoly.monomial(rng.randint(-k // 2 - 1, k // 2 + 1), _rational(rng))
        if rng.random() < 0.5 else f
        for k, f in enumerate(base.psi)
    )
    fam = OPUCFamily(params=base.params, a=base.a, phi=base.phi, h=base.h, psi=psi)
    x = Z_PLUS_ZINV
    d2 = Z_MINUS_ZINV * Z_MINUS_ZINV
    for k in range(p_top(n) + 1):
        move = d2 * x ** rng.randint(0, 2) * _rational(rng) if rng.random() < 0.5 else 0
        fam.derived[("P", k)] = build_p(base, k) + move
    for k in range(q_top(n) + 1):
        move = x ** rng.randint(0, 2) * _rational(rng) if rng.random() < 0.5 else 0
        fam.derived[("Q", k)] = build_q(base, k) + move
    return fam


def shifted_family(seed):
    """A family whose P_k and Q_j, k >= 2 and j >= 1 drawn at random, are
    moved by rational constants: both chains stay monic, so the recurrence
    fit reads them, but x P_k - P_{k+1} leaves span(P_k, P_{k-1}), and
    (z - 1/z) no longer divides the psi(P,P) numerators of P_k."""
    rng = random.Random(seed)
    n = rng.randint(5, 14)
    fam = build_family(_point(rng), n)
    k, j = rng.randint(2, p_top(n)), rng.randint(1, q_top(n))
    fam.derived[("P", k)] = build_p(fam, k) + rng.randint(1, 9)
    fam.derived[("Q", j)] = build_q(fam, j) + _rational(rng) + 1
    return fam


SEEDS = range(20)


def _families(seed):
    return [corrupted_family(seed), perturbed_family(seed), perturbed_family(seed, tagged=False),
            perturbed_family(seed, odd=True), shifted_family(seed)]


# --------------------------------------------------------------------------
# Comparison
# --------------------------------------------------------------------------


def _verdict(label, res):
    """The check a report records for res under label."""
    if isinstance(res, Check):
        return res
    return Check(label, res.is_zero, "" if res.is_zero else res.text())


def _with_direct(rep, direct):
    """rep with every check named in direct replaced by the direct verdict."""
    labels = [c.label for c in rep.checks]
    assert set(direct) <= set(labels)
    want = copy.deepcopy(rep)
    want.checks = [_verdict(c.label, direct[c.label]) if c.label in direct else c
                   for c in rep.checks]
    return want


def assert_matches_direct(verify, direct, fam):
    """verify(fam) reads what the direct formulas read, or raises as they do."""
    try:
        want = direct(fam)
    except Exception as exc:  # the rewrite must raise the same error
        with pytest.raises(type(exc)):
            verify(fam)
        return
    rep = verify(fam)
    assert rep.to_dict() == _with_direct(rep, want).to_dict()


# (report, direct formulas, whether the report needs the family's params)
CASES = [
    pytest.param(dunkl.verify_bispectral, direct_bispectral, True, id="bispectral"),
    pytest.param(algebra.y_eigencheck, direct_y_eigen, True, id="y_eigencheck"),
    pytest.param(cmv.verify_reflection_rows, direct_reflection, False, id="reflection_rows"),
    pytest.param(cmv.verify_gevp_and_five_term, direct_cmv_rows, False,
                 id="gevp_and_five_term"),
    pytest.param(szego.verify_three_term, direct_three_term, False, id="three_term"),
    pytest.param(szego.verify_transforms, direct_transforms, False, id="transforms"),
    pytest.param(szego.verify_recurrence_closure, direct_closure, False,
                 id="recurrence_closure"),
    pytest.param(szego.verify_classical_match, direct_classical, True, id="classical_match"),
    pytest.param(szego.verify_dep_and_pq_identity, direct_ode, True, id="dep_and_pq"),
    pytest.param(partial(algebra.verify_central_extension, d=3, matrix_size=9),
                 partial(direct_central_functional, d=3), True, id="central_extension"),
]


class TestReferenceModel:
    @pytest.mark.parametrize("verify,direct,needs_params", CASES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rewritten_reports_equal_direct_formulas(self, verify, direct, needs_params, seed):
        for fam in _families(seed):
            if fam.params is not None or not needs_params:
                assert_matches_direct(verify, direct, fam)

    @pytest.mark.parametrize("move", ["a", "P", "Q"])
    @pytest.mark.parametrize("seed", range(6))
    def test_even_psi_pq_rows_reach_each_bracket_term(self, move, seed):
        # E_2n is formed from E_{2n-1}, the M1 row A_{2n-1} and three bracket
        # terms, each formed only when its factor is nonzero: a corrupted
        # odd a_k moves a' = a_k off the reference a that M1 reads, and an
        # asymmetric P_n or Q_{n-1} patched into the memo moves P_n* - P_n
        # or Q_{n-1}* - Q_{n-1} off zero
        rng = random.Random(seed)
        size = rng.randint(4, 14)
        n = rng.randint(1, size // 2)
        p = _point(rng)
        fam = suites.family(p, size, corrupt_a=2 * n - 1 if move == "a" else None)
        bump = LaurentPoly.monomial(rng.choice([-2, -1, 1, 2]), _rational(rng) or 1)
        if move == "P":
            fam.derived[("P", n)] = build_p(fam, n) + bump
        elif move == "Q":
            fam.derived[("Q", n - 1)] = build_q(fam, n - 1) + bump
        factor = {"a": fam.a[2 * n - 1] - verblunsky(p, 2 * n - 1),
                  "P": build_p(fam, n).reflect() - build_p(fam, n),
                  "Q": build_q(fam, n - 1).reflect() - build_q(fam, n - 1)}[move]
        got = szego.psi_pq_residuals(fam)
        assert factor and got == direct_psi_pq(fam)
        if move == "a":
            # psi_2n moves off the reference M1 row, and the a' - a term
            # cancels A_{2n-1}: E_2n, read off fam.a, stays zero
            assert fam.derived[("reflection", 1, 2 * n - 1)] and not got[2 * n]
        else:
            assert got[2 * n]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fused_k_residual_equals_direct(self, seed):
        # k_residual forms K psi_n - lambda_n psi_n inside apply_k's one
        # integer pass; direct_bispectral takes apply_k(psi_n) and
        # lambda_n psi_n through a separate lincomb
        rng = random.Random(seed)
        clean = build_family(_point(rng), rng.randint(3, 30))
        moved = [corrupted_family(seed), perturbed_family(seed),
                 perturbed_family(seed, odd=True), shifted_family(seed)]
        for fam in [clean, *moved]:
            got = {f"n={n}": dunkl.k_residual(fam, n) for n in range(fam.size + 1)}
            assert got == direct_bispectral(fam)
        assert not any(dunkl.k_residual(clean, n) for n in range(clean.size + 1))
        assert any(dunkl.k_residual(moved[1], n) for n in range(moved[1].size + 1))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raising_residuals_equal_direct(self, seed):
        for fam in _families(seed):
            if fam.params is not None:
                assert szego.raising_residuals(fam) == direct_raising(fam)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_central_extension_tie_in(self, seed):
        for fam in _families(seed)[:2]:
            rep = algebra.verify_central_extension(fam, d=2, matrix_size=9)
            assert rep.checks[-1] == direct_tie_in(fam, 9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_tie_in_rows_from_reflection_residuals_equal_direct(self, seed):
        # row n of M1 M2 psi - z psi_n (m = 1) and of M2 M1 psi - psi_n / z
        # (m = 2), formed from the held reflection residuals, is what the
        # product matrices at N + 1 give applied to psi, on every row where
        # the product is valid; the tie-in reads the sum of the two rows, and
        # the CMV rows the first: clean, corrupted and perturbed families
        rng = random.Random(seed)
        clean = build_family(_point(rng), rng.randint(3, 30))
        for fam in [clean, *_families(seed)[:4]]:
            m1, m2 = cmv.family_operators(fam, fam.size + 1)
            for m, prod, power in ((1, m1 @ m2, 1), (2, m2 @ m1, -1)):
                for n in range(prod.valid_rows):
                    want = apply_row(prod, n, fam.psi) - fam.psi[n].shift(power)
                    assert cmv.product_residual(fam, m, n) == want, (m, n)
        assert not any(cmv.product_residual(clean, m, n)
                       for m in (1, 2) for n in range(clean.size - 1))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reflection_rows_equal_direct_at_every_valid_size(self, seed):
        # reflection_residual reads M1 and M2 at N + 1 alone, so its row n
        # must be the direct row of M1 or M2 at every size where that row is
        # valid and reaches psi_N at most: a valid row is the same at every size
        rng = random.Random(seed)
        clean = build_family(_point(rng), rng.randint(3, 30))
        for fam in [clean, *_families(seed)[:4]]:
            # an untagged family has no a_k past a_N to build larger sizes from
            top = fam.size + 4 if fam.params else fam.size + 1
            for size in range(1, top + 1):
                for m, op in enumerate(cmv.family_operators(fam, size), 1):
                    for n in range(min(op.valid_rows, fam.size + 1)):
                        if support(op.rows[n])[-1] <= fam.size:
                            want = lc([(1, fam.psi[n].reflect().shift(m - 1)),
                                       *row_terms(op, n, fam.psi, -1)])
                            assert cmv.reflection_residual(fam, m, n) == want, (size, m, n)
            # a row that is cut or absent at N + 1 is refused, not held
            for m, op in enumerate(cmv.family_operators(fam, fam.size + 1), 1):
                with pytest.raises(ValueError, match=f"row {op.valid_rows} of M{m} is not valid"):
                    cmv.reflection_residual(fam, m, op.valid_rows)

    def test_tie_in_reads_the_held_y_psi_residuals(self, monkeypatch):
        # after the Y eigencheck, the central extension's psi rows take no
        # r_n through K: "Y psi" is one build that both reports read
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 40)
        y_psi = algebra.y_eigencheck(fam).checks
        calls = [0]
        orig = algebra.apply_k

        def counted(*args):
            calls[0] += 1
            return orig(*args)

        monkeypatch.setattr(algebra, "apply_k", counted)
        rep = algebra.verify_central_extension(fam, d=10, matrix_size=21)
        assert rep.ok and y_psi and calls[0] == 26  # K z^j for j = -12 .. 13 only
        assert [fam.derived[("Y psi", n)] for n in range(41)] == [LaurentPoly.zero()] * 41

    @pytest.mark.parametrize("n", [3, 7, 11, 16, 40])
    @pytest.mark.parametrize("alpha,beta", [(F(3, 7), F(-2, 5)), (F(1), F(1))])
    def test_central_extension_tie_in_on_suite_families(self, alpha, beta, n):
        # the algebra suite's matrix size, max(7, min(n + 1, 21)), cuts
        # M1's last block at n = 7 and 11 and M2's at n = 16 and 40, and
        # passes N + 1 at n = 3; a corrupted a_k moves psi_(k+1) onwards
        p, size = JacobiParams(alpha, beta), max(7, min(n + 1, 21))
        verdicts = []
        for k in [None, *sorted({0, 3, 17, 18, n - 1} & set(range(n)))]:
            fam = suites.family(p, n, k)
            want = direct_tie_in(fam, size)
            assert algebra.verify_central_extension(fam, d=2, matrix_size=size).checks[-1] \
                == want, k
            verdicts.append(want.ok)
        assert verdicts[0] and not all(verdicts)

    def test_perturbed_families_exercise_every_rewrite(self):
        # the comparison above shows something only if the base residuals
        # and the checks formed from them are nonzero on these families;
        # a perturbed chain may stop being monic, and a shifted one stops
        # the psi(P,P) division, so those reports raise instead
        failing, raising = {}, set()
        for seed in SEEDS:
            for fam in (perturbed_family(seed), perturbed_family(seed, odd=True),
                        shifted_family(seed)):
                for verify in (dunkl.verify_bispectral, algebra.y_eigencheck,
                               cmv.verify_reflection_rows, cmv.verify_gevp_and_five_term,
                               szego.verify_three_term, szego.verify_transforms,
                               szego.verify_recurrence_closure, szego.verify_classical_match,
                               szego.verify_dep_and_pq_identity):
                    try:
                        rep = verify(fam)
                    except (ValueError, NotDivisible):
                        continue
                    failing.setdefault(rep.identity, set()).update(c.label for c in rep.failures)
                raising |= {n for n, h in szego.raising_residuals(fam).items() if h}
        labels = set().union(*failing.values())
        for prefix in ("n=", "Y psi n=", "Y P n=", "Y F n=", "M1 row", "M2 row", "pencil row",
                       "C row", "P n=", "Q n=", "christoffel n=", "christoffel' n=",
                       "psi(P,Q) n=", "psi(P,P) n=", "P from psi n=", "Q from psi n=",
                       "P chain in span", "Q chain in span"):
            assert any(label.startswith(prefix) for label in labels), prefix
        for identity, prefix in (("classical-match", "P n="), ("classical-match", "Q n="),
                                 ("hypergeometric-ode", "ODE n="),
                                 ("hypergeometric-ode", "theta-PQ n=")):
            assert any(label.startswith(prefix) for label in failing[identity]), prefix
        # H_1 is formed directly; the derived steps must see nonzero H_n too
        assert raising - {1}

    def test_odd_families_reach_the_top_pair(self):
        # at odd N the top P_n and F_n are formed without psi_2n
        for seed in SEEDS:
            fam = perturbed_family(seed, odd=True)
            top = p_top(fam.size)
            assert fam.size % 2 and 2 * top > fam.size
            labels = {c.label for c in algebra.y_eigencheck(fam).checks}
            assert {f"Y P n={top}", f"Y F n={top}"} <= labels

    @pytest.mark.parametrize("seed", SEEDS)
    def test_psi_pp_division_fails_as_direct(self, seed):
        # moving P_k by a constant leaves a numerator that z - 1/z does
        # not divide; the report raises as the direct formula does
        fam = shifted_family(seed)
        with pytest.raises(NotDivisible):
            direct_transforms(fam)
        with pytest.raises(NotDivisible):
            szego.verify_transforms(fam)

    def test_small_family_raises_as_direct(self):
        # the recurrence reports need size >= 3; the classical match and the
        # ODE read no recurrence step they do not hold and run at sizes 1
        # and 2 (at size 0 there is no Q_0, and the match raises as the
        # oracle chain does)
        p = JacobiParams(F(1), F(2))
        fam = build_family(p, 2)
        for verify, direct in ((szego.verify_three_term, direct_three_term),
                               (szego.verify_transforms, direct_transforms)):
            with pytest.raises(ValueError):
                direct(fam)
            assert_matches_direct(verify, direct, fam)
        for fam in (family_from_verblunsky([verblunsky(p, 0)], params=p),
                    build_family(p, 1), build_family(p, 2)):
            for verify, direct in ((szego.verify_classical_match, direct_classical),
                                   (szego.verify_dep_and_pq_identity, direct_ode)):
                assert_matches_direct(verify, direct, fam)
                if fam.size:
                    assert verify(fam).ok


# --------------------------------------------------------------------------
# The algebra-Szego dictionary
# --------------------------------------------------------------------------


def _dictionary_families():
    """A high-height point, clean and with a_k corrupted inside and past the
    Szego suite's reach, and every tagged family kind above for ten seeds."""
    point = JacobiParams(F(3, 7), F(-2, 5))
    out = [pytest.param(partial(suites.family, point, 12, corrupt_a=k), id=f"a_{k} corrupt")
           for k in (2, 11)]
    out.append(pytest.param(partial(suites.family, point, 12), id="clean"))
    for name, make in (("corrupted", corrupted_family), ("perturbed", perturbed_family),
                       ("perturbed odd", partial(perturbed_family, odd=True)),
                       ("shifted", shifted_family)):
        out += [pytest.param(partial(make, seed), id=f"{name} {seed}") for seed in range(10)]
    return out


@pytest.mark.parametrize("make", _dictionary_families())
class TestAlgebraSzegoDictionary:
    """The Szego residuals and the algebra's residuals in terms of each
    other.  With F_n = (z - 1/z) Q_{n-1}, G_n = theta P_n - n F_n (the
    "theta-PQ n" residual), H_n the raising residuals, mu_n = n + s,
    E_k the psi(P,Q) residuals and r_k = K psi_k - lambda_k psi_k:

        H_n = (K - s) F_n - mu_n P_n,
        Y P_n - Lambda_2n P_n = (K - s) G_n + n H_n,
        Y F_n - Lambda_2n F_n = K H_n + mu_n G_n,
        ODE_n = (z^2 - 1)(Y P_n - Lambda_2n P_n),
        r_{2n-1} = (G_n + H_n) / 2 + (K - lambda_{2n-1}) E_{2n-1},
        r_2n = ((1 - a) G_n - (1 + a) H_n) / 2 - (s + a (2n + s))(F_n + P_n) / 2
               + (K + n) E_2n,

    a = a_{2n-1}.  They hold for any psi_n and any reflection-symmetric
    P_n and Q_n, so on corrupted and perturbed families too, where the
    residuals are not zero."""

    @staticmethod
    def _parts(fam):
        """p, K, and n -> (P_n, F_n, G_n, H_n); F_0 and H_0 are zero."""
        p, zero = fam.params, LaurentPoly.zero()
        raising = szego.raising_residuals(fam)
        out = {}
        for n in range(p_top(fam.size) + 1):
            pn = build_p(fam, n)
            fn = Z_MINUS_ZINV * build_q(fam, n - 1) if n else zero
            out[n] = (pn, fn, lc([(1, pn.theta()), (-n, fn)]), raising.get(n, zero))
        return p, partial(apply_k, p=p), out

    def test_raising_is_k_on_f(self, make):
        p, k, parts = self._parts(make())
        for n, (pn, fn, _, h) in parts.items():
            if n:
                assert h == lc([(1, k(fn)), (-p.s, fn), (-(n + p.s), pn)])

    def test_y_p_and_ode(self, make):
        fam = make()
        p, k, parts = self._parts(fam)
        y_checks = {c.label: c for c in algebra.y_eigencheck(fam).checks}
        ode_checks = {c.label: c for c in szego.verify_dep_and_pq_identity(fam).checks}
        z2_minus_1 = LaurentPoly({2: 1, 0: -1})
        for n, (_, _, g, h) in parts.items():
            y_p = lc([(1, k(g)), (-p.s, g), (n, h)])
            assert y_checks[f"Y P n={n}"] == _verdict(f"Y P n={n}", y_p)
            assert ode_checks[f"ODE n={n}"] == _verdict(f"ODE n={n}", z2_minus_1 * y_p)

    def test_y_f(self, make):
        fam = make()
        p, k, parts = self._parts(fam)
        y_checks = {c.label: c for c in algebra.y_eigencheck(fam).checks}
        for n in range(1, q_top(fam.size) + 2):
            _, _, g, h = parts[n]
            assert y_checks[f"Y F n={n}"] == _verdict(f"Y F n={n}", lc([(1, k(h)), (n + p.s, g)]))

    def test_k_residual_from_szego(self, make):
        fam = make()
        p, k, parts = self._parts(fam)
        e, s = szego.psi_pq_residuals(fam), p.s
        for n, (pn, fn, g, h) in parts.items():
            if not n:
                continue
            odd = 2 * n - 1
            assert dunkl.k_residual(fam, odd) == lc(
                [(F(1, 2), g), (F(1, 2), h), (1, k(e[odd])), (-lambda_n(p, odd), e[odd])])
            if 2 * n <= fam.size:
                a = fam.a[odd]
                c = -(s + a * (2 * n + s)) / 2
                assert dunkl.k_residual(fam, 2 * n) == lc(
                    [((1 - a) / 2, g), (-(1 + a) / 2, h), (c, fn), (c, pn),
                     (1, k(e[2 * n])), (n, e[2 * n])])


# --------------------------------------------------------------------------
# The free algebra behind the central extension's monomial checks
# --------------------------------------------------------------------------


def _mat(rng):
    return [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(5)] for _ in range(5)]


def _mul(*factors):
    out = factors[0]
    for b in factors[1:]:
        out = [[sum(r[k] * b[k][j] for k in range(5)) for j in range(5)] for r in out]
    return out


def _sum(*terms):
    """sum(c * M for c, M in terms)."""
    return [[sum(c * m[i][j] for c, m in terms) for j in range(5)] for i in range(5)]


def _comm(a, b):
    return _sum((1, _mul(a, b)), (-1, _mul(b, a)))


class TestFreeAlgebra:
    """Random exact matrices obey no relation, so an identity that holds
    for them holds in the free algebra on A = M1, B = M2 and K.  These
    are the expansions verify_central_extension forms its monomial
    checks from."""

    @pytest.mark.parametrize("seed", range(3))
    def test_expansions(self, seed):
        rng = random.Random(seed)
        a, b, k = _mat(rng), _mat(rng), _mat(rng)
        s, d = F(rng.randint(-9, 9), 7), F(rng.randint(-9, 9), 5)
        eye = [[F(i == j) for j in range(5)] for i in range(5)]
        r1 = _sum((1, _mul(a, a)), (-1, eye))
        r2 = _sum((1, _mul(b, b)), (-1, eye))
        r3 = _sum((1, _mul(k, a)), (1, _mul(a, k)), (-s, a), (s, eye))
        r4 = _sum((1, _mul(k, b)), (1, _mul(b, k)), (-(s + 1), b), (-d, eye))
        x = _sum((1, _mul(a, b)), (1, _mul(b, a)))
        c = _sum((1, _mul(a, b)), (-1, _mul(b, a)))
        y = _sum((1, _mul(k, k)), (-s, k))
        e1 = _sum((1, _mul(a, r4)), (-1, _mul(r4, a)), (1, _mul(b, r3)), (-1, _mul(r3, b)))
        e2 = _sum((1, _mul(a, r4)), (1, _mul(r4, a)), (-1, _mul(b, r3)), (-1, _mul(r3, b)))
        assert r1 != _sum() and r3 != _sum()  # the relations do not hold

        assert _comm(x, a) == _sum((1, _mul(b, r1)), (-1, _mul(r1, b)))
        assert _comm(y, a) == _sum((1, _mul(k, r3)), (-1, _mul(r3, k)))
        assert _comm(x, k) == _sum((1, c), (1, e1))
        assert _comm(c, k) == _sum((1, x), (2 * d, a), (2 * s, b), (1, e2))

        jr1 = _sum((1, _comm(x, _comm(x, y))), (-2, _mul(x, x)), (8, eye))
        h = _sum((-2, r1), (2, r2), (-2, _mul(a, r2, a)), (2, _mul(b, r1, b)), (1, _comm(x, e1)))
        assert jr1 == _sum(
            (-4, r1), (-4, r2), (-4, _mul(a, r2, a)), (-4, _mul(b, r1, b)),
            (2, _mul(c, e1)), (2, _mul(e1, c)), (2, _mul(e1, e1)),
            (1, _mul(h, k)), (1, _mul(k, h)), (-s, h))

        # c_x = (a+b)(a+b+2) = s^2 - 1, c_m1 = 2(b-a) = -2d, c_i = 2ds
        jr2 = _sum((1, _comm(y, _comm(y, x))), (-2, _mul(x, y)), (-2, _mul(y, x)),
                   (-(s * s - 1), x), (2 * d, a), (-2 * d * s, eye))
        sigma = _sum((2 * d, r3), (2 * s, r4), (1, _mul(k, e2)), (1, _mul(e2, k)), (-s, e2),
                     (-1, _comm(y, e1)))
        assert jr2 == _sum((-1, e2), (1, _comm(k, e1)), (2 * s, r4),
                           (1, _mul(sigma, k)), (1, _mul(k, sigma)), (-s, sigma))

    def test_functional_x_and_c(self):
        # X = M1 M2 + M2 M1 multiplies by z + 1/z, and C = M1 M2 - M2 M1 by 1/z - z
        m1, m2 = (partial(cmv.reflection, m=m) for m in (1, 2))
        f = LaurentPoly({-2: F(1, 3), 0: 2, 5: -1})
        assert lc([(1, m1(m2(f))), (1, m2(m1(f)))]) == Z_PLUS_ZINV * f
        assert lc([(1, m1(m2(f))), (-1, m2(m1(f)))]) == -Z_MINUS_ZINV * f


# --------------------------------------------------------------------------
# The central extension's monomial checks under a wrong K
# --------------------------------------------------------------------------


def wrong_k(kind, d):
    """A linear K that breaks the defining relations.  "shift" adds
    (1/97) z f - (3/11) theta f and "z-theta" adds (1/50) z theta f.
    "window" adds (1/7)(z - 1/z) times the part of f in V_(d+3): an
    antisymmetric multiplier anticommutes with R and z R, so both
    relations still hold on V_(d+2), but K no longer keeps levels.
    "edge" adds 1/5 of f's z^-(d+2) term, which keeps levels and leaves
    both relations intact on V_(d+1)."""
    extra = {
        "shift": lambda f: [(F(1, 97), f.shift(1)), (F(-3, 11), f.theta())],
        "z-theta": lambda f: [(F(1, 50), f.theta().shift(1))],
        "window": lambda f: [(F(1, 7), Z_MINUS_ZINV * LaurentPoly(
            (k, c) for k, c in f.items() if abs(k) <= d + 3))],
        "edge": lambda f: [(F(1, 5) * f.coeff(-d - 2), LaurentPoly.monomial(-d - 2))],
    }[kind]
    return lambda f, p: lc([(1, apply_k(f, p)), *extra(f)])


def central_comparison(alpha, beta, d, kind=None):
    """The monomial checks of verify_central_extension and of
    direct_central_functional as [label, ok, detail] lists, under
    ``wrong_k(kind, d)`` or, without a kind, the true K."""
    fam = build_family(JacobiParams(F(alpha), F(beta)), 12)
    orig = algebra.apply_k
    if kind:
        algebra.apply_k = wrong_k(kind, d)
    try:
        rep = algebra.verify_central_extension(fam, d=d, matrix_size=9)
        want = direct_central_functional(fam, d)
    finally:
        algebra.apply_k = orig
    got = [[c.label, c.ok, c.detail] for c in rep.checks if c.label in want]
    return got, [[label, res.is_zero, "" if res.is_zero else res.text()]
                 for label, res in want.items()]


def _failing(checks):
    return {label.split(" ")[0] for label, ok, _ in checks if not ok}


class TestCentralExtensionMonomials:
    @pytest.mark.parametrize("d", [3, 10])
    @pytest.mark.parametrize("alpha,beta", [*GRID, (F(3, 7), F(-2, 5)), (F(2, 3), F(2, 3))])
    def test_clean_points_equal_direct(self, alpha, beta, d):
        got, want = central_comparison(alpha, beta, d)
        assert got == want
        assert not _failing(got)
        assert ("extension term drops at alpha=beta" in [c[0] for c in got]) == (alpha == beta)

    @pytest.mark.parametrize("d", [3, 10])
    @pytest.mark.parametrize("alpha,beta", [(F(1), F(2)), (F(3, 7), F(-2, 5)), (F(1), F(1))])
    @pytest.mark.parametrize("kind", ["shift", "z-theta"])
    def test_wrong_k_equals_direct(self, kind, alpha, beta, d):
        got, want = central_comparison(alpha, beta, d, kind)
        assert got == want
        assert {"[Y,M1]", "JR1", "JR2"} <= _failing(got)
        assert "[X,M1]" not in _failing(got)

    @pytest.mark.parametrize("d", [3, 10])
    def test_level_guard_decides_the_window_k(self, d):
        # every relation residual held on V_(d+2) is zero under the window
        # K, yet JR2 fails: only the guard that K keeps levels sends it down
        # the path that forms the checks
        p = JacobiParams(F(3, 7), F(-2, 5))
        orig = algebra.apply_k
        algebra.apply_k = wrong_k("window", d)
        try:
            assert algebra.verify_relations_functional(build_family(p, 3), d + 2).ok
        finally:
            algebra.apply_k = orig
        got, want = central_comparison(p.alpha, p.beta, d, "window")
        assert got == want
        assert "JR2" in _failing(got)

    @pytest.mark.parametrize("d", [3, 10])
    def test_window_reaches_every_level_the_checks_read(self, d):
        # the edge K is wrong only on z^-(d+2), which JR1 reads through
        # Y X X z^-d; a window of held residuals narrower than V_(d+2)
        # would not see it
        p = JacobiParams(F(3, 7), F(-2, 5))
        orig = algebra.apply_k
        algebra.apply_k = wrong_k("edge", d)
        try:
            fam = build_family(p, 3)  # holds the wrong K's images
            assert algebra.verify_relations_functional(fam, d + 1).ok
            assert not algebra.verify_relations_functional(fam, d + 2).ok
        finally:
            algebra.apply_k = orig
        got, want = central_comparison(p.alpha, p.beta, d, "edge")
        assert got == want
        assert "JR1" in _failing(got)

    def test_detection_survives_optimize_flag(self):
        # python -O strips every assert, so neither the zero short-circuit
        # nor its guard may rest on one
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(here), "src"), here]))
        code = ("import json, test_derived as t; "
                "print(json.dumps(t.central_comparison(1, 1, 3, 'shift')))")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, cwd=here, env=env)
        assert proc.returncode == 0, proc.stderr
        got, want = json.loads(proc.stdout)
        assert got == want
        assert {"[Y,M1]", "JR1", "JR2", "extension"} <= _failing(got)


# --------------------------------------------------------------------------
# The algebra's matrix side: the held relation residuals and their expansions
# --------------------------------------------------------------------------


def _matrix_verdict(label, res):
    """The check and the skipped rows a matrix residual reads as."""
    n = res.valid_rows
    bad = [i for i in sorted(res.rows) if i < n]
    check = Check(label, not bad, f"rows {bad[:4]} differ" if bad else f"{n} rows agree")
    return check, [f"{label}: rows {n}..{res.size - 1} (truncation boundary)"] if n < res.size else []


def assert_matrix_checks_match_direct(monkeypatch, fam, size):
    """The matrix relations and the central extension at this size against
    their definitions: each check is formed from a residual equal to the
    direct one on every row, valid on as many rows, and reads as it does."""
    seen = {}
    orig = algebra._rows_match

    def record(rep, label, res):
        seen[label] = (res.rows, res.valid_rows)
        orig(rep, label, res)

    monkeypatch.setattr(algebra, "_rows_match", record)
    reps = [algebra.verify_relations_matrix(fam, size),
            algebra.verify_central_extension(fam, d=2, matrix_size=size)]
    monkeypatch.setattr(algebra, "_rows_match", orig)
    direct = {**direct_relations_matrix(fam, size), **direct_central_matrix(fam, size)}
    assert list(seen) == list(direct)
    checks = {c.label: c for rep in reps for c in rep.checks}
    skips = []
    for label, res in direct.items():
        assert seen[label] == (res.rows, res.valid_rows), label
        check, skip = _matrix_verdict(label, res)
        assert checks[label] == check
        skips += skip
    assert [line for rep in reps for line in rep.skipped] == skips
    return checks


MATRIX_POINTS = [*GRID, (F(3, 7), F(-2, 5)), (F(2, 3), F(2, 3))]


class TestMatrixSideEqualsDefinitions:
    @pytest.mark.parametrize("alpha,beta", MATRIX_POINTS)
    def test_clean_points(self, monkeypatch, alpha, beta):
        # sizes 7 and 8 cut the last block of M2 and of M1; every size
        # from 3 to 23 meets both parities at both ends
        fam = build_family(JacobiParams(alpha, beta), 24)
        for size in range(3, 24):
            checks = assert_matrix_checks_match_direct(monkeypatch, fam, size)
            assert all(c.ok for c in checks.values())

    @pytest.mark.parametrize("size", [7, 8, 9, 20, 21])
    def test_wrong_table_entry(self, monkeypatch, size):
        # a wrong e of {K, M2} is d of the expansions, and keeps the shape
        # they take r3 and r4 in: r4 is nonzero on every row, and every
        # term that reads it is formed
        table = algebra.relation_constants

        def wrong(alpha, beta):
            m1_rel, (c, e) = table(alpha, beta)
            return m1_rel, (c, e + F(1, 100))

        monkeypatch.setattr(algebra, "relation_constants", wrong)
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 24)
        checks = assert_matrix_checks_match_direct(monkeypatch, fam, size)
        assert not checks["M2 relation"].ok

    @pytest.mark.parametrize("size", [7, 8, 9, 20, 21])
    @pytest.mark.parametrize("moved", [0, 5, 6, "last"])
    @pytest.mark.parametrize("alpha,beta", [(F(3, 7), F(-2, 5)), (F(1), F(1))])
    def test_wrong_k_diagonal(self, monkeypatch, alpha, beta, moved, size):
        # lambda_n moved at one n breaks both relations on the rows its
        # blocks reach, so r3 and r4 are nonzero and every expansion term
        # is formed
        moved = size - 1 if moved == "last" else moved
        orig = algebra.lambda_n
        monkeypatch.setattr(algebra, "lambda_n",
                            lambda p, n: orig(p, n) + (F(1, 3) if n == moved else 0))
        fam = build_family(JacobiParams(alpha, beta), 24)
        checks = assert_matrix_checks_match_direct(monkeypatch, fam, size)
        assert not (checks["M1 relation"].ok and checks["M2 relation"].ok)

    @pytest.mark.parametrize("alpha,beta", [(F(3, 7), F(-2, 5)), (F(-1, 2), F(-1, 2)),
                                            (F(1), F(1))])
    def test_expansions_carry_the_definitions_valid_rows(self, alpha, beta):
        # valid rows and bandwidths depend on the size, the scalars that
        # vanish (s = 0 at the free point, d = 0 at alpha = beta) and which
        # of M1, M2 the truncation cuts, never on the entries; so operators
        # with the representation's metadata and no entries carry the
        # counts both forms report, at sizes far past the row comparisons
        p = JacobiParams(alpha, beta)
        s, d = p.s, p.d
        lcb = BandedOperator.lincomb
        for size in range(3, 121):
            m1 = BandedOperator(size, {}, 1, size - (size % 2 == 0))
            m2 = BandedOperator(size, {}, 1, size - size % 2)
            k, eye = (BandedOperator(size, {}, 0, size) for _ in range(2))
            r = (lcb([(1, m1 @ m1), (-1, eye)]), lcb([(1, m2 @ m2), (-1, eye)]),
                 lcb([(1, k @ m1), (1, m1 @ k), (-s, m1), (s, eye)]),
                 lcb([(1, k @ m2), (1, m2 @ k), (-s - 1, m2), (-d, eye)]))
            definitions = central_definitions(m1, m2, k, eye, s, d).values()
            expansions = algebra._central_matrix_derived(m1, m2, k, r, s, d)
            assert ([res.valid_rows for res in expansions]
                    == [res.valid_rows for res in definitions]), size

    def test_clean_family_holds_only_the_cut_rows(self):
        # what makes the expansions cheap: r3 and r4 vanish on every row,
        # the cut block of M1 or M2 among them, and r1, r2 hold only the
        # cut block's row
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 24)
        for size in (20, 21):
            r1, r2, r3, r4 = algebra.matrix_relation_residuals(fam, size)
            assert not r3.rows and not r4.rows
            assert (list(r1.rows), list(r2.rows)) == (([size - 1], []) if size % 2 == 0
                                                      else ([], [size - 1]))


def _random_banded(rng, size, kind):
    """A random size x size operator of one kind: "empty", "last" (only
    the last row stored), "diagonal" (bandwidth 0, zeros among the
    values) or "banded" (bandwidth 1 to 3, empty rows among the others)."""
    if kind == "diagonal":
        return BandedOperator.diagonal([rng.choice([0, F(rng.randint(-5, 5), rng.randint(1, 4))])
                                        for _ in range(size)])
    bandwidth = rng.randint(1, 3)
    rows = {}
    for i in range(size):
        if kind == "empty" or (kind == "last" and i < size - 1) or rng.random() < 0.3:
            continue
        rows[i] = LaurentPoly({j: F(rng.randint(-4, 4), rng.randint(1, 3))
                               for j in range(max(0, i - bandwidth), min(size, i + bandwidth + 1))})
    return BandedOperator(size, rows, bandwidth, rng.randint(0, size))


def _dense(op):
    zero = LaurentPoly.zero()
    return [[op.rows.get(i, zero).coeff(j) for j in range(op.size)] for i in range(op.size)]


KINDS = ("empty", "last", "diagonal", "banded")


class TestSparseKernel:
    """``@`` and ``lincomb`` visit only stored rows; they must still equal
    the dense products and sums of Fraction lists, row for row, with the
    same metadata."""

    @pytest.mark.parametrize("seed", range(30))
    def test_products_equal_dense(self, monkeypatch, seed):
        rng = random.Random(seed)
        size = rng.randint(1, 9)
        formed = [0]
        orig = LaurentPoly.lincomb

        def counted(terms, den=1):
            formed[0] += 1
            return orig(terms, den)

        monkeypatch.setattr(LaurentPoly, "lincomb", staticmethod(counted))
        for left in KINDS:
            for right in KINDS:
                a, b = _random_banded(rng, size, left), _random_banded(rng, size, right)
                formed[0] = 0
                prod = a @ b
                da, db = _dense(a), _dense(b)
                want = [[sum((da[i][k] * db[k][j] for k in range(size)), F(0))
                         for j in range(size)] for i in range(size)]
                assert _dense(prod) == want
                assert sorted(prod.rows) == [i for i, row in enumerate(want) if any(row)]
                assert (prod.size, prod.bandwidth, prod.valid_rows) == (
                    size, a.bandwidth + b.bandwidth, a.product_valid_rows(b))
                # every pair of kinds, diagonal factors included, forms
                # one lincomb per row of a that reaches a stored row of b
                reach = [i for i, row in a.rows.items() if set(support(row)) & set(b.rows)]
                assert formed[0] == len(reach), (left, right)

    @pytest.mark.parametrize("seed", range(30))
    def test_lincombs_equal_dense(self, seed):
        rng = random.Random(seed)
        size = rng.randint(1, 9)
        ops = [_random_banded(rng, size, rng.choice(KINDS)) for _ in range(rng.randint(1, 4))]
        scalars = [rng.choice([0, 1, -1, F(rng.randint(-5, 5), rng.randint(1, 4))]) for _ in ops]
        total = BandedOperator.lincomb(list(zip(scalars, ops)))
        dense = [_dense(op) for op in ops]
        want = [[sum((c * d[i][j] for c, d in zip(scalars, dense)), F(0)) for j in range(size)]
                for i in range(size)]
        assert _dense(total) == want
        assert list(total.rows) == [i for i, row in enumerate(want) if any(row)]
        assert total.valid_rows == min(op.valid_rows for op in ops)
        assert total.bandwidth == max((op.bandwidth for c, op in zip(scalars, ops) if c),
                                      default=0)


# --------------------------------------------------------------------------
# The closed-form Verblunsky coefficients
# --------------------------------------------------------------------------


def paper_verblunsky(alpha, beta, n):
    """a_n = -(alpha + 1/2 + (-1)^(n+1) (beta + 1/2)) / (n + alpha + beta + 2)."""
    half = F(1, 2)
    return -(alpha + half + (-1) ** (n + 1) * (beta + half)) / (n + alpha + beta + 2)


# the height-160 workload's off-grid points, and points near alpha = -1
VERBLUNSKY_POINTS = [
    *MATRIX_POINTS, (F(1), F(1)), (F(7, 3), F(7, 3)), (F(1, 51) - 1, F(1, 51) - 1),
    (F(3, 7), F(-2, 5)), (F(5, 7), F(-2, 5)), (F(-2, 7), F(3, 5)), (F(10, 7), F(-1, 5)),
    (F(4, 7), F(2, 5)), (F(5, 7), F(2, 5)), (F(9, 7), F(2, 5)), (F(3, 7), F(1, 5)),
    (F(1, 500) - 1, F(3)),
]


class TestVerblunskyClosedForm:
    @pytest.mark.parametrize("alpha,beta", VERBLUNSKY_POINTS)
    def test_equals_the_paper_formula(self, alpha, beta):
        p = JacobiParams(alpha, beta)
        for n in range(201):
            a = verblunsky(p, n)
            assert type(a) is Rational and a == paper_verblunsky(alpha, beta, n), n

    def test_guards(self):
        with pytest.raises(ValueError, match="Verblunsky index must be >= 0"):
            verblunsky(JacobiParams(0, 0), -1)


def live_lincomb_terms(monkeypatch):
    """The list that every later LaurentPoly.lincomb call appends its
    nonzero terms to."""
    live = []
    orig = LaurentPoly.lincomb

    def counted(terms, den=1):
        terms = list(terms)
        live.extend(f for c, f in terms if c and f)
        return orig(terms, den)

    monkeypatch.setattr(LaurentPoly, "lincomb", staticmethod(counted))
    return live


class TestCleanFamilyCost:
    def test_cmv_rows_pass_no_nonzero_term(self, monkeypatch):
        # after the reflection rows, the pencil and C rows of a clean
        # family are combinations of zero residuals
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 40)
        assert cmv.verify_reflection_rows(fam).ok
        live = live_lincomb_terms(monkeypatch)
        rep = cmv.verify_gevp_and_five_term(fam)
        assert rep.ok and rep.checks
        assert live == []

    def test_y_psi_takes_no_psi_image_through_k(self, monkeypatch):
        # Y psi_n is formed from r_n, which is zero on a clean family, so
        # after the bispectral check K meets neither psi_n nor K psi_n again
        # (psi_0 = 1 = P_0 and K psi_1 = K z are left out: Y P_0 and the
        # functional relations on z^k take them through K as well)
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 24)
        assert dunkl.verify_bispectral(fam).ok
        images = set(fam.psi[2:]) | {apply_k(f, fam.params) for f in fam.psi[2:]}
        seen = []

        def counted(f, p, lam=0):
            if f in images:
                seen.append(f)
            return apply_k(f, p, lam)

        for module in (dunkl, algebra):
            monkeypatch.setattr(module, "apply_k", counted)
        assert algebra.verify_central_extension(fam, d=2, matrix_size=21).ok
        assert algebra.y_eigencheck(fam).ok
        assert seen == []

    def test_central_extension_monomials_take_only_monomials_through_k(self, monkeypatch):
        # on a clean point the relation residuals held on z^-12 .. z^12 are
        # zero and K keeps every level, so [Y,M1], JR1 and JR2 are not
        # formed: K meets only the monomials those residuals read, and the
        # tie-in's K r_n, with every r_n zero
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 24)
        assert dunkl.verify_bispectral(fam).ok
        seen = []

        def counted(f, p):
            seen.append(f)
            return apply_k(f, p)

        monkeypatch.setattr(algebra, "apply_k", counted)
        assert algebra.verify_central_extension(fam, d=10, matrix_size=21).ok
        monomials = [f for f in seen if f]
        assert sorted(f.min_exp for f in monomials) == list(range(-12, 14))
        assert all(f == LaurentPoly.monomial(f.min_exp) for f in monomials)

    @pytest.mark.parametrize("size", [24, 25])
    def test_y_pairs_take_no_p_or_f_through_k(self, size, monkeypatch):
        # Y P_n and Y F_n are formed from the Y psi and psi(P,Q) residuals,
        # zero on a clean family; only at odd N does the top index, which
        # has no psi_2n, take a nonzero polynomial through K
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), size)
        assert dunkl.verify_bispectral(fam).ok and szego.verify_transforms(fam).ok
        last = p_top(size) - size % 2
        images = {build_p(fam, n) for n in range(last + 1)}
        images |= {Z_MINUS_ZINV * build_q(fam, n - 1) for n in range(1, last + 1)}
        seen = []

        def counted(f, p):
            if f in images:
                seen.append(f)
            return apply_k(f, p)

        monkeypatch.setattr(algebra, "apply_k", counted)
        assert algebra.y_eigencheck(fam).ok
        assert seen == []

    @pytest.mark.parametrize("size", [24, 25])
    def test_transforms_divide_only_zero(self, size, monkeypatch):
        # psi(P,P) divides C'_n, zero on a clean family, by z - 1/z
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), size)
        assert szego.verify_three_term(fam).ok  # builds the chains, whose Q divides
        dividends = []
        orig = LaurentPoly.div_exact

        def counted(self, divisor):
            dividends.append(self)
            return orig(self, divisor)

        monkeypatch.setattr(LaurentPoly, "div_exact", counted)
        assert szego.verify_transforms(fam).ok
        assert len(dividends) == p_top(size) and not any(dividends)

    @pytest.mark.parametrize("size", [24, 25])
    def test_lower_block_rows_pass_no_nonzero_term(self, size, monkeypatch):
        # once the upper row of every reflection block is held, the lower
        # rows of a clean family are combinations of zero residuals, and so
        # are the even psi(P,Q) rows, formed from the odd ones and the upper
        # M1 rows: only E_0 and the odd rows E_{2n-1} take psi, P and Q
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), size)
        lower = []
        for m, op in enumerate(cmv.family_operators(fam, size + 1), 1):
            first = 2 - m  # the first block row: 1 for M1, 0 for M2
            for n in range(op.valid_rows):
                if n > first and (n - first) % 2:
                    lower.append((m, n))
                else:
                    assert not cmv.reflection_residual(fam, m, n)
        p, q = (szego.recurrence(fam, name)[0] for name in ("P", "Q"))
        live = live_lincomb_terms(monkeypatch)
        assert not any(cmv.reflection_residual(fam, m, n) for m, n in lower)
        assert len(lower) == size and live == []
        e = szego.psi_pq_residuals(fam)
        assert sorted(e) == list(range(size + 1)) and not any(e.values())
        odd_terms = [fam.psi[0], p[0]]
        for n in range(1, p_top(size) + 1):
            odd_terms += [fam.psi[2 * n - 1], p[n], q[n - 1].shift(1), q[n - 1].shift(-1)]
        assert live == odd_terms

    @pytest.mark.parametrize("size", [24, 25])
    def test_closure_passes_no_nonzero_term(self, size, monkeypatch):
        # after the three-term check, every span residual of a clean family
        # is a combination of zero residuals with zero coefficients
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), size)
        assert szego.verify_three_term(fam).ok
        live = live_lincomb_terms(monkeypatch)
        rep = szego.verify_recurrence_closure(fam)
        assert rep.ok and len(rep.checks) > 2
        assert live == []


    @pytest.mark.parametrize("size", [24, 25])
    def test_classical_and_raising_pass_only_seed_terms(self, size, monkeypatch):
        # with the three-term and christoffel' residuals held, P_n - O_n and
        # H_n of a clean family are combinations of zero residuals with zero
        # coefficients; only the seeds P_0 - 1, Q_0 - 1 and the direct H_1,
        # all of degree <= 1, give lincomb a nonzero term
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), size)
        assert szego.verify_three_term(fam).ok and szego.verify_transforms(fam).ok
        live = live_lincomb_terms(monkeypatch)
        rep = szego.verify_classical_match(fam)
        raising = szego.raising_residuals(fam)
        assert rep.ok and len(rep.checks) == p_top(size) + q_top(size) + 2
        assert len(raising) == p_top(size) and not any(raising.values())
        assert live and all(-1 <= f.min_exp and f.max_exp <= 1 for f in live)


class TestMemo:
    def test_all_suites_leave_only_documented_keys(self):
        fam = build_family(JacobiParams(F(1), F(2)), 24)
        suites.run("all", fam)
        doc = OPUCFamily.__doc__
        kinds = {k[0] if isinstance(k, tuple) else k for k in fam.derived}
        assert kinds == {"P", "Q", "K", "cmv", "reflection", "three-term", "psi(P,Q)",
                         "moments", "recurrence", "christoffel'", "raising", "K z",
                         "relations", "matrix relations", "Y psi"}
        for key in fam.derived:
            shown = f'``("{key[0]}",' if isinstance(key, tuple) else f'``"{key}"``'
            assert shown in doc, key
