"""Jacobi OPUC construction in exact arithmetic.

Builds the monic orthogonal polynomials on the unit circle attached to
the weight (1-cos t)^(alpha+1/2) (1+cos t)^(beta+1/2): closed-form
Verblunsky coefficients, the Szego recurrence, squared norms, and the
CMV Laurent functions psi_n obtained by reordering the monomial basis as
1, z, z^-1, z^2, z^-2, ...
"""

from __future__ import annotations

from collections import namedtuple
from functools import wraps

from .errors import BadSupport, BadVerblunsky, ParamOutOfRange
from .laurent import _ONE, LaurentPoly, Rational, _signed

#: Boundary convention a_k = -1 for every k < 0 (Simon's alpha_{-1} = -1),
#: read by the recurrence seeds of the real-line map.  An a_k with k <= -2
#: only ever multiplies 1 + a_{-1} = 0.
BOUNDARY_A = Rational(-1)


class JacobiParams(namedtuple("JacobiParams", "alpha beta")):
    """Exact parameter pair (alpha, beta), each > -1 and each converted to
    a ``Rational``, the package's scalar type.

    The bound keeps the weight integrable and every Verblunsky
    coefficient inside (-1, 1) (:func:`verblunsky`).
    The pair is read-only, and ``==``, ``hash`` and ``repr`` read it
    alone.  The constructor also forms s = alpha + beta + 1, the
    combination entering most formulas, and d = alpha - beta.
    """

    def __new__(cls, alpha, beta):
        alpha, beta = Rational(alpha), Rational(beta)
        if alpha <= -1 or beta <= -1:
            raise ParamOutOfRange(
                f"need alpha > -1 and beta > -1, got ({alpha}, {beta})"
            )
        self = super().__new__(cls, alpha, beta)
        self.s = alpha + beta + 1
        self.d = alpha - beta
        return self


def verblunsky(p: JacobiParams, n: int) -> Rational:
    """a_n = -(alpha + 1/2 + (-1)^(n+1) (beta + 1/2)) / (n + alpha + beta + 2).

    With x = s = alpha + beta + 1 for odd n and x = d = alpha - beta for
    even n, a_n = -x/(n + s + 1) = -X Q / (E ((n + 1) Q + S)) on the parts
    s = S/Q and x = X/E, reduced once.  |a_n| < 1 for all alpha, beta > -1,
    so no range check: n + s + 1 - |x| is n + 1 or n + 1 + 2s for odd n
    and n + 2(beta + 1) or n + 2(alpha + 1) for even n, all positive."""
    if n < 0:
        raise ValueError("Verblunsky index must be >= 0")
    x, s, q = p.s if n % 2 else p.d, p.s._numerator, p.s._denominator
    return _signed(-x._numerator * q, x._denominator * ((n + 1) * q + s))


def star(f: LaurentPoly, n: int) -> LaurentPoly:
    """The degree-n reversal z^n f(1/z); real coefficients need no conjugation."""
    if f.is_zero:
        return f
    if f.min_exp < 0 or f.max_exp > n:
        raise BadSupport(
            f"reversal at degree {n} needs support in [0, {n}], got "
            f"[{f.min_exp}, {f.max_exp}]"
        )
    return f.reflect().shift(n)


def szego_advance(phi: LaurentPoly, a: Rational, n: int) -> LaurentPoly:
    """One recurrence step: phi_{n+1} = z phi_n - a_n phi_n^*."""
    if phi.is_zero or phi.max_exp != n or phi.coeff(n) != 1:
        raise ValueError(f"phi must be monic of degree {n}")
    if not -1 < a < 1:
        raise BadVerblunsky(f"coefficient {a} lies outside (-1, 1)")
    return LaurentPoly.lincomb([(1, phi.shift(1)), (-a, star(phi, n))])


class OPUCFamily:
    """A finite slice of an OPUC family in exact arithmetic.

    Holds phi_0..phi_N (monic), the Verblunsky coefficients a_0..a_N,
    the squared norms h_0..h_N (h_0 = 1, h_n = prod_{k<n} (1 - a_k^2)),
    and the CMV Laurent functions psi_0..psi_N.  Treat instances as
    immutable: nothing in the package mutates a built family.  ``==``
    compares these five fields and nothing else, and a family is
    unhashable.

    ``derived``, an empty dict the constructor creates, keeps objects
    computed from this instance on first use, so every check that reads
    them shares one build.  Only :func:`per_family` reads or writes it;
    its keys are:

    - ``("P", n)`` and ``("Q", n)``: the Szego chains (``szego.build_p``,
      ``szego.build_q``);
    - ``("three-term", "P")`` and ``("three-term", "Q")``: the P and Q
      three-term residuals (``szego.three_term_residuals``);
    - ``("recurrence", "P")`` and ``("recurrence", "Q")``: each chain
      with the closed-form (b_n, u_n) or (b~_n, u~_n) of its recurrence
      (``szego.recurrence``);
    - ``"psi(P,Q)"``: the residuals E_k of psi_k out of (P, Q)
      (``szego.psi_pq_residuals``);
    - ``"christoffel'"``: the residuals C'_n of (z - 1/z)^2 Q_{n-1} out
      of P_n and P_{n-1} (``szego.christoffel_prime_residuals``);
    - ``"raising"``: the Jacobi raising residuals H_n of the ODE
      (``szego.raising_residuals``);
    - ``("K", n)``: the bispectral residual K psi_n - lambda_n psi_n
      (``dunkl.k_residual``);
    - ``("K z", j)``: the image K z^j of a monomial (``algebra.k_monomial``);
    - ``("relations", j)``: the defining-relation residuals (r3 z^j, r4 z^j)
      of the functional realization (``algebra.relation_residuals``);
    - ``("Y psi", n)``: the residual Y psi_n - Lambda_n psi_n, formed
      from the ``K`` residual (``algebra.y_psi_residual``);
    - ``("matrix relations", size)``: the residuals r1 = M1^2 - I,
      r2 = M2^2 - I and r3, r4 of the two defining relations on the
      truncated representation at that size
      (``algebra.matrix_relation_residuals``), reported by the matrix
      relations and read by the central extension's matrix side;
    - ``("cmv", size)``: M1 and M2 at that size (``cmv.family_operators``),
      read at size N + 1 by the row checks and the psi(P,Q) rows and at
      the algebra's own size by ``algebra.family_representation``;
    - ``("reflection", m, n)``: the reflection residual A_n (m = 1) or
      B_n (m = 2) of M1 or M2 (``cmv.reflection_residual``), read by the
      CMV rows, the central extension's tie-in and, for the odd rows
      A_{2n-1} of M1, by the even psi(P,Q) rows;
    - ``"moments"``: the ``MomentSeq`` at the family's (alpha, beta)
      (``moments.family_moments``).

    It belongs to the instance, never to its parameters: a corrupted
    family tagged with the clean family's params has its own.
    """

    def __init__(self, params: JacobiParams | None, a: tuple[Rational, ...],
                 phi: tuple[LaurentPoly, ...], h: tuple[Rational, ...],
                 psi: tuple[LaurentPoly, ...]) -> None:
        self.params = params
        self.a = a
        self.phi = phi
        self.h = h
        self.psi = psi
        self.derived = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.params, self.a, self.phi, self.h, self.psi) == (
            other.params, other.a, other.phi, other.h, other.psi)

    @property
    def size(self) -> int:
        """Largest index N available for phi/psi."""
        return len(self.phi) - 1


def per_family(name: str):
    """Decorator: build(fam, *args) is computed once per family instance
    and kept in ``fam.derived`` under the key (name, *args), or under
    name alone when build takes nothing but the family.  Keyword
    arguments reach build but not the key: inputs the caller holds that
    give the same value whichever caller hands them over."""

    def decorate(build):
        @wraps(build)
        def memo(fam: OPUCFamily, *args, **given):
            key = (name, *args) if args else name
            derived = fam.derived
            if key not in derived:
                derived[key] = build(fam, *args, **given)
            return derived[key]

        return memo

    return decorate


def require_params(fam: OPUCFamily) -> JacobiParams:
    """The family's (alpha, beta), for a report that reads them."""
    if fam.params is None:
        raise ValueError("family carries no (alpha, beta) parameters")
    return fam.params


def family_params(fam: OPUCFamily, **extra) -> dict:
    """Report params: the family's (alpha, beta), when it carries them, then extra."""
    d: dict = {}
    if fam.params is not None:
        d["alpha"] = fam.params.alpha
        d["beta"] = fam.params.beta
    d.update(extra)
    return d


def _psi_from_phi(phi: LaurentPoly, n: int) -> LaurentPoly:
    # psi_{2m} = z^m phi_{2m}(1/z), psi_{2m+1} = z^-m phi_{2m+1}(z); phi_n is
    # monic of degree n, so psi_n spans chi_0..chi_n with chi_n coefficient 1
    m = n // 2
    if n % 2 == 0:
        return phi.reflect().shift(m)
    return phi.shift(-m)


def family_from_verblunsky(
    a: list[Rational] | tuple[Rational, ...],
    params: JacobiParams | None = None,
) -> OPUCFamily:
    """Build a family from an explicit coefficient list a_0..a_N.

    The optional params tag records which differential operator and
    eigenvalues the family claims to belong to; it is not rechecked
    against the supplied coefficients, which lets callers probe how the
    verifications respond to corrupted input.
    """
    coeffs = tuple(Rational(v) for v in a)
    if not coeffs:
        raise ValueError("need at least a_0")
    for n, v in enumerate(coeffs):
        if not -1 < v < 1:
            raise BadVerblunsky(f"a_{n} = {v} lies outside (-1, 1)")
    top = len(coeffs) - 1
    phi: list[LaurentPoly] = [LaurentPoly.one()]
    for n in range(top):
        phi.append(szego_advance(phi[n], coeffs[n], n))
    h: list[Rational] = [_ONE]
    for n in range(top):
        h.append(h[-1] * (1 - coeffs[n] ** 2))
    psi = tuple(_psi_from_phi(phi[n], n) for n in range(top + 1))
    return OPUCFamily(params=params, a=coeffs, phi=tuple(phi), h=tuple(h), psi=psi)


def build_family(p: JacobiParams, n_max: int) -> OPUCFamily:
    """Construct the Jacobi OPUC family up to index n_max (>= 1)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = [verblunsky(p, n) for n in range(n_max + 1)]
    return family_from_verblunsky(a, params=p)
