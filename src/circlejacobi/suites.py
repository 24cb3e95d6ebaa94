"""The verify wiring: which identities each suite checks, and at what size.

``SUITES`` maps a suite name to a function of one family that returns
the suite's reports in order; ``run`` runs one suite, or every suite in
that order for ``"all"``.  Each suite reads the parameter point from
``fam.params`` and its size n from ``fam.size``.  The suite functions
look the ``verify_*`` routines up by name at call time, so anything that
swaps those names in their modules (a tracer, a test double) is seen here.
"""

from __future__ import annotations

from . import algebra, cmv, dunkl, moments, szego
from .laurent import Rational
from .opuc import (
    JacobiParams,
    OPUCFamily,
    build_family,
    family_from_verblunsky,
    require_params,
    verblunsky,
)
from .report import VerificationReport


def corrupted_a(p: JacobiParams, k: int) -> Rational:
    """a_k at p after the negative-control shift a_k += 1/100."""
    return verblunsky(p, k) + Rational(1, 100)


def family(p: JacobiParams, n: int, corrupt_a: int | None = None) -> OPUCFamily:
    """The family of size n at p.  With corrupt_a = k it is rebuilt from
    a_0..a_n with a_k replaced by ``corrupted_a(p, k)``, still tagged with
    p (a negative control)."""
    if corrupt_a is None:
        return build_family(p, n)
    a = [verblunsky(p, k) for k in range(n + 1)]
    a[corrupt_a] = corrupted_a(p, corrupt_a)
    return family_from_verblunsky(a, params=p)


def _bispectral(fam: OPUCFamily) -> list[VerificationReport]:
    return [dunkl.verify_bispectral(fam)]


def _cmv(fam: OPUCFamily) -> list[VerificationReport]:
    return [cmv.verify_reflection_rows(fam), cmv.verify_gevp_and_five_term(fam)]


def _algebra(fam: OPUCFamily) -> list[VerificationReport]:
    p, n = require_params(fam), fam.size
    d = min(10, max(3, n))
    size = max(7, min(n + 1, 21))
    return [
        algebra.verify_representation_derivation(p, n),
        algebra.verify_relations_matrix(fam, size),
        algebra.verify_relations_functional(fam, d),
        algebra.verify_central_extension(fam, d=d, matrix_size=size),
        algebra.y_eigencheck(fam),
    ]


def _szego(fam: OPUCFamily) -> list[VerificationReport]:
    return [
        szego.verify_three_term(fam),
        szego.verify_recurrence_closure(fam),
        szego.verify_transforms(fam),
        szego.verify_classical_match(fam),
        szego.verify_dep_and_pq_identity(fam),
    ]


#: The last phi_n the moments suite's orthogonality check reaches.
ORTHOGONALITY_CAP = 12


def _moments(fam: OPUCFamily) -> list[VerificationReport]:
    n = fam.size
    m = min(n, 8)
    return [
        moments.orthogonality_check(fam, min(n, ORTHOGONALITY_CAP)),
        moments.verify_toeplitz_h(fam, m),
        moments.verify_determinantal_match(fam, m),
    ]


SUITES = {
    "bispectral": _bispectral,
    "cmv": _cmv,
    "algebra": _algebra,
    "szego": _szego,
    "moments": _moments,
}


def reach(suite: str, n: int) -> int:
    """The highest index k whose a_k the suite reads at size n; moving a
    later a_k changes nothing the suite checks.  phi_j reads a_0..a_{j-1}.
    The Szegő oracle match and ODE stop at P_{p_top(n)}, built from
    phi_{2 p_top(n) - 1}, which reads a_0..a_{2 p_top(n) - 2}; the
    three-term, christoffel' and raising residuals they are formed from
    read no later a_k.  Its other identities read fam.a itself.
    Orthogonality stops at phi_{min(n, ORTHOGONALITY_CAP)}.  Every other
    suite, and so "all", reads phi_n or psi_n."""
    if suite == "szego":
        return 2 * szego.p_top(n) - 2
    if suite == "moments":
        return min(n, ORTHOGONALITY_CAP) - 1
    return n - 1


def names(suite: str) -> tuple[str, ...]:
    """The suites that suite runs, in order: every suite for "all"."""
    return tuple(SUITES) if suite == "all" else (suite,)


def run(suite: str, fam: OPUCFamily) -> list[VerificationReport]:
    """The reports of one suite, or of every suite in order for "all"."""
    return [rep for name in names(suite) for rep in SUITES[name](fam)]
