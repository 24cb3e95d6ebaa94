"""Acceptance gate: every deliverable criterion, one verdict line each.

Each test exercises one criterion end to end at its stated size and
tolerance, times it against the stated budget, and records a single
"criterion N: PASS/FAIL - <name>" line that the conftest summary hook
echoes after the run.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from circlejacobi import suites
from circlejacobi.algebra import (
    big_lambda,
    verify_central_extension,
    verify_relations_functional,
    verify_relations_matrix,
    verify_representation_derivation,
    y_eigencheck,
)
from circlejacobi.cmv import verify_gevp_and_five_term, verify_reflection_rows
from circlejacobi.dunkl import lambda_n, verify_bispectral
from circlejacobi.moments import (
    family_moments,
    orthogonality_check,
    verify_determinantal_match,
    verify_toeplitz_h,
)
from circlejacobi.opuc import JacobiParams
from circlejacobi.szego import (
    verify_classical_match,
    verify_dep_and_pq_identity,
    verify_recurrence_closure,
    verify_three_term,
    verify_transforms,
)

from circle_oracle import (
    SINGLE_MOMENT as SM,
    lambda_single_moment,
    single_moment_phi,
    single_moment_sigma,
)
from conftest import ACCEPTANCE_LINES, GRID

F = Fraction


class _Criterion:
    def __init__(self):
        self.failures: list[str] = []

    def check(self, ok: bool, detail: str):
        if not ok:
            self.failures.append(detail)

    def absorb(self, report):
        """Fold a VerificationReport in, keeping its failing labels."""
        for c in report.failures:
            self.failures.append(f"{report.identity}/{c.label}: {c.detail}")


@contextmanager
def criterion(num: int, name: str, budget: float):
    c = _Criterion()
    start = time.perf_counter()
    try:
        yield c
    except Exception as exc:  # a crash is a failed criterion, not a missing line
        ACCEPTANCE_LINES.append(
            f"criterion {num}: FAIL - {name} ({type(exc).__name__}: {exc})"
        )
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        c.failures.append(f"took {elapsed:.2f}s, budget {budget:.0f}s")
    status = "PASS" if not c.failures else "FAIL"
    line = f"criterion {num}: {status} - {name} ({elapsed:.2f}s)"
    if c.failures:
        line += " :: " + "; ".join(c.failures[:4])
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert not c.failures, line


def test_criterion_1_bispectrality(family):
    with criterion(1, "first-order eigenvalue equation, n <= 40, exact", 10.0) as c:
        for alpha, beta in GRID:
            [rep] = suites.run("bispectral", family(alpha, beta, 40))
            c.absorb(rep)
            c.check(
                len(rep.checks) == 41,
                f"({alpha},{beta}): expected 41 checks, saw {len(rep.checks)}",
            )


def test_criterion_2_cmv_structure(family):
    with criterion(2, "pentadiagonal rows, N = 41, interior exact", 5.0) as c:
        for alpha, beta in GRID:
            for rep in suites.run("cmv", family(alpha, beta, 40)):
                c.absorb(rep)


def test_criterion_3_representation_derivation():
    with criterion(3, "eigenvalue/coefficient derivation, n <= 40", 1.0) as c:
        for alpha, beta in GRID:
            p = JacobiParams(alpha, beta)
            rep = verify_representation_derivation(p, 40)
            c.absorb(rep)
            c.check(
                len(rep.checks) == 82,
                f"({alpha},{beta}): expected 82 checks, saw {len(rep.checks)}",
            )


def test_criterion_4_algebra_relations(family):
    with criterion(4, "operator algebra, |k| <= 10 and N = 21", 5.0) as c:
        for alpha, beta in GRID:
            fam = family(alpha, beta, 21)
            c.absorb(verify_relations_functional(fam, 10))
            c.absorb(verify_relations_matrix(fam, 21))
            c.absorb(verify_central_extension(fam, d=10, matrix_size=21))


def test_criterion_5_szego_closure(family):
    with criterion(5, "interval pair: oracle match and transforms", 10.0) as c:
        for alpha, beta in GRID:
            fam = family(alpha, beta, 25)
            c.absorb(verify_classical_match(fam))
            c.absorb(verify_three_term(fam))
            c.absorb(verify_recurrence_closure(fam))
            c.absorb(verify_transforms(fam))
            c.absorb(verify_dep_and_pq_identity(fam))


def test_criterion_6_second_order_eigenproblem(family):
    with criterion(6, "Casimir eigenvalues and reflection parity, n <= 10", 5.0) as c:
        for alpha, beta in GRID:
            p = JacobiParams(alpha, beta)
            for n in range(1, 11):
                want = n * (p.alpha + p.beta + n + 1)
                c.check(
                    big_lambda(p, 2 * n) == want and big_lambda(p, 2 * n - 1) == want,
                    f"({alpha},{beta}) n={n}: paired eigenvalue mismatch",
                )
            c.absorb(y_eigencheck(family(alpha, beta, 22)))


def test_criterion_7_single_moment_closed_forms(family):
    with criterion(7, "single-moment family in closed form, n <= 40", 5.0) as c:
        fam = family(F(1, 2), F(-1, 2), 40)
        for n in range(41):
            c.check(fam.a[n] == F(-1, n + 2), f"a_{n} != -1/(n+2)")
            c.check(
                fam.phi[n] == single_moment_phi(n),
                f"phi_{n} differs from its closed form",
            )
            c.check(
                lambda_n(SM, n) == lambda_single_moment(n),
                f"lambda_{n} mismatch between general and special forms",
            )
        # the reports pair with the family's 3F2 moments, which must be
        # the closed forms of the weight (1 - cos t)/(2 pi)
        ms = family_moments(fam)
        for n in range(-40, 41):
            c.check(ms.value(n) == single_moment_sigma(n), f"sigma_{n} != closed form")
        c.absorb(verify_determinantal_match(fam, 8))
        c.absorb(verify_toeplitz_h(fam, 8))


def test_criterion_8_numeric_orthogonality(family):
    with criterion(8, "exact orthogonality, n, m <= 12", 30.0) as c:
        for alpha, beta in GRID:
            rep = orthogonality_check(family(alpha, beta, 12), 12)
            c.absorb(rep)
            c.check(
                len(rep.checks) == 91,
                f"({alpha},{beta}): expected 91 pairs, saw {len(rep.checks)}",
            )


def test_criterion_9_negative_control():
    with criterion(9, "corrupted coefficient is detected exactly", 2.0) as c:
        p = JacobiParams(F(1), F(2))
        for idx in (0, 1, 5):
            fam = suites.family(p, 11, corrupt_a=idx)
            for rep in (
                verify_bispectral(fam),
                verify_reflection_rows(fam),
                verify_gevp_and_five_term(fam),
                orthogonality_check(fam, fam.size),
                verify_toeplitz_h(fam, 8),
                verify_determinantal_match(fam, 8),
                verify_classical_match(fam),
                verify_dep_and_pq_identity(fam),
                y_eigencheck(fam),
                verify_central_extension(fam, d=3, matrix_size=12),
            ):
                c.check(
                    not rep.ok,
                    f"a_{idx} corruption slipped past {rep.identity}",
                )
                c.check(
                    all(f.detail for f in rep.failures),
                    f"{rep.identity}: failure rows must carry residuals",
                )
