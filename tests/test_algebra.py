"""Canonical form, representation derivation, and the operator algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from circlejacobi import algebra, cmv, dunkl, suites, szego
from circlejacobi.algebra import (
    big_lambda,
    derive_representation,
    verify_central_extension,
    verify_relations_functional,
    verify_relations_matrix,
    verify_representation_derivation,
    y_eigencheck,
)
from circlejacobi.cmv import BandedOperator, reflection
from circlejacobi.dunkl import lambda_n, verify_bispectral
from circlejacobi.errors import Degenerate
from circlejacobi.laurent import LaurentPoly, Z_MINUS_ZINV
from circlejacobi.opuc import JacobiParams, build_family, verblunsky
from circlejacobi.szego import p_top, q_top

from algebra_oracle import AlgebraParams, CanonicalForm, build_xy_matrix, canonicalize
from circle_oracle import entries
from conftest import GRID, PARAM

F = Fraction


class TestCanonicalForm:
    def test_already_canonical(self):
        # (alpha, beta) = (1, 2): {K,M1} = 4 M1 - 4 I, {K,M2} = 5 M2 - I
        form = canonicalize(AlgebraParams(4, -4, 5, -1))
        assert form == CanonicalForm(alpha=F(1), beta=F(2), mu=F(1), nu=F(0))

    def test_recovers_affine_shift(self):
        # the single-moment relations pushed through K -> (K - 3)/2
        form = canonicalize(AlgebraParams(F(-5, 2), F(-1, 2), -2, F(1, 2)))
        assert form == CanonicalForm(alpha=F(1, 2), beta=F(-1, 2), mu=F(2), nu=F(3))

    def test_degenerate_quadruples(self):
        with pytest.raises(Degenerate):
            canonicalize(AlgebraParams(1, 2, 1, 3))  # g3 == g1
        with pytest.raises(Degenerate):
            canonicalize(AlgebraParams(1, 0, 2, 3))  # g2 == 0

    def test_coercion(self):
        g = AlgebraParams("1/2", 1, 2, 3)
        assert g.g1 == F(1, 2) and isinstance(g.g1, Fraction)


class TestDerivation:
    def test_single_moment_frozen(self):
        lam, a = derive_representation(F(1, 2), F(-1, 2), 6)
        assert lam == (0, 2, -1, 3, -2, 4, -3)
        assert a == (F(-1, 2), F(-1, 3), F(-1, 4), F(-1, 5), F(-1, 6), F(-1, 7), F(-1, 8))

    def test_lambda0_is_forced_to_zero(self):
        for alpha, beta in GRID:
            lam, _ = derive_representation(alpha, beta, 4)
            assert lam[0] == 0

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_matches_closed_forms(self, alpha, beta):
        rep = verify_representation_derivation(JacobiParams(alpha, beta), 25)
        assert rep.ok
        assert len(rep.checks) == 52

    @settings(max_examples=100, deadline=None)
    @given(alpha=PARAM, beta=PARAM)
    def test_matches_closed_forms_at_random_points(self, alpha, beta):
        p = JacobiParams(alpha, beta)
        assert derive_representation(alpha, beta, 12) == (
            tuple(lambda_n(p, n) for n in range(13)),
            tuple(verblunsky(p, n) for n in range(13)),
        )

    def test_degenerate_parameter_sum(self):
        # alpha + beta = -2 makes the first diagonal pivot vanish
        with pytest.raises(Degenerate):
            derive_representation(F(-1, 2), F(-3, 2), 3)


class TestRelationTable:
    def test_constants(self):
        # (alpha, beta) = (1, 2): {K,M1} = 4 M1 - 4 I, {K,M2} = 5 M2 - I
        assert algebra.relation_constants(1, 2) == ((4, -4), (5, -1))
        # raw values: the derivation reads points JacobiParams rejects
        assert algebra.relation_constants(F(-1, 2), F(-3, 2)) == ((-1, 1), (0, 1))

    def test_shape_the_expansions_take(self):
        # the central extension's expansions read s as the c of {K, M1}
        # and d as the e of {K, M2}, and take e = -s for M1 and c = s + 1
        # for M2
        for alpha, beta in [*GRID, (F(3, 7), F(-2, 5)), (F(-1, 2), F(-3, 2)), (0, 0)]:
            (c1, e1), (c2, e2) = algebra.relation_constants(alpha, beta)
            assert (c1, e1, c2, e2) == (alpha + beta + 1, -c1, c1 + 1, alpha - beta)

    def test_every_report_reads_the_table(self, monkeypatch):
        # a wrong M2 entry in the one table fails exactly the checks that
        # read it in all four reports, so none keeps its own copy of the
        # constants
        table = algebra.relation_constants

        def wrong(alpha, beta):
            m1_rel, (c, e) = table(alpha, beta)
            return m1_rel, (c, e + F(1, 100))

        monkeypatch.setattr(algebra, "relation_constants", wrong)
        p = JacobiParams(F(3, 7), F(-2, 5))
        fam = build_family(p, 12)  # holds the residuals under the wrong table
        derivation = verify_representation_derivation(p, 12)
        assert [c.label for c in derivation.failures] == [f"a n={n}" for n in range(0, 13, 2)]
        assert [c.label for c in verify_relations_matrix(fam, 13).failures] == ["M2 relation"]
        functional = verify_relations_functional(fam, 3)
        assert [c.label for c in functional.failures] == [f"M2 rel k={k}" for k in range(-3, 4)]
        # the central extension reads d = alpha - beta as the table's e of
        # {K, M2}: JR2's constants move, in both realizations
        central = verify_central_extension(fam, d=3, matrix_size=13)
        assert [c.label for c in central.failures] == [
            *[f"JR2 k={k}" for k in range(-3, 4)], "JR2 matrix"]


class TestFunctionalRealization:
    def test_m_ops(self):
        f = LaurentPoly({2: 1, -1: 3})
        assert reflection(f, 1) == f.reflect()
        assert reflection(f, 2) == f.reflect().shift(1)
        assert reflection(reflection(f, 1), 1) == f
        assert reflection(reflection(f, 2), 2) == f

    def test_x_is_multiplication_by_x(self):
        # X = M2 M1 + M1 M2
        f = LaurentPoly({3: 2, 0: 1})
        x_f = LaurentPoly.lincomb([(1, reflection(reflection(f, 1), 2)),
                                   (1, reflection(reflection(f, 2), 1))])
        assert x_f == f.shift(1) + f.shift(-1)

    def test_y_on_free_monomials(self):
        # free point: K = theta and s = 0, so Y z^k = K^2 z^k = k^2 z^k
        p = JacobiParams(F(-1, 2), F(-1, 2))
        assert p.s == 0
        for k in range(-4, 5):
            f = LaurentPoly.monomial(k)
            assert dunkl.apply_k(dunkl.apply_k(f, p), p) == f * (k * k)

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_defining_relations(self, alpha, beta, family):
        assert verify_relations_functional(family(alpha, beta, 3), 8).ok

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_matrix_relations(self, alpha, beta):
        assert verify_relations_matrix(build_family(JacobiParams(alpha, beta), 3), 14).ok

    def test_matrix_relations_requires_size(self):
        with pytest.raises(ValueError):
            verify_relations_matrix(build_family(JacobiParams(0, 0), 3), 2)

    def test_algebra_suite_builds_one_representation(self, monkeypatch):
        # the matrix relations and the central extension read one build of
        # M1 and M2 out of the family, the one cmv.family_operators keeps;
        # the Y eigencheck's psi(P,Q) rows read M1 at size N + 1, the CMV
        # rows' size
        sizes = []
        orig = cmv.build_m1

        def counted(a, size):
            sizes.append(size)
            return orig(a, size)

        monkeypatch.setattr(cmv, "build_m1", counted)
        fam = build_family(JacobiParams(F(1), F(2)), 24)
        assert all(rep.ok for rep in suites.run("algebra", fam))
        assert sizes == [21, 25]
        assert algebra.family_representation(fam, 21)[:2] == fam.derived[("cmv", 21)]
        assert {k for k in fam.derived if k[0] == "cmv"} == {("cmv", 21), ("cmv", 25)}

    def test_tie_in_and_cmv_rows_share_the_reflection_rows(self):
        # the tie-in's product rows n < top = 19 build only the A_j and B_j
        # they reach: A_n and B_n, the B_j of M1 row n and the A_j of M2
        # row n, j <= n + 1, so A_19 but no B_19; the psi(P,Q) rows read
        # the odd M1 rows A_{2n-1}, 2n <= N; the CMV suite then reuses them
        # and builds the rest
        fam = build_family(JacobiParams(F(1), F(2)), 24)
        assert all(rep.ok for rep in suites.run("algebra", fam))
        held = {k: v for k, v in fam.derived.items() if k[0] == "reflection"}
        assert set(held) == {("reflection", m, j) for m, rows in ((1, 20), (2, 19))
                             for j in range(rows)} | {("reflection", 1, j) for j in (21, 23)}
        assert all(rep.ok for rep in suites.run("cmv", fam))
        assert all(fam.derived[k] is v for k, v in held.items())
        assert {k for k in fam.derived if k[0] == "reflection"} == {
            ("reflection", m, j) for m, rows in ((1, 25), (2, 24)) for j in range(rows)}


class TestMatrixIdentityFailures:
    """A moved eigenvalue lambda_5 breaks exactly the matrix identities
    that contain K, on the rows its blocks reach; the details and skips
    below were recorded before the identities became residuals."""

    @pytest.fixture(autouse=True)
    def move_lambda_5(self, monkeypatch):
        orig = algebra.lambda_n
        monkeypatch.setattr(
            algebra, "lambda_n", lambda p, n: orig(p, n) + (1 if n == 5 else 0)
        )

    @staticmethod
    def _details(rep, labels):
        by_label = {c.label: (c.ok, c.detail) for c in rep.checks}
        return [by_label[label] for label in labels]

    def test_relations_matrix(self):
        rep = verify_relations_matrix(build_family(JacobiParams(F(3, 7), F(-2, 5)), 3), 9)
        assert self._details(rep, ["M1^2 = I", "M2^2 = I", "M1 relation", "M2 relation"]) == [
            (True, "8 rows agree"),
            (True, "7 rows agree"),
            (False, "rows [5, 6] differ"),
            (False, "rows [4, 5] differ"),
        ]
        assert rep.skipped == [
            "M1^2 = I: rows 8..8 (truncation boundary)",
            "M2^2 = I: rows 7..8 (truncation boundary)",
            "M1 relation: rows 8..8 (truncation boundary)",
            "M2 relation: rows 8..8 (truncation boundary)",
        ]

    def test_central_extension_matrix_side(self):
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 12)
        rep = verify_central_extension(fam, d=4, matrix_size=9)
        labels = ["[X,M1] matrix", "[Y,M1] matrix", "JR1 matrix", "JR2 matrix"]
        # at most four bad rows are named
        assert self._details(rep, labels) == [
            (True, "6 rows agree"),
            (False, "rows [5, 6] differ"),
            (False, "rows [1, 2, 3, 4] differ"),
            (False, "rows [3, 4, 5, 6] differ"),
        ]
        assert rep.skipped == [
            "[X,M1] matrix: rows 6..8 (truncation boundary)",
            "[Y,M1] matrix: rows 8..8 (truncation boundary)",
            "JR1 matrix: rows 5..8 (truncation boundary)",
            "JR2 matrix: rows 7..8 (truncation boundary)",
        ]


class TestCentralExtension:
    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_closure(self, alpha, beta, family):
        fam = family(alpha, beta, 13)
        rep = verify_central_extension(fam, d=6, matrix_size=13)
        assert rep.ok

    def test_extension_term_checked_at_symmetric_point(self, family):
        fam = family(F(0), F(0), 9)
        rep = verify_central_extension(fam, d=4, matrix_size=9)
        assert any("drops" in c.label for c in rep.checks)

    def test_failures_carry_residuals_at_symmetric_point(self, monkeypatch):
        # a wrong K breaks the extension-term check too, which then keeps
        # its residual text like every other failing check; the family
        # holds its K images, so it is built here, not shared
        orig = algebra.apply_k
        monkeypatch.setattr(algebra, "apply_k", lambda f, p: orig(f, p) + f.shift(1))
        rep = verify_central_extension(build_family(JacobiParams(1, 1), 9), d=4, matrix_size=9)
        assert "extension term drops at alpha=beta" in [c.label for c in rep.failures]
        assert all(c.detail for c in rep.failures)

    def test_xy_matrix_shapes(self):
        x, y = build_xy_matrix(JacobiParams(F(1, 2), F(-1, 2)), 9)
        assert x.size == y.size == 9
        assert max(abs(i - j) for i, j, _ in entries(x)) <= 2
        assert all(i == j for i, j, _ in entries(y))  # diagonal in the eigenbasis


class TestYEigen:
    def test_big_lambda_frozen(self):
        p = JacobiParams(1, 2)
        assert [big_lambda(p, n) for n in range(5)] == [0, 5, 5, 12, 12]

    def test_eigenvalues_pair_up(self):
        for alpha, beta in GRID:
            p = JacobiParams(alpha, beta)
            for n in range(1, 12):
                assert big_lambda(p, 2 * n - 1) == big_lambda(p, 2 * n)
                assert big_lambda(p, 2 * n) == n * (p.alpha + p.beta + n + 1)

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_y_eigenproblem(self, alpha, beta, family):
        fam = family(alpha, beta, 13)
        rep = y_eigencheck(fam)
        assert rep.ok
        labels = {c.label.split(" ")[0] for c in rep.checks}
        assert {"Lambda", "Y", "R"} <= labels

    @pytest.mark.parametrize("size", [12, 13])
    def test_parity_checks_catch_an_antisymmetric_move(self, size):
        # P_k moved by z - 1/z loses its symmetry: exactly its Y and R
        # checks fail.  Q_{k-1} moved the same way breaks F_k alike.  At
        # k = 1 the move of P_1 is F_1 itself, whose eigenvalue Lambda_2 is
        # P_1's, so only the parity check sees it.
        p = JacobiParams(F(3, 7), F(-2, 5))
        for label, chain, build, first, top in (
            ("P", "P", szego.build_p, 0, p_top(size)),
            ("F", "Q", szego.build_q, 1, q_top(size) + 1),
        ):
            for k in range(first, top + 1):
                fam = build_family(p, size)
                j = k - first  # F_k reads Q_{k-1}
                fam.derived[(chain, j)] = build(fam, j) + Z_MINUS_ZINV
                want = {f"R {label} n={k}"}
                if (label, k) != ("P", 1):
                    want.add(f"Y {label} n={k}")
                assert {c.label for c in y_eigencheck(fam).failures} == want

    @pytest.mark.parametrize("alpha, beta", [(F(3, 7), F(-2, 5)), (F(1), F(2))])
    def test_blind_spot_of_a_corrupted_odd_coefficient(self, alpha, beta):
        # corrupting a_k moves psi_{k+1} by -(1/100) psi_k.  For odd k that
        # is still an eigenfunction of Y with eigenvalue Lambda_{k+1}, since
        # Lambda_{2m-1} = Lambda_{2m}, so "Y psi n=k+1" passes; a fact about
        # Y, not a defect, and "Y psi n=k+2" sees every k
        p = JacobiParams(alpha, beta)
        for k in range(15):
            ok = {c.label: c.ok for c in y_eigencheck(suites.family(p, 16, k)).checks}
            assert ok[f"Y psi n={k + 1}"] is (k % 2 == 1), k
            assert ok[f"Y psi n={k + 2}"] is False, k
        # at k = n - 1 no later row is left: blind at odd k, not at even k
        assert y_eigencheck(suites.family(p, 16, 15)).ok
        assert not y_eigencheck(suites.family(p, 15, 14)).ok


class TestAsVerblunskySource:
    def test_derivation_agrees_with_direct_formula_far_out(self):
        p = JacobiParams(F(3, 2), F(1, 2))
        _, a = derive_representation(p.alpha, p.beta, 40)
        assert a == tuple(verblunsky(p, n) for n in range(41))


class TestComplexity:
    @staticmethod
    def _count_apply_k(monkeypatch) -> list:
        """The list whose one entry counts every later algebra.apply_k call."""
        calls = [0]
        orig = algebra.apply_k

        def counted(*args):
            calls[0] += 1
            return orig(*args)

        monkeypatch.setattr(algebra, "apply_k", counted)
        return calls

    @pytest.mark.parametrize("alpha,beta", [(F(3, 2), F(1, 2)), (F(1), F(1))])
    def test_central_extension_applies_k_once_per_image(self, monkeypatch, alpha, beta):
        # the monomial checks read K z^j once for each j in -12 .. 13, which
        # the relation residuals on z^-12 .. z^12 meet, and the psi rows
        # apply K once to each r_n of rows 0 .. 18; at (1, 1) the
        # alpha = beta branch runs as well.  Forming the checks from Y
        # images, each computed once, costs 265 calls of apply_k.
        calls = self._count_apply_k(monkeypatch)
        fam = build_family(JacobiParams(alpha, beta), 40)
        rep = verify_central_extension(fam, d=10, matrix_size=21)
        assert rep.ok
        assert calls[0] == 26 + 19, calls[0]

    def test_y_eigencheck_reads_k_psi_from_the_family(self, monkeypatch):
        # K psi_n is built once per family: the bispectral check makes it
        # and the Y check reads it back, so every psi_n, P_n and F_n costs
        # two applications of K.  Recomputing K psi_n costs one more per n.
        calls = [0]
        for mod in (algebra, dunkl):
            def counted(*args, _orig=mod.apply_k):
                calls[0] += 1
                return _orig(*args)

            monkeypatch.setattr(mod, "apply_k", counted)
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 40)
        assert verify_bispectral(fam).ok and y_eigencheck(fam).ok
        assert calls[0] == 2 * (41 + p_top(40) + 1 + q_top(40) + 1), calls[0]

    def test_central_extension_forms_xy_and_yx_once(self, monkeypatch):
        # the matrix side reads the held r1 .. r4 and forms no X, Y or
        # M2 M1, so of the products whose factors both store a row, 6
        # build the held residuals, and with the last block of M2 cut at
        # size 21, 2 form M1 r2 M1 and 2 multiply H by K in JR1.  Building
        # X and Y costs 3 more, and forming XY and YX 2 more again.
        calls = [0]
        orig = BandedOperator.__matmul__

        def counted(a, b):
            calls[0] += bool(a.rows and b.rows)
            return orig(a, b)

        monkeypatch.setattr(BandedOperator, "__matmul__", counted)
        fam = build_family(JacobiParams(F(3, 2), F(1, 2)), 40)
        assert verify_central_extension(fam, d=10, matrix_size=21).ok
        assert calls[0] == 6 + 2 + 2, calls[0]

    def test_central_extension_matrix_side_forms_few_rows(self, monkeypatch):
        # with the held r1 .. r4 (built by the matrix relations), every
        # product forms one row per row of its left factor that reaches a
        # stored row of its right factor.  At size 21 that is the 2 + 2
        # rows of M1 r2 M1 that reach the cut block of M2 (rows 19 and 20
        # of M1 r2, then of M1 r2 M1), and the 2 + 2 rows of H K and K H,
        # as H stores only rows 19 and 20.  r1, r3 and r4 are zero, so no
        # other product forms a row; the tie-in reads M1 psi and M2 psi
        # and forms no product.  Building X and Y costs the 42 rows of
        # M1 M2 and M2 M1 and the 20 of K K, and forming the checks from
        # their definitions 147 rows in the products with no diagonal
        # factor alone.
        fam = build_family(JacobiParams(F(3, 2), F(1, 2)), 40)
        assert verify_relations_matrix(fam, 21).ok
        rows, inside = [0], [False]
        orig_matmul, orig_lincomb = BandedOperator.__matmul__, LaurentPoly.lincomb

        def matmul(a, b):
            inside[0] = True
            try:
                return orig_matmul(a, b)
            finally:
                inside[0] = False

        def lincomb(terms, den=1):
            rows[0] += inside[0]
            return orig_lincomb(terms, den)

        monkeypatch.setattr(BandedOperator, "__matmul__", matmul)
        monkeypatch.setattr(LaurentPoly, "lincomb", staticmethod(lincomb))
        assert verify_central_extension(fam, d=10, matrix_size=21).ok
        assert rows[0] == (2 + 2) + (2 + 2), rows[0]

    def test_relations_functional_applies_k_once_per_monomial(self, monkeypatch):
        # K z^-k and K z^(1-k) meet other monomials' K images: at d = 10
        # the distinct inputs are z^-10 .. z^11.  Applying K afresh at
        # every use costs 84 calls.
        calls = self._count_apply_k(monkeypatch)
        fam = build_family(JacobiParams(F(3, 2), F(1, 2)), 40)
        assert verify_relations_functional(fam, 10).ok
        assert calls[0] == 22, calls[0]

    def test_functional_reports_share_the_family_k_images(self, monkeypatch):
        # the central extension reads the relation residuals and K z^j the
        # functional relations left in the family, adding only z^-12,
        # z^-11, z^12 and z^13, and the 19 K r_n of its psi rows.  With
        # a K-image cache per report the two cost 22 + 26 + 19 = 67 calls.
        calls = self._count_apply_k(monkeypatch)
        fam = build_family(JacobiParams(F(3, 2), F(1, 2)), 40)
        assert verify_relations_functional(fam, 10).ok
        assert verify_central_extension(fam, d=10, matrix_size=21).ok
        assert calls[0] == 26 + 19, calls[0]
