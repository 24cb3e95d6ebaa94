"""Block reflection matrices, the pentadiagonal product, truncations."""

import cmath
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from circlejacobi import algebra, cmv, dunkl, moments, suites, szego
from circlejacobi.cmv import (
    BandedOperator,
    build_m1,
    build_m2,
    family_operators,
    spectrum,
    verify_gevp_and_five_term,
    verify_reflection_rows,
)
from circlejacobi.errors import BadVerblunsky, ConvergenceFailure
from circlejacobi.laurent import LaurentPoly, Rational
from circlejacobi.opuc import JacobiParams, build_family, verblunsky

from circle_oracle import LEBESGUE, SINGLE_MOMENT, apply_row, cmv_matrix, entries
from conftest import GRID, verblunsky_lists

F = Fraction

SM = [F(-1, n + 2) for n in range(40)]  # single-moment coefficients
L = LaurentPoly


class TestBuilders:
    def test_m1_frozen_entries(self):
        m1 = build_m1(SM, 5)
        assert m1.rows[0] == L({0: 1})
        # block with a_1 = -1/3
        assert m1.rows[1] == L({1: F(-1, 3), 2: 1})
        assert m1.rows[2] == L({1: F(8, 9), 2: F(1, 3)})
        # block with a_3 = -1/5
        assert m1.rows[3] == L({3: F(-1, 5), 4: 1})
        assert m1.rows[4] == L({3: F(24, 25), 4: F(1, 5)})
        assert m1.valid_rows == 5  # odd size: no cut block

    def test_m2_frozen_entries(self):
        m2 = build_m2(SM, 5)
        # block with a_0 = -1/2
        assert m2.rows[0] == L({0: F(-1, 2), 1: 1})
        assert m2.rows[1] == L({0: F(3, 4), 1: F(1, 2)})
        # block with a_2 = -1/4
        assert m2.rows[2] == L({2: F(-1, 4), 3: 1})
        assert m2.rows[3] == L({2: F(15, 16), 3: F(1, 4)})
        # cut block keeps only the diagonal
        assert m2.rows[4] == L({4: F(-1, 6)})
        assert m2.valid_rows == 4

    def test_involution_on_valid_rows(self):
        for size in (4, 5, 6, 7):
            for m in (build_m1(SM, size), build_m2(SM, size)):
                sq = m @ m
                eye = BandedOperator.identity(size)
                for i in range(sq.valid_rows):
                    assert sq.rows[i] == eye.rows[i]

    def test_corner_entry_is_a0(self):
        for alpha, beta in GRID:
            p = JacobiParams(alpha, beta)
            a = [verblunsky(p, n) for n in range(8)]
            assert cmv_matrix(a, 8).rows[0].coeff(0) == a[0]

    def test_pentadiagonal(self):
        c = cmv_matrix(SM, 12)
        assert max(abs(i - j) for i, j, _ in entries(c)) <= 2
        assert c.bandwidth == 2

    @settings(deadline=None)
    @given(verblunsky_lists(12))
    def test_pentadiagonal_for_any_coefficients(self, a):
        c = cmv_matrix(a, len(a))
        assert all(abs(i - j) <= 2 for i, j, _ in entries(c))

    def test_too_few_coefficients(self):
        with pytest.raises(ValueError):
            build_m1(SM[:2], 8)

    def test_bad_coefficient(self):
        with pytest.raises(BadVerblunsky):
            build_m2([F(1)], 2)
        # each factor checks the coefficients its blocks read, and only
        # those: M2 reads a_0, M1 reads a_1, and C reads both
        bad_a0, bad_a1 = [F(1), *SM[1:8]], [SM[0], F(-3, 2), *SM[2:8]]
        for build in (build_m2, cmv_matrix):
            with pytest.raises(BadVerblunsky, match=r"^a_0 = 1 lies outside \(-1, 1\)$"):
                build(bad_a0, 8)
        assert build_m1(bad_a0, 8).rows == build_m1(SM, 8).rows
        for build in (build_m1, cmv_matrix):
            with pytest.raises(BadVerblunsky, match=r"^a_1 = -3/2 lies outside \(-1, 1\)$"):
                build(bad_a1, 8)
        assert build_m2(bad_a1, 8).rows == build_m2(SM, 8).rows


class TestOperatorAlgebra:
    def test_valid_rows_propagation(self):
        m1 = build_m1(SM, 6)  # cut block: valid 5
        m2 = build_m2(SM, 6)  # complete: valid 6
        assert (m1.valid_rows, m2.valid_rows) == (5, 6)
        prod = m1 @ m2
        assert prod.valid_rows == min(m1.valid_rows, m2.valid_rows - m1.bandwidth)
        assert prod.bandwidth == m1.bandwidth + m2.bandwidth
        s = BandedOperator.lincomb([(1, m1), (1, m2)])
        assert s.valid_rows == 5
        assert s.bandwidth == 1

    def test_lincomb_cancels(self):
        m = build_m1(SM, 5)
        z = BandedOperator.lincomb([(2, m), (-1, m), (-1, m)])
        assert not z.rows
        assert (z.size, z.bandwidth, z.valid_rows) == (5, 1, 5)

    def test_lincomb_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            BandedOperator.lincomb([(1, build_m2(SM, 5)), (0, build_m2(SM, 6))])

    def test_diagonal(self):
        d = BandedOperator.diagonal([1, 2, 3])
        assert d.rows[1] == L.monomial(1, 2)
        assert d.valid_rows == 3 and d.bandwidth == 0

    def test_apply_row(self):
        m2 = build_m2(SM, 3)
        vecs = [LaurentPoly.one(), LaurentPoly({1: 1}), LaurentPoly({-1: 1})]
        terms, den = m2.row_parts(0, vecs)  # (-1 * 1 + 2 * z) / 2
        assert (terms, den) == ([(-1, vecs[0]), (2, vecs[1])], 2)
        out = LaurentPoly.lincomb(terms, den)  # -1/2 * 1 + 1 * z
        assert out == LaurentPoly({0: F(-1, 2), 1: 1})
        assert LaurentPoly.lincomb(*m2.row_parts(0, vecs, -3)) == out * -3


def _random_dense(rng: random.Random, size: int) -> list[list[Fraction]]:
    """A size x size matrix of small rationals, about half of them zero."""
    return [
        [F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.5 else F(0)
         for _ in range(size)]
        for _ in range(size)
    ]


def _operator(dense, valid_rows: int) -> BandedOperator:
    band = max((abs(i - j) for i, row in enumerate(dense) for j, v in enumerate(row) if v),
               default=0)
    rows = {i: LaurentPoly(enumerate(row)) for i, row in enumerate(dense)}
    return BandedOperator(len(dense), rows, band, valid_rows)


def _dense(op: BandedOperator) -> list[list[Fraction]]:
    zero = LaurentPoly.zero()
    return [[op.rows.get(i, zero).coeff(j) for j in range(op.size)] for i in range(op.size)]


class TestReferenceModel:
    """``lincomb`` and ``@`` against dense lists of Fraction, on seeded
    random small matrices with zero entries and zero rows."""

    def _check(self, op: BandedOperator, want: list[list[Fraction]]) -> None:
        assert _dense(op) == want
        # only nonzero rows are stored, each as its generating polynomial
        assert sorted(op.rows) == [i for i, row in enumerate(want) if any(row)]
        assert all(type(r) is LaurentPoly for r in op.rows.values())
        assert list(entries(op)) == [
            (i, j, v) for i, row in enumerate(want) for j, v in enumerate(row) if v
        ]
        assert all(type(v) is Rational for _, _, v in entries(op))

    @pytest.mark.parametrize("seed", range(40))
    def test_operations_match_dense_lists(self, seed):
        rng = random.Random(seed)
        size = rng.randint(1, 6)
        idx = range(size)
        dense = [_random_dense(rng, size) for _ in range(rng.randint(1, 4))]
        ops = [_operator(d, rng.randint(0, size)) for d in dense]
        for op, d in zip(ops, dense):
            self._check(op, d)
        scalars = [rng.choice([0, 1, -1, F(rng.randint(-5, 5), rng.randint(1, 4))])
                   for _ in ops]

        s = BandedOperator.lincomb(list(zip(scalars, ops)))
        self._check(s, [[sum((c * d[i][j] for c, d in zip(scalars, dense)), F(0))
                         for j in idx] for i in idx])
        assert s.size == size
        assert s.valid_rows == min(op.valid_rows for op in ops)
        assert s.bandwidth == max((op.bandwidth for c, op in zip(scalars, ops) if c),
                                  default=0)

        a, da = ops[0], dense[0]
        c = F(rng.randint(-5, 5), rng.randint(1, 4))
        for k in (c, 0, 1, -1):
            sc = BandedOperator.lincomb([(k, a)])
            self._check(sc, [[v * k for v in row] for row in da])
            assert sc.valid_rows == a.valid_rows
            assert sc.bandwidth == (a.bandwidth if k else 0)

        z = BandedOperator.lincomb([(1, a), (-1, a)])
        self._check(z, [[F(0)] * size for _ in idx])
        assert (z.valid_rows, z.bandwidth) == (a.valid_rows, a.bandwidth)

        b, db = ops[-1], dense[-1]
        p = a @ b
        self._check(p, [[sum((da[i][k] * db[k][j] for k in idx), F(0)) for j in idx]
                        for i in idx])
        assert p.bandwidth == a.bandwidth + b.bandwidth
        assert p.valid_rows == max(min(a.valid_rows, b.valid_rows - a.bandwidth), 0)

    @pytest.mark.parametrize("size", [1, 2, 5, 6])
    def test_zero_coefficients_store_no_zero_entries(self, size):
        # a_r = 0 puts zeros on the block diagonals; they are not stored,
        # so the operator's rows equal those of its product with the identity
        zeros = [F(0)] * size
        eye = BandedOperator.identity(size)
        for m in (build_m1(zeros, size), build_m2(zeros, size), cmv_matrix(zeros, size)):
            assert m.rows == (m @ eye).rows == (eye @ m).rows
            assert all(v for _, _, v in entries(m))
            assert all(m.rows.values())


def _reference_blocks(a, size: int, first_row: int) -> BandedOperator:
    """The reflection blocks built entry by entry as Fraction-keyed
    LaurentPoly rows: the reference for ``cmv._reflection_blocks``."""
    rows = {r: LaurentPoly.monomial(r) for r in range(first_row)}
    for r in range(first_row, size, 2):
        av = Fraction(a[r])
        if r + 1 < size:
            rows[r] = LaurentPoly({r: av, r + 1: 1})
            rows[r + 1] = LaurentPoly({r: 1 - av * av, r + 1: -av})
        else:
            rows[r] = LaurentPoly.monomial(r, av)
    cut = (size - first_row) % 2 == 1
    return BandedOperator(size, rows, 1, size - 1 if cut else size)


class TestReflectionBlocksFromIntegerParts:
    # the grid holds the Lebesgue point, where every a_r is 0
    @pytest.mark.parametrize("alpha, beta", [
        *GRID, (F(3, 7), F(-2, 5)), (F(-99, 100), F(100)), (F(5, 2), F(-999, 1000))])
    def test_rows_match_the_fraction_build(self, alpha, beta):
        p = JacobiParams(alpha, beta)
        a = [verblunsky(p, k) for k in range(41)]
        for size in range(1, 42):
            for first_row, build in ((1, build_m1), (0, build_m2)):
                got, want = build(a, size), _reference_blocks(a, size, first_row)
                assert got.rows == want.rows, (size, first_row)
                assert all(type(r) is LaurentPoly for r in got.rows.values())
                assert (got.size, got.valid_rows, got.bandwidth) == (
                    want.size, want.valid_rows, want.bandwidth)


class TestReflectionBlocksShortestList:
    # a_last is the highest coefficient the blocks read, with last the
    # largest row first_row + 2j below size; M1 at size 1 reads none
    @pytest.mark.parametrize("first_row", [0, 1])
    @pytest.mark.parametrize("size", range(1, 13))
    def test_exactly_last_plus_one_coefficients(self, size, first_row):
        last = max(range(first_row, size, 2), default=-1)
        a = SM[:last + 1]
        got = cmv._reflection_blocks(a, size, first_row)
        assert got.rows == _reference_blocks(a, size, first_row).rows
        if last >= 0:
            with pytest.raises(ValueError, match=f"up to index {last}$"):
                cmv._reflection_blocks(a[:-1], size, first_row)


def _general_product(a: BandedOperator, b: BandedOperator) -> BandedOperator:
    """a @ b by the general rule: row i of a applied to the rows of b."""
    right = [b.rows.get(k, LaurentPoly.zero()) for k in range(b.size)]
    rows = {i: apply_row(a, i, right) for i in a.rows}
    valid = max(min(a.valid_rows, b.valid_rows - a.bandwidth), 0)
    return BandedOperator(a.size, rows, a.bandwidth + b.bandwidth, valid)


class TestDiagonalFactor:
    """A bandwidth-0 factor scales rows (on the left) or entries (on the
    right); the product must be the general one, row for row."""

    @staticmethod
    def _same(p: BandedOperator, q: BandedOperator) -> None:
        assert p.rows == q.rows
        assert (p.size, p.bandwidth, p.valid_rows) == (q.size, q.bandwidth, q.valid_rows)

    @pytest.mark.parametrize("seed", range(30))
    def test_products_equal_general_rule(self, seed):
        rng = random.Random(seed)
        size = rng.randint(1, 9)
        a = [F(rng.randint(-9, 9), 10) for _ in range(size)]
        dense = _random_dense(rng, size)
        # odd and even sizes cut the last block of M1 or M2
        others = [build_m1(a, size), build_m2(a, size), cmv_matrix(a, size),
                  _operator(dense, rng.randint(0, size))]
        values = [rng.choice([0, 1, F(rng.randint(-9, 9), rng.randint(1, 7))])
                  for _ in range(size)]
        diag = BandedOperator.diagonal(values)
        diag.valid_rows = rng.randint(0, size)
        for op in [*others, diag]:
            self._same(diag @ op, _general_product(diag, op))
            self._same(op @ diag, _general_product(op, diag))


def _bareiss_det(rows: list[list[Fraction]]) -> Fraction:
    """The determinant of a square matrix of rationals: its entries scaled
    to integers, then Bareiss's fraction-free elimination (Bareiss,
    *Math. Comp.* 22, 1968), with a row swap on a zero pivot."""
    size = len(rows)
    scale = math.lcm(*(F(v).denominator for row in rows for v in row))
    m = [[int(F(v) * scale) for v in row] for row in rows]
    sign, prev = 1, 1
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return F(0)
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return F(sign * m[-1][-1], scale ** size)


def _char_poly_at(op: BandedOperator, z: Fraction) -> Fraction:
    """det(z I - M) for the dense image of op, exact."""
    dense = _dense(op)
    return _bareiss_det([[(z if i == j else 0) - v for j, v in enumerate(row)]
                         for i, row in enumerate(dense)])


def _newton_step_within_tolerance(phi: LaurentPoly, z: complex) -> bool:
    """|phi(z) / phi'(z)| <= 2^-52 max(1, |z|), decided in exact rationals
    at the float point z, compared squared so no root is taken."""
    x, y = F(z.real), F(z.imag)
    pr = pj = dr = dj = F(0)
    for k in range(phi.max_exp, -1, -1):
        dr, dj = dr * x - dj * y + pr, dr * y + dj * x + pj
        pr, pj = pr * x - pj * y + phi.coeff(k), pr * y + pj * x
    return (pr * pr + pj * pj) <= F(1, 2**104) * max(1, x * x + y * y) * (dr * dr + dj * dj)


SPECTRUM_POINTS = [*GRID, (F(3, 7), F(-2, 5))]


class TestCharacteristicPolynomial:
    @pytest.mark.parametrize("alpha, beta", SPECTRUM_POINTS)
    def test_det_of_the_cmv_truncation_is_phi_n(self, alpha, beta):
        """det(z - C^(n)) = Phi_n(z), the identity ``spectrum`` rests on,
        with C^(n) = M1 M2 formed as a matrix and its determinant taken by
        elimination, for n = 1..12."""
        p = JacobiParams(alpha, beta)
        fam = build_family(p, 12)
        for n in range(1, 13):
            c = cmv_matrix(fam.a[:n], n)
            for z in (F(2), F(-1, 3), F(5, 7)):
                assert _char_poly_at(c, z) == fam.phi[n].evaluate(z), (n, z)

    def test_bareiss_against_a_permutation_expansion(self):
        rng = random.Random(7)
        for size in range(1, 5):
            for _ in range(20):
                m = _random_dense(rng, size)
                want = F(0)
                for perm in itertools.permutations(range(size)):
                    inv = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
                    want += (-1) ** inv * math.prod(m[i][perm[i]] for i in range(size))
                assert _bareiss_det(m) == want


class TestSpectrum:
    def test_size_one_is_a0(self):
        for alpha, beta in GRID:
            p = JacobiParams(alpha, beta)
            assert spectrum(p, 1) == [complex(float(verblunsky(p, 0)))]

    def test_free_truncation_is_nilpotent(self):
        """With vanishing coefficients the one-sided matrix is a shift
        chain that leaves every finite window, so all its eigenvalues
        collapse to zero at every size: phi_n = z^n, and each prints as
        an exact 0."""
        for size in (2, 3, 4, 6, 9):
            assert spectrum(LEBESGUE, size) == [0j] * size
            # exact nilpotency: some power has no nonzero entry at all
            c = cmv_matrix([F(0)] * size, size)
            power = BandedOperator.identity(size)
            for _ in range(size + 1):
                power = power @ c
            assert not list(entries(power))

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_truncations_are_contractions(self, alpha, beta):
        """Truncated one-sided matrices have spectrum in the closed unit
        disk (they are corners of a unitary)."""
        evs = spectrum(JacobiParams(alpha, beta), 21)
        assert len(evs) == 21
        assert max(abs(ev) for ev in evs) <= 1

    @pytest.mark.parametrize("alpha, beta", SPECTRUM_POINTS)
    def test_zeros_of_phi_n(self, alpha, beta):
        """n eigenvalues with multiplicity; 0 exactly as often as phi_n's
        lowest exponent says; at every other one z, the Newton step of
        phi_n, evaluated exactly, is at most 2^-52 max(1, |z|)."""
        p = JacobiParams(alpha, beta)
        fam = build_family(p, 40)
        for n in (1, 2, 9, 10, 21, 40):
            phi = fam.phi[n]
            evs = spectrum(p, n)
            assert len(evs) == n
            zeros = [ev for ev in evs if not ev]
            assert len(zeros) == phi.min_exp
            assert all(str(ev) == "0j" for ev in zeros)  # +0.0 in both parts
            assert all(_newton_step_within_tolerance(phi, ev) for ev in evs if ev)

    @pytest.mark.parametrize("alpha, beta", SPECTRUM_POINTS)
    def test_order_and_real_zeros(self, alpha, beta):
        """Sorted by argument in (-pi, pi], then modulus; closed under
        conjugation; a real eigenvalue has imaginary part +0.0, and a
        nonzero part of odd degree has one."""
        p = JacobiParams(alpha, beta)
        fam = build_family(p, 21)
        for n in (9, 10, 21):
            for matrix in ("c", "m1", "m2"):
                evs = spectrum(p, n, matrix)
                assert evs == sorted(evs, key=lambda v: (cmath.phase(v), abs(v)))
                assert Counter(evs) == Counter(v.conjugate() for v in evs)
                assert all(math.copysign(1, v.imag) == 1 for v in evs if not v.imag)
            if (n - fam.phi[n].min_exp) % 2:
                assert any(v and not v.imag for v in spectrum(p, n))

    @pytest.mark.parametrize("matrix, build, first", [("m1", build_m1, 1), ("m2", build_m2, 0)])
    @pytest.mark.parametrize("alpha, beta", SPECTRUM_POINTS)
    def test_reflection_factors_are_exact(self, matrix, build, first, alpha, beta):
        """Each reported eigenvalue is exactly 1, -1 or the cut block's
        a_{size-1}, and those values are the zeros of det(z - M)."""
        p = JacobiParams(alpha, beta)
        a = [verblunsky(p, k) for k in range(12)]
        for size in range(1, 13):
            blocks, cut = divmod(size - first, 2)
            exact = [1] * first + [1, -1] * blocks + a[size - 1:size] * cut
            assert Counter(spectrum(p, size, matrix)) == Counter(complex(v) for v in exact)
            op = build(a, size)
            for z in (F(2), F(-1, 3), F(5, 7)):
                assert _char_poly_at(op, z) == math.prod(z - v for v in exact)

    def test_sorted_deterministically(self):
        assert spectrum(SINGLE_MOMENT, 10) == spectrum(SINGLE_MOMENT, 10)

    def test_unconverged_iteration_raises(self, monkeypatch):
        # a Newton step that never settles leaves every zero open
        monkeypatch.setattr(cmv, "_newton", lambda nums, z: z + 1)
        with pytest.raises(ConvergenceFailure, match="in 500 sweeps$"):
            spectrum(JacobiParams(F(3, 7), F(-2, 5)), 4)


class TestRowVerifications:
    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_reflection_rows(self, alpha, beta, family):
        rep = verify_reflection_rows(family(alpha, beta, 12))
        assert rep.ok
        assert rep.to_dict()["status"] == "pass"

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_gevp_and_five_term(self, alpha, beta, family):
        rep = verify_gevp_and_five_term(family(alpha, beta, 12))
        assert rep.ok

    def test_skips_are_reported_not_asserted(self, family):
        rep = verify_reflection_rows(family(F(1, 2), F(-1, 2), 9))
        assert rep.skipped  # one side always has a cut block
        assert all("row" in s for s in rep.skipped)

    def test_corrupted_family_fails_both(self, family):
        from circlejacobi.opuc import family_from_verblunsky

        p = JacobiParams(F(1, 2), F(-1, 2))
        a = [verblunsky(p, n) for n in range(8)]
        a[1] += F(1, 100)
        bad = family_from_verblunsky(a, params=p)
        assert not verify_reflection_rows(bad).ok
        assert not verify_gevp_and_five_term(bad).ok


@pytest.fixture
def ring_operator_calls(monkeypatch):
    """The names of the pairwise LaurentPoly operators called from now on."""
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        def counted(*args, _orig=getattr(LaurentPoly, name), _name=name):
            calls.append(_name)
            return _orig(*args)

        monkeypatch.setattr(LaurentPoly, name, counted)
    return calls


class TestOneNormalizationPerResidual:
    @pytest.mark.parametrize(
        "check",
        [
            verify_reflection_rows,
            verify_gevp_and_five_term,
            dunkl.verify_bispectral,
            pytest.param(lambda fam: algebra.verify_relations_matrix(fam, 21),
                         id="verify_relations_matrix"),
            pytest.param(lambda fam: algebra.verify_central_extension(fam, 10, 21),
                         id="verify_central_extension"),
            pytest.param(szego.verify_classical_match, id="verify_classical_match"),
            pytest.param(
                lambda fam: moments.verify_determinantal_match(fam, 8),
                id="verify_determinantal_match"),
        ],
    )
    def test_residuals_use_no_chained_ring_operations(self, request, check):
        # every row and eigen residual is one LaurentPoly.lincomb, and every
        # matrix identity one BandedOperator.lincomb, so the pairwise
        # operators, each of which normalizes, are never reached
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 40)
        calls = request.getfixturevalue("ring_operator_calls")
        assert check(fam).ok
        assert calls == []

    def test_family_build_uses_no_chained_ring_operations(self, ring_operator_calls):
        # each Szego step z phi_n - a_n phi_n^* is one lincomb
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 40)
        assert fam.size == 40
        assert ring_operator_calls == []


class TestOneBuildPerFamily:
    def test_cmv_suite_builds_each_factor_once(self, monkeypatch):
        # both row checks read M1 and M2 from the family; building them
        # per check costs two builds of each factor.  C = M1 M2 is never
        # formed: the C rows are combinations of the reflection residuals
        calls = {"build_m1": 0, "build_m2": 0, "__matmul__": 0}
        for name in calls:
            owner = BandedOperator if name == "__matmul__" else cmv

            def counted(*args, _orig=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _orig(*args)

            monkeypatch.setattr(owner, name, counted)
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 40)
        assert all(rep.ok for rep in suites.run("cmv", fam))
        assert calls == {"build_m1": 1, "build_m2": 1, "__matmul__": 0}

    @pytest.mark.parametrize("size", [6, 7])
    def test_m1_upper_row_reads_the_held_block(self, size):
        # (a_n, A_n) for the upper rows of the complete M1 blocks at size
        # n + 1: the reference a_n, not the corrupted one, and the memo entry
        p = JacobiParams(F(3, 7), F(-2, 5))
        bad = suites.family(p, size, corrupt_a=1)
        m1 = family_operators(bad, size + 1)[0]
        for n in range(1, size, 2):
            a, upper = cmv.m1_upper_row(bad, n)
            assert a == verblunsky(p, n)
            assert upper is bad.derived[("reflection", 1, n)]
            assert upper == cmv.reflection_residual(bad, 1, n, op=m1)
        assert cmv.m1_upper_row(bad, 1)[1]  # psi_1 moved off the reference row
        # the leading 1x1 block, a lower row, and the cut block (size 7) or
        # past the last row (size 6)
        for n in (0, 2, size + 1 - size % 2):
            with pytest.raises(ValueError, match="not the upper row"):
                cmv.m1_upper_row(bad, n)

    @pytest.mark.parametrize("size", [6, 7])
    def test_operators_come_from_the_parameter_point(self, size):
        # a corrupted family tagged with p is checked against the matrices
        # p dictates, built at size n + 1; C is not built, and its rows are
        # checked exactly where the product M1 M2 is valid
        p = JacobiParams(F(3, 7), F(-2, 5))
        a = [verblunsky(p, k) for k in range(size + 1)]
        bad = suites.family(p, size, corrupt_a=1)
        want = (build_m1(a, size + 1), build_m2(a, size + 1))
        got = family_operators(bad, size + 1)
        assert got is family_operators(bad, size + 1)
        assert [m.rows for m in got] == [m.rows for m in want]
        assert [m.valid_rows for m in got] == [m.valid_rows for m in want]
        c_rows = [c for c in verify_gevp_and_five_term(bad).checks
                  if c.label.startswith("C row")]
        assert [c.label for c in c_rows] == [
            f"C row {n}" for n in range(cmv_matrix(a, size + 1).valid_rows)]
