"""Moments, Toeplitz determinants, and orthogonality."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from circlejacobi import moments, suites
from circlejacobi.errors import NonPositive, NotDivisible, ParamOutOfRange
from circlejacobi.laurent import LaurentPoly, Rational
from circlejacobi.moments import (
    MomentSeq,
    determinantal_phi,
    family_moments,
    inner_product,
    orthogonality_check,
    sigma,
    toeplitz_delta,
    verify_determinantal_match,
    verify_toeplitz_h,
)
from circlejacobi.opuc import JacobiParams, build_family, family_from_verblunsky

import moments_oracle as ref
from circle_oracle import LEBESGUE, SINGLE_MOMENT, lebesgue_sigma, single_moment_sigma
from conftest import GRID, PARAM
from moments_oracle import _det_fraction
from test_laurent import laurents

F = Fraction

POINTS = st.one_of(
    st.builds(JacobiParams, PARAM, PARAM),
    st.just(SINGLE_MOMENT),
    st.just(LEBESGUE),
)


def closed_form_moments(p: JacobiParams, top: int = 40) -> MomentSeq:
    """The MomentSeq at the single-moment or the Lebesgue point, after
    checking that its 3F2 moments sigma_{-top}..sigma_top are the
    closed forms of that weight."""
    want = {SINGLE_MOMENT: single_moment_sigma, LEBESGUE: lebesgue_sigma}[p]
    ms = MomentSeq(p)
    assert all(ms.value(n) == want(n) for n in range(-top, top + 1))
    return ms


def _poly_mul(p: list, q: list) -> list:
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _integral(p: list) -> Fraction:
    """int_{-1}^{1} sum_k p[k] x^k dx, exactly."""
    return sum((F(2, k + 1) * c for k, c in enumerate(p) if k % 2 == 0), F(0))


def _chebyshev_t(n: int) -> list:
    prev, cur = [F(1)], [F(0), F(1)]
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = _poly_mul([F(0), F(2)], cur)
        for k, c in enumerate(prev):
            nxt[k] -= c
        prev, cur = cur, nxt
    return cur


def _integer_jacobi_moment(alpha: int, beta: int, n: int) -> Fraction:
    """int T_n(x) (1-x)^alpha (1+x)^beta dx / int (1-x)^alpha (1+x)^beta dx,
    by exact polynomial integration."""
    w = [F(1)]
    for _ in range(alpha):
        w = _poly_mul(w, [F(1), F(-1)])
    for _ in range(beta):
        w = _poly_mul(w, [F(1), F(1)])
    return _integral(_poly_mul(_chebyshev_t(n), w)) / _integral(w)


def _sigma_running_sum(p: JacobiParams, n: int) -> Fraction:
    """The reference model: 3F2(-k, k, alpha+1; 1/2, alpha+beta+2; 1),
    k = |n|, summed outermost first as a running Fraction term ratio."""
    k = abs(n)
    a1 = p.alpha + 1
    b2 = p.alpha + p.beta + 2
    term = total = F(1)
    for j in range(k):
        term *= (j - k) * (j + k) * (j + a1) / ((j + F(1, 2)) * (j + 1) * (j + b2))
        total += term
    return total


# points of both signs, on the symmetric line, and within 1/100 or 1/1000
# of the endpoint alpha, beta = -1
MODEL_POINTS = [
    (F(3, 7), F(-2, 5)),
    (F(-1, 7), F(-2, 5)),
    (F(0), F(0)),
    (F(1), F(2)),
    (F(-99, 100), F(100)),
    (F(5, 2), F(-999, 1000)),
    (F(-999, 1000), F(-999, 1000)),
    (F(11, 3), F(7, 5)),
]


class TestWeight:
    def test_constructors_and_exactness(self):
        # the weight is named by its parameter point, and its moments
        # are exact at every point
        for p in (JacobiParams(1, 2), SINGLE_MOMENT, LEBESGUE):
            assert MomentSeq(p).params is p
            assert all(type(sigma(p, n)) is Rational for n in range(6))
        assert (SINGLE_MOMENT.alpha, SINGLE_MOMENT.beta) == (F(1, 2), F(-1, 2))
        assert (LEBESGUE.alpha, LEBESGUE.beta) == (F(-1, 2), F(-1, 2))

    def test_domain_guards(self):
        with pytest.raises(ParamOutOfRange):
            JacobiParams(-1, 0)
        with pytest.raises(ParamOutOfRange):
            JacobiParams(0, "-3/2")


class TestSigma:
    def test_lebesgue(self):
        assert [lebesgue_sigma(n) for n in (0, 5, -3)] == [1, 0, 0]
        assert sigma(LEBESGUE, 0) == 1
        assert sigma(LEBESGUE, 5) == 0
        assert sigma(LEBESGUE, -3) == 0

    def test_single_moment_frozen(self):
        assert [single_moment_sigma(n) for n in (0, 1, -1, 2)] == [1, F(-1, 2), F(-1, 2), 0]
        assert sigma(SINGLE_MOMENT, 0) == 1
        assert sigma(SINGLE_MOMENT, 1) == F(-1, 2)
        assert sigma(SINGLE_MOMENT, -1) == F(-1, 2)
        assert sigma(SINGLE_MOMENT, 2) == 0

    def test_jacobi_agrees_with_exact_twin(self):
        # (1/2, -1/2) is the single-moment weight (1 - cos t)/(2 pi), and
        # (-1/2, -1/2) is the Lebesgue weight: the 3F2 sum must give
        # their closed forms
        for n in range(-12, 13):
            assert sigma(SINGLE_MOMENT, n) == single_moment_sigma(n)
            assert sigma(LEBESGUE, n) == lebesgue_sigma(n)

    def test_jacobi_first_moment_frozen(self):
        # sigma_1 equals the first recurrence coefficient of the family
        assert sigma(JacobiParams(1, 2), 1) == F(1, 5)

    def test_sigma_zero_is_exact_for_every_weight(self):
        # the normalization makes sigma_0 = 1 by construction
        for p in (JacobiParams(1, 2), SINGLE_MOMENT, LEBESGUE):
            v = sigma(p, 0)
            assert isinstance(v, Fraction) and v == 1

    @pytest.mark.parametrize("alpha, beta", [(0, 0), (1, 2), (2, 0)])
    def test_integer_points_match_polynomial_integration(self, alpha, beta):
        p = JacobiParams(alpha, beta)
        for n in range(11):
            assert sigma(p, n) == _integer_jacobi_moment(alpha, beta, n)

    def test_symmetric_weight_has_vanishing_odd_moments(self):
        # alpha = beta makes the weight even in x = cos t, and T_n is odd
        for a in (F(-3, 4), F(0), F(2, 7), F(5, 2)):
            p = JacobiParams(a, a)
            assert all(sigma(p, n) == 0 for n in range(1, 14, 2))


class TestSigmaReferenceModel:
    @pytest.mark.parametrize("alpha, beta", MODEL_POINTS)
    def test_horner_sum_equals_running_sum(self, alpha, beta):
        p = JacobiParams(alpha, beta)
        for n in range(-3, 61):
            got = sigma(p, n)
            assert type(got) is Rational and got == _sigma_running_sum(p, n), n

    @settings(max_examples=60, deadline=None)
    @given(alpha=PARAM, beta=PARAM, n=st.integers(-40, 40))
    def test_random_points(self, alpha, beta, n):
        p = JacobiParams(alpha, beta)
        assert sigma(p, n) == _sigma_running_sum(p, n)


class TestMomentSeq:
    def test_caches_and_symmetrizes(self):
        ms = MomentSeq(JacobiParams(F(3, 7), F(-2, 5)))
        assert ms.value(3) is ms.value(-3)
        assert closed_form_moments(SINGLE_MOMENT).value(1) == F(-1, 2)

    @pytest.mark.parametrize("w", [
        *(JacobiParams(a, b) for a, b in MODEL_POINTS),
        SINGLE_MOMENT,
        LEBESGUE,
    ])
    def test_integer_view_reproduces_values(self, w):
        # grown in uneven steps, the view stays over the least common
        # denominator and reproduces value(k) at every index
        ms = MomentSeq(w)
        for top in (0, 3, 2, 11, 24):
            nums, den = ms.integer_view(top)
            assert len(nums) > top and den > 0
            assert all(type(c) is int for c in nums)
            assert [F(c, den) for c in nums] == [ms.value(k) for k in range(len(nums))]
            assert den == lcm(*(ms.value(k).denominator for k in range(len(nums))))

    def test_moments_suite_computes_each_moment_once(self, monkeypatch):
        # the three reports share one MomentSeq out of the family: at n = 40
        # they read sigma_0 .. sigma_12, and each report making its own
        # costs 13 + 9 + 9 calls
        calls = []
        orig = moments.sigma

        def counted(p, n):
            calls.append(n)
            return orig(p, n)

        monkeypatch.setattr(moments, "sigma", counted)
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 40)
        assert all(rep.ok for rep in suites.run("moments", fam))
        assert sorted(calls) == list(range(13))
        assert family_moments(fam) is fam.derived["moments"]
        assert family_moments(fam).params is fam.params

    def test_moments_suite_computes_each_delta_once(self, monkeypatch):
        # Toeplitz-h computes Delta_0 .. Delta_9 and the determinantal phi_n,
        # n = 1 .. 8, reads columns 0 .. n: all of them come from one 9 x 9
        # elimination, each column bordered once, and no cofactor minor is
        # formed.  An elimination per Delta or per phi_n borders columns
        # again; the cofactor form took 9 + sum(range(2, 10)) determinants.
        owners = {"toeplitz_delta": moments, "_border": MomentSeq}
        calls = dict.fromkeys(owners, 0)
        for name, owner in owners.items():
            def counted(*args, _orig=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _orig(*args)

            monkeypatch.setattr(owner, name, counted)
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 40)
        assert all(rep.ok for rep in suites.run("moments", fam))
        assert calls == {"toeplitz_delta": 10, "_border": 9}
        # read again, the held elimination borders nothing
        rows, _ = family_moments(fam).elimination(9)
        assert [len(row) for row in rows] == list(range(9, 0, -1))
        assert calls["_border"] == 9
        assert not hasattr(moments, "_det_fraction")


def _cofactor_det(m: list) -> Fraction:
    """Laplace expansion along the first row: slow, but obviously right."""
    if len(m) == 1:
        return F(m[0][0])
    return sum(
        (
            (-1) ** j * m[0][j] * _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
            for j in range(len(m))
        ),
        F(0),
    )


class TestBareiss:
    @pytest.mark.parametrize(
        "rows",
        [
            [[F(0), F(1, 2), F(3)], [F(2, 3), F(0), F(1)], [F(1), F(1), F(1)]],
            # the second pivot vanishes after the first elimination step
            [[F(1), F(1), F(1)], [F(1), F(1), F(2)], [F(1), F(2), F(3)]],
            # singular: the second row is twice the first
            [[F(1, 2), F(1, 3), F(1, 4)], [F(1), F(2, 3), F(1, 2)], [F(5), F(7), F(11, 3)]],
            # singular with an all-zero column: no pivot at all
            [[F(0), F(1, 5)], [F(0), F(-2, 7)]],
            [[F(-3, 11)]],
        ],
    )
    def test_matches_cofactor_expansion(self, rows):
        assert _det_fraction(rows) == _cofactor_det(rows)

    def test_singular_and_swap_cases_are_what_they_claim(self):
        assert _det_fraction(
            [[F(1, 2), F(1, 3), F(1, 4)], [F(1), F(2, 3), F(1, 2)], [F(5), F(7), F(11, 3)]]
        ) == 0
        assert _det_fraction(
            [[F(0), F(1, 2), F(3)], [F(2, 3), F(0), F(1)], [F(1), F(1), F(1)]]
        ) == F(13, 6)

    def test_random_small_rational_matrices(self):
        rng = random.Random(1968)
        for size in range(1, 6):
            for _ in range(20):
                rows = [
                    [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(size)]
                    for _ in range(size)
                ]
                assert _det_fraction(rows) == _cofactor_det(rows)


class TestToeplitz:
    def test_single_moment_frozen_determinants(self):
        # tridiagonal Toeplitz with diagonal 1, off-diagonal -1/2:
        # Delta_n = (n + 1) / 2^n
        ms = closed_form_moments(SINGLE_MOMENT)
        assert [toeplitz_delta(ms, n) for n in range(5)] == [
            F(1), F(1), F(3, 4), F(1, 2), F(5, 16),
        ]

    def test_lebesgue_is_identity(self):
        ms = closed_form_moments(LEBESGUE)
        assert toeplitz_delta(ms, 6) == 1

    def test_jacobi_is_exact(self, family):
        d = toeplitz_delta(MomentSeq(JacobiParams(1, 2)), 3)
        assert isinstance(d, Fraction) and d > 0
        h = family(F(1), F(2), 3).h
        assert d == h[0] * h[1] * h[2]

    def test_negative_order(self):
        with pytest.raises(ValueError):
            toeplitz_delta(MomentSeq(LEBESGUE), -1)

    def test_positivity_guard(self):
        ms = MomentSeq(LEBESGUE)
        ms._cache[1] = F(2)  # |sigma_1| > sigma_0
        with pytest.raises(NonPositive):
            toeplitz_delta(ms, 2)
        # determinantal phi_2 divides by the same Delta_2 = 1 - 2^2
        with pytest.raises(NonPositive, match=r"^Delta_2 = -3 <= 0$"):
            determinantal_phi(ms, 2)


class TestDeterminantalPhi:
    def test_lebesgue_gives_monomials(self):
        ms = closed_form_moments(LEBESGUE)
        for n in range(6):
            assert determinantal_phi(ms, n) == LaurentPoly.monomial(n)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            determinantal_phi(MomentSeq(LEBESGUE), -1)

    def test_matches_recurrence(self, family):
        closed_form_moments(SINGLE_MOMENT)
        fam = family(F(1, 2), F(-1, 2), 8)
        rep = verify_determinantal_match(fam, 8)
        assert rep.ok
        assert len(rep.checks) == 9
        fam = family(F(1), F(2), 8)
        assert verify_determinantal_match(fam, 8).ok

    def test_toeplitz_h_ratios(self, family):
        closed_form_moments(SINGLE_MOMENT)
        closed_form_moments(LEBESGUE)
        fam = family(F(1, 2), F(-1, 2), 9)
        assert verify_toeplitz_h(fam, 8).ok
        free = family(F(-1, 2), F(-1, 2), 9)
        assert verify_toeplitz_h(free, 8).ok


class TestInnerProduct:
    def test_exact_value_and_type(self):
        ms = closed_form_moments(SINGLE_MOMENT)
        phi1 = LaurentPoly({1: 1, 0: F(1, 2)})  # z + 1/2
        v = inner_product(phi1, phi1, ms)
        assert isinstance(v, Fraction) and v == F(3, 4)

    def test_jacobi_value_is_exact(self):
        ms = MomentSeq(JacobiParams(1, 2))
        v = inner_product(LaurentPoly.monomial(1), LaurentPoly.one(), ms)
        assert isinstance(v, Fraction) and v == F(1, 5)

    @settings(max_examples=200, deadline=None)
    @given(f=laurents(), g=laurents(), p=POINTS)
    def test_equals_the_double_sum(self, f, g, p):
        want = sum(
            (cf * cg * sigma(p, j - k) for j, cf in f.items() for k, cg in g.items()), F(0)
        )
        got = inner_product(f, g, MomentSeq(p))
        assert type(got) is Rational and got == want

    def test_zero_input_is_a_fraction(self):
        ms = MomentSeq(JacobiParams(1, 2))
        f = LaurentPoly({-2: F(1, 3), 4: 5})
        for v in (
            inner_product(LaurentPoly.zero(), f, ms),
            inner_product(f, LaurentPoly.zero(), ms),
            inner_product(LaurentPoly.zero(), LaurentPoly.zero(), ms),
        ):
            assert type(v) is Rational and v == 0


class TestOrthogonality:
    def test_exact_weight(self, family):
        closed_form_moments(SINGLE_MOMENT)
        fam = family(F(1, 2), F(-1, 2), 12)
        rep = orthogonality_check(fam, 10)
        assert rep.ok

    def test_jacobi_weight(self, family):
        fam = family(F(1), F(2), 12)
        rep = orthogonality_check(fam, 10)
        assert rep.ok
        assert len(rep.checks) == 66
        assert rep.to_dict()["params"] == {
            "alpha": "1", "beta": "2", "weight": "jacobi", "n_max": "10",
        }

    def test_wrong_weight_fails(self, family):
        # the (1, 2) polynomials tagged with the Lebesgue point are paired
        # against the Lebesgue moments, which they are not orthogonal for
        closed_form_moments(LEBESGUE)
        fam = family_from_verblunsky(family(F(1), F(2), 6).a, params=LEBESGUE)
        rep = orthogonality_check(fam, 4)
        assert not rep.ok
        assert rep.failures

    def test_range_guard(self, family):
        fam = family(F(0), F(0), 4)
        with pytest.raises(ValueError):
            orthogonality_check(fam, 5)

    @pytest.mark.parametrize(
        "report", [orthogonality_check, verify_toeplitz_h, verify_determinantal_match])
    def test_range_guard_is_shared(self, family, report):
        fam = family(F(0), F(0), 4)
        assert report(fam, 4).ok
        with pytest.raises(ValueError, match="family too short for requested range"):
            report(fam, 6)

    def test_reports_need_the_parameter_point(self):
        fam = family_from_verblunsky([F(-1, 2), F(-1, 3), F(-1, 4)])
        for report in (orthogonality_check, verify_toeplitz_h, verify_determinantal_match):
            with pytest.raises(ValueError) as exc:
                report(fam, 2)
            assert str(exc.value) == "family carries no (alpha, beta) parameters"
        assert fam.derived == {}


class TestRandomRationalPoints:
    @settings(max_examples=100, deadline=None)
    @given(alpha=PARAM, beta=PARAM)
    def test_orthogonality_and_toeplitz_h_exact(self, alpha, beta):
        fam = build_family(JacobiParams(alpha, beta), 6)
        assert orthogonality_check(fam, 6).ok
        assert verify_toeplitz_h(fam, 6).ok


# the grid, an off-grid point with larger heights, and one within 1/1000 of
# the endpoint beta = -1
REFERENCE_POINTS = [*GRID, (F(3, 7), F(-2, 5)), (F(5, 2), F(-999, 1000))]


def _orthogonality_details(fam, ms, n_max: int) -> list:
    """(label, ok, detail) of each orthogonality check, from the
    reference product-form inner product."""
    out = []
    for n in range(n_max + 1):
        for m in range(n + 1):
            v = ref.inner_product(fam.phi[n], fam.phi[m], ms)
            target = fam.h[n] if m == n else F(0)
            ok = v == target
            out.append((f"n={n},m={m}", ok, "" if ok else f"<{n},{m}> = {v}, expected {target}"))
    return out


def _first_non_positive(delta) -> str:
    """The NonPositive message of delta(0), delta(1), ... in Toeplitz-h's
    order, which must raise one before n = 14."""
    with pytest.raises(NonPositive) as exc:
        for n in range(14):
            delta(n)
    return str(exc.value)


class TestHeldEliminationMatchesReference:
    """The held elimination and pairing vectors against the per-call
    cofactor and product forms of ``tests/moments_oracle.py``."""

    @pytest.mark.parametrize("alpha, beta", REFERENCE_POINTS)
    def test_deltas_and_determinantal_phi(self, alpha, beta):
        p = JacobiParams(alpha, beta)
        ms, ref_ms = MomentSeq(p), MomentSeq(p)
        for n in range(11):
            got = toeplitz_delta(ms, n)
            assert type(got) is Rational and got == ref.toeplitz_delta(ref_ms, n), n
        for n in range(10):
            assert determinantal_phi(ms, n) == ref.determinantal_phi(ref_ms, n), n

    @pytest.mark.parametrize("alpha, beta", REFERENCE_POINTS)
    @pytest.mark.parametrize("corrupt", [None, 0, 1, 5, 11])
    def test_pairings_and_failure_details(self, alpha, beta, corrupt):
        p = JacobiParams(alpha, beta)
        fam = suites.family(p, 12, corrupt_a=corrupt)
        ref_ms = MomentSeq(p)
        ms = family_moments(fam)
        for n in range(13):
            for m in range(13):
                got = inner_product(fam.phi[n], fam.phi[m], ms)
                assert type(got) is Rational
                assert got == ref.inner_product(fam.phi[n], fam.phi[m], ref_ms), (n, m)
        rep = orthogonality_check(fam, 12)
        want = _orthogonality_details(fam, ref_ms, 12)
        assert [(c.label, c.ok, c.detail) for c in rep.checks] == want
        assert rep.ok == (corrupt is None)
        for report in (verify_toeplitz_h, verify_determinantal_match):
            assert report(fam, 8).ok == (corrupt is None or corrupt > 8), report.__name__

    def test_uneven_growth_rescales_the_held_elimination(self):
        # the elimination is bordered over sigma_0..sigma_2, then the
        # common denominator grows under it: every later read is rescaled
        p = JacobiParams(F(3, 7), F(-2, 5))
        ms, ref_ms = MomentSeq(p), MomentSeq(p)
        assert toeplitz_delta(ms, 2) == ref.toeplitz_delta(ref_ms, 2)
        small = ms.elimination(2)[1]
        fam = build_family(p, 12)
        assert inner_product(fam.phi[12], fam.phi[12], ms) == fam.h[12]
        assert ms.integer_view(0)[1] != small
        for n in (9, 3, 10):
            assert determinantal_phi(ms, n) == ref.determinantal_phi(ref_ms, n)
            assert toeplitz_delta(ms, n) == ref.toeplitz_delta(ref_ms, n)
        assert ms.elimination(1)[1] == ms.integer_view(0)[1]

    @pytest.mark.parametrize("k, bump", [
        (1, 2), (1, F(-3, 2)), (2, 3), (3, -5), (4, F(7, 3)), (5, 10), (11, 50)])
    def test_patched_moments_raise_as_the_reference(self, k, bump):
        def patched() -> MomentSeq:
            ms = MomentSeq(JacobiParams(F(3, 7), F(-2, 5)))
            ms._cache[k] = ms.value(k) + bump
            return ms

        ms, ref_ms = patched(), patched()
        msg = _first_non_positive(lambda n: toeplitz_delta(ms, n))
        assert msg == _first_non_positive(lambda n: ref.toeplitz_delta(ref_ms, n))
        bad = int(msg.split()[0].removeprefix("Delta_"))
        # phi_bad divides by the same Delta; below it nothing raises, on a
        # fresh MomentSeq too, since no elimination reaches past its size
        for m in (ms, patched()):
            with pytest.raises(NonPositive) as exc:
                determinantal_phi(m, bad)
            assert str(exc.value) == msg
        fresh = patched()
        assert toeplitz_delta(fresh, bad - 1) == ref.toeplitz_delta(ref_ms, bad - 1)
        assert determinantal_phi(fresh, bad - 1) == ref.determinantal_phi(ref_ms, bad - 1)

    def test_back_substitution_remainder_raises(self):
        ms = MomentSeq(JacobiParams(F(3, 7), F(-2, 5)))
        want = determinantal_phi(ms, 3)
        ms._rows[0][1] += 1  # no longer a minor of the Toeplitz matrix
        with pytest.raises(NotDivisible, match=r"^back substitution for phi_3 leaves"):
            determinantal_phi(ms, 3)
        ms._rows[0][1] -= 1
        assert determinantal_phi(ms, 3) == want
