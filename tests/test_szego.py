"""The symmetrization map to [-2, 2] and its exact closure."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from circlejacobi import suites
from circlejacobi.errors import ParamOutOfRange
from circlejacobi.laurent import LaurentPoly, Z_PLUS_ZINV
from circlejacobi.opuc import JacobiParams, build_family, family_from_verblunsky
from circlejacobi.szego import (
    b_coeff,
    bt_coeff,
    build_p,
    build_q,
    fit_recurrence,
    p_top,
    q_top,
    recurrence,
    u_coeff,
    ut_coeff,
    verify_classical_match,
    verify_dep_and_pq_identity,
    verify_recurrence_closure,
    verify_three_term,
    verify_transforms,
)

from classical_oracle import classical_jacobi_chain, classical_jacobi_oracle
from conftest import GRID, verblunsky_lists

F = Fraction
x = Z_PLUS_ZINV  # x(z) = z + 1/z


def span_residuals(chain, b, u):
    """x p_n - p_{n+1} - b_n p_n - u_n p_{n-1} for n >= 1, from fitted b, u."""
    return [
        LaurentPoly.lincomb([(1, chain[n].shift(1)), (1, chain[n].shift(-1)),
                             (-1, chain[n + 1]), (-b[n], chain[n]), (-u[n], chain[n - 1])])
        for n in range(1, len(chain) - 1)
    ]


class TestClassicalOracle:
    def test_legendre_frozen(self):
        # monic Legendre rescaled to [-2, 2]: p2 = x^2 - 4/3
        assert classical_jacobi_oracle(0, 0, 0) == 1
        assert classical_jacobi_oracle(0, 0, 1) == x
        assert classical_jacobi_oracle(0, 0, 2) == x**2 - F(4, 3)

    def test_chebyshev_frozen(self):
        # the parameter sum -1 case exercises the cancelled n = 1 weight
        assert classical_jacobi_oracle(F(-1, 2), F(-1, 2), 2) == x**2 - 2
        assert classical_jacobi_oracle(F(-1, 2), F(-1, 2), 3) == x**3 - 3 * x

    def test_asymmetric_frozen(self):
        # alpha = 3/2, beta = 1/2: first moment is -1/2
        assert classical_jacobi_oracle(F(3, 2), F(1, 2), 1) == x + F(1, 2)

    def test_domain_guard(self):
        with pytest.raises(ParamOutOfRange):
            classical_jacobi_oracle(-1, 0, 2)
        with pytest.raises(ValueError):
            classical_jacobi_oracle(0, 0, -1)

    def test_chain_yields_every_degree_once(self):
        chain = list(classical_jacobi_chain(F(3, 7), F(-2, 5), 6))
        assert [p.max_exp for p in chain] == list(range(7))
        assert all(
            p == classical_jacobi_oracle(F(3, 7), F(-2, 5), n) for n, p in enumerate(chain)
        )

    def test_three_term_internal_consistency(self):
        # the oracle chain satisfies its own recurrence when refit
        chain = [classical_jacobi_oracle(F(1), F(2), n) for n in range(7)]
        b, u = fit_recurrence(chain)
        assert not any(span_residuals(chain, b, u))
        assert all(x > 0 for x in u[1:])


class TestBuildPQ:
    def test_single_moment_frozen(self, family):
        fam = family(F(1, 2), F(-1, 2), 7)
        assert build_p(fam, 0) == 1
        assert build_p(fam, 1) == x + 1
        assert build_p(fam, 2) == x**2 + x - 1
        assert build_q(fam, 0) == 1
        assert build_q(fam, 1) == x + F(1, 2)

    def test_free_point_is_chebyshev(self, family):
        fam = family(F(-1, 2), F(-1, 2), 9)
        # monic Chebyshev on [-2, 2]: P_n = z^n + z^-n
        assert build_p(fam, 2) == x**2 - 2 == LaurentPoly({2: 1, -2: 1})
        assert build_p(fam, 4) == x**4 - 4 * x**2 + 2 == LaurentPoly({4: 1, -4: 1})

    def test_monic_in_x(self, family):
        fam = family(F(1), F(2), 11)
        # a symmetric Laurent polynomial's leading x-coefficient is its top
        # z-coefficient
        for n in range(6):
            for f in (build_p(fam, n), build_q(fam, n)):
                assert f.reflect() == f and f.max_exp == n and f.coeff(n) == 1


    def test_chains_are_built_once_per_family(self, family):
        fam = family(F(1), F(2), 11)
        p3, q2 = build_p(fam, 3), build_q(fam, 2)
        assert build_p(fam, 3) is p3 and build_q(fam, 2) is q2
        # the verifiers read the same memo, and it holds every P and Q the
        # family carries, no more; psi(P,Q) adds M1 at size N + 1 and the
        # odd M1 reflection rows A_{2n-1}, 2n <= N, its even rows read
        for verify in (verify_three_term, verify_recurrence_closure, verify_transforms,
                       verify_classical_match, verify_dep_and_pq_identity):
            assert verify(fam).ok
        assert build_p(fam, 3) is p3 and build_q(fam, 2) is q2
        assert set(fam.derived) == {("P", n) for n in range(p_top(11) + 1)} | {
            ("Q", n) for n in range(q_top(11) + 1)
        } | {("three-term", "P"), ("three-term", "Q"), "psi(P,Q)", ("recurrence", "P"),
             ("recurrence", "Q"), "christoffel'", "raising", ("cmv", 12)} | {
            ("reflection", 1, 2 * n - 1) for n in range(1, 6)}

    def test_memo_is_per_family_not_per_params(self, family):
        # a corrupted family carries the clean family's params; it must
        # build its own chains, never read the clean ones
        clean = family(F(1), F(2), 16)
        half = (clean.size + 1) // 2
        assert verify_classical_match(clean).ok
        bad = suites.family(clean.params, 16, corrupt_a=1)
        assert bad.params == clean.params and not bad.derived
        for n in range(2, half + 1):
            assert build_p(bad, n) != build_p(clean, n)
            assert build_q(bad, n - 1) != build_q(clean, n - 1)
        assert not verify_classical_match(bad).ok
        assert not verify_dep_and_pq_identity(bad).ok
        assert verify_classical_match(clean).ok


class TestRecurrenceCoefficients:
    def test_single_moment_frozen(self, family):
        fam = family(F(1, 2), F(-1, 2), 9)
        assert b_coeff(fam, 0) == -1  # 2 a_0
        assert b_coeff(fam, 1) == 0
        assert u_coeff(fam, 0) == 0
        assert u_coeff(fam, 1) == 1
        assert bt_coeff(fam, 0) == F(-1, 2)
        assert ut_coeff(fam, 0) == 0

    def test_free_boundary_convention(self, family):
        # u_1 = (1 + a_1)(1 - a_{-1})(1 - a_0^2) with a_{-1} = -1
        fam = family(F(-1, 2), F(-1, 2), 9)
        assert u_coeff(fam, 1) == 2
        assert all(u_coeff(fam, n) == 1 for n in (2, 3))
        assert all(b_coeff(fam, n) == 0 for n in range(4))

    def test_weights_are_positive(self, family):
        fam = family(F(0), F(0), 6)
        top = q_top(fam.size)
        assert top == 2  # the last P step; b~_2 reads a_6, b~_3 would need a_8
        assert all(u_coeff(fam, n) > 0 and ut_coeff(fam, n) > 0 for n in range(1, top + 1))

    @settings(deadline=None)
    @given(verblunsky_lists(20))
    def test_weights_positive_for_any_coefficients(self, a):
        # |a_k| < 1 makes every factor of u_n and u~_n positive for n >= 1,
        # and a_k = -1 for k < 0 gives u_0 = u~_0 = 0 and b_0 = 2 a_0
        fam = family_from_verblunsky(a)
        u = [u_coeff(fam, n) for n in range(p_top(fam.size) + 1)]  # u_n reads a_{2n-1}
        ut = [ut_coeff(fam, n) for n in range(q_top(fam.size) + 1)]  # u~_n reads a_{2n+1}
        for w in (u, ut):
            assert w[:1] in ([], [0])
            assert all(v > 0 for v in w[1:])
        assert b_coeff(fam, 0) == 2 * fam.a[0]

    @pytest.mark.parametrize("size", range(3, 13))
    def test_recurrence_is_one_build(self, size):
        """recurrence(fam, name) holds the chain's own memo entries and
        the four closed forms of every step, on clean, corrupted and
        untagged families; sizes 3..12 give both parities of p_top and
        q_top."""
        clean = build_family(JacobiParams(F(3, 7), F(-2, 5)), size)
        bad = suites.family(clean.params, size, corrupt_a=size // 2)
        for fam in (clean, bad, family_from_verblunsky(bad.a)):
            for name, build, top, b_of, u_of in (("P", build_p, p_top, b_coeff, u_coeff),
                                                 ("Q", build_q, q_top, bt_coeff, ut_coeff)):
                chain, b, u = rec = recurrence(fam, name)
                assert recurrence(fam, name) is rec
                m = top(size)
                assert len(chain) == m + 1
                assert all(chain[n] is build(fam, n) for n in range(m + 1))
                assert b == tuple(b_of(fam, n) for n in range(m))
                assert u == tuple(u_of(fam, n) for n in range(m))

    def test_pair_requires_size(self, family):
        fam = family(F(0), F(0), 2)
        for verify in (verify_three_term, verify_recurrence_closure, verify_transforms):
            with pytest.raises(ValueError, match="size >= 3"):
                verify(fam)


class TestVerifications:
    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_three_term(self, alpha, beta, family):
        fam = family(alpha, beta, 13)
        assert verify_three_term(fam).ok

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_recurrence_closure(self, alpha, beta, family):
        fam = family(alpha, beta, 13)
        rep = verify_recurrence_closure(fam)
        assert rep.ok

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_transforms(self, alpha, beta, family):
        fam = family(alpha, beta, 13)
        rep = verify_transforms(fam)
        assert rep.ok
        labels = {c.label.split(" ")[0] for c in rep.checks}
        assert {
            "christoffel",
            "christoffel'",
            "geronimus",
            "psi(P,Q)",
            "psi(P,P)",
            "P",
            "Q",
        } <= labels

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_classical_match(self, alpha, beta, family):
        fam = family(alpha, beta, 13)
        assert verify_classical_match(fam).ok

    @pytest.mark.parametrize("alpha,beta", GRID)
    def test_differential_identities(self, alpha, beta, family):
        fam = family(alpha, beta, 13)
        assert verify_dep_and_pq_identity(fam).ok

    def test_theta_pq_reaches_every_p_row(self, family):
        # theta P_n = n (z - 1/z) Q_{n-1} reads phi_{2n-1} on both sides, so
        # every n <= (size + 1) // 2 is checked and none is skipped
        for size in range(3, 21):
            fam = family(1, 2, size)
            rep = verify_dep_and_pq_identity(fam)
            assert rep.skipped == []
            assert len(rep.checks) == 2 * ((size + 1) // 2 + 1)

    def test_fit_detects_broken_chain(self):
        # a chain that is not orthogonal: x p_n - p_{n+1} leaves the span
        chain = [x**0, x, x**2, x**3 + 1]
        b, u = fit_recurrence(chain)
        assert any(span_residuals(chain, b, u))

    def test_fit_rejects_non_monic_chain(self):
        chain = [x**0, x, x**2 * 2]
        with pytest.raises(ValueError, match="element 2 is not monic"):
            fit_recurrence(chain)

    def test_fit_rejects_wrong_degree_chain(self):
        # x^2 + x has z-coefficient 1 at z^1, but its degree is 2
        chain = [x**0, x**2 + x, x**2]
        with pytest.raises(ValueError, match="element 1 is not monic of degree 1"):
            fit_recurrence(chain)


def _step_held(fam, name: str, n: int) -> bool:
    """Whether the family holds all that step n of the P (or Q) recurrence
    reads: the next chain member and both closed-form coefficients."""
    build, b_of, u_of = {
        "P": (build_p, b_coeff, u_coeff), "Q": (build_q, bt_coeff, ut_coeff),
    }[name]
    try:
        build(fam, n + 1)
        b_of(fam, n)
        u_of(fam, n)
    except IndexError:
        return False
    return True


class TestEveryHeldInstance:
    # The last step each recurrence report forms, read off its labels:
    # "P n=4" in three-term, "b_4"/"u~_3" in recurrence-closure.
    LAST = {
        "three-term": lambda label: (label[0], int(label.split("=")[1])),
        "recurrence-closure": lambda label: (
            "Q" if "~" in label else "P", int(label.split("_")[1])),
    }

    @pytest.mark.parametrize("verify", [verify_three_term, verify_recurrence_closure])
    def test_one_step_past_the_last_is_not_held(self, verify):
        for size in range(3, 26):
            fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), size)
            rep = verify(fam)
            parse = self.LAST[rep.identity]
            last = {}
            for c in rep.checks:
                if "chain in span" not in c.label:
                    name, n = parse(c.label)
                    last[name] = max(last.get(name, -1), n)
            for name, n in last.items():
                assert _step_held(fam, name, n), (size, name, n)
                assert not _step_held(fam, name, n + 1), (size, name, n)

    def test_odd_sizes_reach_the_last_p_step(self):
        # at N = 2m + 1 the step P_{m+1} + b_m P_m + u_m P_{m-1} = x P_m
        # reads a_{2m-3} .. a_{2m}, all held
        fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), 25)
        three, closure = verify_three_term(fam), verify_recurrence_closure(fam)
        assert three.ok and closure.ok
        assert [c.label for c in three.checks][12:14] == ["P n=12", "Q n=0"]
        assert {"b_12", "u_12"} <= {c.label for c in closure.checks}


class TestComplexity:
    def test_closure_and_oracle_stay_quadratic(self, monkeypatch):
        # Each chain step of closure + classical-match costs O(1)
        # LaurentPoly operations, so doubling n about doubles the count;
        # a per-step x-expansion (O(n^3) in total) pushes it toward 8.
        calls = [0]
        for name in ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "lincomb"):
            orig = getattr(LaurentPoly, name)

            def counted(*args, _orig=orig):
                calls[0] += 1
                return _orig(*args)

            monkeypatch.setattr(LaurentPoly, name, counted)
        counts = []
        for n in (40, 80):
            fam = build_family(JacobiParams(F(3, 7), F(-2, 5)), n)
            for n_p in range(p_top(fam.size) + 1):  # warm the P/Q memo
                build_p(fam, n_p)
            for n_q in range(q_top(fam.size) + 1):
                build_q(fam, n_q)
            calls[0] = 0
            assert verify_recurrence_closure(fam).ok
            assert verify_classical_match(fam).ok
            counts.append(calls[0])
        assert counts[1] / counts[0] <= 2.5, counts
