"""The suite registry, the corruption rule and the golden verify reports."""

import argparse
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from circlejacobi import algebra, cli, dunkl, moments, suites, szego
from circlejacobi.errors import BadVerblunsky
from circlejacobi.opuc import JacobiParams, build_family, family_from_verblunsky, verblunsky

from conftest import PARAM

F = Fraction
P = JacobiParams(F(1), F(2))
NAMES = ("bispectral", "cmv", "algebra", "szego", "moments")
GOLDEN = Path(__file__).parent / "golden"
# The Szegő identities that read fam.a, not (alpha, beta)
PARAMETER_BLIND = ("three-term", "recurrence-closure", "szego-transforms")


# Every report that reads (alpha, beta) from the family, at sizes a
# family of size 6 admits
PARAMETER_READERS = [
    pytest.param(dunkl.verify_bispectral, id="verify_bispectral"),
    pytest.param(lambda fam: algebra.verify_relations_matrix(fam, 7),
                 id="verify_relations_matrix"),
    pytest.param(lambda fam: algebra.verify_relations_functional(fam, 3),
                 id="verify_relations_functional"),
    pytest.param(lambda fam: algebra.verify_central_extension(fam, 3, 7),
                 id="verify_central_extension"),
    pytest.param(algebra.y_eigencheck, id="y_eigencheck"),
    pytest.param(szego.verify_classical_match, id="verify_classical_match"),
    pytest.param(szego.verify_dep_and_pq_identity, id="verify_dep_and_pq_identity"),
    pytest.param(lambda fam: moments.orthogonality_check(fam, 6), id="orthogonality_check"),
    pytest.param(lambda fam: moments.verify_toeplitz_h(fam, 6), id="verify_toeplitz_h"),
    pytest.param(lambda fam: moments.verify_determinantal_match(fam, 6),
                 id="verify_determinantal_match"),
]


@pytest.mark.parametrize("report", PARAMETER_READERS)
def test_untagged_family_is_refused_by_name(report):
    # the same ValueError from every report, never an AttributeError on None
    fam = family_from_verblunsky([verblunsky(P, k) for k in range(7)])
    with pytest.raises(ValueError) as exc:
        report(fam)
    assert str(exc.value) == "family carries no (alpha, beta) parameters"


class TestRegistry:
    def test_suite_order(self):
        assert tuple(suites.SUITES) == NAMES

    def test_all_is_every_suite_in_order(self, family):
        fam = family(1, 2, 6)
        each = [rep for name in suites.SUITES for rep in suites.run(name, fam)]
        assert suites.run("all", fam) == each
        assert len(each) == 16

    # (identity, size parameters, checks) of run("all") at (1, 2); n = 3 and
    # n = 24 sit on both sides of every clamp in the size rules.
    SIZES = {
        3: [
            ("bispectral-eigen", {"n_max": "3"}, 4),
            ("reflection-rows", {"size": "4"}, 7),
            ("cmv-rows", {"size": "4"}, 6),
            ("representation-derivation", {"n_max": "3"}, 8),
            ("algebra-matrix", {"size": "7"}, 4),
            ("algebra-functional", {"monomial_range": "3"}, 28),
            ("central-extension", {"monomial_range": "3", "matrix_size": "7"}, 33),
            ("y-eigen", {"n_max": "3"}, 18),
            ("three-term", {}, 3),
            ("recurrence-closure", {}, 6),
            ("szego-transforms", {}, 13),
            ("classical-match", {"n_max": "2"}, 5),
            ("hypergeometric-ode", {"n_max": "2"}, 6),
            ("orthogonality", {"weight": "jacobi", "n_max": "3"}, 10),
            ("toeplitz-h", {"weight": "jacobi", "n_max": "3"}, 4),
            ("determinantal-match", {"weight": "jacobi", "n_max": "3"}, 4),
        ],
        24: [
            ("bispectral-eigen", {"n_max": "24"}, 25),
            ("reflection-rows", {"size": "25"}, 49),
            ("cmv-rows", {"size": "25"}, 47),
            ("representation-derivation", {"n_max": "24"}, 50),
            ("algebra-matrix", {"size": "21"}, 4),
            ("algebra-functional", {"monomial_range": "10"}, 84),
            ("central-extension", {"monomial_range": "10", "matrix_size": "21"}, 89),
            ("y-eigen", {"n_max": "24"}, 100),
            ("three-term", {}, 23),
            ("recurrence-closure", {}, 46),
            ("szego-transforms", {}, 107),
            ("classical-match", {"n_max": "12"}, 25),
            ("hypergeometric-ode", {"n_max": "12"}, 26),
            ("orthogonality", {"weight": "jacobi", "n_max": "12"}, 91),
            ("toeplitz-h", {"weight": "jacobi", "n_max": "8"}, 9),
            ("determinantal-match", {"weight": "jacobi", "n_max": "8"}, 9),
        ],
    }

    @pytest.mark.parametrize("n", sorted(SIZES))
    def test_size_rules(self, n, family):
        got = []
        for rep in suites.run("all", family(1, 2, n)):
            params = rep.to_dict()["params"]
            sizes = {k: v for k, v in params.items() if k not in ("alpha", "beta")}
            got.append((rep.identity, sizes, len(rep.checks)))
        assert got == self.SIZES[n]

    def test_cli_suite_choices(self):
        sub = next(
            a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
        assert tuple(suite.choices) == (*suites.SUITES, "all")

    def test_suites_look_routines_up_at_call_time(self, monkeypatch, family):
        # A tracer swaps verify_* by name in its module's dict; the registry
        # must pick the swapped function up.
        sentinel = object()
        monkeypatch.setattr(dunkl, "verify_bispectral", lambda fam: sentinel)
        assert suites.run("bispectral", family(1, 2, 4)) == [sentinel]


class TestFamily:
    def test_clean_family_is_build_family(self):
        assert suites.family(P, 9) == build_family(P, 9)

    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_corruption_moves_one_coefficient(self, k):
        clean, bad = build_family(P, 11), suites.family(P, 11, corrupt_a=k)
        assert bad.size == clean.size == 11 and bad.params == P
        assert [y - x for x, y in zip(clean.a, bad.a)] == [
            F(1, 100) if i == k else 0 for i in range(12)
        ]


class TestReach:
    # suite -> {n: highest a_k read}; n = 4 and 16 are even, where the
    # Szegő half-size rule stops one short, and 16 is past the moments cap
    TOPS = {
        "szego": {3: 2, 4: 2, 7: 6, 16: 14},
        "moments": {3: 2, 4: 3, 7: 6, 16: 11},
    }

    @pytest.mark.parametrize("name", (*NAMES, "all"))
    @pytest.mark.parametrize("n", [3, 4, 7, 16])
    def test_reach(self, name, n):
        assert suites.reach(name, n) == self.TOPS.get(name, {}).get(n, n - 1)

    @pytest.mark.parametrize(
        "name, k", [("szego", 15), *[("moments", k) for k in range(12, 16)]]
    )
    def test_corruption_beyond_reach_changes_nothing(self, name, k):
        reports = suites.run(name, suites.family(P, 16, corrupt_a=k))
        assert all(r.ok for r in reports)


class TestRandomPointSweep:
    # (alpha, beta) from PARAM, with alpha = beta drawn on its own, since
    # every even a_k vanishes there
    POINT = st.one_of(st.tuples(PARAM, PARAM), PARAM.map(lambda a: (a, a)))

    @settings(max_examples=25, deadline=None)
    @given(point=POINT, n=st.integers(3, 8))
    @example(point=(F(-99, 100), F(1)), n=3)  # a_0 + 1/100 > 1
    def test_clean_passes_and_every_corruption_in_reach_fails(self, point, n):
        p = JacobiParams(*point)
        fam = build_family(p, n)
        for name in NAMES:
            assert all(r.ok for r in suites.run(name, fam)), name
            for k in range(suites.reach(name, n) + 1):
                moved = verblunsky(p, k) + F(1, 100)
                try:
                    bad = suites.family(p, n, corrupt_a=k)
                except BadVerblunsky:
                    # a_k + 1/100 left (-1, 1): the family cannot be built
                    assert not -1 < moved < 1, (name, k)
                    continue
                assert -1 < moved < 1
                ok = {r.identity: r.ok for r in suites.run(name, bad)}
                if name == "szego":
                    # the parameter-blind identities pass by design
                    assert all(ok.pop(i) for i in PARAMETER_BLIND), k
                assert not all(ok.values()), f"{name} missed a_{k}"

    @settings(max_examples=25, deadline=None)
    @given(point=POINT, n=st.integers(3, 14))
    @example(point=(F(1), F(2)), n=14)  # a_12, a_13 and a_14 past moments
    def test_corruption_beyond_reach_changes_nothing(self, point, n):
        # a_n is part of the family too, so the range runs up to k = n
        p = JacobiParams(*point)
        fam = build_family(p, n)
        for name in NAMES:
            beyond = range(suites.reach(name, n) + 1, n + 1)
            clean = [r.to_dict() for r in suites.run(name, fam)]
            for k in beyond:
                try:
                    bad = suites.family(p, n, corrupt_a=k)
                except BadVerblunsky:
                    assert not -1 < verblunsky(p, k) + F(1, 100) < 1, (name, k)
                    continue
                assert [r.to_dict() for r in suites.run(name, bad)] == clean, (name, k)


@pytest.mark.parametrize("k", [0, 1, 5])
def test_parameter_blind_identities_pass_under_corruption(k):
    # The first three Szegő identities take their coefficients from fam.a,
    # not from fam.params, so they hold for any Verblunsky list and pass a
    # corrupted one by design; the oracle match and the ODE catch it.
    reports = suites.run("szego", suites.family(P, 16, corrupt_a=k))
    assert [(r.identity, r.ok) for r in reports] == [
        ("three-term", True),
        ("recurrence-closure", True),
        ("szego-transforms", True),
        ("classical-match", False),
        ("hypergeometric-ode", False),
    ]


@pytest.mark.parametrize(
    "k, name", [(k, name) for name in NAMES for k in range(suites.reach(name, 16) + 1)]
)
def test_corruption_failures_carry_residuals(name, k):
    reports = suites.run(name, suites.family(P, 16, corrupt_a=k))
    failures = [f"{r.identity}/{c.label}" for r in reports for c in r.failures]
    assert failures, f"a_{k} corruption slipped past every {name} identity"
    assert not [
        f"{r.identity}/{c.label}" for r in reports for c in r.failures if not c.detail
    ]


GOLDEN_CASES = [
    ("grid-n16-all.json",
     ["--grid-file", str(GOLDEN / "grid.json"), "--n", "16", "--suite", "all"]),
    *[
        (f"corrupt-a1-n16-{name}.json",
         ["--alpha", "1", "--beta", "2", "--n", "16", "--corrupt-a", "1",
          "--suite", name])
        for name in NAMES
    ],
    # n = 7 and n = 3 give algebra matrix sizes 8 and 7, whose truncation
    # cuts the last block of M1 and of M2
    *[
        (f"offgrid-n{n}-algebra.json",
         ["--alpha", "3/7", "--beta", "-2/5", "--n", str(n), "--suite", "algebra"])
        for n in (7, 3)
    ],
    # n = 24 is past both algebra caps: matrix size 21 and monomial range 10.
    ("offgrid-n24-algebra.json",
     ["--alpha", "3/7", "--beta", "-2/5", "--n", "24", "--suite", "algebra"]),
    # a late corrupted index on an odd size: the classical match fails only
    # from P_12 and Q_11 on, the ODE and theta-PQ only from P_12 on
    ("offgrid-n25-corrupt-a22-szego.json",
     ["--alpha", "3/7", "--beta", "-2/5", "--n", "25", "--corrupt-a", "22",
      "--suite", "szego"]),
]


@pytest.mark.parametrize("golden, argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_verify_json_matches_golden(golden, argv, tmp_path):
    out = tmp_path / "out.json"
    cli.main(["verify", *argv, "--format", "json", "--out", str(out)])
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / golden).read_text())
    for key in ("suite_results", "summary"):
        assert json.dumps(got[key], indent=2) == json.dumps(want[key], indent=2), key


def test_verify_csv_matches_golden(tmp_path):
    # CSV carries the pass details and the skipped rows the JSON goldens drop
    out = tmp_path / "out.csv"
    cli.main(["verify", "--alpha", "3/7", "--beta", "-2/5", "--n", "24",
              "--suite", "algebra", "--format", "csv", "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / "offgrid-n24-algebra.csv").read_bytes()
