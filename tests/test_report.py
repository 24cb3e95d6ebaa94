"""The records every verification returns: Check and VerificationReport."""

import copy
from fractions import Fraction

from circlejacobi.laurent import LaurentPoly
from circlejacobi.report import Check, VerificationReport

F = Fraction


def failing_report() -> VerificationReport:
    rep = VerificationReport(identity="probe", relation="f = 0",
                             params={"alpha": F(3, 7), "n_max": 2})
    rep.add("n=0", True)
    rep.residual("n=1", LaurentPoly({-1: F(1, 3), 2: -1}))
    rep.residual("n=2", LaurentPoly.zero())
    rep.skip("n=3")
    return rep


class TestCheck:
    def test_equality_is_field_wise(self):
        assert Check("n=1", True) == Check(label="n=1", ok=True, detail="")
        assert Check("n=1", True) != Check("n=2", True)
        assert Check("n=1", True) != Check("n=1", False)
        assert Check("n=1", False, "z") != Check("n=1", False, "z^2")

    def test_repr(self):
        assert repr(Check("n=1", False, "z")) == "Check(label='n=1', ok=False, detail='z')"
        assert repr(Check("n=0", True)) == "Check(label='n=0', ok=True, detail='')"


class TestVerificationReport:
    def test_keyword_constructor_and_fresh_defaults(self):
        rep, other = VerificationReport("x", "y"), VerificationReport(identity="x", relation="y")
        assert rep == other
        rep.add("n=0", True)
        rep.skip("n=1")
        assert (other.params, other.checks, other.skipped) == ({}, [], [])

    def test_equality_is_field_wise(self):
        rep = failing_report()
        assert rep == failing_report()
        edits = [
            lambda r: setattr(r, "identity", "other"),
            lambda r: setattr(r, "relation", "g = 0"),
            lambda r: r.params.update(n_max=3),
            lambda r: r.checks.pop(),
            lambda r: r.skipped.clear(),
        ]
        for edit in edits:
            other = failing_report()
            edit(other)
            assert other != rep and not other == rep

    def test_deepcopy_round_trip(self):
        rep = failing_report()
        twin = copy.deepcopy(rep)
        assert twin == rep and twin.to_dict() == rep.to_dict()
        assert twin.checks is not rep.checks and twin.params is not rep.params
        twin.checks.append(Check("n=4", False, "1"))
        assert twin != rep and rep == failing_report()

    def test_failing_to_dict(self):
        assert failing_report().to_dict() == {
            "identity": "probe",
            "relation": "f = 0",
            "params": {"alpha": "3/7", "n_max": "2"},
            "indices_checked": 3,
            "status": "fail",
            "failures": [{"label": "n=1", "status": "fail", "detail": "1/3*z^-1 - z^2"}],
            "skipped": ["n=3"],
        }
