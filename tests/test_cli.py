"""Command line interface: argument handling, formats, exit codes."""

import ast
import csv
import importlib
import inspect
import io
import json
import pkgutil
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from circlejacobi import cmv, suites
from circlejacobi.errors import BadVerblunsky
from circlejacobi.cli import main, rational
from circlejacobi.moments import MomentSeq
from circlejacobi.opuc import JacobiParams, build_family
from circlejacobi.report import VerificationReport

from test_perfbench import literal

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestArgumentParsing:
    def test_rational_type(self):
        assert rational("3/2") == Fraction(3, 2)
        assert rational("-7") == Fraction(-7)

    def test_rational_rejects_decimals(self):
        import argparse

        for bad in ("0.5", "1e-3", "1/0", "--1", "1/-2"):
            with pytest.raises(argparse.ArgumentTypeError):
                rational(bad)

    def test_decimal_alpha_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--alpha", "0.5", "--beta", "0", "--n", "2"])
        assert exc.value.code == 2

    def test_negative_rational_option_values(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--alpha", "-1/2", "--beta", "-1/2", "--n", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["alpha"] == "-1/2"

    def test_missing_params(self, capsys):
        code, out, err = run(capsys, "gen", "--n", "2")
        assert (code, out, err) == (2, "", "gen: --alpha and --beta are required\n")

    @pytest.mark.parametrize("argv, message", [
        *((f"{command} --n 8", f"{command}: --alpha and --beta are required")
          for command in ("gen", "spectrum", "moments")),
        ("verify --n 8", "verify: --alpha and --beta (or --grid-file) required"),
        *((f"{command} --alpha 0 --beta 0 --n {n}", f"{command}: --n must be >= {floor}")
          for command, n, floor in
          (("gen", 0, 1), ("verify", 2, 3), ("spectrum", 0, 1), ("moments", -1, 0))),
        *((f"{command} --alpha 0 --beta 0 --n 4 --out {{tmp}}/absent/x",
           f"{command}: cannot write --out: [Errno 2] No such file or directory: "
           f"'{{tmp}}/absent/x'")
          for command in ("gen", "verify", "spectrum", "moments")),
        ("verify --alpha 1 --beta 2 --n 8 --corrupt-a 8",
         "verify: --corrupt-a index out of range"),
        ("verify --alpha 1 --beta 2 --n 16 --suite szego --corrupt-a 15",
         "verify: --corrupt-a 15 is beyond suite szego, which reads only a_0..a_14 at --n 16"),
        ("verify --grid-file {tmp}/empty.json --n 8", "verify: bad grid file: no points"),
        ("verify --alpha -1 --beta 0 --n 8",
         "verify: need alpha > -1 and beta > -1, got (-1, 0)"),
        ("verify --alpha -99/100 --beta 100 --n 8 --corrupt-a 0",
         "verify: --corrupt-a 0 moves a_0 to 1020001/1010100 at alpha=-99/100 beta=100, "
         "outside (-1, 1)"),
    ])
    def test_usage_error_returns_2(self, capsys, tmp_path, argv, message):
        # each usage error a command finds itself: one line on stderr,
        # nothing on stdout, and main returns 2 rather than raising
        (tmp_path / "empty.json").write_text("[]")
        code, out, err = run(capsys, *argv.format(tmp=tmp_path).split())
        assert (code, out, err) == (2, "", message.format(tmp=tmp_path) + "\n")

    def test_unknown_suite(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--alpha", "0", "--beta", "0", "--suite", "nope"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--quad-order", "32"],
            ["verify", "--tol", "1e-3"],
            ["moments", "--quad-order", "32"],
        ],
    )
    def test_quadrature_options_are_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--alpha", "0", "--beta", "0"])
        assert exc.value.code == 2


class TestGen:
    def test_single_moment_column(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--alpha", "1/2", "--beta", "-1/2", "--n", "5",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["a"] == ["-1/2", "-1/3", "-1/4", "-1/5", "-1/6", "-1/7"]
        assert doc["lambda"] == ["0", "2", "-1", "3", "-2", "4"]
        assert doc["phi"][1] == "1/2 + z"

    def test_free_family_is_monomials(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--alpha", "-1/2", "--beta", "-1/2", "--n", "4",
            "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["a"] == ["0"] * 5
        assert doc["h"] == ["1"] * 5
        assert doc["phi"] == ["1", "z", "z^2", "z^3", "z^4"]

    def test_zero_zero_frozen(self, capsys):
        _, out, _ = run(
            capsys, "gen", "--alpha", "0", "--beta", "0", "--n", "3",
            "--format", "json",
        )
        assert json.loads(out)["a"] == ["0", "-1/3", "0", "-1/5"]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--alpha", "0", "--beta", "0", "--n", "3",
            "--format", "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "a", "lambda", "h", "phi", "psi"]
        assert len(rows) == 5
        assert rows[2][1] == "-1/3"

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "gen", "--alpha", "0", "--beta", "0", "--n", "2")
        assert code == 0
        assert "a=-1/3" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "fam.json"
        code, out, _ = run(
            capsys, "gen", "--alpha", "0", "--beta", "0", "--n", "2",
            "--format", "json", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 2

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen", "--alpha", "0", "--beta", "0", "--n", "2",
                             "--out", str(tmp_path / "absent" / "x.json"))
        assert code == 2 and out == ""
        assert err.startswith("gen: cannot write --out: ") and "absent" in err

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "gen", "--alpha", "0", "--beta", "0", "--n", "0")
        assert code == 2 and "must be >= 1" in err


class TestVerify:
    def test_bispectral_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "1", "--beta", "2", "--n", "12",
            "--suite", "bispectral",
        )
        assert code == 0
        assert out.startswith("PASS bispectral-eigen")
        assert out.rstrip().endswith("0 failures, 0 skipped")

    def test_all_suites_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "1/2", "--beta", "-1/2", "--n", "6",
            "--suite", "all", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "suite_results", "summary"}
        assert doc["summary"]["status"] == "pass"
        assert doc["summary"]["failures"] == 0
        assert doc["config"]["suite"] == "all"
        identities = [r["identity"] for r in doc["suite_results"]]
        assert "bispectral-eigen" in identities
        assert "cmv-rows" in identities
        assert "orthogonality" in identities
        for r in doc["suite_results"]:
            assert set(r) >= {"identity", "relation", "params", "status", "failures"}

    def test_corrupted_family_fails_cmv(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "0", "--beta", "0", "--n", "8",
            "--suite", "cmv", "--corrupt-a", "1", "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["status"] == "fail"
        failing = [f for r in doc["suite_results"] for f in r["failures"]]
        assert failing, "corruption must surface residual rows"
        assert any("row" in f["label"] for f in failing)

    def test_corrupted_family_fails_bispectral(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "1", "--beta", "2", "--n", "8",
            "--suite", "bispectral", "--corrupt-a", "0",
        )
        assert code == 1
        assert "FAIL" in out

    def test_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([["1/2", "-1/2"], ["0", "0"]]))
        code, out, _ = run(
            capsys, "verify", "--grid-file", str(grid), "--n", "5",
            "--suite", "bispectral", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["grid"] == [["1/2", "-1/2"], ["0", "0"]]
        assert len(doc["suite_results"]) == 2

    def test_bad_point_does_not_stop_the_grid(self, capsys, tmp_path, monkeypatch):
        # the family at (-99/100, 1) cannot be built, and the point after
        # it still runs
        build = suites.family

        def family(p, n, corrupt_a=None):
            if p.alpha == Fraction(-99, 100):
                raise BadVerblunsky("a_0 = 20101/20100 lies outside (-1, 1)")
            return build(p, n, corrupt_a)

        monkeypatch.setattr(suites, "family", family)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([["-99/100", "1"], ["1", "2"]]))
        argv = ["verify", "--grid-file", str(grid), "--n", "8", "--corrupt-a", "1",
                "--suite", "cmv"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1
        doc = json.loads(out)
        [error] = doc["error"]
        assert error["alpha"] == "-99/100" and error["beta"] == "1"
        assert error["suite"] == "family"
        assert error["message"].startswith("BadVerblunsky: a_0 = 20101/20100 ")
        assert [(r["identity"], r["params"]["alpha"], r["params"]["beta"])
                for r in doc["suite_results"]] == [
            ("reflection-rows", "1", "2"), ("cmv-rows", "1", "2"),
        ]
        assert doc["summary"]["status"] == "error"
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert "ERROR alpha=-99/100 beta=1 suite=family: BadVerblunsky: " in out
        lines = out.splitlines()
        assert sum(line.startswith("FAIL ") for line in lines) == 2
        assert lines[-1].startswith("ERROR: ")
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 1 and "reflection-rows" in out
        assert err.startswith("verify: alpha=-99/100 beta=1 suite=family: BadVerblunsky: ")
        rows = list(csv.reader(io.StringIO(out)))
        assert [row for row in rows if row[3] == "error"] == [[
            "family", json.dumps({"alpha": "-99/100", "beta": "1"}), "", "error",
            error["message"],
        ]]
        assert rows[-1][3] == "error"

    def test_corruption_that_breaks_the_family_is_usage_error(self, capsys, tmp_path):
        # a_0 + 1/100 = 1020001/1010100 at (-99/100, 100) is no Verblunsky
        # coefficient; that is found before any point runs, wherever the
        # point sits in the grid
        want = ("verify: --corrupt-a 0 moves a_0 to 1020001/1010100 at "
                "alpha=-99/100 beta=100, outside (-1, 1)\n")
        for fmt in ("text", "json", "csv"):
            code, out, err = run(
                capsys, "verify", "--alpha", "-99/100", "--beta", "100", "--n", "4",
                "--corrupt-a", "0", "--suite", "cmv", "--format", fmt,
            )
            assert (code, out, err) == (2, "", want)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([["1", "2"], ["-99/100", "100"]]))
        code, out, err = run(
            capsys, "verify", "--grid-file", str(grid), "--n", "4", "--corrupt-a", "0",
        )
        assert (code, out, err) == (2, "", want)
        # a_1 at that point stays inside (-1, 1) after the shift
        code, out, _ = run(
            capsys, "verify", "--grid-file", str(grid), "--n", "4", "--corrupt-a", "1",
            "--suite", "cmv",
        )
        assert code == 1 and "FAIL" in out

    def test_suite_error_names_the_suite_and_goes_on(self, capsys, tmp_path, monkeypatch):
        def broken(fam):
            raise ValueError("broken suite")

        monkeypatch.setitem(suites.SUITES, "cmv", broken)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([["0", "0"], ["1", "2"]]))
        code, out, _ = run(
            capsys, "verify", "--grid-file", str(grid), "--n", "5", "--suite", "all",
            "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == [
            {"alpha": a, "beta": b, "suite": "cmv", "message": "ValueError: broken suite"}
            for a, b in (("0", "0"), ("1", "2"))
        ]
        # each point keeps the reports of the suites before the failing one
        assert [r["identity"] for r in doc["suite_results"]] == ["bispectral-eigen"] * 2

    def test_bad_grid_file(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([["spam", "eggs"]]))
        code, _, err = run(
            capsys, "verify", "--grid-file", str(grid), "--n", "5",
        )
        assert code == 2 and "bad grid file" in err

    def _grid_error(self, capsys, path):
        code, out, err = run(capsys, "verify", "--grid-file", str(path), "--n", "5")
        assert code == 2 and out == ""
        assert err.startswith("verify: bad grid file: ")
        return err

    def test_grid_file_rejects_decimals_and_numbers(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([["0.1", "0"]]))
        assert "0.1" in self._grid_error(capsys, grid)
        grid.write_text(json.dumps([["0", "0"], [0.5, 1]]))
        assert "0.5" in self._grid_error(capsys, grid)
        grid.write_text(json.dumps([["0", "0", "1"]]))
        self._grid_error(capsys, grid)

    def test_grid_file_must_be_a_list(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"alpha": "0", "beta": "0"}))
        self._grid_error(capsys, grid)
        grid.write_text("[]")
        assert self._grid_error(capsys, grid) == "verify: bad grid file: no points\n"

    def test_grid_file_missing(self, capsys, tmp_path):
        self._grid_error(capsys, tmp_path / "absent.json")

    def test_grid_file_not_json(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("[[\"0\", \"0\"]")
        self._grid_error(capsys, grid)

    def test_grid_file_nested_too_deep(self, capsys, tmp_path):
        # json.load recurses once per array level and gives up with
        # RecursionError
        grid = tmp_path / "grid.json"
        grid.write_text("[" * 100_000 + "]" * 100_000)
        assert "recursion" in self._grid_error(capsys, grid)

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            ("1/2", "-1/2"), ("-1/2", "-1/2"), ("0", "0"), ("1", "2"),
            ("3/2", "1/2"), ("-1/2", "3/2"),
            ("-1/7", "-2/5"), ("11/7", "-2/5"), ("3/7", "-4/5"),
        ],
    )
    def test_moments_suite_exact_at_every_point(self, capsys, alpha, beta):
        code, out, _ = run(
            capsys, "verify", "--alpha", alpha, "--beta", beta, "--n", "16",
            "--suite", "moments", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["status"] == "pass"
        assert [r["identity"] for r in doc["suite_results"]] == [
            "orthogonality", "toeplitz-h", "determinantal-match",
        ]
        for r in doc["suite_results"]:
            assert r["params"]["alpha"] == alpha and r["params"]["beta"] == beta
            assert r["status"] == "pass"

    def test_corrupted_family_fails_moments(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "1", "--beta", "2", "--n", "8",
            "--suite", "moments", "--corrupt-a", "1", "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["status"] == "fail"
        reports = {r["identity"]: r for r in doc["suite_results"]}
        for identity in ("orthogonality", "toeplitz-h"):
            assert reports[identity]["status"] == "fail"
            assert reports[identity]["failures"]
            assert all(f["detail"] for f in reports[identity]["failures"])

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "5")
        assert code == 2 and "required" in err

    def test_small_n_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--alpha", "0", "--beta", "0", "--n", "2",
        )
        assert code == 2 and ">= 3" in err

    def test_corrupt_index_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "verify", "--alpha", "0", "--beta", "0", "--n", "8",
            "--corrupt-a", "99",
        )
        assert code == 2 and "out of range" in err

    @pytest.mark.parametrize("suite", [*suites.SUITES, "all"])
    @pytest.mark.parametrize("n", [4, 7, 16])
    def test_corrupt_index_outside_suite_reach(self, capsys, suite, n):
        top = suites.reach(suite, n)
        for k in (-1, *range(top + 1, n + 2)):
            code, out, err = run(
                capsys, "verify", "--alpha", "1", "--beta", "2", "--n", str(n),
                "--suite", suite, "--corrupt-a", str(k),
            )
            assert code == 2 and out == "", k
            if 0 <= k < n:
                assert f"suite {suite}," in err and f"a_0..a_{top} " in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "0", "--beta", "0", "--n", "5",
            "--suite", "cmv", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["identity", "params", "check", "status", "detail"]
        statuses = [r[3] for r in rows[1:]]
        assert set(statuses) == {"pass", "skip"}
        assert all(r[4] == "" for r in rows[1:] if r[3] == "skip")

    def test_csv_carries_skipped_rows(self, capsys):
        argv = ["verify", "--alpha", "1", "--beta", "2", "--n", "4", "--suite", "cmv"]
        _, out, _ = run(capsys, *argv, "--format", "csv")
        _, doc, _ = run(capsys, *argv, "--format", "json")
        summary = json.loads(doc)["summary"]
        assert summary["skipped"] == 4
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == summary["checks"] + summary["skipped"]
        assert [r[2] for r in rows if r[3] == "skip"] == [
            label for r in json.loads(doc)["suite_results"] for label in r["skipped"]
        ]

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--alpha", "0", "--beta", "0", "--n", "3",
                             "--suite", "bispectral", "--out", str(tmp_path))
        assert code == 2 and out == ""
        assert err.startswith("verify: cannot write --out: ")

    @pytest.mark.parametrize("method, fmt", [
        ("summary_line", "json"), ("summary_line", "csv"), ("to_dict", "text"), ("to_dict", "csv"),
    ])
    def test_only_the_picked_format_is_formed(self, capsys, monkeypatch, method, fmt):
        # the JSON --out path pays for no text, and the text and CSV
        # paths format no report dicts
        argv = ["verify", "--alpha", "1", "--beta", "2", "--n", "8", "--format", fmt]
        want = run(capsys, *argv)

        def refuse(self):
            raise RuntimeError(f"{method} formed for --format {fmt}")

        monkeypatch.setattr(VerificationReport, method, refuse)
        assert run(capsys, *argv) == want and want[0] == 0

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "--alpha", "-2", "--beta", "0", "--n", "5",
        )
        assert code == 2 and err


class TestSpectrum:
    def test_size_one_is_first_coefficient(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--alpha", "1", "--beta", "2", "--n", "1",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["eigenvalues"] == [[0.2, 0.0]]  # a_0 = 1/5, rounded once

    def test_truncations_are_contractions(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--alpha", "1/2", "--beta", "-1/2",
            "--n", "21", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"] == "c" and len(doc["eigenvalues"]) == 21
        for re_, im in doc["eigenvalues"]:
            assert abs(complex(re_, im)) <= 1

    def test_free_complete_block_factor_is_unitary(self, capsys):
        # at the free point the size-4 second factor is two complete
        # antidiagonal blocks, so the eigenvalues are 1, 1, -1, -1 exactly
        code, out, _ = run(
            capsys, "spectrum", "--alpha", "-1/2", "--beta", "-1/2",
            "--n", "4", "--matrix", "m2", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["eigenvalues"] == [[1.0, 0.0]] * 2 + [[-1.0, 0.0]] * 2

    def test_free_product_truncation_is_nilpotent(self, capsys):
        # the product truncation always carries one cut block, so the
        # free-point eigenvalues collapse to zero instead of the circle:
        # phi_4 = z^4, and each zero prints as an exact 0
        code, out, _ = run(
            capsys, "spectrum", "--alpha", "-1/2", "--beta", "-1/2",
            "--n", "4", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["eigenvalues"] == [[0.0, 0.0]] * 4

    def test_text_and_csv(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--alpha", "0", "--beta", "0", "--n", "4",
        )
        assert code == 0 and "|.|=" in out
        code, out, _ = run(
            capsys, "spectrum", "--alpha", "0", "--beta", "0", "--n", "4",
            "--format", "csv",
        )
        assert list(csv.reader(io.StringIO(out)))[0] == ["re", "im", "abs"]

    def test_bad_size(self, capsys):
        code, _, err = run(
            capsys, "spectrum", "--alpha", "0", "--beta", "0", "--n", "0",
        )
        assert code == 2

    def test_unconverged_zeros_exit_1(self, capsys, monkeypatch):
        # a Newton step that never settles: the iteration gives up, and
        # the command says so and exits 1 with no output
        monkeypatch.setattr(cmv, "_newton", lambda nums, z: z + 1)
        code, out, err = run(capsys, "spectrum", "--alpha", "1", "--beta", "2", "--n", "5")
        assert (code, out) == (1, "")
        assert err == "spectrum: no 5 zeros closed under conjugation in 500 sweeps\n"


class TestMoments:
    def test_exact_weight(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--alpha", "1/2", "--beta", "-1/2", "--n", "3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["weight"] == "jacobi"
        assert doc["moments"] == [
            {"n": 0, "value": "1"},
            {"n": 1, "value": "-1/2"},
            {"n": 2, "value": "0"},
            {"n": 3, "value": "0"},
        ]

    def test_jacobi_weight_is_exact(self, capsys):
        code, out, _ = run(
            capsys, "moments", "--alpha", "1", "--beta", "2", "--n", "2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [m["value"] for m in doc["moments"]] == ["1", "1/5", "-3/5"]

    def test_text_and_csv_list_values(self, capsys):
        code, out, _ = run(capsys, "moments", "--alpha", "-1/2", "--beta", "-1/2")
        assert code == 0
        assert out.splitlines()[1:3] == ["sigma_0 = 1", "sigma_1 = 0"]
        code, out, _ = run(
            capsys, "moments", "--alpha", "1", "--beta", "2", "--n", "1",
            "--format", "csv",
        )
        assert list(csv.reader(io.StringIO(out))) == [
            ["n", "sigma"], ["0", "1"], ["1", "1/5"],
        ]


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt"), ("csv", "csv")])
@pytest.mark.parametrize("point, alpha, beta, n", [
    ("single-moment-n5", "1/2", "-1/2", "5"),
    ("offgrid-n8", "3/7", "-2/5", "8"),
])
@pytest.mark.parametrize("command", ["gen", "moments"])
def test_output_matches_golden(tmp_path, command, point, alpha, beta, n, fmt, ext):
    out = tmp_path / f"out.{ext}"
    code = main([command, "--alpha", alpha, "--beta", beta, "--n", n,
                 "--format", fmt, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{command}-{point}.{ext}").read_bytes()


@contextmanager
def int_digits(limit):
    """Python's int <-> str digit limit set to limit for the block."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no int -> str digit limit")
class TestPastTheDigitLimit:
    """Exact values longer than Python's default 4300-digit int -> str
    limit, at alpha = 1/77...7 with 2500 sevens."""

    D = "7" * 2500
    ARGS = ("--alpha", f"1/{D}", "--beta", "0", "--n", "3")
    P = JacobiParams(Fraction(1, int(D)), 0)

    def test_gen_renders_every_value_in_full(self, capsys):
        code, out, err = run(capsys, "gen", *self.ARGS, "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        fam = build_family(self.P, 3)
        assert max(len(v) for v in doc["h"]) > 4300
        with int_digits(0):
            assert [Fraction(v) for v in doc["a"]] == list(fam.a)
            assert [Fraction(v) for v in doc["h"]] == list(fam.h)
            assert doc["phi"] == [f.text() for f in fam.phi]
        for fmt in ("text", "csv"):
            code, out, err = run(capsys, "gen", *self.ARGS, "--format", fmt)
            assert (code, err) == (0, "") and out

    def test_moments_renders_every_value_in_full(self, capsys):
        code, out, err = run(capsys, "moments", *self.ARGS, "--format", "json")
        assert (code, err) == (0, "")
        values = [m["value"] for m in json.loads(out)["moments"]]
        assert max(len(v) for v in values) > 4300
        ms = MomentSeq(self.P)
        with int_digits(0):
            assert [Fraction(v) for v in values] == [ms.value(k) for k in range(4)]
        for fmt in ("text", "csv"):
            code, out, err = run(capsys, "moments", *self.ARGS, "--format", fmt)
            assert (code, err) == (0, "") and out

    def test_verify_reports_the_failing_checks(self, capsys):
        code, out, err = run(capsys, "verify", *self.ARGS, "--suite", "bispectral",
                             "--corrupt-a", "1", "--format", "json")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert "error" not in doc and doc["summary"]["status"] == "fail"
        [rep] = doc["suite_results"]
        assert rep["failures"] and all(f["detail"] for f in rep["failures"])
        assert max(len(f["detail"]) for f in rep["failures"]) > 4300

    def test_inputs_over_the_limit_are_rejected(self, capsys, tmp_path):
        big = f"1/{'7' * 4301}"
        for command in ("gen", "verify", "moments"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--alpha", big, "--beta", "0", "--n", "3"])
            assert exc.value.code == 2
            assert "invalid rational value" in capsys.readouterr().err
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([["0", "0"], [big, "0"]]))
        code, out, err = run(capsys, "verify", "--grid-file", str(grid), "--n", "3")
        assert (code, out) == (2, "")
        assert err.startswith("verify: bad grid file: Exceeds the limit (4300 digits)")

    def test_main_leaves_the_limit_as_found(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([[f"1/{self.D}", "0"]]))
        runs = [
            ["gen", *self.ARGS],
            ["moments", *self.ARGS],
            ["verify", *self.ARGS, "--suite", "bispectral", "--corrupt-a", "1"],
            ["verify", "--grid-file", str(grid), "--n", "3", "--suite", "moments"],
            ["spectrum", *self.ARGS],
            ["gen", "--alpha", "-2", "--beta", "0"],
        ]
        for limit in (4300, 5000, 0):
            with int_digits(limit):
                for argv in runs:
                    main(argv)
                    assert sys.get_int_max_str_digits() == limit, argv
        capsys.readouterr()

    def test_runs_without_the_limit(self, capsys, monkeypatch):
        # interpreters before 3.11 have neither function
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        code, out, _ = run(capsys, "gen", "--alpha", "1/2", "--beta", "-1/2", "--n", "5")
        assert code == 0
        assert out.encode() == (GOLDEN / "gen-single-moment-n5.txt").read_bytes()


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "circlejacobi.cli", "gen", "--alpha", "1/2",
             "--beta", "-1/2", "--n", "3", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["a"] == ["-1/2", "-1/3", "-1/4", "-1/5"]

    def test_cli_import_leaves_scipy_out(self):
        # numpy too, which no command needs; and dataclasses, whose
        # import pulls in inspect, ast and dis
        proc = subprocess.run(
            [sys.executable, "-c",
             "import circlejacobi.cli, sys; "
             "print(*(m in sys.modules for m in ('scipy', 'numpy', 'dataclasses', 'inspect')))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False False False False"

    def test_package_module_invocation(self):
        # python -m circlejacobi runs the same command line as circlejacobi.cli
        argv = ["verify", "--alpha", "1", "--beta", "2", "--n", "8"]
        procs = [subprocess.run([sys.executable, "-m", module, *argv],
                                capture_output=True, text=True)
                 for module in ("circlejacobi", "circlejacobi.cli")]
        assert [proc.returncode for proc in procs] == [0, 0]
        assert procs[0].stdout == procs[1].stdout
        assert procs[0].stdout.endswith("PASS: 378 checks, 0 failures, 12 skipped\n")

    def test_every_command_runs_without_numpy(self, tmp_path):
        # numpy is no dependency: with its import blocked, every command
        # and every spectrum matrix still runs to exit 0
        point = ["--alpha", "3/7", "--beta", "-2/5", "--n", "10"]
        runs = [["gen", *point], ["verify", *point], ["moments", *point],
                *(["spectrum", *point, "--matrix", m] for m in ("c", "m1", "m2"))]
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from circlejacobi.cli import main\n"
            f"codes = [main(argv + ['--out', {str(tmp_path / 'out')!r}]) for argv in {runs!r}]\n"
            "print(codes, 'numpy' in sys.modules and sys.modules['numpy'] is None)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "[0, 0, 0, 0, 0, 0] True\n"

    def test_cli_import_runs_every_suite_module(self):
        # the import is cheaper because less is loaded, not because a
        # module the verify path needs is deferred into its first call
        proc = subprocess.run(
            [sys.executable, "-c",
             "import circlejacobi.cli, sys; "
             "print(*sorted(m for m in sys.modules if m.startswith('circlejacobi.')))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        src = Path(suites.__file__).parent
        assert proc.stdout.split() == sorted(
            f"circlejacobi.{info.name}" for info in pkgutil.iter_modules([str(src)])
            if info.name != "__main__")  # the `python -m circlejacobi` entry point

    def test_module_invocation_failure_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "circlejacobi.cli", "verify", "--alpha", "0",
             "--beta", "0", "--n", "6", "--suite", "cmv", "--corrupt-a", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    def test_only_per_family_touches_the_family_memo(self):
        # every per-family build goes through opuc.per_family, so the key
        # layout and the once-per-instance rule live in one place
        src = Path(suites.__file__).parent
        found = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text())
            allowed = {
                id(node)
                for top in tree.body
                if path.name == "opuc.py" and getattr(top, "name", None) == "per_family"
                for node in ast.walk(top)
            }
            # and the first `self.derived = {}` in OPUCFamily.__init__, which
            # creates the memo; a second one is flagged
            creates = [
                stmt.targets[0]
                for top in tree.body
                if path.name == "opuc.py" and getattr(top, "name", None) == "OPUCFamily"
                for fn in top.body
                if getattr(fn, "name", None) == "__init__"
                for stmt in fn.body
                if isinstance(stmt, ast.Assign) and ast.unparse(stmt) == "self.derived = {}"
            ]
            allowed |= {id(node) for node in creates[:1]}
            found += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "derived"
                and id(node) not in allowed
            ]
        assert found == []

    def test_no_memo_besides_per_family(self):
        # functools.cache or lru_cache would be a second memo rule next to
        # opuc.per_family; cached_property and wraps stay allowed
        src = Path(suites.__file__).parent
        banned = {"cache", "lru_cache"}
        found = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module == "functools":
                    names = {alias.name for alias in node.names}
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "functools"):
                    names = {node.attr}
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}" for name in sorted(names & banned)]
        assert found == []

    def test_no_assertion_error_in_package(self):
        # an invariant that construction guarantees is pinned by a test; a
        # run-time re-check would only add a path that ends in a traceback,
        # since the CLI's per-point handler never catches AssertionError
        src = Path(suites.__file__).parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
            or (isinstance(node, ast.Name) and node.id == "AssertionError")
        ]
        assert found == []

    # Functions no CLI run reaches, each with the reason it stays in src/.
    NOT_ON_A_CLI_PATH = {
        **{
            f"laurent.LaurentPoly.{attr}":
                "a ring operator the benchmark tracer wraps (perfbench/spans.py)"
            for attr in literal("LAURENT_METHODS").values()
        },
        "laurent.LaurentPoly.items": "reads coefficients out as Rational; the benchmark "
                                     "tracer reads bit heights through it (perfbench/spans.py)",
        "laurent.LaurentPoly.__hash__": "Python protocol, kept with __eq__ so equal "
                                        "polynomials hash alike",
        "laurent.LaurentPoly.__len__": "Python protocol, for interactive use",
        "laurent.LaurentPoly.__repr__": "Python protocol, for interactive use",
        "laurent.LaurentPoly.__str__": "Python protocol, for interactive use",
        "opuc.per_family": "runs at import, when each memoized build is decorated",
        "laurent._additive": "runs at import, when Rational's +, - and reflected - are made",
        **{
            f"{name}.__eq__": "Python protocol, field-wise == for comparing records"
            for name in ("opuc.OPUCFamily", "report.Check", "report.VerificationReport")
        },
        "report.Check.__repr__": "Python protocol, for interactive use",
        "algebra._central_residuals":
            "runs only when K breaks a defining relation; tests/test_derived.py drives it",
    }

    @staticmethod
    def _package_functions() -> dict:
        """Code object -> "module.qualname" of every function and method
        defined in the package, decorators unwrapped."""
        src = Path(suites.__file__).parent
        found = {}
        for info in pkgutil.iter_modules([str(src)]):
            module = importlib.import_module(f"circlejacobi.{info.name}")
            for obj in vars(module).values():
                members = [obj]
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    members = [
                        getattr(v, "__func__", None) or getattr(v, "fget", None)
                        or getattr(v, "func", None) or v
                        for v in vars(obj).values()
                    ]
                for fn in members:
                    if not inspect.isfunction(fn):
                        continue
                    fn = inspect.unwrap(fn)
                    if Path(fn.__code__.co_filename).parent == src:
                        module_name = fn.__module__.rpartition(".")[2]
                        found[fn.__code__] = f"{module_name}.{fn.__qualname__}"
        return found

    def test_every_package_function_is_reached_from_the_cli(self, capsys, tmp_path):
        # what only tests call belongs in tests/, next to the reference
        # models there; each exception is listed with its reason
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([["1", "2"], ["1/2", "-1/2"]]))
        point = ["--alpha", "3/7", "--beta", "-2/5"]
        runs = [
            ["verify", *point, "--n", "12"],
            ["verify", "--alpha", "1/3", "--beta", "1/3", "--n", "8"],
            ["verify", "--alpha", "1", "--beta", "2", "--n", "8", "--corrupt-a", "1"],
            ["verify", "--grid-file", str(grid), "--n", "5"],
            ["gen", *point, "--n", "5"],
            ["moments", *point, "--n", "5"],
            *(["spectrum", *point, "--n", "6", "--matrix", m] for m in ("c", "m1", "m2")),
        ]
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)

        previous = sys.getprofile()
        for argv in runs:
            for fmt in ("json", "text", "csv"):
                sys.setprofile(profile)
                try:
                    main([*argv, "--format", fmt])
                finally:
                    sys.setprofile(previous)
        capsys.readouterr()
        defined = self._package_functions()
        assert set(self.NOT_ON_A_CLI_PATH) <= set(defined.values())
        unreached = sorted(
            name for code, name in defined.items()
            if code not in called and name not in self.NOT_ON_A_CLI_PATH
        )
        assert unreached == []

    def test_detection_survives_optimize_flag(self):
        # python -O strips every assert, so detection must not rest on one
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "circlejacobi.cli", "verify", "--alpha", "1",
             "--beta", "2", "--n", "16", "--corrupt-a", "1", "--suite", "szego",
             "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        failing = {r["identity"] for r in doc["suite_results"] if r["failures"]}
        assert {"classical-match", "hypergeometric-ode"} <= failing

    def test_moments_detection_survives_optimize_flag(self):
        # the held elimination, its back substitution and the pairing
        # vectors check without assert too
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "circlejacobi.cli", "verify", "--alpha", "3/7",
             "--beta", "-2/5", "--n", "20", "--corrupt-a", "3", "--suite", "moments",
             "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        failing = {r["identity"] for r in doc["suite_results"] if r["failures"]}
        assert failing == {"orthogonality", "toeplitz-h", "determinantal-match"}

    def test_central_extension_tie_in_survives_optimize_flag(self):
        # a corrupted a_3 moves psi_4 onwards, which the tie-in reads
        # through M1 psi and M2 psi from row 2 on; the matrix and monomial
        # checks read only (alpha, beta) and still pass
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "circlejacobi.cli", "verify", "--alpha", "3/7",
             "--beta", "-2/5", "--n", "40", "--corrupt-a", "3", "--suite", "algebra",
             "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        [central] = [r for r in doc["suite_results"] if r["identity"] == "central-extension"]
        assert central["failures"] == [{"label": "matrix rows match functional action on psi",
                                        "status": "fail", "detail": "rows [2, 3, 4, 5]"}]


def _called_from(code, frame) -> bool:
    """Whether code runs in frame or in a comprehension frame right under it."""
    return frame.f_code is code or (
        frame.f_code.co_name.startswith("<") and frame.f_back.f_code is code)


def _on_stack(code) -> bool:
    frame = sys._getframe(2)
    while frame is not None and frame.f_code is not code:
        frame = frame.f_back
    return frame is not None


class TestComplexity:
    @staticmethod
    def _verify_two_points(capsys) -> None:
        for points in (["--alpha", "3/7", "--beta", "-2/5"],
                       ["--grid-file", str(GOLDEN / "grid.json")]):
            assert main(["verify", *points, "--n", "16", "--suite", "all"]) == 0
        capsys.readouterr()

    def test_verify_runs_no_plain_fraction_arithmetic(self, monkeypatch, capsys):
        # every scalar the package hands out is a laurent.Rational, whose
        # operators skip the generic dispatch of fractions.Fraction; one
        # plain Fraction in a hot path shows up here as Fraction calls.
        # Every scalar is built from reduced integer parts, so
        # Fraction.__new__, which parses and reduces, runs only where the
        # CLI parses alpha and beta: at (3/7, -2/5) and the six grid points
        calls = [0]
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__"):
            def counted(*args, _orig=getattr(Fraction, name)):
                calls[0] += 1
                return _orig(*args)

            monkeypatch.setattr(Fraction, name, counted)
        made = []

        def new(cls, *args, _orig=Fraction.__new__):
            made.append(_on_stack(rational.__code__))
            return _orig(cls, *args)

        monkeypatch.setattr(Fraction, "__new__", new)
        self._verify_two_points(capsys)
        assert calls[0] == 0, calls[0]
        assert made == [True] * (2 + 2 * 6), (len(made), made.count(True))

    def test_residuals_read_no_fraction_properties(self, monkeypatch, capsys):
        # LaurentPoly.lincomb reads a scalar's stored parts and @ a row's
        # integer numerators, so neither calls the Python-level __bool__,
        # numerator or denominator of fractions.Fraction; nor do the
        # moments' sum and integer view
        from circlejacobi.cmv import BandedOperator
        from circlejacobi.laurent import LaurentPoly
        from circlejacobi.moments import sigma

        kernels = (LaurentPoly.lincomb.__code__, BandedOperator.__matmul__.__code__,
                   sigma.__code__, MomentSeq.integer_view.__code__)
        reads = {}

        def counting(name, read):
            def counted(self):
                frame = sys._getframe(1)
                if any(_called_from(code, frame) for code in kernels):
                    reads[name] = reads.get(name, 0) + 1
                return read(self)
            return counted

        monkeypatch.setattr(Fraction, "__bool__", counting("__bool__", Fraction.__bool__))
        for name in ("numerator", "denominator"):
            read = getattr(Fraction, name).fget
            monkeypatch.setattr(Fraction, name, property(counting(name, read)))
        self._verify_two_points(capsys)
        assert reads == {}

    def test_closed_forms_make_no_rational_operator_call(self, monkeypatch, capsys):
        # every closed form is one integer numerator and denominator reduced
        # once, so none of them calls an operator of laurent.Rational; the
        # algebra's derivation, which solves for lambda_n and a_n with them,
        # shows that the count sees such calls
        from circlejacobi import algebra, dunkl, opuc, szego
        from circlejacobi.laurent import Rational

        forms = {f.__code__: f.__name__ for f in (
            opuc.verblunsky, dunkl.lambda_n, algebra.big_lambda, algebra.relation_constants,
            szego.jacobi_b, szego.jacobi_u, szego.b_coeff, szego.u_coeff, szego.bt_coeff,
            szego.ut_coeff, szego._c2, szego._mu, szego._ratios)}
        forms[algebra.derive_representation.__code__] = "derive_representation"
        calls = {}
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__neg__", "__pow__", "__eq__", "__lt__", "__gt__",
                     "__le__"):
            def counted(*args, _orig=getattr(Rational, name)):
                frame = sys._getframe(1)
                for code, form in forms.items():
                    if _called_from(code, frame):
                        calls[form] = calls.get(form, 0) + 1
                return _orig(*args)

            monkeypatch.setattr(Rational, name, counted)
        self._verify_two_points(capsys)
        assert calls.pop("derive_representation") > 0
        assert calls == {}
