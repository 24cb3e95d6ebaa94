"""Command line front end.

Subcommands:

  gen       tabulate a family: a_n, lambda_n, h_n, phi_n, psi_n
  verify    run verification suites, one summary line per identity
  spectrum  eigenvalues of a truncation: M1, M2 exact, C from phi_n
  moments   trigonometric moments of the orthogonality weight

Rational arguments are written as integers or quotients ("3/2",
"-1/2").  Decimal notation is rejected on purpose: every structural
quantity downstream is exact, and a float argument would silently
poison that.

Exit status: 0 all checks passed, 1 verification failures, a
computation error at some grid point (reported with the results of the
other points) or unconverged spectrum zeros, 2 bad usage.  A usage
error that a command finds prints one "<command>: <message>" line on
stderr, and ``main(argv)`` returns the status; only a parse error that
argparse itself finds ends in SystemExit(2) instead.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from . import suites
from .cmv import spectrum
from .errors import CircleJacobiError, ConvergenceFailure, ParamOutOfRange
from .laurent import Rational
from .moments import MomentSeq
from .opuc import JacobiParams, build_family

_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?")


def rational(text: str) -> Rational:
    if not _RATIONAL_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"expected an integer or p/q rational, got {text!r}"
        )
    return Rational(text)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts values like -1/2 after an option."""

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="circlejacobi",
        description="exact verification of bispectral Jacobi families on the circle",
    )
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_command(name, func, summary):
        sp = sub.add_parser(name, help=summary)
        sp.set_defaults(func=func)
        sp.add_argument("--alpha", type=rational, help="first parameter, > -1")
        sp.add_argument("--beta", type=rational, help="second parameter, > -1")
        sp.add_argument("--n", type=int, default=16, help="family size (default 16)")
        sp.add_argument(
            "--format", choices=("text", "json", "csv"), default="text"
        )
        sp.add_argument("--out", help="write output to this file instead of stdout")
        return sp

    add_command("gen", cmd_gen, "tabulate one family")

    v = add_command("verify", cmd_verify, "run verification suites")
    v.add_argument("--suite", choices=(*suites.SUITES, "all"), default="all")
    v.add_argument(
        "--grid-file",
        help="JSON file with a list of [alpha, beta] rational-string pairs",
    )
    v.add_argument(
        "--corrupt-a",
        type=int,
        default=None,
        metavar="INDEX",
        help="perturb a_INDEX by +1/100 before verifying (negative control)",
    )

    s = add_command("spectrum", cmd_spectrum, "eigenvalues of a truncated matrix")
    s.add_argument(
        "--matrix",
        choices=("c", "m1", "m2"),
        default="c",
        help="which truncation to diagonalize (default: the pentadiagonal product)",
    )

    add_command("moments", cmd_moments, "trigonometric moments sigma_0..sigma_n")
    return top


class _UsageError(Exception):
    """Bad usage that a command finds itself; ``main`` prints it and returns 2."""


def _require_params(args) -> JacobiParams:
    if args.alpha is None or args.beta is None:
        raise _UsageError("--alpha and --beta are required")
    return JacobiParams(args.alpha, args.beta)


def _require_n(args, floor: int) -> None:
    if args.n < floor:
        raise _UsageError(f"--n must be >= {floor}")


def _render_in_full() -> None:
    """Lift Python's limit on int -> str digits (3.11 and later), so the
    program's own exact values render in full however long they grow.
    A command calls this once its inputs are read, so an input over the
    limit is still rejected; ``main`` puts the caller's limit back."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _emit(args, doc, table, lines) -> None:
    """Write the output in ``--format`` to ``--out`` or stdout.  doc, table
    and lines take no arguments and give the JSON document, the CSV
    (header, rows) and the text lines; only the one picked is called."""
    if args.format == "json":
        text = json.dumps(doc(), indent=2) + "\n"
    elif args.format == "csv":
        header, rows = table()
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        text = buf.getvalue()
    else:
        text = "\n".join(lines()) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write --out: {exc}")


# --------------------------------------------------------------------------
# gen
# --------------------------------------------------------------------------


def cmd_gen(args) -> int:
    from .dunkl import lambda_n

    p = _require_params(args)
    _require_n(args, 1)
    _render_in_full()
    fam = build_family(p, args.n)
    lam = [lambda_n(p, k) for k in range(args.n + 1)]
    _emit(
        args,
        doc=lambda: {
            "alpha": str(p.alpha),
            "beta": str(p.beta),
            "n": args.n,
            "a": [str(x) for x in fam.a],
            "lambda": [str(x) for x in lam],
            "h": [str(x) for x in fam.h],
            "phi": [f.text() for f in fam.phi],
            "psi": [f.text() for f in fam.psi],
        },
        table=lambda: (
            ("n", "a", "lambda", "h", "phi", "psi"),
            [(k, fam.a[k], lam[k], fam.h[k], fam.phi[k].text(), fam.psi[k].text())
             for k in range(args.n + 1)],
        ),
        lines=lambda: [
            f"family alpha={p.alpha} beta={p.beta} size={args.n}",
            *(f"n={k}: a={fam.a[k]}  lambda={lam[k]}  h={fam.h[k]}\n"
              f"    phi = {fam.phi[k].text()}\n"
              f"    psi = {fam.psi[k].text()}" for k in range(args.n + 1)),
        ],
    )
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------


def _read_grid(path: str) -> list[tuple[Rational, Rational]]:
    """Parse a grid file: a JSON list of [alpha, beta] rational-string pairs."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValueError("expected a JSON list of [alpha, beta] pairs")
    if not raw:
        raise ValueError("no points")
    grid = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(v, str) for v in entry)):
            raise ValueError(f"expected a pair of rational strings, got {entry!r}")
        grid.append((rational(entry[0]), rational(entry[1])))
    return grid


def cmd_verify(args) -> int:
    _require_n(args, 3)
    k = args.corrupt_a
    if k is not None and not 0 <= k < args.n:
        raise _UsageError("--corrupt-a index out of range")
    top = suites.reach(args.suite, args.n)
    if k is not None and k > top:
        raise _UsageError(f"--corrupt-a {k} is beyond suite {args.suite}, "
                          f"which reads only a_0..a_{top} at --n {args.n}")
    if args.grid_file:
        try:
            grid = _read_grid(args.grid_file)
        except (OSError, ValueError, RecursionError, argparse.ArgumentTypeError) as exc:
            raise _UsageError(f"bad grid file: {exc}")
    elif args.alpha is None or args.beta is None:
        raise _UsageError("--alpha and --beta (or --grid-file) required")
    else:
        grid = [(args.alpha, args.beta)]
    _render_in_full()

    try:
        points = [JacobiParams(alpha, beta) for alpha, beta in grid]
    except ParamOutOfRange as exc:
        raise _UsageError(exc)
    # a corruption that moves a_k out of (-1, 1) leaves no family to
    # verify; every point is checked before any point runs
    if k is not None:
        for p in points:
            v = suites.corrupted_a(p, k)
            if not -1 < v < 1:
                raise _UsageError(f"--corrupt-a {k} moves a_{k} to {v} at alpha={p.alpha} "
                                  f"beta={p.beta}, outside (-1, 1)")

    # A point that raises records one error, naming the stage that raised
    # ("family" or a suite), keeps the reports made before it, and the
    # run goes on with the next point.
    reports, errors = [], []
    for p in points:
        stage = "family"
        try:
            fam = suites.family(p, args.n, k)
            for stage in suites.names(args.suite):
                reports.extend(suites.run(stage, fam))
        except (CircleJacobiError, ValueError) as exc:
            errors.append({"alpha": str(p.alpha), "beta": str(p.beta), "suite": stage,
                           "message": f"{type(exc).__name__}: {exc}"})
    error_lines = [
        f"alpha={e['alpha']} beta={e['beta']} suite={e['suite']}: {e['message']}"
        for e in errors
    ]

    n_checks = sum(len(r.checks) for r in reports)
    n_fail = sum(len(r.failures) for r in reports)
    n_skip = sum(len(r.skipped) for r in reports)
    status = "error" if errors else ("pass" if n_fail == 0 else "fail")

    def table():
        rows = []
        for r in reports:
            params = json.dumps({name: str(v) for name, v in r.params.items()})
            rows += [(r.identity, params, c.label, "pass" if c.ok else "fail", c.detail)
                     for c in r.checks]
            rows += [(r.identity, params, label, "skip", "") for label in r.skipped]
        rows += [(e["suite"], json.dumps({"alpha": e["alpha"], "beta": e["beta"]}), "",
                  "error", e["message"]) for e in errors]
        return ("identity", "params", "check", "status", "detail"), rows

    def lines():
        out = [r.summary_line() for r in reports]
        out += [f"    FAIL {c.label}: {c.detail}" for r in reports for c in r.failures]
        out += [f"ERROR {line}" for line in error_lines]
        out.append(f"{status.upper()}: {n_checks} checks, {n_fail} failures, {n_skip} skipped")
        return out

    _emit(
        args,
        doc=lambda: {
            "config": {
                "suite": args.suite,
                "n": args.n,
                "grid": [[str(a), str(b)] for a, b in grid],
                "corrupt_a": k,
            },
            "suite_results": [r.to_dict() for r in reports],
            "summary": {"checks": n_checks, "failures": n_fail, "skipped": n_skip,
                        "status": status},
            **({"error": errors} if errors else {}),
        },
        table=table,
        lines=lines,
    )
    if args.format == "csv":
        for line in error_lines:
            print(f"verify: {line}", file=sys.stderr)
    return 0 if status == "pass" else 1


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    p = _require_params(args)
    _require_n(args, 1)
    try:
        evs = spectrum(p, args.n, args.matrix)
    except ConvergenceFailure as exc:
        print(f"spectrum: {exc}", file=sys.stderr)
        return 1
    _emit(
        args,
        doc=lambda: {
            "alpha": str(p.alpha),
            "beta": str(p.beta),
            "matrix": args.matrix,
            "size": args.n,
            "eigenvalues": [[ev.real, ev.imag] for ev in evs],
        },
        table=lambda: (("re", "im", "abs"), [(ev.real, ev.imag, abs(ev)) for ev in evs]),
        lines=lambda: [
            f"truncated matrix {args.matrix} alpha={p.alpha} beta={p.beta} size={args.n}",
            *(f"{ev.real:+.12f} {ev.imag:+.12f}i  |.|={abs(ev):.12f}" for ev in evs),
        ],
    )
    return 0


# --------------------------------------------------------------------------
# moments
# --------------------------------------------------------------------------


def cmd_moments(args) -> int:
    p = _require_params(args)
    _require_n(args, 0)
    _render_in_full()
    ms = MomentSeq(p)
    vals = [ms.value(k) for k in range(args.n + 1)]
    _emit(
        args,
        doc=lambda: {
            "alpha": str(p.alpha),
            "beta": str(p.beta),
            "weight": "jacobi",
            "moments": [{"n": k, "value": str(v)} for k, v in enumerate(vals)],
        },
        table=lambda: (("n", "sigma"), list(enumerate(vals))),
        lines=lambda: [
            f"moments alpha={p.alpha} beta={p.beta} weight=jacobi",
            *(f"sigma_{k} = {v}" for k, v in enumerate(vals)),
        ],
    )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except CircleJacobiError as exc:
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
