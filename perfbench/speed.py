"""Host-speed probe: a fixed reference kernel timed alongside the program.

Other tenants of a shared host slow this process by up to about 2x for
stretches of seconds to minutes, and CPU time slows with wall time, so
neither says how fast the program itself is. The probe runs a fixed piece
of reference work (``reference_unit``) at short intervals while the
program runs, on the same thread, and times it. The program's wall time
divided by the mean time of a reference unit over the same stretch is
steady under such contention; multiplied by ``REFERENCE_UNIT_S`` it reads
as seconds on a host where one reference unit takes that long.

The kernel is exact rational arithmetic on dict-based polynomials, the
same kind of work as ``circlejacobi``'s ``LaurentPoly``, written here on
plain ints so that it needs only ``math`` and ``time`` and can run before
the package is imported. It is part of the benchmark, not of the program, so a change to
the program leaves it as it is.
"""

from __future__ import annotations

from math import gcd
from time import perf_counter

# Seconds one reference unit is taken to last, by definition. A 2-vCPU
# Xeon host shared with other tenants, with Python 3.11.7, took about 3.6 ms
# when quiet and up to about 7 ms under contention.
REFERENCE_UNIT_S = 0.0035
# Program wall time between two reference units.
INTERVAL_S = 0.1
# Fewest reference units a scaled time rests on; missing ones are run after.
MIN_UNITS = 8


def _reduce(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    if d < 0:
        g = -g
    return n // g, d // g


def _add(p: dict, q: dict, num: int = 1, den: int = 1) -> dict:
    """p + (num/den) * q, coefficients as reduced (numerator, denominator)."""
    out = dict(p)
    for k, (qn, qd) in q.items():
        sn, sd = _reduce(qn * num, qd * den)
        pn, pd = out.get(k, (0, 1))
        cn, cd = _reduce(pn * sd + sn * pd, pd * sd)
        if cn:
            out[k] = (cn, cd)
        else:
            out.pop(k, None)
    return out


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for i, (an, ad) in p.items():
        for j, (bn, bd) in q.items():
            cn, cd = out.get(i + j, (0, 1))
            cn, cd = _reduce(cn * ad * bd + an * bn * cd, cd * ad * bd)
            if cn:
                out[i + j] = (cn, cd)
            else:
                out.pop(i + j, None)
    return out


def _rational_work(degree: int) -> int:
    """A Szegő-type recurrence and a product on rational polynomials.

    The coefficients grow from a few bits to about 170, so this mixes the
    small and the large integers that the program's workloads use.
    """
    phi = {0: (1, 1)}
    for k in range(degree):
        num, den = _reduce(3 + 7 * k, 5 + 14 * k * k)
        reflected = {k - e: c for e, c in phi.items()}
        phi = _add({e + 1: c for e, c in phi.items()}, reflected, -num, den)
    return len(_mul(phi, {degree - e: c for e, c in phi.items()}))


def _interpreter_work(steps: int) -> int:
    """Dict stores, tuples and small-int arithmetic: bytecode dispatch alone."""
    total = 0
    table: dict = {}
    for i in range(steps):
        table[i & 63] = (i, total)
        total = (total + len(table) * 3) % 1000003
    return total


def reference_unit() -> int:
    """One unit of reference work, about half of each kind.

    Contention slows the big-integer half less than the program and the
    bytecode half more. Over ten minutes of contention, the log of the
    program's call times against the log of their sum had slopes 1.01 and
    1.08 on two workload shapes (NOTES.md).
    """
    return _rational_work(18) + _interpreter_work(14000)


def unit_times(count: int) -> list[float]:
    """Seconds of each of `count` reference units run back to back."""
    times = []
    for _ in range(count):
        t0 = perf_counter()
        reference_unit()
        times.append(perf_counter() - t0)
    return times


def scaled(wall_s: float, units: list[float]) -> float:
    """`wall_s` in seconds at reference speed, given the units timed with it."""
    return wall_s * REFERENCE_UNIT_S / (sum(units) / len(units))


class Probe:
    """While armed, runs a reference unit INTERVAL_S after the last one ended.

    The units run in a SIGALRM handler, on the thread that runs the
    program, between two of its bytecodes. Each unit is recorded as
    (start, seconds), so a caller can take the units inside a timed stretch
    out of the stretch's wall time and use them to scale it.
    """

    def __init__(self):
        self.units: list[tuple[float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_unit()
        self.units.append((t0, perf_counter() - t0))
        self._signal.setitimer(self._signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "Probe":
        import signal  # here, so that a set-up timing imports only math and time

        self._signal = signal
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._signal.setitimer(self._signal.ITIMER_REAL, 0)
        self._signal.signal(self._signal.SIGALRM, self._previous)

    def between(self, t0: float, t1: float) -> list[float]:
        """Seconds of the units that started in [t0, t1)."""
        return [s for start, s in self.units if t0 <= start < t1]
