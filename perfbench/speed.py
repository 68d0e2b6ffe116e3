"""The host's speed, measured by a fixed reference computation.

On a shared host the same pass over a workload can take twice as long
from one minute to the next, because other tenants' load slows the cores
for stretches of seconds to minutes.  No statistic over one run removes a
slow stretch that lasts the whole run, so the benchmark measures the
host's speed next to the program and scales the program's times by it.

`unit()` is a fixed piece of pure-Python work of the same kind as the
library's inner loops (unit propagation over a fixed clause list: list
indexing, small-integer comparisons, branches); it never changes with the
library, so its time measures the host alone.  `Meter.after(elapsed)`
runs units right after a timed piece of the program, for a share
`SHARE` of its time, and returns that time scaled to a host on which one
unit takes `UNIT_REF_S`: seconds on the reference host.
"""

from __future__ import annotations

import random
import time

# Seconds one unit took on the baseline host (median of 2000 units,
# Python 3.11.7, 2 shared cores); scaled times are in its seconds.
UNIT_REF_S = 0.0036
# Reference work per second of program time, and the least per sample.
SHARE = 0.25
MIN_UNITS = 2
WARMUP_UNITS = 20

_VARS = 40
_RNG = random.Random(20231018)
_CLAUSES = tuple(
    tuple(_RNG.choice((1, -1)) * v
          for v in _RNG.sample(range(1, _VARS + 1), 3))
    for _ in range(320))
_DECISIONS = tuple(_RNG.choice((1, -1)) * v
                   for v in _RNG.sample(range(1, _VARS + 1), 24))


def unit() -> int:
    """Assign the fixed decisions one by one and, after each, classify
    every clause as satisfied, unit, falsified or open; returns a checksum
    of the classification."""
    assign = [0] * (_VARS + 1)
    checksum = 0
    for lit in _DECISIONS:
        assign[abs(lit)] = 1 if lit > 0 else -1
        for clause in _CLAUSES:
            free = 0
            for l in clause:
                value = assign[abs(l)]
                if value == 0:
                    free += 1
                elif (value > 0) == (l > 0):
                    free = -1
                    break
            checksum = (checksum * 5 + free + 1) % 1000003
    return checksum


class Meter:
    """Scales program times by the speed the host shows right after them."""

    def __init__(self) -> None:
        for _ in range(WARMUP_UNITS):
            self._expected = unit()
        self.unit_times: list[float] = []

    def after(self, elapsed: float, min_units: int = MIN_UNITS) -> float:
        """Run reference units for a share of `elapsed`, at least
        `min_units` of them, and return `elapsed` in reference-host
        seconds."""
        wanted = SHARE * elapsed
        units = 0
        started = time.perf_counter()
        spent = 0.0
        while units < min_units or spent < wanted:
            if unit() != self._expected:
                raise AssertionError("the reference computation changed")
            units += 1
            spent = time.perf_counter() - started
        per_unit = spent / units
        self.unit_times.append(per_unit)
        return elapsed * UNIT_REF_S / per_unit
