"""Host-speed calibration loop.

A fixed piece of stdlib work whose wall time tracks how fast the host is
running at the moment it is called.  It mixes the kinds of work ncquad
spends its time on: Fraction and int arithmetic, dict updates, and
arithmetic on a small slotted class through its operators (the shape of
``FpElement``).  Without the last part, F_p latencies tracked the loop
less well.
Dividing a latency by a nearby calibration time gives a figure in
calibration units (``_cal``) that is far steadier on a shared VM than the
raw latency.  This module imports nothing from ncquad, so no change to
the program can move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

ROUNDS = 450
# A fixed scale that turns a time in calibration units back into ms: the
# median time of one call over the runs of a 2-vCPU VM (Python 3.11.7) in
# its usual, slower state.  It is never measured again, so a figure scaled
# by it moves only when the calibrated time moves.
REFERENCE_MS = 3.85


class _Mod:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 10007

    def __add__(self, other):
        return _Mod(self.v + other.v)

    def __mul__(self, other):
        return _Mod(self.v * other.v)


def _work() -> int:
    acc = Fraction(0)
    table = {}
    x = 1
    m = _Mod(1)
    for i in range(1, ROUNDS + 1):
        if i % 40 == 0:
            acc = Fraction(acc.numerator % 1009, acc.denominator % 1013 + 1)
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        x = (x * 1103515245 + 12345) % 2147483648
        key = x & 255
        table[key] = table.get(key, 0) + (acc.numerator & 0xFFFF)
        row = (m * _Mod(x), m + _Mod(i), _Mod(key))
        m = row[0] + row[1] * row[2]
    return len(table) + acc.denominator % 97 + m.v


EXPECTED = _work()


def calibrate() -> float:
    """Run the loop once; return its wall time in ms."""
    t0 = time.perf_counter()
    result = _work()
    elapsed = (time.perf_counter() - t0) * 1e3
    if result != EXPECTED:
        raise RuntimeError("calibration loop gave a different result")
    return elapsed
