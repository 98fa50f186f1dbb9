"""A fixed piece of pure-Python work that measures how fast the host runs right now.

The host this benchmark was built on is shared, and its speed swings by a
factor of two or more within seconds.  The worker times `reference()`
before every operation, and `run.py` scales each operation's latency by
REFERENCE_S / (mean reference time just before and just after it).  The
figures it reports are therefore times on a host where `reference()` takes
REFERENCE_S.  The work does not touch `horikawa`, so a change to the
program cannot change it.

The work has two halves, because the program's operations slow down
differently: allocation and JSON encoding (small `en-report` calls,
`class-t generate`) slow down more than tight integer loops (the lattice
minors at large n, the class-T parameter solve).  Either half alone
over- or under-corrects one kind of operation.
"""

from __future__ import annotations

import gc
import json
from fractions import Fraction
from time import perf_counter

# Nominal time of one reference() call; every reported time is scaled to it.
REFERENCE_S = 0.004


def reference() -> float:
    """Seconds that one fixed mix of fractions, JSON encoding and an integer loop takes now.

    The garbage collector is paused, so the time does not depend on how
    many objects the calling process holds.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 150):
            acc += Fraction(i, i + 7)
        text = json.dumps({"rows": [[j * k for k in range(20)] for j in range(100)]}, indent=1)
        m = 2**40 + 15
        divisors = 0
        for i in range(1, 30000):
            if m % i == 0:
                divisors += 1
        elapsed = perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if acc <= 0 or not text or divisors != 1:
        raise AssertionError("reference work gave a wrong result")
    return elapsed
