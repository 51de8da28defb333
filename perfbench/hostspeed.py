"""Host-speed probes.  Imports nothing heavy, so that a cold-start child can
time itself with the same probe as the benchmark process.

On a shared 2-vCPU host the speed of one core flips between levels about 1.6x
apart every few seconds, for the program and for a plain Python loop alike.
`speed` turns measured seconds into reference seconds: seconds on a host where
`probe` takes REF_PROBE_S.  Of the loops tried (integer sums, random list
walks, permutation products), permutation products track the program's own
slowdowns most closely.
"""

import gc
import time

PROBE_ROUNDS = 250
REF_PROBE_S = 0.001

_CYCLE = tuple(range(1, 48)) + (0,)


def probe() -> float:
    """Seconds for PROBE_ROUNDS products of a 48-cycle, each kept in a set.
    The collector is off meanwhile, so that a collection of the program's
    heap is not mistaken for a slow host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        step = _CYCLE.__getitem__
        x = tuple(range(48))
        seen = set()
        for _ in range(PROBE_ROUNDS):
            x = tuple(map(step, x))
            seen.add(x)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(probes) -> float:
    """Factor that turns measured seconds into reference seconds."""
    factors = [REF_PROBE_S / p for p in probes]
    return sum(factors) / len(factors)


def spin(iterations: int) -> float:
    """Seconds for a plain integer loop: the host-speed diagnostic."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x += i
    return time.perf_counter() - t0
