"""A fixed pure-Python loop whose time tracks the machine's speed.

The 2-core x86_64 VM the benchmark was written on drifts in speed by 30%
and more, within seconds and between runs minutes apart, and the drift
hits this loop and kkfree alike.  The worker therefore times this loop
before and after every op, and the gated times are scaled to the reference
speed: ``raw * REFERENCE_NOMINAL_S / reference time``, with the mean of
the loops around an op as its reference time.
"""

from time import perf_counter

REFERENCE_LOOPS = 150_000
# Reference-speed time of REFERENCE_LOOPS iterations (typical for the
# VM above: 0.013-0.022 s); a fixed constant, so that scaled times
# read in seconds.
REFERENCE_NOMINAL_S = 0.02


def reference_loop_s(loops: int) -> float:
    """Seconds for ``loops`` iterations of a fixed integer loop."""
    t0 = perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0
