"""Machine-speed calibration.

The benchmark's shared 2-core machine changes speed by up to 2x within
seconds.  A fixed pure-Python reference loop, run next to every measured
stretch of work, tracks those changes; each stretch's time is scaled by
NOMINAL_NS / (the loop's time beside it).  A scaled time is the wall time
the work would take at the speed at which the reference loop takes exactly
1 ms.  The loop uses nothing from srcodes, so no change to the package can
move it.
"""

import time

NOMINAL_NS = 1_000_000

_TABLE = [(i * 2654435761) & 0xFFFF for i in range(256)]
_ROUNDS = 3000  # about 1 ms at the typical speed of a 2-core Xeon VM


def reference_ns():
    """Wall time of one run of the reference loop, in ns."""
    table = _TABLE
    pos = {}
    acc = 0
    t0 = time.perf_counter_ns()
    for i in range(_ROUNDS):
        acc ^= table[(acc + i) & 255]
        acc = (acc * 5 + 1) % 65521
        pos[acc & 63] = i
        if acc & 1:
            acc += len(pos)
    return time.perf_counter_ns() - t0


def speed_scale(before_ns, after_ns):
    """Factor that turns wall time into scaled time, for work done between
    two reference runs."""
    return 2 * NOMINAL_NS / (before_ns + after_ns)
