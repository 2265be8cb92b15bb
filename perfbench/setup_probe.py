"""Times one set-up of a workload in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload>

The clock starts just before `import srcodes` and stops when both decoders
are ready.  Prints one JSON object: the set-up time, the per-layer split of
the build, the machine-speed scale (see machine.py) that was applied to
both, and the path srcodes was imported from.
"""

import json
import statistics
import sys
import time

from machine import reference_ns, speed_scale
from workloads import WORKLOADS, build


def _reference():
    return statistics.median(reference_ns() for _ in range(5))


def main(name):
    workload = WORKLOADS[name]
    before = _reference()
    t0 = time.perf_counter()
    import srcodes
    stages = {}
    build(workload, stages)
    setup_s = time.perf_counter() - t0
    scale = speed_scale(before, _reference())
    out = {"setup_s": setup_s * scale, "scale": scale,
           **{key: val * scale for key, val in stages.items()},
           "srcodes": srcodes.__file__}
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
