"""Equivalence gate: decoded words and tallies stay bit-for-bit the same.

For each benchmark workload, one md5 covers every sr_decode result on the
workload's seed-1 received words (perfbench's `Inputs`) and one simulate()
over all of the workload's weights, with the timing column dropped.  A
changed digest is a finding to explain, not a value to re-record.

The words, errors and simulated trials come from numpy Generator streams,
so the digests hold for the numpy that recorded them (NUMPY below).
"""

import hashlib
import os
import sys

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

from srcodes import simulate, sr_decode  # noqa: E402

NUMPY = "2.4.6"
DIGESTS = {
    "bch15-radius": "9472ec59c6a7c507d1b3c686c54619d1",
    "bch255-channel": "6acc2050aa58b61f04baeb8af711ceab",
    "goppa256-channel": "c95158785f77a33626b805b9e8f82f7f",
    "bch25-bigfield": "09d919e4be4e62e28aea0b652398f2d7",
}


def _word(w):
    return None if w is None else tuple(w)


def workload_digest(workload, seed=1):
    code, dec1, dec2 = build(workload)
    h = hashlib.md5()
    for y in run.Inputs(code, workload, seed).received:
        r = sr_decode(code, dec1, dec2, y, workload.d_sr)
        h.update(repr((r.status, _word(r.codeword), _word(r.error), r.succeeded_branch,
                       r.candidates_considered, r.dec1_calls, r.dec2_calls)).encode())
    rows = simulate(code, dec1, dec2, workload.weights, workload.sim_trials, seed=seed,
                    d_sr=workload.d_sr)
    for row in rows:
        del row["mean_decode_micros"]
    h.update(repr(rows).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_digest(name):
    assert workload_digest(WORKLOADS[name]) == DIGESTS[name], \
        f"recorded with numpy {NUMPY}, running numpy {np.__version__}"
