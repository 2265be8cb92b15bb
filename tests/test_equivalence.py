"""Equivalence gate: decoded words and tallies stay bit-for-bit the same.

For each benchmark workload, one md5 covers every sr_decode result on the
workload's received words for one seed (perfbench's `Inputs`) and one
simulate() at that seed over all of the workload's weights, with the timing
column dropped.  Seeds 1 and 2 are pinned.  A changed digest is a finding
to explain, not a value to re-record.

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
    ("bch15-radius", 1): "9472ec59c6a7c507d1b3c686c54619d1",
    ("bch255-channel", 1): "6acc2050aa58b61f04baeb8af711ceab",
    ("goppa256-channel", 1): "c95158785f77a33626b805b9e8f82f7f",
    ("bch25-bigfield", 1): "09d919e4be4e62e28aea0b652398f2d7",
    ("bch15-radius", 2): "4eca3c13e5ace162d34e9206572f676d",
    ("bch255-channel", 2): "d4df520b06e3c370a334ea3d6dbd19cf",
    ("goppa256-channel", 2): "13524aa1c9288359ddd3dc17a94a3c20",
    ("bch25-bigfield", 2): "99a158e86ad124b3cb4d7e5fc7e48b14",
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


# seed 1's ids stay the bare workload names they had before seed 2 was pinned
@pytest.mark.parametrize("name, seed", sorted(DIGESTS),
                         ids=[n if s == 1 else f"{n}-seed{s}" for n, s in sorted(DIGESTS)])
def test_workload_digest(name, seed):
    assert workload_digest(WORKLOADS[name], seed) == DIGESTS[name, seed], \
        f"recorded with numpy {NUMPY}, running numpy {np.__version__}"
