"""Self-test of the benchmark: every workload end to end at a few words, and
proof that the output checks catch a wrong decode.

    python3 -m pytest perfbench/test_bench.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)


def _small(workload):
    return dataclasses.replace(workload, words=2 * len(workload.weights),
                               sim_trials=1, setup_reps=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_end_to_end(name, trace):
    result = run.run_workload(_small(WORKLOADS[name]), seed=7, seconds=0, trace=trace)
    assert result["correct"]
    assert result["attempted"] > 0 and result["failed"] == 0
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: m["unit"] for k, m in result["metrics"].items()}


class FlipDecoder:
    """A faulty component decoder: flips one symbol of every successful
    codeword it returns."""

    def __init__(self, inner):
        self.code = inner.code
        self.radius = inner.radius
        self._inner = inner

    def decode(self, word):
        res = self._inner.decode(word)
        if not res.ok:
            return res
        cw = bytearray(res.codeword)
        cw[0] ^= 1
        return res._replace(codeword=bytes(cw))


def test_flipped_symbol_is_a_failed_operation():
    # every word and trial of bch15-radius is within the radius, so each
    # one either returns a non-codeword or wrongly gives up
    result = run.run_workload(_small(WORKLOADS["bch15-radius"]), seed=7, seconds=0,
                              trace=0, decorate=FlipDecoder)
    assert result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_block_rank_matches_supports():
    # a 2x2 block has rank 2 when exactly one coefficient is nonzero and
    # rank 1 when both are
    for a0 in range(4):
        for a1 in range(4):
            want = 0 if a0 == a1 == 0 else 1 if a0 and a1 else 2
            assert run.BLOCK_RANK[4 * a0 + a1] == want


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCH["command"] + ["--workload", "bch15-radius", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"attempted"' not in proc.stdout
