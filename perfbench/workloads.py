"""The benchmark's workloads: which sum-rank code each one builds, how the
set-up is split into layers, and how much work one measuring round does.

Nothing here imports srcodes at module level, so a set-up probe can start
its clock before the package is imported.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    d_sr: int                 # always passed to sr_decode and simulate
    weights: Tuple[int, ...]  # sum-rank error weights, equally represented
    build: Callable           # build(stage) -> (c1, c2, decoder class)
    words: int                # received words decoded once per round
    chunk: int                # words timed between two reference-loop runs
    sim_trials: int           # simulate() trials per weight per round
    setup_reps: int           # fresh-interpreter set-ups per run

    @property
    def radius(self):
        return (self.d_sr - 1) // 2


def _bch_field(n):
    from srcodes import build_field
    from srcodes.codes import bch_locator_exponent
    return build_field(2 * bch_locator_exponent(n))


def _bch15(stage):
    from srcodes import BchDecoder, DefiningSet, bch_build
    with stage("field"):
        _bch_field(15)
    with stage("codes"):
        c1 = bch_build(15, (1, 6))
        c2 = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))
    return c1, c2, BchDecoder


def _bch255(stage):
    from srcodes import BchDecoder, bch_build
    with stage("field"):
        _bch_field(255)
    with stage("codes"):
        c1 = bch_build(255, (1, 32))
        c2 = bch_build(255, (1, 22))
    return c1, c2, BchDecoder


def _goppa256(stage):
    from srcodes import GF4, GoppaDecoder, build_field, find_irreducible, goppa_build
    with stage("field"):
        F = build_field(8)
    with stage("codes"):
        c1 = goppa_build(F, None, find_irreducible(F, 24, seed=3), base=GF4)
        c2 = goppa_build(F, None, find_irreducible(F, 16, seed=4), base=GF4)
    return c1, c2, GoppaDecoder


def _bch25(stage):
    # acceptance criterion 01's pair; the locator field is GF(2^20)
    from srcodes import BchDecoder, DefiningSet, bch_build
    with stage("field"):
        _bch_field(25)
    with stage("codes"):
        c1 = bch_build(25, DefiningSet(25, range(1, 25)))
        c2 = bch_build(25, DefiningSet.from_cosets(25, [0, 1, 2, 5]))
    return c1, c2, BchDecoder


# Sizes put a decode chunk at about 10 ms and a one-weight simulate() call
# at 10-30 ms on a 2-core Xeon VM, and a round at 0.1-2 s, so a 25 s run
# gives at least a dozen rounds, with a quarter or more of the time in
# simulate().  Each weight gets at least 48 distinct received words, so the
# mean cost of a word varies little from seed to seed.
WORKLOADS = {w.name: w for w in (
    Workload("bch15-radius", 6, (0, 1, 2), _bch15,
             words=1500, chunk=300, sim_trials=60, setup_reps=7),
    Workload("bch255-channel", 33, tuple(range(20)), _bch255,
             words=960, chunk=12, sim_trials=12, setup_reps=7),
    Workload("goppa256-channel", 25, tuple(range(16)), _goppa256,
             words=1024, chunk=8, sim_trials=12, setup_reps=5),
    Workload("bch25-bigfield", 25, tuple(range(16)), _bch25,
             words=1280, chunk=20, sim_trials=24, setup_reps=5),
)}


def build(workload, stages=None):
    """Build the workload's SumRankCode and both decoders.

    When `stages` is a dict, the wall time of each layer of the set-up is
    added to it under "field" (gf2m), "codes" (codes and sumrank) and
    "decoders" (hamdec).
    """
    from srcodes import SumRankCode

    @contextmanager
    def stage(name):
        t0 = time.perf_counter()
        yield
        if stages is not None:
            stages[name] = stages.get(name, 0.0) + time.perf_counter() - t0

    c1, c2, decoder = workload.build(stage)
    with stage("codes"):
        code = SumRankCode(c1, c2)
    with stage("decoders"):
        dec1, dec2 = decoder(c1), decoder(c2)
    return code, dec1, dec2
