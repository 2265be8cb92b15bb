"""Decoding of SR(C1, C2) words by reduction to Hamming-metric decoding.

A received word y = y0 x + y1 x^2 is handled in two stages: decode y1 in
C1 once, then strip the recovered x^2 part and evaluate the remainder at
the three nonzero field points beta in {1, w, w^2}.  Blocks where both
error coefficients are nonzero vanish at exactly one beta, so by
pigeonhole one of the three evaluations lands within half the minimal
distance of C2 whenever wt_sr(error) <= floor((d_sr - 1) / 2) and
d2 >= 2 d_sr / 3.  Each evaluation is decoded against C2 after undoing
the scalar (the scaled code beta*C2 is equivalent to C2).

A verified candidate within the radius is the unique nearest codeword, so
the branch scan stops at the first one; the decoder never returns an
unverified word.  The module also provides the exhaustive sum-rank
nearest-codeword oracle, the weighted error channel, and a simulation
harness with per-trial counter-mode seeding.
"""

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, RangeError
from .gf2m import vec_scale, vec_xor
from .codes import DEFAULT_BUDGET
from .sumrank import SrWord, sr_sweep, sr_zero, sumrank_weight_formula

_BETA_SQ = {1: 1, 2: 3, 3: 2}

STATUS_SUCCESS = "success"
STATUS_C1_FAILURE = "c1_failure"
STATUS_ALL_BRANCHES_FAILED = "all_branches_failed"
STATUS_AMBIGUOUS = "ambiguous"


def evaluate_word(word, beta):
    """Coordinatewise evaluation of the word's q-polynomials at beta != 0."""
    if beta not in _BETA_SQ:
        raise RangeError(f"evaluation point must be a nonzero GF(4) symbol, got {beta}")
    return vec_xor(vec_scale(word.coeff_x, beta),
                   vec_scale(word.coeff_x2, _BETA_SQ[beta]))


@dataclass
class SrDecodeResult:
    status: str
    codeword: Optional[SrWord] = None
    error: Optional[SrWord] = None
    succeeded_branch: Optional[int] = None      # GF(4) symbol 1, 2 or 3
    candidates_considered: Tuple = ()           # (beta, outcome) per branch
    dec1_calls: int = 0
    dec2_calls: int = 0

    @property
    def ok(self):
        return self.status == STATUS_SUCCESS


def _check_config(code, dec1, dec2, d_sr):
    """Validate the declared distance against the components; return the radius."""
    if d_sr is None:
        d_sr = code.d_sr_lower
    if d_sr is None or d_sr == float("inf") or d_sr != int(d_sr):
        raise ConfigError("a finite declared decoding distance is required")
    d_sr = int(d_sr)
    d1 = code.c1.d_lower or 0
    d2 = code.c2.d_lower or 0
    radius = (d_sr - 1) // 2
    if d1 < d_sr:
        raise ConfigError(f"C1 distance {d1} below the declared d_sr = {d_sr}")
    if 3 * d2 < 2 * d_sr:
        raise ConfigError(f"C2 distance {d2} below 2*{d_sr}/3")
    if dec1.radius < radius:
        raise ConfigError(f"C1 decoder radius {dec1.radius} < {radius}")
    if dec2.radius < (d2 - 1) // 2:
        raise ConfigError(f"C2 decoder radius {dec2.radius} < {(d2 - 1) // 2}")
    if dec1.code is not code.c1 or dec2.code is not code.c2:
        if dec1.code.n != code.n or dec2.code.n != code.n:
            raise ConfigError("decoder/code length mismatch")
    return radius


def sr_decode(code, dec1, dec2, received, d_sr=None):
    """Bounded-distance decoding of a received SrWord.

    Guaranteed exact for every error of sum-rank weight up to
    floor((d_sr - 1) / 2) when the component hypotheses hold; outside the
    radius it returns a typed failure or, if two verified candidates tie,
    the ambiguous state - never a guess.
    """
    radius = _check_config(code, dec1, dec2, d_sr)
    if len(received.coeff_x2) != received.length:
        raise RangeError(f"received word has coefficient vectors of lengths "
                         f"{received.length} and {len(received.coeff_x2)}")
    if received.length != code.n:
        raise ConfigError(f"received length {received.length} != {code.n}")
    return _sr_decode(dec1, dec2, received, radius)


def _sr_decode(dec1, dec2, received, radius):
    """The body of sr_decode, for a configuration that has been checked."""
    res1 = dec1.decode(received.coeff_x2)
    if not res1.ok:
        return SrDecodeResult(STATUS_C1_FAILURE, dec1_calls=1,
                              candidates_considered=())
    c1, e1 = res1.codeword, res1.error

    y0 = received.coeff_x
    considered = []
    candidates = []
    dec2_calls = 0
    for beta in (1, 2, 3):
        branch_in = y0 if beta == 1 and not any(e1) else \
            vec_xor(y0, vec_scale(e1, beta))
        res2 = dec2.decode(branch_in)
        dec2_calls += 1
        if not res2.ok:
            considered.append((beta, res2.status))
            continue
        c2 = res2.codeword
        e0 = vec_xor(y0, c2)
        w = sumrank_weight_formula(e1, e0)
        considered.append((beta, "candidate"))
        if w <= radius:
            # unique nearest codeword inside the radius: stop scanning
            return SrDecodeResult(
                STATUS_SUCCESS,
                codeword=SrWord(c2, c1),
                error=SrWord(e0, e1),
                succeeded_branch=beta,
                candidates_considered=tuple(considered),
                dec1_calls=1, dec2_calls=dec2_calls)
        candidates.append((w, beta, c2))

    if candidates:
        candidates.sort(key=lambda t: t[0])
        wmin = candidates[0][0]
        tied = {c2 for w, _, c2 in candidates if w == wmin}
        if len(tied) > 1:
            return SrDecodeResult(STATUS_AMBIGUOUS,
                                  candidates_considered=tuple(considered),
                                  dec1_calls=1, dec2_calls=dec2_calls)
    return SrDecodeResult(STATUS_ALL_BRANCHES_FAILED,
                          candidates_considered=tuple(considered),
                          dec1_calls=1, dec2_calls=dec2_calls)


def sr_oracle_decode(code, received, budget=DEFAULT_BUDGET):
    """Exhaustive nearest codeword in the sum-rank metric.

    Ties for the minimum distance come back as the ambiguous state.
    """
    _, tie, codeword = sr_sweep(code, received, budget)
    if tie:
        return SrDecodeResult(STATUS_AMBIGUOUS)
    error = SrWord(vec_xor(received.coeff_x, codeword.coeff_x),
                   vec_xor(received.coeff_x2, codeword.coeff_x2))
    return SrDecodeResult(STATUS_SUCCESS, codeword=codeword, error=error)


# ----------------------------------------------------------------------
# error channel
# ----------------------------------------------------------------------

def error_profiles(length, w):
    """Nonnegative (i1, i2, i3) with 2 i1 + 2 i2 + i3 = w, i1+i2+i3 <= length."""
    return list(_error_profiles(length, w))


@lru_cache(maxsize=1024)
def _error_profiles(length, w):
    out = []
    for i3 in range(w % 2, w + 1, 2):
        rest = (w - i3) // 2
        for i1 in range(rest + 1):
            i2 = rest - i1
            if i1 + i2 + i3 <= length:
                out.append((i1, i2, i3))
    return tuple(out)


def sample_error(length, w, rng):
    """A uniform-profile random error of exact sum-rank weight w.

    rng is a seed or a numpy Generator; results are deterministic per seed.
    """
    if not 0 <= w <= 2 * length:
        raise RangeError(f"target weight {w} outside [0, {2 * length}]")
    rng = np.random.default_rng(rng)  # a Generator comes back unchanged
    if w == 0:
        return sr_zero(length)
    profiles = _error_profiles(length, w)  # cached: simulate asks per trial
    i1, i2, i3 = profiles[rng.integers(len(profiles))]
    positions = rng.choice(length, size=i1 + i2 + i3, replace=False).tolist()
    e0 = bytearray(length)
    e1 = bytearray(length)
    # values in order: i1 for e0, i2 for e1, then an (e0, e1) pair per i3
    vals = rng.integers(1, 4, size=i1 + i2 + 2 * i3).tolist()
    for p, v in zip(positions[:i1], vals):
        e0[p] = v
    for p, v in zip(positions[i1:i1 + i2], vals[i1:]):
        e1[p] = v
    pairs = vals[i1 + i2:]
    for p, v0, v1 in zip(positions[i1 + i2:], pairs[0::2], pairs[1::2]):
        e0[p] = v0
        e1[p] = v1
    return SrWord(bytes(e0), bytes(e1))


def min_branch_weight(e0, e1):
    """min over beta of wt_H(beta*e0 + beta^2*e1); the pigeonhole quantity."""
    best = None
    for beta in (1, 2, 3):
        w = len(e0) - vec_xor(vec_scale(e0, beta),
                              vec_scale(e1, _BETA_SQ[beta])).count(0)
        best = w if best is None else min(best, w)
    return best


# ----------------------------------------------------------------------
# channel simulation
# ----------------------------------------------------------------------

def simulate(code, dec1, dec2, weights, trials, seed=0, d_sr=None, jobs=1):
    """Monte Carlo channel runs; returns one tally row per weight.

    Per-trial generators are seeded counter-style from (seed, weight, trial)
    so the tallies depend only on the seed.  The configuration is checked
    once per call.  Trials run in this process; jobs is accepted for
    compatibility and has no effect.
    """
    radius = _check_config(code, dec1, dec2, d_sr)
    rows = []
    for w in weights:
        tally = {"weight": w, "trials": trials, "success": 0, "failure": 0,
                 "ambiguous": 0, "miscorrections": 0, "mean_decode_micros": 0.0,
                 "dec1_calls_max": 0, "dec2_calls_max": 0}
        total_us = 0.0
        for t in range(trials):
            rng = np.random.default_rng((seed, w, t))
            sent = code.encode(rng.integers(0, 2, size=code.f2_dimension).tolist())
            received = sent + sample_error(code.n, w, rng)
            t0 = time.perf_counter()
            res = _sr_decode(dec1, dec2, received, radius)
            total_us += (time.perf_counter() - t0) * 1e6
            tally["dec1_calls_max"] = max(tally["dec1_calls_max"], res.dec1_calls)
            tally["dec2_calls_max"] = max(tally["dec2_calls_max"], res.dec2_calls)
            if res.ok and res.codeword == sent:
                tally["success"] += 1
            elif res.status == STATUS_AMBIGUOUS:
                tally["ambiguous"] += 1
            else:
                tally["failure"] += 1
                if res.ok:
                    tally["miscorrections"] += 1
        tally["mean_decode_micros"] = total_us / max(trials, 1)
        rows.append(tally)
    return rows
