"""Decoding of SR(C1, C2) words by reduction to Hamming-metric decoding.

A received word y = y0 x + y1 x^2 is handled in two stages: decode y1 in
C1 once, then strip the recovered x^2 part and evaluate the remainder at
the three nonzero field points beta in {1, w, w^2}.  Blocks where both
error coefficients are nonzero vanish at exactly one beta, so by
pigeonhole one of the three evaluations lands within half the minimal
distance of C2 whenever wt_sr(error) <= floor((d_sr - 1) / 2) and d_sr
is at most SumRankCode.d_sr_decodable.  Each evaluation is decoded
against C2 after undoing the scalar (the scaled code beta*C2 is
equivalent to C2).

A verified candidate within the radius is the unique nearest codeword, so
the branch scan stops at the first one; the decoder never returns an
unverified word.  A later branch whose input lies within C2's decoding
radius r2 of an earlier candidate is settled as that candidate without a
decode: the C2 decoder is assumed complete (it returns the codeword within
r2 of every such input, as BchDecoder, GoppaDecoder and OracleDecoder do),
and d2 > 2 r2 leaves that candidate as the only possible answer.  The
module also provides the exhaustive sum-rank nearest-codeword oracle, the
weighted error channel, and a simulation harness with per-trial
counter-mode seeding.
"""

import numbers
import time
import warnings
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from .errors import ConfigError, RangeError
from .gf2m import SCALE4, vec_checked, vec_scale, vec_xor
from .codes import DEFAULT_BUDGET
from .sumrank import SrWord, decodable_d_sr, sr_sweep

_BETA_SQ = {1: 1, 2: 3, 3: 2}
_ONES = {}  # n -> the integer with bit 0 of each of n bytes set
_new = tuple.__new__  # builds a result without the generated __new__'s call

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


class SrDecodeResult(NamedTuple):
    status: str
    codeword: Optional[SrWord] = None
    error: Optional[SrWord] = None
    succeeded_branch: Optional[int] = None      # GF(4) symbol 1, 2 or 3
    candidates_considered: Tuple = ()           # (beta, outcome) per branch
    dec1_calls: int = 0
    dec2_calls: int = 0     # beta-branches evaluated (<= 3), settled ones included

    @property
    def ok(self):
        return self.status == STATUS_SUCCESS


_C1_FAILED = SrDecodeResult(STATUS_C1_FAILURE, None, None, None, (), 1, 0)


def _check_config(code, dec1, dec2, d_sr):
    """Validate d_sr (default code.d_sr_decodable) and the decoders; return the radius."""
    d1, d2 = code.c1.d_lower, code.c2.d_lower  # at every call: d_exact may change
    top = decodable_d_sr(d1, d2)
    if top is None:
        raise ConfigError("a zero component leaves no decodable distance")
    if d_sr is None:
        d_sr = top
    if not 1 <= d_sr <= top or d_sr != int(d_sr):
        raise ConfigError(f"declared d_sr = {d_sr} is not an integer in 1..{top}, the "
                          f"d_sr_decodable of C1 distance {d1} and C2 distance {d2}")
    radius = (int(d_sr) - 1) // 2
    if dec1.radius < radius:
        raise ConfigError(f"C1 decoder radius {dec1.radius} < {radius}")
    if dec2.radius < (d2 - 1) // 2:
        raise ConfigError(f"C2 decoder radius {dec2.radius} < {(d2 - 1) // 2}")
    if dec1.code.n != code.n or dec2.code.n != code.n:
        raise ConfigError("decoder/code length mismatch")
    return radius


def sr_decode(code, dec1, dec2, received, d_sr=None):
    """Bounded-distance decoding of a received SrWord.

    Guaranteed exact for every error of sum-rank weight up to
    floor((d_sr - 1) / 2); d_sr defaults to code.d_sr_decodable, and a
    larger one is a ConfigError.  Outside the radius it returns a typed
    failure or, if two verified candidates tie, the ambiguous state -
    never a guess.  A beta-branch whose input is within dec2.radius of an
    earlier branch's candidate is recorded as that candidate without
    calling dec2, which must therefore be complete up to its radius; the
    result is the one decoding every branch would give.
    """
    radius = _check_config(code, dec1, dec2, d_sr)
    y0, y1 = received
    if len(y1) != len(y0):
        raise RangeError(f"received word has coefficient vectors of lengths "
                         f"{len(y0)} and {len(y1)}")
    if len(y0) != code.n:
        raise ConfigError(f"received length {len(y0)} != {code.n}")
    if not isinstance(y0, bytes):  # _sr_decode reads it as an integer
        received = SrWord(vec_checked(y0, 4), y1)
    return _sr_decode(dec1, dec2, received, radius)


def _sr_decode(dec1, dec2, received, radius):
    """The body of sr_decode, for a configuration that has been checked."""
    y0, y1 = received
    c1, e1, _, _ = dec1.decode(y1)
    if c1 is None:
        return _C1_FAILED

    # Words are big-endian integers, one byte per GF(4) symbol, so a branch
    # input y0 + beta*e1 and a candidate's e0 = y0 + c2 are single XORs, and
    # a support keeps bit 0 of each byte: wt_sr = 2|s0| + 2|s1| - 3|s0 & s1|.
    n = len(y0)
    ones = _ONES.get(n) or _ONES.setdefault(n, (1 << 8 * n) // 255)
    iy0 = int.from_bytes(y0, "big")
    ie1 = int.from_bytes(e1, "big")
    s1 = (ie1 | ie1 >> 1) & ones
    w1 = 2 * s1.bit_count()
    considered = []
    candidates = []  # (w, c2 as an integer)
    for beta in (1, 2, 3):
        scaled = ie1 if beta == 1 else int.from_bytes(e1.translate(SCALE4[beta]), "big")
        ix = iy0 ^ scaled
        # An input within dec2.radius of an earlier candidate decodes to it
        # (d2 > 2 * dec2.radius makes it the only codeword there), and that
        # candidate's weight already failed the radius: settle the branch.
        settled = False
        for _, ic in candidates:
            d = ix ^ ic
            settled |= ((d | d >> 1) & ones).bit_count() <= dec2.radius
        if settled:
            considered.append((beta, "candidate"))
            continue
        c2, _, status, _ = dec2.decode(ix.to_bytes(n, "big"))
        if c2 is None:
            considered.append((beta, status))
            continue
        ic2 = int.from_bytes(c2, "big")
        ie0 = iy0 ^ ic2
        s0 = (ie0 | ie0 >> 1) & ones
        w = w1 + 2 * s0.bit_count() - 3 * (s0 & s1).bit_count()
        considered.append((beta, "candidate"))
        if w <= radius:
            # unique nearest codeword inside the radius: stop scanning
            return _new(SrDecodeResult, (STATUS_SUCCESS, _new(SrWord, (c2, c1)),
                                         _new(SrWord, (ie0.to_bytes(n, "big"), e1)), beta,
                                         tuple(considered), 1, len(considered)))
        candidates.append((w, ic2))

    status = STATUS_ALL_BRANCHES_FAILED
    if candidates:
        wmin = min(w for w, _ in candidates)
        if len({ic for w, ic in candidates if w == wmin}) > 1:
            status = STATUS_AMBIGUOUS
    return _new(SrDecodeResult, (status, None, None, None, tuple(considered), 1, len(considered)))


def sr_oracle_decode(code, received, budget=DEFAULT_BUDGET):
    """Exhaustive nearest codeword in the sum-rank metric.

    Ties for the minimum distance come back as the ambiguous state.
    """
    _, tie, codeword = sr_sweep(code, received, budget)
    if tie:
        return SrDecodeResult(STATUS_AMBIGUOUS)
    return SrDecodeResult(STATUS_SUCCESS, codeword=codeword, error=received + codeword)


# ----------------------------------------------------------------------
# error channel
# ----------------------------------------------------------------------

@lru_cache(maxsize=1024)
def error_profiles(length, w):
    """The tuple of nonnegative (i1, i2, i3) with 2 i1 + 2 i2 + i3 = w, i1+i2+i3 <= length."""
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
    import numpy as np

    e0, e1 = _draw_error(length, w, np.random.default_rng(rng))  # a Generator comes back unchanged
    return SrWord(bytes(e0), bytes(e1))


def _draw_error(length, w, rng):
    """sample_error's two error vectors, as bytearrays, drawn from the Generator rng."""
    e0, e1 = bytearray(length), bytearray(length)
    if w == 0:
        return e0, e1
    profiles = error_profiles(length, w)  # cached: simulate asks per trial
    i1, i2, i3 = profiles[rng.integers(len(profiles))]
    positions = rng.choice(length, size=i1 + i2 + i3, replace=False).tolist()
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
    return e0, e1


def min_branch_weight(e0, e1):
    """min over beta of wt_H(beta*e0 + beta^2*e1); the pigeonhole quantity."""
    return min(len(e0) - evaluate_word(SrWord(e0, e1), beta).count(0) for beta in (1, 2, 3))


# ----------------------------------------------------------------------
# channel simulation
# ----------------------------------------------------------------------

def _is_count(value):
    # numpy registers its integer types as Integral
    return isinstance(value, numbers.Integral) and value >= 0


def simulate(code, dec1, dec2, weights, trials, seed=0, d_sr=None, jobs=1):
    """Monte Carlo channel runs; returns one tally row per weight.

    Per-trial generators are seeded counter-style from (seed, weight, trial)
    so the tallies depend only on the seed.  The configuration is checked
    once per call, and so are the weights (integers in 0..2n), trials and
    seed (non-negative integers): RangeError before any trial runs.  Trials
    run in this process; jobs is deprecated and has no effect, and any value
    but 1 warns.
    """
    if jobs != 1:
        warnings.warn("simulate(jobs=...) is deprecated and ignored; trials run serially",
                      DeprecationWarning, stacklevel=2)
    for name, value in (("trials", trials), ("seed", seed)):
        if not _is_count(value):
            raise RangeError(f"{name} = {value!r} is not a non-negative integer")
    weights = list(weights)
    for w in weights:
        if not _is_count(w) or w > 2 * code.n:
            raise RangeError(f"weight {w!r} is not an integer in 0..{2 * code.n}")
    radius = _check_config(code, dec1, dec2, d_sr)
    import numpy as np

    rows = []
    for w in weights:
        success = failure = ambiguous = miscorrections = dec1_max = dec2_max = 0
        total_us = 0.0
        for t in range(trials):
            rng = np.random.default_rng((seed, w, t))
            bits = rng.integers(0, 2, size=code.f2_dimension)  # int64: uint8 draws another stream
            sent = code.encode(bits.astype(np.uint8).tobytes())
            e0, e1 = _draw_error(code.n, w, rng)
            received = (vec_xor(sent[0], e0), vec_xor(sent[1], e1))
            t0 = time.perf_counter()
            res = _sr_decode(dec1, dec2, received, radius)
            total_us += (time.perf_counter() - t0) * 1e6
            dec1_max = max(dec1_max, res.dec1_calls)
            dec2_max = max(dec2_max, res.dec2_calls)
            if res.ok and res.codeword == sent:
                success += 1
            elif res.status == STATUS_AMBIGUOUS:
                ambiguous += 1
            else:
                failure += 1
                if res.ok:
                    miscorrections += 1
        rows.append({"weight": w, "trials": trials, "success": success, "failure": failure,
                     "ambiguous": ambiguous, "miscorrections": miscorrections,
                     "mean_decode_micros": total_us / max(trials, 1),
                     "dec1_calls_max": dec1_max, "dec2_calls_max": dec2_max})
    return rows
