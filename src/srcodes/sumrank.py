"""The sum-rank layer for 2x2 binary matrix blocks.

A word is a length-l vector of 2x2 matrices over GF(2), stored in
linearized-polynomial form as the pair of GF(4) coefficient vectors of x
and x^2.  Each block (a0, a1) acts on GF(4) as x -> a0*x + a1*x^2, a
GF(2)-linear map whose matrix is taken in the basis (1, w).

Pairing two quaternary codes C1 (the x^2 slot) and C2 (the x slot) gives a
binary linear sum-rank-metric code of GF(2)-dimension 2(k1 + k2) whose
per-word weight has the closed form

    wt_sr = 2 wt_H(a1) + 2 wt_H(a2) - 3 |supp(a1) & supp(a2)|.

This module also carries the Hamming-metric embeddings, the Singleton-like
bound and the entropy-based rate bounds.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, ConstructionError, RangeError
from .gf2m import GF4, vec_xor
from .codes import DEFAULT_BUDGET, iter_codeword_chunks


# ----------------------------------------------------------------------
# blocks: q-polynomial pairs <-> 2x2 binary matrices
# ----------------------------------------------------------------------
# Mat2 is a 4-bit integer: bit 0 = M[0][0], bit 1 = M[0][1],
# bit 2 = M[1][0], bit 3 = M[1][1]; columns are the images of 1 and w.

def lin_to_matrix(a0, a1):
    """Matrix of x -> a0*x + a1*x^2 in the basis (1, w)."""
    col1 = a0 ^ a1                                   # image of 1
    col2 = GF4.mul(a0, 2) ^ GF4.mul(a1, 3)           # image of w
    return (col1 & 1) | (col2 & 1) << 1 | (col1 >> 1) << 2 | (col2 >> 1) << 3


def mat2_rank(m):
    if m == 0:
        return 0
    det = (m & 1) * (m >> 3 & 1) ^ (m >> 1 & 1) * (m >> 2 & 1)
    return 2 if det else 1


_MAT_OF_PAIR = tuple(lin_to_matrix(a0, a1) for a0 in range(4) for a1 in range(4))
_PAIR_OF_MAT = {m: (i >> 2, i & 3) for i, m in enumerate(_MAT_OF_PAIR)}
assert len(_PAIR_OF_MAT) == 16, "block map must be a bijection"
PAIR_RANK = tuple(mat2_rank(m) for m in _MAT_OF_PAIR)


def matrix_to_lin(m):
    """Inverse of lin_to_matrix; defined for every 4-bit matrix."""
    return _PAIR_OF_MAT[m]


# translation table: nonzero symbol -> 1 (for support arithmetic on bytes)
_NONZERO = bytes(1 if v else 0 for v in range(256))


class SrWord(NamedTuple):
    """A sum-rank word: GF(4) coefficient vectors of x and x^2."""

    coeff_x: bytes
    coeff_x2: bytes

    @property
    def length(self):
        return len(self.coeff_x)

    def to_matrices(self):
        return tuple(_MAT_OF_PAIR[a0 << 2 | a1]
                     for a0, a1 in zip(self.coeff_x, self.coeff_x2))

    def __add__(self, other):
        return SrWord(vec_xor(self.coeff_x, other.coeff_x),
                      vec_xor(self.coeff_x2, other.coeff_x2))


def sr_zero(length):
    return SrWord(bytes(length), bytes(length))


def from_matrices(mats):
    pairs = [matrix_to_lin(m) for m in mats]
    return SrWord(bytes(p[0] for p in pairs), bytes(p[1] for p in pairs))


def sumrank_weight(word):
    """Sum of the per-block matrix ranks."""
    return sum(mat2_rank(m) for m in word.to_matrices())


def sumrank_weight_formula(a1, a2):
    """Closed-form weight of the word with x^2 vector a1 and x vector a2."""
    if len(a1) != len(a2):
        raise RangeError("coefficient vectors of unequal length")
    s1 = int.from_bytes(a1.translate(_NONZERO), "big")
    s2 = int.from_bytes(a2.translate(_NONZERO), "big")
    overlap = (s1 & s2).bit_count()
    return 2 * (len(a1) - a1.count(0)) + 2 * (len(a2) - a2.count(0)) - 3 * overlap


def sr_distance(u, v):
    return sumrank_weight_formula(vec_xor(u.coeff_x2, v.coeff_x2),
                                  vec_xor(u.coeff_x, v.coeff_x))


# ----------------------------------------------------------------------
# the SR(C1, C2) construction
# ----------------------------------------------------------------------

def _check_component(code, name):
    if code.base_field.order != 4:
        raise ConstructionError(f"{name} must be a quaternary code "
                                "(wrap binary codes as additive ones)")


class SumRankCode:
    """The pair (C1, C2) with its derived dimension and distance bounds.

    C1 supplies the x^2 coefficients, C2 the x coefficients.  A zero
    component (dimension 0) is allowed; its distance counts as infinite in
    the bound.
    """

    def __init__(self, c1, c2):
        _check_component(c1, "C1")
        _check_component(c2, "C2")
        if c1.n != c2.n:
            raise ConstructionError(f"component lengths differ: {c1.n} != {c2.n}")
        self.c1 = c1
        self.c2 = c2
        self.n = c1.n
        self.f2_dimension = c1.f2_dimension + c2.f2_dimension
        self.d_sr_exact = None

    @property
    def d_sr_lower(self):
        d1 = self.c1.d_lower
        d2 = self.c2.d_lower
        if d1 is None and d2 is None:
            return None
        d1 = math.inf if d1 is None else d1
        d2 = math.inf if d2 is None else d2
        return max(min(d1, 2 * d2), min(d2, 2 * d1))

    @property
    def d_sr(self):
        return self.d_sr_exact if self.d_sr_exact is not None else self.d_sr_lower

    def decoder_ready_for(self, d_sr):
        """The reduction decoder's hypotheses against a target distance."""
        d1 = self.c1.d_lower or 0
        d2 = self.c2.d_lower or 0
        return d1 >= d_sr and 3 * d2 >= 2 * d_sr

    @property
    def decoder_ready(self):
        d = self.d_sr_lower
        return d is not None and d != math.inf and self.decoder_ready_for(d)

    def split_message(self, bits):
        """The C1 and C2 parts of a message; the components check the bits."""
        bits = list(bits)
        if len(bits) != self.f2_dimension:
            raise RangeError(
                f"message length {len(bits)} != F2 dimension {self.f2_dimension}")
        cut = self.c1.f2_dimension
        return bits[:cut], bits[cut:]

    def encode(self, bits):
        b1, b2 = self.split_message(bits)
        return SrWord(self.c2.encode_f2(b2), self.c1.encode_f2(b1))

    def contains(self, word):
        return (self.c1.contains(word.coeff_x2)
                and self.c2.contains(word.coeff_x))

    def size(self):
        return 1 << self.f2_dimension

    def __repr__(self):
        d = self.d_sr_exact if self.d_sr_exact is not None else self.d_sr_lower
        return (f"SR(l={self.n}, dim_F2={self.f2_dimension}, "
                f"d_sr{'=' if self.d_sr_exact is not None else '>='}{d})")


def sr_construct(c1, c2):
    """Build SR(C1, C2); C1 feeds the x^2 slot, C2 the x slot."""
    return SumRankCode(c1, c2)


def sr_sweep(code, received, budget, exclude_zero=False):
    """Nearest codeword to received in the sum-rank metric, by enumeration.

    Visits the C1 words one at a time and takes the closed-form weight
    against every C2 word at once; the first minimum in that order is the
    witness.  exclude_zero drops the all-zero pair.  Returns (distance,
    tie, witness SrWord), with tie set when the minimum is not unique.
    """
    if 1 << code.f2_dimension > budget:
        raise BudgetError(
            f"2^{code.f2_dimension} codewords exceed the budget {budget}")
    r1 = np.frombuffer(received.coeff_x2, dtype=np.uint8)
    r2 = np.frombuffer(received.coeff_x, dtype=np.uint8)
    c2_chunks = []
    for w2, holds_zero2 in iter_codeword_chunks(code.c2):
        nz2 = w2 != r2
        c2_chunks.append((w2, nz2, 2 * np.count_nonzero(nz2, axis=1), holds_zero2))
    best, tie, witness = None, False, None
    for w1, holds_zero1 in iter_codeword_chunks(code.c1):
        nz1_rows = w1 != r1
        wt1_rows = 2 * np.count_nonzero(nz1_rows, axis=1)
        for j, nz1 in enumerate(nz1_rows):
            wt1 = int(wt1_rows[j])
            for w2, nz2, wt2, holds_zero2 in c2_chunks:
                w = wt1 + wt2 - 3 * np.count_nonzero(nz2 & nz1, axis=1)
                if exclude_zero and holds_zero1 and holds_zero2 and j == 0:
                    w[0] = 10 ** 9
                i = int(np.argmin(w))
                wi = int(w[i])
                if best is None or wi < best:
                    best, witness = wi, SrWord(bytes(w2[i]), bytes(w1[j]))
                    tie = int(np.count_nonzero(w == wi)) > 1
                elif wi == best:
                    tie = True
    return best, tie, witness


def sr_min_distance_bruteforce(code, budget=DEFAULT_BUDGET):
    """Certified minimum sum-rank distance by full enumeration.

    Walks all pairs (a1, a2) and evaluates the closed-form weight; returns
    (distance, witness SrWord) and caches d_sr_exact.
    """
    if code.f2_dimension == 0:
        raise ValueError("the zero code has no minimum distance")
    best, _, witness = sr_sweep(code, sr_zero(code.n), budget, exclude_zero=True)
    lower = code.d_sr_lower
    if lower is not None and lower != math.inf and best < lower:
        raise AssertionError("certified distance fell below the construction bound")
    code.d_sr_exact = best
    return best, witness


# ----------------------------------------------------------------------
# Hamming-metric embeddings
# ----------------------------------------------------------------------

class HammingEmbedding:
    """A quaternary Hamming-metric code viewed as a sum-rank code.

    pad:   block i carries coordinate i in its first matrix row, second row
           zero; weights transfer exactly, rate halves.
    group: consecutive coordinate pairs become the two matrix rows; the
           block length halves, rate is kept, distance at least halves.
    """

    def __init__(self, code, mode):
        if mode not in ("pad", "group"):
            raise RangeError(f"unknown embedding mode {mode!r}")
        if mode == "group" and code.n % 2:
            raise RangeError("group embedding needs an even length")
        self.code = code
        self.mode = mode
        self.block_length = code.n if mode == "pad" else code.n // 2
        self.f2_dimension = code.f2_dimension
        d = code.d_lower
        self.d_sr_lower = d if mode == "pad" else (d + 1) // 2 if d else d
        self.rate_sr = self.f2_dimension / (4 * self.block_length)

    def embed_word(self, codeword):
        mats = []
        if self.mode == "pad":
            for s in codeword:
                mats.append((s & 1) | (s >> 1) << 1)
        else:
            for i in range(0, len(codeword), 2):
                u, v = codeword[i], codeword[i + 1]
                mats.append((u & 1) | (u >> 1) << 1 | (v & 1) << 2 | (v >> 1) << 3)
        return from_matrices(mats)

    def encode(self, bits):
        return self.embed_word(self.code.encode_f2(bits))


def hamming_embed(code, mode):
    return HammingEmbedding(code, mode)


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def singleton_bound(length, d_sr):
    """Largest GF(2) dimension allowed at block length l and distance d_sr."""
    if not 1 <= d_sr <= 2 * length:
        raise RangeError(f"d_sr = {d_sr} outside [1, {2 * length}]")
    return 2 * (2 * length - d_sr + 1)


def entropy_q(q, x):
    """The q-ary entropy function on [0, 1 - 1/q]."""
    if q < 2:
        raise RangeError("alphabet size must be at least 2")
    if x < 0 or x > 1 - 1 / q + 1e-15:
        raise RangeError(f"entropy argument {x} outside [0, {1 - 1 / q}]")
    if x == 0:
        return 0.0
    lq = math.log(q)
    out = x * math.log(q - 1) / lq - x * math.log(x) / lq
    if x < 1:
        out -= (1 - x) * math.log(1 - x) / lq
    return out


def gv_rate(delta):
    """Achievable rate of the Goppa-based family at relative distance delta."""
    if not 0 <= delta < 0.25:
        raise RangeError(f"relative distance {delta} outside [0, 1/4)")
    if delta == 0:
        return 1.0
    return 1 - 0.5 * (entropy_q(4, delta) + entropy_q(4, 2 * delta))


def decodable_gv_rate(delta):
    """Rate of the family that also satisfies the decoder hypotheses."""
    if not 0 <= delta < 0.25:
        raise RangeError(f"relative distance {delta} outside [0, 1/4)")
    if delta == 0:
        return 1.0
    return 1 - 0.5 * (entropy_q(4, 4 * delta / 3) + entropy_q(4, 2 * delta))


class BoundReport(NamedTuple):
    length: int
    d_sr: int
    singleton_f2_dim: int
    gv_rate: float          # nan outside the (0, 1/4) domain
    decodable_gv_rate: float


def bound_report(length, d_sr):
    delta = d_sr / (2 * length)
    if 0 < delta < 0.25:
        g, dg = gv_rate(delta), decodable_gv_rate(delta)
    else:
        g = dg = float("nan")
    return BoundReport(length, d_sr, singleton_bound(length, d_sr), g, dg)
