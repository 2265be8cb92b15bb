#!/usr/bin/env python3
"""Decoding a sum-rank word by reduction to Hamming-metric decoding.

One decode of the x^2 slot pins down the high coefficient; evaluating the
leftover at 1, w, w^2 turns rank-1 blocks into erased positions for at
least one of the three twisted words, which a plain bounded-distance
decoder of the x-slot code then handles.
"""

import numpy as np

from srcodes import (
    BchDecoder,
    DefiningSet,
    SrWord,
    bch_build,
    sample_error,
    sr_construct,
    sr_decode,
    sumrank_weight,
)

c1 = bch_build(15, (1, 6))                                    # [15,8,6]
c2 = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))    # [15,10,4]
code = sr_construct(c1, c2)
dec1, dec2 = BchDecoder(c1), BchDecoder(c2)
print("code:", code)
print("component decoders correct", dec1.radius, "and", dec2.radius, "errors")
print("sum-rank decoding radius:", (code.d_sr_decodable - 1) // 2)

rng = np.random.default_rng(1)
bits = [int(b) for b in rng.integers(0, 2, size=code.f2_dimension)]
sent = code.encode(bits)

print()
print("== weight-2 errors of every shape decode exactly ==")
for seed in range(4):
    err = sample_error(15, 2, seed)
    res = sr_decode(code, dec1, dec2, sent + err)
    profile = [(a != 0, b != 0) for a, b in zip(err.coeff_x, err.coeff_x2) if a or b]
    print(f"error blocks {profile} -> {res.status}, branch {res.succeeded_branch},"
          f" recovered = {res.codeword == sent and res.error == err}")

print()
print("== the three-evaluation trick at block length 63 ==")
T1 = DefiningSet.from_cosets(63, [0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15, 21, 22])
T2 = DefiningSet.from_cosets(63, [0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14])
C1, C2 = bch_build(63, T1), bch_build(63, T2)
big = sr_construct(C1, C2)
D1, D2 = BchDecoder(C1), BchDecoder(C2)
print("pair:", C1, "+", C2, "-> radius", (big.d_sr_decodable - 1) // 2)

# eleven rank-1 blocks with overlapping supports: the x-slot error alone has
# weight 11, beyond the x-slot decoder's radius 7
e0 = bytearray(63)
e1 = bytearray(63)
cycle = [1, 3, 2]
for idx, pos in enumerate(range(0, 21, 2)):
    e0[pos] = 1
    e1[pos] = cycle[idx % 3]
err = SrWord(bytes(e0), bytes(e1))
print("sum-rank weight of the error:", sumrank_weight(err),
      " x-slot Hamming weight:", 63 - err.coeff_x.count(0))

bits = [int(b) for b in rng.integers(0, 2, size=big.f2_dimension)]
sent = big.encode(bits)
received = sent + err

direct = D2.decode(received.coeff_x)
print("decoding the x slot directly:", direct.status)
res = sr_decode(big, D1, D2, received)
print("reduction decoder:", res.status, "on branch", res.succeeded_branch,
      "-> exact recovery:", res.codeword == sent and res.error == err)
print("branch log:", res.candidates_considered)
print("cost: ", res.dec1_calls, "x^2-slot decode,", res.dec2_calls, "of 3 beta-branches")
