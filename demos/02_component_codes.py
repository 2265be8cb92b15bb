#!/usr/bin/env python3
"""Building the quaternary component codes: BCH, Goppa, additive.

Every sum-rank code in this package is assembled from a pair of these.
"""

from srcodes import (
    GF2,
    GF4,
    DefiningSet,
    bch_build,
    best_bch_dimension,
    build_field,
    cyclotomic_coset,
    find_irreducible,
    goppa_build,
    min_distance_bruteforce,
)
from srcodes.cli import packaged_code

print("== cyclotomic cosets mod 63 (base 4) ==")
for s in (0, 1, 2, 5, 21):
    print(f"C_{s} =", cyclotomic_coset(s, 4, 63))

print()
print("== a classic pair of length-63 BCH codes ==")
c2 = bch_build(63, DefiningSet.from_cosets(63, [0, 1, 2, 3, 5]))
c1 = bch_build(63, DefiningSet.from_cosets(63, [0, 1, 2, 3, 5, 6, 7, 9, 10, 11]))
print("x   slot:", c2, " (13 roots removed -> k = 50)")
print("x^2 slot:", c1, " (28 roots removed -> k = 35)")

print()
print("== certified distances where enumeration is feasible ==")
c86 = bch_build(15, (1, 6))
d, witness = min_distance_bruteforce(c86)
print(c86, "-> exhaustive minimum distance", d)
print("witness codeword:", list(witness))

print()
print("== best dimension for each designed distance at length 15 ==")
for delta in range(2, 16):
    k, T = best_bch_dimension(15, delta)
    print(f"delta >= {delta:2d}: k = {k:2d}  (|T| = {len(T)})")

print()
print("== binary and quaternary Goppa codes ==")
F32 = build_field(5)
G = find_irreducible(F32, 3, seed=1)
bg = goppa_build(F32, list(F32.elements()), G, base=GF2)
print("binary:   ", bg, "- squarefree polynomial doubles the distance bound")
F64 = build_field(6)
qg = goppa_build(F64, list(F64.elements()), find_irreducible(F64, 2, seed=2), base=GF4)
print("quaternary:", qg)

print()
print("== an additive code beats the best linear one ==")
add = packaged_code("additive_12_f2dim7_d8.code")
d, _ = min_distance_bruteforce(add)
print(add, "-> certified distance", d)
print("a linear [12,k,8] code tops out at k = 3 (F2 dimension 6);")
print("the additive one packs F2 dimension", add.f2_dimension, "at the same distance")
