#!/usr/bin/env python3
"""Monte Carlo error channel: success tallies across sum-rank weights.

Inside the guaranteed radius the decoder never fails; past it, failures
are typed (no silent wrong answers) and the rates are reported as-is.
"""

from srcodes import BchDecoder, DefiningSet, bch_build, simulate, sr_construct

c1 = bch_build(15, (1, 6))
c2 = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))
code = sr_construct(c1, c2)
radius = (code.d_sr_decodable - 1) // 2
print(f"{code}; guaranteed radius {radius}")
print()

rows = simulate(code, BchDecoder(c1), BchDecoder(c2),
                weights=list(range(0, 7)), trials=400, seed=2)
print("weight  trials  success  failure  ambiguous  mean_us")
for r in rows:
    mark = "  <- guaranteed" if r["weight"] <= radius else ""
    print(f"{r['weight']:6d}  {r['trials']:6d}  {r['success']:7d}  "
          f"{r['failure']:7d}  {r['ambiguous']:9d}  {r['mean_decode_micros']:7.1f}{mark}")

print()
print("every weight <= radius row is all-success by the decoder guarantee;")
print("beyond the radius the channel may outrun any bounded-distance decoder.")
