"""Acceptance suite: one test per release criterion.

Each test prints a PASS line once its criterion holds, so a verbose run
doubles as the acceptance report.  Stated time budgets are enforced.
"""

import itertools
import time

import numpy as np

from srcodes.gf2m import GF2, GF4, build_field
from srcodes.codes import (
    DefiningSet,
    LinearCode,
    bch_build,
    find_irreducible,
    goppa_build,
    min_distance_bruteforce,
)
from srcodes.hamdec import BchDecoder, GoppaDecoder, OracleDecoder
from srcodes.sumrank import (
    PAIR_RANK,
    SrWord,
    decodable_gv_rate,
    entropy_q,
    gv_rate,
    sr_construct,
    sr_min_distance_bruteforce,
    sr_zero,
    sumrank_weight,
    sumrank_weight_formula,
)
from srcodes.srdec import simulate, sr_decode, sr_oracle_decode
from srcodes.cli import compute_block15_table, packaged_code, reference_tables


def _report(num, ok, text):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_block25_exact_distance():
    t0 = time.time()
    c1 = bch_build(25, DefiningSet(25, range(1, 25)))
    c2 = bch_build(25, DefiningSet.from_cosets(25, [0, 1, 2, 5]))
    assert (c1.k, c1.d_designed) == (1, 25)
    assert (c2.k, c2.d_designed) == (2, 20)
    code = sr_construct(c1, c2)
    d, witness = sr_min_distance_bruteforce(code)
    elapsed = time.time() - t0
    ok = code.f2_dimension == 2 * 3 and d == 30 and \
        sumrank_weight(witness) == 30 and elapsed < 1.0
    _report(1, ok, f"block-25 pair: dim 6, certified d_sr = {d} ({elapsed:.2f}s)")


def test_criterion_02_block63_dimensions():
    t0 = time.time()
    T2 = DefiningSet.from_cosets(63, [0, 1, 2, 3, 5])
    T1 = DefiningSet.from_cosets(63, [0, 1, 2, 3, 5, 6, 7, 9, 10, 11])
    assert len(T2) == 13 and len(T1) == 28
    c2 = bch_build(63, T2)
    c1 = bch_build(63, T1)
    code = sr_construct(c1, c2)
    elapsed = time.time() - t0
    ok = (c2.k, c1.k) == (50, 35) and code.f2_dimension == 2 * 85 and elapsed < 1.0
    _report(2, ok, f"block-63 pair: k = (50, 35), dim {code.f2_dimension} ({elapsed:.2f}s)")


def test_criterion_03_block15_tables():
    t0 = time.time()
    ref = reference_tables()
    got1 = compute_block15_table(lambda d: (d + 1) // 2)
    got3 = compute_block15_table(lambda d: (2 * d + 2) // 3)
    rows_ok = 0
    for (d, dim, cap), row in zip(got1, ref["table1"]):
        assert d == row["d_sr"]
        if dim == 2 * row["dim_half"] and cap == 2 * (31 - d) == 2 * row["singleton_half"]:
            rows_ok += 1
    for (d, dim, cap), row in zip(got3, ref["table3"]):
        if dim == 2 * row["dim_half"] and cap == 2 * (31 - d) == 2 * row["singleton_half"]:
            rows_ok += 1
    elapsed = time.time() - t0
    ok = rows_ok == 24 and elapsed < 10.0
    _report(3, ok, f"defining-set search reproduces {rows_ok}/24 table rows ({elapsed:.2f}s)")


def test_criterion_04_weight_formula_equivalence():
    t0 = time.time()
    checked = 0
    # exhaustive over all pairs of words at lengths 1 and 2 (256 + 65536
    # distances); the weight case is the pairs with v = 0
    for n in (1, 2):
        words = [SrWord(bytes(x), bytes(y))
                 for x in itertools.product(range(4), repeat=n)
                 for y in itertools.product(range(4), repeat=n)]
        for u in words:
            for v in words:
                diff = u + v
                if sumrank_weight(diff) != sumrank_weight_formula(diff.coeff_x2,
                                                                  diff.coeff_x):
                    _report(4, False, f"mismatch at {u}, {v}")
                checked += 1
    # 1e5 random cases at length 64, rank side via the per-block rank table
    rng = np.random.default_rng(2024)
    rank_tab = np.array(PAIR_RANK, dtype=np.int64)
    a1 = rng.integers(0, 4, size=(100_000, 64)).astype(np.uint8)
    a2 = rng.integers(0, 4, size=(100_000, 64)).astype(np.uint8)
    rank_w = rank_tab[(a2.astype(np.int64) << 2) | a1].sum(axis=1)
    nz1 = a1 != 0
    nz2 = a2 != 0
    formula_w = (2 * nz1.sum(1) + 2 * nz2.sum(1) - 3 * (nz1 & nz2).sum(1))
    agree = int((rank_w == formula_w).sum())
    checked += agree
    elapsed = time.time() - t0
    ok = agree == 100_000 and checked == 65_792 + 100_000 and elapsed < 5.0
    _report(4, ok, f"closed form = matrix rank in {checked} cases ({elapsed:.2f}s)")


def test_criterion_05_reduction_decoder_exhaustive():
    t0 = time.time()
    c1 = bch_build(15, (1, 6))                                   # [15,8,6]
    c2 = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))   # [15,10,4]
    code = sr_construct(c1, c2)
    assert code.decoder_ready_for(6)
    dec1, dec2 = BchDecoder(c1), BchDecoder(c2)

    errors = [sr_zero(15)]
    for i in range(15):                      # profiles (0,0,1), (1,0,0), (0,1,0)
        for v0 in (1, 2, 3):
            for v1 in (1, 2, 3):
                e0 = bytearray(15); e1 = bytearray(15)
                e0[i] = v0; e1[i] = v1
                errors.append(SrWord(bytes(e0), bytes(e1)))
        for v in (1, 2, 3):
            e0 = bytearray(15); e0[i] = v
            errors.append(SrWord(bytes(e0), bytes(15)))
            e1 = bytearray(15); e1[i] = v
            errors.append(SrWord(bytes(15), bytes(e1)))
    for i, j in itertools.combinations(range(15), 2):   # profile (0,0,2)
        for vs in itertools.product((1, 2, 3), repeat=4):
            e0 = bytearray(15); e1 = bytearray(15)
            e0[i], e1[i], e0[j], e1[j] = vs
            errors.append(SrWord(bytes(e0), bytes(e1)))
    assert len(errors) == 1 + 15 * 9 + 2 * 15 * 3 + 105 * 81

    rng = np.random.default_rng(7)
    decoded = miscorrections = 0
    for _ in range(100):
        bits = [int(b) for b in rng.integers(0, 2, size=code.f2_dimension)]
        sent = code.encode(bits)
        for err in errors:
            res = sr_decode(code, dec1, dec2, sent + err, 6)
            if res.ok and res.codeword == sent and res.error == err:
                decoded += 1
            elif res.ok:
                miscorrections += 1
    elapsed = time.time() - t0
    total = 100 * len(errors)
    ok = decoded == total and miscorrections == 0 and elapsed < 60.0
    _report(5, ok, f"{decoded}/{total} exact recoveries, "
                   f"{miscorrections} miscorrections ({elapsed:.1f}s)")


def test_criterion_06_oracle_equivalence_tiny():
    t0 = time.time()
    rep4 = LinearCode(GF4, [bytes([1, 1, 1, 1])], d_lower=4, d_tag="declared")
    mds = LinearCode(GF4, [bytes([1, 0, 1, 1]), bytes([0, 1, 1, 2])],
                     d_lower=3, d_tag="declared")
    assert min_distance_bruteforce(mds)[0] == 3
    code = sr_construct(rep4, mds)
    assert code.f2_dimension <= 12 and code.n <= 6
    dec1 = OracleDecoder(rep4, radius=1)
    dec2 = OracleDecoder(mds, radius=1)
    errors = [sr_zero(4)]
    for i in range(4):
        for v0 in (1, 2, 3):
            for v1 in (1, 2, 3):
                e0 = bytearray(4); e1 = bytearray(4)
                e0[i] = v0; e1[i] = v1
                errors.append(SrWord(bytes(e0), bytes(e1)))
    agreed = total = 0
    for bits in itertools.product((0, 1), repeat=code.f2_dimension):
        sent = code.encode(list(bits))
        for err in errors:
            rec = sent + err
            r1 = sr_decode(code, dec1, dec2, rec, 4)
            r2 = sr_oracle_decode(code, rec)
            total += 1
            if r1.ok and r2.ok and r1.codeword == r2.codeword == sent:
                agreed += 1
    elapsed = time.time() - t0
    ok = agreed == total and elapsed < 60.0
    _report(6, ok, f"reduction = oracle on {agreed}/{total} words in radius ({elapsed:.1f}s)")


def test_criterion_07_component_decoder_soundness():
    t0 = time.time()
    # BCH [15,8,6]: every weight <= 2 pattern around 50 random codewords
    code = bch_build(15, (1, 6))
    dec = BchDecoder(code)
    patterns = []
    for i in range(15):
        for v in (1, 2, 3):
            e = bytearray(15); e[i] = v
            patterns.append(bytes(e))
    for i, j in itertools.combinations(range(15), 2):
        for v1, v2 in itertools.product((1, 2, 3), repeat=2):
            e = bytearray(15); e[i] = v1; e[j] = v2
            patterns.append(bytes(e))
    assert len(patterns) == 990
    rng = np.random.default_rng(11)
    bch_ok = 0
    for _ in range(50):
        msg = [int(x) for x in rng.integers(0, 4, size=code.k)]
        cw = code.encode(msg)
        cw_int = int.from_bytes(cw, "big")
        for e in patterns:
            rec = (cw_int ^ int.from_bytes(e, "big")).to_bytes(15, "big")
            res = dec.decode(rec)
            if res.ok and res.codeword == cw and res.error == e:
                bch_ok += 1

    # binary Goppa [32, >=17, >=7]: exhaustive weight <= 2, 1e4 random weight 3
    F = build_field(5)
    gcode = goppa_build(F, list(F.elements()), find_irreducible(F, 3, seed=1),
                        base=GF2)
    assert gcode.k >= 17 and gcode.d_designed >= 7
    gdec = GoppaDecoder(gcode)
    goppa_ok = goppa_total = 0
    msg = [int(x) for x in rng.integers(0, 2, size=gcode.k)]
    cw = gcode.encode(msg)
    singles = [(i,) for i in range(32)]
    doubles = list(itertools.combinations(range(32), 2))
    for pos in singles + doubles:
        e = bytearray(32)
        for p in pos:
            e[p] = 1
        rec = bytes(a ^ b for a, b in zip(cw, e))
        res = gdec.decode(rec)
        goppa_total += 1
        if res.ok and res.codeword == cw and res.error == bytes(e):
            goppa_ok += 1
    for _ in range(10_000):
        msg = [int(x) for x in rng.integers(0, 2, size=gcode.k)]
        cw = gcode.encode(msg)
        pos = rng.choice(32, size=3, replace=False)
        e = bytearray(32)
        for p in pos:
            e[p] = 1
        rec = bytes(a ^ b for a, b in zip(cw, e))
        res = gdec.decode(rec)
        goppa_total += 1
        if res.ok and res.codeword == cw and res.error == bytes(e):
            goppa_ok += 1
    elapsed = time.time() - t0
    ok = bch_ok == 50 * 990 and goppa_ok == goppa_total and elapsed < 30.0
    _report(7, ok, f"BCH {bch_ok}/{50 * 990}, Goppa {goppa_ok}/{goppa_total} "
                   f"exact ({elapsed:.1f}s)")


def test_criterion_08_cost_contract_and_quadratic_scaling():
    # at most one C1 decode and three C2 decodes per call, over a full sweep
    c1 = bch_build(15, (1, 6))
    c2 = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))
    code = sr_construct(c1, c2)
    rows = simulate(code, BchDecoder(c1), BchDecoder(c2),
                    weights=[0, 1, 2, 3, 4, 6], trials=60, seed=17)
    calls_ok = all(r["dec1_calls_max"] == 1 and r["dec2_calls_max"] <= 3
                   for r in rows)

    # decode wall time against c * l^2 across a fixed-rate family; best-of
    # timing with the collector paused keeps scheduling noise out, and each
    # pass times the three lengths back to back, so that a slow spell of
    # the machine cannot fall on one length alone
    import gc

    def cases(n, delta, reps):
        code = bch_build(n, (1, delta))
        dec = BchDecoder(code)
        t = dec.radius
        rng = np.random.default_rng(n)
        words = []
        for _ in range(reps):
            msg = [int(x) for x in rng.integers(0, 4, size=code.k)]
            cw = code.encode(msg)
            e = bytearray(n)
            for p in rng.choice(n, size=t, replace=False):
                e[p] = int(rng.integers(1, 4))
            words.append(bytes(a ^ b for a, b in zip(cw, e)))
        for rec in words:
            assert dec.decode(rec).ok
        return n, dec, words

    family = [cases(n, delta, reps) for n, delta, reps in ((15, 8, 60), (63, 32, 30),
                                                           (255, 128, 12))]
    best = [None] * len(family)
    gc.collect()
    gc.disable()
    try:
        for _ in range(9):
            for k, (n, dec, words) in enumerate(family):
                start = time.perf_counter()
                for rec in words:
                    dec.decode(rec)
                dt = (time.perf_counter() - start) / len(words)
                best[k] = dt if best[k] is None else min(best[k], dt)
    finally:
        gc.enable()
    consts = [b / n ** 2 for b, (n, _, _) in zip(best, family)]
    spread = max(consts) / min(consts)
    ok = calls_ok and spread <= 3.0
    _report(8, ok, f"1 + <=3 component decodes per call; "
                   f"time/l^2 spread {spread:.2f} <= 3")


def _count_opcodes(path, fn, *args):
    """The bytecodes run in frames of the source file `path` during fn(*args)."""
    import sys
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename != path:
            return None
        frame.f_trace_opcodes = True
        return local

    saved = sys.gettrace()
    sys.settrace(calls)
    try:
        fn(*args)
    finally:
        sys.settrace(saved)
    return count


def test_decode_opcodes_per_l2_are_flat():
    """Criterion 08's O(l^2) contract in bytecodes rather than seconds.

    The words are criterion 08's: per (n, delta, reps), reps codewords of
    the narrow-sense BCH code, each with radius errors, drawn from
    default_rng(n).  sys.settrace with f_trace_opcodes counts the bytecodes
    run in hamdec.py frames during each BchDecoder.decode; the median count
    per word over n^2 may spread by at most 1.5x across n = 15, 63, 255.

    Only Python bytecodes are counted: a call into C (a slice, a dict
    lookup, a numpy call) is one opcode whatever its size.  Counts differ
    between Python versions, so only their ratio is checked.  Before the
    shrinking root scan the medians were 18.0, 16.3 and 16.0 per l^2
    (spread 1.13, Python 3.11).  A decode that adds an empty loop of
    n*n*(n // 8) iterations gives 5.1, though criterion 08's wall-clock
    spread lets such a loop pass; a root scan that evaluates each position
    deg(sigma) times gives 13.9.
    """
    import statistics
    from srcodes import hamdec

    per_l2 = []
    for n, delta, reps in ((15, 8, 60), (63, 32, 30), (255, 128, 12)):
        code = bch_build(n, (1, delta))
        dec = BchDecoder(code)
        rng = np.random.default_rng(n)
        counts = []
        for _ in range(reps):
            msg = [int(x) for x in rng.integers(0, 4, size=code.k)]
            cw = code.encode(msg)
            e = bytearray(n)
            for p in rng.choice(n, size=dec.radius, replace=False):
                e[p] = int(rng.integers(1, 4))
            rec = bytes(a ^ b for a, b in zip(cw, e))
            assert dec.decode(rec).codeword == cw
            counts.append(_count_opcodes(hamdec.__file__, dec.decode, rec))
        per_l2.append(statistics.median(counts) / n ** 2)
    spread = max(per_l2) / min(per_l2)
    assert spread <= 1.5, f"opcodes/l^2 {[round(c, 1) for c in per_l2]}, spread {spread:.2f}"


def test_criterion_09_bound_functions():
    t0 = time.time()
    ok = entropy_q(4, 0) == 0.0
    ok = ok and abs(entropy_q(4, 0.75) - 1.0) <= 1e-12
    grid = [i / 4001 for i in range(1, 1001)]
    prev_g = prev_d = float("inf")
    for x in grid:
        g, d = gv_rate(x), decodable_gv_rate(x)
        ok = ok and g >= d and g < prev_g and d < prev_d
        prev_g, prev_d = g, d
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    _report(9, ok, f"entropy anchors exact, rate bounds ordered and strictly "
                   f"decreasing on 1000 points ({elapsed:.2f}s)")


def test_criterion_10_additive_pair_dimension():
    add = packaged_code("additive_12_f2dim7_d8.code")
    assert add.f2_dimension == 7
    d, _ = min_distance_bruteforce(add)          # 2^7 codewords
    lin = packaged_code("linear_12_8_4.code")
    assert (lin.n, lin.k) == (12, 8)
    d_lin, _ = min_distance_bruteforce(lin)
    code = sr_construct(add, lin)
    ok = d == 8 and d_lin == 4 and code.f2_dimension == 23 and code.d_sr_lower == 8
    _report(10, ok, f"additive (12, 4^3.5, 8) + linear [12,8,4]: "
                    f"dim {code.f2_dimension}, d_sr >= {code.d_sr_lower}")
