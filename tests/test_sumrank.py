import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srcodes.errors import BudgetError, ConfigError, ConstructionError, RangeError
from srcodes.gf2m import GF4
from srcodes.codes import (
    DefiningSet,
    LinearCode,
    additive_build,
    bch_build,
)
from srcodes.sumrank import (
    SrWord,
    decodable_gv_rate,
    entropy_q,
    goppa_pair_dimension,
    gv_rate,
    lin_to_matrix,
    mat2_rank,
    matrix_to_lin,
    singleton_bound,
    sr_construct,
    sr_min_distance_bruteforce,
    sr_zero,
    sumrank_weight,
    sumrank_weight_formula,
    sr_distance,
)
from srcodes.hamdec import BchDecoder
from srcodes.srdec import sr_decode, sr_oracle_decode


# ----------------------------------------------------------------------
# blocks
# ----------------------------------------------------------------------

def test_block_map_examples():
    assert lin_to_matrix(1, 0) == 0b1001          # identity
    assert lin_to_matrix(0, 1) == 0b1011          # [[1,1],[0,1]]
    assert mat2_rank(lin_to_matrix(2, 2)) == 1    # kernel {0, 1}


def test_block_map_bijection():
    seen = set()
    for a0 in range(4):
        for a1 in range(4):
            m = lin_to_matrix(a0, a1)
            assert matrix_to_lin(m) == (a0, a1)
            seen.add(m)
    assert seen == set(range(16))


def test_rank_structure():
    for a0 in range(4):
        for a1 in range(4):
            r = mat2_rank(lin_to_matrix(a0, a1))
            if a0 == a1 == 0:
                assert r == 0
            elif a0 and a1:
                assert r == 1
            else:
                assert r == 2


def test_word_matrix_roundtrip():
    w = SrWord(bytes([0, 1, 2, 3]), bytes([3, 0, 1, 2]))
    pairs = [matrix_to_lin(m) for m in w.to_matrices()]
    assert SrWord(bytes(p[0] for p in pairs), bytes(p[1] for p in pairs)) == w


# ----------------------------------------------------------------------
# weights
# ----------------------------------------------------------------------

def test_weight_examples():
    assert sumrank_weight(sr_zero(4)) == 0
    assert sumrank_weight(SrWord(bytes([1]), bytes([0]))) == 2
    w = SrWord(bytes([2, 2]), bytes([1, 0]))
    assert sumrank_weight(w) == 3
    assert sumrank_weight_formula(bytes([1, 0]), bytes([2, 2])) == 3


def test_weight_rejects_malformed_words():
    for word in (SrWord(b"\x05", b"\x00"), SrWord(b"\x01\x01", b"\x00"),
                 SrWord(b"\x00", b"\x04"), SrWord(b"\x00\x00", b"\x00\xff")):
        with pytest.raises(RangeError):
            sumrank_weight(word)
        with pytest.raises(RangeError):
            sumrank_weight_formula(word.coeff_x2, word.coeff_x)
        with pytest.raises(RangeError):
            sr_distance(word, sr_zero(word.length))


def test_words_of_unequal_length_do_not_add():
    long, short = SrWord(b"\x01\x01", b"\x01\x01"), SrWord(b"\x01", b"\x00")
    for u, v in ((long, short), (short, long)):
        with pytest.raises(RangeError):
            u + v


def test_formula_exhaustive_length_2():
    for x in itertools.product(range(4), repeat=2):
        for y in itertools.product(range(4), repeat=2):
            w = SrWord(bytes(x), bytes(y))
            assert sumrank_weight(w) == sumrank_weight_formula(bytes(y), bytes(x))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=64))
def test_formula_random_long(blocks):
    # each block is (x^2 coefficient, x coefficient)
    a1, a2 = bytes(b[0] for b in blocks), bytes(b[1] for b in blocks)
    assert sumrank_weight_formula(a1, a2) == sumrank_weight(SrWord(a2, a1))


def test_formula_degenerate_cases():
    a2 = bytes([1, 0, 3, 2])
    assert sumrank_weight_formula(bytes(4), a2) == 6  # 2 * wt_H
    full1 = bytes([1] * 5)
    full2 = bytes([2] * 5)
    assert sumrank_weight_formula(full1, full2) == 5  # every block rank 1


def test_metric_axioms():
    rng = np.random.default_rng(1)
    def rand_word(n):
        return SrWord(bytes(int(v) for v in rng.integers(0, 4, size=n)),
                      bytes(int(v) for v in rng.integers(0, 4, size=n)))
    for _ in range(200):
        n = int(rng.integers(1, 20))
        x, y, z = rand_word(n), rand_word(n), rand_word(n)
        assert sr_distance(x, y) == sr_distance(y, x)
        assert (sr_distance(x, y) == 0) == (x == y)
        assert sr_distance(x, z) <= sr_distance(x, y) + sr_distance(y, z)


# ----------------------------------------------------------------------
# the SR construction
# ----------------------------------------------------------------------

def test_sr_dimension_block63():
    c2 = bch_build(63, DefiningSet.from_cosets(63, [0, 1, 2, 3, 5]))
    c1 = bch_build(63, DefiningSet.from_cosets(63, [0, 1, 2, 3, 5, 6, 7, 9, 10, 11]))
    code = sr_construct(c1, c2)
    assert code.f2_dimension == 2 * 85
    assert code.d_sr_lower == 14


def test_sr_dimension_block15():
    c1 = bch_build(15, (1, 6))
    c2 = bch_build(15, DefiningSet.from_cosets(15, [5, 6]))
    assert (c1.k, c2.k) == (8, 12)
    code = sr_construct(c1, c2)
    assert code.f2_dimension == 2 * 20
    assert code.d_sr_lower == 6


def test_sr_swap_uses_symmetric_bound():
    # distances (5, 10) in either order give the same bound 10
    a = LinearCode(GF4, [bytes([1] * 10)], d_lower=10, d_tag="declared")
    b = LinearCode(GF4, [bytes([1] * 5 + [0] * 5)], d_lower=5, d_tag="declared")
    assert sr_construct(a, b).d_sr_lower == 10
    assert sr_construct(b, a).d_sr_lower == 10


def test_sr_length_mismatch():
    a = LinearCode(GF4, [bytes([1, 1, 1])], d_lower=3, d_tag="declared")
    b = LinearCode(GF4, [bytes([1, 1])], d_lower=2, d_tag="declared")
    with pytest.raises(ConstructionError):
        sr_construct(a, b)


def test_sr_encode_properties():
    rng = np.random.default_rng(2)
    c1 = bch_build(15, (1, 6))
    c2 = bch_build(15, DefiningSet.from_cosets(15, [5, 6]))
    code = sr_construct(c1, c2)
    assert code.encode([0] * code.f2_dimension) == sr_zero(15)
    seen = {}
    for _ in range(60):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=code.f2_dimension))
        word = code.encode(list(bits))
        assert code.contains(word)
        if bits in seen:
            assert seen[bits] == word
        for other_bits, other in seen.items():
            if other_bits != bits:
                assert other != word
        seen[bits] = word
    with pytest.raises(RangeError):
        code.encode([0])
    for bad in (2, 5):
        with pytest.raises(RangeError):
            code.encode([bad] + [0] * (code.f2_dimension - 1))


def test_sr_encode_input_forms():
    # bytes and bytearrays are taken whole; a list or numpy array is read
    # value by value, so a uint16 array is not mistaken for its raw buffer
    code = sr_construct(bch_build(15, (1, 6)), bch_build(15, DefiningSet.from_cosets(15, [5, 6])))
    k = code.f2_dimension
    bits = np.random.default_rng(4).integers(0, 2, size=k)
    word = code.encode(bits.tolist())
    assert word != sr_zero(15)
    for form in (bytes(bits.tolist()), bytearray(bits.tolist()), bits, bits.astype(np.uint16)):
        assert code.encode(form) == word
    for bad in (b"\x02" + bytes(k - 1), bytearray(b"\x02" + bytes(k - 1)), b"\x02",
                bytes(k - 1), bytes(k + 1), [-1] + [0] * (k - 1), [256] + [0] * (k - 1),
                np.array([256] + [0] * (k - 1), dtype=np.uint16)):
        with pytest.raises(RangeError):
            code.encode(bad)


def test_sr_min_distance_block25():
    c1 = bch_build(25, DefiningSet(25, range(1, 25)))
    c2 = bch_build(25, DefiningSet.from_cosets(25, [0, 1, 2, 5]))
    code = sr_construct(c1, c2)
    assert code.f2_dimension == 2 * 3
    d, witness = sr_min_distance_bruteforce(code)
    assert d == 30 and code.d_sr_exact == 30
    assert sumrank_weight(witness) == 30
    assert code.contains(witness)


def test_sr_sweep_across_enumeration_chunks():
    # C2 = [15,10,4] has 2^20 words, so the sweep meets sixteen C2 chunks
    rep = LinearCode(GF4, [bytes([1] * 15)], d_lower=15, d_tag="declared")
    c2 = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))
    code = sr_construct(rep, c2)
    d, witness = sr_min_distance_bruteforce(code)
    # a1 = 0 gives 2 wt(a2) >= 8; a nonzero a1 gives 30 - wt(a2) >= 15
    assert d == 8 and sumrank_weight(witness) == 8 and code.contains(witness)
    sent = code.encode([1, 0] + [0, 1] * 10)
    received = sent + SrWord(bytes([0, 2] + [0] * 13), bytes(15))
    assert sr_oracle_decode(code, received).codeword == sent


def test_sr_min_distance_zero_component():
    rep3 = LinearCode(GF4, [bytes([1, 2, 3])], d_lower=3, d_tag="declared")
    zero3 = LinearCode(GF4, [], parity_rows=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                       d_lower=1)
    code = sr_construct(rep3, zero3)
    assert code.d_sr_lower == 6
    d, _ = sr_min_distance_bruteforce(code)
    assert d == 6


def test_sr_swap_symmetry_certified():
    a = LinearCode(GF4, [bytes([1, 2, 3, 0]), bytes([0, 1, 1, 1])],
                   d_lower=1, d_tag="declared")
    b = LinearCode(GF4, [bytes([1, 1, 0, 2])], d_lower=1, d_tag="declared")
    d_ab, _ = sr_min_distance_bruteforce(sr_construct(a, b))
    d_ba, _ = sr_min_distance_bruteforce(sr_construct(b, a))
    assert d_ab == d_ba


def test_sr_swap_symmetry_block25():
    # certified distances agree in both slot orders (the codes themselves
    # are generally inequivalent)
    rep = bch_build(25, DefiningSet(25, range(1, 25)))
    two = bch_build(25, DefiningSet.from_cosets(25, [0, 1, 2, 5]))
    d_ab, _ = sr_min_distance_bruteforce(sr_construct(rep, two))
    d_ba, _ = sr_min_distance_bruteforce(sr_construct(two, rep))
    assert d_ab == d_ba == 30


def test_sr_nonzero_words_meet_bound():
    rng = np.random.default_rng(3)
    c1 = bch_build(15, (1, 6))
    c2 = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))
    code = sr_construct(c1, c2)
    for _ in range(200):
        bits = [int(b) for b in rng.integers(0, 2, size=code.f2_dimension)]
        if not any(bits):
            continue
        w = code.encode(bits)
        assert sumrank_weight_formula(w.coeff_x2, w.coeff_x) >= code.d_sr_lower


def test_sr_additive_dimension_example():
    gens = [bytes([1, 0] * 6), bytes([2, 0] * 6), bytes([0, 1] * 6),
            bytes([0, 2] * 6), bytes([1, 1] * 6), bytes([3, 0] * 6),
            bytes([0, 3] * 6)]
    add = additive_build(gens, d_lower=2, d_tag="declared")
    lin = LinearCode(GF4, [bytes([1] * 12)], d_lower=12, d_tag="declared")
    code = sr_construct(add, lin)
    assert code.f2_dimension == add.f2_dimension + 2


def test_decoder_ready_flag():
    c1 = bch_build(15, (1, 6))
    c2_good = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))   # d=4
    c2_bad = bch_build(15, DefiningSet.from_cosets(15, [5, 6]))       # d=3
    assert sr_construct(c1, c2_good).decoder_ready
    assert not sr_construct(c1, c2_bad).decoder_ready
    assert sr_construct(c1, c2_bad).decoder_ready_for(4)


_LEADERS15 = (0, 1, 2, 3, 5, 6, 7, 10, 11)  # one per 4-cyclotomic coset mod 15


@functools.lru_cache(maxsize=None)
def _bch15(leaders):
    return bch_build(15, DefiningSet.from_cosets(15, leaders))


@settings(max_examples=150, deadline=None)
@given(st.sets(st.sampled_from(_LEADERS15), min_size=1, max_size=8),
       st.sets(st.sampled_from(_LEADERS15), min_size=1, max_size=8))
def test_decodable_distance_rule(t1, t2):
    c1, c2 = _bch15(tuple(sorted(t1))), _bch15(tuple(sorted(t2)))
    code = sr_construct(c1, c2)
    d, d1, d2, lower = code.d_sr_decodable, c1.d_lower, c2.d_lower, code.d_sr_lower
    assert d <= lower
    # ready: the hypotheses hold at the construction bound
    assert code.decoder_ready == (d1 >= lower and 3 * d2 >= 2 * lower)
    for target in range(-3, 32):
        ready = code.decoder_ready_for(target)
        assert ready == (1 <= target <= d)
        # the paper's hypotheses, written out
        assert ready == (target >= 1 and d1 >= target and 3 * d2 >= 2 * target)


def test_zero_component_has_no_decodable_distance():
    c1 = bch_build(15, (1, 6))
    eye = [[int(i == j) for j in range(15)] for i in range(15)]
    zero = LinearCode(GF4, [], parity_rows=eye)
    dec = BchDecoder(c1)
    for code in (sr_construct(c1, zero), sr_construct(zero, c1)):
        assert code.d_sr_decodable is None
        assert not code.decoder_ready and not code.decoder_ready_for(1)
        with pytest.raises(ConfigError):
            sr_decode(code, dec, dec, sr_zero(15))


def test_goppa_pair_dimension_grid_golden():
    # every plan for m = 2..8, d_sr = 1..2^(m+1)+2 (1,030 rows), pinned
    # before goppa_pair_dimension moved from codes to sumrank; running it on
    # to m = 10 gives 0166d45495361d1835833c50f349ef26 but takes ~17 s
    rows = [(m, d, goppa_pair_dimension(m, d))
            for m in range(2, 9) for d in range(1, 2 ** (m + 1) + 3)]
    assert len(rows) == 1030
    assert hashlib.md5(repr(rows).encode()).hexdigest() == "795618ee468152ae95758dffd19bd259"


def test_sr_budget():
    c2 = bch_build(63, DefiningSet.from_cosets(63, [0, 1, 2, 3, 5]))
    code = sr_construct(c2, c2)
    with pytest.raises(BudgetError):
        sr_min_distance_bruteforce(code)


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def test_singleton_values():
    assert singleton_bound(15, 4) == 2 * 27
    assert singleton_bound(15, 14) == 2 * 17
    assert singleton_bound(9, 1) == 4 * 9
    with pytest.raises(RangeError):
        singleton_bound(15, 31)


def test_entropy_values():
    assert entropy_q(4, 0) == 0
    assert abs(entropy_q(4, 0.75) - 1) < 1e-12
    with pytest.raises(RangeError):
        entropy_q(4, 0.8)


def test_rate_bound_golden_value():
    # frozen after agreement of two independent implementations
    assert decodable_gv_rate(0.1) == pytest.approx(0.5458103912465034, abs=1e-9)
    assert gv_rate(0.1) == pytest.approx(0.5833968903267524, abs=1e-9)


def test_rate_bounds_ordering_and_monotonicity():
    grid = [i / 4000 for i in range(1, 1000)]
    prev_g, prev_d = None, None
    for x in grid:
        g, d = gv_rate(x), decodable_gv_rate(x)
        assert g >= d
        if prev_g is not None:
            assert g < prev_g and d < prev_d
        prev_g, prev_d = g, d


def test_rate_bound_domain():
    with pytest.raises(RangeError):
        gv_rate(0.25)
    with pytest.raises(RangeError):
        decodable_gv_rate(-0.01)
