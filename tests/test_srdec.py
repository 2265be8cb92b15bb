import hashlib
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srcodes.errors import BudgetError, ConfigError, RangeError
from srcodes.gf2m import GF4, build_field, vec_scale, vec_xor
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
    SrWord,
    sr_construct,
    sr_zero,
    sumrank_weight,
    sumrank_weight_formula,
)
from srcodes.srdec import (
    STATUS_ALL_BRANCHES_FAILED,
    STATUS_AMBIGUOUS,
    STATUS_C1_FAILURE,
    STATUS_SUCCESS,
    SrDecodeResult,
    _sr_decode,
    error_profiles,
    evaluate_word,
    min_branch_weight,
    sample_error,
    simulate,
    sr_decode,
    sr_oracle_decode,
)


@pytest.fixture(scope="module")
def pair15():
    c1 = bch_build(15, (1, 6))                                   # [15,8,6]
    c2 = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))   # [15,10,4]
    code = sr_construct(c1, c2)
    return code, BchDecoder(c1), BchDecoder(c2)


@pytest.fixture(scope="module")
def pair25():
    # criterion 01's pair: radius 12, and C2 = [25,2,20] decodes to radius 9
    c1 = bch_build(25, DefiningSet(25, range(1, 25)))                # [25,1,25]
    c2 = bch_build(25, DefiningSet.from_cosets(25, [0, 1, 2, 5]))    # [25,2,20]
    return sr_construct(c1, c2), BchDecoder(c1), BchDecoder(c2)


@pytest.fixture(scope="module")
def tiny():
    return ORACLE_CASES["rep4-mds"]


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def test_evaluate_word_examples():
    w = SrWord(bytes([1, 2, 0]), bytes([3, 0, 1]))
    assert evaluate_word(w, 1) == vec_xor(w.coeff_x, w.coeff_x2)
    blk = SrWord(bytes([2]), bytes([2]))
    assert evaluate_word(blk, 1) == bytes([0])        # cancellation at beta = 1
    assert evaluate_word(sr_zero(5), 2) == bytes(5)
    with pytest.raises(RangeError):
        evaluate_word(w, 0)


def test_evaluate_word_formula():
    rng = np.random.default_rng(0)
    sq = {1: 1, 2: 3, 3: 2}
    for _ in range(50):
        x = bytes(int(v) for v in rng.integers(0, 4, size=8))
        x2 = bytes(int(v) for v in rng.integers(0, 4, size=8))
        w = SrWord(x, x2)
        for beta in (1, 2, 3):
            expect = bytes(GF4.mul(a, beta) ^ GF4.mul(b, sq[beta])
                           for a, b in zip(x, x2))
            assert evaluate_word(w, beta) == expect


# ----------------------------------------------------------------------
# the reduction decoder
# ----------------------------------------------------------------------

def test_zero_error_uses_first_branch(pair15):
    code, dec1, dec2 = pair15
    rng = np.random.default_rng(1)
    sent = code.encode([int(b) for b in rng.integers(0, 2, size=code.f2_dimension)])
    res = sr_decode(code, dec1, dec2, sent, 6)
    assert res.ok and res.succeeded_branch == 1
    assert res.codeword == sent and res.error == sr_zero(15)
    assert res.dec1_calls == 1 and res.dec2_calls == 1


def test_guaranteed_radius_random_trials(pair15):
    code, dec1, dec2 = pair15
    rng = np.random.default_rng(2)
    for _ in range(300):
        bits = [int(b) for b in rng.integers(0, 2, size=code.f2_dimension)]
        sent = code.encode(bits)
        w = int(rng.integers(0, 3))
        err = sample_error(15, w, rng)
        res = sr_decode(code, dec1, dec2, sent + err, 6)
        assert res.ok and res.codeword == sent and res.error == err
        assert res.dec1_calls == 1 and res.dec2_calls <= 3


def test_beyond_radius_never_lies(pair15):
    code, dec1, dec2 = pair15
    rng = np.random.default_rng(3)
    radius = 2
    for _ in range(300):
        bits = [int(b) for b in rng.integers(0, 2, size=code.f2_dimension)]
        sent = code.encode(bits)
        err = sample_error(15, int(rng.integers(3, 7)), rng)
        res = sr_decode(code, dec1, dec2, sent + err, 6)
        if res.ok:
            # a success must be a true codeword within the radius of received
            assert code.contains(res.codeword)
            dist = sumrank_weight_formula(res.error.coeff_x2, res.error.coeff_x)
            assert dist <= radius


def _verify_cases():
    F = build_field(6)
    c1, c2 = (goppa_build(F, None, find_irreducible(F, r, seed=1), base=GF4) for r in (6, 4))
    bch1 = bch_build(15, (1, 6))                                   # [15,8,6]
    bch2 = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))   # [15,10,4]
    return {"bch15": (sr_construct(bch1, bch2), BchDecoder(bch1), BchDecoder(bch2), 6),
            # [64,46,>=7] and [64,52,>=5]: d1 >= 7 and d2 >= 2 * 7 / 3
            "goppa64": (sr_construct(c1, c2), GoppaDecoder(c1), GoppaDecoder(c2), 7)}


VERIFY_CASES = _verify_cases()


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_success_is_verified_at_every_weight(name, data):
    # errors of every sum-rank weight 0..2l, half of them at most one past
    # the radius: a success is always a codeword within the radius of the
    # received word, and the sent word itself inside the radius
    code, dec1, dec2, d_sr = VERIFY_CASES[name]
    radius = (d_sr - 1) // 2
    n = code.n
    w = data.draw(st.integers(0, 2 * n) | st.integers(0, radius + 1))
    sent = code.encode(data.draw(st.lists(st.integers(0, 1), min_size=code.f2_dimension,
                                          max_size=code.f2_dimension)))
    received = sent + sample_error(n, w, data.draw(st.integers(0, 2 ** 32)))
    res = sr_decode(code, dec1, dec2, received, d_sr)
    assert res.ok or w > radius
    if res.ok:
        assert code.contains(res.codeword)
        assert res.codeword + res.error == received
        assert sumrank_weight(res.error) <= radius
    if w <= radius:
        assert res.codeword == sent


def test_branch_diagnostics_example():
    # two-block rank-1 error: the branch that cancels one block wins
    c1 = bch_build(15, (1, 6))
    c2 = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))
    code = sr_construct(c1, c2)
    dec1, dec2 = BchDecoder(c1), BchDecoder(c2)
    e0 = bytearray(15)
    e1 = bytearray(15)
    e0[0], e1[0] = 1, 1   # cancels at beta = 1
    e0[5], e1[5] = 1, 1   # cancels at beta = 1 as well
    err = SrWord(bytes(e0), bytes(e1))
    res = sr_decode(code, dec1, dec2, code.encode([0] * code.f2_dimension) + err, 6)
    assert res.ok and res.succeeded_branch == 1 and res.error == err


def _decode_every_branch(dec1, dec2, received, radius):
    """The reduction decoder with no settled branches: every beta-branch up
    to the first success is decoded against C2, and weights come from the
    block ranks."""
    res1 = dec1.decode(received.coeff_x2)
    if not res1.ok:
        return SrDecodeResult(STATUS_C1_FAILURE, None, None, None, (), 1, 0)
    c1, e1 = res1.codeword, res1.error
    considered, candidates = [], []
    for beta in (1, 2, 3):
        res2 = dec2.decode(vec_xor(received.coeff_x, vec_scale(e1, beta)))
        if not res2.ok:
            considered.append((beta, res2.status))
            continue
        c2 = res2.codeword
        error = SrWord(vec_xor(received.coeff_x, c2), e1)
        w = sumrank_weight(error)
        considered.append((beta, "candidate"))
        if w <= radius:
            return SrDecodeResult(STATUS_SUCCESS, SrWord(c2, c1), error, beta,
                                  tuple(considered), 1, len(considered))
        candidates.append((w, c2))
    status = STATUS_ALL_BRANCHES_FAILED
    if candidates:
        wmin = min(w for w, _ in candidates)
        if len({c2 for w, c2 in candidates if w == wmin}) > 1:
            status = STATUS_AMBIGUOUS
    return SrDecodeResult(status, None, None, None, tuple(considered), 1, len(considered))


def test_settled_branches_match_decoding_every_branch(pair25):
    # a branch input within r2 = 9 of an earlier candidate is settled without
    # a C2 decode; every field must match decoding each branch, and the
    # sample must contain settled branches.  Weights 16-18, drawn about half
    # the time, often give later branches both within and beyond r2 of an
    # earlier candidate.
    code, dec1, dec2 = pair25
    radius = (code.d_sr_decodable - 1) // 2
    recording = _Recording(dec2, hashlib.md5())
    branches = []

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), min_size=code.f2_dimension,
                         max_size=code.f2_dimension),
           w=st.integers(0, 2 * radius) | st.integers(radius + 4, radius + 6),
           seed=st.integers(0, 2 ** 32))
    def check(bits, w, seed):
        received = code.encode(bits) + sample_error(code.n, w, seed)
        res = _sr_decode(dec1, recording, received, radius)
        ref = _decode_every_branch(dec1, dec2, received, radius)
        assert (res.status, res.codeword, res.error, res.succeeded_branch) == \
            (ref.status, ref.codeword, ref.error, ref.succeeded_branch)
        assert res.candidates_considered == ref.candidates_considered
        assert (res.dec1_calls, res.dec2_calls) == (ref.dec1_calls, ref.dec2_calls)
        branches.append(res.dec2_calls)

    check()
    assert len(recording.words) < sum(branches)


def test_x_slot_error_settles_branches_two_and_three(pair25):
    # e1 = 0 gives all three branches the input y0; 8 errors in the x slot
    # are within r2 = 9 of the sent C2 word but weigh 16 > 12 in sum rank
    code, dec1, dec2 = pair25
    assert dec2.radius == 9
    sent = code.encode([1, 0, 1, 1, 0, 1])
    e0 = bytes([1, 2, 3, 1, 2, 3, 1, 2] + [0] * 17)
    received = sent + SrWord(e0, bytes(25))
    recording = _Recording(dec2, hashlib.md5())
    res = sr_decode(code, dec1, recording, received)
    assert res.status == STATUS_ALL_BRANCHES_FAILED
    assert res.candidates_considered == ((1, "candidate"), (2, "candidate"), (3, "candidate"))
    assert res.dec2_calls == 3
    assert recording.words == [received.coeff_x]


def test_c1_failure_status(pair15):
    code, dec1, dec2 = pair15
    rng = np.random.default_rng(4)
    # weight-3 error on the x^2 slot alone exceeds dec1's radius
    e1 = bytearray(15)
    for p in rng.choice(15, size=3, replace=False):
        e1[p] = 1
    received = SrWord(bytes(15), bytes(e1))
    res = sr_decode(code, dec1, dec2, received, 6)
    assert res.status in (STATUS_C1_FAILURE, STATUS_ALL_BRANCHES_FAILED)
    if res.status == STATUS_C1_FAILURE:
        assert res.dec2_calls == 0


def _zero_code(n):
    return LinearCode(GF4, [], parity_rows=[[int(i == j) for j in range(n)] for i in range(n)])


def test_config_errors(pair15, pair25):
    # each rejection of _check_config and sr_decode, pinned by its message
    code, dec1, dec2 = pair15
    word = sr_zero(15)
    d3 = sr_construct(code.c1, bch_build(15, DefiningSet.from_cosets(15, [5, 6])))
    code25, dec1_25, dec2_25 = pair25
    cases = [
        # (code, dec1, dec2, word, d_sr, message)
        (code, dec1, dec2, word, 7, "declared d_sr = 7 is not an integer in 1..6, the "
                                    "d_sr_decodable of C1 distance 6 and C2 distance 4"),
        (code, dec1, dec2, word, 20, "declared d_sr = 20 is not an integer in 1..6"),
        (code, dec1, dec2, word, 0, "declared d_sr = 0 is not"),
        (code, dec1, dec2, word, -3, "declared d_sr = -3 is not"),
        (code, dec1, dec2, word, 5.5, "declared d_sr = 5.5 is not"),
        # d2 = 3: d_sr_decodable = min(6, 4)
        (d3, dec1, BchDecoder(d3.c2), word, 6, "declared d_sr = 6 is not an integer in 1..4"),
        (sr_construct(_zero_code(15), code.c2), dec1, dec2, word, 6,
         "a zero component leaves no decodable distance"),
        (sr_construct(code.c1, _zero_code(15)), dec1, dec2, word, 6,
         "a zero component leaves no decodable distance"),
        (code, OracleDecoder(code.c1, radius=1), dec2, word, 6, "C1 decoder radius 1 < 2"),
        # C2 = [25,2,20] has r2 = 9
        (code25, dec1_25, OracleDecoder(code25.c2, radius=1), sr_zero(25), 25,
         "C2 decoder radius 1 < 9"),
        (code, dec1_25, dec2, word, 6, "decoder/code length mismatch"),
        (code, dec1, dec2, sr_zero(14), 6, "received length 14 != 15"),
    ]
    for case_code, d1, d2, received, d_sr, message in cases:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            sr_decode(case_code, d1, d2, received, d_sr)


def test_config_is_read_at_every_call():
    # d_exact is the one mutable field of a code: raising it between two
    # calls raises the radius the next call asks of each decoder
    c1, c2 = bch_build(15, (1, 6)), bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))
    code, dec1, dec2 = sr_construct(c1, c2), BchDecoder(c1), BchDecoder(c2)
    word = sr_zero(15)
    assert sr_decode(code, dec1, dec2, word).ok
    c2.d_exact = 5      # r2 = 2 > dec2.radius
    with pytest.raises(ConfigError, match="^C2 decoder radius 1 < 2$"):
        sr_decode(code, dec1, dec2, word)
    c2.d_exact = None
    c1.d_exact = 5      # d_sr_decodable = min(5, 6)
    with pytest.raises(ConfigError, match=r"^declared d_sr = 6 is not an integer in 1\.\.5"):
        sr_decode(code, dec1, dec2, word, 6)
    assert sr_decode(code, dec1, dec2, word, 5).ok
    c1.d_exact = None
    assert sr_decode(code, dec1, dec2, word, 6).ok


def test_unequal_halves_are_a_range_error(pair15):
    code, dec1, dec2 = pair15
    for coeff_x, coeff_x2 in ((bytes(15), bytes(14)), (bytes(14), bytes(15))):
        with pytest.raises(RangeError, match="^received word has coefficient vectors of "
                                             f"lengths {len(coeff_x)} and {len(coeff_x2)}$"):
            sr_decode(code, dec1, dec2, SrWord(coeff_x, coeff_x2), 6)


def test_list_words_with_bad_symbols_are_range_errors(pair15):
    # _sr_decode reads the x part as an integer, so a list word is checked first
    code, dec1, dec2 = pair15
    for bad in ([-1] + [0] * 14, [300] + [0] * 14, [5] + [0] * 14):
        for coeff_x2 in (bytes(15), bytes([1]) + bytes(14)):
            with pytest.raises(RangeError):
                sr_decode(code, dec1, dec2, SrWord(bad, coeff_x2), 6)


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------

def _oracle_cases():
    # pairs small enough for sr_oracle_decode to enumerate within DEFAULT_BUDGET
    rep4 = LinearCode(GF4, [bytes([1, 1, 1, 1])], d_lower=4, d_tag="declared")
    mds = LinearCode(GF4, [bytes([1, 0, 1, 1]), bytes([0, 1, 1, 2])],
                     d_lower=3, d_tag="declared")
    assert min_distance_bruteforce(mds)[0] == 3
    rep15 = bch_build(15, (1, 15))   # [15,1,15]
    bch8 = bch_build(15, (0, 6))     # [15,8,6]; the pair has 2^18 words, radius 4
    return {"rep4-mds": (sr_construct(rep4, mds), OracleDecoder(rep4, radius=1),
                         OracleDecoder(mds, radius=1)),
            "bch15-rep": (sr_construct(rep15, bch8), BchDecoder(rep15), BchDecoder(bch8))}


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_decoder_agrees_with_oracle_inside_radius(name, data):
    # inside the radius the sent word is the unique nearest codeword, so the
    # reduction decoder and the exhaustive sweep both return it
    code, dec1, dec2 = ORACLE_CASES[name]
    d_sr = code.d_sr_decodable
    w = data.draw(st.integers(0, (d_sr - 1) // 2))
    sent = code.encode(data.draw(st.lists(st.integers(0, 1), min_size=code.f2_dimension,
                                          max_size=code.f2_dimension)))
    received = sent + sample_error(code.n, w, data.draw(st.integers(0, 2 ** 32)))
    res = sr_decode(code, dec1, dec2, received, d_sr)
    oracle = sr_oracle_decode(code, received)
    assert res.ok and oracle.ok
    assert res.codeword == oracle.codeword == sent
    assert res.error == oracle.error


def test_oracle_returns_member(tiny):
    code, _, _ = tiny
    word = code.encode([1, 0, 1, 1, 0, 1])
    res = sr_oracle_decode(code, word)
    assert res.ok and res.codeword == word


def test_oracle_agreement_within_radius(tiny):
    code, dec1, dec2 = tiny
    errors = [sr_zero(4)]
    for i in range(4):
        for v0 in (1, 2, 3):
            for v1 in (1, 2, 3):
                e0 = bytearray(4)
                e1 = bytearray(4)
                e0[i] = v0
                e1[i] = v1
                errors.append(SrWord(bytes(e0), bytes(e1)))
    for bits in itertools.product((0, 1), repeat=code.f2_dimension):
        sent = code.encode(list(bits))
        for err in errors:
            rec = sent + err
            r1 = sr_decode(code, dec1, dec2, rec, 4)
            r2 = sr_oracle_decode(code, rec)
            assert r1.ok and r2.ok
            assert r1.codeword == r2.codeword == sent


def test_oracle_tie_is_ambiguous():
    # SR([2,1,2], zero): codewords 0 and (v,v)x^2; the midpoint of the two
    # blocks sits at distance 2 from both
    rep2 = LinearCode(GF4, [bytes([1, 1])], d_lower=2, d_tag="declared")
    zero2 = LinearCode(GF4, [], parity_rows=[[1, 0], [0, 1]], d_lower=1)
    code = sr_construct(rep2, zero2)
    received = SrWord(bytes(2), bytes([1, 0]))
    res = sr_oracle_decode(code, received)
    assert res.status == STATUS_AMBIGUOUS


def test_oracle_budget():
    c = bch_build(63, DefiningSet.from_cosets(63, [0, 1, 2, 3, 5]))
    code = sr_construct(c, c)
    with pytest.raises(BudgetError):
        sr_oracle_decode(code, sr_zero(63))


# ----------------------------------------------------------------------
# error channel
# ----------------------------------------------------------------------

def test_error_profiles_constraint():
    for length, w in [(15, 0), (15, 1), (15, 2), (15, 9), (3, 6)]:
        for i1, i2, i3 in error_profiles(length, w):
            assert 2 * i1 + 2 * i2 + i3 == w
            assert i1 + i2 + i3 <= length
    assert error_profiles(15, 1) == ((0, 0, 1),)


def test_sample_error_exact_weight():
    rng = np.random.default_rng(5)
    for _ in range(100):
        length = int(rng.integers(1, 30))
        w = int(rng.integers(0, 2 * length + 1))
        e = sample_error(length, w, rng)
        assert sumrank_weight_formula(e.coeff_x2, e.coeff_x) == w


def test_sample_error_extremes():
    assert sample_error(7, 0, 0) == sr_zero(7)
    e = sample_error(7, 1, 0)
    both = [(a, b) for a, b in zip(e.coeff_x, e.coeff_x2) if a or b]
    assert len(both) == 1 and all(a and b for a, b in both)
    e = sample_error(7, 14, 0)
    assert all((a != 0) != (b != 0) for a, b in zip(e.coeff_x, e.coeff_x2))
    with pytest.raises(RangeError):
        sample_error(7, 15, 0)


def test_sample_error_deterministic():
    assert sample_error(12, 5, 77) == sample_error(12, 5, 77)


def test_pigeonhole_bound():
    rng = np.random.default_rng(6)
    for _ in range(400):
        length = int(rng.integers(1, 40))
        w = int(rng.integers(0, 2 * length + 1))
        e = sample_error(length, w, rng)
        i3 = sum(1 for a, b in zip(e.coeff_x, e.coeff_x2) if a and b)
        i1 = sum(1 for a, b in zip(e.coeff_x, e.coeff_x2) if a and not b)
        i2 = sum(1 for a, b in zip(e.coeff_x, e.coeff_x2) if b and not a)
        cap = i1 + i2 + i3 - (i3 + 2) // 3 if i3 else i1 + i2
        assert min_branch_weight(e.coeff_x, e.coeff_x2) <= cap


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------

def test_simulate_within_radius_all_success(pair15):
    code, dec1, dec2 = pair15
    rows = simulate(code, dec1, dec2, [0, 1, 2], 60, seed=11)
    for row in rows:
        assert row["success"] == 60
        assert row["failure"] == row["ambiguous"] == 0
        assert row["dec1_calls_max"] == 1 and row["dec2_calls_max"] <= 3


def test_simulate_defaults_to_the_decodable_distance():
    # the bch255-channel pair: d_sr_lower = 34 breaks 3 d2 >= 2 d_sr with
    # d2 = 22, while d_sr_decodable = 33 keeps the radius 16
    c1, c2 = bch_build(255, (1, 32)), bch_build(255, (1, 22))
    code = sr_construct(c1, c2)
    assert (code.d_sr_lower, code.d_sr_decodable) == (34, 33)
    dec1, dec2 = BchDecoder(c1), BchDecoder(c2)
    rows = simulate(code, dec1, dec2, [0, 16], 8, seed=3)
    assert [r["success"] for r in rows] == [8, 8]
    # sr_decode takes the same default
    rng = np.random.default_rng(5)
    for _ in range(4):
        sent = code.encode(rng.integers(0, 2, size=code.f2_dimension).tolist())
        err = sample_error(code.n, 16, rng)
        res = sr_decode(code, dec1, dec2, sent + err)
        assert res.ok and res.codeword == sent and res.error == err


def test_simulate_accepts_numpy_integers(pair15):
    # counts are checked as numbers.Integral, which numpy's integers join
    code, dec1, dec2 = pair15
    rows = [simulate(code, dec1, dec2, [np.int64(1)], np.int64(5), seed=np.int64(13)),
            simulate(code, dec1, dec2, [1], 5, seed=13)]
    for row in rows[0] + rows[1]:
        row.pop("mean_decode_micros")
    assert rows[0] == rows[1] and rows[0][0]["success"] == 5


def test_simulate_rejects_negative_trials(pair15):
    code, dec1, dec2 = pair15
    with pytest.raises(RangeError):
        simulate(code, dec1, dec2, [0], -1)


@pytest.mark.parametrize("weights, trials, seed", [
    ([1, -1], 1, 0),
    ([1, 31], 1, 0),    # beyond 2n = 30
    ([1, "2"], 1, 0),
    ([1.0], 1, 0),
    ([1], 1.5, 0),
    ([1], 1, -3),
    ([1], 1, 2.0),
    ([1], "3", 0),
    ([1], 1, "3"),
], ids=["weight_negative", "weight_too_big", "weight_str", "weight_float",
        "trials_float", "seed_negative", "seed_float", "trials_str", "seed_str"])
def test_simulate_rejects_bad_inputs_before_any_trial(pair15, weights, trials, seed):
    code, dec1, dec2 = pair15
    log = hashlib.md5()
    with pytest.raises(RangeError):
        simulate(code, _Recording(dec1, log), _Recording(dec2, log), weights, trials, seed=seed)
    assert log.hexdigest() == hashlib.md5().hexdigest()  # no word was decoded


def test_simulate_beyond_radius_reports_only(pair15):
    code, dec1, dec2 = pair15
    rows = simulate(code, dec1, dec2, [6], 40, seed=12)
    assert rows[0]["success"] + rows[0]["failure"] + rows[0]["ambiguous"] == 40


def test_simulate_deterministic(pair15):
    code, dec1, dec2 = pair15
    a = simulate(code, dec1, dec2, [1, 2], 25, seed=13)
    b = simulate(code, dec1, dec2, [1, 2], 25, seed=13)
    for ra, rb in zip(a, b):
        for key in ("success", "failure", "ambiguous", "miscorrections"):
            assert ra[key] == rb[key]


def test_simulate_rows_do_not_depend_on_jobs(pair15):
    # an oracle C2 decoder over 2^20 words scans every enumeration chunk
    code, dec1, _ = pair15
    dec2 = OracleDecoder(code.c2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # jobs=1, which perfbench passes, is silent
        rows = [simulate(code, dec1, dec2, [0, 2], 3, seed=14, jobs=1)]
    with pytest.warns(DeprecationWarning, match="jobs") as record:
        rows.append(simulate(code, dec1, dec2, [0, 2], 3, seed=14, jobs=2))
    assert len(record) == 1
    for row in rows[0] + rows[1]:
        row.pop("mean_decode_micros")
    assert rows[0] == rows[1]
    assert rows[0][1]["success"] == 3


class _Recording:
    """A component decoder that keeps every word it is given and feeds it to
    a hash."""

    def __init__(self, dec, log):
        self.code, self.radius, self._dec, self._log = dec.code, dec.radius, dec, log
        self.words = []

    def decode(self, word):
        self._log.update(word)
        self.words.append(word)
        return self._dec.decode(word)


def test_simulate_golden_rows(pair15):
    # rows and the digest of every decoder input were recorded with the
    # per-symbol encode and the int()-list message draw that preceded the
    # packed encode; a change in how the trials consume their generators
    # or in the words they encode shows up here
    code, dec1, dec2 = pair15
    log = hashlib.md5()
    rows = simulate(code, _Recording(dec1, log), _Recording(dec2, log),
                    [0, 1, 2, 3], 200, seed=7)
    for row in rows:
        row.pop("mean_decode_micros")
    assert log.hexdigest() == "f185db9b15970b841a0238ecd87650d5"
    common = {"trials": 200, "ambiguous": 0, "miscorrections": 0, "dec1_calls_max": 1}
    assert rows == [
        dict(common, weight=0, success=200, failure=0, dec2_calls_max=1),
        dict(common, weight=1, success=200, failure=0, dec2_calls_max=1),
        dict(common, weight=2, success=200, failure=0, dec2_calls_max=3),
        dict(common, weight=3, success=0, failure=200, dec2_calls_max=3),
    ]


def _reference_rows(code, dec1, dec2, weights, trials, seed):
    """simulate's rows, mean_decode_micros left out, from public pieces."""
    rows = []
    for w in weights:
        row = {"weight": w, "trials": trials, "success": 0, "failure": 0, "ambiguous": 0,
               "miscorrections": 0, "dec1_calls_max": 0, "dec2_calls_max": 0}
        for t in range(trials):
            rng = np.random.default_rng((seed, w, t))
            sent = code.encode(rng.integers(0, 2, size=code.f2_dimension).tolist())
            res = sr_decode(code, dec1, dec2, sent + sample_error(code.n, w, rng))
            row["dec1_calls_max"] = max(row["dec1_calls_max"], res.dec1_calls)
            row["dec2_calls_max"] = max(row["dec2_calls_max"], res.dec2_calls)
            if res.ok and res.codeword == sent:
                row["success"] += 1
            elif res.status == STATUS_AMBIGUOUS:
                row["ambiguous"] += 1
            else:
                row["failure"] += 1
                row["miscorrections"] += res.ok
        rows.append(row)
    return rows


@pytest.mark.parametrize("name, weights", [
    ("bch15", [0, 1, 2, 6]),           # radius 2; one miscorrection at weight 6
    ("goppa64", [0, 3, 7]),            # radius 3, over GF(2^6)
    ("rep4-mds", [0, 1, 3, 5]),        # radius 1, oracle component decoders
])
def test_simulate_matches_a_trial_loop_of_public_calls(name, weights):
    # the tallies of a bounded-distance decoder hardly depend on the message,
    # so the words each component decoder is given are compared too; repr
    # compares the key order, which the equivalence digests hash
    cases = {**VERIFY_CASES, **ORACLE_CASES}
    code, dec1, dec2 = cases[name][:3]
    logs = hashlib.md5(), hashlib.md5()
    rows = simulate(code, _Recording(dec1, logs[0]), _Recording(dec2, logs[0]), weights, 30,
                    seed=9)
    for row in rows:
        del row["mean_decode_micros"]
    reference = _reference_rows(code, _Recording(dec1, logs[1]), _Recording(dec2, logs[1]),
                                weights, 30, seed=9)
    assert repr(rows) == repr(reference)
    assert logs[0].hexdigest() == logs[1].hexdigest()
    assert rows[-1]["success"] < 30 and rows[0]["success"] == 30


def test_block25_pair_decodes_at_declared_distance(pair25):
    # true distance is 30 but d1 = 25 only supports a declared target of 25;
    # the decoder still corrects all 12 = floor((25-1)/2) sum-rank errors
    code, dec1, dec2 = pair25
    assert code.decoder_ready_for(25) and not code.decoder_ready_for(30)
    rng = np.random.default_rng(8)
    for _ in range(20):
        bits = [int(b) for b in rng.integers(0, 2, size=code.f2_dimension)]
        sent = code.encode(bits)
        err = sample_error(25, int(rng.integers(0, 13)), rng)
        res = sr_decode(code, dec1, dec2, sent + err, 25)
        assert res.ok and res.codeword == sent and res.error == err


def test_example_scenario_block63():
    """Overlapping 11-block errors: the x slot alone is undecodable, the
    evaluation trick recovers everything on the first branch."""
    T1 = DefiningSet.from_cosets(63, [0, 1, 2, 3, 5, 6, 7, 9, 10, 11,
                                      13, 14, 15, 21, 22])
    T2 = DefiningSet.from_cosets(63, [0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14])
    c1 = bch_build(63, T1)
    c2 = bch_build(63, T2)
    assert (c1.k, c1.d_designed) == (22, 24)
    assert (c2.k, c2.d_designed) == (29, 16)
    code = sr_construct(c1, c2)
    dec1, dec2 = BchDecoder(c1), BchDecoder(c2)

    e1 = bytearray(63)
    e0 = bytearray(63)
    cycle = [1, 3, 2]
    for idx, pos in enumerate(range(0, 21, 2)):
        e1[pos] = cycle[idx % 3]
        e0[pos] = 1
    err = SrWord(bytes(e0), bytes(e1))
    assert 63 - err.coeff_x2.count(0) == 11
    assert 63 - err.coeff_x.count(0) == 11
    assert sumrank_weight(err) == 11 <= (24 - 1) // 2

    # the branch errors have weights 7, 7, 8; only 7 <= dec2.radius
    weights = sorted(63 - vec_xor(bytes(e0), vec_scale(bytes(e1), b)).count(0)
                     for b in (1, 2, 3))
    assert weights == [7, 7, 8] and dec2.radius == 7

    rng = np.random.default_rng(21)
    sent = code.encode([int(b) for b in rng.integers(0, 2, size=code.f2_dimension)])
    received = sent + err

    # decoding the x slot directly fails: its error weight 11 exceeds 7
    direct = dec2.decode(received.coeff_x)
    assert (not direct.ok) or direct.codeword != sent.coeff_x

    res = sr_decode(code, dec1, dec2, received, 24)
    assert res.ok and res.succeeded_branch == 1
    assert res.codeword == sent and res.error == err
