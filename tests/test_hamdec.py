import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srcodes.errors import BudgetError, ConfigError, RangeError
from srcodes.gf2m import GF2, GF4, build_field, poly_eval, poly_mul
from srcodes.codes import (
    DEFAULT_BUDGET,
    DefiningSet,
    LinearCode,
    bch_build,
    find_irreducible,
    goppa_build,
)
from srcodes.hamdec import (
    BchDecoder,
    GoppaDecoder,
    OracleDecoder,
    _deg2_basis,
    make_decoder,
    oracle_decode,
)


def _add_error(cw, positions, values):
    e = bytearray(len(cw))
    for p, v in zip(positions, values):
        e[p] = v
    return bytes(a ^ b for a, b in zip(cw, e)), bytes(e)


@pytest.fixture(scope="module")
def bch15():
    return bch_build(15, (1, 6))


@pytest.fixture(scope="module")
def bch15_dec(bch15):
    return BchDecoder(bch15)


def test_bch_zero_error(bch15, bch15_dec):
    rng = np.random.default_rng(0)
    msg = [int(x) for x in rng.integers(0, 4, size=bch15.k)]
    cw = bch15.encode(msg)
    res = bch15_dec.decode(cw)
    assert res.ok and res.codeword == cw and res.error == bytes(15)


def test_bch_radius(bch15_dec):
    assert bch15_dec.radius == 2
    assert bch15_dec.method == "bch"


def test_bch_all_weight_le2_patterns(bch15, bch15_dec):
    rng = np.random.default_rng(1)
    for _ in range(3):
        msg = [int(x) for x in rng.integers(0, 4, size=bch15.k)]
        cw = bch15.encode(msg)
        for i in range(15):
            for v in (1, 2, 3):
                rec, e = _add_error(cw, [i], [v])
                res = bch15_dec.decode(rec)
                assert res.ok and res.codeword == cw and res.error == e
        for i, j in itertools.combinations(range(15), 2):
            for v1, v2 in itertools.product((1, 2, 3), repeat=2):
                rec, e = _add_error(cw, [i, j], [v1, v2])
                res = bch15_dec.decode(rec)
                assert res.ok and res.codeword == cw and res.error == e


def test_bch_weight3_bounded_distance_contract(bch15, bch15_dec):
    rng = np.random.default_rng(2)
    for _ in range(400):
        msg = [int(x) for x in rng.integers(0, 4, size=bch15.k)]
        cw = bch15.encode(msg)
        pos = rng.choice(15, size=3, replace=False)
        rec, _ = _add_error(cw, pos, rng.integers(1, 4, size=3))
        res = bch15_dec.decode(rec)
        if res.ok:
            # never an invalid vector, and always within the radius of rec
            assert bch15.contains(res.codeword)
            assert sum(1 for a, b in zip(res.codeword, rec) if a != b) <= 2


def test_bch_sigma_cross_check_with_direct_solve(bch15, bch15_dec):
    # independent locator computation for two errors: solve the 2x2 system
    # for sigma from the syndromes and compare roots with the decoder output
    info = bch15.bch_info
    F = info.field
    rng = np.random.default_rng(7)
    from srcodes.gf2m import gf4_embedding, poly_eval
    img = gf4_embedding(F)
    for _ in range(40):
        msg = [int(x) for x in rng.integers(0, 4, size=bch15.k)]
        cw = bch15.encode(msg)
        i, j = sorted(int(x) for x in rng.choice(15, size=2, replace=False))
        rec, e = _add_error(cw, [i, j], rng.integers(1, 4, size=2))
        lifted = [img[s] for s in rec]
        S = [poly_eval(F, lifted, F.pow(info.alpha, info.b + t)) for t in range(5)]
        # sigma2*S[t] + sigma1*S[t+1] = S[t+2]  (Peterson for t = 2)
        det = F.add(F.mul(S[0], S[2]), F.mul(S[1], S[1]))
        assert det != 0
        s1 = F.div(F.add(F.mul(S[0], S[3]), F.mul(S[1], S[2])), det)
        s2 = F.div(F.add(F.mul(S[2], S[2]), F.mul(S[1], S[3])), det)
        roots = {p for p in range(15)
                 if poly_eval(F, [1, s1, s2], F.inv(F.pow(info.alpha, p))) == 0}
        assert roots == {i, j}
        res = bch15_dec.decode(rec)
        assert res.ok and res.error == e


def test_goppa_binary_exhaustive_small_weights():
    F = build_field(5)
    G = find_irreducible(F, 3, seed=1)
    code = goppa_build(F, list(F.elements()), G, base=GF2)
    dec = GoppaDecoder(code)
    assert dec.radius == 3
    rng = np.random.default_rng(3)
    msg = [int(x) for x in rng.integers(0, 2, size=code.k)]
    cw = code.encode(msg)
    res = dec.decode(cw)
    assert res.ok and res.error == bytes(32)
    for i in range(32):
        rec, e = _add_error(cw, [i], [1])
        res = dec.decode(rec)
        assert res.ok and res.codeword == cw and res.error == e
    for i, j in itertools.combinations(range(32), 2):
        rec, e = _add_error(cw, [i, j], [1, 1])
        res = dec.decode(rec)
        assert res.ok and res.codeword == cw and res.error == e
    for _ in range(500):
        pos = rng.choice(32, size=3, replace=False)
        rec, e = _add_error(cw, pos, [1, 1, 1])
        res = dec.decode(rec)
        assert res.ok and res.codeword == cw and res.error == e


@pytest.mark.parametrize("m, base, degree, locators, trials", [
    (5, GF2, 3, slice(None), 300),    # binary, radius deg(G) through G^2
    (4, GF4, 4, slice(0, 12), 3000),  # quaternary, the locator 0 included
    (4, GF4, 4, slice(3, 15), 3000),  # quaternary, no locator 0
], ids=["binary32", "quaternary12_with_0", "quaternary12_without_0"])
def test_goppa_agrees_with_oracle_at_all_weights(m, base, degree, locators, trials):
    # as for BCH: inside the radius both decoders recover the sent word;
    # beyond it the Goppa decoder fails exactly when no codeword lies
    # within the radius, and otherwise returns that unique codeword.  The
    # quaternary codes have 256 codewords, so many trials are cheap, and
    # about 1 in 300 of them trips the miscorrection guard
    F = build_field(m)
    G = find_irreducible(F, degree, seed=1)
    code = goppa_build(F, list(F.elements())[locators], G, base=base)
    dec = GoppaDecoder(code)
    oracle = OracleDecoder(code, radius=dec.radius)
    n, t, q = code.n, dec.radius, base.order
    rng = np.random.default_rng(n + t)
    outcomes = set()
    for _ in range(trials):
        msg = [int(x) for x in rng.integers(0, q, size=code.k)]
        cw = code.encode(msg)
        wt = int(rng.integers(0, t + 3))
        pos = rng.choice(n, size=wt, replace=False)
        rec, _ = _add_error(cw, pos, rng.integers(1, q, size=wt))
        got, want = dec.decode(rec), oracle.decode(rec)
        assert got.ok == want.ok and got.codeword == want.codeword
        outcomes.add((wt <= t, got.ok))
    assert {(True, True), (False, False)} <= outcomes


def _root_scan_cases():
    F6, F8, F16 = build_field(6), build_field(8), build_field(16)
    locators90 = [int(a) for a in np.random.default_rng(90).permutation(256)[:90]]
    locators72 = [int(a) for a in np.random.default_rng(72).choice(np.arange(1, 1 << 16), 71,
                                                                    replace=False)]
    locators72.insert(30, 0)
    cases = {
        # all 64 locators, 0 among them; radius 5
        "binary64": goppa_build(F6, None, find_irreducible(F6, 5, seed=2), base=GF2),
        # 90 shuffled locators, 0 not among them; radius 5
        "quaternary90": goppa_build(F8, locators90, find_irreducible(F8, 10, seed=3),
                                    base=GF4),
        # 72 locators of GF(2^16), 0 at position 30: 24-bit root search
        # lanes, and a lane for the locator 0 amid the others; radius 4
        "binary72_gf2_16": goppa_build(F16, locators72, find_irreducible(F16, 4, seed=1),
                                       base=GF2),
    }
    # irreducible factors of degree 2 and 3 have no roots in the field
    return {name: (GoppaDecoder(code),
                   [find_irreducible(code.goppa_info.field, d, seed=s)
                    for d in (2, 3) for s in (0, 1)])
            for name, code in cases.items()}


ROOT_SCAN_CASES = _root_scan_cases()


@pytest.mark.parametrize("name", sorted(ROOT_SCAN_CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_goppa_root_scan_matches_brute_force(name, data):
    # sigma = c * prod (1 + a x) over a locator subset, sometimes times a
    # factor with no roots; reference: poly_eval at every p_i = a_i^-1.
    # The locator 0 contributes the factor 1 and is never a root.
    dec, rootless = ROOT_SCAN_CASES[name]
    F = dec.field
    n, t = dec.n, dec.radius
    roots = data.draw(st.sets(st.integers(0, n - 1), max_size=t))
    sigma = [data.draw(st.integers(1, F.order - 1))]
    for i in roots:
        sigma = poly_mul(F, sigma, [1, dec.locators[i]])
    extra = [f for f in rootless if len(sigma) + len(f) - 2 <= t]
    if extra and data.draw(st.booleans()):
        sigma = poly_mul(F, sigma, data.draw(st.sampled_from(extra)))
    brute = [i for i, a in enumerate(dec.locators) if a and poly_eval(F, sigma, F.inv(a)) == 0]
    assert brute == sorted(i for i in roots if dec.locators[i])
    assert dec._roots(sigma) == brute


def _bch_scan_cases():
    codes = {
        "15_delta8": bch_build(15, (1, 8)),                                 # radius 4
        "63_delta16": bch_build(63, (1, 16)),                               # radius 10
        "255_delta32": bch_build(255, (1, 32)),                             # radius 16
        "25_2_20": bch_build(25, DefiningSet.from_cosets(25, [0, 1, 2, 5])),  # GF(2^20)
    }
    cases = {}
    for name, code in codes.items():
        F = code.bch_info.field
        # irreducible factors of degree 2 and 3 have no roots in the field;
        # scaled to constant term 1, like sigma
        rootless = [poly_mul(F, f, [F.inv(f[0])])
                    for f in (find_irreducible(F, d, seed=s) for d in (2, 3) for s in (0, 1))]
        cases[name] = (BchDecoder(code), rootless)
    return cases


BCH_SCAN_CASES = _bch_scan_cases()


@pytest.mark.parametrize("name", sorted(BCH_SCAN_CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bch_root_scan_matches_brute_force(name, data):
    # sigma = prod (1 + X_i x) over a position subset of size 3..radius,
    # sometimes times a factor with no roots or a repeated root;
    # reference: poly_eval at every p_i = X_i^-1
    dec, rootless = BCH_SCAN_CASES[name]
    F = dec.field
    n, t = dec.n, dec.radius
    points = [F.exp[lp] for lp in dec._ptlog]
    roots = data.draw(st.sets(st.integers(0, n - 1), min_size=3, max_size=t))
    sigma = [1]
    for i in roots:
        sigma = poly_mul(F, sigma, [1, F.inv(points[i])])
    repeated = [[1, F.inv(points[i])] for i in sorted(roots)]
    extra = [f for f in rootless + repeated if len(sigma) + len(f) - 2 <= t]
    if extra and data.draw(st.booleans()):
        sigma = poly_mul(F, sigma, data.draw(st.sampled_from(extra)))
    brute = [i for i, p in enumerate(points) if poly_eval(F, sigma, p) == 0]
    assert brute == sorted(roots)
    assert dec._roots(sigma) == brute


def _key_equation_probe(dec):
    # a copy of the decoder whose _finish hands back what the key equation
    # and the root search found, in place of a candidate
    probe = copy.copy(dec)
    probe._finish = lambda received, acc, positions, omega, sigma, zero: (
        sorted(positions), sigma, zero)
    return probe


KEY_EQUATION_PROBES = {name: _key_equation_probe(dec)
                       for cases in (ROOT_SCAN_CASES, BCH_SCAN_CASES)
                       for name, (dec, _) in cases.items()}


@pytest.mark.parametrize("name", sorted(KEY_EQUATION_PROBES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_berlekamp_massey_finds_the_locator_polynomial(name, data):
    # power-sum syndromes S_j = sum_k Y_k X_k^j of 1..radius errors with
    # random nonzero Y_k: the shortest register is sigma = prod (1 + X_k x),
    # of length the error count.  The locator 0 adds Y_k to S_0 only, so it
    # counts in the length but is no factor of sigma (binary64 has it).
    dec = KEY_EQUATION_PROBES[name]
    F = dec.field
    locators = [0 if lp < 0 else F.inv(F.exp[lp]) for lp in dec._ptlog]
    errors = data.draw(st.sets(st.integers(0, dec.n - 1), min_size=1, max_size=dec.radius))
    if dec._zero_at is not None and len(errors) < dec.radius and data.draw(st.booleans()):
        errors.add(dec._zero_at)
    S = [0] * dec.nsyn
    sigma = [1]
    for i in errors:
        X, Y = locators[i], data.draw(st.integers(1, F.order - 1))
        for j in range(dec.nsyn):
            S[j] ^= F.mul(Y, F.pow(X, j))
        sigma = poly_mul(F, sigma, [1, X])
    acc = sum(s << j * F.m for j, s in enumerate(S))
    zero = dec._zero_at in errors
    # deg(sigma) + zero is the register length
    assert dec._decode_syndrome(acc, bytes(dec.n)) == (
        sorted(errors - {dec._zero_at}), sigma, zero)


def _alphabet_cases():
    F5, F8 = build_field(5), build_field(8)
    bch15 = bch_build(15, (1, 6))
    goppa256 = goppa_build(F8, None, find_irreducible(F8, 4, seed=1), base=GF4)
    binary32 = goppa_build(F5, list(F5.elements()), find_irreducible(F5, 3, seed=1), base=GF2)
    # (code, position, bad symbols); positions pair up from the front, with
    # a zero symbol in front of an odd n
    return {
        "bch15_even": (bch15, 6, (4, 64, 255)),
        "bch15_odd": (bch15, 9, (4, 64, 255)),
        "bch15_last": (bch15, 14, (4, 128, 252)),
        "goppa256_even": (goppa256, 0, (4, 64, 255)),
        "goppa256_odd": (goppa256, 131, (4, 64, 255)),
        "goppa256_last": (goppa256, 255, (4, 128, 252)),
        "binary_goppa_2": (binary32, 17, (2,)),
        "binary_goppa_3": (binary32, 30, (3,)),
    }


ALPHABET_CASES = _alphabet_cases()


@pytest.mark.parametrize("name", sorted(ALPHABET_CASES))
def test_decoders_reject_symbols_outside_the_alphabet(name):
    # a symbol is read from the low bits of its byte, so without the check
    # the pair (0, 4) would read as (1, 0): a single error, decoded
    code, pos, bads = ALPHABET_CASES[name]
    dec = make_decoder(code)
    decoders = [dec.decode]
    if code.size() <= DEFAULT_BUDGET:
        # the oracle checks its input as the algebraic decoders do
        oracle = OracleDecoder(code, radius=dec.radius)
        decoders += [oracle.decode, lambda w: oracle_decode(code, w)]
    cw = code.encode([(3 * j + 1) % code.base_field.order for j in range(code.k)])
    for decode in decoders:
        for bad in bads + (300, -1):
            word = list(cw)
            word[pos] = bad
            if 0 <= bad < 256:
                word = bytes(word)
            with pytest.raises(RangeError):
                decode(word)
        with pytest.raises(ConfigError):
            decode(bytes(3))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_numpy_words_decode_as_their_bytes(bch15, bch15_dec, dtype):
    # bytes() of a numpy array copies its raw buffer, 8 bytes per int64 symbol
    F = build_field(6)
    goppa = goppa_build(F, None, find_irreducible(F, 4, seed=2), base=GF4)
    oracle = OracleDecoder(bch15, radius=2)
    cases = [(bch15, bch15_dec.decode), (goppa, GoppaDecoder(goppa).decode),
             (bch15, oracle.decode), (bch15, lambda w: oracle_decode(bch15, w))]
    for code, decode in cases:
        cw = code.encode([(3 * i + 1) % 4 for i in range(code.k)])
        for word in (cw, _add_error(cw, [3], [2])[0], _add_error(cw, [0, 5], [1, 3])[0]):
            res = decode(np.frombuffer(word, dtype=np.uint8).astype(dtype))
            assert res == decode(word)
            assert res.codeword is None or len(res.codeword) == code.n
        bad = np.zeros(code.n, dtype=dtype)
        bad[1] = 4
        with pytest.raises(RangeError):
            decode(bad)
        if dtype != np.uint8:
            bad[1] = -1
            with pytest.raises(RangeError):
                decode(bad)


@pytest.mark.parametrize("m", range(2, 21, 2))
def test_deg2_basis_solves_trace_zero_constants(m):
    F = build_field(m)
    roots = _deg2_basis(F)
    for c in np.random.default_rng(m).integers(0, F.order, size=200).tolist():
        trace = t = c
        for _ in range(m - 1):
            t = F.mul(t, t)
            trace ^= t
        assert trace in (0, 1)
        y = 0
        for i, r in enumerate(roots):
            if c >> i & 1:
                y ^= r
        # y^2 + y always has trace zero, so a trace-one c gets no root
        assert (F.mul(y, y) ^ y == c) == (trace == 0)


def test_goppa_quaternary_single_errors():
    F = build_field(6)
    G = find_irreducible(F, 2, seed=2)
    code = goppa_build(F, list(F.elements()), G, base=GF4)
    dec = GoppaDecoder(code)
    assert dec.radius == 1
    rng = np.random.default_rng(4)
    for _ in range(3):
        msg = [int(x) for x in rng.integers(0, 4, size=code.k)]
        cw = code.encode(msg)
        for i in range(0, 64, 5):
            for v in (1, 2, 3):
                rec, e = _add_error(cw, [i], [v])
                res = dec.decode(rec)
                assert res.ok and res.codeword == cw and res.error == e


def test_radius_zero_decoders_have_no_lookup():
    # d = 2: two single errors can share a packed syndrome, so a table keyed
    # on them would return a wrong codeword as a success
    F = build_field(4)
    for dec in (BchDecoder(bch_build(15, (1, 2))),
                GoppaDecoder(goppa_build(F, None, [1, 1], base=GF4))):
        code = dec.code
        assert dec.radius == 0 and not dec._single
        cw = code.encode([(3 * j + 1) % 4 for j in range(code.k)])
        for i in range(code.n):
            for v in (1, 2, 3):
                rec, _ = _add_error(cw, [i], [v])
                assert dec.decode(rec) == (None, None, "decode_failure", False)


def _lookup_cases():
    F4, F5 = build_field(4), build_field(5)
    codes = {
        "bch15_8_6": bch_build(15, (1, 6)),
        "bch15_10_4": bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2])),
        "goppa_binary32": goppa_build(F5, list(F5.elements()), find_irreducible(F5, 3, seed=1),
                                      base=GF2),
        # the locator 0 included
        "goppa_quaternary12": goppa_build(F4, list(F4.elements())[:12],
                                          find_irreducible(F4, 4, seed=1), base=GF4),
    }
    cases = {}
    for name, code in codes.items():
        bare = make_decoder(code)
        bare._single = {}
        cases[name] = (make_decoder(code), bare)
    return cases


LOOKUP_CASES = _lookup_cases()


@pytest.mark.parametrize("name", sorted(LOOKUP_CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_single_error_lookup_matches_algebraic_path(name, data):
    # words at Hamming distance 0-3 from a random codeword decode the same
    # with the single-error table and with the table emptied
    dec, bare = LOOKUP_CASES[name]
    code = dec.code
    q = code.base_field.order
    assert len(dec._single) == code.n * (q - 1)
    msg = data.draw(st.lists(st.integers(0, q - 1), min_size=code.k, max_size=code.k))
    pos = data.draw(st.lists(st.integers(0, code.n - 1), max_size=3, unique=True))
    vals = data.draw(st.lists(st.integers(1, q - 1), min_size=len(pos), max_size=len(pos)))
    rec, _ = _add_error(code.encode(msg), pos, vals)
    assert dec.decode(rec) == bare.decode(rec)


@pytest.mark.parametrize("name", ["goppa_binary32", "goppa_quaternary12"])
def test_goppa_errors_at_the_locator_0_decode(name):
    # the locator 0 reaches S_0 only, so its error value is read off what is
    # left of the syndrome: every pattern of weight <= radius that includes
    # it decodes to the sent word, with and without the single-error table
    dec, bare = LOOKUP_CASES[name]
    code = dec.code
    q = code.base_field.order
    z = dec.locators.index(0)
    others = [i for i in range(code.n) if i != z]
    cw = code.encode([(3 * j + 1) % q for j in range(code.k)])
    for w in range(dec.radius):
        for pos in itertools.combinations(others, w):
            for vals in itertools.product(range(1, q), repeat=w + 1):
                rec, e = _add_error(cw, (z,) + pos, vals)
                assert dec.decode(rec) == bare.decode(rec) == (cw, e, "success", False)


def _syndrome_probe(dec):
    # a copy of the decoder that hands back the packed syndrome of a word
    # outside the code, in place of decoding it
    probe = copy.copy(dec)
    probe._single = {}
    probe._decode_syndrome = lambda acc, received: acc
    return probe


SYNDROME_PROBES = {
    "bch15": _syndrome_probe(BCH_SCAN_CASES["15_delta8"][0]),
    "bch25_gf2_20": _syndrome_probe(BCH_SCAN_CASES["25_2_20"][0]),
    "bch63": _syndrome_probe(BCH_SCAN_CASES["63_delta16"][0]),
    "bch255": _syndrome_probe(BCH_SCAN_CASES["255_delta32"][0]),
    "goppa_binary64": _syndrome_probe(ROOT_SCAN_CASES["binary64"][0]),
    "goppa_quaternary12": _syndrome_probe(LOOKUP_CASES["goppa_quaternary12"][0]),
}


@pytest.mark.parametrize("name", sorted(SYNDROME_PROBES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pair_table_syndrome_is_the_sum_of_symbol_contributions(name, data):
    # the decoder reads each pair of positions, with a zero symbol in front
    # when n is odd, from one table; reference: one contribution per symbol
    probe = SYNDROME_PROBES[name]
    n, q = probe.n, probe.code.base_field.order
    word = bytes(b % q for b in data.draw(st.binary(min_size=n, max_size=n)))
    want = 0
    for per_sym, s in zip(probe._contrib, word):
        want ^= per_sym[s]
    assert probe.decode(word) == (want or (word, bytes(n), "success", False))


def test_early_stopped_berlekamp_massey_decodes_as_the_full_run():
    # BM stops after two zero discrepancies in a row once 2L <= r + 1.  A
    # success on that register stands, as the guard proves it; any other
    # outcome reruns the key equation with the stop off.  Reference: copies
    # of the decoders that always run it with the stop off.  Words: random
    # ones, and codewords plus 0..radius+3 errors.
    F = build_field(6)
    rng = np.random.default_rng(23)
    for code in (bch_build(15, (1, 8)),  # GF(2^4), radius 4
                 goppa_build(F, None, find_irreducible(F, 8, seed=1), base=GF4)):  # the locator 0
        dec = make_decoder(code)
        key_equation = type(dec)._decode_syndrome
        counted, full = copy.copy(dec), copy.copy(dec)
        stops = []  # the stop argument of each key-equation run of `counted`

        def count(acc, received, stop=True):
            stops.append(stop)
            return key_equation(counted, acc, received, stop)

        counted._decode_syndrome = count
        full._decode_syndrome = lambda acc, received: key_equation(full, acc, received, False)
        n, t = code.n, dec.radius
        for k in range(2000):
            if k % 2:
                rec = bytes(rng.integers(0, 4, size=n).tolist())
            else:
                cw = code.encode(rng.integers(0, 4, size=code.k).tolist())
                wt = int(rng.integers(0, t + 4))
                rec, _ = _add_error(cw, rng.choice(n, size=wt, replace=False),
                                    rng.integers(1, 4, size=wt))
            assert counted.decode(rec) == full.decode(rec)
        assert False in stops, "no rerun"


def test_bch_block25_decoding_offset_run():
    # the [25,2,20] defining set's longest root run starts at exponent 16,
    # and the locator field is GF(2^20): exercises the general-offset
    # syndrome/Forney path and wide packed syndromes
    code = bch_build(25, DefiningSet.from_cosets(25, [0, 1, 2, 5]))
    info = code.bch_info
    assert info.delta == 20 and info.b != 1
    assert info.field.m == 20
    dec = BchDecoder(code)
    assert dec.radius == 9
    rng = np.random.default_rng(6)
    for _ in range(15):
        msg = [int(x) for x in rng.integers(0, 4, size=code.k)]
        cw = code.encode(msg)
        wt = int(rng.integers(0, 10))
        pos = rng.choice(25, size=wt, replace=False)
        rec, e = _add_error(cw, pos, rng.integers(1, 4, size=wt))
        res = dec.decode(rec)
        assert res.ok and res.codeword == cw and res.error == e


def test_oracle_returns_member_itself():
    code = bch_build(15, (1, 6))
    cw = code.encode([1, 2, 3, 0, 1, 0, 2, 2])
    res = oracle_decode(code, cw)
    assert res.ok and res.codeword == cw


def test_oracle_agrees_with_bch_inside_radius(bch15, bch15_dec):
    oracle = OracleDecoder(bch15, radius=2)
    rng = np.random.default_rng(5)
    for _ in range(150):
        msg = [int(x) for x in rng.integers(0, 4, size=bch15.k)]
        cw = bch15.encode(msg)
        wt = int(rng.integers(0, 3))
        pos = rng.choice(15, size=wt, replace=False)
        rec, _ = _add_error(cw, pos, rng.integers(1, 4, size=wt))
        r1 = bch15_dec.decode(rec)
        r2 = oracle.decode(rec)
        assert r1.ok and r2.ok and r1.codeword == r2.codeword == cw


@pytest.mark.parametrize("n, spec", [
    (15, (1, 6)),                                    # locators of degree 1, 2
    (15, (1, 8)),                                    # degree >= 3: root scan
    (25, DefiningSet.from_cosets(25, [0, 1, 2, 5])),  # GF(2^20) locator field
], ids=["15_8_6", "15_delta8", "25_2_20"])
def test_bch_agrees_with_oracle_at_all_weights(n, spec):
    # inside the radius both decoders must succeed with the sent word;
    # beyond it the BCH decoder must fail exactly when no codeword lies
    # within the radius, and otherwise return that unique codeword
    code = bch_build(n, spec)
    dec = BchDecoder(code)
    oracle = OracleDecoder(code, radius=dec.radius)
    t = dec.radius
    rng = np.random.default_rng(n + t)
    outcomes = set()
    for _ in range(300):
        msg = [int(x) for x in rng.integers(0, 4, size=code.k)]
        cw = code.encode(msg)
        wt = int(rng.integers(0, 2 * t + 3))
        pos = rng.choice(n, size=wt, replace=False)
        rec, _ = _add_error(cw, pos, rng.integers(1, 4, size=wt))
        got, want = dec.decode(rec), oracle.decode(rec)
        assert got.ok == want.ok and got.codeword == want.codeword
        outcomes.add((wt <= t, got.ok))
    assert {(True, True), (False, False)} <= outcomes


def test_oracle_agrees_with_bch_across_enumeration_chunks():
    # [15,10,4] has 2^20 codewords: too many to cache, so the oracle scans
    # sixteen 2^16-word chunks
    code = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))
    assert code.size() == 1 << 20
    dec = BchDecoder(code)
    oracle = OracleDecoder(code, radius=dec.radius)
    rng = np.random.default_rng(21)
    for wt in (0, 1) * 6:
        msg = [int(x) for x in rng.integers(0, 4, size=code.k)]
        cw = code.encode(msg)
        pos = rng.choice(15, size=wt, replace=False)
        rec, _ = _add_error(cw, pos, rng.integers(1, 4, size=wt))
        got, want = dec.decode(rec), oracle.decode(rec)
        assert got.ok and want.ok and got.codeword == want.codeword == cw


def test_oracle_tie_flag():
    rep = LinearCode(GF4, [bytes([1, 1, 1])], d_lower=3, d_tag="declared")
    res = oracle_decode(rep, bytes([1, 2, 0]))
    assert not res.ok and res.tie


def test_oracle_decoder_repetition():
    rep = LinearCode(GF4, [bytes([1, 1, 1])], d_lower=3, d_tag="declared")
    dec = OracleDecoder(rep, radius=1)
    for v in (1, 2, 3):
        cw = bytes([v, v, v])
        for i in range(3):
            rec, e = _add_error(cw, [i], [2])
            res = dec.decode(rec)
            assert res.ok and res.codeword == cw


def test_oracle_radius_enforced():
    rep = LinearCode(GF4, [bytes([1, 1, 1])], d_lower=3, d_tag="declared")
    with pytest.raises(ConfigError):
        OracleDecoder(rep, radius=2)


def test_oracle_budget():
    code = bch_build(63, DefiningSet.from_cosets(63, [0, 1, 2, 3, 5]))
    with pytest.raises(BudgetError):
        OracleDecoder(code, radius=3)


def test_make_decoder_dispatch():
    assert make_decoder(bch_build(15, (1, 4))).method == "bch"
    F = build_field(5)
    g = goppa_build(F, list(F.elements()), find_irreducible(F, 2, seed=0), base=GF2)
    assert make_decoder(g).method == "goppa"
    rep = LinearCode(GF4, [bytes([1, 1, 1])], d_lower=3, d_tag="declared")
    assert make_decoder(rep).method == "oracle"


def test_decoder_never_returns_invalid_word(bch15, bch15_dec):
    rng = np.random.default_rng(8)
    for _ in range(300):
        rec = bytes(int(x) for x in rng.integers(0, 4, size=15))
        res = bch15_dec.decode(rec)
        if res.ok:
            assert bch15.contains(res.codeword)
