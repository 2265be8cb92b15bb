import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srcodes.errors import BudgetError, ConfigError, RangeError
from srcodes.gf2m import GF2, GF4, build_field, poly_eea, poly_eval, poly_mul
from srcodes.codes import (
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
    F6, F8 = build_field(6), build_field(8)
    locators90 = [int(a) for a in np.random.default_rng(90).permutation(256)[:90]]
    cases = {
        # all 64 locators, 0 among them; radius 5
        "binary64": goppa_build(F6, None, find_irreducible(F6, 5, seed=2), base=GF2),
        # 90 shuffled locators, 0 not among them; radius 5
        "quaternary90": goppa_build(F8, locators90, find_irreducible(F8, 10, seed=3),
                                    base=GF4),
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
    # sigma = c * prod (x - a) over a locator subset, sometimes times a
    # factor with no roots; reference: poly_eval at every locator
    dec, rootless = ROOT_SCAN_CASES[name]
    F = dec.field
    n, t = dec.n, dec.radius
    roots = data.draw(st.sets(st.integers(0, n - 1), max_size=t))
    sigma = [data.draw(st.integers(1, F.order - 1))]
    for i in roots:
        sigma = poly_mul(F, sigma, [dec.locators[i], 1])
    extra = [f for f in rootless if len(sigma) + len(f) - 2 <= t]
    if extra and data.draw(st.booleans()):
        sigma = poly_mul(F, sigma, data.draw(st.sampled_from(extra)))
    brute = [i for i, a in enumerate(dec.locators) if poly_eval(F, sigma, a) == 0]
    assert brute == sorted(roots)
    assert dec._roots(sigma) == brute


@pytest.mark.parametrize("name", sorted(ROOT_SCAN_CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_goppa_key_equation_matches_poly_eea(name, data):
    # reference: gf2m.poly_eea, which also keeps the quotient and the
    # modulus's cofactor
    dec, _ = ROOT_SCAN_CASES[name]
    F = dec.field
    # a syndrome polynomial of degree below deg(modulus)
    S = (data.draw(st.lists(st.integers(0, F.order - 1), max_size=dec._dM - 1))
         + [data.draw(st.integers(1, F.order - 1))])
    omega, _, sigma = poly_eea(F, dec._modulus, S, dec._stop)
    assert dec._key_equation(list(S)) == (omega, sigma)


def test_decoders_reject_symbols_outside_the_alphabet(bch15, bch15_dec):
    for bad in (bytes([4]) + bytes(14), [-1] + [0] * 14):
        with pytest.raises(RangeError):
            bch15_dec.decode(bad)
    F = build_field(5)
    code = goppa_build(F, list(F.elements()), find_irreducible(F, 3, seed=1), base=GF2)
    for bad in (bytes([2]) + bytes(31), [-1] + [0] * 31):
        with pytest.raises(RangeError):
            GoppaDecoder(code).decode(bad)
    # the oracle checks its input as the algebraic decoders do
    oracle = OracleDecoder(bch15, radius=2)
    for decode in (oracle.decode, lambda w: oracle_decode(bch15, w)):
        for bad in (bytes([7]) + bytes(14), [300] + [0] * 14, [-1] + [0] * 14):
            with pytest.raises(RangeError):
                decode(bad)
        with pytest.raises(ConfigError):
            decode(bytes(3))
    with pytest.raises(RangeError):
        OracleDecoder(code, radius=3).decode(bytes([2]) + bytes(31))


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
    (15, (1, 8)),                                    # degree >= 3: Chien scan
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
