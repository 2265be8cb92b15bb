import itertools
import random
import tracemalloc

import numpy as np
import pytest

from srcodes.errors import ConstructionError, EmbedError, RangeError
from srcodes.gf2m import (
    DEFAULT_MODULI,
    FieldContext,
    GF2,
    GF4,
    build_field,
    gf4_embedding,
    gf4_expansion,
    poly_add,
    poly_deg,
    poly_divmod,
    poly_eea,
    poly_gcd,
    poly_is_irreducible,
    poly_mul,
    vec_scale,
    vec_xor,
)
from srcodes.gf2m import _doubling_tables


def _tables(F):
    """Full mul table as a numpy array, built from exp/log."""
    q = F.order
    mul = np.zeros((q, q), dtype=np.int64)
    for a in range(1, q):
        for b in range(1, q):
            mul[a, b] = F.exp[(F.log[a] + F.log[b]) % (q - 1)]
    return mul


@pytest.mark.parametrize("m", range(1, 9))
def test_field_axioms_exhaustive(m):
    F = build_field(m)
    q = F.order
    mul = _tables(F)
    idx = np.arange(q)
    # Frobenius additivity over all pairs: (a+b)^2 = a^2 + b^2
    a = idx[:, None]
    b = idx[None, :]
    sq = mul[idx, idx]
    assert np.array_equal(mul[a ^ b, a ^ b], sq[:, None] ^ sq[None, :])
    # distributivity over all triples, one slice of a at a time
    for av in range(q):
        lhs = mul[av, a ^ b]
        rhs = mul[av, a] ^ mul[av, b]
        assert np.array_equal(lhs, rhs)
    # a^(2^m) = a via m squarings
    v = idx.copy()
    for _ in range(m):
        v = mul[v, v]
    assert np.array_equal(v, idx)


@pytest.mark.parametrize("m", sorted(DEFAULT_MODULI))
def test_exp_log_roundtrip_and_generator_order(m):
    F = build_field(m)
    n = F.order - 1
    if m <= 14:
        assert all(F.exp[F.log[a]] == a for a in F.nonzero())
    else:
        assert all(F.exp[F.log[a]] == a for a in list(F.nonzero())[:2000])
    # generator order is exactly 2^m - 1
    g = F.generator
    assert F.pow(g, n) == 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            assert F.pow(g, n // d) != 1
        d += 1
    if n > 1:
        assert F.pow(g, 1) != 1


def _reference_tables(m, modulus, g):
    """exp and log by stepping x -> x*g, one element at a time."""
    n = (1 << m) - 1
    exp, log = [0] * n, [-1] * (n + 1)
    x = 1
    for i in range(n):
        exp[i], log[x] = x, i
        if g == 2:
            x <<= 1
            if x >> m & 1:
                x ^= modulus
        else:
            y, x = x, 0
            for bit in range(g.bit_length()):
                if g >> bit & 1:
                    x ^= y
                y <<= 1
                if y >> m & 1:
                    y ^= modulus
    return exp, log


@pytest.mark.parametrize("m, modulus", sorted(DEFAULT_MODULI.items()) + [(8, 0x11B)])
def test_tables_match_reference_loop(m, modulus):
    F = build_field(m, modulus)
    assert F.generator == (3 if modulus == 0x11B else 1 if m == 1 else 2)
    exp, log = _reference_tables(m, modulus, F.generator)
    # lists for small fields, 4-byte arrays for large ones
    assert list(F.exp) == exp
    assert list(F.log) == log


@pytest.mark.parametrize("m, modulus", sorted(
    (m, mod) for m, mod in DEFAULT_MODULI.items() if m <= 15) + [(8, 0x11B)])
def test_python_tables_equal_numpy_doubling(m, modulus):
    # fields below GF(2^16) are built in Python; numpy's doubling builder,
    # which builds the larger ones, gives the same tables for them
    F = FieldContext(m, modulus)
    exp, log = _doubling_tables(m, F.generator, modulus)
    assert type(F.exp) is type(F.log) is list
    assert F.exp == exp.tolist()
    assert F.log == log.tolist()


def test_large_field_tables_are_compact():
    # GF(2^20)'s two tables as lists of ints held 76 MB
    tracemalloc.start()
    try:
        F = FieldContext(20)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 16 << 20
    assert F.exp.itemsize == F.log.itemsize == 4


@pytest.mark.parametrize("m", range(1, 9))
def test_mul_rows_hold_every_product(m):
    F = build_field(m)
    rows = F.mul_rows
    assert len(rows) == F.order and rows[0] == bytes(F.order)
    assert all(rows[a][b] == F.mul(a, b) for a in F.elements() for b in F.elements())


def test_mul_rows_are_shared_and_only_built_up_to_gf256():
    # decoders read the rows of their cached field; the larger fields have none
    from srcodes.codes import bch_build
    from srcodes.hamdec import BchDecoder
    first, second = BchDecoder(bch_build(15, (1, 6))), BchDecoder(bch_build(15, (1, 8)))
    assert first._rows is second._rows is build_field(4).mul_rows
    assert build_field(16).mul_rows is None and build_field(20).mul_rows is None


def test_gf4_is_the_unique_field():
    assert GF4.mul(2, 2) == 3          # w * w = w^2 = w + 1
    assert GF4.mul(2, 3) == 1          # w * w^2 = 1
    assert GF4.inv(2) == 3
    assert GF4.add(1, 2) == 3


def test_characteristic_two_identities():
    F = build_field(6)
    for a in (0, 1, 7, 33, 62):
        assert F.mul(a, 1) == a
        assert F.add(a, a) == 0


def test_generator_order_63_example():
    F = build_field(6)
    g = F.generator
    assert F.pow(g, 63) == 1
    assert F.pow(g, 21) != 1
    assert F.pow(g, 9) != 1


def test_reducible_modulus_rejected():
    with pytest.raises(ConstructionError):
        FieldContext(2, 0b101)  # x^2 + 1 = (x+1)^2


@pytest.mark.parametrize("m, count", enumerate([2, 1, 2, 3, 6, 9, 18, 30, 56, 99], start=1))
def test_irreducible_counts_over_gf2(m, count):
    # the number of irreducible binary polynomials of each degree (OEIS A001037)
    polys = ([c >> i & 1 for i in range(m)] + [1] for c in range(1 << m))
    assert sum(poly_is_irreducible(GF2, f) for f in polys) == count


@pytest.mark.parametrize("m, degree, count", [
    (2, 1, 4), (2, 2, 6), (2, 3, 20), (2, 4, 60), (2, 5, 204),
    (4, 1, 16), (4, 2, 120), (4, 3, 1360),
])
def test_irreducible_counts_over_gf4(m, degree, count):
    # monic irreducibles over GF(q): (1/d) * sum over e | d of mu(e) q^(d/e);
    # GF(16) rows too, so the test is not over GF(4) alone
    F = build_field(m)
    polys = (list(c) + [1] for c in itertools.product(range(F.order), repeat=degree))
    assert sum(poly_is_irreducible(F, f) for f in polys) == count


def test_degree_out_of_range():
    with pytest.raises(RangeError):
        build_field(0)
    with pytest.raises(RangeError):
        build_field(21)


def test_frobenius():
    assert GF4.frobenius(0) == 0
    assert GF4.frobenius(1) == 1
    assert GF4.frobenius(2) == 3
    for a in range(4):
        assert GF4.frobenius(GF4.frobenius(a)) == a
    F = build_field(8)
    for a in (5, 77, 200):
        assert F.frobenius(a) == F.mul(a, a)


@pytest.mark.parametrize("h", [2, 3, 5])
def test_gf4_embedding_is_a_homomorphism(h):
    T = build_field(2 * h)
    img = gf4_embedding(T)
    assert img[0] == 0 and img[1] == 1
    assert T.pow(img[2], 3) == 1 and img[2] != 1
    for a in range(4):
        for b in range(4):
            assert img[GF4.mul(a, b)] == T.mul(img[a], img[b])
            assert img[a ^ b] == img[a] ^ img[b]


def test_embed_image_in_gf64():
    F = build_field(6)
    assert gf4_embedding(F)[2] == F.exp[21]


def test_embed_rejects_odd_degree():
    with pytest.raises(EmbedError):
        gf4_embedding(build_field(5))


def test_gf4_expansion_roundtrip():
    # coords is a bijection onto GF(4)^h and GF(4)-linear:
    # coords(img[s] a + b) = s coords(a) + coords(b)
    rng = random.Random(5)
    for m in (2, 4, 6, 10):
        T = build_field(m)
        exp4 = gf4_expansion(T)
        img = gf4_embedding(T)
        coords = [exp4.coords(e) for e in T.elements()]
        assert all(len(c) == m // 2 and max(c) < 4 for c in coords)
        assert len(set(coords)) == T.order
        for _ in range(300):
            a, b, s = rng.randrange(T.order), rng.randrange(T.order), rng.randrange(4)
            want = tuple(GF4.mul(s, x) ^ y for x, y in zip(coords[a], coords[b]))
            assert coords[T.mul(img[s], a) ^ b] == want


def test_poly_eea_first_step_returns_g():
    F = GF4
    f = [1, 2, 0, 1]
    g = [3, 1]
    r, u, v = poly_eea(F, f, g, poly_deg(g) + 1)
    assert (r, u, v) == (g, [], [1])


def test_poly_eea_bezout_identity():
    rng = np.random.default_rng(0)
    F = build_field(4)
    for _ in range(100):
        f = [int(x) for x in rng.integers(0, 16, size=7)]
        g = [int(x) for x in rng.integers(0, 16, size=4)]
        while g and g[-1] == 0:
            g.pop()
        if not g:
            continue
        stop = int(rng.integers(0, 4))
        r, u, v = poly_eea(F, f, g, stop)
        assert poly_add(poly_mul(F, u, f), poly_mul(F, v, g)) == r
        assert poly_deg(r) < stop or stop > poly_deg(g)


def test_poly_gcd_over_gf2():
    assert poly_gcd(GF2, [0, 1, 1], [1, 1]) == [1, 1]  # gcd(x^2+x, x+1) = x+1


def test_key_equation_weight_one_error():
    # deg-2 Goppa modulus, single error: EEA with stop 1 gives a degree-1 locator
    F = build_field(4)
    G = None
    for c0 in range(1, 16):
        cand = [c0, 1, 1]
        if poly_is_irreducible(F, cand):
            G = cand
            break
    assert G is not None
    alpha, value = 9, 3
    # S(z) = value / (z - alpha) mod G, built from the defining congruence
    rem, _, v = poly_eea(F, G, [alpha, 1], 1)
    S = [F.div(F.mul(value, c), rem[0]) for c in v]
    r, u, sigma = poly_eea(F, G, S, 1)
    assert poly_deg(sigma) == 1
    # its root is the error locator
    lead_inv = F.inv(sigma[-1])
    assert F.mul(sigma[0], lead_inv) == alpha


def test_poly_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(GF4, [1, 2], [])


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        GF4.inv(0)


def test_vector_helpers():
    a = bytes([0, 1, 2, 3])
    b = bytes([1, 1, 0, 2])
    assert vec_xor(a, b) == bytes([1, 0, 2, 1])
    for u, v in ((a, b[:3]), (b[:3], a)):
        with pytest.raises(RangeError):
            vec_xor(u, v)
    assert vec_scale(a, 2) == bytes([0, 2, 3, 1])
    assert vec_scale(a, 1) == a
