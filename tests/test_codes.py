import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srcodes.errors import BudgetError, ConstructionError, RangeError
from srcodes.gf2m import (GF2, GF4, build_field, gf2_insert, gf2_reduce, gf4_embedding,
                          poly_eval, vec_scale, vec_xor)
from srcodes.codes import (
    DefiningSet,
    LinearCode,
    additive_build,
    bch_build,
    bch_dim_lower_bound,
    best_bch_dimension,
    cyclotomic_coset,
    find_irreducible,
    goppa_build,
    longest_cyclic_run,
    min_distance_bruteforce,
    nullspace,
    rref,
)
from srcodes.cli import packaged_code
from srcodes.sumrank import goppa_pair_dimension


# ----------------------------------------------------------------------
# cosets and defining sets
# ----------------------------------------------------------------------

def test_coset_examples():
    assert cyclotomic_coset(0, 4, 15) == (0,)
    assert cyclotomic_coset(1, 4, 63) == (1, 4, 16)
    assert cyclotomic_coset(5, 4, 25) == (5, 20)


def test_coset_requires_coprime():
    with pytest.raises(ConstructionError):
        cyclotomic_coset(1, 4, 8)
    for n in (0, -1):
        with pytest.raises(RangeError):
            cyclotomic_coset(1, 4, n)
    for q in (1, 0, -1):
        with pytest.raises(RangeError):
            cyclotomic_coset(1, q, 15)


def test_defining_set_closure():
    T = DefiningSet.from_cosets(15, [1, 2])
    assert T.exponents == frozenset({1, 4, 2, 8})
    with pytest.raises(ConstructionError):
        DefiningSet(15, {1})  # 4 missing


def test_longest_cyclic_run_wraps():
    assert longest_cyclic_run({14, 0, 1}, 15) == (14, 3)
    assert longest_cyclic_run(set(), 15) == (0, 0)
    assert longest_cyclic_run(set(range(15)), 15) == (0, 15)
    # all nonzero residues: the run wraps nothing but spans 1..14
    assert longest_cyclic_run(set(range(1, 25)), 25)[1] == 24


# ----------------------------------------------------------------------
# BCH construction
# ----------------------------------------------------------------------

def test_bch_block63_dimensions():
    c2 = bch_build(63, DefiningSet.from_cosets(63, [0, 1, 2, 3, 5]))
    assert (c2.n, c2.k, c2.d_designed, c2.d_tag) == (63, 50, 7, "bch-bound")
    c1 = bch_build(63, DefiningSet.from_cosets(63, [0, 1, 2, 3, 5, 6, 7, 9, 10, 11]))
    assert (c1.k, c1.d_designed) == (35, 14)


def test_bch_block25_codes():
    rep = bch_build(25, DefiningSet(25, range(1, 25)))
    assert (rep.k, rep.d_designed) == (1, 25)
    assert min_distance_bruteforce(rep)[0] == 25
    c = bch_build(25, DefiningSet.from_cosets(25, [0, 1, 2, 5]))
    assert (c.k, c.d_designed) == (2, 20)
    assert len(c.bch_info.defining_set) == 23


def test_bch_dimension_identity():
    for n, leaders, k in [(63, [0, 1, 2, 3, 5], 50),
                          (15, [1, 2, 3, 5], 8),
                          (15, [5, 6], 12)]:
        T = DefiningSet.from_cosets(n, leaders)
        code = bch_build(n, T)
        assert code.k == n - len(T)


def test_bch_root_property():
    rng = np.random.default_rng(3)
    code = bch_build(15, (1, 6))
    info = code.bch_info
    F, alpha = info.field, info.alpha
    img = gf4_embedding(F)
    for _ in range(10):
        msg = [int(x) for x in rng.integers(0, 4, size=code.k)]
        cw = code.encode(msg)
        lifted = [img[s] for s in cw]
        for j in info.defining_set.exponents:
            assert poly_eval(F, lifted, F.pow(alpha, j)) == 0


def test_bch_generator_parity_orthogonal():
    code = bch_build(15, (1, 6))
    for g in code.generator_matrix:
        for h in code.parity_matrix:
            acc = 0
            for a, b in zip(g, h):
                acc ^= GF4.mul(a, b)
            assert acc == 0


def test_bch_designed_distance_sound_on_bruteforceable():
    code = bch_build(15, (1, 6))
    d, witness = min_distance_bruteforce(code)
    assert d == 6 and code.d_exact == 6
    assert d >= code.d_designed
    assert sum(1 for s in witness if s) == 6


def test_min_distance_across_enumeration_chunks():
    code = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))  # 2^20 words
    d, witness = min_distance_bruteforce(code)
    assert d == 4 and code.contains(witness)
    assert sum(1 for s in witness if s) == d


def test_designed_distance_sound_by_sampling_large_code():
    # [63,35,14] is far beyond enumeration; sampled codeword weights stand in
    rng = np.random.default_rng(12)
    code = bch_build(63, DefiningSet.from_cosets(63, [0, 1, 2, 3, 5, 6, 7, 9, 10, 11]))
    assert (code.k, code.d_designed) == (35, 14)
    for _ in range(10_000):
        msg = rng.integers(0, 4, size=code.k)
        if not msg.any():
            continue
        cw = code.encode([int(x) for x in msg])
        assert 63 - cw.count(0) >= 14


def test_bch_length_must_divide():
    with pytest.raises(RangeError):
        bch_build(23, (1, 3))  # 4 has order 11 > 10 modulo 23
    for n in (0, -1):   # -1 divides every 4^h - 1, and 0 none
        with pytest.raises(RangeError):
            bch_build(n, (1, 3))


def test_bch_rejects_unclosed_set():
    with pytest.raises(ConstructionError):
        bch_build(15, DefiningSet(15, {1}))


def test_best_bch_dimension_block15():
    expected = {2: 14, 3: 12, 4: 10, 5: 9, 6: 8, 7: 7, 8: 5,
                9: 4, 10: 4, 11: 3, 12: 2, 13: 1, 14: 1, 15: 1}
    for delta, k in expected.items():
        got, T = best_bch_dimension(15, delta)
        assert got == k
        assert T.designed_distance >= delta


def test_bch_dim_lower_bound_values():
    assert bch_dim_lower_bound(2, 6) == 2 * 16
    assert bch_dim_lower_bound(2, 2) == 2 * 28
    assert bch_dim_lower_bound(3, 14) == 2 * 69
    with pytest.raises(RangeError):
        bch_dim_lower_bound(2, 5)


# ----------------------------------------------------------------------
# row reduction
# ----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rref_and_nullspace_properties(data):
    field = data.draw(st.sampled_from([GF2, GF4]), label="field")
    q = field.order
    ncols = data.draw(st.integers(1, 40), label="ncols")
    row = st.lists(st.integers(0, q - 1), min_size=ncols, max_size=ncols).map(bytes)
    # up to 12 random rows, then zero, repeated and dependent ones: the
    # matrix comes out tall or wide
    rows = data.draw(st.lists(row, min_size=1, max_size=12), label="rows")
    extras = st.tuples(st.sampled_from(["zero", "repeat", "sum"]), st.integers(0, 99),
                       st.integers(0, 99), st.integers(1, q - 1))
    for kind, i, j, s in data.draw(st.lists(extras, max_size=8), label="extras"):
        a, b = rows[i % len(rows)], rows[j % len(rows)]
        rows.append({"zero": bytes(ncols), "repeat": a, "sum": vec_xor(vec_scale(a, s), b)}[kind])
    rows = data.draw(st.permutations(rows), label="order")

    reduced, pivots = rref(field, rows)
    # reduced echelon form: a leading 1 per row, alone in its column
    assert pivots == sorted(set(pivots)) and len(reduced) == len(pivots)
    for k, p in enumerate(pivots):
        assert not any(reduced[k][:p])
        assert [r[p] for r in reduced] == [int(i == k) for i in range(len(reduced))]
    # the input rows lie in the span of the output rows ...
    for v in rows:
        for r, p in zip(reduced, pivots):
            v = vec_xor(v, vec_scale(r, v[p]))
        assert not any(v)
    # ... and the output rows in the GF(4)-span of the input rows, which is
    # the GF(2)-span of the rows and their w-multiples
    span = []
    for v in rows:
        for s in (1, 2)[:q // 2]:
            gf2_insert(span, int.from_bytes(vec_scale(v, s), "big"))
    assert all(gf2_reduce(span, int.from_bytes(r, "big")) == 0 for r in reduced)

    kernel = nullspace(reduced, pivots, ncols)
    assert len(pivots) + len(kernel) == ncols
    assert len(rref(field, kernel)[1]) == len(kernel)
    for k in kernel:
        for v in rows:
            acc = 0
            for a, b in zip(k, v):
                acc ^= field.mul(a, b)
            assert acc == 0


def test_rref_rejects_bad_matrices():
    with pytest.raises(RangeError):
        rref(GF2, [bytes([0, 2, 1])])
    with pytest.raises(RangeError):
        rref(GF4, [bytes([1, 4])])
    with pytest.raises(RangeError):
        rref(GF4, [bytes([1, 2]), bytes([1])])
    with pytest.raises(RangeError):
        rref(build_field(4), [bytes([1, 2])])


# md5 of the generator rows, "|", then the parity rows, recorded before rref
# worked on packed rows; a matrix has only one reduced echelon form
GOPPA_MATRIX_MD5 = {
    "binary32": (5, 3, 1, GF2, "2b0b91c04f962083f4a1c2d0b1ec52aa"),
    "quaternary64": (6, 4, 2, GF4, "1960c1d237260d95475ff2020da68186"),
    "goppa256-channel-c2": (8, 16, 4, GF4, "0bbf92720ebdb8ad9a19a929f5e39d4f"),
}


@pytest.mark.parametrize("name", sorted(GOPPA_MATRIX_MD5))
def test_goppa_matrices_golden(name):
    import hashlib

    m, degree, seed, base, digest = GOPPA_MATRIX_MD5[name]
    F = build_field(m)
    code = goppa_build(F, None, find_irreducible(F, degree, seed=seed), base=base)
    data = b"".join(code.generator_matrix) + b"|" + b"".join(code.parity_matrix)
    assert hashlib.md5(data).hexdigest() == digest


# ----------------------------------------------------------------------
# Goppa construction
# ----------------------------------------------------------------------

def test_binary_goppa_32():
    F = build_field(5)
    G = find_irreducible(F, 3, seed=1)
    code = goppa_build(F, list(F.elements()), G, base=GF2)
    assert code.n == 32 and code.k >= 17
    assert code.d_designed == 7 and code.d_tag == "separable-goppa-bound"


def test_quaternary_goppa_64():
    F = build_field(6)
    G = find_irreducible(F, 2, seed=2)
    code = goppa_build(F, list(F.elements()), G, base=GF4)
    assert code.n == 64 and code.k >= 58
    assert code.d_designed == 3 and code.d_tag == "goppa-bound"


def test_goppa_parameters_match_dimension_bound():
    F = build_field(6)
    for r, seed in [(4, 5), (9, 7)]:
        G = find_irreducible(F, r, seed=seed)
        code = goppa_build(F, list(F.elements()), G, base=GF4)
        assert code.k >= 64 - 3 * r
        assert code.d_designed == r + 1


def test_goppa_congruence_on_codewords():
    from srcodes.gf2m import poly_add, poly_eea, poly_scale

    rng = np.random.default_rng(4)
    F = build_field(5)
    G = find_irreducible(F, 3, seed=1)
    code = goppa_build(F, list(F.elements()), G, base=GF2)
    for _ in range(5):
        msg = [int(x) for x in rng.integers(0, 2, size=code.k)]
        cw = code.encode(msg)
        acc = []
        for ci, ai in zip(cw, code.goppa_info.locators):
            if ci:
                rem, _, v = poly_eea(F, list(G), [ai, 1], 1)
                acc = poly_add(acc, poly_scale(F, v, F.inv(rem[0])))
        assert acc == []


def test_goppa_rejects_bad_input():
    F = build_field(5)
    with pytest.raises(ConstructionError):
        goppa_build(F, [0, 1, 2], [0, 1], base=GF2)  # G(0) = 0
    G = find_irreducible(F, 2, seed=0)
    with pytest.raises(ConstructionError):
        goppa_build(F, [1, 1, 2], G, base=GF2)  # duplicate locator
    for degree in (0, -2):   # a degree-0 search would never end
        with pytest.raises(ConstructionError):
            find_irreducible(F, degree)
    with pytest.raises(ConstructionError, match="zero code"):
        goppa_build(build_field(3), None, find_irreducible(build_field(3), 10), base=GF2)


@pytest.mark.parametrize("seed", [-1, 1.5, "x", None])
def test_find_irreducible_rejects_seeds_that_are_not_counts(seed):
    # None would be a fresh random polynomial on every call
    with pytest.raises(RangeError, match="seed"):
        find_irreducible(build_field(4), 2, seed=seed)


# the (field, degree, seed) triples of the benchmark's Goppa pair and the
# golden matrices, as recorded with numpy 2.4.6's generator
IRREDUCIBLE_POLYS = {
    (5, 3, 1): [30, 1, 4, 1],
    (6, 4, 2): [26, 52, 28, 5, 1],
    (8, 16, 4): [173, 223, 56, 139, 86, 230, 15, 122, 229, 110, 35, 201, 246, 251, 238, 94, 1],
    (8, 24, 3): [107, 110, 170, 150, 44, 188, 193, 244, 201, 72, 81, 166, 166, 178, 222, 74,
                 240, 0, 19, 249, 241, 76, 35, 80, 1],
}


@pytest.mark.parametrize("m, degree, seed", sorted(IRREDUCIBLE_POLYS))
def test_find_irreducible_golden(m, degree, seed):
    want = IRREDUCIBLE_POLYS[m, degree, seed]
    assert find_irreducible(build_field(m), degree, seed=seed) == want


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 130), high=st.integers(2, 2 ** 32),
       sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4))
def test_uniform_draws_match_numpy(seed, high, sizes):
    # find_irreducible's stream equals numpy's over consecutive integers() calls
    from itertools import islice

    from srcodes.codes import _uniform_draws

    rng, draws = np.random.default_rng(seed), _uniform_draws(seed, high)
    for size in sizes:
        assert list(islice(draws, size)) == rng.integers(0, high, size=size).tolist()


def test_goppa_flexible_length():
    F = build_field(5)
    G = find_irreducible(F, 2, seed=3)
    code = goppa_build(F, list(F.elements())[:20], G, base=GF2)
    assert code.n == 20 and code.k >= 20 - 10


def test_goppa_table_arithmetic():
    expected = {(5, 5): 49, (5, 18): 12, (5, 22): 7, (5, 26): 2,
                (6, 5): 110, (7, 5): 235}
    for (m, d), dim_half in expected.items():
        got, plan = goppa_pair_dimension(m, d)
        assert got == dim_half
        assert plan[0] in ("pair", "single")


# ----------------------------------------------------------------------
# additive codes
# ----------------------------------------------------------------------

def test_additive_from_linear():
    lin = LinearCode(GF4, [bytes([1, 2, 3])], d_lower=3, d_tag="declared")
    add = additive_build(lin.f2_generators, d_lower=lin.d_lower)
    assert add.f2_dimension == 2
    assert add.k == 1


def test_additive_gf2_rank():
    add = additive_build([bytes([1, 0]), bytes([2, 0]), bytes([0, 1])])
    assert add.f2_dimension == 3
    assert abs(add.k - 1.5) < 1e-12


def test_additive_drops_dependent():
    add = additive_build([bytes([1, 0]), bytes([1, 0]), bytes([0, 1])])
    assert add.f2_dimension == 2 and add.dropped == 1


def test_additive_empty_is_zero_code():
    add = additive_build([])
    assert add.f2_dimension == 0
    assert add.d_lower is None


def test_symbols_outside_the_field_are_range_errors():
    with pytest.raises(RangeError):
        additive_build([[7, 0], [1, 1]])
    bad = bytes([9]) + bytes(14)
    bch = bch_build(15, (1, 4))
    F = build_field(5)
    binary = goppa_build(F, None, find_irreducible(F, 3, seed=1), base=GF2)
    additive = additive_build(bch.f2_generators, d_lower=bch.d_lower)
    for code, word in ((bch, bad), (additive, bad),
                       (binary, bytes([2]) + bytes(binary.n - 1))):
        with pytest.raises(RangeError):
            code.contains(word)
        assert not code.contains(bytes(code.n - 1))


def test_additive_closure_property():
    rng = np.random.default_rng(9)
    gens = [bytes(int(x) for x in rng.integers(0, 4, size=10)) for _ in range(5)]
    add = additive_build(gens)
    words = []
    for mask in range(1 << add.f2_dimension):
        bits = [(mask >> j) & 1 for j in range(add.f2_dimension)]
        words.append(add.encode(bits))
    wset = set(words)
    for _ in range(50):
        a, b = rng.integers(0, len(words), size=2)
        s = bytes(x ^ y for x, y in zip(words[a], words[b]))
        assert s in wset
        assert add.contains(s)


# ----------------------------------------------------------------------
# encoding and generic utilities
# ----------------------------------------------------------------------

def test_encode_zero_and_unit_messages():
    code = bch_build(15, (1, 6))
    assert code.encode([0] * code.k) == bytes(15)
    for i in range(code.k):
        msg = [0] * code.k
        msg[i] = 1
        assert code.encode(msg) == code.generator_matrix[i]


def test_encode_passes_parity():
    rng = np.random.default_rng(5)
    code = bch_build(15, (1, 6))
    for _ in range(20):
        msg = [int(x) for x in rng.integers(0, 4, size=code.k)]
        assert code.contains(code.encode(msg))


def test_encode_length_mismatch():
    code = bch_build(15, (1, 6))
    with pytest.raises(RangeError):
        code.encode([0] * (code.k + 1))


def test_encode_rejects_symbols_outside_the_alphabet():
    code = bch_build(15, (1, 6))
    for bad in (4, -1, 256, 1.0):
        with pytest.raises(RangeError):
            code.encode([bad] + [0] * (code.k - 1))
    F = build_field(5)
    binary = goppa_build(F, None, find_irreducible(F, 3, seed=1), base=GF2)
    with pytest.raises(RangeError):
        binary.encode([2] + [0] * (binary.k - 1))
    add = additive_build(code.f2_generators, d_lower=code.d_lower)
    for bad in (2, -1):
        with pytest.raises(RangeError):
            add.encode([bad] + [0] * (add.f2_dimension - 1))
        with pytest.raises(RangeError):
            code.encode_f2([bad] + [0] * (code.f2_dimension - 1))


def _encoding_codes():
    F = build_field(5)
    bch = bch_build(15, (1, 6))
    return {
        "bch15-gf4": bch,
        "bch63-gf4": bch_build(63, DefiningSet.from_cosets(63, [0, 1, 2, 3, 5])),
        "goppa32-gf2": goppa_build(F, None, find_irreducible(F, 3, seed=1), base=GF2),
        "goppa64-gf4": goppa_build(build_field(6), None,
                                   find_irreducible(build_field(6), 2, seed=2), base=GF4),
        "additive-of-bch15": additive_build(bch.f2_generators, d_lower=bch.d_lower),
        "additive-random": additive_build(
            [bytes(int(x) for x in np.random.default_rng(s).integers(0, 4, size=12))
             for s in range(9)]),
    }


ENCODING_CODES = _encoding_codes()


@pytest.mark.parametrize("name", sorted(ENCODING_CODES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_packed_encode_matches_row_sums(name, data):
    # reference: one vec_scale and one vec_xor per message symbol or bit
    code = ENCODING_CODES[name]
    bits = data.draw(st.lists(st.integers(0, 1), min_size=code.f2_dimension,
                              max_size=code.f2_dimension))
    expected = bytes(code.n)
    for b, g in zip(bits, code.f2_generators):
        if b:
            expected = vec_xor(expected, g)
    assert code.encode_f2(bits) == expected
    if hasattr(code, "generator_matrix"):
        q = code.base_field.order
        syms = data.draw(st.lists(st.integers(0, q - 1), min_size=code.k, max_size=code.k))
        expected = bytes(code.n)
        for s, row in zip(syms, code.generator_matrix):
            expected = vec_xor(expected, vec_scale(row, s))
        assert code.encode(syms) == expected
    else:
        assert code.encode(bits) == code.encode_f2(bits)


def _parity_syndrome(code, word):
    """H·w over the base field, one parity row at a time: the reference for contains."""
    mul = code.base_field.mul
    out = []
    for h in code.parity_matrix:
        acc = 0
        for a, b in zip(h, word):
            if a and b:
                acc ^= mul(a, b)
        out.append(acc)
    return bytes(out)


MEMBERSHIP_CODES = {
    **{name: ENCODING_CODES[name]
       for name in ("bch15-gf4", "bch63-gf4", "goppa32-gf2", "goppa64-gf4")},
    "linear_12_8_4": packaged_code("linear_12_8_4.code"),
    "zero": LinearCode(GF4, [], parity_rows=[bytes([0] * i + [1] + [0] * (5 - i))
                                             for i in range(6)]),
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_CODES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_contains_is_the_parity_check(name, data):
    # codewords, codewords plus an error of weight 1..4, and raw words
    code = MEMBERSHIP_CODES[name]
    assert all(map(code.contains, code.f2_generators))
    q, n, k2 = code.base_field.order, code.n, code.f2_dimension
    kind = data.draw(st.sampled_from(["codeword", "codeword+error", "raw"]))
    if kind == "raw":
        word = bytes(data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
    else:
        word = code.encode_f2(data.draw(st.lists(st.integers(0, 1), min_size=k2,
                                                 max_size=k2)))
    if kind == "codeword+error":
        error = bytearray(n)
        for i in data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4)):
            error[i] = data.draw(st.integers(1, q - 1))
        word = vec_xor(word, bytes(error))
    assert code.contains(word) == (not any(_parity_syndrome(code, word)))
    if kind == "codeword":
        assert code.contains(word)


def test_min_distance_budget():
    code = bch_build(63, DefiningSet.from_cosets(63, [0, 1, 2, 3, 5]))
    with pytest.raises(BudgetError):
        min_distance_bruteforce(code)


def test_min_distance_zero_code_undefined():
    zero = LinearCode(GF4, [], parity_rows=[[1, 0], [0, 1]], d_lower=1)
    with pytest.raises(ValueError):
        min_distance_bruteforce(zero)
