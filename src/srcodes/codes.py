"""Hamming-metric component codes over GF(4) and GF(2).

Covers cyclotomic cosets, quaternary BCH codes of any length n | 4^h - 1,
binary/quaternary Goppa codes, additive quaternary codes, and the generic
linear-code utilities (encoding, membership, exhaustive minimum distance).
Codewords are byte strings of symbol values.
"""

from functools import reduce
from itertools import compress
from operator import xor

from .errors import BudgetError, ConstructionError, RangeError
from .gf2m import (
    GF2,
    GF4,
    build_field,
    gf2_insert,
    gf2_reduce,
    gf4_embedding,
    gf4_expansion,
    poly_deg,
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_is_irreducible,
    poly_mul,
    poly_trim,
    vec_checked,
    vec_scale,
)

DEFAULT_BUDGET = 1 << 22


# ----------------------------------------------------------------------
# cyclotomic cosets and defining sets
# ----------------------------------------------------------------------

def cyclotomic_coset(s, q, n):
    """The q-cyclotomic coset of s modulo n, as a sorted tuple."""
    import math

    if n < 1:
        raise RangeError(f"coset modulus {n} is not a positive integer")
    if q < 2:
        raise RangeError(f"field size {q} is below 2")
    if math.gcd(q, n) != 1:
        raise ConstructionError(f"gcd({q}, {n}) != 1; cosets are not well defined")
    s %= n
    out = {s}
    t = s * q % n
    while t != s:
        out.add(t)
        t = t * q % n
    return tuple(sorted(out))


def coset_closure(exponents, q, n):
    out = set()
    for s in exponents:
        out.update(cyclotomic_coset(s, q, n))
    return frozenset(out)


def longest_cyclic_run(exponents, n):
    """Longest run of consecutive residues mod n inside the set.

    Returns (start, length); length == n means the set is everything.
    """
    s = set(exponents)
    if len(s) == n:
        return 0, n
    if not s:
        return 0, 0
    # two laps see every wrap-around run whole; a gap exists, so runs < n
    best_start, best_len, cur_len = 0, 0, 0
    for i in range(2 * n):
        if i % n in s:
            cur_len += 1
            if cur_len > best_len:
                best_len = cur_len
                best_start = (i - cur_len + 1) % n
        else:
            cur_len = 0
    return best_start, best_len


class DefiningSet:
    """A set of residues mod n closed under multiplication by 4."""

    def __init__(self, n, exponents):
        self.n = n
        self.exponents = frozenset(e % n for e in exponents)
        if coset_closure(self.exponents, 4, n) != self.exponents:
            raise ConstructionError(
                f"defining set {sorted(self.exponents)} is not closed under x4 mod {n}")

    @classmethod
    def from_cosets(cls, n, leaders):
        return cls(n, coset_closure(leaders, 4, n))

    @property
    def designed_distance(self):
        _, run = longest_cyclic_run(self.exponents, self.n)
        return run + 1

    def __len__(self):
        return len(self.exponents)

    def __repr__(self):
        return f"DefiningSet(n={self.n}, |T|={len(self.exponents)}, delta={self.designed_distance})"


# ----------------------------------------------------------------------
# linear algebra over GF(2) and GF(4) on packed rows
# ----------------------------------------------------------------------

def rref(field, rows):
    """Reduced row echelon form over GF(2) or GF(4) of rows of symbol values:
    (reduced, pivots), the nonzero reduced rows as bytes and their pivots.

    A row is two ints, lo and hi, with bit 0 and bit 1 of each symbol at the
    foot of its byte, the first column most significant.  Scaling by w maps
    (lo, hi) to (hi, lo ^ hi), and clearing a column costs two XORs; over
    GF(2), hi is 0.
    """
    rows = [bytes(r) for r in rows]
    n = len(rows[0]) if rows else 0
    ones = int.from_bytes(b"\x01" * n, "big")
    packed = [int.from_bytes(r, "big") for r in rows]
    if field.order not in (2, 4) or any(
            len(r) != n or x & ~(ones * (field.order - 1)) for r, x in zip(rows, packed)):
        raise RangeError("rref takes rows of one length over GF(2) or GF(4)")
    rest = [(x & ones, x >> 1 & ones) for x in packed]
    done = []
    while any(lo | hi for lo, hi in rest):
        # the row reaching furthest left gives the next pivot, scaled to 1
        lead = [(lo | hi).bit_length() for lo, hi in rest]
        lo, hi = rest.pop(lead.index(max(lead)))
        b = (lo | hi).bit_length() - 1
        if hi >> b & 1:  # the pivot is w^2 (times w) or w (times w^2)
            lo, hi = (hi, lo ^ hi) if lo >> b & 1 else (lo ^ hi, lo)
        multiples = (None, (lo, hi), (hi, lo ^ hi), (lo ^ hi, lo))
        for part in (done, rest):
            for i, (x, y) in enumerate(part):
                f = (x >> b & 1) | (y >> b & 1) << 1
                if f:
                    mx, my = multiples[f]
                    part[i] = (x ^ mx, y ^ my)
        done.append((lo, hi))
    return ([(lo | hi << 1).to_bytes(n, "big") for lo, hi in done],
            [n - 1 - (lo | hi).bit_length() // 8 for lo, hi in done])


def nullspace(reduced, pivots, ncols):
    """Right kernel of a matrix in the reduced form rref returns, as bytes:
    per free column f, a 1 at f and column f at the pivots (char 2: -a = a).

    Transposes by strided bytes slices: the matrix's free columns, read as
    rows, hold the kernel's pivot columns, and the kernel is then laid out
    column by column and read back a row at a time.
    """
    free = sorted(set(range(ncols)) - set(pivots))
    k, rank = len(free), len(pivots)
    matrix = b"".join(reduced)
    free_cols = b"".join(matrix[f::ncols] for f in free)  # k x rank
    columns = [b""] * ncols
    for j, p in enumerate(pivots):
        columns[p] = free_cols[j::rank]
    for i, f in enumerate(free):
        columns[f] = bytes(i) + b"\x01" + bytes(k - 1 - i)
    by_column = b"".join(columns)  # ncols x k
    return [by_column[i::k] for i in range(k)]


# ----------------------------------------------------------------------
# code objects
# ----------------------------------------------------------------------

class _Code:
    """What linear and additive codes share: the distance bookkeeping,
    encoding through the GF(2) generators packed into ints, and membership.
    A subclass sets n and f2_generators before calling __init__.

    Immutable after construction apart from d_exact, which caches a
    certified minimum distance once one has been computed, and two lazy
    caches derived from the generators: _echelon, built by the first
    contains call, and _codeword_matrix (see iter_codeword_chunks).
    """

    bch_info = goppa_info = None  # set by bch_build and goppa_build
    _echelon = None

    def __init__(self, d_lower, d_tag):
        self.d_designed = d_lower
        self.d_tag = d_tag
        self.d_exact = None
        # one int per GF(2) generator: XOR of the ints adds the vectors
        self._packed = tuple(int.from_bytes(g, "big") for g in self.f2_generators)

    @property
    def f2_dimension(self):
        return len(self._packed)

    @property
    def d_lower(self):
        """Best available lower bound on the minimum distance."""
        if not self._packed:
            return None
        return self.d_exact if self.d_exact is not None else self.d_designed

    def encode_f2(self, bits):
        """Encode message bits, one per entry of f2_generators."""
        return _xor_selected(self._packed, _checked_message(bits, self.f2_dimension), self.n)

    def size(self):
        return 1 << self.f2_dimension

    def contains(self, word):
        """Whether the word, of length n, reduces to zero against the GF(2)
        echelon of the generators; RangeError for a symbol outside the field."""
        if len(word) != self.n:
            return False
        if self._echelon is None:
            echelon = []
            for v in self._packed:
                gf2_insert(echelon, v)
            self._echelon = echelon
        word = vec_checked(word, self.base_field.order)
        return not gf2_reduce(self._echelon, int.from_bytes(word, "big"))


class LinearCode(_Code):
    """A linear [n, k] code over GF(2) or GF(4).

    Without parity rows, the generator rows must be independent and the
    parity matrix is their kernel; parity rows passed in are trusted.
    parity_matrix is data for callers: membership, like encoding, reads
    the generators, and their echelon is cached lazily as _Code says.
    """

    kind = "linear"

    def __init__(self, base_field, generator_rows, parity_rows=None,
                 d_lower=1, d_tag="declared"):
        self.base_field = base_field
        rows = [bytes(r) for r in generator_rows]
        if rows:
            self.n = len(rows[0])
            if any(len(r) != self.n for r in rows):
                raise ConstructionError("generator rows of unequal length")
        else:
            if not parity_rows:
                raise ConstructionError("zero code needs explicit parity rows")
            self.n = len(parity_rows[0])
        self.k = len(rows)
        self.generator_matrix = tuple(rows)
        if parity_rows is None:
            reduced, pivots = rref(base_field, rows)
            if len(pivots) != self.k:
                raise ConstructionError("generator rows are linearly dependent")
            parity_rows = nullspace(reduced, pivots, self.n)
        self.parity_matrix = tuple(bytes(r) for r in parity_rows)
        super().__init__(d_lower, d_tag)

    # -- basic operations --------------------------------------------------

    @property
    def f2_generators(self):
        """GF(2)-generators: each row and, over GF(4), its w-multiple."""
        scales = (1, 2) if self.base_field.order == 4 else (1,)
        return [vec_scale(g, s) for g in self.generator_matrix for s in scales]

    def encode(self, message):
        """Sum of symbol_i * row_i: bit 0 of a symbol adds g, bit 1 adds w*g."""
        msg = _checked_message(message, self.k, self.base_field.order)
        if self.base_field.order == 4:
            msg = [s >> j & 1 for s in msg for j in (0, 1)]
        return _xor_selected(self._packed, msg, self.n)

    def __repr__(self):
        d = self.d_exact if self.d_exact is not None else self.d_designed
        q = self.base_field.order
        return f"[{self.n},{self.k},{d}]_{q} ({self.d_tag})"


class AdditiveCode(_Code):
    """A GF(2)-linear (additive) code inside GF(4)^n.

    Stored through a GF(2)-independent generator list; the quaternary
    "dimension" is f2_dimension / 2 and may be half-integral.  Membership
    is _Code's, against the generators' echelon, built on the first call.
    """

    kind = "additive"
    base_field = GF4

    def __init__(self, n, f2_generators, d_lower=1, d_tag="declared", dropped=0):
        self.n = n
        self.f2_generators = tuple(bytes(g) for g in f2_generators)
        super().__init__(d_lower, d_tag)
        self.dropped = dropped

    @property
    def k(self):
        return self.f2_dimension / 2

    encode = _Code.encode_f2

    def __repr__(self):
        d = self.d_exact if self.d_exact is not None else self.d_designed
        return f"({self.n}, 4^{self.f2_dimension / 2}, {d})_4 additive ({self.d_tag})"


def _xor_selected(packed, bits, n):
    """Sum of the packed rows whose bit is set, as an n-byte vector."""
    return reduce(xor, compress(packed, bits), 0).to_bytes(n, "big")


def _checked_message(message, length, order=2):
    """The message as bytes; RangeError unless it has `length` symbols below order."""
    msg = vec_checked(message, order)
    if len(msg) != length:
        raise RangeError(f"message length {len(msg)} != {length}")
    return msg


def additive_build(generators, d_lower=1, d_tag="declared"):
    """Reduce the given GF(4) vectors to a GF(2)-independent generator set.

    Dependent vectors are dropped; their count is kept on the result.
    """
    gens = [vec_checked(g, 4) for g in generators]
    if gens and any(len(g) != len(gens[0]) for g in gens):
        raise ConstructionError("generators of unequal length")
    n = len(gens[0]) if gens else 0
    rows = []
    kept = [g for g in gens if gf2_insert(rows, int.from_bytes(g, "big"))]
    return AdditiveCode(n, kept, d_lower=d_lower, d_tag=d_tag,
                        dropped=len(gens) - len(kept))


# ----------------------------------------------------------------------
# BCH codes over GF(4)
# ----------------------------------------------------------------------

MAX_LOCATOR_EXPONENT = 10


def bch_locator_exponent(n):
    """Smallest h <= 10 with n | 4^h - 1."""
    if n < 1:
        raise RangeError(f"code length {n} is not a positive integer")
    for h in range(1, MAX_LOCATOR_EXPONENT + 1):
        if (4 ** h - 1) % n == 0:
            return h
    raise RangeError(f"{n} does not divide 4^h - 1 for any h <= {MAX_LOCATOR_EXPONENT}")


class BchInfo:
    def __init__(self, h, field, alpha, b, delta, defining_set):
        self.h = h
        self.field = field          # GF(4^h)
        self.alpha = alpha          # element of order n
        self.b = b                  # start of the longest consecutive root run
        self.delta = delta          # designed distance = run length + 1
        self.defining_set = defining_set


def bch_build(n, spec):
    """Quaternary BCH code of length n from a defining set.

    spec is either a DefiningSet or a pair (b, delta), which expands to the
    union of cosets C_b, ..., C_{b+delta-2}.
    """
    h = bch_locator_exponent(n)
    if isinstance(spec, DefiningSet):
        if spec.n != n:
            raise ConstructionError("defining set modulus mismatch")
        T = spec
    else:
        b, delta = spec
        if delta < 2:
            raise ConstructionError("designed distance must be at least 2")
        T = DefiningSet.from_cosets(n, range(b, b + delta - 1))
    exps = T.exponents
    if len(exps) == n:
        raise ConstructionError("defining set covers every residue; code is zero")

    field = build_field(2 * h)
    alpha = field.pow(field.generator, (field.order - 1) // n)
    img = gf4_embedding(field)
    back = {img[s]: s for s in range(4)}

    g = [1]
    for j in sorted(exps):
        g = poly_mul(field, g, [field.pow(alpha, j), 1])
    try:
        g4 = [back[c] for c in g]
    except KeyError:  # pragma: no cover - closure of T makes this impossible
        raise AssertionError("generator coefficients left the embedded GF(4)")

    k = n - len(exps)
    gen_rows = [bytes([0] * i + g4 + [0] * (n - len(g4) - i)) for i in range(k)]

    # parity rows from h(x) = (x^n - 1)/g(x), reversed and shifted
    xn1 = [1] + [0] * (n - 1) + [1]
    hq, rem = poly_divmod(GF4, xn1, g4)
    assert not rem, "generator does not divide x^n - 1"
    hrev = list(reversed(hq))
    par_rows = [bytes([0] * i + hrev + [0] * (n - len(hrev) - i)) for i in range(n - k)]

    b_run, run = longest_cyclic_run(exps, n)
    code = LinearCode(GF4, gen_rows, parity_rows=par_rows,
                      d_lower=run + 1, d_tag="bch-bound")
    code.bch_info = BchInfo(h, field, alpha, b_run, run + 1, T)
    return code


def best_bch_dimension(n, delta):
    """Largest BCH dimension at length n with designed distance >= delta.

    Any valid defining set contains the closure of some run of delta - 1
    consecutive residues, so scanning all runs is exhaustive.

    Returns (k, DefiningSet); k = 0 with T = everything if delta is
    unachievable by a nonzero code.
    """
    if delta < 2:
        return n, DefiningSet(n, ())
    best_size, best_T = n, frozenset(range(n))
    for b in range(n):
        T = coset_closure(range(b, b + delta - 1), 4, n)
        if len(T) < best_size:
            best_size, best_T = len(T), T
    return n - best_size, DefiningSet(n, best_T)


def bch_dim_lower_bound(m, d1):
    """Dimension bound for the block-length 4^m - 1 pair with d1 = 2*d2."""
    if d1 % 2 != 0 or d1 < 2:
        raise RangeError("the bound assumes an even designed distance d1 = 2*d2")
    return 2 * (2 * 4 ** m - 2 - m * (3 * d1 // 2 - 2))


# ----------------------------------------------------------------------
# Goppa codes
# ----------------------------------------------------------------------

class GoppaInfo:
    def __init__(self, field, locators, gpoly, base_order, separable):
        self.field = field
        self.locators = tuple(locators)
        self.gpoly = tuple(gpoly)
        self.base_order = base_order
        self.separable = separable  # gcd(G, G') = 1


def goppa_build(field, locators, gpoly, base=GF2):
    """Goppa code with locator set L in GF(2^m) and polynomial G(z).

    base selects the subfield the code lives over: GF(2) for binary Goppa
    codes (with the doubled separable distance bound) or GF(4).  When
    locators is None, every field element that is not a root of G is used.
    """
    gpoly = poly_trim(list(gpoly))
    if locators is not None:
        locators = list(locators)
    if not all(0 <= v < field.order for v in gpoly + (locators or [])):
        raise ConstructionError(f"a locator or coefficient of G lies outside GF(2^{field.m})")
    r = poly_deg(gpoly)
    if r < 1:
        raise ConstructionError("Goppa polynomial must have degree >= 1")
    if locators is None:
        locators = [a for a in field.elements() if poly_eval(field, gpoly, a) != 0]
    if len(set(locators)) != len(locators):
        raise ConstructionError("duplicate locators")
    gvals = [poly_eval(field, gpoly, a) for a in locators]
    if 0 in gvals:
        raise ConstructionError("a locator is a root of the Goppa polynomial")
    n = len(locators)
    separable = poly_deg(poly_gcd(field, gpoly, poly_derivative(gpoly))) == 0
    if base.order == 2 and separable:
        d_lower, tag = 2 * r + 1, "separable-goppa-bound"
    else:
        d_lower, tag = r + 1, "goppa-bound"
    zero_code = f"the Goppa code of degree {r} on {n} locators is the zero code"
    if d_lower > n:  # a nonzero code has distance at most n
        raise ConstructionError(zero_code)

    # row j holds a^j / G(a) at each locator a; each entry is written as its
    # m_rel coordinates over the base, one expanded row per coordinate
    ginv = [field.inv(g) for g in gvals]
    big_rows = [[field.mul(field.pow(a, j), gi) for a, gi in zip(locators, ginv)]
                for j in range(r)]
    if base.order == 2:
        m_rel, coords = field.m, (lambda v: [v >> t & 1 for t in range(field.m)])
    elif base.order == 4:
        exp4 = gf4_expansion(field)
        m_rel, coords = exp4.h, exp4.coords
    else:
        raise ConstructionError("base field must be GF(2) or GF(4)")
    expanded = [bits for row in big_rows for bits in zip(*map(coords, row))]

    parity_rows, pivots = rref(base, expanded)
    gen_rows = nullspace(parity_rows, pivots, n)
    if len(gen_rows) < n - m_rel * r:
        raise AssertionError("Goppa dimension fell below the n - m*deg(G) bound")
    if not gen_rows:
        raise ConstructionError(zero_code)

    code = LinearCode(base, gen_rows, parity_rows=parity_rows, d_lower=d_lower, d_tag=tag)
    code.goppa_info = GoppaInfo(field, locators, gpoly, base.order, separable)
    return code


def find_irreducible(field, degree, seed=0):
    """Deterministic search for a monic irreducible polynomial over the field.

    The candidates' low coefficients are the stream of numpy's
    `default_rng(seed).integers(0, field.order, size=degree)`, called until
    one is irreducible, reproduced on the standard library: the polynomial
    depends on the seed alone, not on the installed numpy.  The seed is a
    non-negative integer.
    """
    if not isinstance(seed, int) or seed < 0:
        raise RangeError(f"seed must be a non-negative integer, got {seed!r}")
    if degree < 1:
        raise ConstructionError(f"an irreducible polynomial needs degree >= 1, got {degree}")
    draws = _uniform_draws(seed, field.order)
    while True:
        f = [next(draws) for _ in range(degree)] + [1]
        if poly_is_irreducible(field, f):
            return f


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _seed_words(seed):
    """The four 64-bit words numpy's SeedSequence(seed) hands to PCG64: the
    seed's 32-bit words are hashed into a pool of four, mixed together, and
    the pool is hashed out again (O'Neill's seed_seq_fe)."""
    def hasher(h, mult):
        def hashmix(v):  # the multiplier h moves on at every call
            nonlocal h
            v ^= h
            h = h * mult & _M32
            v = v * h & _M32
            return v ^ v >> 16
        return hashmix

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    out = list(map(hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    return [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]


def _uniform_draws(seed, high):
    """Endless draws in [0, high), 2 <= high <= 2^32, equal to those of
    consecutive numpy `default_rng(seed).integers(0, high, size)` calls.

    PCG64 is a 128-bit LCG whose XSL-RR output gives 64 bits per step,
    handed out as 32-bit words low half first; a draw is Lemire's bounded
    multiply of one word, rejected while its low 32 bits fall below
    2^32 mod high.
    """
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    w = _seed_words(seed)
    inc = (w[2] << 65 | w[3] << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * mult + inc) & _M128
    threshold = (1 << 32) % high
    while True:
        state = (state * mult + inc) & _M128
        rot = state >> 122
        x = (state >> 64 ^ state) & _M64
        x = (x >> rot | x << (64 - rot)) & _M64
        for word in (x & _M32, x >> 32):
            prod = word * high
            if prod & _M32 >= threshold:
                yield prod >> 32


# ----------------------------------------------------------------------
# exhaustive minimum distance
# ----------------------------------------------------------------------

_CHUNK_BITS = 16
_MATERIALIZE_LIMIT = 1 << 18


def iter_codeword_chunks(code):
    """Yield (chunk, holds_zero) numpy uint8 arrays covering every codeword.

    The all-zero codeword appears exactly once, as row 0 of the first chunk,
    and the rows always come in the same order.  A code of at most 2^18
    words is built once, cached read-only on the code, and yielded as a
    single chunk; larger codes are generated 2^16 words at a time.
    """
    import numpy as np

    matrix = getattr(code, "_codeword_matrix", None)
    if matrix is None and code.size() <= _MATERIALIZE_LIMIT:
        matrix = np.concatenate([c for c, _ in _generate_chunks(code)])
        matrix.setflags(write=False)
        code._codeword_matrix = matrix
    if matrix is not None:
        yield matrix, True
    else:
        yield from _generate_chunks(code)


def _generate_chunks(code):
    # low generators span the chunk; high ones step through a Gray code
    import numpy as np

    gens = list(code.f2_generators)
    n = code.n
    low = min(len(gens), _CHUNK_BITS)
    W = np.zeros((1, n), dtype=np.uint8)
    for g in gens[:low]:
        ga = np.frombuffer(g, dtype=np.uint8)
        W = np.concatenate([W, W ^ ga])
    yield W, True
    high = np.zeros(n, dtype=np.uint8)
    for i in range(1, 1 << (len(gens) - low)):
        bit = (i & -i).bit_length() - 1
        high = high ^ np.frombuffer(gens[low + bit], dtype=np.uint8)
        yield W ^ high, False


def nearest_codeword(code, received, budget, exclude_zero=False):
    """Nearest codeword to the byte vector received in the Hamming metric,
    by enumeration.

    The first minimum in iter_codeword_chunks order is the witness;
    exclude_zero drops the all-zero codeword.  Returns (distance, tie,
    word), with tie set when the minimum is not unique.
    """
    if 1 << code.f2_dimension > budget:
        raise BudgetError(f"2^{code.f2_dimension} codewords exceed the budget {budget}")
    import numpy as np

    rec = np.frombuffer(received, dtype=np.uint8)
    best, tie, word = None, False, None
    for chunk, holds_zero in iter_codeword_chunks(code):
        dist = np.count_nonzero(chunk != rec, axis=1)
        if exclude_zero and holds_zero:
            dist[0] = code.n + 1
        i = int(np.argmin(dist))
        di = int(dist[i])
        if best is None or di < best:
            best, word = di, bytes(chunk[i])
            tie = int(np.count_nonzero(dist == di)) > 1
        elif di == best:
            tie = True
    return best, tie, word


def min_distance_bruteforce(code, budget=DEFAULT_BUDGET):
    """Exact minimum Hamming weight over all nonzero codewords.

    Certifies the result by exhaustive enumeration, caches it in d_exact,
    and returns (distance, witness codeword).
    """
    if code.f2_dimension == 0:
        raise ValueError("the zero code has no minimum distance")
    best, _, witness = nearest_codeword(code, bytes(code.n), budget, exclude_zero=True)
    code.d_exact = best
    if best < code.d_designed:
        raise AssertionError("certified distance fell below the designed bound")
    return best, witness
