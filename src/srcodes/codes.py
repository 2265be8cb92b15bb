"""Hamming-metric component codes over GF(4) and GF(2).

Covers cyclotomic cosets, quaternary BCH codes of any length n | 4^h - 1,
binary/quaternary Goppa codes, additive quaternary codes, and the generic
linear-code utilities (encoding, membership, scaling, exhaustive minimum
distance).  Codewords are byte strings of symbol values.
"""

from functools import reduce
from itertools import compress
from operator import xor

import numpy as np

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
    vec_scale,
)

DEFAULT_BUDGET = 1 << 22


# ----------------------------------------------------------------------
# cyclotomic cosets and defining sets
# ----------------------------------------------------------------------

def cyclotomic_coset(s, q, n):
    """The q-cyclotomic coset of s modulo n, as a sorted tuple."""
    import math

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
    """A set of residues mod n closed under multiplication by q."""

    def __init__(self, n, exponents, q=4):
        self.n = n
        self.q = q
        self.exponents = frozenset(e % n for e in exponents)
        closed = coset_closure(self.exponents, q, n)
        if closed != self.exponents:
            raise ConstructionError(
                f"defining set {sorted(self.exponents)} is not closed under x{q} mod {n}")

    @classmethod
    def from_cosets(cls, n, leaders, q=4):
        return cls(n, coset_closure(leaders, q, n), q=q)

    @property
    def designed_distance(self):
        _, run = longest_cyclic_run(self.exponents, self.n)
        return run + 1

    @property
    def run(self):
        return longest_cyclic_run(self.exponents, self.n)

    def __len__(self):
        return len(self.exponents)

    def __repr__(self):
        return f"DefiningSet(n={self.n}, |T|={len(self.exponents)}, delta={self.designed_distance})"


# ----------------------------------------------------------------------
# linear algebra over a small field (rows as lists of symbol values)
# ----------------------------------------------------------------------

def rref(field, rows):
    """Reduced row echelon form in place; returns the list of pivot columns."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x ^ field.mul(f, y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    del rows[r:]
    return pivots


def nullspace(field, rows, ncols):
    """Basis of the right kernel of the matrix, as lists of symbol values."""
    work = [list(r) for r in rows]
    pivots = rref(field, work)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = work[r][f]  # char 2: -a = a
        basis.append(v)
    return basis


# ----------------------------------------------------------------------
# code objects
# ----------------------------------------------------------------------

class LinearCode:
    """A linear [n, k] code over GF(2) or GF(4).

    Immutable after construction apart from d_exact, which caches a
    certified minimum distance once one has been computed.
    """

    kind = "linear"

    def __init__(self, base_field, generator_rows, parity_rows=None,
                 d_lower=1, d_tag="declared", check=True):
        self.base_field = base_field
        rows = [bytes(r) for r in generator_rows]
        if rows:
            self.n = len(rows[0])
            if any(len(r) != self.n for r in rows):
                raise ConstructionError("generator rows of unequal length")
        else:
            if parity_rows is None:
                raise ConstructionError("zero code needs explicit parity rows")
            self.n = len(parity_rows[0])
        self.k = len(rows)
        self.generator_matrix = tuple(rows)
        if check and rows:
            work = [list(r) for r in rows]
            if len(rref(base_field, work)) != self.k:
                raise ConstructionError("generator rows are linearly dependent")
        if parity_rows is None:
            parity_rows = nullspace(base_field, [list(r) for r in rows], self.n)
        self.parity_matrix = tuple(bytes(r) for r in parity_rows)
        if check:
            self._spot_check_parity()
        self.d_designed = d_lower
        self.d_tag = d_tag
        self.d_exact = None
        self.bch_info = None
        self.goppa_info = None
        # one int per GF(2) generator: XOR of the ints adds the vectors
        self._packed = tuple(int.from_bytes(g, "big") for g in self.f2_generators)

    def _spot_check_parity(self):
        mul = self.base_field.mul
        gen = self.generator_matrix
        rows = gen if len(gen) * len(self.parity_matrix) <= 4096 else gen[:3]
        for g in rows:
            for h in self.parity_matrix:
                acc = 0
                for a, b in zip(g, h):
                    if a and b:
                        acc ^= mul(a, b)
                if acc:
                    raise ConstructionError("generator/parity matrices inconsistent")

    # -- basic operations --------------------------------------------------

    @property
    def d_lower(self):
        """Best available lower bound on the minimum distance."""
        if self.k == 0:
            return None
        return self.d_exact if self.d_exact is not None else self.d_designed

    @property
    def f2_dimension(self):
        return self.k * self.base_field.m

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

    def encode_f2(self, bits):
        """Encode message bits, one per entry of f2_generators."""
        return _xor_selected(self._packed, _checked_message(bits, self.f2_dimension), self.n)

    def syndrome(self, word):
        mul = self.base_field.mul
        out = []
        for h in self.parity_matrix:
            acc = 0
            for a, b in zip(h, word):
                if a and b:
                    acc ^= mul(a, b)
            out.append(acc)
        return bytes(out)

    def contains(self, word):
        if len(word) != self.n:
            return False
        return not any(self.syndrome(word))

    def size(self):
        return self.base_field.order ** self.k

    def __repr__(self):
        d = self.d_exact if self.d_exact is not None else self.d_designed
        q = self.base_field.order
        return f"[{self.n},{self.k},{d}]_{q} ({self.d_tag})"


class AdditiveCode:
    """A GF(2)-linear (additive) code inside GF(4)^n.

    Stored through a GF(2)-independent generator list; the quaternary
    "dimension" is f2_dimension / 2 and may be half-integral.
    """

    kind = "additive"

    def __init__(self, n, f2_generators, d_lower=1, d_tag="declared", dropped=0):
        self.n = n
        self.f2_generators = tuple(bytes(g) for g in f2_generators)
        self.f2_dimension = len(self.f2_generators)
        self.d_designed = d_lower
        self.d_tag = d_tag
        self.d_exact = None
        self.dropped = dropped
        self._packed = tuple(int.from_bytes(g, "big") for g in self.f2_generators)
        self._echelon = []
        for v in self._packed:
            gf2_insert(self._echelon, v)

    @property
    def base_field(self):
        return GF4

    @property
    def k(self):
        return self.f2_dimension / 2

    @property
    def d_lower(self):
        if self.f2_dimension == 0:
            return None
        return self.d_exact if self.d_exact is not None else self.d_designed

    def encode(self, bits):
        return _xor_selected(self._packed, _checked_message(bits, self.f2_dimension), self.n)

    encode_f2 = encode

    def contains(self, word):
        if len(word) != self.n:
            return False
        return not self.syndrome(word)

    def syndrome(self, word):
        # reduction residue doubles as a membership syndrome
        return gf2_reduce(self._echelon, int.from_bytes(bytes(word), "big"))

    def size(self):
        return 1 << self.f2_dimension

    def __repr__(self):
        d = self.d_exact if self.d_exact is not None else self.d_designed
        return f"({self.n}, 4^{self.f2_dimension / 2}, {d})_4 additive ({self.d_tag})"


def _xor_selected(packed, bits, n):
    """Sum of the packed rows whose bit is set, as an n-byte vector."""
    return reduce(xor, compress(packed, bits), 0).to_bytes(n, "big")


def _checked_message(message, length, order=2):
    """The message as bytes; RangeError unless it has `length` symbols below order."""
    msg = list(message)
    if len(msg) != length:
        raise RangeError(f"message length {len(msg)} != {length}")
    try:
        out = bytes(msg)
    except (TypeError, ValueError):
        out = None
    if out is None or out.translate(None, bytes(range(order))):
        raise RangeError(f"message symbols must lie in 0..{order - 1}")
    return out


def additive_build(generators, d_lower=1, d_tag="declared"):
    """Reduce the given GF(4) vectors to a GF(2)-independent generator set.

    Dependent vectors are dropped; their count is kept on the result.
    """
    gens = [bytes(g) for g in generators]
    if gens and any(len(g) != len(gens[0]) for g in gens):
        raise ConstructionError("generators of unequal length")
    n = len(gens[0]) if gens else 0
    rows = []
    kept = [g for g in gens if gf2_insert(rows, int.from_bytes(g, "big"))]
    return AdditiveCode(n, kept, d_lower=d_lower, d_tag=d_tag,
                        dropped=len(gens) - len(kept))


def as_additive(code):
    """View a linear code as an additive one (linear is a special case)."""
    if isinstance(code, AdditiveCode):
        return code
    return additive_build(
        code.f2_generators,
        d_lower=code.d_exact if code.d_exact is not None else code.d_designed,
        d_tag="exact" if code.d_exact is not None else code.d_tag,
    )


def scale_code(v, code):
    """The coordinatewise multiple v * C for a nonzero GF(4) scalar v."""
    if v == 0:
        raise RangeError("scaling by zero collapses the code")
    if v == 1:
        return code
    if isinstance(code, AdditiveCode):
        out = AdditiveCode(code.n, [vec_scale(g, v) for g in code.f2_generators],
                           d_lower=code.d_designed, d_tag=code.d_tag)
    else:
        out = LinearCode(code.base_field,
                         [vec_scale(g, v) for g in code.generator_matrix],
                         parity_rows=code.parity_matrix,
                         d_lower=code.d_designed, d_tag=code.d_tag, check=False)
    out.d_exact = code.d_exact
    return out


# ----------------------------------------------------------------------
# BCH codes over GF(4)
# ----------------------------------------------------------------------

MAX_LOCATOR_EXPONENT = 10


def bch_locator_exponent(n):
    """Smallest h <= 10 with n | 4^h - 1."""
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
        if spec.n != n or spec.q != 4:
            raise ConstructionError("defining set modulus/base mismatch")
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
                      d_lower=run + 1, d_tag="bch-bound", check=False)
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
    def __init__(self, field, locators, gpoly, base_order):
        self.field = field
        self.locators = tuple(locators)
        self.gpoly = tuple(gpoly)
        self.base_order = base_order


def goppa_build(field, locators, gpoly, base=GF2):
    """Goppa code with locator set L in GF(2^m) and polynomial G(z).

    base selects the subfield the code lives over: GF(2) for binary Goppa
    codes (with the doubled separable distance bound) or GF(4).  When
    locators is None, every field element that is not a root of G is used.
    """
    gpoly = poly_trim(list(gpoly))
    r = poly_deg(gpoly)
    if r < 1:
        raise ConstructionError("Goppa polynomial must have degree >= 1")
    if locators is None:
        locators = [a for a in field.elements() if poly_eval(field, gpoly, a) != 0]
    locators = list(locators)
    if len(set(locators)) != len(locators):
        raise ConstructionError("duplicate locators")
    for a in locators:
        if poly_eval(field, gpoly, a) == 0:
            raise ConstructionError("a locator is a root of the Goppa polynomial")
    n = len(locators)

    ginv = [field.inv(poly_eval(field, gpoly, a)) for a in locators]
    big_rows = []
    for j in range(r):
        big_rows.append([field.mul(field.pow(a, j), gi)
                         for a, gi in zip(locators, ginv)])

    if base.order == 2:
        m_rel = field.m
        expanded = []
        for row in big_rows:
            for t in range(field.m):
                expanded.append([v >> t & 1 for v in row])
    elif base.order == 4:
        exp4 = gf4_expansion(field)
        m_rel = exp4.h
        expanded = []
        for row in big_rows:
            coords = [exp4.coords(v) for v in row]
            for t in range(exp4.h):
                expanded.append([c[t] for c in coords])
    else:
        raise ConstructionError("base field must be GF(2) or GF(4)")

    pivots = rref(base, expanded)
    k = n - len(pivots)
    gen_rows = nullspace(base, expanded, n)
    assert len(gen_rows) == k
    if k < n - m_rel * r:
        raise AssertionError("Goppa dimension fell below the n - m*deg(G) bound")

    separable = base.order == 2 and poly_deg(
        poly_gcd(field, gpoly, poly_derivative(gpoly))) == 0
    if separable:
        d_lower, tag = 2 * r + 1, "separable-goppa-bound"
    else:
        d_lower, tag = r + 1, "goppa-bound"

    code = LinearCode(base, gen_rows, parity_rows=expanded,
                      d_lower=d_lower, d_tag=tag, check=False)
    code.goppa_info = GoppaInfo(field, locators, gpoly, base.order)
    return code


def find_irreducible(field, degree, seed=0):
    """Deterministic search for a monic irreducible polynomial over the field."""
    rng = np.random.default_rng(seed)
    while True:
        f = [int(x) for x in rng.integers(0, field.order, size=degree)] + [1]
        if poly_is_irreducible(field, f):
            return f


def goppa_pair_dimension(m, d_sr):
    """Best half-dimension at block length 2^m for a target distance, using
    the binary irreducible Goppa family [2^m, 2^m - r*m, >= 2r+1] lifted to
    its quaternary span, paired or used alone against the zero code.

    Returns (dim_half, plan) where plan is ("pair", r1, r2) or ("single", r).
    """
    n = 1 << m
    best = (0, None)
    r = 1
    while n - r * m >= 1:
        k = n - r * m
        if 2 * (2 * r + 1) >= d_sr and k > best[0]:
            best = (k, ("single", r))
        r += 1
    r1 = 1
    while n - r1 * m >= 1:
        d1 = 2 * r1 + 1
        k1 = n - r1 * m
        r2 = 1
        while n - r2 * m >= 1:
            d2 = 2 * r2 + 1
            k2 = n - r2 * m
            if max(min(d1, 2 * d2), min(d2, 2 * d1)) >= d_sr and k1 + k2 > best[0]:
                best = (k1 + k2, ("pair", r1, r2))
            r2 += 1
        r1 += 1
    return best


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


def min_distance_bruteforce(code, budget=DEFAULT_BUDGET):
    """Exact minimum Hamming weight over all nonzero codewords.

    Certifies the result by exhaustive enumeration, caches it in d_exact,
    and returns (distance, witness codeword).
    """
    dim = len(code.f2_generators) if isinstance(code, AdditiveCode) else code.f2_dimension
    if dim == 0:
        raise ValueError("the zero code has no minimum distance")
    if 1 << dim > budget:
        raise BudgetError(f"2^{dim} codewords exceed the budget {budget}")
    best, witness = None, None
    for chunk, holds_zero in iter_codeword_chunks(code):
        w = np.count_nonzero(chunk, axis=1)
        if holds_zero:
            w[0] = code.n + 1
        i = int(np.argmin(w))
        if best is None or w[i] < best:
            best, witness = int(w[i]), bytes(chunk[i])
    code.d_exact = best
    if best < code.d_designed:
        raise AssertionError("certified distance fell below the designed bound")
    return best, witness
