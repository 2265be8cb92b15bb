"""GF(2^m) arithmetic with log/antilog tables, plus polynomial helpers.

Field elements are integers in [0, 2^m) whose binary digits are the
coefficients of a polynomial over GF(2); arithmetic is done modulo an
irreducible polynomial of degree m.  Addition is XOR, multiplication
goes through exp/log tables built from a fixed primitive element.

Default irreducible (primitive) polynomials, one per degree:

    m=1  : x + 1                          m=11 : x^11 + x^2 + 1
    m=2  : x^2 + x + 1                    m=12 : x^12 + x^6 + x^4 + x + 1
    m=3  : x^3 + x + 1                    m=13 : x^13 + x^4 + x^3 + x + 1
    m=4  : x^4 + x + 1                    m=14 : x^14 + x^10 + x^6 + x + 1
    m=5  : x^5 + x^2 + 1                  m=15 : x^15 + x + 1
    m=6  : x^6 + x + 1                    m=16 : x^16 + x^12 + x^3 + x + 1
    m=7  : x^7 + x^3 + 1                  m=17 : x^17 + x^3 + 1
    m=8  : x^8 + x^4 + x^3 + x^2 + 1      m=18 : x^18 + x^7 + 1
    m=9  : x^9 + x^4 + 1                  m=19 : x^19 + x^5 + x^2 + x + 1
    m=10 : x^10 + x^3 + 1                 m=20 : x^20 + x^3 + 1

These are pinned so that every serialized object and golden value is
reproducible.  GF(4) symbols are encoded 0, 1, w -> 2, w^2 -> 3 (w is the
primitive element with w^2 + w + 1 = 0) everywhere in the package.

Polynomials over a field are plain lists of element values, lowest degree
first, with trailing zeros trimmed; the zero polynomial is [] with degree -1.
"""

from array import array
from functools import lru_cache

from .errors import ConstructionError, EmbedError, RangeError

MAX_DEGREE = 20

# exp/log are 4-byte arrays built in numpy from this degree on, lists of ints
# built in Python below it, so the small fields never import numpy.  A
# large list's ints scatter over memory, so a random multiply misses cache;
# timed on a 2-core x86-64 VM, in ns list/array: 106/182 at m=14, 197/212
# at m=15, 666/316 at m=16 and 931/462 at m=20.
_ARRAY_TABLES_FROM_DEGREE = 16

DEFAULT_MODULI = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100010001000011,
    15: 0b1000000000000011,
    16: 0b10001000000001011,
    17: 0b100000000000001001,
    18: (1 << 18) | (1 << 7) | 1,
    19: (1 << 19) | 0b100111,
    20: (1 << 20) | 0b1001,
}


# ----------------------------------------------------------------------
# bit-polynomials over GF(2) (used only to find generators and build tables)
# ----------------------------------------------------------------------

def _bp_deg(p):
    return p.bit_length() - 1


def _bp_mulmod(a, b, mod):
    dm = _bp_deg(mod)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> dm & 1:
            a ^= mod
    return r


def _bp_powmod(a, e, mod):
    r = 1
    while e:
        if e & 1:
            r = _bp_mulmod(r, a, mod)
        a = _bp_mulmod(a, a, mod)
        e >>= 1
    return r


def _prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _doubling_tables(m, g, mod):
    """exp and log of GF(2^m) with generator g as numpy uint32/int32 arrays,
    by doubling: exp[k:2k] = exp[:k] * g^k, then log[exp] = arange.

    Multiplying by g^k is GF(2)-linear, so each level reads it from one
    256-entry table per byte of the element, built from the images of
    single bits.  Imports numpy; FieldContext uses it for the large fields.
    """
    import numpy as np

    n = (1 << m) - 1
    nbytes = (m + 7) // 8
    byte_bits = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(bool)  # [v, j]
    exp = np.empty(n, dtype=np.uint32)
    exp[0] = k = 1
    while k < n:
        gk = _bp_mulmod(int(exp[k - 1]), g, mod)
        images = np.array([_bp_mulmod(gk, 1 << i, mod) for i in range(8 * nbytes)],
                          dtype=np.uint32).reshape(nbytes, 1, 8)
        tables = np.bitwise_xor.reduce(np.where(byte_bits, images, 0), axis=2)  # [b, v]
        s = min(k, n - k)
        exp[k:k + s] = tables[0][exp[:s] & 255]
        for b in range(1, nbytes):
            exp[k:k + s] ^= tables[b][exp[:s] >> 8 * b & 255]
        k += s
    log = np.empty(n + 1, dtype=np.int32)
    log[exp] = np.arange(n, dtype=np.int32)
    log[0] = -1
    return exp, log


# ----------------------------------------------------------------------
# field context
# ----------------------------------------------------------------------

class FieldContext:
    """A concrete GF(2^m) with exp/log tables.

    exp[i] = g^i for 0 <= i < 2^m - 1, log is its inverse and log[0] = -1.
    Both are lists of ints up to GF(2^15) and array('I')/array('i') from
    GF(2^16) on: 8 MB at GF(2^20), against 76 MB as lists.  Immutable after
    construction; safe to share across threads.  All element operations are
    pure functions of their arguments.
    """

    def __init__(self, m, modulus=None):
        if not 1 <= m <= MAX_DEGREE:
            raise RangeError(f"extension degree {m} not in [1, {MAX_DEGREE}]")
        if modulus is None:
            modulus = DEFAULT_MODULI[m]
        if _bp_deg(modulus) != m:
            raise ConstructionError(
                f"modulus {modulus:#x} has degree {_bp_deg(modulus)}, expected {m}")
        # every degree-1 modulus is irreducible, so GF2 is built unchecked and
        # then checks the moduli of the larger fields
        if m > 1 and not poly_is_irreducible(GF2, [modulus >> i & 1 for i in range(m + 1)]):
            raise ConstructionError(f"modulus {modulus:#x} is reducible over GF(2)")
        self.m = m
        self.modulus = modulus
        self.order = 1 << m
        self.generator = self._find_generator()
        self._build_tables()

    def _find_generator(self):
        n = self.order - 1
        if n == 1:
            return 1
        primes = _prime_factors(n)
        for cand in range(2, self.order):
            if all(_bp_powmod(cand, n // p, self.modulus) != 1 for p in primes):
                return cand
        raise ConstructionError("no generator found (impossible for a field)")

    def _build_tables(self):
        """exp[i] = g^i by stepping x -> g * x, then log[exp[i]] = i.

        Multiplying by g is GF(2)-linear, so a step reads it from two
        256-entry tables, one per byte of x.  From _ARRAY_TABLES_FROM_DEGREE
        on, _doubling_tables builds both in numpy instead and they are stored
        as arrays; the decoders index lists and arrays alike.
        """
        m, n, g, mod = self.m, self.order - 1, self.generator, self.modulus
        if m >= _ARRAY_TABLES_FROM_DEGREE:
            exp, log = _doubling_tables(m, g, mod)
            # frombytes copies raw bytes, so the item sizes must match the dtypes
            if array("I").itemsize == array("i").itemsize == 4:
                self.exp, self.log = array("I"), array("i")
                self.exp.frombytes(exp.view("u1"))
                self.log.frombytes(log.view("u1"))
            else:
                self.exp = exp.tolist()
                del exp  # freed before the second list is made
                self.log = log.tolist()
            return
        low = [_bp_mulmod(g, v, mod) for v in range(256)]
        high = [_bp_mulmod(g, v << 8, mod) for v in range(1 << max(m - 8, 0))]
        exp = [0] * n
        x = 1
        for i in range(n):
            exp[i] = x
            x = low[x & 255] ^ high[x >> 8]
        log = [0] * (n + 1)
        for i, x in enumerate(exp):
            log[x] = i
        log[0] = -1
        self.exp, self.log = exp, log

    # -- element operations ------------------------------------------------

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.exp[(self.order - 1 - self.log[a]) % (self.order - 1)]

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0")
        if a == 0:
            return 0
        return self.exp[(self.log[a] - self.log[b]) % (self.order - 1)]

    def pow(self, a, e):
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        return self.exp[(self.log[a] * e) % (self.order - 1)]

    def frobenius(self, a):
        """The map a -> a^2 generating the Galois group over GF(2)."""
        return self.mul(a, a)

    def elements(self):
        return range(self.order)

    def nonzero(self):
        return range(1, self.order)

    def __repr__(self):
        return f"FieldContext(m={self.m}, modulus={self.modulus:#x})"


@lru_cache(maxsize=None)
def _cached_field(m, modulus):
    return FieldContext(m, modulus)


def build_field(m, modulus=None):
    """Build (or fetch from cache) the GF(2^m) context for a modulus."""
    if not isinstance(m, int) or not 1 <= m <= MAX_DEGREE:
        raise RangeError(f"extension degree {m} not in [1, {MAX_DEGREE}]")
    if modulus is None:
        modulus = DEFAULT_MODULI[m]
    return _cached_field(m, modulus)


@lru_cache(maxsize=None)
def _gf4_embedding_cached(m, modulus):
    target = build_field(m, modulus)
    if target.m % 2 != 0:
        raise EmbedError(f"GF(4) does not embed in GF(2^{target.m})")
    s = (target.order - 1) // 3
    w_img = target.exp[s]
    return (0, 1, w_img, target.mul(w_img, w_img))


def gf4_embedding(target):
    """Tuple of the four GF(4) symbol images inside the target field.

    w maps to g^s with s = (2^m - 1)/3, so its image generates the order-3
    subgroup of the target's multiplicative group.
    """
    if target.m == 2:
        return (0, 1, 2, 3)
    return _gf4_embedding_cached(target.m, target.modulus)


def gf2_reduce(rows, v):
    """v, as a bit vector, reduced by an echelon kept by gf2_insert; zero
    exactly when v lies in the rows' GF(2) span.

    Rows inserted as (vector << t) | tag, with a t-bit tag, carry the tag
    along: v << t then reduces to its residue above bit t and, below it,
    the XOR of the tags of the rows it used, a preimage of v when each tag
    names the source of its row.
    """
    for r in rows:
        if v.bit_length() == r.bit_length():
            v ^= r
    return v


def gf2_insert(rows, v, tag_bits=0):
    """Add v to the echelon `rows` (sorted by decreasing bit length, one row
    per leading bit); False, with rows unchanged, when v is in their span.
    The low tag_bits bits of v are its tag and do not count (see gf2_reduce)."""
    v = gf2_reduce(rows, v)
    if not v >> tag_bits:
        return False
    rows.append(v)
    rows.sort(key=int.bit_length, reverse=True)
    return True


class Gf4Expansion:
    """Coordinate expansion of GF(2^(2h)) over the embedded GF(4).

    Picks a greedy GF(4)-basis of the target field and reads the
    coordinates of each bit 2^i off a tagged GF(2)-echelon of it.  The
    coordinates are GF(2)-linear, so those of an element, a length-h vector
    of GF(4) symbols, are the XOR of those of its set bits.
    """

    def __init__(self, target):
        if target.m % 2 != 0:
            raise EmbedError(f"GF(4) does not embed in GF(2^{target.m})")
        m = target.m
        self.h = h = m // 2
        w_img = gf4_embedding(target)[2]
        basis = []
        span_rows = []  # GF(2)-echelon of the b_j and w*b_j, tagged 2^j and 2^(h+j)
        for cand in range(1, target.order):
            j = len(basis)
            saved = list(span_rows)
            if (gf2_insert(span_rows, cand << m | 1 << j, m)
                    and gf2_insert(span_rows, target.mul(w_img, cand) << m | 1 << (h + j), m)):
                basis.append(cand)
                if len(basis) == h:
                    break
            else:
                span_rows[:] = saved
        self.basis = tuple(basis)
        # one symbol per byte; the rows span the field, so 2^i reduces to
        # its tag alone
        self._bit_coords = []
        for i in range(m):
            t = gf2_reduce(span_rows, 1 << (i + m))
            self._bit_coords.append(
                sum((t >> j & 1 | (t >> (h + j) & 1) << 1) << 8 * j for j in range(h)))

    def coords(self, a):
        """GF(4) coordinates of a target element, length h, basis order."""
        t = 0
        for c in self._bit_coords:
            if a & 1:
                t ^= c
            a >>= 1
        return tuple(t.to_bytes(self.h, "little"))


@lru_cache(maxsize=None)
def _gf4_expansion_cached(m, modulus):
    return Gf4Expansion(build_field(m, modulus))


def gf4_expansion(target):
    return _gf4_expansion_cached(target.m, target.modulus)


# ----------------------------------------------------------------------
# polynomials over a FieldContext (coefficient lists, lowest degree first)
# ----------------------------------------------------------------------

def poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_deg(f):
    return len(f) - 1


def poly_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] ^= c
    return poly_trim(out)


def poly_scale(field, f, s):
    if s == 0:
        return []
    mul = field.mul
    return [mul(c, s) for c in f]


def poly_mul(field, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    mul = field.mul
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] ^= mul(a, b)
    return poly_trim(out)


def poly_divmod(field, f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(f)
    dg = poly_deg(g)
    lead_inv = field.inv(g[-1])
    q = [0] * max(0, len(f) - dg)
    mul = field.mul
    while len(r) - 1 >= dg and r:
        shift = len(r) - 1 - dg
        coef = mul(r[-1], lead_inv)
        q[shift] = coef
        for i, c in enumerate(g):
            if c:
                r[shift + i] ^= mul(coef, c)
        poly_trim(r)
    return poly_trim(q), r


def poly_eval(field, f, x):
    acc = 0
    mul = field.mul
    for c in reversed(f):
        acc = mul(acc, x) ^ c
    return acc


def poly_eea(field, f, g, stop_degree):
    """Extended Euclid on (f, g), walking the remainder sequence from g and
    stopping at the first remainder r with deg(r) < stop_degree.

    Returns (r, u, v) with r = u*f + v*g.
    """
    if not g:
        raise ZeroDivisionError("poly_eea requires g != 0")
    r0, r1 = list(f), list(g)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while poly_deg(r1) >= stop_degree:
        if not r1:
            break
        q, rem = poly_divmod(field, r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, poly_add(u0, poly_mul(field, q, u1))
        v0, v1 = v1, poly_add(v0, poly_mul(field, q, v1))
    return r1, u1, v1


def poly_gcd(field, f, g):
    """The monic gcd; [] when f and g are both zero."""
    a, b = list(f), list(g)
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    return poly_scale(field, a, field.inv(a[-1])) if a else []


def poly_derivative(f):
    # characteristic 2: even-degree terms vanish
    return poly_trim([f[i] if i % 2 == 1 else 0 for i in range(1, len(f))])


def poly_is_irreducible(field, f):
    """Rabin's irreducibility test for f over the given GF(q), q = 2^m.

    f of degree r is irreducible exactly when z^(q^r) = z mod f and
    gcd(z^(q^(r/p)) - z, f) = 1 for every prime p dividing r.  z^(q^k) mod f
    comes from k*m squarings on the exp/log tables: each squares every
    coefficient into the even slots, then reduces once by f made monic.
    """
    r = poly_deg(f)
    if r <= 1:
        return r == 1
    exp, log, om1 = field.exp, field.log, field.order - 1
    tail = [(i, (log[c] - log[f[-1]]) % om1) for i, c in enumerate(f[:-1]) if c]
    checks = {r // p for p in _prime_factors(r)}
    t = [0, 1] + [0] * (r - 2)
    for k in range(1, r + 1):
        for _ in range(field.m):
            s = [0] * (2 * r - 1)
            for i, c in enumerate(t):
                if c:
                    s[2 * i] = exp[2 * log[c] % om1]
            for j in range(2 * r - 2, r - 1, -1):
                c = s[j]
                if c:
                    lc = log[c]
                    for i, lf in tail:
                        s[j - r + i] ^= exp[(lc + lf) % om1]
            t = s[:r]
        if k in checks and poly_deg(poly_gcd(field, poly_add(t, [0, 1]), f)) != 0:
            return False
    return not poly_add(t, [0, 1])


GF2 = build_field(1)
GF4 = build_field(2)

# 256-entry translation tables: SCALE4[s] maps a GF(4) byte vector to s*vector
SCALE4 = tuple(
    bytes(GF4.mul(s, v) if v < 4 else 0 for v in range(256)) for s in range(4)
)


# ----------------------------------------------------------------------
# GF(4)/GF(2) vectors as bytes (symbol values per position)
# ----------------------------------------------------------------------

def vec_xor(a, b):
    """Coordinatewise sum; GF(4) and GF(2) addition are both XOR."""
    n = len(a)
    if n != len(b):
        raise RangeError(f"vectors of unequal length {n} and {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


def vec_scale(v, s):
    """Scale a GF(4) byte vector by the symbol s."""
    return v.translate(SCALE4[s])


def vec_checked(symbols, q):
    """The symbols as bytes; bytes are taken whole, anything else one by one (bytes()
    of a numpy array would copy its raw buffer).  RangeError outside GF(q)."""
    try:
        out = bytes(symbols if isinstance(symbols, (bytes, bytearray)) else list(symbols))
    except (TypeError, ValueError):  # a symbol outside 0..255, or not an integer
        out = None
    if out is None or out.translate(None, bytes(range(q))):
        raise RangeError(f"symbol outside GF({q})")
    return out
