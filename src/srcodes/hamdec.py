"""Bounded-distance decoders in the Hamming metric.

Quaternary BCH codes and binary and quaternary Goppa codes are alternant
codes, and their decoders share one core: a packed syndrome, Forney values
and a membership check.  Only the parity columns, the key-equation solver
(Berlekamp-Massey for BCH, extended Euclid for Goppa) and the root search
differ.  An exhaustive nearest-codeword oracle decodes every other code.
Every successful decode is re-verified against the code before it is
returned, so a wrong codeword is never handed to the caller.

Syndrome evaluation packs all syndrome coordinates of one received symbol
into a single integer (field addition is XOR, so whole syndrome vectors
accumulate with one XOR per position).  The BCH decoder packs the designed
syndromes together with one syndrome per cyclotomic coset of the defining
set, so a single pass over the word yields both the decoding syndromes and
the membership check; a candidate is verified by adding the syndromes of
its few error positions.  BCH locators of degree one and two are read off
directly (degree two by solving y^2 + y = c over a GF(2)-basis); higher
degrees use a Chien scan that stops after the last root.

The Goppa decoder runs on the same exp/log tables: extended Euclid on the
syndrome polynomial keeps only the remainder and sigma's cofactor, and the
roots of sigma among all locators come from one numpy gather and XOR-reduce
in the log domain.
"""

from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import BudgetError, ConfigError, RangeError
from .gf2m import (build_field, gf2_insert, gf2_reduce, gf4_embedding, poly_deg,
                   poly_derivative, poly_eea, poly_gcd, poly_mul, poly_trim)
from .codes import DEFAULT_BUDGET, cyclotomic_coset, nearest_codeword

SUCCESS = "success"
DECODE_FAILURE = "decode_failure"
GUARD_TRIPPED = "miscorrection_guard_tripped"


class HammingDecodeResult(NamedTuple):
    codeword: Optional[bytes]
    error: Optional[bytes]
    status: str
    tie: bool = False

    @property
    def ok(self):
        return self.status == SUCCESS


def _fail(status=DECODE_FAILURE, tie=False):
    return HammingDecodeResult(None, None, status, tie)


class _AlgebraicDecoder:
    """The part of alternant decoding that BCH and Goppa codes share.

    A subclass passes the parity column of each position and sets `radius`,
    `_ptlog` and `_qlog`: the error value at position i is
    e_i = omega(p_i) / (q_i * sigma'(p_i)), where _ptlog[i] = log p_i (-1
    when p_i = 0) and _qlog[i] = log q_i.
    """

    def __init__(self, code, field, img, columns):
        self.code = code
        self.field = field
        self.n = code.n
        exp, log, om1 = field.exp, field.log, field.order - 1
        self._exp, self._log, self._om1 = exp, log, om1
        self._mask = (1 << field.m) - 1
        self._back = {v: s for s, v in enumerate(img)}
        self._zero = bytes(code.n)

        # per position and symbol, the packed coefficients of sym * column,
        # m bits per coefficient
        contrib = []
        for col in columns:
            logs = [(j * field.m, log[c]) for j, c in enumerate(col) if c]
            per_sym = [0]
            for s in img[1:]:
                ls = log[s]
                acc = 0
                for shift, lc in logs:
                    acc |= exp[(ls + lc) % om1] << shift
                per_sym.append(acc)
            contrib.append(per_sym)
        self._contrib = contrib

    def _syndrome(self, word):
        if len(word) != self.n:
            raise ConfigError(f"received length {len(word)} != {self.n}")
        acc = 0
        try:
            # bytes hold no negative symbol, and a list's would index from the end
            if not isinstance(word, bytes) and min(word, default=0) < 0:
                raise IndexError
            for per_sym, sym in zip(self._contrib, word):
                if sym:
                    acc ^= per_sym[sym]
        except IndexError:
            raise RangeError("received symbol outside GF(%d)"
                             % self.code.base_field.order) from None
        return acc

    def _finish(self, received, acc, positions, omega, sigma):
        """The candidate for errors at `positions`, or a failure.

        Forney values use Horner's rule on the exp/log tables, with
        sigma'(x) = P(x^2) for P built from sigma's odd coefficients; at
        p_i = 0, sigma'(0) = sigma_1 and omega(0) = omega_0.  omega None
        means every error value is 1.  `acc` is the packed syndrome of the
        received word; adding those of the errors gives the candidate's.
        """
        exp, log, om1 = self._exp, self._log, self._om1
        odd = sigma[1::2]
        odd.reverse()
        back, ptlog, qlog, contrib = self._back, self._ptlog, self._qlog, self._contrib
        err = bytearray(self.n)
        cand = bytearray(received)
        for i in positions:
            if omega is None:
                val = 1
            else:
                lp = ptlog[i]
                if lp < 0:
                    num, den = (omega[0] if omega else 0), sigma[1]
                else:
                    num = 0
                    for c in reversed(omega):
                        num = (exp[(log[num] + lp) % om1] if num else 0) ^ c
                    lz = 2 * lp
                    den = 0
                    for c in odd:
                        den = (exp[(log[den] + lz) % om1] if den else 0) ^ c
                if den == 0 or num == 0:
                    return _fail()
                val = back.get(exp[(log[num] - log[den] - qlog[i]) % om1])
                if val is None:
                    return _fail()
            err[i] = val
            cand[i] ^= val
            acc ^= contrib[i][val]
        if acc:
            return _fail(GUARD_TRIPPED)
        return HammingDecodeResult(bytes(cand), bytes(err), SUCCESS)


class BchDecoder(_AlgebraicDecoder):
    """Decodes up to floor((delta-1)/2) errors of a quaternary BCH code."""

    method = "bch"

    def __init__(self, code):
        if code.bch_info is None:
            raise ConfigError("code was not built as a BCH code")
        info = code.bch_info
        F = info.field
        n = code.n
        exp, log, om1 = F.exp, F.log, F.order - 1
        logg = log[info.alpha]
        self.nsyn = info.delta - 1
        self.radius = (info.delta - 1) // 2

        # the designed run in the low nsyn*m bits, then one syndrome for
        # each coset of the defining set that the run misses.  S_{4j} is the
        # fourth power of S_j, so the packed syndromes all vanish exactly on
        # codewords.
        run = [info.b + j for j in range(self.nsyn)]
        cosets = {cyclotomic_coset(j, 4, n) for j in info.defining_set.exponents}
        powers = run + sorted(c[0] for c in cosets
                              if not any(e % n in c for e in run))
        super().__init__(code, F, gf4_embedding(F),
                         [[exp[logg * e * i % om1] for e in powers] for i in range(n)])
        self._shifts = [j * F.m for j in range(self.nsyn)]
        self._synmask = (1 << (self.nsyn * F.m)) - 1

        # locator X_i = alpha^i, evaluated at p_i = X_i^-1 with q_i = X_i^(b-1)
        logx = [(logg * i) % om1 for i in range(n)]
        self._position = {exp[lx]: i for i, lx in enumerate(logx)}
        self._ptlog = [-lx % om1 for lx in logx]
        self._qlog = [(lx * (info.b - 1)) % om1 for lx in logx]
        self._chien_logstep = [(-j * logg) % om1 for j in range(self.radius + 1)]
        self._deg2_roots = _deg2_basis(F)

    def decode(self, received):
        acc = self._syndrome(received)
        if not acc:
            return HammingDecodeResult(bytes(received), self._zero, SUCCESS)
        syn = acc & self._synmask
        if not syn:
            return _fail()

        mask = self._mask
        nsyn = self.nsyn
        exp, log, om1 = self._exp, self._log, self._om1
        S = [syn >> s & mask for s in self._shifts]
        LS = [log[s] for s in S]

        # Berlekamp-Massey (field ops inlined on the exp/log tables); each
        # update x^shift * prev has degree at most the new register length,
        # which never exceeds nsyn, so sigma keeps nsyn + 1 slots
        sigma = [1] + [0] * nsyn
        prev = [1]
        L = 0
        shift = 1
        lb = 0  # log of the previous discrepancy
        for r in range(nsyn):
            d = S[r]
            for j in range(1, L + 1):
                sj = sigma[j]
                if sj and S[r - j]:
                    d ^= exp[(log[sj] + LS[r - j]) % om1]
            if not d:
                shift += 1
                continue
            lco = log[d] - lb
            old = sigma[:L + 1] if 2 * L <= r else None
            for j, c in enumerate(prev):
                if c:
                    sigma[shift + j] ^= exp[(lco + log[c]) % om1]
            if old is None:
                shift += 1
            else:
                prev = old
                L = r + 1 - L
                lb = log[d]
                shift = 1
        lfsr = L
        while not sigma[L]:
            L -= 1
        del sigma[L + 1:]
        if L < 1 or L > self.radius:
            return _fail()

        # the locators alpha^i are the roots of x^L sigma(1/x); a degree-L
        # polynomial has at most L roots
        position = self._position
        if L == 1:
            positions = [position.get(sigma[1])]
            if positions[0] is None:
                return _fail()
        elif L == 2:
            # x^2 + s1 x + s2 with x = s1 y becomes y^2 + y = s2 / s1^2
            if not sigma[1]:
                return _fail()  # a double root: one locator, not two
            l1 = log[sigma[1]]
            c = exp[(log[sigma[2]] - 2 * l1) % om1]
            y = 0
            bits = c
            for root in self._deg2_roots:
                if bits & 1:
                    y ^= root
                bits >>= 1
            if y < 2 or exp[2 * log[y] % om1] ^ y != c:
                return _fail()  # no root: c has trace one
            positions = [position.get(exp[(l1 + log[y]) % om1]),
                         position.get(exp[(l1 + log[y ^ 1]) % om1])]
            if None in positions:
                return _fail()
        else:
            # Chien scan, stopping once L roots are found
            logstep = self._chien_logstep
            positions = []
            terms = sigma[:]
            for i in range(self.n):
                v = 0
                for c in terms:
                    v ^= c
                if v == 0:
                    positions.append(i)
                    if len(positions) == L:
                        break
                for j in range(1, L + 1):
                    c = terms[j]
                    if c:
                        terms[j] = exp[(log[c] + logstep[j]) % om1]
            if len(positions) != L:
                return _fail()

        # omega = sigma * S mod x^nsyn; sigma generates S_0..S_{nsyn-1} as a
        # shift register of length lfsr, so only the terms below x^lfsr can
        # be nonzero
        omega = [0] * lfsr
        for i, a in enumerate(sigma):
            if a:
                la = log[a]
                for j in range(lfsr - i):
                    if S[j]:
                        omega[i + j] ^= exp[(la + LS[j]) % om1]
        return self._finish(received, acc, positions, omega, sigma)


def _deg2_basis(F):
    """Roots r_i of y^2 + y = 2^i + Tr(2^i) a, for one fixed a of trace one.

    y -> y^2 + y is GF(2)-linear with kernel {0, 1}, so its image is the
    trace-zero hyperplane and XOR-ing r_i over the set bits of a trace-zero
    c gives a root of y^2 + y = c (the basis of Linux lib/bch.c).  Found by
    elimination over the m basis images, each tagged with its preimage, with
    no search of the field.
    """
    m = F.m
    rows = []
    for j in range(m):
        y = 1 << j
        gf2_insert(rows, (F.mul(y, y) ^ y) << m | y, m)
    # a reduction leaves bits above m exactly when c has trace one
    roots = [gf2_reduce(rows, 1 << (i + m)) for i in range(m)]
    a = next(1 << i for i, r in enumerate(roots) if r >> m)
    return [gf2_reduce(rows, ((1 << i) ^ a) << m) if r >> m else r
            for i, r in enumerate(roots)]


class GoppaDecoder(_AlgebraicDecoder):
    """Key-equation decoder for Goppa codes.

    Binary codes with a squarefree polynomial are decoded through the
    squared modulus, reaching radius deg(G); otherwise the radius is
    floor(deg(G) / 2).
    """

    method = "goppa"

    def __init__(self, code):
        if code.goppa_info is None:
            raise ConfigError("code was not built as a Goppa code")
        info = code.goppa_info
        F = info.field
        G = list(info.gpoly)
        r = poly_deg(G)
        self.binary = info.base_order == 2
        squarefree = poly_deg(poly_gcd(F, G, poly_derivative(G))) == 0
        if self.binary and squarefree:
            self._modulus = poly_mul(F, G, G)
            self.radius = r
        else:
            self._modulus = G
            self.radius = r // 2
        dM = poly_deg(self._modulus)
        self._dM = dM
        self._stop = dM - self.radius
        self.locators = info.locators

        # the coefficients of (z - a_i)^{-1} mod modulus
        columns = []
        for a in self.locators:
            rem, _, v = poly_eea(F, self._modulus, [a, 1], 1)
            columns.append([F.div(c, rem[0]) for c in v])
        super().__init__(code, F, (0, 1) if self.binary else gf4_embedding(F), columns)

        # sigma's roots are the locators themselves, and q_i = 1
        om1 = self._om1
        self._ptlog = [F.log[a] for a in self.locators]  # -1 for the locator 0
        self._qlog = [0] * self.n

        # root scan tables: powlog[j, i] = j log(a_i) mod (2^m - 1), less
        # 2^m - 1, so adding log(sigma_j) gives an index in [-(2^m - 1),
        # 2^m - 1) that numpy wraps into the exp table.  The column of a
        # locator 0 is a placeholder: sigma(0) is read off as sigma_0.
        lga = np.array([max(la, 0) for la in self._ptlog], dtype=np.int64)
        self._powlog = np.arange(self.radius + 1, dtype=np.int64)[:, None] * lga % om1 - om1
        self._exp_table = _exp_table(F.m, F.modulus)
        self._zero_at = self.locators.index(0) if 0 in self.locators else None

    def _key_equation(self, S):
        """(omega, sigma) from extended Euclid on (modulus, S), stopped at the
        first remainder of degree below deg(modulus) - radius.

        Each quotient term is applied to the remainder and to sigma's
        cofactor as soon as it is found, so neither the quotient nor the
        modulus's cofactor is kept; the results equal gf2m.poly_eea's.
        """
        exp, log, om1 = self._exp, self._log, self._om1
        r0, r1 = list(self._modulus), S
        v0, v1 = [], [1]
        while len(r1) > self._stop:
            d1 = len(r1) - 1
            lead = log[r1[-1]]
            # logs less om1, so that lc + lg lies in [-om1, om1)
            rlog = [(j, log[c] - om1) for j, c in enumerate(r1) if c]
            vlog = [(j, log[c] - om1) for j, c in enumerate(v1) if c]
            v0 += [0] * (len(r0) - len(r1) + len(v1) - len(v0))
            for top in range(len(r0) - 1, d1 - 1, -1):
                c = r0[top]
                if c:
                    lc = (log[c] - lead) % om1
                    s = top - d1
                    for j, lg in rlog:
                        r0[s + j] ^= exp[lc + lg]
                    for j, lg in vlog:
                        v0[s + j] ^= exp[lc + lg]
            del r0[d1:]
            r0, r1 = r1, poly_trim(r0)
            v0, v1 = v1, v0
        return r1, v1

    def _roots(self, sigma):
        """Positions i with sigma(a_i) = 0, for deg(sigma) <= radius."""
        log = self._log
        nz = [j for j, c in enumerate(sigma) if c]
        ls = np.array([log[sigma[j]] for j in nz], dtype=np.int64)
        v = np.bitwise_xor.reduce(self._exp_table[self._powlog[nz] + ls[:, None]], axis=0)
        if self._zero_at is not None:
            v[self._zero_at] = sigma[0]
        return np.flatnonzero(v == 0).tolist()

    def decode(self, received):
        acc = self._syndrome(received)
        if not acc:
            return HammingDecodeResult(bytes(received), self._zero, SUCCESS)
        m, mask = self.field.m, self._mask
        S = poly_trim([(acc >> (j * m)) & mask for j in range(self._dM)])

        omega, sigma = self._key_equation(S)
        L = poly_deg(sigma)
        if L < 1 or L > self.radius:
            return _fail()

        positions = self._roots(sigma)
        if len(positions) != L:
            return _fail()
        # binary error values are all 1
        return self._finish(received, acc, positions, None if self.binary else omega, sigma)


@lru_cache(maxsize=None)
def _exp_table(m, modulus):
    """GF(2^m)'s exp table as a read-only uint32 array, shared per field."""
    table = np.array(build_field(m, modulus).exp, dtype=np.uint32)
    table.flags.writeable = False
    return table


class OracleDecoder:
    """Exhaustive nearest-codeword decoder with a declared radius.

    Ground truth for the algebraic decoders, and the decoder for codes that
    carry no algebraic structure, such as codes loaded from files.
    """

    method = "oracle"

    def __init__(self, code, radius=None, budget=DEFAULT_BUDGET):
        self.code = code
        self.budget = budget
        size = code.size()
        if size > budget:
            raise BudgetError(f"{size} codewords exceed the budget {budget}")
        self.n = code.n
        d = code.d_lower
        self._max_radius = None if d is None else (d - 1) // 2
        if radius is None:
            radius = self._max_radius
            if radius is None:
                raise ConfigError("zero code cannot back a decoder")
        elif self._max_radius is not None and radius > self._max_radius:
            raise ConfigError(
                f"radius {radius} exceeds floor((d-1)/2) = {self._max_radius}")
        self.radius = radius

    def decode(self, received):
        res = oracle_decode(self.code, received, self.budget)
        if res.ok and len(res.error) - res.error.count(0) > self.radius:
            return _fail()
        return res


def oracle_decode(code, received, budget=DEFAULT_BUDGET):
    """Nearest codeword in the Hamming metric, with no radius bound.

    Ties come back as a decode failure with the tie flag set.
    """
    if len(received) != code.n:
        raise ConfigError(f"received length {len(received)} != {code.n}")
    q = code.base_field.order
    try:
        rec = bytes(received)
    except (TypeError, ValueError):  # a symbol outside 0..255
        rec = None
    if rec is None or rec.translate(None, bytes(range(q))):
        raise RangeError(f"received symbol outside GF({q})")
    _, tie, word = nearest_codeword(code, rec, budget)
    if tie:
        return _fail(tie=True)
    err = bytes(a ^ b for a, b in zip(rec, word))
    return HammingDecodeResult(word, err, SUCCESS)


def make_decoder(code, radius=None, budget=DEFAULT_BUDGET):
    """Pick the natural decoder for a code: BCH, Goppa, or the oracle."""
    if getattr(code, "bch_info", None) is not None:
        dec = BchDecoder(code)
    elif getattr(code, "goppa_info", None) is not None:
        dec = GoppaDecoder(code)
    else:
        return OracleDecoder(code, radius=radius, budget=budget)
    if radius is not None and radius > dec.radius:
        raise ConfigError(f"requested radius {radius} exceeds decoder radius {dec.radius}")
    return dec
