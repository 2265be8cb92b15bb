"""Bounded-distance decoders in the Hamming metric.

Quaternary BCH codes and binary and quaternary Goppa codes are alternant
codes: the parity entry of position i in row j is y_i X_i^j, for a locator
X_i and a multiplier y_i.  Their decoders share one core: a packed
syndrome, Berlekamp-Massey, locator polynomials of degree one and two
solved directly (degree two by solving y^2 + y = c over a GF(2)-basis),
Forney values and a membership check.  Only the parity columns and the
root search for higher degrees differ.  An exhaustive nearest-codeword
oracle decodes every other code.  Every successful decode is re-verified
against the code before it is returned, so a wrong codeword is never
handed to the caller.

Syndrome evaluation packs all syndrome coordinates of one received symbol
into a single integer (field addition is XOR, so whole syndrome vectors
accumulate with XORs), and takes the word two symbols at a time: a table
per pair of positions, with a zero symbol in front when n is odd, holds
the packed syndrome of the pair (a, b) at a << 2 | b, and the pair codes
of the whole word come at C speed from the word read as one integer x, as
every second byte of x | x >> 6.  That reads each symbol from the low two
bits of its byte, so a word with any higher bit set is refused first, or
the pair (0, 4) would read as (1, 0).  Errors of weight at most one are
decoded by lookup: a zero syndrome is a codeword, and when the radius is at
least one, a table built once per decoder maps the packed syndrome of each
single-symbol error back to that error.  The BCH decoder packs the designed
syndromes together with one syndrome per cyclotomic coset of the defining
set, so a single pass over the word yields both the decoding syndromes and
the membership check; a candidate is verified by adding the syndromes of
its few error positions.

Berlekamp-Massey stops early after two zero discrepancies in a row, once
the register length L has 2L <= r + 1 at step r, before the last
syndrome: a word with e errors, well within the radius, has its locator
after 2e syndromes, and the rest of the run would only confirm it.  The
candidate of that register goes through the roots, Forney and the
membership check.  Its success is exact: the check proves it a codeword
within the radius, which is unique, and the full run finds the same
locator for it.  Any other outcome reruns Berlekamp-Massey in full, so
every failure is the full run's.

Berlekamp-Massey, omega and Forney multiply by the field's rows,
rows[a][b] = a * b (gf2m.FieldContext.mul_rows), in fields up to GF(2^8):
one lookup per product, where the exp/log tables take two log lookups, an
add, a reduction mod 2^m - 1, an exp lookup and zero tests.  The larger
fields have no rows (GF(2^16)'s would take 4 GiB) and keep the exp/log
arithmetic; nothing else differs between the two.

BCH's root search for degree three and more reads a table built per
decoder: row j holds j * log(p_i) for every position, with p_i = X_i^-1,
so sigma_j p_i^j is a single exp lookup.  It evaluates sigma at each
position in turn, in the log domain, and stops after the last root.  While
enough positions are left for it to pay, it divides each root it finds out
of the polynomial it scans, and once two degrees are left it takes their
roots in the degree-two closed form, scanning on only when that form finds
no two positions past the last root.  Goppa evaluates sigma at all its
locators at once in packed lanes: lane i of one integer per power j and
bit t holds x^t p_i^j, so sigma(p_i) for every i is the XOR of the
integers that sigma's coefficient bits select, and one addition marks the
zero lanes, its roots.
A Goppa code may have the locator 0, whose column reaches the first
syndrome only: an error there lengthens the Berlekamp-Massey register by
one without a factor of sigma, and its value is what is left of the
syndrome once the other errors are taken out.
"""

from typing import NamedTuple, Optional

from .errors import BudgetError, ConfigError, RangeError
from .gf2m import (gf2_insert, gf2_reduce, gf4_embedding, poly_deg, poly_eval, poly_mul,
                   vec_checked)
from .codes import DEFAULT_BUDGET, cyclotomic_coset, nearest_codeword

SUCCESS = "success"
DECODE_FAILURE = "decode_failure"
GUARD_TRIPPED = "miscorrection_guard_tripped"


class HammingDecodeResult(NamedTuple):
    codeword: Optional[bytes]   # None on failure, as is error
    error: Optional[bytes]
    status: str
    tie: bool = False

    @property
    def ok(self):
        return self.status == SUCCESS


_FAILED = HammingDecodeResult(None, None, DECODE_FAILURE)
_GUARD_TRIPPED = HammingDecodeResult(None, None, GUARD_TRIPPED)
_TIE = HammingDecodeResult(None, None, DECODE_FAILURE, True)
_new = tuple.__new__  # builds a result without the generated __new__'s call
_from_bytes = int.from_bytes  # bound once: the lookup costs as much as a short call


class _AlgebraicDecoder:
    """The decoder that BCH and Goppa codes share as alternant codes.

    A subclass passes the parity column of each position, whose first
    `nsyn` entries give the syndromes S_j = sum_i e_i y_i X_i^j of the key
    equation; ptlog[i] = log p_i for p_i = X_i^-1 (-1 for the locator
    X_i = 0); and qlog[i] = log q_i for q_i = y_i / X_i.  The radius is
    floor(nsyn / 2), the error value at position i is
    e_i = omega(p_i) / (q_i * sigma'(p_i)), and the subclass finds the
    roots of a sigma of degree three or more in `_roots`.  The field's
    mul_rows, when it has them (m <= 8), carry the products of
    Berlekamp-Massey, omega and Forney; without them (m > 8, or _rows set
    to None) the exp/log tables do.
    """

    def __init__(self, code, field, img, columns, nsyn, ptlog, qlog):
        self.code = code
        self.field = field
        self.n = code.n
        self.nsyn = nsyn
        self.radius = radius = nsyn // 2
        exp, log, om1 = field.exp, field.log, field.order - 1
        self._exp, self._log, self._om1 = exp, log, om1
        self._ptlog, self._qlog = ptlog, qlog
        self._mask = (1 << field.m) - 1
        self._shifts = [j * field.m for j in range(nsyn)]
        self._synmask = (1 << (nsyn * field.m)) - 1
        self._back = {v: s for s, v in enumerate(img)}
        self._binary = len(img) == 2  # every binary error value is 1
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
        # per pair of positions, with a zero symbol in front when n is odd,
        # the packed coefficients of the symbol pair (a, b) at a << 2 | b;
        # decode() refuses a word with any of the badbits set
        quad = [[0] * 4] * (code.n % 2) + [per_sym + [0] * (4 - len(per_sym))
                                           for per_sym in contrib]
        self._pairs = [[a ^ b for a in hi for b in lo] for hi, lo in zip(quad[::2], quad[1::2])]
        self._nbytes = len(quad)
        self._badbits = int.from_bytes(bytes([256 - len(img)]) * code.n, "big")

        # the single-symbol error (i, s) behind each packed syndrome of
        # weight one.  The packed syndrome vanishes only on codewords, so a
        # hit is the unique codeword at distance one; radius >= 1 (d >= 3)
        # keeps the keys distinct, and below it the table stays empty.
        self._single = {per_sym[s]: (i, s) for i, per_sym in enumerate(contrib)
                        for s in range(1, len(img))} if radius >= 1 else {}

        # the position of each nonzero locator X_i, for sigma of degree one
        # and two.  The locator 0 adds to S_0 only, so it is never a root.
        self._position = {exp[-lp % om1]: i for i, lp in enumerate(ptlog) if lp >= 0}
        # Forney on the rows reads, per position, those of p_i, p_i^2 and
        # 1 / q_i (the locator 0 is never a position there)
        self._rows = rows = field.mul_rows
        if rows is not None:
            self._inv = [0] + [exp[-log[a] % om1] for a in range(1, field.order)]
            self._forney = [(rows[exp[lp]], rows[exp[2 * lp % om1]], rows[exp[-lq % om1]])
                            for lp, lq in zip(ptlog, qlog)]
        self._zero_at = ptlog.index(-1) if -1 in ptlog else None
        # the root of y^2 + y = c is the XOR of the basis roots of c's set
        # bits; tables per 8 bits of c take the XOR a byte at a time
        basis = _deg2_basis(field)
        self._deg2 = []
        for shift in range(0, field.m, 8):
            table = [0]
            for r in basis[shift:shift + 8]:
                table += [y ^ r for y in table]
            self._deg2.append((shift, table))

    def decode(self, received):
        """The codeword within the radius of `received`, or a typed failure."""
        if len(received) != self.n:
            raise ConfigError(f"received length {len(received)} != {self.n}")
        if not isinstance(received, bytes):
            received = vec_checked(received, self.code.base_field.order)
        x = _from_bytes(received, "big")
        if x & self._badbits:
            raise RangeError("received symbol outside GF(%d)" % self.code.base_field.order)
        # byte k of x | x >> 6 holds symbol k in its low two bits and symbol
        # k - 1 above them: every second byte is the code of one pair
        acc = 0
        for table, c in zip(self._pairs, (x | x >> 6).to_bytes(self._nbytes, "big")[1::2]):
            acc ^= table[c]
        if not acc:
            return _new(HammingDecodeResult, (received, self._zero, SUCCESS, False))
        hit = self._single.get(acc)
        if hit is None:
            return self._decode_syndrome(acc, received)
        i, s = hit
        n = self.n
        err = s << 8 * (n - 1 - i)
        cw = (x ^ err).to_bytes(n, "big")
        return _new(HammingDecodeResult, (cw, err.to_bytes(n, "big"), SUCCESS, False))

    def _finish(self, received, acc, positions, omega, sigma, zero):
        """The candidate for errors at `positions`, and at the locator 0
        when `zero` is set, or a failure.

        Forney values use Horner's rule on the rows or the exp/log tables,
        with sigma'(x) = P(x^2) for P built from sigma's odd coefficients.
        omega None means every error value is 1.  `acc` is the packed
        syndrome of the received word; adding those of the errors gives the
        candidate's.
        """
        exp, log, om1, rows = self._exp, self._log, self._om1, self._rows
        odd = sigma[1::2]
        odd.reverse()
        back, ptlog, qlog, contrib = self._back, self._ptlog, self._qlog, self._contrib
        err = bytearray(self.n)
        cand = bytearray(received)
        for i in positions:
            if omega is None:
                val = 1
            elif rows is not None:
                prow, zrow, qrow = self._forney[i]
                num = 0
                for c in reversed(omega):
                    num = prow[num] ^ c
                den = 0
                for c in odd:
                    den = zrow[den] ^ c
                # 0 when num or den is 0, as inv[0] = 0
                val = back.get(qrow[rows[num][self._inv[den]]])
                if not val:
                    return _FAILED
            else:
                lp = ptlog[i]
                num = 0
                for c in reversed(omega):
                    num = (exp[(log[num] + lp) % om1] if num else 0) ^ c
                lz = 2 * lp
                den = 0
                for c in odd:
                    den = (exp[(log[den] + lz) % om1] if den else 0) ^ c
                if den == 0 or num == 0:
                    return _FAILED
                val = back.get(exp[(log[num] - log[den] - qlog[i]) % om1])
                if val is None:
                    return _FAILED
            err[i] = val
            cand[i] ^= val
            acc ^= contrib[i][val]
        if zero:
            # the locator 0 reaches S_0 only: its error value is the symbol
            # whose contribution is what is left of the syndrome
            per_sym = contrib[self._zero_at]
            if acc in per_sym:
                val = per_sym.index(acc)
                err[self._zero_at] = val
                cand[self._zero_at] ^= val
                acc = 0
        if acc:
            return _GUARD_TRIPPED
        return _new(HammingDecodeResult, (bytes(cand), bytes(err), SUCCESS, False))

    def _decode_syndrome(self, acc, received, stop=True):
        """The candidate of the key equation for the packed syndrome `acc`,
        or a failure.  Berlekamp-Massey stops early only with `stop`, and
        a failure on a register that stopped early reruns it without."""
        syn = acc & self._synmask
        if not syn:
            return _FAILED

        mask = self._mask
        nsyn = self.nsyn
        exp, log, om1, rows = self._exp, self._log, self._om1, self._rows
        if rows is None:
            S = [syn >> s & mask for s in self._shifts]
            LS = [log[s] for s in S]
        else:
            RS = [rows[syn >> s & mask] for s in self._shifts]  # RS[j][a] = S_j * a

        # Berlekamp-Massey (field ops inlined on the rows or the exp/log
        # tables); each update x^shift * prev has degree at most the new
        # register length, which never exceeds nsyn, so sigma keeps nsyn + 1
        # slots.  It may stop after two zero discrepancies in a row once
        # 2L <= r + 1, before the last syndrome (see the module docstring).
        sigma = [1] + [0] * nsyn
        prev = [1]
        L = 0
        shift = 1
        lb = 0  # log of the previous discrepancy
        last = nsyn - 1 if stop else 0  # an early stop needs r < last
        zr = -2  # the step of the last zero discrepancy
        stopped = False
        for r in range(nsyn):
            if rows is None:
                d = S[r]
                for j in range(1, L + 1):
                    sj = sigma[j]
                    if sj and S[r - j]:
                        d ^= exp[(log[sj] + LS[r - j]) % om1]
            else:
                d = RS[r][1]  # S_r
                for j in range(1, L + 1):
                    d ^= RS[r - j][sigma[j]]
            if not d:
                if zr == r - 1 and r < last and 2 * L <= r + 1:
                    stopped = True
                    break
                zr = r
                shift += 1
                continue
            lco = log[d] - lb
            old = sigma[:L + 1] if 2 * L <= r else None
            if rows is None:
                for j, c in enumerate(prev, shift):
                    if c:
                        sigma[j] ^= exp[(lco + log[c]) % om1]
            else:
                row = rows[exp[lco]]  # d / b: -om1 < lco < om1 indexes exp as is
                for j, c in enumerate(prev, shift):
                    sigma[j] ^= row[c]
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
        # an error at the locator 0 lengthens the register by one without a
        # factor of sigma
        zero = lfsr == L + 1 and self._zero_at is not None

        # the locators X_i are the roots of x^L sigma(1/x); a degree-L
        # polynomial has at most L roots
        if not 0 < L + zero <= self.radius:
            positions = None
        elif L == 1:
            i = self._position.get(sigma[1])
            positions = None if i is None else [i]
        elif L == 2:
            positions = self._quadratic_roots(1, sigma[1], sigma[2])
        else:
            positions = self._roots(sigma)
            if len(positions) != L:
                positions = None

        if positions is None:
            res = _FAILED
        else:
            # omega = sigma * S mod x^nsyn; where sigma generates
            # S_0..S_{nsyn-1} as a shift register of length lfsr, only the
            # terms below x^lfsr can be nonzero, so sigma_i from i = lfsr on
            # adds nothing
            omega = None
            if not self._binary:
                omega = [0] * lfsr
                if rows is None:
                    for i, a in enumerate(sigma[:lfsr]):
                        if a:
                            la = log[a]
                            for j in range(lfsr - i):
                                if S[j]:
                                    omega[i + j] ^= exp[(la + LS[j]) % om1]
                else:
                    for i, a in enumerate(sigma[:lfsr]):
                        for j, rs in enumerate(RS[:lfsr - i], i):
                            omega[j] ^= rs[a]
            res = self._finish(received, acc, positions, omega, sigma, zero)
        if stopped and res[2] is not SUCCESS:
            # the register that stopped early may be short of the full one,
            # which decides every failure
            return self._decode_syndrome(acc, received, False)
        return res

    def _quadratic_roots(self, a0, a1, a2):
        """Positions i < j whose p_i, p_j are the two roots of a0 + a1 x +
        a2 x^2 (a0, a2 != 0), or None for a double root, no root in the
        field, or a root that is not a position.

        The locators are the roots of x^2 + s1 x + s2, for s1 = a1 / a0 and
        s2 = a2 / a0; x = s1 y turns it into y^2 + y = s2 / s1^2.
        """
        if not a1:
            return None  # a double root
        exp, log, om1 = self._exp, self._log, self._om1
        l0 = log[a0]
        l1 = log[a1] - l0
        c = exp[(log[a2] - l0 - 2 * l1) % om1]
        y = 0
        for shift, table in self._deg2:
            y ^= table[c >> shift & 255]
        if y < 2 or exp[2 * log[y] % om1] ^ y != c:
            return None  # c has trace one
        position = self._position
        i = position.get(exp[(l1 + log[y]) % om1])
        j = position.get(exp[(l1 + log[y ^ 1]) % om1])
        if i is None or j is None:
            return None
        return (i, j) if i < j else (j, i)


class BchDecoder(_AlgebraicDecoder):
    """Decodes up to floor((delta-1)/2) errors of a quaternary BCH code."""

    method = "bch"

    def __init__(self, code):
        if code.bch_info is None:
            raise ConfigError("code was not built as a BCH code")
        info = code.bch_info
        F = info.field
        n = code.n
        exp, om1 = F.exp, F.order - 1
        logg = F.log[info.alpha]
        nsyn = info.delta - 1

        # the designed run in the low nsyn*m bits, then one syndrome for
        # each coset of the defining set that the run misses.  S_{4j} is the
        # fourth power of S_j, so the packed syndromes all vanish exactly on
        # codewords.
        run = [info.b + j for j in range(nsyn)]
        cosets = {cyclotomic_coset(j, 4, n) for j in info.defining_set.exponents}
        powers = run + sorted(c[0] for c in cosets
                              if not any(e % n in c for e in run))
        # locator X_i = alpha^i, evaluated at p_i = X_i^-1 with q_i = X_i^(b-1)
        logx = [(logg * i) % om1 for i in range(n)]
        ptlog = [-lx % om1 for lx in logx]
        super().__init__(code, F, gf4_embedding(F),
                         [[exp[logg * e * i % om1] for e in powers] for i in range(n)],
                         nsyn, ptlog, [(lx * (info.b - 1)) % om1 for lx in logx])
        # root scan rows: powlog[j][i] = j log(p_i) mod (2^m - 1), less
        # 2^m - 1, so adding log(sigma_j) gives an index in [-(2^m - 1),
        # 2^m - 1) that wraps into the exp table
        self._powlog = [[j * lp % om1 - om1 for lp in ptlog] for j in range(self.radius + 1)]

    def _roots(self, sigma):
        """Positions i with sigma(p_i) = 0, in increasing order, up to the
        deg(sigma)-th root; sigma_0 = 1 and sigma_L != 0.

        The scan evaluates a polynomial a, at first sigma, position by
        position: each term a_j p_i^j is one exp lookup at log(a_j) +
        powlog[j][i], over the nonzero a_j only.  At a root p_i, while
        n - i > 6 deg(a), it divides a by (x + p_i) and scans on from i + 1
        with the quotient, whose roots past i are a's.  A division costs
        about three scan terms per degree (measured at m = 8 and m = 20), so
        it pays once the scan visits more than 3 deg(a) further positions;
        the rule asks for twice that, as the scan stops at the last root.
        It never fires for deg(sigma) >= n / 6.  A quotient of degree two
        has its roots in closed form; when they are not two positions past
        i (trace one, a double root, a root off the positions or at or
        before i), the scan goes on over the quadratic.
        """
        exp, log, powlog = self._exp, self._log, self._powlog
        n = self.n
        d = L = len(sigma) - 1
        coefs = sigma
        terms = [(log[c], powlog[j]) for j, c in enumerate(sigma) if j and c]
        positions = []
        start = 0
        while True:
            stop = n - 6 * d if d > 2 else 0  # deflate at roots before it
            v0 = coefs[0]
            for i in range(start, n):
                v = v0
                for lc, row in terms:
                    v ^= exp[lc + row[i]]
                if not v:
                    positions.append(i)
                    if len(positions) == L:
                        return positions
                    if i < stop:
                        break
            else:
                return positions
            # a = (x + p_i) q from the top: q_{d-1} = a_d, q_{k-1} = a_k +
            # p_i q_k; the logs of q_k serve the next scan's terms
            lp = powlog[1][i]
            c = coefs[d]
            lc = log[c]
            q, lq = [c], [lc]
            for a in coefs[d - 1:0:-1]:
                c = a ^ exp[lp + lc] if c else a
                lc = log[c]
                q.append(c)
                lq.append(lc)
            q.reverse()
            lq.reverse()
            coefs = q
            d -= 1
            start = i + 1
            if d == 2:
                pair = self._quadratic_roots(*coefs)
                if pair is not None and pair[0] > i:
                    positions.extend(pair)
                    return positions
            terms = [(lc, powlog[j]) for j, lc in enumerate(lq) if j and lc >= 0]


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
    """Berlekamp-Massey decoder for Goppa codes, read as alternant codes.

    A word c is in the code when sum_i c_i / (z - a_i) = 0 mod M(z), that
    is, when sum_i c_i y_i a_i^j = 0 for j < deg(M), with y_i = 1 / M(a_i)
    (MacWilliams-Sloane, ch. 12): the locators X_i are the a_i.  Binary
    codes with a squarefree polynomial G take M = G^2 and reach radius
    deg(G); otherwise M = G and the radius is floor(deg(G) / 2).
    """

    method = "goppa"

    def __init__(self, code):
        if code.goppa_info is None:
            raise ConfigError("code was not built as a Goppa code")
        info = code.goppa_info
        F = info.field
        exp, log, om1 = F.exp, F.log, F.order - 1
        M = list(info.gpoly)
        binary = info.base_order == 2
        if binary and info.separable:
            M = poly_mul(F, M, M)
        nsyn = poly_deg(M)
        self.locators = info.locators

        columns, ptlog, qlog = [], [], []
        for a in self.locators:
            ly = -log[poly_eval(F, M, a)] % om1
            if a:
                la = log[a]
                columns.append([exp[(ly + j * la) % om1] for j in range(nsyn)])
                ptlog.append(-la % om1)
                qlog.append((ly - la) % om1)
            else:
                columns.append([exp[ly]] + [0] * (nsyn - 1))
                ptlog.append(-1)
                qlog.append(0)
        super().__init__(code, F, (0, 1) if binary else gf4_embedding(F), columns,
                         nsyn, ptlog, qlog)

        # root search lanes: lane i of an integer is bits [w i, w i + w), the
        # whole bytes that hold an element of GF(2^m) and a spare top bit.
        # Lane i of cols[j][t] holds x^t p_i^j; x times a column is a shift
        # that folds each lane's overflow bit m back in as the modulus' low
        # bits.  The locator 0 has no p_i: its lane is 0 and never read.
        m = F.m
        nb = m // 8 + 1
        self._w = w = 8 * nb
        ones = int.from_bytes((b"\1" + bytes(nb - 1)) * self.n, "little")
        over, low = ones << m, F.modulus ^ 1 << m
        cols = []
        for j in range(self.radius + 1):
            col = int.from_bytes(b"".join([
                (exp[j * lp % om1] if lp >= 0 else 0).to_bytes(nb, "little")
                for lp in ptlog]), "little")
            row = [col]
            for _ in range(1, m):
                col <<= 1
                carry = col & over
                col ^= carry ^ (carry >> m) * low
                row.append(col)
            cols.append(row)
        self._cols = cols
        # a lane v < 2^(w-1) is 0 exactly when v + 2^(w-1) - 1 leaves its top
        # bit clear; the locator 0's top bit is left out of hi
        self._hi = hi = ones << w - 1
        self._max = hi - ones
        if self._zero_at is not None:
            self._hi ^= 1 << w * (self._zero_at + 1) - 1

    def _roots(self, sigma):
        """Positions i with sigma(p_i) = 0, in increasing order; the locator
        0 has no p_i and is never a root.

        sigma(p_i) for every i at once is the XOR of cols[j][t] over the
        set bits t of each sigma_j; its zero lanes are the roots.
        """
        v = 0
        for c, row in zip(sigma, self._cols):
            while c:
                bit = c & -c
                v ^= row[bit.bit_length() - 1]
                c ^= bit
        zero = self._hi & ~(v + self._max)
        w = self._w
        positions = []
        while zero:  # the top bit of lane i is bit w i + w - 1
            top = zero.bit_length()
            positions.append(top // w - 1)
            zero ^= 1 << top - 1
        positions.reverse()
        return positions


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
        elif radius < 0:
            raise ConfigError(f"radius {radius} is negative")
        elif self._max_radius is not None and radius > self._max_radius:
            raise ConfigError(
                f"radius {radius} exceeds floor((d-1)/2) = {self._max_radius}")
        self.radius = radius

    def decode(self, received):
        res = oracle_decode(self.code, received, self.budget)
        if res.ok and len(res.error) - res.error.count(0) > self.radius:
            return _FAILED
        return res


def oracle_decode(code, received, budget=DEFAULT_BUDGET):
    """Nearest codeword in the Hamming metric, with no radius bound.

    Ties come back as a decode failure with the tie flag set.
    """
    if len(received) != code.n:
        raise ConfigError(f"received length {len(received)} != {code.n}")
    rec = vec_checked(received, code.base_field.order)
    _, tie, word = nearest_codeword(code, rec, budget)
    if tie:
        return _TIE
    err = bytes(a ^ b for a, b in zip(rec, word))
    return HammingDecodeResult(word, err, SUCCESS)


def make_decoder(code, budget=DEFAULT_BUDGET):
    """Pick the natural decoder for a code: BCH, Goppa, or the oracle."""
    if code.bch_info is not None:
        return BchDecoder(code)
    if code.goppa_info is not None:
        return GoppaDecoder(code)
    return OracleDecoder(code, budget=budget)
