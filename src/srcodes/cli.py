"""Command-line surface and the text file formats.

Formats (line oriented, GF(4) symbols written as the characters 0123):

code file:
    code v1
    field gf4 | gf2
    kind linear | additive
    length <l>
    dimension <k>            (linear)      f2dim <D>   (additive)
    dmin <int> <tag>
    dexact <int>             (optional, certified value)
    construction ...         (optional; enough data to rebuild a fast decoder)
    row <symbols>            (k rows for linear codes, D rows for additive)

word file:
    word v1
    length <l>
    x  <symbols>
    x2 <symbols>

Exit codes: 1 construction error, 2 usage/domain error, 3 budget exceeded,
4 decode failure.  SRCODES_SEED provides the default seed.
"""

import argparse
import json
import os
import sys
from importlib import resources

from .errors import BudgetError, ConstructionError, RangeError
from .gf2m import GF2, GF4, MAX_DEGREE, build_field, poly_eval
from .codes import (
    DEFAULT_BUDGET,
    AdditiveCode,
    DefiningSet,
    LinearCode,
    bch_build,
    best_bch_dimension,
    additive_build,
    cyclotomic_coset,
    find_irreducible,
    goppa_build,
    goppa_pair_dimension,
    min_distance_bruteforce,
)
from .hamdec import make_decoder
from .sumrank import (
    SrWord,
    decodable_gv_rate,
    entropy_q,
    gv_rate,
    singleton_bound,
    sr_construct,
    sr_min_distance_bruteforce,
    sumrank_weight_formula,
)
from .srdec import simulate, sr_decode

EXIT_CONSTRUCTION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_DECODE = 4


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _sym_str(v):
    return "".join(str(s) for s in v)


def _sym_bytes(s):
    try:
        vals = bytes(int(c) for c in s.strip())
    except ValueError:
        raise ConstructionError(f"bad symbol string {s!r}")
    if any(v > 3 for v in vals):
        raise ConstructionError(f"symbol out of range in {s!r}")
    return vals


def _int(text, base=10):
    """A non-negative integer token of a file."""
    try:
        v = int(text, base)
    except ValueError:
        v = -1
    if v < 0:
        raise ConstructionError(f"expected a non-negative integer, got {text!r}")
    return v


def _arg_int(text, flag):
    """A non-negative integer given for a command-line flag."""
    try:
        return _int(str(text))
    except ConstructionError:
        raise RangeError(f"{flag} expects a non-negative integer, got {text!r}") from None


def _at_least(low, what, high=None):
    """argparse type of an integer flag in low..high (unbounded above by default)."""
    def parse(text):
        try:
            v = _int(text)
        except ConstructionError:
            v = -1
        if v < low or (high is not None and v > high):
            raise argparse.ArgumentTypeError(f"expects {what}, got {text!r}")
        return v
    return parse


_count = _at_least(0, "a non-negative integer")      # --trials, --budget, --seed, --d-sr
_length = _at_least(1, "a positive integer")         # a code length --n
_two_up = _at_least(2, "an integer of at least 2")   # coset --q, build-bch --delta
_ext_degree = _at_least(1, f"an integer in 1..{MAX_DEGREE}", MAX_DEGREE)


def _counts(text):
    """argparse type of a comma-separated list of non-negative integers."""
    return [_count(t) for t in text.split(",")]


def _arg_d_sr(code, d_sr):
    """--d-sr as sr_decode's d_sr: 0 means the default, code.d_sr_decodable."""
    top = code.d_sr_decodable
    if top is not None and d_sr > top:
        raise RangeError(f"--d-sr expects an integer in 0..{top}, where 0 means {top}; got {d_sr}")
    return d_sr or None


def _required(fields, key):
    if key not in fields:
        raise ConstructionError(f"missing {key!r} line")
    return fields[key]


def dump_code(code):
    lines = ["code v1"]
    lines.append("field gf2" if code.base_field.order == 2 else "field gf4")
    lines.append(f"kind {code.kind}")
    lines.append(f"length {code.n}")
    if isinstance(code, AdditiveCode):
        lines.append(f"f2dim {code.f2_dimension}")
    else:
        lines.append(f"dimension {code.k}")
    lines.append(f"dmin {code.d_designed} {code.d_tag}")
    if code.d_exact is not None:
        lines.append(f"dexact {code.d_exact}")
    info = getattr(code, "bch_info", None)
    if info is not None:
        leaders = sorted({min(cyclotomic_coset(j, 4, code.n))
                          for j in info.defining_set.exponents})
        lines.append("construction bch %d %s" % (code.n, ",".join(map(str, leaders))))
    ginfo = getattr(code, "goppa_info", None)
    if ginfo is not None:
        base = "gf2" if ginfo.base_order == 2 else "gf4"
        f = ginfo.field
        lines.append(f"construction goppa {base} {f.m} {f.modulus:#x}")
        lines.append("gpoly " + " ".join(f"{c:x}" for c in ginfo.gpoly))
        lines.append("locators " + " ".join(f"{a:x}" for a in ginfo.locators))
    rows = code.f2_generators if isinstance(code, AdditiveCode) else code.generator_matrix
    for r in rows:
        lines.append("row " + _sym_str(r))
    return "\n".join(lines) + "\n"


def load_code(text):
    fields = {}
    rows = []
    extra = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        if key == "row":
            rows.append(_sym_bytes(rest))
        elif key in ("gpoly", "locators"):
            extra[key] = [_int(t, 16) for t in rest.split()]
        elif key == "construction":
            extra["construction"] = rest.split()
        else:
            fields[key] = rest
    if fields.get("code") != "v1":
        raise ConstructionError("not a v1 code file")
    base = {"gf2": GF2, "gf4": GF4}.get(fields.get("field"))
    if base is None:
        raise ConstructionError(f"unsupported field {fields.get('field')!r}")
    if any(r.translate(None, bytes(range(base.order))) for r in rows):
        raise ConstructionError(f"row symbol outside the declared field {fields['field']}")
    n = _int(_required(fields, "length"))
    dmin_str = fields.get("dmin", "1 declared")
    d_str, _, tag = dmin_str.partition(" ")
    d_lower, tag = _int(d_str), (tag or "declared")

    cons = extra.get("construction")
    # fields counting the name: bch n leaders / goppa base m modulus
    if cons and len(cons) < {"bch": 3, "goppa": 4}.get(cons[0], 0):
        raise ConstructionError(f"construction {cons[0]} line has too few fields")
    if cons and cons[0] == "bch":
        cn = _int(cons[1])
        leaders = [_int(t) for t in cons[2].split(",")]
        code = bch_build(cn, DefiningSet.from_cosets(cn, leaders))
        if tuple(rows) != code.generator_matrix:
            raise ConstructionError("bch construction metadata does not match rows")
    elif cons and cons[0] == "goppa":
        f = build_field(_int(cons[2]), _int(cons[3], 16))
        code = goppa_build(f, _required(extra, "locators"), _required(extra, "gpoly"),
                           base=GF2 if cons[1] == "gf2" else GF4)
        if tuple(rows) != code.generator_matrix:
            raise ConstructionError("goppa construction metadata does not match rows")
    elif fields.get("kind") == "additive":
        code = additive_build(rows, d_lower=d_lower, d_tag=tag)
        if code.f2_dimension != _int(_required(fields, "f2dim")):
            raise ConstructionError("declared f2dim does not match the generators")
    else:
        if rows:
            code = LinearCode(base, rows, d_lower=d_lower, d_tag=tag)
        else:
            eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            code = LinearCode(base, [], parity_rows=eye, d_lower=d_lower, d_tag=tag)
        if code.k != _int(fields.get("dimension", str(len(rows)))):
            raise ConstructionError("declared dimension does not match the rows")
    if code.n != n:
        raise ConstructionError("declared length does not match the rows")
    if "dexact" in fields:
        code.d_exact = _int(fields["dexact"])
    if cons and cons[0] in ("bch", "goppa"):
        # the construction proves its own bound, so the file may only repeat it
        if "dmin" in fields and (d_lower, tag) != (code.d_designed, code.d_tag):
            raise ConstructionError(f"dmin {dmin_str} differs from the {cons[0]} construction's "
                                    f"{code.d_designed} {code.d_tag}")
        if code.d_exact is not None and code.d_exact < code.d_designed:
            raise ConstructionError(f"dexact {code.d_exact} is below the {cons[0]} bound "
                                    f"{code.d_designed}")
    # the Singleton bound; an additive code's k is half its F2 dimension, rounded down
    top = code.n - (code.f2_dimension // 2 if isinstance(code, AdditiveCode) else code.k) + 1
    for key, d in (("dmin", d_lower), ("dexact", code.d_exact)):
        if d is not None and d > top:
            raise ConstructionError(f"{key} {d} exceeds the Singleton bound n - k + 1 = {top}")
    return code


def write_code_file(code, path):
    with open(path, "w") as fh:
        fh.write(dump_code(code))


def read_code_file(path):
    with open(path) as fh:
        return load_code(fh.read())


def dump_word(word):
    return ("word v1\nlength %d\nx %s\nx2 %s\n"
            % (word.length, _sym_str(word.coeff_x), _sym_str(word.coeff_x2)))


def load_word(text):
    fields = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        fields[key] = rest
    if fields.get("word") != "v1":
        raise ConstructionError("not a v1 word file")
    x = _sym_bytes(_required(fields, "x"))
    x2 = _sym_bytes(_required(fields, "x2"))
    if len(x) != _int(_required(fields, "length")) or len(x2) != len(x):
        raise ConstructionError("word length mismatch")
    return SrWord(x, x2)


def write_word_file(word, path):
    with open(path, "w") as fh:
        fh.write(dump_word(word))


def read_word_file(path):
    with open(path) as fh:
        return load_word(fh.read())


def reference_tables():
    with resources.files("srcodes.data").joinpath("reference_tables.json").open() as fh:
        return json.load(fh)


def packaged_code(name):
    """Load one of the code files shipped with the package."""
    text = resources.files("srcodes.data").joinpath(name).read_text()
    return load_code(text)


# ----------------------------------------------------------------------
# table recomputation
# ----------------------------------------------------------------------

def compute_block15_table(d2_rule):
    """Rows (d_sr, f2 dim, singleton f2 dim) for the block-length-15 search."""
    rows = []
    for d in range(4, 16):
        k1, _ = best_bch_dimension(15, d)
        k2, _ = best_bch_dimension(15, d2_rule(d))
        rows.append((d, 2 * (k1 + k2), singleton_bound(15, d)))
    return rows


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _emit(rows, header, pretty):
    if pretty:
        widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
        for r in [header] + rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)).rstrip())
    else:
        print(",".join(header))
        for r in rows:
            print(",".join(str(v) for v in r))


def _pair(args):
    """The sum-rank code of the --c1 and --c2 code files."""
    return sr_construct(read_code_file(args.c1), read_code_file(args.c2))


def cmd_coset(args):
    print(",".join(str(x) for x in cyclotomic_coset(args.s, args.q, args.n)))
    return 0


def cmd_build_bch(args):
    form = ((args.b, args.delta) if args.cosets is None
            else DefiningSet.from_cosets(args.n, args.cosets))
    code = bch_build(args.n, form)
    write_code_file(code, args.out)
    print(f"wrote [{code.n},{code.k},{code.d_designed}]_4 ({code.d_tag}) to {args.out}")
    return 0


def cmd_build_goppa(args):
    base = GF2 if args.base == "gf2" else GF4
    field = build_field(args.ext_degree)
    gpoly = find_irreducible(field, args.degree, seed=args.seed)
    # G's roots are no locators; an irreducible G of degree >= 2 has none
    locators = [a for a in field.elements() if poly_eval(field, gpoly, a)]
    if args.length and args.length > len(locators):
        raise RangeError(f"--length {args.length} exceeds the {len(locators)} elements of "
                         f"GF(2^{field.m}) that are not roots of G")
    locators = locators[:args.length or None]   # --length 0 keeps them all
    code = goppa_build(field, locators, gpoly, base=base)
    write_code_file(code, args.out)
    print(f"wrote [{code.n},{code.k},{code.d_designed}]_{base.order} ({code.d_tag}) to {args.out}")
    return 0


def cmd_build_sr(args):
    code = _pair(args)
    d = code.d_sr_lower
    print(f"length {code.n}")
    print(f"f2_dimension {code.f2_dimension}")
    print(f"d_sr_lower {d}")
    print(f"d_sr_decodable {code.d_sr_decodable}")
    print(f"decoder_ready {'yes' if code.decoder_ready else 'no'}")
    if d is not None and d != float("inf"):
        cap = singleton_bound(code.n, int(d))
        print(f"singleton_f2_dim {cap}")
        print(f"singleton_gap {cap - code.f2_dimension}")
    return 0


def cmd_tables(args):
    ref = reference_tables()[f"table{args.table}"]
    if args.table == 2:
        computed = [(1 << r["m"], r["d_sr"], 2 * goppa_pair_dimension(r["m"], r["d_sr"])[0],
                     singleton_bound(1 << r["m"], r["d_sr"])) for r in ref]
        header = ("length",)
    else:
        rule = (lambda d: (d + 1) // 2) if args.table == 1 else (lambda d: (2 * d + 2) // 3)
        computed = compute_block15_table(rule)
        header = ()
    rows = []
    for (*key, dim, cap), rrow in zip(computed, ref):
        dim_ref, cap_ref = 2 * rrow["dim_half"], 2 * rrow["singleton_half"]
        ok = "yes" if (dim, cap) == (dim_ref, cap_ref) else "MISMATCH"
        rows.append((*key, dim, dim_ref, cap, cap_ref, ok))
    _emit(rows, header + ("d_sr", "dim_f2", "dim_f2_ref", "singleton_f2",
                          "singleton_f2_ref", "match"), args.pretty)
    return 0


def cmd_bounds(args):
    try:
        start, stop, step = (float(t) for t in args.delta_grid.split(":"))
    except ValueError:
        raise RangeError("--delta-grid expects start:stop:step")
    if not (start >= 0 and stop < 0.25 and step > 0):  # NaN fails every comparison
        raise RangeError("--delta-grid must stay inside [0, 0.25) with a positive step")
    if (stop - start) / step >= 10 ** 6:
        raise BudgetError(f"--delta-grid asks for {(stop - start) / step + 1:.3g} rows; "
                          "the limit is 10^6")
    rows = []
    d = start
    while d <= stop + 1e-12:
        curves = (entropy_q(4, d), entropy_q(4, 2 * d), gv_rate(d), decodable_gv_rate(d))
        rows.append((f"{d:.6f}", *(f"{v:.9f}" for v in curves)))
        d += step
    _emit(rows, ("delta", "entropy4_delta", "entropy4_2delta",
                 "gv_rate", "decodable_gv_rate"), args.pretty)
    return 0


def cmd_encode(args):
    code = _pair(args)
    if args.message.strip("01"):
        raise RangeError(f"--message expects a string of 0s and 1s, got {args.message!r}")
    word = code.encode([int(c) for c in args.message])
    write_word_file(word, args.out)
    print(f"wrote length-{word.length} word to {args.out}")
    return 0


def cmd_decode(args):
    code = _pair(args)
    d_sr = _arg_d_sr(code, args.d_sr)
    received = read_word_file(args.word)
    decoders = [make_decoder(c, budget=args.budget) for c in (code.c1, code.c2)]
    res = sr_decode(code, *decoders, received, d_sr)
    print(f"status {res.status}")
    branches = " ".join(f"{b}:{s}" for b, s in res.candidates_considered)
    print(f"branches {branches if branches else '-'}")
    if res.ok:
        w = sumrank_weight_formula(res.error.coeff_x2, res.error.coeff_x)
        print(f"succeeded_branch {res.succeeded_branch}")
        print(f"error_weight {w}")
        if args.out:
            write_word_file(res.codeword, args.out)
            print(f"wrote codeword to {args.out}")
        return 0
    return EXIT_DECODE


def cmd_simulate(args):
    code = _pair(args)
    d_sr = _arg_d_sr(code, args.d_sr)
    seed = args.seed
    if seed is None:
        seed = _arg_int(os.environ.get("SRCODES_SEED", "0"), "SRCODES_SEED")
    decoders = [make_decoder(c, budget=args.budget) for c in (code.c1, code.c2)]
    rows = simulate(code, *decoders, args.weights, args.trials, seed=seed, d_sr=d_sr)
    tallies = ("weight", "trials", "success", "failure", "ambiguous", "miscorrections")
    out = [tuple(r[k] for k in tallies)
           + ("%.1f" % (0 if args.no_timing else r["mean_decode_micros"]),) for r in rows]
    _emit(out, tallies + ("mean_decode_micros",), args.pretty)
    return 0


def cmd_mindist(args):
    if args.code:
        if args.c1 or args.c2:
            raise RangeError("--code measures one code; pass it without --c1 or --c2")
        code = read_code_file(args.code)
        d, witness = min_distance_bruteforce(code, budget=args.budget)
        print(f"dmin {d}")
        print(f"witness {_sym_str(witness)}")
    else:
        if not (args.c1 and args.c2):
            raise RangeError("need --code or both --c1 and --c2")
        d, witness = sr_min_distance_bruteforce(_pair(args), budget=args.budget)
        print(f"dmin_sr {d}")
        print(f"witness_x {_sym_str(witness.coeff_x)}")
        print(f"witness_x2 {_sym_str(witness.coeff_x2)}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="srcodes",
        description="Binary linear sum-rank-metric codes with 2x2 blocks: "
                    "construction, bounds, and fast reduction decoding.")
    sub = p.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--c1", required=True)
    pair.add_argument("--c2", required=True)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=_count, default=DEFAULT_BUDGET)
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true")
    d_sr = argparse.ArgumentParser(add_help=False)
    d_sr.add_argument("--d-sr", type=_count, default=0,
                      help="declared d_sr in 1..d_sr_decodable; 0 means d_sr_decodable")

    sp = sub.add_parser("coset", help="print a 4-cyclotomic coset")
    sp.add_argument("--n", type=_length, required=True)
    sp.add_argument("--q", type=_two_up, default=4)
    sp.add_argument("--s", type=int, required=True)
    sp.set_defaults(func=cmd_coset)

    sp = sub.add_parser("build-bch", help="build a quaternary BCH code file")
    sp.add_argument("--n", type=_length, required=True)
    form = sp.add_mutually_exclusive_group(required=True)
    form.add_argument("--cosets", type=_counts, help="comma separated coset leaders")
    form.add_argument("--delta", type=_two_up, help="designed distance")
    sp.add_argument("--b", type=int, default=1, help="run start for --delta form")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_build_bch)

    sp = sub.add_parser("build-goppa", help="build a Goppa code file")
    sp.add_argument("--base", choices=("gf2", "gf4"), default="gf2")
    sp.add_argument("--ext-degree", type=_ext_degree, required=True,
                    help="m for the locator field GF(2^m)")
    sp.add_argument("--degree", type=_count, required=True, help="deg G")
    sp.add_argument("--length", type=_count, help="use only this many locators")
    sp.add_argument("--seed", type=_count, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_build_goppa)

    sp = sub.add_parser("build-sr", parents=[pair],
                        help="pair two code files; print the manifest")
    sp.set_defaults(func=cmd_build_sr)

    sp = sub.add_parser("tables", parents=[pretty],
                        help="recompute a reference table and compare")
    sp.add_argument("--table", type=int, choices=(1, 2, 3), required=True)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("bounds", parents=[pretty], help="rate bound curves on a delta grid")
    sp.add_argument("--delta-grid", required=True, help="start:stop:step")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("encode", parents=[pair], help="encode message bits into a word file")
    sp.add_argument("--message", required=True, help="bit string of length dim_F2")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", parents=[pair, d_sr, budget], help="decode a word file")
    sp.add_argument("--word", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("simulate", parents=[pair, d_sr, budget, pretty],
                        help="run the weighted error channel")
    sp.add_argument("--weights", type=_counts, required=True)
    sp.add_argument("--trials", type=_count, default=100)
    sp.add_argument("--seed", type=_count)
    sp.add_argument("--no-timing", action="store_true",
                    help="zero the timing column for byte-reproducible output")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("mindist", parents=[budget],
                        help="certify a minimum distance by brute force")
    sp.add_argument("--code", help="single code file (Hamming metric)")
    sp.add_argument("--c1", help="pair mode: x^2 component")
    sp.add_argument("--c2", help="pair mode: x component")
    sp.set_defaults(func=cmd_mindist)

    return p


# the first matching row wins: RangeError, ConstructionError and ConfigError are ValueErrors
_EXIT_CODES = ((BudgetError, EXIT_BUDGET), (RangeError, EXIT_USAGE),
               (ValueError, EXIT_CONSTRUCTION))


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except OSError as e:
        # a file named on the command line is a usage error that names its flag
        flags = [f"--{k}" for k, v in vars(args).items() if isinstance(v, str) and v == e.filename]
        if not flags:
            raise
        print(f"error: {'/'.join(flags)}: {e.strerror}: {e.filename!r}", file=sys.stderr)
        return EXIT_USAGE
    except tuple(exc for exc, _ in _EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for exc, code in _EXIT_CODES if isinstance(e, exc))


if __name__ == "__main__":
    sys.exit(main())
