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

from .errors import BudgetError, ConfigError, ConstructionError, RangeError
from .gf2m import GF2, GF4, build_field
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
        if code.n != n:
            raise ConstructionError("declared length does not match the rows")
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


def compute_goppa_table(entries):
    rows = []
    for m, d in entries:
        dim_half, _ = goppa_pair_dimension(m, d)
        rows.append((1 << m, d, 2 * dim_half, singleton_bound(1 << m, d)))
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


def cmd_coset(args):
    print(",".join(str(x) for x in cyclotomic_coset(args.s, args.q, args.n)))
    return 0


def cmd_build_bch(args):
    if args.cosets is not None:
        leaders = [int(t) for t in args.cosets.split(",")]
        code = bch_build(args.n, DefiningSet.from_cosets(args.n, leaders))
    elif args.delta is not None:
        code = bch_build(args.n, (args.b, args.delta))
    else:
        raise ConstructionError("need --cosets or --delta")
    write_code_file(code, args.out)
    print(f"wrote [{code.n},{code.k},{code.d_designed}]_4 ({code.d_tag}) to {args.out}")
    return 0


def cmd_build_goppa(args):
    base = GF2 if args.base == "gf2" else GF4
    field = build_field(args.ext_degree)
    gpoly = find_irreducible(field, args.degree, seed=args.seed)
    locators = [a for a in field.elements()][:args.length] if args.length else list(field.elements())
    code = goppa_build(field, locators, gpoly, base=base)
    write_code_file(code, args.out)
    q = base.order
    print(f"wrote [{code.n},{code.k},{code.d_designed}]_{q} ({code.d_tag}) to {args.out}")
    return 0


def cmd_build_sr(args):
    c1 = read_code_file(args.c1)
    c2 = read_code_file(args.c2)
    code = sr_construct(c1, c2)
    d = code.d_sr_lower
    print(f"length {code.n}")
    print(f"f2_dimension {code.f2_dimension}")
    print(f"d_sr_lower {d}")
    print(f"decoder_ready {'yes' if code.decoder_ready else 'no'}")
    if d is not None and d != float("inf"):
        cap = singleton_bound(code.n, int(d))
        print(f"singleton_f2_dim {cap}")
        print(f"singleton_gap {cap - code.f2_dimension}")
    return 0


def cmd_tables(args):
    ref = reference_tables()
    rows = []
    if args.table in (1, 3):
        rule = (lambda d: (d + 1) // 2) if args.table == 1 else (lambda d: (2 * d + 2) // 3)
        computed = compute_block15_table(rule)
        for (d, dim, cap), rrow in zip(computed, ref[f"table{args.table}"]):
            dim_ref = 2 * rrow["dim_half"]
            cap_ref = 2 * rrow["singleton_half"]
            ok = "yes" if (dim == dim_ref and cap == cap_ref) else "MISMATCH"
            rows.append((d, dim, dim_ref, cap, cap_ref, ok))
        _emit(rows, ("d_sr", "dim_f2", "dim_f2_ref", "singleton_f2",
                     "singleton_f2_ref", "match"), args.pretty)
    else:
        entries = [(r["m"], r["d_sr"]) for r in ref["table2"]]
        computed = compute_goppa_table(entries)
        for (n, d, dim, cap), rrow in zip(computed, ref["table2"]):
            dim_ref = 2 * rrow["dim_half"]
            cap_ref = 2 * rrow["singleton_half"]
            ok = "yes" if (dim == dim_ref and cap == cap_ref) else "MISMATCH"
            rows.append((n, d, dim, dim_ref, cap, cap_ref, ok))
        _emit(rows, ("length", "d_sr", "dim_f2", "dim_f2_ref", "singleton_f2",
                     "singleton_f2_ref", "match"), args.pretty)
    return 0


def cmd_bounds(args):
    try:
        start, stop, step = (float(t) for t in args.delta_grid.split(":"))
    except ValueError:
        raise RangeError("--delta-grid expects start:stop:step")
    if start < 0 or stop >= 0.25 or step <= 0:
        raise RangeError("delta grid must stay inside [0, 0.25)")
    rows = []
    d = start
    while d <= stop + 1e-12:
        rows.append((f"{d:.6f}",
                     f"{entropy_q(4, d):.9f}",
                     f"{entropy_q(4, 2 * d):.9f}",
                     f"{gv_rate(d):.9f}",
                     f"{decodable_gv_rate(d):.9f}"))
        d += step
    _emit(rows, ("delta", "entropy4_delta", "entropy4_2delta",
                 "gv_rate", "decodable_gv_rate"), args.pretty)
    return 0


def cmd_encode(args):
    code = sr_construct(read_code_file(args.c1), read_code_file(args.c2))
    word = code.encode([int(c) for c in args.message])
    write_word_file(word, args.out)
    print(f"wrote length-{word.length} word to {args.out}")
    return 0


def cmd_decode(args):
    c1 = read_code_file(args.c1)
    c2 = read_code_file(args.c2)
    code = sr_construct(c1, c2)
    received = read_word_file(args.word)
    d_sr = args.d_sr if args.d_sr else code.d_sr_lower
    res = sr_decode(code, make_decoder(c1, budget=args.budget),
                    make_decoder(c2, budget=args.budget), received, d_sr)
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
    c1 = read_code_file(args.c1)
    c2 = read_code_file(args.c2)
    code = sr_construct(c1, c2)
    weights = [int(t) for t in args.weights.split(",")]
    seed = args.seed if args.seed is not None else int(os.environ.get("SRCODES_SEED", "0"))
    rows = simulate(code, make_decoder(c1, budget=args.budget),
                    make_decoder(c2, budget=args.budget), weights, args.trials, seed=seed,
                    d_sr=args.d_sr or None, jobs=args.jobs)
    out = []
    for r in rows:
        us = "0.0" if args.no_timing else f"{r['mean_decode_micros']:.1f}"
        out.append((r["weight"], r["trials"], r["success"], r["failure"],
                    r["ambiguous"], us))
    _emit(out, ("weight", "trials", "success", "failure", "ambiguous",
                "mean_decode_micros"), args.pretty)
    return 0


def cmd_mindist(args):
    if args.code:
        code = read_code_file(args.code)
        d, witness = min_distance_bruteforce(code, budget=args.budget)
        print(f"dmin {d}")
        print(f"witness {_sym_str(witness)}")
    else:
        if not (args.c1 and args.c2):
            raise RangeError("need --code or both --c1 and --c2")
        code = sr_construct(read_code_file(args.c1), read_code_file(args.c2))
        d, witness = sr_min_distance_bruteforce(code, budget=args.budget)
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

    sp = sub.add_parser("coset", help="print a 4-cyclotomic coset")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--q", type=int, default=4)
    sp.add_argument("--s", type=int, required=True)
    sp.set_defaults(func=cmd_coset)

    sp = sub.add_parser("build-bch", help="build a quaternary BCH code file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--cosets", help="comma separated coset leaders")
    sp.add_argument("--b", type=int, default=1, help="run start for --delta form")
    sp.add_argument("--delta", type=int, help="designed distance")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_build_bch)

    sp = sub.add_parser("build-goppa", help="build a Goppa code file")
    sp.add_argument("--base", choices=("gf2", "gf4"), default="gf2")
    sp.add_argument("--ext-degree", type=int, required=True,
                    help="m for the locator field GF(2^m)")
    sp.add_argument("--degree", type=int, required=True, help="deg G")
    sp.add_argument("--length", type=int, help="use only this many locators")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_build_goppa)

    sp = sub.add_parser("build-sr", help="pair two code files; print the manifest")
    sp.add_argument("--c1", required=True)
    sp.add_argument("--c2", required=True)
    sp.set_defaults(func=cmd_build_sr)

    sp = sub.add_parser("tables", help="recompute a reference table and compare")
    sp.add_argument("--table", type=int, choices=(1, 2, 3), required=True)
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("bounds", help="rate bound curves on a delta grid")
    sp.add_argument("--delta-grid", required=True, help="start:stop:step")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("encode", help="encode message bits into a word file")
    sp.add_argument("--c1", required=True)
    sp.add_argument("--c2", required=True)
    sp.add_argument("--message", required=True, help="bit string of length dim_F2")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", help="decode a word file")
    sp.add_argument("--c1", required=True)
    sp.add_argument("--c2", required=True)
    sp.add_argument("--word", required=True)
    sp.add_argument("--d-sr", type=int, default=0)
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("simulate", help="run the weighted error channel")
    sp.add_argument("--c1", required=True)
    sp.add_argument("--c2", required=True)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--d-sr", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.add_argument("--no-timing", action="store_true",
                    help="zero the timing column for byte-reproducible output")
    sp.add_argument("--pretty", action="store_true")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("mindist", help="certify a minimum distance by brute force")
    sp.add_argument("--code", help="single code file (Hamming metric)")
    sp.add_argument("--c1", help="pair mode: x^2 component")
    sp.add_argument("--c2", help="pair mode: x component")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    sp.set_defaults(func=cmd_mindist)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConstructionError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except RangeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
