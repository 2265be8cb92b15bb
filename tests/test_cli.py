import functools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from srcodes.errors import ConstructionError, RangeError
from srcodes.gf2m import GF2, GF4, build_field
from srcodes.codes import LinearCode, bch_build, find_irreducible, goppa_build
from srcodes.sumrank import SrWord
from srcodes.cli import (
    dump_code,
    dump_word,
    load_code,
    load_word,
    main,
    packaged_code,
    read_code_file,
    reference_tables,
    write_code_file,
)


def run_cli(*argv, env=None):
    proc = subprocess.run([sys.executable, "-m", "srcodes", *argv],
                          capture_output=True, text=True,
                          env=None if env is None else {**os.environ, **env})
    return proc.returncode, proc.stdout, proc.stderr


# ----------------------------------------------------------------------
# file formats
# ----------------------------------------------------------------------

def test_code_file_roundtrip_bch(tmp_path):
    code = bch_build(15, (1, 6))
    path = tmp_path / "c.code"
    write_code_file(code, path)
    back = read_code_file(path)
    assert back.generator_matrix == code.generator_matrix
    assert back.d_designed == code.d_designed and back.d_tag == code.d_tag
    assert back.bch_info is not None
    assert dump_code(back) == dump_code(code)


def test_code_file_roundtrip_goppa(tmp_path):
    F = build_field(5)
    code = goppa_build(F, list(F.elements()), find_irreducible(F, 3, seed=1), base=GF2)
    text = dump_code(code)
    back = load_code(text)
    assert back.generator_matrix == code.generator_matrix
    assert back.goppa_info is not None
    assert dump_code(back) == text


def test_code_file_roundtrip_plain_and_additive():
    lin = LinearCode(GF4, [bytes([1, 2, 3])], d_lower=3, d_tag="declared")
    assert load_code(dump_code(lin)).generator_matrix == lin.generator_matrix
    from srcodes.codes import additive_build
    add = additive_build([bytes([1, 0]), bytes([2, 0]), bytes([0, 1])],
                         d_lower=1, d_tag="declared")
    back = load_code(dump_code(add))
    assert back.f2_generators == add.f2_generators
    assert dump_code(back) == dump_code(add)


def test_code_file_dexact_preserved():
    lin = LinearCode(GF4, [bytes([1, 2, 3])], d_lower=3, d_tag="declared")
    lin.d_exact = 3
    back = load_code(dump_code(lin))
    assert back.d_exact == 3


def test_word_file_roundtrip():
    word = SrWord(bytes([0, 1, 2, 3]), bytes([3, 0, 0, 2]))
    assert load_word(dump_word(word)) == word


def test_corrupt_files_rejected():
    from srcodes.errors import ConstructionError
    with pytest.raises(ConstructionError):
        load_code("code v2\n")
    with pytest.raises(ConstructionError):
        load_word("word v1\nlength 2\nx 01\nx2 015\n")
    with pytest.raises(ConstructionError):
        load_code("code v1\nfield gf4\nkind linear\nlength 3\ndimension 2\n"
                  "dmin 1 declared\nrow 123\n")  # dimension mismatch


def test_missing_lines_exit_code(tmp_path, capsys):
    code_text = dump_code(bch_build(15, (1, 6)))
    c1 = tmp_path / "c1.code"
    c1.write_text(code_text)
    no_length = tmp_path / "no_length.code"
    no_length.write_text(code_text.replace("length 15\n", ""))
    assert main(["build-sr", "--c1", str(c1), "--c2", str(no_length)]) == 1
    word_text = dump_word(SrWord(bytes(15), bytes(15)))
    for key in ("length", "x", "x2"):
        word = tmp_path / f"no_{key}.word"
        word.write_text("".join(line + "\n" for line in word_text.splitlines()
                                if line.split(" ")[0] != key))
        assert main(["decode", "--c1", str(c1), "--c2", str(c1),
                     "--word", str(word)]) == 1
    assert "missing 'x2' line" in capsys.readouterr().err


def test_short_construction_line_exit_code(tmp_path):
    from srcodes.errors import ConstructionError
    good = tmp_path / "c1.code"
    good.write_text(dump_code(bch_build(15, (1, 6))))
    for short in ("construction bch", "construction bch 15", "construction goppa gf2 5"):
        text = "".join(line + "\n" if not line.startswith("construction") else short + "\n"
                       for line in good.read_text().splitlines())
        with pytest.raises(ConstructionError):
            load_code(text)
        bad = tmp_path / "short.code"
        bad.write_text(text)
        assert main(["build-sr", "--c1", str(good), "--c2", str(bad)]) == 1


def _with_line(text, key, line):
    """text with its `key` line replaced by line."""
    return "".join((line if raw.split(" ")[0] == key else raw) + "\n"
                   for raw in text.splitlines())


def _goppa32():
    F = build_field(5)
    return goppa_build(F, list(F.elements()), find_irreducible(F, 2, seed=0), base=GF2)


def test_malformed_fields_are_construction_errors():
    bch = dump_code(bch_build(15, (1, 6)))
    lin = dump_code(packaged_code("linear_12_8_4.code"))
    goppa = dump_code(_goppa32())
    bad = [_with_line(bch, "length", "length abc"),
           _with_line(bch, "length", "length 16"),
           _with_line(goppa, "length", "length 31"),
           _with_line(bch, "dmin", "dmin x declared"),
           _with_line(lin, "dimension", "dimension q"),
           bch + "dexact z\n",
           _with_line(bch, "construction", "construction bch 15 1,x"),
           _with_line(goppa, "gpoly", "gpoly zz 1 1"),
           _with_line(goppa, "locators", "locators 1 99"),
           _with_line(goppa, "gpoly", "gpoly 1 1 40"),
           "code v1\nfield gf2\nkind linear\nlength 3\ndimension 1\nrow 120\n",
           "code v1\nfield gf4\nkind linear\nlength 0\ndimension 0\n",
           "code v1\nfield gf4\nkind linear\nlength -2\ndimension 0\n"]
    for text in bad:
        with pytest.raises(ConstructionError):
            load_code(text)
    with pytest.raises(ConstructionError):
        load_word("word v1\nlength two\nx 01\nx2 01\n")


def test_distance_claims_above_singleton_are_refused(tmp_path):
    # d <= n - k + 1; an additive code's k is half its F2 dimension, rounded down
    rep = "code v1\nfield gf4\nkind linear\nlength 3\ndimension 1\ndmin 3 declared\nrow 111\n"
    additive = dump_code(packaged_code("additive_12_f2dim7_d8.code"))   # bound 12 - 3 + 1
    assert load_code(rep + "dexact 3\n").d_lower == 3
    assert load_code(_with_line(additive, "dexact", "dexact 10")).d_lower == 10
    for text, claim in ((rep + "dexact 9\n", "dexact 9"),
                        (_with_line(rep, "dmin", "dmin 4 declared"), "dmin 4"),
                        (_with_line(additive, "dexact", "dexact 11"), "dexact 11"),
                        (_with_line(additive, "dmin", "dmin 11 declared"), "dmin 11")):
        with pytest.raises(ConstructionError, match=f"^{claim} exceeds the Singleton bound"):
            load_code(text)
    bad = tmp_path / "rep.code"
    bad.write_text(rep + "dexact 9\n")
    rc, out, err = run_cli("build-sr", "--c1", str(bad), "--c2", str(bad))
    assert (rc, out) == (1, "") and "dexact 9 exceeds the Singleton bound n - k + 1 = 3" in err


def test_construction_distance_claims_are_the_constructions(tmp_path):
    # a bch or goppa file's distance comes from its construction: a dexact
    # below that bound, or a dmin line other than the construction's, is
    # refused rather than loaded as stated or silently replaced
    for name, code in (("bch", bch_build(15, (1, 6))), ("goppa", _goppa32())):
        text, d, tag = dump_code(code), code.d_designed, code.d_tag
        assert load_code(text + f"dexact {d}\n").d_lower == d
        assert load_code(text.replace(f"dmin {d} {tag}\n", "")).d_lower == d
        for bad, claim in ((text + "dexact 2\n", f"dexact 2 is below the {name} bound {d}"),
                           (_with_line(text, "dmin", "dmin 3 declared"),
                            f"dmin 3 declared differs from the {name} construction's {d} {tag}"),
                           (_with_line(text, "dmin", f"dmin {d} declared"), f"dmin {d} declared")):
            with pytest.raises(ConstructionError, match=f"^{claim}"):
                load_code(bad)
    bad = tmp_path / "bch.code"
    bad.write_text(dump_code(bch_build(15, (1, 6))) + "dexact 2\n")
    rc, out, err = run_cli("build-sr", "--c1", str(bad), "--c2", str(bad))
    assert (rc, out) == (1, "") and "dexact 2 is below the bch bound 6" in err


@functools.lru_cache(maxsize=None)
def _loader_inputs():
    """(loader, valid file text) pairs for the fuzz test to mutate."""
    codes = [bch_build(15, (1, 6)), _goppa32(), packaged_code("linear_12_8_4.code"),
             packaged_code("additive_12_f2dim7_d8.code"),
             LinearCode(GF2, [bytes([1, 1, 0]), bytes([0, 1, 1])], d_lower=2)]
    word = SrWord(bytes([0, 1, 2, 3]), bytes([3, 0, 0, 2]))
    return tuple([(load_code, dump_code(c)) for c in codes] + [(load_word, dump_word(word))])


_TOKENS = st.one_of(st.integers(-3, 70).map(str), st.integers(0, 300).map("{:x}".format),
                    st.text("0123456789abcdefgxz-,", max_size=5))


@st.composite
def _mutated_files(draw):
    """A valid code or word file with one to three lines dropped, doubled or
    with one token replaced."""
    load, text = draw(st.sampled_from(_loader_inputs()))
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "double", "token")))
        if op == "drop":
            del lines[i]
        elif op == "double":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_TOKENS)
            lines[i] = " ".join(tokens)
        if not lines:
            break
    return load, "".join(line + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(case=_mutated_files())
def test_loaders_raise_only_typed_errors(case):
    load, text = case
    try:
        load(text)
    except (ConstructionError, RangeError):
        pass


def test_bad_code_file_exit_code_without_traceback(tmp_path):
    good = tmp_path / "good.code"
    good.write_text(dump_code(bch_build(15, (1, 6))))
    bad = tmp_path / "bad.code"
    bad.write_text("code v1\nfield gf2\nkind linear\nlength 15\ndimension 1\n"
                   "row 200000000000000\n")
    word = tmp_path / "w.word"
    word.write_text(dump_word(SrWord(bytes(15), bytes(15))))
    rc, _, err = run_cli("decode", "--c1", str(bad), "--c2", str(good), "--word", str(word))
    assert rc == 1
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


def test_packaged_data_codes():
    add = packaged_code("additive_12_f2dim7_d8.code")
    assert add.f2_dimension == 7 and add.n == 12
    lin = packaged_code("linear_12_8_4.code")
    assert (lin.n, lin.k) == (12, 8)


def test_reference_tables_shape():
    ref = reference_tables()
    assert len(ref["table1"]) == 12
    assert len(ref["table3"]) == 12
    assert len(ref["table2"]) == 6


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def test_cmd_coset_output():
    rc, out, _ = run_cli("coset", "--n", "63", "--q", "4", "--s", "1")
    assert rc == 0 and out.strip() == "1,4,16"
    rc, out, _ = run_cli("coset", "--n", "15", "--q", "4", "--s", "0")
    assert rc == 0 and out.strip() == "0"
    rc, out, _ = run_cli("coset", "--n", "15", "--q", "2", "--s", "1")
    assert rc == 0 and out.strip() == "1,2,4,8"


def test_cmd_coset_bad_args_exit_code():
    rc, _, _ = run_cli("coset", "--n", "15")
    assert rc == 2
    rc, _, err = run_cli("coset", "--n", "15", "--q", "5", "--s", "1")
    assert rc == 1 and "coset" in err


def test_cmd_build_and_manifest(tmp_path):
    c1 = tmp_path / "c1.code"
    c2 = tmp_path / "c2.code"
    rc, _, _ = run_cli("build-bch", "--n", "63",
                       "--cosets", "0,1,2,3,5,6,7,9,10,11", "--out", str(c1))
    assert rc == 0
    rc, _, _ = run_cli("build-bch", "--n", "63", "--cosets", "0,1,2,3,5",
                       "--out", str(c2))
    assert rc == 0
    rc, out, _ = run_cli("build-sr", "--c1", str(c1), "--c2", str(c2))
    assert rc == 0
    manifest = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert manifest["f2_dimension"] == "170"
    assert manifest["d_sr_lower"] == "14"
    assert manifest["d_sr_decodable"] == "10"   # d1 = 14, d2 = 7
    assert manifest["decoder_ready"] == "no"

    # with no --d-sr, decode works at d_sr_decodable, radius 4
    from srcodes.cli import write_word_file
    from srcodes.srdec import sample_error
    from srcodes.sumrank import sr_construct
    code = sr_construct(read_code_file(c1), read_code_file(c2))
    word = tmp_path / "w.word"
    write_word_file(code.encode([1, 0] * 85) + sample_error(63, 4, 3), word)
    rc, out, _ = run_cli("decode", "--c1", str(c1), "--c2", str(c2), "--word", str(word))
    assert rc == 0 and "error_weight 4" in out


def test_cmd_build_sr_mismatched_lengths(tmp_path):
    a = tmp_path / "a.code"
    b = tmp_path / "b.code"
    rc, _, _ = run_cli("build-bch", "--n", "15", "--b", "1", "--delta", "4",
                       "--out", str(a))
    assert rc == 0
    rc, _, _ = run_cli("build-bch", "--n", "63", "--cosets", "0,1", "--out", str(b))
    assert rc == 0
    rc, _, _ = run_cli("build-sr", "--c1", str(a), "--c2", str(b))
    assert rc == 1


def test_cmd_tables_all_match():
    for table in ("1", "2", "3"):
        rc, out, _ = run_cli("tables", "--table", table)
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == (13 if table != "2" else 7)
        assert all(line.endswith(",yes") for line in lines[1:])


def test_cmd_bounds():
    rc, out, _ = run_cli("bounds", "--delta-grid", "0.0:0.2:0.05")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("delta,")
    first = lines[1].split(",")
    assert float(first[3]) == 1.0 and float(first[4]) == 1.0
    rates = [float(line.split(",")[3]) for line in lines[1:]]
    assert rates == sorted(rates, reverse=True)
    rc, _, _ = run_cli("bounds", "--delta-grid", "0.1:0.3:0.05")
    assert rc == 2


def test_cmd_encode_decode_simulate(tmp_path):
    c1 = tmp_path / "c1.code"
    c2 = tmp_path / "c2.code"
    run_cli("build-bch", "--n", "15", "--b", "1", "--delta", "6", "--out", str(c1))
    run_cli("build-bch", "--n", "15", "--cosets", "0,1,2", "--out", str(c2))
    word = tmp_path / "w.word"
    msg = "01" * 18
    rc, _, _ = run_cli("encode", "--c1", str(c1), "--c2", str(c2),
                       "--message", msg, "--out", str(word))
    assert rc == 0
    rc, out, _ = run_cli("decode", "--c1", str(c1), "--c2", str(c2),
                         "--word", str(word), "--d-sr", "6")
    assert rc == 0
    assert "status success" in out and "error_weight 0" in out

    # corrupt one block and decode again
    from srcodes.cli import read_word_file, write_word_file
    from srcodes.srdec import sample_error
    w = read_word_file(word)
    noisy = tmp_path / "n.word"
    write_word_file(w + sample_error(15, 2, 5), noisy)
    rc, out, _ = run_cli("decode", "--c1", str(c1), "--c2", str(c2),
                         "--word", str(noisy), "--d-sr", "6")
    assert rc == 0 and "error_weight 2" in out

    rc, out, _ = run_cli("simulate", "--c1", str(c1), "--c2", str(c2),
                         "--weights", "0,1,2", "--trials", "25",
                         "--seed", "9", "--no-timing")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("weight,trials,success,failure,ambiguous,miscorrections,"
                        "mean_decode_micros")
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[2] == "25" and parts[3:6] == ["0", "0", "0"]


def test_cmd_decode_failure_exit_code(tmp_path):
    c1 = tmp_path / "c1.code"
    c2 = tmp_path / "c2.code"
    run_cli("build-bch", "--n", "15", "--b", "1", "--delta", "6", "--out", str(c1))
    run_cli("build-bch", "--n", "15", "--cosets", "0,1,2", "--out", str(c2))
    # an undecodable word: weight-5 error on the x^2 slot from the zero word
    bad = SrWord(bytes(15), bytes([1] * 5 + [0] * 10))
    word = tmp_path / "bad.word"
    word.write_text(dump_word(bad))
    rc, out, _ = run_cli("decode", "--c1", str(c1), "--c2", str(c2),
                         "--word", str(word), "--d-sr", "6")
    assert rc == 4
    assert "status" in out


PAIR = ("--c1", "{c1}", "--c2", "{c2}")


@pytest.mark.parametrize("argv, env, flag", [
    (("simulate", *PAIR, "--trials", "2", "--weights", "1,x"), None, "--weights"),
    (("simulate", *PAIR, "--trials", "2", "--weights", "1,,2"), None, "--weights"),
    (("simulate", *PAIR, "--trials", "2", "--weights", "-1"), None, "--weights"),
    (("simulate", *PAIR, "--trials", "2", "--weights", "1", "--seed", "-3"), None, "--seed"),
    (("simulate", *PAIR, "--trials", "2", "--weights", "1"), {"SRCODES_SEED": "abc"},
     "SRCODES_SEED"),
    (("encode", *PAIR, "--message", "0x1", "--out", "w.word"), None, "--message"),
    (("build-bch", "--n", "15", "--cosets", "1,x", "--out", "x.code"), None, "--cosets"),
    (("simulate", *PAIR, "--trials", "2", "--weights", "1", "--d-sr", "-3"), None, "--d-sr"),
    (("simulate", *PAIR, "--trials", "2", "--weights", "1", "--d-sr", "99"), None, "--d-sr"),
    (("decode", *PAIR, "--word", "w.word", "--d-sr", "7"), None, "--d-sr"),
    (("simulate", *PAIR, "--trials", "-1", "--weights", "1"), None, "--trials"),
    (("simulate", *PAIR, "--trials", "2", "--weights", "1", "--budget", "-5"), None, "--budget"),
    (("decode", *PAIR, "--word", "w.word", "--budget", "-5"), None, "--budget"),
    (("mindist", "--code", "{c1}", "--budget", "-5"), None, "--budget"),
    (("build-bch", "--n", "-1", "--delta", "3", "--out", "x.code"), None, "--n"),
    (("build-goppa", "--ext-degree", "5", "--degree", "2", "--length", "-3", "--out", "x.code"),
     None, "--length"),
    (("build-goppa", "--ext-degree", "5", "--degree", "-2", "--out", "x.code"), None, "--degree"),
    (("coset", "--n", "-1", "--s", "1"), None, "--n"),
    (("coset", "--n", "0", "--s", "1"), None, "--n"),
    (("coset", "--n", "15", "--q", "0", "--s", "1"), None, "--q"),
    (("coset", "--n", "15", "--q", "1", "--s", "1"), None, "--q"),
    (("coset", "--n", "15", "--q", "-1", "--s", "1"), None, "--q"),
    (("build-goppa", "--ext-degree", "5", "--degree", "2", "--seed", "-1", "--out", "x.code"),
     None, "--seed"),
    (("simulate", *PAIR, "--trials", "2", "--weights", "1", "--jobs", "2"), None, "--jobs"),
    (("build-bch", "--n", "15", "--cosets", "1", "--delta", "5", "--out", "x.code"), None,
     "--delta"),
    (("build-bch", "--n", "15", "--out", "x.code"), None, "--cosets"),
    (("build-bch", "--n", "15", "--delta", "1", "--out", "x.code"), None, "--delta"),
    (("build-bch", "--n", "15", "--delta", "-4", "--out", "x.code"), None, "--delta"),
    (("build-goppa", "--ext-degree", "0", "--degree", "2", "--out", "x.code"), None,
     "--ext-degree"),
    (("build-goppa", "--ext-degree", "25", "--degree", "2", "--out", "x.code"), None,
     "--ext-degree"),
    (("mindist", "--code", "{c1}", "--c1", "{c2}"), None, "--code"),
    (("decode", "--c1", ".", "--c2", "{c2}", "--word", "w.word"), None, "--c1: Is a directory"),
    (("build-sr", "--c1", "{c1}", "--c2", "{c2}.missing"), None,
     "--c2: No such file or directory"),
    (("decode", *PAIR, "--word", "."), None, "--word: Is a directory"),
    (("decode", *PAIR, "--word", "{c1}.missing"), None, "--word: No such file"),
    (("mindist", "--code", "."), None, "--code: Is a directory"),
    (("build-bch", "--n", "15", "--delta", "3", "--out", "."), None, "--out: Is a directory"),
    (("encode", *PAIR, "--message", "0" * 34, "--out", "{c1}.d/w.word"), None,
     "--out: No such file"),
    (("bounds", "--delta-grid", "0.1:0.3:0.05"), None, "--delta-grid"),
    (("bounds", "--delta-grid", "nan:0.2:0.1"), None, "--delta-grid"),
    (("bounds", "--delta-grid", "0:0.2:nan"), None, "--delta-grid"),
], ids=["weights_word", "weights_empty", "weights_negative", "seed_negative",
        "env_seed", "message_hex", "cosets_word", "d_sr_negative", "d_sr_too_large",
        "decode_d_sr_too_large", "trials_negative", "simulate_budget_negative",
        "decode_budget_negative", "mindist_budget_negative", "bch_n_negative",
        "goppa_length_negative", "goppa_degree_negative", "coset_n_negative",
        "coset_n_zero", "coset_q_zero", "coset_q_one", "coset_q_negative",
        "goppa_seed_negative", "simulate_jobs_removed", "bch_both_forms", "bch_neither_form",
        "delta_one", "delta_negative", "ext_degree_zero", "ext_degree_too_large",
        "mindist_code_and_pair", "c1_directory", "c2_missing", "word_directory",
        "word_missing", "mindist_code_directory", "out_directory", "out_missing_dir",
        "delta_grid_outside", "delta_grid_nan_start", "delta_grid_nan_step"])
def test_cmd_usage_errors_exit_2(tmp_path, argv, env, flag):
    c1 = tmp_path / "c1.code"
    c2 = tmp_path / "c2.code"
    # d_sr_decodable = min(d1, 3 * d2 // 2) = min(6, 7) = 6
    write_code_file(bch_build(15, (1, 6)), c1)
    write_code_file(bch_build(15, (1, 4)), c2)
    rc, out, err = run_cli(*(a.format(c1=c1, c2=c2) for a in argv), env=env)
    assert rc == 2 and flag in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv, rc, needle", [
    (("--ext-degree", "4", "--degree", "2", "--length", "100"), 2, "--length"),
    (("--ext-degree", "3", "--degree", "10"), 1, "zero code"),
], ids=["length_above_field", "zero_code"])
def test_build_goppa_refuses_without_writing(tmp_path, argv, rc, needle):
    out = tmp_path / "g.code"
    got, stdout, err = run_cli("build-goppa", *argv, "--out", str(out))
    assert (got, stdout) == (rc, "") and needle in err and "Traceback" not in err
    assert not out.exists()


SHARED_FLAGS = ("--c1", "--c2", "--budget", "--pretty", "--d-sr")


@pytest.mark.parametrize("command, flags", [
    ("coset", ()),
    ("build-bch", ()),
    ("build-goppa", ()),
    ("build-sr", ("--c1", "--c2")),
    ("tables", ("--pretty",)),
    ("bounds", ("--pretty",)),
    ("encode", ("--c1", "--c2")),
    ("decode", ("--c1", "--c2", "--budget", "--d-sr")),
    ("simulate", ("--c1", "--c2", "--budget", "--pretty", "--d-sr")),
    ("mindist", ("--c1", "--c2", "--budget")),
])
def test_help_lists_shared_flags(capsys, command, flags):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert [f for f in SHARED_FLAGS if f in out] == [f for f in SHARED_FLAGS if f in flags]


def test_cli_module_entry_points():
    # python -m srcodes runs without runpy's warning; -m srcodes.cli still works
    assert run_cli("coset", "--n", "15", "--s", "1") == (0, "1,4\n", "")
    proc = subprocess.run([sys.executable, "-m", "srcodes.cli", "coset", "--n", "15", "--s", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "1,4\n"


def test_cmd_simulate_determinism(tmp_path):
    c1 = tmp_path / "c1.code"
    c2 = tmp_path / "c2.code"
    run_cli("build-bch", "--n", "15", "--b", "1", "--delta", "6", "--out", str(c1))
    run_cli("build-bch", "--n", "15", "--cosets", "0,1,2", "--out", str(c2))
    args = ("simulate", "--c1", str(c1), "--c2", str(c2), "--weights", "1,2,3",
            "--trials", "20", "--seed", "3", "--no-timing")
    rc1, out1, _ = run_cli(*args)
    rc2, out2, _ = run_cli(*args)
    assert rc1 == rc2 == 0 and out1 == out2


def test_cmd_mindist(tmp_path):
    r1 = tmp_path / "r1.code"
    r2 = tmp_path / "r2.code"
    run_cli("build-bch", "--n", "25", "--cosets", "1,2,3,5,10", "--out", str(r1))
    run_cli("build-bch", "--n", "25", "--cosets", "0,1,2,5", "--out", str(r2))
    rc, out, _ = run_cli("mindist", "--c1", str(r1), "--c2", str(r2))
    assert rc == 0
    lines = dict(line.split(" ", 1) for line in out.strip().splitlines())
    assert lines["dmin_sr"] == "30"
    # the witness is a certificate: its weight matches the distance
    from srcodes.sumrank import sumrank_weight_formula
    x = bytes(int(c) for c in lines["witness_x"])
    x2 = bytes(int(c) for c in lines["witness_x2"])
    assert sumrank_weight_formula(x2, x) == 30

    rc, out, _ = run_cli("mindist", "--code", str(r1))
    assert rc == 0 and "dmin 25" in out


def test_cmd_mindist_budget_exit(tmp_path):
    big = tmp_path / "big.code"
    run_cli("build-bch", "--n", "63", "--cosets", "0,1,2,3,5", "--out", str(big))
    rc, _, _ = run_cli("mindist", "--code", str(big))
    assert rc == 3


@pytest.mark.parametrize("grid", ["0:0.2:1e-12", "0:0.24:1e-7"])
def test_cmd_bounds_grid_budget_exit(grid):
    # the row count is checked before the loop; 0:0.2:1e-12 would be 2e11 rows
    rc, out, err = run_cli("bounds", "--delta-grid", grid)
    assert (rc, out) == (3, "") and "--delta-grid" in err and "10^6" in err


def test_cmd_build_goppa_degree_one(tmp_path):
    # G = x + a has the root a, which cannot be a locator: 15 of GF(16)'s 16
    # elements remain, and --length may ask for at most those
    out = tmp_path / "g.code"
    rc, msg, err = run_cli("build-goppa", "--ext-degree", "4", "--degree", "1", "--out", str(out))
    assert (rc, err) == (0, "") and msg.startswith("wrote [15,11,3]_2")
    code = read_code_file(out)
    assert code.n == 15 and len(code.goppa_info.locators) == 15
    rc, msg, err = run_cli("build-goppa", "--ext-degree", "4", "--degree", "1",
                           "--length", "16", "--out", str(out))
    assert (rc, msg) == (2, "") and "--length 16 exceeds the 15 elements" in err


def test_cmd_build_goppa(tmp_path):
    out = tmp_path / "g.code"
    rc, msg, _ = run_cli("build-goppa", "--base", "gf2", "--ext-degree", "5",
                         "--degree", "3", "--seed", "1", "--out", str(out))
    assert rc == 0 and "[32," in msg
    code = read_code_file(out)
    assert code.goppa_info is not None and code.d_designed == 7


def test_main_callable_directly(capsys):
    assert main(["coset", "--n", "63", "--q", "4", "--s", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1,4,16"
