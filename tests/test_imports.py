"""numpy is loaded on first use: the BCH and Goppa paths and the CLI's
non-simulation commands run on the standard library alone, and the library
path never loads the command line's argparse or json.  Every export has a
caller."""

import ast
import glob
import os
import subprocess
import sys

import pytest

import srcodes

SRC = os.path.dirname(os.path.dirname(os.path.abspath(srcodes.__file__)))

BCH_PATH = """
import sys
import srcodes
assert "numpy" not in sys.modules, "import srcodes"
assert "dataclasses" not in sys.modules, "import srcodes"
assert "argparse" not in sys.modules and "json" not in sys.modules, "import srcodes"
from srcodes import BchDecoder, DefiningSet, SrWord, bch_build, sr_construct, sr_decode
c1 = bch_build(15, (1, 6))                                   # [15,8,6]
c2 = bch_build(15, DefiningSet.from_cosets(15, [0, 1, 2]))   # [15,10,4]
code = sr_construct(c1, c2)
dec1, dec2 = BchDecoder(c1), BchDecoder(c2)
assert "numpy" not in sys.modules, "BCH set-up"
sent = code.encode([1, 0] * (code.f2_dimension // 2))
e0, e1 = bytearray(15), bytearray(15)
e0[3], e1[3] = 2, 1
res = sr_decode(code, dec1, dec2, sent + SrWord(bytes(e0), bytes(e1)))
assert res.ok and res.codeword == sent, res
assert "numpy" not in sys.modules, "sr_decode"
assert "argparse" not in sys.modules and "json" not in sys.modules, "sr_decode"
from srcodes import cli
assert cli.main(["coset", "--n", "15", "--s", "1"]) == 0
assert "numpy" not in sys.modules, "srcodes coset"
"""

GOPPA_PATH = """
import os, sys, tempfile
from srcodes import GF4, GoppaDecoder, build_field, cli, find_irreducible, goppa_build
F = build_field(8)
c1 = goppa_build(F, None, find_irreducible(F, 24, seed=3), base=GF4)   # [256,160,25]
c2 = goppa_build(F, None, find_irreducible(F, 16, seed=4), base=GF4)   # [256,192,17]
dec1, dec2 = GoppaDecoder(c1), GoppaDecoder(c2)
assert "numpy" not in sys.modules, "Goppa set-up"
err = bytearray(256)
for i, s in zip((3, 50, 97, 140, 201), (1, 2, 3, 1, 2)):
    err[i] = s
sent = c1.encode([1, 0, 2, 3] * 40)
res = dec1.decode(bytes(a ^ b for a, b in zip(sent, err)))   # L = 5: the root search runs
assert res.ok and res.codeword == sent and res.error == err, res
assert "numpy" not in sys.modules, "Goppa decode"
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "g.code")
    argv = ["build-goppa", "--base", "gf4", "--ext-degree", "6", "--degree", "4", "--out", out]
    assert cli.main(argv) == 0
assert "numpy" not in sys.modules, "srcodes build-goppa"
"""


@pytest.mark.parametrize("script", [BCH_PATH, GOPPA_PATH], ids=["bch_path_without_numpy",
                                                                "goppa_path_without_numpy"])
def test_numpy_is_loaded_on_first_use(script):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Exports with no caller in the package, the demos or the benchmark, kept
# on purpose: paper artifacts and the references the tests check against.
KEPT_WITHOUT_CALLER = {
    "bch_dim_lower_bound": "the paper's dimension bound for block length 4^m - 1",
    "matrix_to_lin": "the inverse block map; tests check the block bijection with it",
    "min_branch_weight": "the pigeonhole quantity of the reduction decoder's proof",
    "sr_oracle_decode": "the exhaustive reference the reduction decoder is tested against",
}


def _names_used(path):
    used = set()
    with open(path) as fh:
        for node in ast.walk(ast.parse(fh.read())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller():
    # a use is a name read outside its definition and outside import lines,
    # in the package's other modules, the demos or the benchmark (not its tests)
    with open(os.path.join(SRC, "srcodes", "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    exports = [a.name for node in tree.body if isinstance(node, ast.ImportFrom)
               for a in node.names]
    repo = os.path.dirname(SRC)
    paths = [p for p in glob.glob(os.path.join(SRC, "srcodes", "*.py"))
             if os.path.basename(p) != "__init__.py"]
    paths += [p for d in ("demos", "perfbench") for p in glob.glob(os.path.join(repo, d, "*.py"))
              if not os.path.basename(p).startswith("test_")]
    used = set().union(*map(_names_used, paths))
    assert set(KEPT_WITHOUT_CALLER) <= set(exports)
    assert [e for e in exports if e not in used and e not in KEPT_WITHOUT_CALLER] == []
