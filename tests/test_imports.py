"""numpy is loaded on first use: the BCH path and the CLI's non-simulation
commands run on the standard library alone."""

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
from srcodes import cli
assert cli.main(["coset", "--n", "15", "--s", "1"]) == 0
assert "numpy" not in sys.modules, "srcodes coset"
"""

GOPPA = """
import sys
from srcodes import GF4, GoppaDecoder, build_field, find_irreducible, goppa_build
F = build_field(4)
GoppaDecoder(goppa_build(F, None, find_irreducible(F, 2, seed=1), base=GF4))
assert "numpy" in sys.modules, "Goppa set-up"
"""


@pytest.mark.parametrize("script", [BCH_PATH, GOPPA], ids=["bch_path_without_numpy",
                                                           "goppa_loads_numpy"])
def test_numpy_is_loaded_on_first_use(script):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
