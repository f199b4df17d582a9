"""Golden outputs: CLI calls whose stdout must stay byte-identical.

A change that alters one of these digests changes what users see and has
to say why.  The paper-claims report pins the verdicts, node counts and
certificates of the whole claim suite; the two-field calls pin exact
cross-field decisions next to the Approx values displayed with them.  The
leaf corpus runs every subcommand once (a few twice) in-process, from a
directory holding the files it reads, so every path in a config echo is
relative.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reclab
from reclab import cli

SRC = str(Path(reclab.__file__).resolve().parent.parent)

SQRT2, SQRT3, GOLDEN_RATIO = "sqrt:2:0:1:1", "sqrt:3:0:1:1", "sqrt:5:-1:1:2"
BALL = ("--radius", "1/8", "--center", "1/3;1/4", "--point", "1/5;2/7")

GOLDEN = {
    ("report", "paper-claims"): "f859282f0ee895e2fcc5c6a6f1c9041d2755043aae5b5211dbe03bffc5f50399",
    # two frequencies from different quadratic fields: exact decisions,
    # Approx norms, margins and rigidity values
    ("bohr", "member", "--n", "19", "--alpha", SQRT2, "--alpha", SQRT3, "--eps", "1/5"):
        "de1d87c237dd4755c60a17be8f5f1b0e6bec63104b43e8af37389fb3ae45bf2f",
    ("bohr", "enumerate", "--alpha", SQRT2, "--alpha", SQRT3, "--eps", "1/5", "--lo", "-40", "--hi", "40"):
        "5862dac2d1f12294f97e133828e7969575f7a333b98fd3cb9e184b05e99c7cdb",
    ("dyn", "returns", "--alpha", SQRT2, "--alpha", GOLDEN_RATIO, "--horizon", "60", *BALL):
        "cf6e7e09e0b5dd05304b697be10a9b54314d70f7c110ac52f59459a711fc1c86",
    ("dyn", "nuu", "--alpha", SQRT2, "--alpha", GOLDEN_RATIO, "--horizon", "30", *BALL):
        "9380d366cbb0742251f5332e9a453169540ba98dce18499e2343cb7481ef976c",
    ("dyn", "rigidity", "--alpha", SQRT2, "--alpha", SQRT3, "--horizon", "300"):
        "8f36188e222c73862c88d4aceea4e3fb46c02ddd3ce17767c0ff6637c6ef29ad",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_stdout_digest(argv):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("RECLAB_PRECISION_BITS", None)
    out = subprocess.run(
        [sys.executable, "-m", "reclab.cli", *argv], env=env, capture_output=True, check=True, timeout=600
    ).stdout
    assert hashlib.sha256(out).hexdigest() == GOLDEN[argv]


# one call per CLI leaf; --help is not pinned, its text differs across Python versions
LEAVES = {
    ("birkhoff", "check", "--elements", "3,6,9", "--arity", "3"):
        "22fa65f66ec4b61a235393c19fe73afd508976df622042230d38d323eda1708e",
    ("birkhoff", "check", "--elements", "1,2,4,8", "--arity", "3", "--emit-cert", "emitted.json"):
        "a1b34526d927e9401911edf93c81e72f60fa4489b8cdb1f7ed7f966b56a02627",
    ("birkhoff", "verify", "--elements", "3,6,9", "--arity", "3", "--cert", "window.json"):
        "700b8d904420aaf42059e704d8a1869a6abc41b84d320651408adbf3dc3a4033",
    ("birkhoff", "minimal", "--elements", "2,4,6,7", "--arity", "3"):
        "0e04456eb604a18bc566e5a6885ec258ea370ca8b70ba6960bee997163642a12",
    ("birkhoff", "greedy", "--elements", "3,5", "--terms", "64"):
        "3fc35688994e7230783f484cf9851c0f2e018aa9c2f022e215a5f5ff1a827773",
    ("birkhoff", "greedy", "--elements", "1,9,10", "--terms", "15"):
        "1d7ed8c4bbcd50a513087a1793d47fe14f035a86352ad87f10cd1e5d302f9c1a",
    ("birkhoff", "stable", "--family-r", "2", "--k-max", "2", "--removed", "4"):
        "ded1fff0ad580682b12f953ee21c310537fb6fecb4e9468d52542ea650090fec",
    ("birkhoff", "chromatic", "--elements", "2,3,7", "--window", "25"):
        "3e8f005d29e2c962ede31b4acc7801927402d2395b8d90fd4a4168a57ac5376d",
    ("bohr", "member", "--n", "21", "--alpha", "golden", "--eps", "1/10"):
        "1615a7aed75acc67b96a286a9ebd4fc8a2592e097dd32af3d521b467d5f421f4",
    ("bohr", "enumerate", "--alpha", "sqrt2", "--eps", "1/7", "--lo", "-30", "--hi", "30"):
        "9ac2c89ac74d3bca733ec0e8175bdf600f22adfccb62aa4b106ac50bd2a51587",
    ("bohr", "witness", "--set", "lac.json", "--delta", "1/5"):
        "66efab296d043cfebda4763479d0fd12572c142b57d9fcdba02d3241c315b1e3",
    ("bohr", "obstruct", "--m-max", "10", "--poly", "1,0,1", "--elements", "2,5,10,17,26,37,50"):
        "1ffc38a5b2ff68ec40e4ff0632d7167003ceb2da14ab14bc220233fc047dbd8c",
    ("bohr", "separate", "--set", "lac.json", "--eps", "1/6"):
        "71d45d2841820b47cd963a1fb4c7e15f5a08191c749427a6233c7c22d61fab01",
    ("bohr", "cf", "--alpha", "golden", "--depth", "12"):
        "23b7018a57374a6b42ef2324cee918afe3eab27f899b0a121cf8e19522518e97",
    ("bohr", "threedist", "--alpha", "sqrt:7:0:1:3", "--count", "35"):
        "7dcabaa782d2779d2d3c7f0496e9def5a2c3d3a5c1d58df62e3de113e96e2726",
    ("dyn", "returns", "--alpha", "golden", "--horizon", "30",
     "--center", "3/10", "--radius", "1/10", "--point", "7/10"):
        "edd37522ad1698f16bd1eac26cf6eba8e22387408c7ec26b42bb58bed905152b",
    ("dyn", "returns", "--indicator", "mult.txt", "--window-lo", "-200", "--window-hi", "200", "--horizon", "20"):
        "dbe43884fe687784dd1529d68b8f060f1dd9e38c2f3f8813231750b3a68caed8",
    ("dyn", "nuu", "--alpha", "1/5", "--alpha", "2/7", "--horizon", "12",
     "--center", "1/3", "--radius", "1/8", "--point", "1/10;3/10"):
        "817c81241635955350f13ae00419a9cfd2d756ea93b284e51e17927912ffd52c",
    ("dyn", "phi", "--alpha", "golden", "--elements", "1,3,8,21,55,144", "--horizon", "600", "--point", "1/3"):
        "a1c4154015b7ae3390874f91e46698b7cc961e02bfd571a0a145b3adaa79b1b4",
    ("dyn", "psi", "--alpha", SQRT2, "--alpha", GOLDEN_RATIO, "--nk", "k^2", "--horizon", "30", "--point", "1/4"):
        "27132a51a25652fce542028fdfa8f1bd069dae7f6fa748e16491197993412220",
    ("dyn", "recurrent", "--alpha", "golden", "--elements", "1,3,8,21,55,144", "--eps", "1/20"):
        "ffa66ecb707e247839359bc621b10ef40827475139d683ffa4ae5cb095f64039",
    ("dyn", "etadense", "--alpha", "golden", "--eta", "1/20"):
        "deae5b81e4f455aae8fd860c14cdaf55fc7de0fc91165ee86f8d6f79fe8a85ee",
    ("dyn", "rigidity", "--alpha", "golden", "--horizon", "200"):
        "fa78c82d96ca4ee54f8102b53719ce05742a24f560d6aa93c15208e200fec494",
    ("dyn", "moving", "--alpha", "sqrt2", "--nk", "k^3 - k", "--horizon", "20", "--samples", "5"):
        "4c291033428f9c285cceea29a383adeade86cca986dc29883c17690747811dbb",
    ("sets", "diff", "--elements", "1,3,8,21,55,144"):
        "fcdd668d9505e81f6933b0f7c9caec1b4e4e7c1729c175b200623781981da0d4",
    ("sets", "gaps", "--elements", "0,7,14,21,28,35,42,49,56,63,70", "--lo", "-5", "--hi", "60", "--side", "one"):
        "4e3d96ebcfac35d2cee7a2f4a742ac50b8beb43d99ec8a1bec28f55fdae0a340",
    ("sets", "gen", "--family", "poly", "--coeffs", "0,1/2,1/2", "--n-max", "20"):
        "478ce1fece8ecd6df7a6c8dc1c703dcda2f9f17f39ad73a95f0c64c73e3c4389",
}

FILES = {
    "window.json": '{"type": "window_unsat", "window": 10, "arity": 3}\n',
    "lac.json": "[1, 3, 10, 40, 170, 700, 3000]\n",
    "mult.txt": "".join(f"{v}\n" for v in range(-200, 201, 3)),
}


@pytest.mark.parametrize("argv", list(LEAVES), ids=" ".join)
def test_leaf_stdout_digest(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RECLAB_PRECISION_BITS", raising=False)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == LEAVES[argv]
