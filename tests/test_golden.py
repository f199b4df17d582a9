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
    ("report", "paper-claims"): "eb12bf0bda7c8bd95ac331707932a9b4610d1b4232b61ea7e414a14ab9a5732f",
    # two frequencies from different quadratic fields: exact decisions,
    # Approx norms, margins and rigidity values
    ("bohr", "member", "--n", "19", "--alpha", SQRT2, "--alpha", SQRT3, "--eps", "1/5"):
        "bf783b709afc880de9e1f3528ec8fdb359082ce5adb77bbb121e6f6df16bcf78",
    ("bohr", "enumerate", "--alpha", SQRT2, "--alpha", SQRT3, "--eps", "1/5", "--lo", "-40", "--hi", "40"):
        "0019c7ddcd8b4c048d2a80c1814b538eb475a4f6033738347becb2c9771cf478",
    ("dyn", "returns", "--alpha", SQRT2, "--alpha", GOLDEN_RATIO, "--horizon", "60", *BALL):
        "ca70624d9611c3ac47ca45e73b61b3b586346ee35542cbb2e5979003331da319",
    ("dyn", "nuu", "--alpha", SQRT2, "--alpha", GOLDEN_RATIO, "--horizon", "30", *BALL):
        "7f8444b2f11979a12550b4cd256810d20b8e4fcf6fc92db1b7229232036f3af1",
    ("dyn", "rigidity", "--alpha", SQRT2, "--alpha", SQRT3, "--horizon", "300"):
        "1b158fa968a3b5df03121b6d9b01930c5d7e05f0ae3225ab6b6728abd7f6cb07",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_stdout_digest(argv):
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-m", "reclab.cli", *argv], env=env, capture_output=True, check=True, timeout=600
    ).stdout
    assert hashlib.sha256(out).hexdigest() == GOLDEN[argv]


# one call per CLI leaf; --help is not pinned, its text differs across Python versions
LEAVES = {
    ("birkhoff", "check", "--elements", "3,6,9", "--arity", "3"):
        "c607abf04c985db5594472e61ad7b2157f4b1d5b8e1a8829b9a405dccf8c1dec",
    ("birkhoff", "check", "--elements", "1,2,4,8", "--arity", "3", "--emit-cert", "emitted.json"):
        "bff3e1f99c718d8ecba5bb1f17e5a7229bf5776a06ef907cd05e7613329dd4f5",
    ("birkhoff", "verify", "--elements", "3,6,9", "--arity", "3", "--cert", "window.json"):
        "02e448cc3ef77f3ef8f4c26a36ef086fc4c570fb76490307f693bfb092412ca3",
    ("birkhoff", "minimal", "--elements", "2,4,6,7", "--arity", "3"):
        "3d79e0a61148b1efe6f203c8c4a7a358aaa085e0a0b7102e9a49ba04c030ee89",
    ("birkhoff", "greedy", "--elements", "3,5", "--terms", "64"):
        "16c972c11c831a7f348514471f53475bccb56529fb7b7acdfeaafdd0281f555a",
    ("birkhoff", "greedy", "--elements", "1,9,10", "--terms", "15"):
        "b1287301b995e208c50a28fcc448cc069e1c6fd1812677cfb3cbf11606aa28d1",
    ("birkhoff", "stable", "--family-r", "2", "--k-max", "2", "--removed", "4"):
        "2c8acfcc67c49a07eeee29800c724fcb7af7df8033506b93bc81d559d7447d00",
    ("birkhoff", "chromatic", "--elements", "2,3,7", "--window", "25"):
        "654aa84515fe9a70d6a7cd326d7d332204b527ba30d406f23981b9a88bcddd3b",
    ("bohr", "member", "--n", "21", "--alpha", "golden", "--eps", "1/10"):
        "31919bce9db284c0d91490756a4d876cd869b22de4b6a243c80d15deaff95844",
    ("bohr", "enumerate", "--alpha", "sqrt2", "--eps", "1/7", "--lo", "-30", "--hi", "30"):
        "8700fb6a40ae76eb866e7ac4012a505d7937a2003eb3c5013e0b3258c5b9b17e",
    ("bohr", "witness", "--set", "lac.json", "--delta", "1/5"):
        "920dacdb16ed581871a61d8c8e44d940d5a4c4626d2d601b43cf984cf7de6e45",
    ("bohr", "obstruct", "--m-max", "10", "--poly", "1,0,1", "--elements", "2,5,10,17,26,37,50"):
        "67cd841a6ac0e2e6440110c4a86a0d98ec4016a304e5a18091d297944ff98ded",
    ("bohr", "separate", "--set", "lac.json", "--eps", "1/6"):
        "4b76cf3413b4518084bed6f17c87b2abe0f004c2b1b2a883421ead9960f1d076",
    ("bohr", "cf", "--alpha", "golden", "--depth", "12"):
        "57c2dd46299d3e3da9ab0edda54e2727a86e41c32ac1e46d5aeb6d9442dcec85",
    ("bohr", "threedist", "--alpha", "sqrt:7:0:1:3", "--count", "35"):
        "f10b0ee0c636408681e9f3589440caef4e2c17ce65ba4ea9294766e5511f88c5",
    ("dyn", "returns", "--alpha", "golden", "--horizon", "30",
     "--center", "3/10", "--radius", "1/10", "--point", "7/10"):
        "6223545f742d1761f7cbd875f08b1d859e9879dde5b5649d643c1a8ae02c1530",
    ("dyn", "returns", "--indicator", "mult.txt", "--window-lo", "-200", "--window-hi", "200", "--horizon", "20"):
        "931726844904cd08c92fa47ef381e17c1462e5b596377673824461af8d5eaf6c",
    ("dyn", "nuu", "--alpha", "1/5", "--alpha", "2/7", "--horizon", "12",
     "--center", "1/3", "--radius", "1/8", "--point", "1/10;3/10"):
        "452a565813cf54182eb4931ea533d053e24abe6a59f4d46bb14393e9bdc0513a",
    ("dyn", "phi", "--alpha", "golden", "--elements", "1,3,8,21,55,144", "--horizon", "600", "--point", "1/3"):
        "a795fe7f9b78622208129e0c3a52d1220906598e0c1ddde2587eb8cbabebdc26",
    ("dyn", "psi", "--alpha", SQRT2, "--alpha", GOLDEN_RATIO, "--nk", "k^2", "--horizon", "30", "--point", "1/4"):
        "827c0f5d198c901033c6c52557b38ea695f45094f0a6da79cd7aa42e784cf5af",
    ("dyn", "recurrent", "--alpha", "golden", "--elements", "1,3,8,21,55,144", "--eps", "1/20"):
        "3e47c146bfbfcf816798e65c4e993f5e68501f4d6c858720f8f5547d5cf5533d",
    ("dyn", "etadense", "--alpha", "golden", "--eta", "1/20"):
        "4e94014a62cd027b5c6f2fcb9a7cf29cb86c0b9947b525b7019b4b044308614f",
    ("dyn", "rigidity", "--alpha", "golden", "--horizon", "200"):
        "f1afe33d5c1e175eb366acc78967f57505095b84655bed80db7a3c6b58480e9a",
    ("dyn", "moving", "--alpha", "sqrt2", "--nk", "k^3 - k", "--horizon", "20", "--samples", "5"):
        "4200939118feadc53a123b26b190bd9d0eef9ad41c511745db09813a63519dc0",
    ("sets", "diff", "--elements", "1,3,8,21,55,144"):
        "67f000e174ddea38a9959632a9cc5715b66686e40a43535a59aad833062b2bd7",
    ("sets", "gaps", "--elements", "0,7,14,21,28,35,42,49,56,63,70", "--lo", "-5", "--hi", "60", "--side", "one"):
        "7f0e8373581bc736dd336da533cde13d5e2b90691a42f406641a2f065aeca00c",
    ("sets", "gen", "--family", "poly", "--coeffs", "0,1/2,1/2", "--n-max", "20"):
        "00de897a5ce6471bdd3cf53bee924b449b5c6c9119184833841e946dc40a739e",
}

FILES = {
    "window.json": '{"type": "window_unsat", "window": 10, "arity": 3}\n',
    "lac.json": "[1, 3, 10, 40, 170, 700, 3000]\n",
    "mult.txt": "".join(f"{v}\n" for v in range(-200, 201, 3)),
}


@pytest.mark.parametrize("argv", list(LEAVES), ids=" ".join)
def test_leaf_stdout_digest(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == LEAVES[argv]
