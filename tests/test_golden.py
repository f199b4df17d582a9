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
    ("report", "paper-claims"): "17fee8462589a0c443f2c7730787d2e7f268fa6d209e0f98f37f89c8ab5f990f",
    # two frequencies from different quadratic fields: exact decisions,
    # Approx norms, margins and rigidity values
    ("bohr", "member", "--n", "19", "--alpha", SQRT2, "--alpha", SQRT3, "--eps", "1/5"):
        "29bd6cec073e881a6ddd0f305fbbaf91547f2f8f09342dc62fa47669318de328",
    ("bohr", "enumerate", "--alpha", SQRT2, "--alpha", SQRT3, "--eps", "1/5", "--lo", "-40", "--hi", "40"):
        "cf5fc31e3bfdd340c755f75f579b1b6a5f9f46d333cee57bfbeb6a36f51fb508",
    ("dyn", "returns", "--alpha", SQRT2, "--alpha", GOLDEN_RATIO, "--horizon", "60", *BALL):
        "53b6011f638f7847bd82603d487e00ec1d97dd35b042904991b36190ac4b7e92",
    ("dyn", "nuu", "--alpha", SQRT2, "--alpha", GOLDEN_RATIO, "--horizon", "30", *BALL):
        "444beafe86772f8e7a9e74c130e0ebdaa83ec5d49b14e767fa74284d67591014",
    ("dyn", "rigidity", "--alpha", SQRT2, "--alpha", SQRT3, "--horizon", "300"):
        "7eef9a4716856f6921d60492aa73d234c80e6aa5c0d4b5415d2c70c4b6df5598",
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
        "8ee32aab58e7d066825dacf299985bb5a9df111aad9608041ae33e421694c5b6",
    ("birkhoff", "check", "--elements", "1,2,4,8", "--arity", "3", "--emit-cert", "emitted.json"):
        "d97dcf97bf65fc9724652ca3daf6b83ca6cef68aae4616f35046355b585fed7d",
    # a DSATUR search (stats.nodes > 0) and an (r+1)-clique proof at r = 11
    ("birkhoff", "check", "--elements", "1,3,4", "--arity", "3"):
        "a443b245417017bb51fd8961f567cc399701612bf31d2fc71c02cb1dd4f67fca",
    ("birkhoff", "check", "--elements", "1,2,3,4,5,6,7,8,9,10,11", "--arity", "11"):
        "efce5d9ca7cb666c184d68565659136b69f784c7d9cd5842eca35028f4d7ba97",
    ("birkhoff", "verify", "--elements", "3,6,9", "--arity", "3", "--cert", "window.json"):
        "047539949734e44784e070af770ff76f1f6b71913df445b1edf49d2ce67a7833",
    ("birkhoff", "minimal", "--elements", "2,4,6,7", "--arity", "3"):
        "14db061b5195bc3cd67d72e1bb566c5170b68b4df486048e913c6a7f222fcd74",
    ("birkhoff", "greedy", "--elements", "3,5", "--terms", "64"):
        "863927341268707484966c3ef8f77d14741c28eea01d72340879819a4973be5c",
    ("birkhoff", "greedy", "--elements", "1,9,10", "--terms", "15"):
        "6d76d3ac1f2f5d5a53fad3500a4e7f6560d3d3d3570ee65484883ffa05a5be25",
    ("birkhoff", "stable", "--family-r", "2", "--k-max", "2", "--removed", "4"):
        "7dcfbdbaadbd311fa71ead83e6f03f6b0b073e1ba80d209020569f88dc9ed46c",
    ("birkhoff", "chromatic", "--elements", "2,3,7", "--window", "25"):
        "cd447536bcba8fe23c141bd9a2da8fc439dbd3488f4b370d36ada8a0ee8426e3",
    ("bohr", "member", "--n", "21", "--alpha", "golden", "--eps", "1/10"):
        "fa2cdfbd4faecdc6928e3252b6abf4ab9f7a45e2d1a1dd157ef83ee2d8d4a338",
    ("bohr", "enumerate", "--alpha", "sqrt2", "--eps", "1/7", "--lo", "-30", "--hi", "30"):
        "b1db0726e816d25293c576380ed8824edb1f2a98c2af849b39f6bb2718e18f84",
    ("bohr", "witness", "--set", "lac.json", "--delta", "1/5"):
        "c6f4ad9e518a3ba7da40d3372e456137371ef66efcfa00888ef83f707c9574a7",
    ("bohr", "obstruct", "--m-max", "10", "--poly", "1,0,1", "--elements", "2,5,10,17,26,37,50"):
        "3289f6f6c215e3a87d410f43bac3e13947c7744507cadb5122c26cad8bf23db4",
    ("bohr", "separate", "--set", "lac.json", "--eps", "1/6"):
        "cd209dae3f7a6d12da563d2168739479a674edb5d6948573569a052758dcc043",
    ("bohr", "cf", "--alpha", "golden", "--depth", "12"):
        "f72d6d5a211bac3f15e92a160a621cca6d0d808d57d434d3c05a03051f2f644c",
    ("bohr", "threedist", "--alpha", "sqrt:7:0:1:3", "--count", "35"):
        "0799830ea41dd4348ee681588a82a3b3a3d47f064a522e61a727a00fa6ac99f3",
    ("dyn", "returns", "--alpha", "golden", "--horizon", "30",
     "--center", "3/10", "--radius", "1/10", "--point", "7/10"):
        "019560b9927f4e195613d14157c7e71b34ec0e4921e6a7a49dc5885648976d39",
    ("dyn", "returns", "--indicator", "mult.txt", "--window-lo", "-200", "--window-hi", "200", "--horizon", "20"):
        "89132100ca0841cab8660e841dafca1e9724bb99bbd554bdfd31943ba859aaf6",
    ("dyn", "nuu", "--alpha", "1/5", "--alpha", "2/7", "--horizon", "12",
     "--center", "1/3", "--radius", "1/8", "--point", "1/10;3/10"):
        "3a06116eeaa222000214dd73299805ad9fa49987f80b0a3866d1747f25b3756b",
    ("dyn", "phi", "--alpha", "golden", "--elements", "1,3,8,21,55,144", "--horizon", "600"):
        "8a86e4e317398c272b6e90fa46103f94edbfe793b005867f18681460a5225684",
    ("dyn", "phi", "--indicator", "mult.txt", "--window-lo", "-200", "--window-hi", "200",
     "--elements", "4,7,10", "--horizon", "20", "--offset", "2"):
        "3e050c6dbcfc93d3ff58caf7795b9e872d256d075f4ff04d4f5e6c373adad496",
    ("dyn", "psi", "--alpha", SQRT2, "--alpha", GOLDEN_RATIO, "--nk", "k^2", "--horizon", "30"):
        "5f7ed804f768639c98d48571aee7f8f2e664377c963ed4ff6e5c2b9f34ebed9c",
    ("dyn", "recurrent", "--alpha", "golden", "--elements", "1,3,8,21,55,144", "--eps", "1/20"):
        "cd455a8716246746684513a31690fb0c11b17617333bc6e8b4ad0b98b0ef2306",
    ("dyn", "etadense", "--alpha", "golden", "--eta", "1/20"):
        "4d99aa784065ec1768989beaabe218bdb1de8e6ea122511ef41f6426326695c2",
    # a rational orbit closed too coarse: the kernel's NoSuchM reason
    ("dyn", "etadense", "--alpha", "1/7", "--eta", "1/40"):
        "4381613f9bc973f47900d36ca477d1d6d23155639055a0a20a7c8dcbdc83e58a",
    ("dyn", "rigidity", "--alpha", "golden", "--horizon", "200"):
        "4ddf4f81753ebee68688c58b1ff358f19da304db76d205778208a9935203c3a9",
    ("dyn", "moving", "--alpha", "sqrt2", "--nk", "k^3 - k", "--horizon", "20", "--samples", "5"):
        "3c521d9a19adc573a00f6831a47b111bd6c276218b7b53f1f8f18b932b92373c",
    ("sets", "diff", "--elements", "1,3,8,21,55,144"):
        "f8d5eef8ffe9c658af4111e1071a396d7058b15c01724da1d62fa219d2e57503",
    ("sets", "gaps", "--elements", "0,7,14,21,28,35,42,49,56,63,70", "--lo", "-5", "--hi", "60", "--side", "one"):
        "6704376fd6014463c3e39701778df94a07eeb928111123ebad077a1c194b2ef6",
    ("sets", "gen", "--family", "poly", "--coeffs", "0,1/2,1/2", "--n-max", "20"):
        "9cc79b4e9f4c7789bdedb3a2d4f28a3f901316b22e8ce48f101cf612047ce7e7",
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
