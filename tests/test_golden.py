"""Golden outputs: CLI calls whose stdout must stay byte-identical.

A change that alters one of these digests changes what users see and has
to say why.  The paper-claims report pins the verdicts, node counts and
certificates of the whole claim suite; the two-field calls pin exact
cross-field decisions next to the Approx values displayed with them.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reclab

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
