"""Golden outputs: CLI calls whose stdout must stay byte-identical.

A change that alters one of these digests changes what users see and has
to say why.  The paper-claims report pins the verdicts, node counts and
certificates of the whole claim suite.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reclab

SRC = str(Path(reclab.__file__).resolve().parent.parent)

GOLDEN = {
    ("report", "paper-claims"): "f859282f0ee895e2fcc5c6a6f1c9041d2755043aae5b5211dbe03bffc5f50399",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN), ids=" ".join)
def test_stdout_digest(argv):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("RECLAB_PRECISION_BITS", None)
    out = subprocess.run(
        [sys.executable, "-m", "reclab.cli", *argv], env=env, capture_output=True, check=True, timeout=600
    ).stdout
    assert hashlib.sha256(out).hexdigest() == GOLDEN[argv]
