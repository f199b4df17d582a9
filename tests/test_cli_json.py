"""The CLI's one-pass JSON writer against the two-pass dump it replaced.

Every document the CLI writes (stdout, --emit-cert and --json-out files)
goes through ``cli._json_text``, which must give exactly ``json.dumps(json_safe(doc), indent=2, sort_keys=True)``.
"""

import enum
import io
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from reclab import cli
from reclab.birkhoff import Status
from reclab.errors import UnprintableInteger

from oracles import json_safe


def two_pass(doc) -> str:
    return json.dumps(json_safe(doc), indent=2, sort_keys=True)


Level = enum.IntEnum("Level", "LOW HIGH")  # an int subclass: json writes int.__repr__
ESCAPES = st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f', max_size=8)
KEYS = st.one_of(st.text(max_size=6), st.integers(-3, 12), st.booleans(), st.floats(allow_nan=True))
BIG = st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 100),
    BIG,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.fractions(),
    st.text(),  # non-ASCII included
    ESCAPES,
    st.sampled_from(Status),
    st.sampled_from(Level),
)
DOCS = st.recursive(
    SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(KEYS, kids, max_size=5),
        st.lists(st.integers() | BIG, max_size=6),  # the all-int join
    ),
    max_leaves=30,
)


@given(DOCS)
@example({1: "a", "1": "b"})
@example({"1": "b", 1: "a"})
@example({Status.UNDECIDED: [], True: {}, "True": ()})
@example([True, 1, 2])
@example([[], {}, (), [[]]])
@settings(max_examples=300, deadline=None)
def test_writer_equals_the_two_pass_dump(doc):
    assert cli._json_text(doc) == two_pass(doc)


def test_million_int_list():
    doc = {"result": {"sequence": list(range(-5, 10**6 - 5)), "period": None}}
    assert cli._json_text(doc) == two_pass(doc)


def test_unserializable_value_is_a_type_error():
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        cli._json_text({"x": [object()]})


@pytest.mark.parametrize(
    "doc",
    [10**5000, [1, 10**5000], {"x": [Fraction(1, 10**5000)]}, {10**5000: 1}],
    ids=["scalar", "int-list", "fraction", "key"],
)
def test_unprintable_int_anywhere(doc):
    with pytest.raises(UnprintableInteger, match=f"more than {sys.get_int_max_str_digits()} digits"):
        cli._json_text(doc)


@pytest.mark.parametrize(
    "argv",
    [
        ["birkhoff", "check", "--elements", "1,2,3,4,5,6,7,8,9,10,11", "--arity", "11", "--emit-cert", "OUT"],
        ["birkhoff", "check", "--elements", "2,4,6", "--arity", "4", "--emit-cert", "OUT"],
        ["report", "paper-claims", "--only", "cardinality-ceiling,certificate-audit", "--json-out", "OUT"],
    ],
    ids=["window-proof", "periodic", "json-out"],
)
def test_files_match_json_dump(capsys, monkeypatch, tmp_path, argv):
    path = tmp_path / "out.json"
    written = []
    write = cli._write_json
    monkeypatch.setattr(cli, "_write_json", lambda p, doc: (written.append(doc), write(p, doc)))
    assert cli.main([str(path) if a == "OUT" else a for a in argv]) == 0
    capsys.readouterr()
    (doc,) = written
    want = io.StringIO()
    json.dump(doc, want, indent=2, sort_keys=True)
    assert path.read_text() == want.getvalue() + "\n"
