"""The integer torus-norm decisions of ``reclab.bohr`` against the Surd-level
references in ``oracles``.

``bohr`` decides every comparison of ||n*alpha|| in integers: the torus test
(Bohr-set membership, l-recurrence, psi below eps) and the record scan
(rigidity records, the phi and psi minimisers).  The references build each
coordinate's circle norm as a Fraction or Surd and sign the squared sums with
``real_sum_sign``.  Frequencies are rationals, surds of one field, or surds
of distinct fields, on 1 to 3 coordinates; time lists hold negatives, zero and
repeats.  The circle record scan, which compares reduced integer pairs
unsquared, is also checked against ``oracles.sq_norm_record_times``, the
squared-norm loop it replaced, on time lists where an n repeats the one
before it.  Three two-field CLI calls are pinned to their digests, and none
of their cross-field signs refines past the first, 64-bit bracket.

The displayed norm (``bohr.torus_norm``) is checked against
``oracles.decimal_norm`` on 2 or 3 coordinates at |n| <= 10**4: its float is
the correctly rounded 60-digit reference, an ``Approx`` holds the reference
within its error bound, and a rational square gives the exact root that
``real_sqrt`` allows.
"""

import hashlib
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from reclab import cli, exactreal
from reclab.bohr import BohrSpec, bohr_membership, record_times, torus_norm
from reclab.dynamics import RECURRENT_SAMPLE_BUDGET, MovingQuery, RotationSystem, find_l_recurrent, psi_moving
from reclab.errors import UncertainAtPrecision
from reclab.exactreal import MAX_RADICAND_BITS, Approx, Surd, TorusPoint, real_mul, real_to_json

from oracles import decimal_norm, displacement_lt, norm_records, sq_norm_record_times, torus_norm_lt

FIELDS = (2, 3, 5, 6, 7, 13)

rationals = st.integers(1, 60).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: TorusPoint(Fraction(p, q))))


def surd_in(d):
    return st.builds(
        lambda a, b, c: TorusPoint(Surd.make(Fraction(a, c), Fraction(b, c), d)),
        st.integers(-6, 6),
        st.sampled_from((-3, -2, -1, 1, 2, 3)),
        st.integers(1, 6),
    )


@st.composite
def systems(draw):
    """1 to 3 coordinates: rationals, surds of one field, or surds of distinct
    fields, any of them mixed with rationals."""
    size = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("rational", "one field", "distinct fields")))
    if kind == "rational":
        alphas = [draw(rationals) for _ in range(size)]
    elif kind == "one field":
        d = draw(st.sampled_from(FIELDS))
        alphas = [draw(st.one_of(rationals, surd_in(d))) for _ in range(size)]
    else:
        ds = draw(st.permutations(FIELDS))
        alphas = [draw(st.one_of(rationals, surd_in(d))) for d in ds[:size]]
    return RotationSystem(tuple(alphas))


# negatives, 0 and repeats; n and -n tie in norm
times = st.lists(st.integers(-60, 60), min_size=1, max_size=20)


@st.composite
def cases(draw):
    """A system, a time list and a radius in (0, 1/2], sometimes a rational
    norm of the system itself, so that strict < is tested at equality."""
    sys_, times_ = draw(systems()), draw(times)
    eps = Fraction(draw(st.integers(1, 60)), 120)
    edge = sys_.displacement_norm(draw(st.sampled_from(times_)))
    if isinstance(edge, Fraction) and 0 < edge <= Fraction(1, 2) and draw(st.booleans()):
        eps = edge
    return sys_, times_, eps


def outcome(f, *args):
    """f(*args), or the exception type it raised."""
    try:
        return f(*args)
    except UncertainAtPrecision:
        return UncertainAtPrecision


def reference_records(alphas, times_):
    return [times_[i] for i, _ in norm_records([a.multiple(n) for a in alphas] for n in times_)]


GOLDEN = exactreal.golden_rotation()
SQRT2 = exactreal.sqrt2_rotation()


@given(systems(), times)
@example(RotationSystem((GOLDEN, SQRT2)), [0, 5, -5, 12, 12, -29, 0])
@example(RotationSystem((TorusPoint(Fraction(1, 5)), TorusPoint(Fraction(2, 5)))), [3, -3, 5, 10, 0])
@settings(max_examples=200, deadline=None)
def test_record_scan_matches_surd_records(sys_, times_):
    alphas = [a.value for a in sys_.alphas]
    assert outcome(record_times, alphas, times_) == outcome(reference_records, sys_.alphas, times_)


# runs of one n, so that an n can repeat the one before it; |n| up to 10**6
repeated_times = st.lists(
    st.tuples(st.one_of(st.integers(-60, 60), st.integers(-10**6, 10**6)), st.integers(1, 3)), max_size=20
).map(lambda runs: [n for n, k in runs for _ in range(k)])


@given(st.one_of(rationals, *map(surd_in, FIELDS)), repeated_times)
@example(GOLDEN, [0, 0, 3, -3, 3, 3, 1, 2, -1])
@example(TorusPoint(Fraction(1, 2)), [2, 2, 1, -1, 0, 0])
@settings(max_examples=300, deadline=None)
def test_circle_record_scan_matches_the_squared_norm_loop(alpha, times_):
    assert record_times([alpha.value], times_) == sq_norm_record_times([alpha.value], times_)


@given(cases())
@settings(max_examples=200, deadline=None)
def test_membership_matches_surd_norm_test(case):
    sys_, times_, eps = case
    spec = BohrSpec(sys_.alphas, eps)
    for n in times_:
        got = outcome(lambda: bohr_membership(n, spec).member)
        assert got == outcome(torus_norm_lt, [a.multiple(n) for a in sys_.alphas], eps), n


def first_reference_hit(sys_, times_, eps):
    for n in sorted(set(times_) - {0})[:RECURRENT_SAMPLE_BUDGET]:
        if displacement_lt(sys_, n, eps):
            return n
    return None


@given(cases())
@settings(max_examples=200, deadline=None)
def test_l_recurrent_is_the_first_reference_hit(case):
    sys_, times_, eps = case
    if not set(times_) - {0}:
        return
    witness = outcome(find_l_recurrent, sys_, times_, eps)
    got = witness if witness in (None, UncertainAtPrecision) else witness.time
    assert got == outcome(first_reference_hit, sys_, times_, eps)


def test_no_norm_is_below_a_radius_at_or_under_zero():
    sys_ = RotationSystem((GOLDEN, SQRT2))
    for eps in (Fraction(0), Fraction(-1, 2)):
        assert find_l_recurrent(sys_, [1, 2, 3], eps) is None
        assert psi_moving(sys_, MovingQuery(2, eps))[1] is False


# denominators above 2**28, so that a torus square of them passes MAX_RADICAND_BITS
large_rationals = st.integers(2**29, 2**40).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: TorusPoint(Fraction(p, q)))
)


@st.composite
def displayed_vectors(draw):
    """n*alpha for 2 or 3 coordinates and |n| <= 10**4: rationals, surds of
    one field, surds of distinct fields, or rationals of large denominators."""
    size = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(("rational", "large rational", "one field", "distinct fields")))
    if kind == "rational":
        alphas = [draw(rationals) for _ in range(size)]
    elif kind == "large rational":
        alphas = [draw(large_rationals) for _ in range(size)]
    elif kind == "one field":
        d = draw(st.sampled_from(FIELDS))
        alphas = [draw(st.one_of(rationals, surd_in(d))) for _ in range(size)]
    else:
        ds = draw(st.permutations(FIELDS))
        alphas = [draw(surd_in(d)) for d in ds[:size]]
    n = draw(st.integers(-(10**4), 10**4))
    return [a.multiple(n) for a in alphas]


def expected_kind(square):
    """The kind of the displayed root of an exact square: None for an
    irrational square."""
    if square is None:
        return "approx"
    num, den = square.numerator, square.denominator
    if isqrt(num) ** 2 == num and isqrt(den) ** 2 == den:
        return "rational"
    return "surd" if max(num, den).bit_length() <= MAX_RADICAND_BITS else "approx"


@given(displayed_vectors())
# n = 19 on (sqrt2 - 1, sqrt3 - 1), and a surd coordinate with a rational square
@example([Surd.make(-19, 19, 2), Surd.make(-19, 19, 3)])
@example([Surd.make(0, Fraction(1, 4), 2), Fraction(1, 3)])
@settings(max_examples=300, deadline=None)
def test_displayed_norm_matches_decimal_reference(xs):
    norm = torus_norm(xs)
    shown = real_to_json(norm)
    reference, square = decimal_norm(xs)
    assert shown["float"] == float(reference)
    assert shown["kind"] == expected_kind(square)
    if isinstance(norm, Approx):
        # the reference is good to about 1e-59, far inside the bound
        assert abs(Fraction(reference) - norm.value) <= norm.err + Fraction(1, 10**55)
        assert norm.err <= Fraction(1, 2**128)
    else:
        assert real_mul(norm, norm) == square


TWO_FIELD_CALLS = {
    ("dyn", "rigidity", "--alpha", "golden", "--alpha", "sqrt2", "--horizon", "3000"):
        "605e0ad7e953f42196c49a3060ebed72cf2425bc7ab455b0d6fe3dbf9b4ac56e",
    ("dyn", "psi", "--alpha", "sqrt:2:0:1:1", "--alpha", "sqrt:5:-1:1:2", "--nk", "k^2", "--horizon", "300"):
        "76768568fa17dd26a35b5b4d2bf7f2d103edb62825a24e1bd9ec13364e1da81a",
    ("bohr", "member", "--n", "19", "--alpha", "sqrt:2:0:1:1", "--alpha", "sqrt:3:0:1:1", "--eps", "1/5"):
        "29bd6cec073e881a6ddd0f305fbbaf91547f2f8f09342dc62fa47669318de328",
}


@pytest.mark.parametrize("argv", sorted(TWO_FIELD_CALLS), ids=" ".join)
def test_bracket_limit(argv, capsys, monkeypatch):
    # every sign round _int_sum_sign brackets is at the first scale, 64 bits;
    # bohr.torus_norm's display bracket is no sign round and is not recorded
    scales, bracket = [], exactreal._sum_bracket

    def recording(surds, k):
        scales.append(k)
        return bracket(surds, k)

    monkeypatch.setattr(exactreal, "_sum_bracket", recording)
    assert cli.main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == TWO_FIELD_CALLS[argv]
    assert scales and set(scales) == {64}
