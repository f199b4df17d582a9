"""Differential tests of interval pruning and continued fractions.

``_prune_stage`` keeps every endpoint as an unreduced integer pair and
compares by cross-multiplication; the Fraction version it replaced is kept
here as the reference, and outputs are compared as values.  ``_prune``
prunes [0, 1/2] and mirrors it; the reference prunes the whole of [0, 1].  Continued
fraction quotients are checked against sympy (skipped when sympy is absent).
"""

import itertools
from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

from reclab import bohr
from reclab.bohr import BohrSpec, WitnessInterval, bohr_separation_search, continued_fraction, lacunary_witness
from reclab.errors import PruningBudgetExceeded
from reclab.exactreal import TorusPoint, parse_real, torus_norm1

FIELDS = (2, 3, 5, 6, 7, 10, 11, 13)
DOUBLING = [2**k for k in range(21)]


def reference_prune_stage(intervals, n, delta):
    """Intersect with {alpha : dist(n*alpha, Z) >= delta}, in Fractions."""
    out = []
    for lo, hi in intervals:
        j_first = floor(lo * n) - 1
        j_last = ceil(hi * n) + 1
        for j in range(j_first, j_last + 1):
            a = max(lo, Fraction(j + delta, n))
            b = min(hi, Fraction(j + 1 - delta, n))
            if a <= b:
                out.append((a, b))
    return out


def as_spans(intervals, scale=1):
    """Fraction intervals as _prune_stage's (lo_num, lo_den, hi_num, hi_den),
    numerators and denominators multiplied by scale."""
    return [(scale * lo.numerator, scale * lo.denominator, scale * hi.numerator, scale * hi.denominator)
            for lo, hi in intervals]


def as_fractions(spans):
    return [(Fraction(ln, ld), Fraction(hn, hd)) for ln, ld, hn, hd in spans]


def reference_stage_on_spans(spans, n, delta, cap):
    """The Fraction reference behind _prune_stage's integer interface."""
    out = reference_prune_stage(as_fractions(spans), n, delta)
    if len(out) > cap:
        raise PruningBudgetExceeded(f"interval count exceeded {cap}")
    return as_spans(out)


def reference_prune(values, delta, cap=None):
    """Every stage over the whole of [0, 1], refused once a stage keeps more
    than cap intervals."""
    intervals = [(Fraction(0), Fraction(1))]
    for n in values:
        intervals = reference_prune_stage(intervals, n, delta)
        if cap is not None and len(intervals) > cap:
            raise PruningBudgetExceeded(f"interval count exceeded {cap}")
    return intervals


def reference_longest(intervals):
    return max(intervals, key=lambda iv: (iv[1] - iv[0], -iv[0]))


# -- one stage --------------------------------------------------------------------------

deltas = st.builds(
    lambda den, num: Fraction(min(num, (den - 1) // 2), den), st.integers(3, 10**6), st.integers(1, 10**6)
)


@st.composite
def points(draw):
    """A point of [-1, 2] with a denominator up to 10**9."""
    den = draw(st.integers(1, 10**9))
    return Fraction(draw(st.integers(-den, 2 * den)), den)


@st.composite
def interval_lists(draw):
    """Intervals lo <= hi: random ones, and cut-point ones that share edges."""
    out = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            lo, hi = sorted((draw(points()), draw(points())))
        else:
            den = draw(st.integers(1, 400))
            lo = Fraction(draw(st.integers(-400, 400)), den)
            hi = lo + Fraction(draw(st.integers(0, 60)), den)
        out.append((lo, hi))
    return out


@settings(deadline=None)
@given(interval_lists(), st.integers(1, 200), deltas, st.integers(1, 6))
def test_stage_matches_fraction_reference(intervals, n, delta, scale):
    out = bohr._prune_stage(as_spans(intervals, scale), n, delta, 10**6)
    assert all(type(v) is int for span in out for v in span)
    assert all(ld > 0 and hd > 0 for _, ld, _, hd in out)
    assert as_fractions(out) == reference_prune_stage(intervals, n, delta)


@given(interval_lists(), st.integers(1, 200), deltas, st.integers(0, 40))
def test_stage_budget_matches_the_count(intervals, n, delta, cap):
    count = len(reference_prune_stage(intervals, n, delta))
    if count > cap:
        with pytest.raises(PruningBudgetExceeded):
            bohr._prune_stage(as_spans(intervals), n, delta, cap)
    else:
        assert len(bohr._prune_stage(as_spans(intervals), n, delta, cap)) == count


def test_a_huge_stage_is_refused_before_it_is_built():
    with pytest.raises(PruningBudgetExceeded):
        lacunary_witness([10**15], Fraction(1, 5))
    with pytest.raises(PruningBudgetExceeded):
        bohr_separation_search([10**15], Fraction(1, 5))


@given(st.integers(1, 60), deltas)
def test_stage_on_unit_interval_matches_fraction_reference(n, delta):
    unit = [(Fraction(0), Fraction(1))]
    assert as_fractions(bohr._prune_stage(as_spans(unit), n, delta, 60)) == reference_prune_stage(unit, n, delta)


def test_prune_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("a Fraction was built between stages")

    delta = Fraction(1, 5)
    monkeypatch.setattr(bohr, "Fraction", no_fraction)
    spans = bohr._prune(DOUBLING, delta, 20_000)
    assert all(type(v) is int for span in spans for v in span)
    bohr._longest(spans)


# -- the searches built on it -------------------------------------------------------------

WITNESS_CASES = [
    (DOUBLING, Fraction(3, 10)),
    (DOUBLING, Fraction(1, 5)),
    (DOUBLING[:6], Fraction(2, 5)),
    (list(range(1, 15)), Fraction(1, 10)),
    ([3**k for k in range(12)], Fraction(1, 4)),
]
SEPARATION_CASES = [
    (DOUBLING, Fraction(1, 4)),
    (list(range(1, 51)), Fraction(1, 40)),
    (list(range(1, 51)), Fraction(1, 100)),
]


@pytest.mark.parametrize("seq, delta", WITNESS_CASES)
def test_lacunary_witness_matches_fraction_reference(monkeypatch, seq, delta):
    out = lacunary_witness(seq, delta)
    monkeypatch.setattr(bohr, "_prune_stage", reference_stage_on_spans)
    assert out == lacunary_witness(seq, delta)


@pytest.mark.parametrize("seq, eps", SEPARATION_CASES)
def test_separation_search_matches_fraction_reference(monkeypatch, seq, eps):
    out = bohr_separation_search(seq, eps)
    monkeypatch.setattr(bohr, "_prune_stage", reference_stage_on_spans)
    assert out == bohr_separation_search(seq, eps)


def reference_witness(seq, delta):
    """lacunary_witness computed with Fractions throughout."""
    intervals = reference_prune(seq, delta)
    if not intervals:
        return None
    lo, hi = reference_longest(intervals)
    measure = sum((b - a for a, b in intervals), Fraction(0))
    return WitnessInterval(lo=lo, hi=hi, stages=len(seq), surviving=len(intervals), total_measure=measure)


@st.composite
def lacunary_sequences(draw):
    """Up to seven terms, each at least twice the one before."""
    seq = [draw(st.integers(1, 6))]
    for _ in range(draw(st.integers(0, 6))):
        seq.append(2 * seq[-1] + draw(st.integers(0, seq[-1])))
    return seq


small_deltas = st.builds(
    lambda den, num: Fraction(min(num, (den - 1) // 2), den), st.integers(3, 60), st.integers(1, 30)
)


@settings(max_examples=300)
@given(lacunary_sequences(), small_deltas)
def test_whole_witness_matches_fraction_pipeline(seq, delta):
    assert lacunary_witness(seq, delta) == reference_witness(seq, delta)


def straddles_half(intervals):
    return any(lo < Fraction(1, 2) < hi for lo, hi in intervals)


@settings(max_examples=300)
@given(
    st.one_of(lacunary_sequences(), st.lists(st.integers(1, 120), min_size=1, max_size=8)),
    small_deltas, st.one_of(st.integers(0, 80), st.just(10**6)),
)
def test_half_circle_prune_matches_the_whole_circle(values, delta, cap):
    try:
        expected = reference_prune(values, delta, cap)
    except PruningBudgetExceeded as exc:
        with pytest.raises(PruningBudgetExceeded, match=f"^{exc}$"):
            bohr._prune(values, delta, cap)
        return
    out = as_fractions(bohr._prune(values, delta, cap))
    assert out == expected
    # n/2 is an integer for even n, and ||n/2|| = 1/2 >= delta for odd n
    assert straddles_half(out) == all(n % 2 for n in values)


@pytest.mark.parametrize("values, count", [([1, 3, 7, 15, 31], 25), ([2, 5, 11, 23], 20)])
def test_separation_budget_counts_the_whole_circle(values, count):
    eps = Fraction(1, 10)
    intervals = reference_prune(values, eps)
    assert len(intervals) == count
    assert straddles_half(intervals) == all(n % 2 for n in values)
    assert bohr_separation_search(values, eps, grid_depth=count) is not None
    with pytest.raises(PruningBudgetExceeded, match=f"^interval count exceeded {count - 1}$"):
        bohr_separation_search(values, eps, grid_depth=count - 1)


@pytest.mark.parametrize("seq, delta, lo, hi", [
    ([3], Fraction(1, 4), Fraction(1, 12), Fraction(1, 4)),      # three equal widths
    ([2], Fraction(1, 5), Fraction(1, 10), Fraction(2, 5)),      # two equal widths
    ([1, 2], Fraction(1, 4), Fraction(1, 4), Fraction(3, 8)),    # each keeps one inherited end
    ([1, 2], Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),    # two single points
])
def test_equal_widths_pick_the_leftmost(seq, delta, lo, hi):
    intervals = reference_prune(seq, delta)
    widths = sorted((b - a for a, b in intervals), reverse=True)
    assert len(widths) > 1 and widths[0] == widths[1]
    w = lacunary_witness(seq, delta)
    assert (w.lo, w.hi) == (lo, hi) == reference_longest(intervals)


@settings(max_examples=200)
@given(st.lists(st.integers(-80, 80), min_size=1, max_size=10), small_deltas)
def test_separation_matches_fraction_pipeline(seq, eps):
    if not any(seq):
        return
    values = [abs(v) for v in seq if v]
    intervals = reference_prune(sorted(set(values)), eps)
    expected = None
    if intervals:
        lo, hi = reference_longest(intervals)
        alpha = (lo + hi) / 2
        assert all(torus_norm1(n * alpha) >= eps for n in values)
        expected = BohrSpec(alphas=(TorusPoint(alpha),), eps=eps)
    assert bohr_separation_search(seq, eps) == expected


# -- continued fractions against sympy ----------------------------------------------------


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=60, deadline=None)
@given(st.integers(-(2**80), 2**80), st.integers(1, 2**80))
def test_rational_quotients_match_sympy(sympy, num, den):
    cf = continued_fraction(Fraction(num, den), depth=200)
    expected = list(sympy.continued_fraction_iterator(sympy.Rational(num, den)))
    assert cf.terminated
    assert list(cf.quotients) == expected


@settings(max_examples=16, deadline=None)
@given(
    st.sampled_from(FIELDS), st.integers(-20, 20),
    st.sampled_from([b for b in range(-6, 7) if b]), st.integers(1, 12),
)
def test_surd_quotients_match_sympy(sympy, d, a, b, c):
    depth = 16
    cf = continued_fraction(parse_real(f"sqrt:{d}:{a}:{b}:{c}"), depth=depth)
    value = (sympy.Integer(a) + sympy.Integer(b) * sympy.sqrt(d)) / c
    expected = list(itertools.islice(sympy.continued_fraction_iterator(value), depth + 1))
    assert not cf.terminated
    assert list(cf.quotients) == expected
