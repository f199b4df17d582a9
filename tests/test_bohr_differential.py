"""Differential tests of interval pruning and continued fractions.

``_prune_stage`` picks and compares cut points by integer cross-multiplication;
the Fraction version it replaced is kept here as the reference.  Continued
fraction quotients are checked against sympy (skipped when sympy is absent).
"""

import itertools
from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

from reclab import bohr
from reclab.bohr import bohr_separation_search, continued_fraction, lacunary_witness
from reclab.exactreal import parse_real

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


@given(interval_lists(), st.integers(1, 200), deltas)
def test_stage_matches_fraction_reference(intervals, n, delta):
    out = bohr._prune_stage(intervals, n, delta)
    expected = reference_prune_stage(intervals, n, delta)
    assert out == expected
    assert all(type(v) is Fraction for iv in out for v in iv)


@given(st.integers(1, 60), deltas)
def test_stage_on_unit_interval_matches_fraction_reference(n, delta):
    unit = [(Fraction(0), Fraction(1))]
    assert bohr._prune_stage(unit, n, delta) == reference_prune_stage(unit, n, delta)


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
    monkeypatch.setattr(bohr, "_prune_stage", reference_prune_stage)
    assert out == lacunary_witness(seq, delta)


@pytest.mark.parametrize("seq, eps", SEPARATION_CASES)
def test_separation_search_matches_fraction_reference(monkeypatch, seq, eps):
    out = bohr_separation_search(seq, eps)
    monkeypatch.setattr(bohr, "_prune_stage", reference_prune_stage)
    assert out == bohr_separation_search(seq, eps)


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
