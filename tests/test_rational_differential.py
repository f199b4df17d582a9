"""Differential tests of the rational paths in exactreal.

Rationals (ints and Fractions) are compared, rounded and reduced from their
numerator and denominator.  Every such path is checked here against the
generic Fraction formula it replaces, for value and type, and the square-free
split behind ``real_sqrt`` is checked against sympy's factorisation.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reclab.exactreal import (
    Surd,
    _squarefree_split,
    as_real,
    parse_real,
    real_add,
    real_cmp,
    real_floor,
    real_frac,
    real_mul,
    real_mul_int,
    real_sqrt,
    real_sub,
    torus_norm1,
)

BIG = 2**200
FIELDS = (2, 3, 5, 6, 7, 10, 11, 13)

fractions = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
small_fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
rationals = st.one_of(fractions, small_fractions, st.integers(-BIG, BIG), st.integers(-5, 5))
surds = st.builds(
    lambda p, q, d: Surd.make(p, q, d), small_fractions, small_fractions.filter(bool), st.sampled_from(FIELDS)
)


def same(out, expected) -> bool:
    return type(out) is type(expected) and out == expected


# -- the generic formulas: coerce to Fraction, then Fraction operators -----------


@given(rationals, rationals)
def test_two_argument_paths_match_fraction_operators(x, y):
    fx, fy = Fraction(x), Fraction(y)
    assert real_cmp(x, y) == (fx > fy) - (fx < fy)
    assert same(real_add(x, y), fx + fy)
    assert same(real_sub(x, y), fx - fy)
    assert same(real_mul(x, y), fx * fy)


@given(rationals, st.integers(-BIG, BIG))
def test_one_argument_paths_match_fraction_formulas(x, n):
    fx = Fraction(x)
    k = math.floor(fx + Fraction(1, 2))
    assert same(real_floor(x), math.floor(fx))
    assert same(real_frac(x), fx - math.floor(fx))
    assert same(torus_norm1(x), abs(fx - k))
    assert same(real_mul_int(x, n), fx * n)


@given(rationals, surds)
def test_rational_with_surd_matches_fraction_operators(x, s):
    fx = Fraction(x)
    assert real_cmp(x, s) == -real_cmp(s, x) == (fx > s) - (fx < s)
    assert same(real_add(x, s), fx + s) and same(real_add(s, x), s + fx)
    assert same(real_sub(x, s), fx - s) and same(real_sub(s, x), s - fx)
    assert same(real_mul(x, s), fx * s) and same(real_mul(s, x), s * fx)


STRING_CALLS = {
    "real_cmp": (real_cmp, ("1/3", Fraction(1, 2)), -1),
    "real_cmp second": (real_cmp, (Fraction(1, 2), "1/3"), 1),
    "real_cmp surd first": (real_cmp, (Surd.make(0, 1, 2), "1/3"), 1),
    "real_add": (real_add, ("1/3", 1), Fraction(4, 3)),
    "real_mul": (real_mul, (2, "sqrt:5:1:1:2"), Surd.make(1, 1, 5)),
    "torus_norm1": (torus_norm1, ("7/3",), Fraction(1, 3)),
    "real_floor": (real_floor, ("-7/3",), -3),
    "as_real": (as_real, ("1/3",), Fraction(1, 3)),
}


def test_strings_are_refused():
    # only parse_real reads a string (a float is refused in
    # tests/test_exactreal.py); each call takes the parsed value instead
    for name, (fn, args, want) in STRING_CALLS.items():
        with pytest.raises(TypeError):
            fn(*args)
        parsed = [parse_real(a) if isinstance(a, str) else a for a in args]
        assert same(fn(*parsed), want), name


def test_compare_and_rounding_build_no_fraction(monkeypatch):
    values = [Fraction(-7, 3), Fraction(BIG + 1, BIG - 1), 5, -2, Fraction(1, 2)]
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for x in values:
        for y in values:
            real_cmp(x, y)
        real_floor(x)
    assert built == []
    # each rounding path builds its one result and nothing else
    for x in values:
        for call in (lambda: torus_norm1(x), lambda: real_frac(x)):
            del built[:]
            call()
            assert len(built) == 1
    monkeypatch.undo()


# -- square-free split ---------------------------------------------------------------


def test_sqrt_of_large_coprime_fraction_is_fast_and_exact():
    start = time.perf_counter()
    root = real_sqrt(Fraction(1000003, 999999937))
    assert time.perf_counter() - start < 0.5
    # both are prime, so the core is their product
    assert (root.a, root.b, root.c, root.d) == (0, 1, 999999937, 1000003 * 999999937)


@given(small_fractions.filter(lambda x: x > 0), st.integers(1, 10**6))
def test_sqrt_of_fraction_squares_back(x, k):
    x = x * k
    root = real_sqrt(x)
    assert real_mul(root, root) == x


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


P, Q, SMALL_P = 1000003, 999999937, 10007
SPECIAL = [
    1, 2, 4, 8, 12, 72, P, P * P, P * P * Q, P**3, P * Q, SMALL_P**3 * Q, SMALL_P**4,
    Q * Q, 2**61 - 1, (2**31 - 1) ** 2, 2**40 * 3**7 * P,
]


def check_split(sympy, d):
    s, core = _squarefree_split(d)
    assert s * s * core == d
    factors = sympy.factorint(core)
    assert all(e == 1 for e in factors.values())
    assert core == math.prod(p for p, e in sympy.factorint(d).items() if e % 2)


@pytest.mark.parametrize("d", SPECIAL)
def test_squarefree_split_matches_sympy_on_special_values(sympy, d):
    check_split(sympy, d)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**13))
def test_squarefree_split_matches_sympy(sympy, d):
    check_split(sympy, d)
