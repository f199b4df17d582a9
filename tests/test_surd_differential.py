"""Differential tests of the integer surd kernel.

Every exact operation on ``Surd`` is checked against two independent
references: sympy's algebraic numbers (skipped when sympy is absent) and the
Fraction-based bracket arithmetic the kernel replaced, kept here as an oracle.
"""

import json
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from reclab.exactreal import (
    Surd,
    nearest_int,
    real_cmp,
    real_frac,
    real_mul_int,
    real_to_json,
    torus_norm1,
)

FIELDS = (2, 3, 5, 6, 7, 10, 11, 13)
BIG = 2**200


# -- Fraction oracle: the bracket arithmetic of the former Surd ----------------


def oracle_sign(p: Fraction, q: Fraction, d: int) -> int:
    if p >= 0 and q > 0:
        return 1
    if p <= 0 and q < 0:
        return -1
    lhs, rhs = p * p, q * q * d
    if p > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


def oracle_bounds(p: Fraction, q: Fraction, d: int, bits: int) -> tuple[Fraction, Fraction]:
    n = isqrt(d << (2 * bits))
    lo, hi = Fraction(n, 1 << bits), Fraction(n + 1, 1 << bits)
    if q >= 0:
        return p + q * lo, p + q * hi
    return p + q * hi, p + q * lo


def oracle_floor(p: Fraction, q: Fraction, d: int) -> int:
    """Widen the bracket until at most one integer can sit inside it."""
    bits = max(64, q.numerator.bit_length())
    while True:
        lo, hi = oracle_bounds(p, q, d, bits)
        fl = lo.numerator // lo.denominator
        fh = hi.numerator // hi.denominator
        if fl == fh:
            return fl
        if fh == fl + 1:
            return fh if oracle_sign(p - fh, q, d) >= 0 else fl
        bits *= 2


# -- inputs ----------------------------------------------------------------------


def sqrt_convergents(d: int, count: int) -> list[tuple[int, int]]:
    """Convergents p/q of sqrt(d), so that q*sqrt(d) - p is tiny, of either sign."""
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p, q_prev, q = 1, a0, 0, 1
    out = [(p, q)]
    for _ in range(count):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append((p, q))
    return out


coeffs = st.integers(-BIG, BIG)
nonzero = coeffs.filter(lambda v: v != 0)
denominators = st.integers(1, BIG)


@st.composite
def surd_fields(draw):
    """(a, b, c, d): (a + b*sqrt(d))/c, random or within 1/c of an integer."""
    d = draw(st.sampled_from(FIELDS))
    if draw(st.booleans()):
        return draw(coeffs), draw(nonzero), draw(denominators), d
    # b*sqrt(d) - p tiny: floor and sign sit right at an integer boundary
    p, q = draw(st.sampled_from(sqrt_convergents(d, 120)))
    c = draw(st.integers(1, 1000))
    k = draw(st.integers(-5, 5))
    sign = draw(st.sampled_from((1, -1)))
    return sign * (k * c - p), sign * q, c, d


def build(a: int, b: int, c: int, d: int) -> Surd:
    x = Surd.make(Fraction(a, c), Fraction(b, c), d)
    assert isinstance(x, Surd)
    return x


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def to_sympy(sympy, a, b, c, d):
    return (sympy.Integer(a) + sympy.Integer(b) * sympy.sqrt(d)) / sympy.Integer(c)


# Decimal digits for sympy's numerical evaluation.  A nonzero a + b*sqrt(d)
# is at least 1/(|a| + |b|*sqrt(d)) in size, so with coefficients up to about
# 10**130 (differences of two surds) 800 digits decide sign and floor;
# strict=True makes evalf raise instead of returning fewer correct digits.
DIGITS = 800


def sympy_value(sympy, expr):
    return expr.evalf(DIGITS, strict=True, maxn=2 * DIGITS)


def sympy_sign(sympy, expr) -> int:
    expr = sympy.expand(expr)
    return int(sympy.sign(expr if expr.is_Rational else sympy_value(sympy, expr)))


def sympy_floor(sympy, expr) -> int:
    return int(sympy.floor(sympy_value(sympy, expr)))


def surd_to_sympy(sympy, x: Surd):
    p, q = x.p, x.q
    return sympy.Rational(p.numerator, p.denominator) + sympy.Rational(
        q.numerator, q.denominator
    ) * sympy.sqrt(x.d)


# -- representation ---------------------------------------------------------------


@given(surd_fields())
def test_fields_are_normalised_ints(fields):
    x = build(*fields)
    assert all(type(v) is int for v in (x.a, x.b, x.c, x.d))
    assert x.b != 0 and x.c > 0 and gcd(x.a, x.b, x.c) == 1 and x.d == fields[3]


@given(surd_fields(), st.integers(0, 300))
def test_p_q_bounds_and_json_match_fraction_formulas(fields, bits):
    a, b, c, d = fields
    p, q = Fraction(a, c), Fraction(b, c)
    x = build(a, b, c, d)
    assert (x.p, x.q) == (p, q)
    assert x.bounds(bits) == oracle_bounds(p, q, d, bits)
    lo, hi = oracle_bounds(p, q, d, 80)
    expected = {"float": float((lo + hi) / 2), "kind": "surd", "exact": f"({p}) + ({q})*sqrt({d})"}
    assert json.dumps(real_to_json(x)) == json.dumps(expected)
    assert repr(x) == f"Surd({p} + {q}*sqrt({d}))"


def test_make_folds_degenerate_radicands():
    assert Surd.make(Fraction(1, 3), 5, 0) == Fraction(1, 3)
    with pytest.raises(ValueError):
        Surd.make(1, 1, -3)


def test_hot_path_builds_no_fraction(monkeypatch):
    x, y = Surd(Fraction(1, 3), Fraction(-2, 7), 5), Surd(2, Fraction(5, 3), 5)
    r, n = Fraction(7, 11), -6
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for other in (y, r, n):
        x + other, x - other, other - x, x * other, x / other, other / x, x < other
    for other in (y, r):  # real_cmp coerces an int to Fraction
        real_cmp(x, other), real_cmp(other, x)
    -x, abs(x), x.reciprocal(), x.sign(), x.floor(), x == y, hash(x)
    real_frac(x), nearest_int(x), torus_norm1(x), real_mul_int(x, n)
    monkeypatch.undo()
    assert built == []


# -- against the Fraction oracle ----------------------------------------------------


@given(surd_fields())
def test_floor_and_sign_match_fraction_oracle(fields):
    a, b, c, d = fields
    p, q = Fraction(a, c), Fraction(b, c)
    x = build(a, b, c, d)
    assert x.floor() == oracle_floor(p, q, d)
    assert x.sign() == oracle_sign(p, q, d)
    k = oracle_floor(p + Fraction(1, 2), q, d)
    assert nearest_int(x) == k
    norm = torus_norm1(x)
    if oracle_sign(p - k, q, d) > 0:
        assert (norm.p, norm.q) == (p - k, q)
    else:
        assert (norm.p, norm.q) == (k - p, -q)


@given(surd_fields(), surd_fields())
def test_same_field_compare_matches_fraction_oracle(f1, f2):
    d = f1[3]
    x, y = build(*f1), build(f2[0], f2[1], f2[2], d)
    diff_p, diff_q = x.p - y.p, x.q - y.q
    if diff_q == 0:
        expected = (diff_p > 0) - (diff_p < 0)
    else:
        expected = oracle_sign(diff_p, diff_q, d)
    assert real_cmp(x, y) == expected == -real_cmp(y, x)
    r = Fraction(f2[0], f2[2])
    assert real_cmp(x, r) == oracle_sign(x.p - r, x.q, d)


# -- against sympy ---------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(surd_fields())
def test_floor_sign_and_norm_match_sympy(sympy, fields):
    x, sx = build(*fields), to_sympy(sympy, *fields)
    assert x.floor() == sympy_floor(sympy, sx)
    assert x.sign() == sympy_sign(sympy, sx)
    k = sympy_floor(sympy, sx + sympy.Rational(1, 2))
    assert nearest_int(x) == k
    expected = (sx - k) * sympy_sign(sympy, sx - k)
    assert sympy.expand(surd_to_sympy(sympy, torus_norm1(x)) - expected) == 0


@settings(max_examples=40, deadline=None)
@given(surd_fields(), surd_fields())
def test_same_field_compare_and_reciprocal_match_sympy(sympy, f1, f2):
    f2 = (f2[0], f2[1], f2[2], f1[3])
    x, y = build(*f1), build(*f2)
    sx, sy = to_sympy(sympy, *f1), to_sympy(sympy, *f2)
    assert real_cmp(x, y) == sympy_sign(sympy, sx - sy)
    assert sympy.expand(sx * surd_to_sympy(sympy, x.reciprocal())) == 1


@settings(max_examples=40, deadline=None)
@given(surd_fields(), st.integers(0, 300))
def test_bounds_bracket_the_sympy_value(sympy, fields, bits):
    lo, hi = build(*fields).bounds(bits)
    sx = to_sympy(sympy, *fields)
    lo, hi = (sympy.Rational(f.numerator, f.denominator) for f in (lo, hi))
    assert sympy_sign(sympy, sx - lo) == 1 and sympy_sign(sympy, hi - sx) == 1
