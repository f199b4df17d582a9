"""Differential tests of the integer surd kernel.

Every exact operation on ``Surd`` is checked against two independent
references: sympy's algebraic numbers (skipped when sympy is absent) and the
Fraction-based bracket arithmetic the kernel replaced, kept here as an oracle.
The cross-field sum sign ``_int_sum_sign`` is checked against sympy through
the oracle ``real_sum_sign``, which folds exact terms into its integers,
also on a two-field sum of about 2**-4200 that needs an 8192-bit bracket.
"""

import json
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from reclab import exactreal, intsets
from reclab.errors import UncertainAtPrecision
from reclab.exactreal import (
    Surd,
    real_cmp,
    real_floor,
    real_frac,
    real_mul_int,
    real_to_json,
    torus_norm1,
)

from oracles import bracket_float, real_sum_sign, signed_convergent, sqrt_convergents

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


coeffs = st.integers(-BIG, BIG)
nonzero = coeffs.filter(lambda v: v != 0)
denominators = st.integers(1, BIG)


@st.composite
def surd_fields(draw, fields=FIELDS):
    """(a, b, c, d): (a + b*sqrt(d))/c, random or within 1/c of an integer."""
    d = draw(st.sampled_from(fields))
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


@given(surd_fields())
def test_p_q_bounds_and_json_match_fraction_formulas(fields):
    a, b, c, d = fields
    p, q = Fraction(a, c), Fraction(b, c)
    x = build(a, b, c, d)
    assert (x.p, x.q) == (p, q)
    # the float is correctly rounded, however far a + b*sqrt(d) cancels
    expected = {"float": bracket_float(p, q, d), "kind": "surd", "exact": f"({p}) + ({q})*sqrt({d})"}
    assert json.dumps(real_to_json(x)) == json.dumps(expected)
    assert repr(x) == f"Surd({p} + {q}*sqrt({d}))"


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("depth", [60, 400])
def test_float_of_a_deep_convergent_gap_is_correctly_rounded(d, depth):
    # q*sqrt(d) - p is below 1/q: a bracket of fixed width once gave such
    # gaps floats of the wrong size and sign
    p, q = sqrt_convergents(d, depth)[-1]
    for sign in (1, -1):
        x = build(-sign * p, sign * q, 1, d)
        shown = float(x)
        assert shown == bracket_float(Fraction(-sign * p), Fraction(sign * q), d)
        assert 0 < abs(shown) < 1 / q


def test_make_folds_degenerate_radicands():
    assert Surd.make(Fraction(1, 3), 5, 0) == Fraction(1, 3)
    with pytest.raises(ValueError):
        Surd.make(1, 1, -3)


def test_hot_path_builds_no_fraction(monkeypatch):
    x, y = Surd.make(Fraction(1, 3), Fraction(-2, 7), 5), Surd.make(2, Fraction(5, 3), 5)
    r, n = Fraction(7, 11), -6
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for other in (y, r, n):
        x + other, x - other, other - x, x * other, x < other
    for other in (y, r):  # real_cmp coerces an int to Fraction
        real_cmp(x, other), real_cmp(other, x)
    -x, abs(x), x.sign(), x.floor(), x == y, hash(x)
    real_frac(x), torus_norm1(x), real_mul_int(x, n)
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
    expected = (sx - k) * sympy_sign(sympy, sx - k)
    assert sympy.expand(surd_to_sympy(sympy, torus_norm1(x)) - expected) == 0


@settings(max_examples=40, deadline=None)
@given(surd_fields(), surd_fields())
def test_same_field_compare_matches_sympy(sympy, f1, f2):
    f2 = (f2[0], f2[1], f2[2], f1[3])
    x, y = build(*f1), build(*f2)
    sx, sy = to_sympy(sympy, *f1), to_sympy(sympy, *f2)
    assert real_cmp(x, y) == sympy_sign(sympy, sx - sy)


@settings(max_examples=40, deadline=None)
@given(surd_fields(), st.integers(0, 300))
def test_bounds_bracket_the_sympy_value(sympy, fields, bits):
    # the oracle's bracket, from which the floor and the float are checked
    a, b, c, d = fields
    lo, hi = oracle_bounds(Fraction(a, c), Fraction(b, c), d, bits)
    sx = to_sympy(sympy, *fields)
    lo, hi = (sympy.Rational(f.numerator, f.denominator) for f in (lo, hi))
    assert sympy_sign(sympy, sx - lo) == 1 and sympy_sign(sympy, hi - sx) == 1


# -- sums across quadratic fields ----------------------------------------------------


@st.composite
def field_sums(draw):
    """(terms, bound): 1-4 terms over 2 or 3 fields, some of them rational,
    and a bound that is random or the sum of the terms' nearest integers, so
    that sum(terms) - bound is a sum of tiny values of either sign."""
    fields = draw(st.lists(st.sampled_from(FIELDS), min_size=2, max_size=3, unique=True))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 4)) == 0:
            terms.append(Fraction(draw(coeffs), draw(denominators)))
        else:
            terms.append(build(*draw(surd_fields(fields))))
    if draw(st.booleans()):
        return terms, Fraction(draw(coeffs), draw(denominators))
    return terms, sum(real_floor(t + Fraction(1, 2)) for t in terms)


def term_to_sympy(sympy, t):
    if isinstance(t, Surd):
        return surd_to_sympy(sympy, t)
    t = Fraction(t)
    return sympy.Rational(t.numerator, t.denominator)


def sympy_sum_sign(sympy, terms, bound) -> int:
    return sympy_sign(sympy, sum(term_to_sympy(sympy, t) for t in terms) - term_to_sympy(sympy, bound))


@settings(max_examples=150, deadline=None)
@given(field_sums())
def test_sum_sign_matches_sympy(sympy, case):
    terms, bound = case
    assert real_sum_sign(terms, bound) == sympy_sum_sign(sympy, terms, bound)


@settings(max_examples=60, deadline=None)
@given(field_sums(), surd_fields(), surd_fields())
def test_sum_sign_with_exact_cancellation_in_a_field(sympy, case, f1, f2):
    terms, bound = case
    x, y = build(*f1), build(f2[0], f2[1], f2[2], f1[3])
    expected = sympy_sum_sign(sympy, terms, bound)
    assert real_sum_sign([x, *terms, -x], bound) == expected
    # x + y - (x + y): a field whose terms cancel only as a sum
    assert real_sum_sign([x, *terms, y, -(x + y)], bound) == expected
    assert real_sum_sign([x, -x], 0) == 0


@settings(max_examples=60, deadline=None)
@given(surd_fields(), st.integers(2, 50), field_sums())
def test_sum_sign_reads_equal_values_in_other_forms(sympy, f, s, case):
    a, b, c, d = f
    terms, bound = case
    wide = Surd.make(Fraction(a, c), Fraction(b, c), d * s * s)  # sqrt(8) for 2*sqrt(2)
    narrow = build(a, b * s, c, d)
    assert wide == narrow
    assert real_sum_sign([wide, -narrow], 0) == 0
    expected = sympy_sum_sign(sympy, [narrow, *terms], bound)
    assert real_sum_sign([wide, *terms], bound) == expected


@settings(max_examples=40, deadline=None)
@given(surd_fields(), surd_fields())
def test_cross_field_compare_matches_sympy(sympy, f1, f2):
    x, y = build(*f1), build(*f2)
    expected = sympy_sign(sympy, to_sympy(sympy, *f1) - to_sympy(sympy, *f2))
    assert real_sum_sign([x, -y]) == expected == -real_sum_sign([y, -x])
    if x.d == y.d:
        assert real_cmp(x, y) == expected == -real_cmp(y, x)
    else:
        with pytest.raises(TypeError):
            real_cmp(x, y)
        with pytest.raises(TypeError):
            real_cmp(y, x)


def convergent_error(d: int, bits: int, sign: int) -> Surd:
    """q*sqrt(d) - p of the given sign for the first such convergent p/q of
    sqrt(d) with q above 2**bits: about 2**-bits in size."""
    p, q = signed_convergent(d, bits, sign)
    return build(-p, q, 1, d)


def test_sum_sign_refines_until_separated_and_stops_at_its_limit(sympy, monkeypatch):
    # two fields, terms of opposite signs about 2**-1000 and 2**-4200 each:
    # no bracket below that scale can place their sum.  The norm bound of
    # real_sum_sign is about 12,600 bits for the second pair, and its
    # bracket separates at 8192 bits
    terms = [convergent_error(2, 1000, 1), convergent_error(3, 1000, -1)]
    assert real_sum_sign(terms) == sympy_sum_sign(sympy, terms, 0)
    terms = [convergent_error(2, 4200, 1), convergent_error(3, 4200, -1)]
    scales, bracket = [], exactreal._sum_bracket

    def recording(surds, k):
        scales.append(k)
        return bracket(surds, k)

    monkeypatch.setattr(exactreal, "_sum_bracket", recording)
    # 50 digits that evalf guarantees: the sum is about 1.3e-1266
    expected = int(sympy.sign(sum(term_to_sympy(sympy, t) for t in terms).evalf(50, strict=True, maxn=8000)))
    assert real_sum_sign(terms) == expected
    assert scales == [64 << i for i in range(8)]
    # the refinement stops at the listing cap, a budget: exit 4 in the CLI
    monkeypatch.setattr(intsets, "HIT_CAP", 4096)
    with pytest.raises(UncertainAtPrecision, match="past the cap 4096 bits"):
        real_sum_sign(terms)


def test_sum_sign_builds_no_fraction(monkeypatch):
    x, y, z = Surd.make(Fraction(1, 3), Fraction(-2, 7), 5), Surd.make(2, Fraction(5, 3), 2), Surd.make(0, 1, 3)
    r, bound = Fraction(7, 11), Fraction(-4, 9)
    near = [convergent_error(2, 200, 1), convergent_error(3, 200, -1)]  # k = 256
    built = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    signs = [
        real_sum_sign([x, y, z, r], bound), real_sum_sign([x, r, 3], bound),
        real_sum_sign([x, -x, r]), real_sum_sign(near), real_sum_sign([x, y, -x, -y]),
        real_sum_sign([x, -y]), real_sum_sign([y, -z]),
    ]
    monkeypatch.undo()
    assert built == []
    assert signs[2] == 1 and signs[4] == 0
