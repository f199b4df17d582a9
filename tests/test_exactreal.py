"""Exact arithmetic kinds: rationals and quadratic surds; a display-only Approx is refused."""

import functools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reclab.errors import RadicandTooLarge
from reclab.exactreal import (
    _floor_ratio,
    MAX_RADICAND_BITS,
    Approx,
    Surd,
    TorusPoint,
    as_real,
    golden_rotation,
    parse_real,
    real_abs,
    real_add,
    real_cmp,
    real_floor,
    real_frac,
    real_mul,
    real_mul_int,
    real_sqrt,
    real_sub,
    real_to_float,
    sqrt2_rotation,
    torus_norm1,
)

from oracles import real_eq, real_sum_sign


class TestSurd:
    def test_rejects_rational_disguise(self):
        # make is the one constructor, and it folds 1 + sqrt(4) to 3
        assert Surd.make(1, 1, 4) == Fraction(3) and not isinstance(Surd.make(1, 1, 4), Surd)
        with pytest.raises(TypeError):
            Surd(1, 1, 4)

    def test_make_folds_to_fraction(self):
        assert Surd.make(Fraction(1), Fraction(2), 9) == Fraction(7)

    def test_radicand_limit(self):
        assert Surd.make(0, 1, 2**MAX_RADICAND_BITS - 1).d.bit_length() <= MAX_RADICAND_BITS
        with pytest.raises(RadicandTooLarge, match=f"limit is {MAX_RADICAND_BITS} bits"):
            Surd.make(0, 1, 2**MAX_RADICAND_BITS + 1)
        with pytest.raises(RadicandTooLarge):
            parse_real("sqrt:100000000000000000000000000319:0:1:1")

    def test_squarefree_normalization(self):
        s = Surd.make(0, 1, 8)  # sqrt(8) = 2*sqrt(2)
        assert s.d == 2 and s.q == 2

    def test_arithmetic_within_field(self):
        a = Surd.make(1, 1, 2)
        b = Surd.make(-1, 2, 2)
        assert isinstance(a + b, Surd)
        assert (a + b).p == 0 and (a + b).q == 3
        # (1+sqrt2)(−1+2sqrt2) = −1 + 2·2 + (2−1)sqrt2 = 3 + sqrt2
        prod = a * b
        assert prod.p == 3 and prod.q == 1

    def test_cancellation_to_rational(self):
        a = Surd.make(1, 1, 2)
        assert a + Surd.make(1, -1, 2) == Fraction(2)

    def test_sign_and_compare(self):
        assert Surd.make(0, 1, 2).sign() == 1
        assert Surd.make(0, -1, 2).sign() == -1
        assert Surd.make(-1, 1, 2).sign() == 1     # sqrt2 > 1
        assert Surd.make(-2, 1, 2).sign() == -1    # sqrt2 < 2
        assert Surd.make(1, 1, 2) > Fraction(2)
        assert Surd.make(1, 1, 2) < Fraction(5, 2)

    def test_floor_small(self):
        assert Surd.make(0, 1, 2).floor() == 1
        assert Surd.make(0, -1, 2).floor() == -2
        assert Surd.make(0, 1, 5).floor() == 2

    def test_floor_huge_coefficients(self):
        # q ~ 2^200: floor takes isqrt of a 400-bit integer
        s = Surd.make(0, 2**200, 2)
        f = s.floor()
        assert real_cmp(s, Fraction(f)) >= 0
        assert real_cmp(s, Fraction(f + 1)) < 0

    def test_float_accuracy(self):
        assert abs(float(Surd.make(0, 1, 2)) - math.sqrt(2)) < 1e-14


@given(st.integers(-50, 50), st.integers(-50, 50).filter(lambda q: q != 0))
def test_surd_floor_agrees_with_float(p, q):
    s = Surd.make(p, q, 2)
    approx = p + q * math.sqrt(2)
    # float floor can be off only within rounding slack of an exact integer
    assert abs(s.floor() - math.floor(approx)) <= (abs(approx - round(approx)) < 1e-9)


int_pairs = st.tuples(st.integers(-60, 60), st.integers(-9, 9))


@given(int_pairs, int_pairs.filter(lambda p: p != (0, 0)), st.sampled_from((2, 3, 5)))
def test_floor_div_is_the_floor_of_the_quotient(x, y, d):
    # _floor_ratio floors the quotient X/Y of two integer pairs a + b*sqrt(d)
    # of one field, as the circle kernel's pairs do, without building a Surd:
    # q is the floor exactly when q*Y <= X < (q + 1)*Y for Y > 0, and
    # q*Y >= X > (q + 1)*Y for Y < 0, checked by exact comparisons
    q = _floor_ratio(*x, *y, d)
    big_x, big_y = Surd.make(*x, d), Surd.make(*y, d)
    if big_y > 0:
        assert q * big_y <= big_x < (q + 1) * big_y
    else:
        assert q * big_y >= big_x > (q + 1) * big_y


class TestParsing:
    def test_fraction_forms(self):
        assert parse_real("1/3") == Fraction(1, 3)
        assert parse_real("0.25") == Fraction(1, 4)
        assert parse_real("-2") == Fraction(-2)

    def test_surd_form(self):
        v = parse_real("sqrt:5:-1:1:2")  # (-1 + sqrt5)/2
        assert isinstance(v, Surd)
        assert v == golden_rotation().value

    def test_surd_form_rational_radicand_folds(self):
        assert parse_real("sqrt:9:0:1:1") == Fraction(3)

    def test_zero_denominator_is_a_value_error(self):
        for text in ("1/0", "-3/0", "sqrt:5:1:1:0"):
            with pytest.raises(ValueError):
                parse_real(text)


class TestTorusNorm:
    def test_rational(self):
        assert torus_norm1(Fraction(8034, 1000)) == Fraction(34, 1000)
        assert torus_norm1(Fraction(-1, 3)) == Fraction(1, 3)
        assert torus_norm1(Fraction(1, 2)) == Fraction(1, 2)
        assert torus_norm1(Fraction(7)) == 0

    def test_surd(self):
        # dist(sqrt2, Z) = sqrt2 - 1
        v = torus_norm1(Surd.make(0, 1, 2))
        assert isinstance(v, Surd) and v.p == -1 and v.q == 1

    @given(st.fractions(min_value=-100, max_value=100))
    def test_range_and_symmetry(self, x):
        n = torus_norm1(x)
        assert 0 <= n <= Fraction(1, 2)
        assert torus_norm1(-x) == n
        assert torus_norm1(x + 1) == n


APPROX = Approx(Fraction(1, 4), Fraction(1, 1000))
REFUSED = {
    "real_cmp approx": (real_cmp, APPROX, 0),
    "real_cmp approx second": (real_cmp, Fraction(1, 3), APPROX),
    "real_floor approx": (real_floor, APPROX),
    "real_frac approx": (real_frac, APPROX),
    "torus_norm1 approx": (torus_norm1, APPROX),
    "real_mul_int approx": (real_mul_int, APPROX, 3),
    "real_mul approx": (real_mul, APPROX, 2),
    "real_mul two fields": (real_mul, Surd.make(0, 1, 2), Surd.make(0, 1, 3)),
    "real_add approx": (real_add, APPROX, Fraction(1, 3)),
    "real_add approx second": (real_add, Fraction(1, 3), APPROX),
    "real_sub approx": (real_sub, APPROX, Fraction(1, 3)),
    "real_sub approx second": (real_sub, Surd.make(0, 1, 2), APPROX),
    "real_abs approx": (real_abs, APPROX),
    "real_sqrt approx": (real_sqrt, APPROX),
    "real_add two fields": (real_add, Surd.make(0, 1, 2), Surd.make(0, 1, 3)),
    "real_sub two fields": (real_sub, Surd.make(0, 1, 2), Surd.make(0, 1, 3)),
    "TorusPoint approx": (TorusPoint, APPROX),
    "as_real float": (as_real, 0.5),
    "TorusPoint float": (TorusPoint, 0.5),
    "real_floor float": (real_floor, 0.5),
    "real_cmp float": (real_cmp, 0.1, Fraction(1, 10)),
    "torus_norm1 float": (torus_norm1, 0.25),
}


@pytest.mark.parametrize("call", REFUSED.values(), ids=REFUSED)
def test_approx_and_floats_are_refused(call):
    # a TypeError, never a RecursionError from a fallback that calls itself
    fn, *args = call
    with pytest.raises(TypeError):
        fn(*args)


class TestComparisons:
    def test_cross_field_exact(self):
        with pytest.raises(TypeError):
            real_cmp(Surd.make(0, 1, 2), Surd.make(0, 1, 3))
        assert real_sum_sign([Surd.make(0, 1, 2), -Surd.make(0, 1, 3)]) < 0
        assert real_cmp(Surd.make(0, 2, 2), Surd.make(0, 1, 8)) == 0

    def test_sort_mixed_kinds(self):
        vals = [Surd.make(0, 1, 2), Fraction(1), Surd.make(0, 1, 3), Fraction(2)]
        ordered = sorted(vals, key=functools.cmp_to_key(lambda x, y: real_sum_sign([x, -y])))
        assert [real_to_float(v) for v in ordered] == sorted(real_to_float(v) for v in vals)


class TestArithmetic:
    def test_add_sub_mul_exact(self):
        a, b = Fraction(1, 3), Surd.make(0, 1, 2)
        s = real_add(a, b)
        assert isinstance(s, Surd) and s.p == Fraction(1, 3)
        assert real_eq(real_sub(s, b), a)
        assert real_mul(b, b) == Fraction(2)

    def test_mul_int(self):
        assert real_mul_int(Fraction(1, 3), 5) == Fraction(5, 3)
        t = real_mul_int(Surd.make(1, 1, 2), -2)
        assert t.p == -2 and t.q == -2

    def test_floor_frac(self):
        assert real_floor(Surd.make(0, 1, 2)) == 1
        assert real_frac(Fraction(7, 3)) == Fraction(1, 3)
        assert torus_norm1(Fraction(7, 5)) == Fraction(2, 5)
        assert torus_norm1(Surd.make(0, 1, 2)) == Surd.make(-1, 1, 2)

    def test_sqrt(self):
        assert real_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        v = real_sqrt(Fraction(2))
        assert isinstance(v, Surd) and v.d == 2
        v = real_sqrt(Fraction(1, 2))  # sqrt(1/2) = sqrt2 / 2
        assert isinstance(v, Surd) and real_eq(real_mul(v, v), Fraction(1, 2))

    def test_sqrt_past_the_radicand_limit_is_refused_not_factored(self):
        for x in (Fraction(2**89 - 1), Fraction(1, 2**89 - 1)):  # a Mersenne prime
            start = time.perf_counter()
            with pytest.raises(RadicandTooLarge):
                real_sqrt(x)
            assert time.perf_counter() - start < 1
        assert real_sqrt(Fraction(2**100, 9)) == Fraction(2**50, 3)  # squares stay exact


class TestTorusPoint:
    def test_reduction_mod_one(self):
        assert TorusPoint(Fraction(7, 3)).value == Fraction(1, 3)
        assert TorusPoint(Fraction(-1, 3)).value == Fraction(2, 3)

    def test_golden_is_conjugate_free(self):
        g = golden_rotation()
        # alpha satisfies alpha^2 + alpha - 1 = 0
        v = real_add(real_mul(g.value, g.value), g.value)
        assert v == Fraction(1)

    def test_sqrt2_point(self):
        s = sqrt2_rotation()
        assert real_eq(real_add(s.value, Fraction(1)), Surd.make(0, 1, 2))

    def test_multiple_norm_fibonacci_records(self):
        g = golden_rotation()
        n55 = torus_norm1(g.multiple(55))
        n89 = torus_norm1(g.multiple(89))
        assert real_cmp(n89, n55) < 0
        assert real_cmp(n55, Fraction(1, 89)) < 0  # convergent quality


@given(st.integers(-1000, 1000), st.integers(1, 60))
def test_rational_multiple_norm_matches_direct(p, q):
    pt = TorusPoint(Fraction(p, q))
    for n in (1, 2, 7):
        direct = abs(Fraction(p * n, q) - round(Fraction(p * n, q)))
        assert torus_norm1(pt.multiple(n)) == direct
