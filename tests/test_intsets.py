"""Integer-set core: normalization, generators, windowed predicates."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from reclab import intsets
from reclab.errors import EmptyInput, ListingBudgetExceeded, NonIntegerPolynomial, TooFewElements
from reclab.intsets import (
    Window,
    as_int_list,
    difference_set,
    gen_k_times_nr,
    gen_l_r,
    gen_polynomial,
    is_thick_window,
    l_r_layer,
    lacunarity_ratios,
    load_set_file,
    parse_set_text,
    poly_eval_int,
    syndetic_gap,
)


class TestWindow:
    def test_empty_when_lo_exceeds_hi(self):
        assert 1 not in Window(1, 0) and 0 not in Window(1, 0)

    def test_contains(self):
        assert 0 in Window(-3, 3) and 4 not in Window(-3, 3)


class TestDifferenceSet:
    def test_basic(self):
        assert tuple(difference_set([1, 2])) == (-1, 1)

    def test_zero_allowed_in_input(self):
        assert tuple(difference_set([0, 3, 6])) == (-6, -3, 3, 6)

    def test_windowed(self):
        d = difference_set([0, 3, 6, 9], window=Window(-4, 4))
        assert tuple(d) == (-3, 3)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            difference_set([])

    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=12))
    def test_symmetric(self, xs):
        d = set(difference_set(xs))
        assert all(-v in d for v in d)
        assert 0 not in d

    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=12), st.sampled_from([1, 1000, 10**6]))
    def test_bitset_and_pairs_agree(self, xs, scale):
        # more ordered pairs than the span take the bitset, fewer the pairs
        xs = [x * scale for x in xs]
        assert tuple(difference_set(xs)) == tuple(sorted({a - b for a in xs for b in xs if a != b}))

    def test_distinct_differences_of_a_long_run(self):
        # 4,000 consecutive integers: 15,996,000 ordered pairs, 7,998 differences
        d = difference_set(range(1, 4001))
        assert tuple(d) == tuple(range(-3999, 0)) + tuple(range(1, 4000))


class TestSyndeticGap:
    def test_consecutive_diffs(self):
        prof = syndetic_gap([3, 6, 9, 12], Window(1, 12))
        assert prof.max_gap == 3 and prof.gaps == (3, 3, 3)

    def test_singleton_degenerate(self):
        prof = syndetic_gap([5], Window(1, 10))
        assert prof.max_gap == 0 and prof.gaps == ()

    def test_one_sided(self):
        prof = syndetic_gap([-4, 2, 5], Window(-10, 10), side="one")
        assert prof.max_gap == 3  # positives only: {2, 5}


class TestThick:
    def test_run_present(self):
        s = [1, 2, 3, 10, 11, 12, 13]
        assert is_thick_window(s, 4, Window(1, 20))
        assert not is_thick_window(s, 5, Window(1, 20))


class TestGenerators:
    def test_k_times_nr(self):
        assert tuple(gen_k_times_nr(2, 3)) == (2, 4, 6)
        assert tuple(gen_k_times_nr(1, 1)) == (1,)

    def test_l_r_layers(self):
        # base step r+2, layer k = (r+2)^k * {1..r}
        assert tuple(gen_l_r(2, 2)) == (1, 2, 4, 8, 16, 32)
        assert tuple(l_r_layer(2, 1)) == (4, 8)
        assert tuple(l_r_layer(3, 0)) == (1, 2, 3)

    def test_l_r_cardinality(self):
        for r in (2, 3, 4):
            for k_max in (0, 1, 3):
                assert len(gen_l_r(r, k_max)) == r * (k_max + 1)

    def test_l_r_nesting(self):
        small = set(gen_l_r(3, 2))
        big = set(gen_l_r(3, 3))
        assert small < big

    def test_polynomial(self):
        assert tuple(gen_polynomial([1, 0, 1], 4)) == (2, 5, 10, 17)
        # zeros dropped: n^2 - 1 at n=1
        assert tuple(gen_polynomial([-1, 0, 1], 3)) == (3, 8)

    def test_polynomial_fractional_coeffs_ok_when_integral(self):
        # n(n+1)/2 is always integral
        assert tuple(gen_polynomial([Fraction(0), Fraction(1, 2), Fraction(1, 2)], 4)) == (1, 3, 6, 10)

    def test_polynomial_non_integer_rejected(self):
        with pytest.raises(NonIntegerPolynomial):
            gen_polynomial([Fraction(1, 2)], 3)

    def test_listings_are_increasing_nonzero_tuples(self):
        listings = [gen_k_times_nr(3, 5), gen_l_r(2, 2), l_r_layer(3, 1), gen_polynomial([6, -5, 1], 5)]
        # more ordered pairs than the span take the bitset, fewer the pairs
        diffs = [difference_set(range(-3, 30)), difference_set([0, 200, 400, 800])]
        for s in listings + diffs:
            assert type(s) is tuple and 0 not in s and all(a < b for a, b in zip(s, s[1:])), s
        for d in diffs:
            assert d == tuple(-v for v in reversed(d))
        # p(n) = (n - 2)(n - 3): two zeros, and p(1) = p(4)
        assert gen_polynomial([6, -5, 1], 5) == (2, 6)

    def test_poly_eval(self):
        assert poly_eval_int([Fraction(1), Fraction(0), Fraction(1)], 7) == 50


class TestListingCap:
    """Each listing is refused before its first element past HIT_CAP members
    or 64*HIT_CAP bits, and built in full at the cap."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(intsets, "HIT_CAP", 12)

    def test_difference_pairs(self):
        # 20 ordered pairs over a span of 15, and count * span = 75 within
        # 64*HIT_CAP: the bitset lists the 14 distinct differences
        assert len(difference_set([1, 2, 3, 4, 16])) == 14
        # a span of 1599, above the pairs: the ordered pairs, capped at HIT_CAP
        assert len(difference_set([1, 200, 400, 800])) == 12
        with pytest.raises(ListingBudgetExceeded):
            difference_set([1, 200, 400, 800, 1600])
        # the window applies first
        assert len(difference_set([1, 200, 400, 800, 1600], Window(1, 800))) == 12

    def test_k_times_nr(self):
        assert len(gen_k_times_nr(3, 12)) == 12
        with pytest.raises(ListingBudgetExceeded):
            gen_k_times_nr(3, 13)
        with pytest.raises(ListingBudgetExceeded):
            gen_k_times_nr(2**200, 4)  # 4 elements, over 768 bits

    def test_l_r(self, monkeypatch):
        assert len(gen_l_r(2, 5)) == 12
        with pytest.raises(ListingBudgetExceeded):
            gen_l_r(2, 6)
        # 3**k is bounded by 1 + 2*k bits: 70 elements, 4,900 bits > 64*70
        monkeypatch.setattr(intsets, "HIT_CAP", 70)
        assert len(gen_l_r(1, 60)) == 61
        with pytest.raises(ListingBudgetExceeded):
            gen_l_r(1, 69)

    def test_polynomial(self):
        assert len(gen_polynomial([0, 1], 12)) == 12
        with pytest.raises(ListingBudgetExceeded):
            gen_polynomial([0, 1], 13)
        with pytest.raises(ListingBudgetExceeded):
            gen_polynomial([2**100], 8)


class TestLacunarity:
    def test_exact_min_ratio(self):
        for r in (2, 3, 4):
            ratio, lac = lacunarity_ratios(gen_l_r(r, 3))
            assert lac and ratio == Fraction(r, r - 1)

    def test_needs_two(self):
        with pytest.raises(TooFewElements):
            lacunarity_ratios([7])

    def test_truncation_of_consecutive_integers_still_passes(self):
        # any finite increasing listing has min ratio > 1; the flag is
        # explicitly window-scale only
        ratio, lac = lacunarity_ratios([1, 2, 3, 4])
        assert lac and ratio == Fraction(4, 3)


class TestSetIO:
    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[3, 1, 2]\n")
        assert load_set_file(str(path)) == [3, 1, 2]

    def test_lines_roundtrip(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("5\n-2\n\n0\n")
        assert load_set_file(str(path)) == [5, -2, 0]

    def test_parse_auto_detect(self):
        assert parse_set_text("[1, 2, 3]") == [1, 2, 3]
        assert parse_set_text("1\n2\n-3\n") == [1, 2, -3]

    def test_as_int_list_keeps_zero(self):
        assert as_int_list([0, 2]) == [0, 2]
