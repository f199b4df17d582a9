"""Frequency sets, continued fractions, pruning witnesses, obstructions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reclab import bohr, intsets
from reclab.bohr import (
    BohrSpec,
    bohr_enumerate,
    bohr_membership,
    bohr_separation_search,
    continued_fraction,
    cyclic_obstruction,
    lacunary_witness,
    revalidate_witness,
    three_distance,
)
from reclab.errors import EmptyInput, ListingBudgetExceeded
from reclab.exactreal import (
    Surd,
    TorusPoint,
    golden_rotation,
    parse_real,
    real_cmp,
    real_to_float,
    sqrt2_rotation,
    torus_norm1,
)
from reclab.intsets import Window, gen_polynomial

from oracles import looping_obstruction


class TestSpec:
    def test_eps_bounds(self):
        with pytest.raises(ValueError):
            BohrSpec((golden_rotation(),), Fraction(0))
        with pytest.raises(ValueError):
            BohrSpec((golden_rotation(),), Fraction(2, 3))
        BohrSpec((golden_rotation(),), Fraction(1, 2))  # boundary allowed

    def test_needs_a_frequency(self):
        with pytest.raises(EmptyInput):
            BohrSpec((), Fraction(1, 4))


class TestMembership:
    def test_rational_exact(self):
        spec = BohrSpec((TorusPoint(Fraction(1, 3)),), Fraction(1, 10))
        assert bohr_membership(3, spec).member
        assert not bohr_membership(1, spec).member
        assert bohr_membership(3, spec).norm == 0

    def test_strictness_at_boundary(self):
        # dist(1 * 1/4) = 1/4 exactly: strict < means non-member
        spec = BohrSpec((TorusPoint(Fraction(1, 4)),), Fraction(1, 4))
        assert not bohr_membership(1, spec).member

    def test_golden_fibonacci_members(self):
        spec = BohrSpec((golden_rotation(),), Fraction(1, 20))
        for n in (13, 21, 34):
            assert bohr_membership(n, spec).member
        assert not bohr_membership(12, spec).member

    def test_two_dim_euclidean(self):
        spec = BohrSpec(
            (TorusPoint(Fraction(1, 4)), TorusPoint(Fraction(1, 3))), Fraction(3, 10)
        )
        # n=12: both coordinates land on 0 exactly
        assert bohr_membership(12, spec).member
        # n=1: norm = sqrt(1/16 + 1/9) > 0.3
        assert not bohr_membership(1, spec).member

    def test_mixed_field_2d(self):
        spec = BohrSpec((golden_rotation(), sqrt2_rotation()), Fraction(1, 4))
        m = bohr_membership(5, spec)
        assert isinstance(m.member, bool)  # decided exactly, no raise


class TestRecordTimes:
    def test_a_time_repeating_the_one_before_is_reduced_once(self, monkeypatch):
        floors = []
        floor_surd = bohr._floor_surd
        monkeypatch.setattr(bohr, "_floor_surd", lambda *args: floors.append(args) or floor_surd(*args))
        times = [7, 7, 7, 3, 3, 7, 2**200, 2**200]
        assert bohr.record_times([golden_rotation().value], times) == [7, 3]
        assert len(floors) == 4


class TestEnumerate:
    def test_thirds(self):
        spec = BohrSpec((TorusPoint(Fraction(1, 3)),), Fraction(1, 10))
        assert bohr_enumerate(spec, Window(1, 10)) == (3, 6, 9)

    def test_empty_window(self):
        spec = BohrSpec((TorusPoint(Fraction(1, 3)),), Fraction(1, 10))
        assert bohr_enumerate(spec, Window(1, 0)) == ()

    def test_rational_alpha_gives_multiples_of_q(self):
        spec = BohrSpec((TorusPoint(Fraction(2, 7)),), Fraction(1, 15))
        hits = bohr_enumerate(spec, Window(-30, 30))
        assert hits == tuple(n for n in range(-30, 31) if n % 7 == 0 and n != 0)

    def test_zero_skipped(self):
        spec = BohrSpec((golden_rotation(),), Fraction(1, 2))
        assert 0 not in bohr_enumerate(spec, Window(-3, 3))

    @given(st.integers(2, 40), st.integers(1, 39))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, q, p):
        spec = BohrSpec((TorusPoint(Fraction(p % q, q)),), Fraction(1, 7))
        hits = bohr_enumerate(spec, Window(-25, 25))
        assert tuple(sorted(-n for n in hits)) == hits


class TestContinuedFraction:
    def test_golden(self):
        cf = continued_fraction(golden_rotation(), depth=10)
        assert cf.quotients[0] == 0
        assert all(a == 1 for a in cf.quotients[1:])
        assert cf.denominators[:8] == (1, 1, 2, 3, 5, 8, 13, 21)
        assert not cf.terminated

    def test_sqrt2(self):
        cf = continued_fraction(sqrt2_rotation(), depth=6)
        assert cf.quotients == (0, 2, 2, 2, 2, 2, 2)
        assert cf.denominators == (1, 2, 5, 12, 29, 70, 169)

    def test_rational_terminates(self):
        cf = continued_fraction(TorusPoint(Fraction(7, 16)), depth=30)
        assert cf.terminated
        assert cf.convergents[-1] == Fraction(7, 16)

    def test_negative_depth_rejected(self):
        assert continued_fraction(golden_rotation(), depth=0).quotients == (0,)
        with pytest.raises(ValueError):
            continued_fraction(golden_rotation(), depth=-1)

    def test_bits_past_the_listing_cap_are_refused(self, monkeypatch):
        # sqrt(2^54 + 1) has every quotient 2^28: its kept p_j and q_j hold
        # 711 bits at depth 5 and 1,021 at depth 6, against 64 * 12 = 768
        monkeypatch.setattr(intsets, "HIT_CAP", 12)
        alpha = TorusPoint(parse_real(f"sqrt:{2**54 + 1}:0:1:1"))
        assert continued_fraction(alpha, depth=5).quotients == (0,) + (2**28,) * 5
        with pytest.raises(ListingBudgetExceeded, match="1021 bits exceeds the listing cap 768 bits"):
            continued_fraction(alpha, depth=6)

    def test_quality_holds_for_surd_input(self):
        # the constructor asserts dist(q_j alpha) < 1/q_{j+1} internally;
        # spot-check one pair here as well
        cf = continued_fraction(golden_rotation(), depth=12)
        q5, q6 = cf.denominators[5], cf.denominators[6]
        norm = torus_norm1(golden_rotation().multiple(q5))
        assert real_cmp(norm, Fraction(1, q6)) < 0


class TestThreeDistance:
    def test_golden_two_steps(self):
        res = three_distance(golden_rotation(), 2)
        gaps = [real_to_float(g) for g in res.gaps]
        assert len(gaps) == 3
        assert gaps[0] == pytest.approx(0.2360679, abs=1e-6)
        assert gaps[1] == gaps[2] == pytest.approx(0.3819660, abs=1e-6)

    def test_golden_four_steps_max_gap(self):
        res = three_distance(golden_rotation(), 4)
        assert real_to_float(res.gaps[-1]) == pytest.approx(0.2360679, abs=1e-6)

    def test_rational_collapses(self):
        res = three_distance(TorusPoint(Fraction(1, 4)), 7)
        assert [real_to_float(g) for g in res.distinct] == [0.25]

    @given(st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_at_most_three_distinct_golden(self, count):
        res = three_distance(golden_rotation(), count)
        assert 1 <= len(res.distinct) <= 3
        total = sum(real_to_float(g) for g in res.gaps)
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(st.integers(2, 50), st.integers(1, 49), st.integers(1, 30))
    @settings(max_examples=25, deadline=None)
    def test_at_most_three_distinct_rational(self, q, p, count):
        res = three_distance(TorusPoint(Fraction(p % q or 1, q)), count)
        assert 1 <= len(res.distinct) <= 3


DOUBLING = [2**k for k in range(21)]


class TestLacunaryWitness:
    def test_doubling_contains_one_third(self):
        w = lacunary_witness(DOUBLING, Fraction(3, 10))
        assert w.lo <= Fraction(1, 3) <= w.hi
        assert revalidate_witness(DOUBLING, Fraction(3, 10), w)

    def test_interval_property_exact(self):
        w = lacunary_witness(DOUBLING, Fraction(3, 10))
        for alpha in (w.lo, w.midpoint, w.hi):
            for n in DOUBLING:
                assert torus_norm1(Fraction(n) * alpha) >= Fraction(3, 10)

    def test_large_delta_not_found(self):
        assert lacunary_witness(DOUBLING[:6], Fraction(2, 5)) is None

    def test_consecutive_integers_not_found(self):
        assert lacunary_witness(list(range(1, 15)), Fraction(1, 10)) is None

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInput):
            lacunary_witness([], Fraction(1, 10))

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            lacunary_witness(DOUBLING, Fraction(1, 2))


class TestSeparation:
    def test_doubling_separated(self):
        spec = bohr_separation_search(DOUBLING, Fraction(1, 4))
        assert spec is not None
        # exact disjointness: every element stays eps away
        for n in DOUBLING:
            norm = torus_norm1(spec.alphas[0].multiple(n))
            assert real_cmp(norm, spec.eps) >= 0

    def test_dense_set_not_separable(self):
        # pigeonhole: 50 consecutive multiples force some dist below 1/51,
        # so eps = 1/40 is unattainable
        assert bohr_separation_search(list(range(1, 51)), Fraction(1, 40)) is None

    def test_dense_set_separable_below_pigeonhole(self):
        # at eps = 1/100 a frequency just above 1/100 clears all 50 stages;
        # the result is exact, so trust it over intuition
        spec = bohr_separation_search(list(range(1, 51)), Fraction(1, 100))
        assert spec is not None
        for n in range(1, 51):
            assert torus_norm1(spec.alphas[0].multiple(n)) >= Fraction(1, 100)


class TestCyclicObstruction:
    def test_shifted_squares(self):
        res = cyclic_obstruction(
            gen_polynomial([1, 0, 1], 100), 10, polynomial=[1, 0, 1]
        )
        assert res is not None
        assert res.modulus == 3 and res.absolute

    def test_plain_squares_unobstructed(self):
        res = cyclic_obstruction(gen_polynomial([0, 0, 1], 100), 10, polynomial=[0, 0, 1])
        assert res is None

    def test_truncation_relative_without_generator(self):
        # {1, 5, 7} misses 2Z, 3Z, 4Z... listing-level only
        res = cyclic_obstruction([1, 5, 7], 10)
        assert res.modulus == 2 and not res.absolute

    def test_shifted_squares_listing_only_still_finds_three(self):
        res = cyclic_obstruction(gen_polynomial([1, 0, 1], 100), 10)
        assert res.modulus == 3 and not res.absolute

    def test_fractional_generator_full_period(self):
        # n(n+1)/2 + 1 never hits 0 mod 3 (period check must scale by 2)
        tri = gen_polynomial([Fraction(1), Fraction(1, 2), Fraction(1, 2)], 60)
        res = cyclic_obstruction(tri, 8, polynomial=[Fraction(1), Fraction(1, 2), Fraction(1, 2)])
        assert res is not None and res.absolute

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-120, 120), min_size=1, max_size=20).filter(any),
        st.integers(2, 80),
        st.sampled_from([None, [1, 0, 1], [0, 1], [Fraction(1), Fraction(1, 2), Fraction(1, 2)]]),
        st.sampled_from([None, 5_000, 64 * intsets.HIT_CAP * 6 + 6]),
    )
    def test_matches_the_looping_reference(self, elems, m_max, polynomial, large):
        # small moduli test every element and large ones read the sieve; a
        # large element makes every modulus test every element
        if large:
            elems = [*elems, large]
        assert cyclic_obstruction(elems, m_max, polynomial) == looping_obstruction(elems, m_max, polynomial)

    def test_sieve_answers_a_dense_span_fast(self):
        # every m up to 10**5 divides an element: 10**10 modulus tests by the loop
        assert cyclic_obstruction(range(1, 100_001), 100_000) is None

    def test_small_set_with_a_large_element_builds_no_sieve(self, monkeypatch):
        # nine moduli testing two elements each, where a sieve would take 64 MB
        def refuse(size):
            raise AssertionError(f"bytearray({size}) built")

        monkeypatch.setattr(bohr, "bytearray", refuse, raising=False)
        assert cyclic_obstruction([2520, 63_999_999], 10) is None

    def test_sieve_past_the_budget_raises(self):
        # every m up to 10**5 is blocked; moduli up to 1280 test the 50,002
        # elements, later ones read the sieve's 64*10**6 // m bytes, and the
        # first of those, m = 1281, takes the charge past 64*10**6
        elems = [*range(50_000, 100_001), 64_000_000]
        with pytest.raises(ListingBudgetExceeded, match="64002516 divisibility tests exceed the listing cap 64000000"):
            cyclic_obstruction(elems, 100_000)

    def test_loop_past_the_budget_raises(self):
        # one element past 64 * HIT_CAP: each modulus tests all 100,001 elements
        elems = [*range(1, 100_001), 10**12]
        with pytest.raises(ListingBudgetExceeded, match="64000640 divisibility tests exceed the listing cap 64000000"):
            cyclic_obstruction(elems, 100_000)
