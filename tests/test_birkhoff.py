"""Distance-graph solver: verdicts, certificates, canonical ordering.

The reference oracle used by the property tests below is an independent
brute-force search over raw colorings, deliberately unrelated to the
solver's DSATUR machinery.
"""

import json
import random
import sys
from dataclasses import replace
from itertools import islice, product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from reclab.birkhoff import (
    PeriodicColoring,
    PeriodicWitness,
    SearchLimits,
    Status,
    WindowUnsat,
    certificate_from_json,
    certificate_to_json,
    check_r_birkhoff,
    chromatic_number_window,
    greedy_coloring,
    minimal_r_birkhoff_subset,
    proof_to_json,
    stably_r_birkhoff_probe,
    verify_certificate,
    VERIFY_NODE_CAP,
    _Budget,
    _CLIQUE_TRIES,
    _circulant_adjacency,
    _circulant_clique_exceeds,
    _cycle_witness,
    _greedy_cycle,
    _greedy_cycle_witness,
    _greedy_cliques,
    _least_rotation,
    _normalize_distances,
    _reference_window_colorable,
    _refutation,
    _window_adjacency,
)
from reclab import birkhoff, cli, intsets, report
from reclab.errors import InvalidArity, MalformedCertificate, VerificationBudgetExceeded
from reclab.intsets import gen_k_times_nr, gen_l_r
from reclab.report import FAIL, PASS, run_claim_suite

from oracles import in_first_use_order, quadratic_primitive_rotation, tuple_state_greedy_terms


def per_term_clash(elems, seq):
    """The least i at which term i of seq repeats the term one distance
    back (color 1 at positions <= 0), testing term by term."""
    dists = sorted(set(abs(e) for e in elems))
    for i in range(1, len(seq) + 1):
        for m in dists:
            earlier = seq[i - m - 1] if i - m >= 1 else 1
            if seq[i - 1] == earlier:
                return i
    return None


def window_r_colorable(dists, window, r):
    """The solver's window test: _refutation finds no obstruction."""
    adj = _window_adjacency(window, _normalize_distances(dists))
    return _refutation(adj, r, _Budget(10_000_000)) is None


def brute_window_colorable(dists, window, r):
    """Plain enumeration over all r^window colorings."""
    for colors in product(range(r), repeat=window):
        if all(
            colors[i] != colors[i + m]
            for m in dists
            for i in range(window - m)
        ):
            return True
    return False


def brute_periodic_witness_exists(dists, r, p_max):
    for p in range(1, p_max + 1):
        if any(m % p == 0 for m in dists):
            continue
        for colors in product(range(1, r + 1), repeat=p):
            if all(
                colors[j] != colors[(j + m) % p] for m in dists for j in range(p)
            ):
                return True
    return False


class TestFrozenVerdicts:
    def test_evens_at_three_unsat(self):
        v = check_r_birkhoff([2, 4, 6], 3)
        assert v.status is Status.R_BIRKHOFF
        assert v.certificate == WindowUnsat(window=7, arity=3)

    def test_evens_at_four_witness(self):
        v = check_r_birkhoff([2, 4, 6], 4)
        assert v.status is Status.NOT_R_BIRKHOFF
        assert v.certificate == PeriodicWitness(
            PeriodicColoring(8, (1, 1, 2, 2, 3, 3, 4, 4))
        )

    def test_doubling_family_at_three(self):
        v = check_r_birkhoff(gen_l_r(2, 2), 3)
        assert v.certificate == PeriodicWitness(PeriodicColoring(3, (1, 2, 3)))

    def test_doubling_family_at_two(self):
        v = check_r_birkhoff(gen_l_r(2, 2), 2)
        assert v.status is Status.R_BIRKHOFF
        assert v.certificate == WindowUnsat(window=3, arity=2)

    def test_negative_elements_fold_to_distances(self):
        assert check_r_birkhoff([-1], 1).status is Status.R_BIRKHOFF

    def test_invalid_arity(self):
        with pytest.raises(InvalidArity):
            check_r_birkhoff([1], 0)


class TestCertificates:
    def test_verify_frozen_examples(self):
        assert verify_certificate(
            [2, 4, 6], 4, PeriodicWitness(PeriodicColoring(8, (1, 1, 2, 2, 3, 3, 4, 4)))
        )
        # period divides a distance: every residue self-conflicts
        assert not verify_certificate(
            [3], 2, PeriodicWitness(PeriodicColoring(3, (1, 2, 1)))
        )
        assert verify_certificate([1], 1, WindowUnsat(window=2, arity=1))

    def test_verify_rejects_wrong_arity_window_cert(self):
        with pytest.raises(MalformedCertificate):
            verify_certificate([1], 2, WindowUnsat(window=2, arity=1))

    def test_json_roundtrip(self):
        certs = [
            WindowUnsat(window=7, arity=3),
            PeriodicWitness(PeriodicColoring(3, (1, 2, 3))),
        ]
        for cert in certs:
            assert certificate_from_json(certificate_to_json(cert)) == cert

    def test_malformed_json(self):
        with pytest.raises(MalformedCertificate):
            certificate_from_json({"type": "periodic", "period": 2})
        with pytest.raises(MalformedCertificate):
            certificate_from_json({"type": "nonsense"})

    def test_out_of_range_colors_invalid(self):
        c = PeriodicColoring(2, (1, 5))
        assert not c.is_valid_for((1,), 4)


class TestCanonicality:
    def test_smallest_period_then_first_use_colors(self):
        # {3}: smallest valid period is 2 (3 % 2 != 0), its colors named
        # in order of first use are (1,2)
        v = check_r_birkhoff([3], 2)
        assert v.certificate == PeriodicWitness(PeriodicColoring(2, (1, 2)))

    def test_least_window_reported(self):
        # {1,2} needs 3 colors; K_3 appears at window 3 exactly
        v = check_r_birkhoff([1, 2], 2)
        assert v.certificate == WindowUnsat(window=3, arity=2)

    def test_identity_witness_for_layered_family(self):
        for r in (2, 3):
            v = check_r_birkhoff(gen_l_r(r, 3), r + 1)
            assert v.certificate == PeriodicWitness(
                PeriodicColoring(r + 1, tuple(range(1, r + 2)))
            )


def random_draw():
    """600 (distances, arity) pairs: 3 to 6 distances from 1..60, arity 2 to 4."""
    rng = random.Random(7)
    return [(sorted(rng.sample(range(1, 61), rng.randint(3, 6))), rng.randint(2, 4)) for _ in range(600)]


class TestRandomDraw:
    def test_every_pair_decided_within_the_node_total(self):
        nodes = 0
        for dists, r in random_draw():
            v = check_r_birkhoff(dists, r)
            assert v.status is not Status.UNDECIDED
            assert verify_certificate(dists, r, v.certificate)
            if isinstance(v.certificate, PeriodicWitness):
                assert in_first_use_order(v.certificate.coloring.colors)
            nodes += v.stats.nodes
        assert nodes <= 150_000

    @pytest.mark.parametrize(
        "dists, period, nodes",
        [
            # a lex-least witness search spent the default budget of 2,000,000
            # nodes on each of these and left it UNDECIDED
            ([23, 32, 38, 39, 45], 62, 965),
            ([23, 27, 44, 46, 57], 69, 1375),
            ([8, 15, 31, 41, 53], 68, 2817),
            ([10, 29, 36, 56, 57, 58], 87, 1052),
            ([16, 22, 26, 46, 54], 69, 892),
            ([6, 16, 18, 35, 48], 83, 2936),
        ],
    )
    def test_the_witness_is_the_colorability_search_coloring(self, dists, period, nodes):
        v = check_r_birkhoff(dists, 3)
        assert v.status is Status.NOT_R_BIRKHOFF
        assert (v.certificate.coloring.period, v.stats.nodes) == (period, nodes)
        assert in_first_use_order(v.certificate.coloring.colors)


class TestGreedy:
    def test_alternating(self):
        assert greedy_coloring([1], 6).sequence == (2, 1, 2, 1, 2, 1)

    def test_two_distances(self):
        assert greedy_coloring([1, 2], 8).sequence == (2, 3, 1, 2, 3, 1, 2, 3)

    def test_cycle_detection_and_canonical_rotation(self):
        run = greedy_coloring([2, 4, 6], 40)
        assert run.period == 8
        assert run.cycle == (1, 1, 2, 2, 3, 3, 4, 4)

    def test_cycle_is_always_a_witness(self):
        run = greedy_coloring([2, 4, 6], 40)
        assert run.witness([2, 4, 6], 4) is not None

    @given(
        st.sets(st.integers(1, 25), min_size=1, max_size=4).map(sorted),
    )
    @settings(max_examples=40, deadline=None)
    def test_greedy_avoids_all_distances(self, dists):
        n = 6 * max(dists)
        seq = greedy_coloring(dists, n).sequence
        for i in range(1, n + 1):
            for m in dists:
                earlier = seq[i - m - 1] if i - m >= 1 else 1
                assert seq[i - 1] != earlier
        # palette bound: at most len+1 colors ever needed
        assert max(seq) <= len(dists) + 1

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=12),
        st.integers(1, 5),
        st.lists(st.integers(1, 4), max_size=3),
    )
    @example([1, 2, 1, 2, 2], 3, [])
    @example([2, 1], 1, [2, 2, 1])
    @settings(max_examples=300, deadline=None)
    def test_least_rotation_matches_the_quadratic_search(self, base, repeats, tail):
        # base * repeats has a period dividing len(base); the tail may break it
        cycle = tuple(base * repeats + tail)
        assert _least_rotation(cycle) == min(cycle[i:] + cycle[:i] for i in range(len(cycle)))

    @given(st.sets(st.integers(1, 60), min_size=1, max_size=6).map(sorted))
    @example([1])
    @example([2, 4, 6])
    @example([10, 11, 14, 24, 29, 39])
    @settings(max_examples=200, deadline=None)
    def test_the_greedy_cycle_is_primitive(self, dists):
        # the cycle closes at the first repeated state, and a state fixes
        # every later term: a shorter period would have repeated one sooner
        _, cycle = _greedy_cycle(dists, 20_000)
        if cycle is not None:
            assert len(quadratic_primitive_rotation(cycle)) == len(cycle)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_tuple_state_generator(self, data):
        dists = sorted(data.draw(st.sets(st.integers(1, 80), min_size=1, max_size=7)))
        reference = list(islice(tuple_state_greedy_terms(dists), 1500))
        closes = next((i for i, (_, cycle) in enumerate(reference, 1) if cycle is not None), None)
        sizes = [st.integers(1, 1500)]
        if closes is not None:
            sizes.append(st.sampled_from([n for n in (closes - 1, closes) if n >= 1]))
        n = data.draw(st.one_of(sizes))
        run, cycle = greedy_coloring(dists, n), reference[n - 1][1]
        assert run.sequence == tuple(c for c, _ in reference[:n])
        assert (run.period, run.cycle) == (None if cycle is None else len(cycle), cycle)
        arity = data.draw(st.integers(1, len(dists) + 1))
        want = None if cycle is None else _cycle_witness(cycle, dists, arity)
        assert run.witness(dists, arity) == want

    @given(st.sets(st.integers(1, 80), min_size=1, max_size=7).map(sorted), st.integers(0, 10**5))
    @example([5, 17, 23, 41, 50], 10**5)
    @settings(max_examples=10, deadline=None)
    def test_matches_the_tuple_state_generator_past_the_cycle(self, dists, extra):
        # terms past the closing one are copied as whole periods
        closes = next(
            (i for i, (_, cycle) in enumerate(islice(tuple_state_greedy_terms(dists), 5000), 1) if cycle), None
        )
        if closes is None:
            return
        reference = list(islice(tuple_state_greedy_terms(dists), closes + extra))
        run = greedy_coloring(dists, closes + extra)
        assert run.sequence == tuple(c for c, _ in reference)
        assert run.cycle == reference[-1][1] and run.period == len(run.cycle)

    def test_fallback_witness_matches_the_tuple_state_generator(self):
        dists = [10, 11, 14, 24, 29, 39]
        cycle = next(cycle for _, cycle in tuple_state_greedy_terms(dists) if cycle is not None)
        got = _greedy_cycle_witness(dists, 7, _Budget(intsets.HIT_CAP))
        assert got == _cycle_witness(cycle, dists, 7)
        assert got.period == 49 and got.is_valid_for(dists, 7)


class TestAgainstBruteForce:
    @given(
        st.sets(st.integers(1, 6), min_size=1, max_size=3).map(sorted),
        st.integers(1, 3),
        st.integers(2, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_colorability_matches(self, dists, r, window):
        assert window_r_colorable(dists, window, r) == brute_window_colorable(
            dists, window, r
        )

    @given(
        st.sets(st.integers(1, 7), min_size=1, max_size=3).map(sorted),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_verdicts_are_sound(self, dists, r):
        v = check_r_birkhoff(dists, r)
        if v.status is Status.R_BIRKHOFF:
            cert = v.certificate
            assert isinstance(cert, WindowUnsat)
            assert not brute_window_colorable(dists, cert.window, r)
        elif v.status is Status.NOT_R_BIRKHOFF:
            cert = v.certificate
            assert cert.coloring.is_valid_for(tuple(dists), r)

    @given(
        st.sets(st.integers(1, 7), min_size=1, max_size=3).map(sorted),
        st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_verdicts_are_complete_at_small_scale(self, dists, r):
        # at these sizes the default limits always decide
        v = check_r_birkhoff(dists, r)
        assert v.status is not Status.UNDECIDED
        witness_exists = brute_periodic_witness_exists(dists, r, 2 * max(dists) + 1)
        assert (v.status is Status.NOT_R_BIRKHOFF) == witness_exists


class TestMonotonicity:
    @given(st.sets(st.integers(1, 10), min_size=2, max_size=4).map(sorted))
    @settings(max_examples=20, deadline=None)
    def test_superset_keeps_positive_verdict(self, dists):
        sub = dists[:-1]
        v_sub = check_r_birkhoff(sub, 2)
        v_full = check_r_birkhoff(dists, 2)
        if v_sub.status is Status.R_BIRKHOFF:
            assert v_full.status is Status.R_BIRKHOFF

    @given(st.sets(st.integers(1, 10), min_size=1, max_size=3).map(sorted))
    @settings(max_examples=20, deadline=None)
    def test_arity_monotone(self, dists):
        v_high = check_r_birkhoff(dists, 3)
        v_low = check_r_birkhoff(dists, 2)
        if v_high.status is Status.R_BIRKHOFF:
            assert v_low.status is Status.R_BIRKHOFF


class TestBudgets:
    def test_starved_budget_goes_undecided(self):
        # the DSATUR greedy fails on window 7, and the exact search that
        # refutes it needs 4 nodes; r <= |M| leaves no fallback
        limits = SearchLimits(node_budget=1)
        v = check_r_birkhoff([1, 2, 4, 6], 3, limits)
        assert v.status is Status.UNDECIDED
        assert v.certificate is None
        assert v.stats.budget_exhausted

    def test_fallback_witness_when_period_cap_blocks(self):
        # max_period below every valid period forces the greedy cycle lane
        limits = SearchLimits(max_window=4, max_period=1, node_budget=100_000)
        v = check_r_birkhoff([1], 2, limits)
        assert v.status is Status.NOT_R_BIRKHOFF
        assert v.stats.fallback_used
        assert v.certificate.coloring.is_valid_for((1,), 2)

    def test_exhausted_budget_falls_back_when_arity_exceeds_cardinality(self):
        # this set needs 2,182 nodes, mostly in small circulants; r > |M|
        # guarantees a witness and the greedy cycle has period 49
        dists = [10, 11, 14, 24, 29, 39]
        v = check_r_birkhoff(dists, 7, SearchLimits(node_budget=1_000))
        assert v.status is Status.NOT_R_BIRKHOFF
        assert v.stats.budget_exhausted and v.stats.fallback_used
        assert v.stats.nodes > 1_000
        assert v.certificate.coloring.period == 49
        assert verify_certificate(dists, 7, v.certificate)

    @pytest.mark.parametrize(
        "limits, status, stats",
        [
            # the search runs out, and the fallback gets its own allowance
            (SearchLimits(node_budget=1_000), Status.NOT_R_BIRKHOFF, (1089, 0, 2, True, True)),
            # the search ends honestly, and the fallback needs 88 terms
            (SearchLimits(max_window=4, max_period=1, node_budget=87), Status.UNDECIDED, (88, 0, 0, False, False)),
            (SearchLimits(max_window=4, max_period=1, node_budget=88), Status.NOT_R_BIRKHOFF, (88, 0, 0, False, True)),
        ],
    )
    def test_starved_fallback_keeps_its_verdict_and_stats(self, limits, status, stats):
        v = check_r_birkhoff([10, 11, 14, 24, 29, 39], 7, limits)
        assert v.status is status
        s = v.stats
        assert (s.nodes, s.windows_tried, s.periods_tried, s.budget_exhausted, s.fallback_used) == stats

    def test_cardinality_claim_passes_at_the_seed_that_exhausts_the_budget(self, capsys):
        # the claim draws {10, 11, 14, 24, 29, 39} at arity 7 at this seed
        args = ["--seed", "1008302064", "report", "paper-claims", "--only", "cardinality-ceiling"]
        assert cli.main(args) == 0
        claim = json.loads(capsys.readouterr().out)["result"]["claims"][0]
        assert claim["claim"] == "cardinality-ceiling" and claim["status"] == PASS


class TestSchedule:
    def test_no_window_is_built_past_the_cardinality(self, monkeypatch):
        # at r > |M| every new vertex extends a window's coloring in place
        def no_windows(dists):
            raise AssertionError("window built")
            yield

        monkeypatch.setattr(birkhoff, "_windows", no_windows)
        v = check_r_birkhoff([10, 11, 14, 24, 29, 39], 7)
        assert v.certificate.coloring.period == 17
        assert (v.stats.nodes, v.stats.windows_tried, v.stats.periods_tried) == (2182, 0, 4)

    @given(
        st.sets(st.integers(1, 30), min_size=1, max_size=5).map(sorted),
        st.integers(1, 5),
        st.sampled_from([None, 0, 9, 40]),
        st.sampled_from([None, 0, 3, 25]),
    )
    @settings(max_examples=80, deadline=None)
    def test_period_p_is_tried_right_after_window_2p(self, dists, r, max_window, max_period):
        built, tried = [], []  # window sizes as built; (period, window size then)
        windows, witness = birkhoff._windows, birkhoff._circulant_witness

        def counted_windows(dists):
            for adj in windows(dists):
                built.append(len(adj))
                yield adj

        def recorded_witness(dists, p, r, budget):
            tried.append((p, built[-1] if built else 0))
            return witness(dists, p, r, budget)

        limits = SearchLimits(max_window=max_window, max_period=max_period, node_budget=20_000)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(birkhoff, "_windows", counted_windows)
            mp.setattr(birkhoff, "_circulant_witness", recorded_witness)
            v = check_r_birkhoff(dists, r, limits)
        top = v.stats.limits["max_window"] if r <= len(dists) else 0
        assert v.stats.windows_tried == (built[-1] if built else 0) <= top
        assert [p for p, _ in tried] == sorted({p for p, _ in tried})
        for p, window in tried:
            assert window == (min(2 * p, top) if top else 0)

    def test_the_slowest_trade_off_case_stays_decided(self):
        # its witness has period 78, so windows 79..156 are searched first;
        # they are hard to color, and the search still decides in budget
        v = check_r_birkhoff([1, 2, 24, 34, 39, 47], 4)
        assert v.status is Status.NOT_R_BIRKHOFF
        assert verify_certificate([1, 2, 24, 34, 39, 47], 4, v.certificate)


class TestMinimalSubset:
    def test_evens_minimal_core(self):
        res = minimal_r_birkhoff_subset([2, 4, 6], 2)
        assert res.status is Status.R_BIRKHOFF
        # ascending greedy removes 2 first; {4,6} stays 2-Birkhoff via the
        # odd cycle 0-4-8-12-6-0
        assert tuple(res.subset) == (4, 6)
        assert res.removed == (2,)
        # and the survivor really is minimal here: neither singleton works
        assert check_r_birkhoff([4], 2).status is Status.NOT_R_BIRKHOFF
        assert check_r_birkhoff([6], 2).status is Status.NOT_R_BIRKHOFF

    def test_not_birkhoff_passthrough(self):
        res = minimal_r_birkhoff_subset([5], 2)
        assert res.status is Status.NOT_R_BIRKHOFF
        assert res.removed == ()


class TestStableProbe:
    def test_layer_shortcut_used(self):
        res = stably_r_birkhoff_probe(2, removed=gen_l_r(2, 0), k_max=2)
        assert res.verdict.status is Status.R_BIRKHOFF
        assert res.strategy == "layer_shortcut"
        assert res.layer_used == 1

    def test_direct_when_arity_exceeds_family(self):
        res = stably_r_birkhoff_probe(2, k_max=3, arity=3)
        assert res.strategy == "direct"
        assert res.verdict.status is Status.NOT_R_BIRKHOFF

    def test_empty_layer_zero_removal(self):
        res = stably_r_birkhoff_probe(3, k_max=0)
        assert res.verdict.status is Status.R_BIRKHOFF


class TestChromatic:
    def test_path_graph(self):
        b = chromatic_number_window([1], 10)
        assert (b.lower, b.upper, b.exact) == (2, 2, True)

    def test_evens_window_seven(self):
        b = chromatic_number_window([2, 4, 6], 7)
        assert (b.lower, b.upper) == (4, 4)

    def test_triangle(self):
        b = chromatic_number_window([1, 2], 9)
        assert (b.lower, b.upper) == (3, 3)

    def test_bracket_under_starvation(self):
        # this instance needs real search nodes (187 unrestricted), so a
        # 5-node budget must widen to a bracket instead of erroring
        b = chromatic_number_window([1, 4, 9, 16, 25], 45, SearchLimits(node_budget=5))
        assert not b.exact
        assert b.lower <= b.upper
        full = chromatic_number_window([1, 4, 9, 16, 25], 45)
        assert full.exact and b.lower <= full.lower <= b.upper


    def test_window_above_the_node_cap_is_refused_before_it_is_built(self):
        with pytest.raises(VerificationBudgetExceeded, match="exceeds the node cap"):
            chromatic_number_window([1, 2], VERIFY_NODE_CAP + 1)


class TestResidueCliqueBound:
    """The circulant clique bound on residue masks against _greedy_cliques
    on the circulant graph built in full."""

    @given(st.sets(st.integers(1, 300), min_size=1, max_size=7).map(sorted), st.integers(1, 6))
    @example([1, 3], 1)  # p = 2: the step 1 is its own inverse
    @example([5, 12], 2)  # p = 10: so is 5
    @settings(max_examples=15, deadline=None)
    def test_matches_the_greedy_cliques_of_the_graph(self, dists, r):
        for p in range(1, 2 * dists[-1] + 2):
            if any(m % p == 0 for m in dists):
                continue
            cliques = _greedy_cliques(_circulant_adjacency(p, dists), range(p)[:_CLIQUE_TRIES])
            assert _circulant_clique_exceeds(p, dists, r) == any(len(c) > r for c in cliques), p


@st.composite
def three_distance_sets(draw):
    """3-sets from 1..30, half of them of the two 4-chromatic shapes {1, 2, 3n}
    and {a, b, a + b} (a = b mod 3 included), times a common factor."""
    if draw(st.booleans()):
        return sorted(draw(st.sets(st.integers(1, 30), min_size=3, max_size=3)))
    if draw(st.booleans()):
        base = (1, 2, 3 * draw(st.integers(1, 10)))
    else:
        a = draw(st.integers(1, 29))
        b = draw(st.integers(1, 30 - a).filter(lambda b: b != a))
        base = (a, b, a + b)
    g = draw(st.integers(1, 30 // max(base)))
    return sorted(g * x for x in base)


class TestClosedForms:
    """Verdicts against the chromatic numbers of distance graphs on Z known
    in closed form, each certificate verified."""

    @given(st.sets(st.integers(1, 100), min_size=2, max_size=2).map(sorted))
    @settings(max_examples=60, deadline=None)
    def test_two_distances(self, dists):
        # Eggleton, Erdos and Skilton (JCTB 1985): G(Z, {a, b}) is
        # 2-chromatic when a/g and b/g are both odd, 3-chromatic otherwise
        a, b = (m // gcd(*dists) for m in dists)
        verdict = check_r_birkhoff(dists, 2)
        assert verdict.status is (Status.NOT_R_BIRKHOFF if a % 2 and b % 2 else Status.R_BIRKHOFF)
        assert verify_certificate(dists, 2, verdict.certificate)

    @given(three_distance_sets())
    @example([1, 2, 3])
    @example([1, 4, 5])  # {a, b, a + b} with a = b mod 3: 3-colorable
    @settings(max_examples=200, deadline=None)
    def test_three_distances(self, dists):
        # Chen, Chang and Huang (JGT 1997), Zhu (JGT 2002): after dividing
        # by the gcd, G(Z, {a, b, c}) is 4-chromatic exactly for {1, 2, 3n}
        # and for {a, b, a + b} with a != b mod 3, else at most 3-chromatic
        a, b, c = (m // gcd(*dists) for m in dists)
        four = (a, b) == (1, 2) and c % 3 == 0 or (a + b == c and (a - b) % 3 != 0)
        verdict = check_r_birkhoff(dists, 3)
        assert verdict.status is (Status.R_BIRKHOFF if four else Status.NOT_R_BIRKHOFF)
        assert verify_certificate(dists, 3, verdict.certificate)


class TestPigeonholeSweep:
    def test_windows_match_bound(self):
        for k in (1, 2, 3):
            for r in (1, 2, 3, 4):
                v = check_r_birkhoff(gen_k_times_nr(k, r), r)
                assert v.status is Status.R_BIRKHOFF
                assert v.certificate.window <= k * r + 1


def with_proof(cert, **changes):
    """cert with its proof, edited field by field, through the file format."""
    doc = certificate_to_json(cert)
    doc["proof"] = {**proof_to_json(cert), **changes}
    return certificate_from_json(doc)


class TestRefutationReplay:
    # (1, 3, 4) at arity 3 is refuted by a DSATUR search tree; (2, 4, 6) by
    # the greedy clique {0, 2, 4, 6}, written as its four vertices
    DSATUR_CASE = ((1, 3, 4), 3)
    CLIQUE_CASE = ((2, 4, 6), 3)
    # the same two refutations as trees that try every color at every node,
    # not only those up to 1 + the largest on the path
    UNBROKEN_TREES = {
        DSATUR_CASE: [1, *[2, *[5, 4, 0, 3, 6] * 2] * 3],
        CLIQUE_CASE: [0, *[2, 4, 6, 4, 6] * 3],
    }

    @given(
        st.sets(st.integers(1, 9), min_size=1, max_size=4).map(sorted),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_solver_proof_replays_and_reference_agrees(self, dists, r):
        v = check_r_birkhoff(dists, r)
        if v.status is not Status.R_BIRKHOFF:
            return
        cert = v.certificate
        assert cert.proof is not None
        assert verify_certificate(dists, r, cert)
        assert verify_certificate(dists, r, with_proof(cert))
        assert not _reference_window_colorable(tuple(dists), cert.window, r, 10**7)

    def test_clique_tree_layout(self):
        # clique vertex i has colors 1..i blocked and may take only i + 1
        cert = check_r_birkhoff(*self.CLIQUE_CASE).certificate
        assert proof_to_json(cert) == {"distances": [2, 4, 6], "vertices": [0, 2, 4, 6]}

    @pytest.mark.parametrize("case", [DSATUR_CASE, CLIQUE_CASE])
    def test_corruptions_rejected(self, case):
        dists, r = case
        cert = check_r_birkhoff(dists, r).certificate
        vertices = proof_to_json(cert)["vertices"]
        assert verify_certificate(dists, r, with_proof(cert))
        corrupt = [
            with_proof(cert, vertices=vertices[:-1]),  # truncated
            with_proof(cert, vertices=vertices + [vertices[-1]]),  # trailing entry
            with_proof(cert, vertices=vertices[:-1] + [cert.window]),  # out of range
            with_proof(cert, vertices=[vertices[0], vertices[0]] + vertices[2:]),  # repeated on path
            with_proof(cert, distances=[*dists, 5]),  # D not within the query
            replace(cert, window=cert.window - 1),  # the proof does not fit a smaller window
            replace(cert, arity=r + 1),  # built for r colors, claimed for r + 1
            replace(cert, proof=b""),  # no header
            with_proof(cert, vertices=self.UNBROKEN_TREES[case]),  # branches past 1 + the path's largest color
        ]
        for bad in corrupt:
            assert not verify_certificate(dists, bad.arity, bad)
        # a query that lacks one of D's distances
        assert not verify_certificate(dists[:-1], r, cert)
        with pytest.raises(MalformedCertificate):
            verify_certificate(dists, r + 1, cert)

    def test_file_proof_hardening(self, monkeypatch):
        cert = check_r_birkhoff(*self.CLIQUE_CASE).certificate
        doc = {**certificate_to_json(cert), "proof": proof_to_json(cert)}
        monkeypatch.setattr(birkhoff, "VERIFY_NODE_CAP", 7)
        assert certificate_from_json(doc).proof is not None  # 3 + 4 entries
        monkeypatch.setattr(birkhoff, "VERIFY_NODE_CAP", 6)
        with pytest.raises(MalformedCertificate):
            certificate_from_json(doc)
        monkeypatch.undo()
        for bad in (1.0, "2", True, -1, 2**40, None):
            doc["proof"] = {"distances": [2, 4, 6], "vertices": [0, 2, bad]}
            with pytest.raises(MalformedCertificate):
                certificate_from_json(doc)
        doc["proof"] = [0, 2, 4]
        with pytest.raises(MalformedCertificate):
            certificate_from_json(doc)

    def test_huge_bare_window_refused_at_once(self):
        with pytest.raises(VerificationBudgetExceeded):
            verify_certificate([2, 4, 6], 3, WindowUnsat(window=10**12, arity=3))
        # up to 4 * max M a bare certificate is still re-searched
        assert verify_certificate([2, 4, 6], 3, WindowUnsat(window=24, arity=3))
        with pytest.raises(VerificationBudgetExceeded):
            verify_certificate([2, 4, 6], 3, WindowUnsat(window=25, arity=3))

    def test_clique_proof_is_its_r_plus_one_vertices(self):
        # K_12 refutes 11 colors; without the color rule its tree would
        # hold floor(e * 11!) nodes
        v = check_r_birkhoff(range(1, 12), 11)
        assert v.certificate == WindowUnsat(window=12, arity=11)
        assert proof_to_json(v.certificate)["vertices"] == list(range(12))
        assert verify_certificate(range(1, 12), 11, v.certificate, node_cap=1000)
        assert verify_certificate(range(1, 12), 11, with_proof(v.certificate), node_cap=1000)
        # the boolean callers meet K_11 at every arity up to 11 at once too
        b = chromatic_number_window(range(1, 11), 11)
        assert (b.lower, b.upper, b.exact) == (11, 11, True)
        assert not window_r_colorable(range(1, 11), 11, 10)

    def test_bare_window_above_the_node_cap_builds_no_graph(self, monkeypatch):
        def no_graph(*args):
            raise AssertionError("window graph built")

        monkeypatch.setattr(birkhoff, "_window_adjacency", no_graph)
        with pytest.raises(VerificationBudgetExceeded):
            verify_certificate([2, 200_000], 2, WindowUnsat(window=800_000, arity=2), node_cap=1000)

    def test_periodic_witness_above_the_node_cap_checks_no_residue(self, monkeypatch):
        def no_residues(*args):
            raise AssertionError("residues checked")

        coloring = PeriodicColoring(period=1001, colors=(1, 2) * 500 + (1,))
        monkeypatch.setattr(PeriodicColoring, "is_valid_for", no_residues)
        with pytest.raises(VerificationBudgetExceeded, match="period 1001"):
            verify_certificate([1], 2, PeriodicWitness(coloring), node_cap=1000)

    def test_periodic_witness_up_to_the_node_cap_is_checked(self):
        alternating = PeriodicWitness(PeriodicColoring(period=1000, colors=(1, 2) * 500))
        assert verify_certificate([1, 3], 2, alternating, node_cap=1000)
        assert not verify_certificate([2], 2, alternating, node_cap=1000)

    def test_windows_extend_one_coloring(self, monkeypatch):
        # windows 1..6000 extend one 2-coloring vertex by vertex; only at
        # 6001, where vertex 6000 finds both colors blocked, is a window
        # searched, and that one is refuted (no periods: they search too)
        searched = []
        refutation = birkhoff._refutation
        monkeypatch.setattr(birkhoff, "_refutation", lambda adj, *a: searched.append(len(adj)) or refutation(adj, *a))
        v = check_r_birkhoff([1, 6000], 2, SearchLimits(max_period=0))
        assert searched == [6001]
        assert v.certificate == WindowUnsat(window=6001, arity=2)
        assert verify_certificate([1, 6000], 2, v.certificate)

    def test_layer_certificate_verifies_for_the_truncation(self):
        res = stably_r_birkhoff_probe(2, removed=gen_l_r(2, 0), k_max=2)
        assert res.strategy == "layer_shortcut"
        cert = res.verdict.certificate
        proof_dists = set(proof_to_json(cert)["distances"])
        assert proof_dists < set(res.truncation)
        assert verify_certificate(list(res.truncation), 2, cert)

    @given(st.lists(st.tuples(st.integers(1, 600), st.integers(0, 5)), min_size=1, max_size=4))
    @example([(1, 0)])
    @settings(max_examples=25, deadline=None)
    def test_planted_greedy_clash_fails_the_cardinality_claim(self, plants):
        # each plant copies term i - m into term i (color 1 where i - m <= 0)
        seen = []

        def planted(elems, count):
            run = greedy_coloring(elems, count)
            seq = list(run.sequence)
            dists = sorted(elems)
            for i, j in plants:
                i, m = min(i, count), dists[j % len(dists)]
                seq[i - 1] = seq[i - m - 1] if i > m else 1
            seen.append((elems, seq))
            return replace(run, sequence=tuple(seq))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(report, "greedy_coloring", planted)
            result = run_claim_suite(only=["cardinality-ceiling"]).results[0]
        elems, seq = seen[0]
        assert result.status == FAIL
        assert result.details == {"trial": 0, "greedy_clash_at": per_term_clash(elems, seq)}

    def test_corruption_control_still_fails(self):
        clean = run_claim_suite(only=["certificate-audit"])
        poisoned = run_claim_suite(inject_corruption=True, only=["certificate-audit"])
        assert clean.results[0].status == PASS
        assert poisoned.results[0].status == FAIL

    @pytest.mark.parametrize(
        "elements", ["24,26,27,40,70", "33,44,48,65,77", "4,6,40,48,51,61,63"]
    )
    def test_hard_sets_check_and_verify_through_cli(self, elements, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        base = ["--elements", elements, "--arity", "3"]
        assert cli.main(["birkhoff", "check", *base, "--emit-cert", str(cert)]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["status"] == "R_BIRKHOFF" and result["verified"] is True
        assert "proof" not in result["certificate"]
        assert "proof" in json.loads(cert.read_text())
        assert cli.main(["birkhoff", "verify", *base, "--cert", str(cert)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["valid"] is True


class TestReferenceSearch:
    @given(
        st.sets(st.integers(1, 6), min_size=1, max_size=3).map(sorted),
        st.integers(1, 3),
        st.integers(1, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, dists, r, window):
        assert _reference_window_colorable(tuple(dists), window, r, 10**6) == brute_window_colorable(
            dists, window, r
        )

    def test_long_component_needs_no_recursion_limit(self):
        limit = sys.getrecursionlimit()
        assert _reference_window_colorable((1,), 20_000, 2, 10**6)
        assert sys.getrecursionlimit() == limit

    def test_solver_leaves_the_recursion_limit_alone(self):
        limit = sys.getrecursionlimit()
        assert window_r_colorable([1, 5, 8], 5000, 3)
        v = check_r_birkhoff([1, 2], 3)
        assert v.status is Status.NOT_R_BIRKHOFF and v.certificate.coloring.period == 3
        assert sys.getrecursionlimit() == limit

    def test_cap(self):
        with pytest.raises(VerificationBudgetExceeded):
            _reference_window_colorable((1,), 100, 2, 50)
