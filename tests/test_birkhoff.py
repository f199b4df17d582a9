"""Distance-graph solver: verdicts, certificates, canonical ordering.

The reference oracle used by the property tests below is an independent
brute-force search over raw colorings, deliberately unrelated to the
solver's DSATUR machinery.
"""

import json
import sys
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

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
    window_r_colorable,
    _reference_window_colorable,
)
from reclab import birkhoff, cli
from reclab.errors import InvalidArity, MalformedCertificate, VerificationBudgetExceeded
from reclab.intsets import gen_k_times_nr, gen_l_r
from reclab.report import FAIL, PASS, run_claim_suite


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
    def test_smallest_period_then_lex_least(self):
        # {3}: smallest valid period is 2 (3 % 2 != 0), lex-least is (1,2)
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
        limits = SearchLimits(node_budget=1)
        v = check_r_birkhoff([3, 7, 11, 13], 3, limits)
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
    # the greedy clique {0, 2, 4, 6}, written as a tree of floor(e * 3!) nodes
    DSATUR_CASE = ((1, 3, 4), 3)
    CLIQUE_CASE = ((2, 4, 6), 3)

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
        # depth i branches on the i-th clique vertex over its 3 - i free colors
        cert = check_r_birkhoff(*self.CLIQUE_CASE).certificate
        assert proof_to_json(cert) == {"distances": [2, 4, 6], "vertices": [0] + [2, 4, 6, 4, 6] * 3}

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
        monkeypatch.setattr(birkhoff, "VERIFY_NODE_CAP", 19)
        assert certificate_from_json(doc).proof is not None  # 3 + 16 entries
        monkeypatch.setattr(birkhoff, "VERIFY_NODE_CAP", 18)
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

    def test_clique_tree_past_the_budget_is_not_kept(self):
        # K_12 refutes 11 colors; its tree would hold floor(e * 11!) nodes
        v = check_r_birkhoff(range(1, 12), 11)
        assert v.certificate == WindowUnsat(window=12, arity=11)
        assert v.certificate.proof is None
        with pytest.raises(VerificationBudgetExceeded):
            verify_certificate(range(1, 12), 11, v.certificate, node_cap=1000)

    def test_only_the_solver_builds_clique_trees(self, monkeypatch):
        # K_11 would need trees of floor(e * r!) nodes for r = 1..10; the
        # boolean callers only need to know that a clique exists
        def no_tree(*args):
            raise AssertionError("clique tree built")

        monkeypatch.setattr(birkhoff, "_clique_tree", no_tree)
        b = chromatic_number_window(range(1, 11), 11)
        assert (b.lower, b.upper, b.exact) == (11, 11, True)
        assert not window_r_colorable(range(1, 11), 11, 10)
        with pytest.raises(AssertionError):
            check_r_birkhoff(*self.CLIQUE_CASE)

    def test_layer_certificate_verifies_for_the_truncation(self):
        res = stably_r_birkhoff_probe(2, removed=gen_l_r(2, 0), k_max=2)
        assert res.strategy == "layer_shortcut"
        cert = res.verdict.certificate
        proof_dists = set(proof_to_json(cert)["distances"])
        assert proof_dists < set(res.truncation)
        assert verify_certificate(list(res.truncation), 2, cert)

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

    def test_cap(self):
        with pytest.raises(VerificationBudgetExceeded):
            _reference_window_colorable((1,), 100, 2, 50)
