"""The solver kernel against the one before color symmetry breaking,
kept here as a status oracle.

The oracle is an independent implementation of that kernel: a set-based
DSATUR greedy and a recursive DSATUR search that pick each vertex with a
linear scan and try every color at every node, a greedy clique over a
dict of neighbour sets written as a tree of floor(e * r!) nodes, a
recursive lexicographic coloring, and graphs rebuilt from scratch for
every window.  It makes the decisions the solver made before: the same
verdicts, certificates, proofs, node counts, windows and periods tried.
It tries windows and periods in the solver's order: period p right after
window 2p, and periods alone at an arity above |M|.

The solver now gives a vertex only colors up to 1 + the largest color on
its search path, writes an (r+1)-clique as its r+1 vertices and extends
each window's coloring in place, so its proofs and node counts shrink.
Its periodic witness is no longer the lex-least vector, found by a second
search: it is the coloring the solver found at that period, its colors
renamed in order of first use.  The oracle keeps the lex search, whose
nodes make its node count an upper bound on the solver's.
What must stay: the status, the window certificate, the period of a
periodic one, the windows and periods tried and the limits; a witness
that passes the residue check and names its colors in order of first use;
a node count no larger than the oracle's; and a proof that replays.  Only
where the oracle ran out of budget (UNDECIDED, or the greedy cycle
fallback) may the solver decide otherwise, and then never UNDECIDED where
the oracle decided.

Run this file as a script to compare the whole solver space of the
benchmark (every 2-6 distance set from 1..14 at arity 2 and 3), with the
node, proof-byte, window and period totals of both kernels.  It exits
non-zero when a solver total differs from SOLVER_SPACE_TOTALS, so a shift
in nodes or proofs that the per-pair checks allow still fails:

    PYTHONPATH=src python tests/test_birkhoff_differential.py
"""

import hashlib
import itertools
import json
import random
import sys
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from oracles import in_first_use_order
from reclab import birkhoff, intsets
from reclab.birkhoff import (
    ChromaticBracket,
    PeriodicColoring,
    PeriodicWitness,
    SearchLimits,
    SearchStats,
    Status,
    Verdict,
    WindowUnsat,
    _Budget,
    _OutOfBudget,
    _normalize_distances,
    _pack_proof,
    _refutation,
    _window_adjacency,
    check_r_birkhoff,
    chromatic_number_window,
    verify_certificate,
)

# ---------------------------------------------------------------------------
# the oracle: the former kernel
# ---------------------------------------------------------------------------


def old_window_adjacency(window, dists):
    adj = [[] for _ in range(window)]
    for m in dists:
        if m >= window:
            break
        for i in range(window - m):
            adj[i].append(i + m)
            adj[i + m].append(i)
    return adj


def old_circulant_adjacency(p, dists):
    deltas = set()
    for m in dists:
        t = m % p
        deltas.add(t)
        deltas.add(p - t)
    return [sorted({(j + t) % p for t in deltas} - {j}) for j in range(p)]


def old_components(adj):
    n = len(adj)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def old_greedy_clique(adj, vertices, tries=12):
    best = list(vertices[:1])
    neigh = {v: set(adj[v]) for v in vertices}
    for v in vertices[:tries]:
        clique = [v]
        for u in adj[v]:
            if u in neigh and all(u in neigh[w] for w in clique):
                clique.append(u)
        if len(clique) > len(best):
            best = clique
    return best


def old_clique_tree(clique, r, limit):
    size = term = 1
    for k in range(r, 0, -1):
        term *= k
        size += term
        if size > limit:
            return []
    tree = []

    def walk(i):
        tree.append(clique[i])
        for _ in range(r - i):
            walk(i + 1)

    walk(0)
    return tree


def old_greedy_dsatur_colors(adj, vertices):
    colors = {}
    sat = {v: set() for v in vertices}
    degree = {v: len(adj[v]) for v in vertices}
    uncolored = set(vertices)
    while uncolored:
        v = min(uncolored, key=lambda u: (-len(sat[u]), -degree[u], u))
        c = 1
        while c in sat[v]:
            c += 1
        colors[v] = c
        uncolored.remove(v)
        for u in adj[v]:
            if u in sat:
                sat[u].add(c)
    return colors


def old_dsatur_decide(adj, vertices, r, budget, trace):
    vset = set(vertices)
    colors = {}
    sat = {v: {} for v in vertices}
    degree = {v: len(adj[v]) for v in vertices}
    order_pool = set(vertices)

    def assign(v, c):
        colors[v] = c
        for u in adj[v]:
            if u in vset and u not in colors:
                d = sat[u]
                d[c] = d.get(c, 0) + 1

    def unassign(v, c):
        del colors[v]
        for u in adj[v]:
            if u in vset and u not in colors:
                d = sat[u]
                d[c] -= 1
                if d[c] == 0:
                    del d[c]

    def search():
        if not order_pool:
            return True
        budget.charge()
        v = min(order_pool, key=lambda u: (-len(sat[u]), -degree[u], u))
        trace.append(v)
        order_pool.remove(v)
        for c in range(1, r + 1):
            if c in sat[v]:
                continue
            assign(v, c)
            if search():
                order_pool.add(v)
                return True
            unassign(v, c)
        order_pool.add(v)
        return False

    return dict(colors) if search() else None


def old_static_lex_coloring(adj, n, r, budget):
    colors = [0] * n
    back = [sorted(u for u in adj[v] if u < v) for v in range(n)]

    def search(v):
        if v == n:
            return True
        budget.charge()
        used = {colors[u] for u in back[v]}
        for c in range(1, r + 1):
            if c in used:
                continue
            colors[v] = c
            if search(v + 1):
                return True
        colors[v] = 0
        return False

    return list(colors) if search(0) else None


def old_refutation(adj, r, budget):
    for comp in old_components(adj):
        if len(comp) <= r:
            continue
        greedy = old_greedy_dsatur_colors(adj, comp)
        if max(greedy.values()) <= r:
            continue
        clique = old_greedy_clique(adj, comp)
        if len(clique) > r:
            return "clique", clique[: r + 1]
        trace = []
        if old_dsatur_decide(adj, comp, r, budget, trace) is None:
            return "tree", trace
    return None


def old_circulant_witness(dists, p, r, budget) -> Optional[PeriodicColoring]:
    adj = old_circulant_adjacency(p, dists)
    if p > r and len(old_greedy_clique(adj, list(range(p)))) > r:
        return None
    if old_refutation(adj, r, budget) is not None:
        return None
    lex = old_static_lex_coloring(adj, p, r, budget)
    return PeriodicColoring(p, tuple(lex))


def old_check_r_birkhoff(m, r, limits=None) -> Verdict:
    dists = _normalize_distances(m)
    limits = (limits or SearchLimits()).resolved(dists)
    budget = _Budget(limits.node_budget)
    stats = SearchStats(limits={
        "max_window": limits.max_window,
        "max_period": limits.max_period,
        "node_budget": limits.node_budget,
    })

    def finish(status, cert):
        stats.nodes = budget.spent
        return Verdict(status, cert, stats)

    max_window = limits.max_window if r <= len(dists) else 0
    lag = 2 if max_window else 1
    try:
        for t in range(1, max(max_window, lag * limits.max_period) + 1):
            if t <= max_window:
                stats.windows_tried = t
                if t > dists[0]:
                    found = old_refutation(old_window_adjacency(t, dists), r, budget)
                    if found is not None:
                        kind, entries = found
                        tree = old_clique_tree(entries, r, budget.left) if kind == "clique" else entries
                        proof = _pack_proof(t, [mm for mm in dists if mm < t], tree) if tree else None
                        return finish(Status.R_BIRKHOFF, WindowUnsat(window=t, arity=r, proof=proof))
            p, off = divmod(t, lag)
            if not off and p <= limits.max_period and all(mm % p != 0 for mm in dists):
                stats.periods_tried += 1
                witness = old_circulant_witness(dists, p, r, budget)
                if witness is not None:
                    return finish(Status.NOT_R_BIRKHOFF, PeriodicWitness(witness))
    except _OutOfBudget:
        stats.budget_exhausted = True
        if r <= len(dists):
            return finish(Status.UNDECIDED, None)
        budget.left = intsets.HIT_CAP
    if r > len(dists):
        witness = birkhoff._greedy_cycle_witness(dists, r, budget)
        if witness is not None:
            stats.fallback_used = True
            return finish(Status.NOT_R_BIRKHOFF, PeriodicWitness(witness))
    return finish(Status.UNDECIDED, None)


def old_window_r_colorable(m, window, r, budget=None):
    dists = _normalize_distances(m)
    return old_refutation(old_window_adjacency(window, dists), r, budget or _Budget(10_000_000)) is None


def old_chromatic_number_window(m, window, limits=None) -> ChromaticBracket:
    dists = _normalize_distances(m)
    budget = _Budget((limits or SearchLimits()).node_budget)
    adj = old_window_adjacency(window, dists)
    greedy_upper = 1
    for comp in old_components(adj):
        greedy_upper = max(greedy_upper, max(old_greedy_dsatur_colors(adj, comp).values()))
    lower = 1
    for r in range(1, greedy_upper + 1):
        try:
            if old_refutation(adj, r, budget) is None:
                return ChromaticBracket(lower=r, upper=r, exact=True, nodes=budget.spent)
            lower = r + 1
        except _OutOfBudget:
            return ChromaticBracket(lower=lower, upper=greedy_upper, exact=False, nodes=budget.spent)
    return ChromaticBracket(lower=greedy_upper, upper=greedy_upper, exact=True, nodes=budget.spent)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def proof_of(verdict: Verdict) -> Optional[bytes]:
    return getattr(verdict.certificate, "proof", None)


def decision(verdict: Verdict) -> tuple:
    """The status and certificate, less a periodic witness's colors."""
    cert = verdict.to_json()["certificate"]
    return verdict.status, cert and {k: v for k, v in cert.items() if k != "colors"}


def compare(dists: Sequence[int], r: int, limits: Optional[SearchLimits] = None) -> tuple[Verdict, Verdict]:
    """(solver verdict, oracle verdict), after checking that they agree."""
    new = check_r_birkhoff(dists, r, limits)
    old = old_check_r_birkhoff(dists, r, limits)
    assert new.stats.nodes <= old.stats.nodes
    if isinstance(new.certificate, WindowUnsat):
        assert new.certificate.proof is not None
    if new.certificate is not None:
        assert verify_certificate(dists, r, new.certificate)
    if old.status is not Status.UNDECIDED:
        assert new.status is old.status
    if old.status is Status.UNDECIDED or old.stats.fallback_used:
        return new, old  # the oracle ran out: the solver may have decided in budget
    assert decision(new) == decision(old)  # a window certificate exactly, a witness's period
    if isinstance(new.certificate, PeriodicWitness):
        coloring = new.certificate.coloring
        assert coloring.is_valid_for(_normalize_distances(dists), r)
        assert in_first_use_order(coloring.colors)
    new_json, old_json = new.to_json(), old.to_json()
    for key in ("windows_tried", "periods_tried", "budget_exhausted", "fallback_used", "limits"):
        assert new_json["stats"][key] == old_json["stats"][key]
    return new, old


distance_sets = st.sets(st.integers(1, 29), min_size=1, max_size=5).map(sorted)


@given(distance_sets, st.integers(1, 4), st.sampled_from([None, 1, 40, 300, 3000]))
@settings(max_examples=250, deadline=None)
def test_verdicts_match_the_oracle(dists, r, node_budget):
    limits = None if node_budget is None else SearchLimits(node_budget=node_budget)
    compare(dists, r, limits)


@given(
    st.sets(st.integers(1, 12), min_size=1, max_size=4).map(sorted),
    st.integers(1, 48),
    st.integers(1, 5),
    st.sampled_from([1, 25, 400, 10_000_000]),
)
@settings(max_examples=200, deadline=None)
def test_window_colorability_matches_the_oracle(dists, window, r, node_budget):
    def run(fn, budget):
        try:
            return fn(dists, window, r, budget)
        except _OutOfBudget:
            return "out of budget"

    def window_r_colorable(dists, window, r, budget):
        return _refutation(_window_adjacency(window, _normalize_distances(dists)), r, budget) is None

    new_budget, old_budget = _Budget(node_budget), _Budget(node_budget)
    new, old = run(window_r_colorable, new_budget), run(old_window_r_colorable, old_budget)
    assert new_budget.spent <= old_budget.spent
    if old == "out of budget" and new != "out of budget":
        old = run(old_window_r_colorable, _Budget(10_000_000))
    assert new == old


@given(
    st.sets(st.integers(1, 12), min_size=1, max_size=4).map(sorted),
    st.integers(1, 40),
    st.sampled_from([1, 30, 500, 2_000_000]),
)
@settings(max_examples=150, deadline=None)
def test_chromatic_bracket_matches_the_oracle(dists, window, node_budget):
    limits = SearchLimits(node_budget=node_budget)
    new = chromatic_number_window(dists, window, limits)
    old = old_chromatic_number_window(dists, window, limits)
    assert new.nodes <= old.nodes
    if old.exact:
        assert (new.lower, new.upper, new.exact) == (old.lower, old.upper, True)
    else:  # budget-limited: no wider
        assert old.lower <= new.lower <= new.upper <= old.upper


def solver_space():
    """The benchmark's solver space: every 2-6 distance set from 1..14 at
    arity 2 and 3."""
    return [
        (list(dists), arity)
        for size in range(2, 7)
        for dists in itertools.combinations(range(1, 15), size)
        for arity in (2, 3)
    ]


# The solver's totals over the whole solver space.
SOLVER_SPACE_TOTALS = {"nodes": 93_242, "proof bytes": 129_821, "windows": 132_395, "periods": 11_178}

# sha256 over the 300-pair sample below of each verdict's status and
# certificate, dumped with sorted keys, then its proof bytes: the
# decisions, which no change of search order may move.
SAMPLE_CERTIFICATE_DIGEST = "ca9de5c9d3784d707c90e9e440f59a8b0c21d780fd218da67ee4ead7498c927b"
# sha256 of each verdict's stats, dumped with sorted keys, over the same
# sample: the cost of reaching those decisions.
SAMPLE_STATS_DIGEST = "9d418ffbbce34b5d1203435e371e434aa4d6a9a14225bf5f28f9d32a993dbfb6"


def sample_pairs():
    return random.Random(20260601).sample(solver_space(), 300)


def sample_digests() -> tuple[str, str]:
    certificates, stats = hashlib.sha256(), hashlib.sha256()
    for dists, r in sample_pairs():
        verdict = check_r_birkhoff(dists, r)
        doc = verdict.to_json()
        certificates.update(json.dumps({k: doc[k] for k in ("status", "certificate")}, sort_keys=True).encode())
        certificates.update(proof_of(verdict) or b"")
        stats.update(json.dumps(doc["stats"], sort_keys=True).encode())
    return certificates.hexdigest(), stats.hexdigest()


def test_solver_space_sample_matches_the_oracle():
    for dists, r in sample_pairs():
        compare(dists, r)


def test_solver_space_sample_is_byte_identical():
    certificates, stats = sample_digests()
    assert certificates == SAMPLE_CERTIFICATE_DIGEST
    assert stats == SAMPLE_STATS_DIGEST


@pytest.mark.parametrize("node_budget", [1, 10, 100, 1000])
def test_budget_cutoffs_match_the_oracle(node_budget):
    limits = SearchLimits(node_budget=node_budget)
    for dists, r in random.Random(node_budget).sample(solver_space(), 60):
        compare(dists, r, limits)


@pytest.mark.parametrize(
    "dists, r",
    [
        # long DSATUR searches
        ([24, 26, 27, 40, 70], 3),
        ([4, 6, 40, 48, 51, 61, 63], 3),
        # (r+1)-clique refutations, whose proofs list the clique in the
        # order the walk meets it: v - m1, v + m1, v - m2, ...
        ([1, 4, 5, 9], 3),
        ([2, 5, 7, 12], 3),
        ([2, 4, 6], 3),
        ([1, 2, 3, 4, 5], 5),
        # a clique the oracle's tree could not write within the budget
        (list(range(1, 12)), 11),
    ],
)
def test_hard_sets_match_the_oracle(dists, r):
    compare(dists, r)


if __name__ == "__main__":
    space = solver_space()
    totals = {name: [0, 0] for name in SOLVER_SPACE_TOTALS}
    changed = recolored = 0
    for n, (dists, r) in enumerate(space, 1):
        new, old = compare(dists, r)
        for k, verdict in enumerate((new, old)):
            totals["nodes"][k] += verdict.stats.nodes
            totals["proof bytes"][k] += len(proof_of(verdict) or b"")
            totals["windows"][k] += verdict.stats.windows_tried
            totals["periods"][k] += verdict.stats.periods_tried
        kept = decision(new) == decision(old)
        changed += not kept
        recolored += kept and new.certificate != old.certificate
        if n % 1000 == 0:
            print(f"{n}/{len(space)}", file=sys.stderr)
    print(
        f"all {len(space)} solver-space pairs agree with the oracle; {changed} change status, window or "
        f"period; {recolored} witnesses differ from the oracle's lex-least vector"
    )
    for name, (new_total, old_total) in totals.items():
        print(f"{name}: {old_total:,} -> {new_total:,} ({new_total / old_total - 1:+.1%})")
    moved = [
        f"{name} {totals[name][0]:,} != {want:,}"
        for name, want in SOLVER_SPACE_TOTALS.items()
        if totals[name][0] != want
    ]
    if moved:
        sys.exit("solver totals moved: " + ", ".join(moved))
