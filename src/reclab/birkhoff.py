"""Exact finite-scale decision procedure for coloring recurrence.

For a finite set M of positive distances and an arity r, every r-coloring of
the integers either contains a monochromatic pair at a distance in M, or it
does not.  At desk scale we decide the question with two certificate forms:

* ``WindowUnsat(W, r)``: the distance graph on vertices {0..W-1} (edges
  between i, j with |i-j| in M) has no proper r-coloring.  Any coloring of
  the integers restricts to the window, so distance-avoidance is impossible.
* ``PeriodicWitness(p, colors)``: a vector of length p over {1..r} with
  colors[j] != colors[(j+m) % p] for every residue j and every m in M.  Its
  p-periodic extension is an r-coloring avoiding every distance in M.

The search interleaves growing windows and growing periods, so the first
verdict found is canonical: least UNSAT window, or smallest witness period
with the lexicographically least color vector.  Exhausted limits yield
UNDECIDED, never a wrong answer.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence, Union

from .errors import InvalidArity, EmptyInput, MalformedCertificate, VerificationBudgetExceeded
from .intsets import IntSet, ZSetLike, as_int_list

# Default cap of the independent verifier: reference-search nodes for a
# certificate without a proof, proof entries for one read from a file.
VERIFY_NODE_CAP = 50_000_000


class Status(str, Enum):
    R_BIRKHOFF = "R_BIRKHOFF"
    NOT_R_BIRKHOFF = "NOT_R_BIRKHOFF"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class PeriodicColoring:
    period: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.period < 1 or len(self.colors) != self.period:
            raise MalformedCertificate("period/colors length mismatch")

    def color_of(self, i: int) -> int:
        return self.colors[i % self.period]

    def is_valid_for(self, distances: Sequence[int], arity: int) -> bool:
        if any(not (1 <= c <= arity) for c in self.colors):
            return False
        p = self.period
        for m in distances:
            # m % p == 0 makes every residue self-conflicting
            for j in range(p):
                if self.colors[j] == self.colors[(j + m) % p]:
                    return False
        return True


@dataclass(frozen=True, slots=True)
class WindowUnsat:
    """The window graph on {0..window-1} has no proper ``arity``-coloring.

    ``proof``, when present, is the refutation the solver found: the
    DSATUR search tree of one component that is not colorable, built on a
    subset D of the query distances.  It is packed as
    ``struct.pack(f"{n}{T}", len(D), *D, *vertices)``, where ``vertices``
    lists the tree's branching vertices in preorder and T is the smallest
    unsigned type that holds the window (every entry is below it).  A
    node's children are implied: one per color its colored neighbours
    (v +- m, m in D) leave free, in ascending order; a leaf is a vertex
    with every color blocked.  The verifier replays it in
    O(len(proof) * |D|).
    """

    window: int
    arity: int
    proof: Optional[bytes] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PeriodicWitness:
    coloring: PeriodicColoring


Certificate = Union[WindowUnsat, PeriodicWitness]


@dataclass
class SearchStats:
    nodes: int = 0
    windows_tried: int = 0
    periods_tried: int = 0
    budget_exhausted: bool = False
    fallback_used: bool = False
    limits: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    status: Status
    certificate: Optional[Certificate]
    stats: SearchStats

    def to_json(self) -> dict:
        return {
            "status": self.status.value,
            "certificate": certificate_to_json(self.certificate),
            "stats": {
                "nodes": self.stats.nodes,
                "windows_tried": self.stats.windows_tried,
                "periods_tried": self.stats.periods_tried,
                "budget_exhausted": self.stats.budget_exhausted,
                "fallback_used": self.stats.fallback_used,
                "limits": self.stats.limits,
            },
        }


def certificate_to_json(cert: Optional[Certificate]) -> Optional[dict]:
    if cert is None:
        return None
    if isinstance(cert, WindowUnsat):
        return {"type": "window_unsat", "window": cert.window, "arity": cert.arity}
    return {
        "type": "periodic",
        "period": cert.coloring.period,
        "colors": list(cert.coloring.colors),
    }


def proof_to_json(cert: Optional[Certificate]) -> Optional[dict]:
    """The refutation a window certificate carries, for certificate files;
    None when there is none.  Kept out of certificate_to_json so result
    documents stay the same with or without a proof."""
    if not isinstance(cert, WindowUnsat) or cert.proof is None:
        return None
    dists, vertices = _unpack_proof(cert.window, cert.proof)
    return {"distances": dists.tolist(), "vertices": vertices.tolist()}


def certificate_from_json(data: dict) -> Certificate:
    """Parse a certificate document; a window certificate's optional
    ``proof`` may hold at most VERIFY_NODE_CAP integers."""
    try:
        kind = data["type"]
        if kind == "window_unsat":
            cert = WindowUnsat(window=int(data["window"]), arity=int(data["arity"]))
            if data.get("proof") is None:
                return cert
            return replace(cert, proof=_proof_from_json(cert.window, data["proof"]))
        if kind == "periodic":
            colors = tuple(int(c) for c in data["colors"])
            return PeriodicWitness(PeriodicColoring(int(data["period"]), colors))
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise MalformedCertificate(str(exc)) from exc
    raise MalformedCertificate(f"unknown certificate type {data.get('type')!r}")


def _proof_from_json(window: int, doc: dict) -> bytes:
    dists, vertices = doc["distances"], doc["vertices"]
    if not isinstance(dists, list) or not isinstance(vertices, list):
        raise MalformedCertificate("proof distances and vertices must be lists")
    if len(dists) + len(vertices) > VERIFY_NODE_CAP:
        raise MalformedCertificate(f"proof has more than {VERIFY_NODE_CAP} entries")
    if any(type(v) is not int for v in dists) or any(type(v) is not int for v in vertices):
        raise MalformedCertificate("proof entries must be integers")
    return _pack_proof(window, dists, vertices)


def _proof_typecode(window: int) -> str:
    return next((code for code in "BHI" if window <= 256 ** struct.calcsize(code)), "Q")


def _pack_proof(window: int, dists: Sequence[int], vertices: Sequence[int]) -> bytes:
    """Raises struct.error if an entry does not fit the window's type."""
    fmt = f"{1 + len(dists) + len(vertices)}{_proof_typecode(window)}"
    return struct.pack(fmt, len(dists), *dists, *vertices)


def _unpack_proof(window: int, proof: bytes) -> tuple[memoryview, memoryview]:
    """(D, preorder vertices) of a packed proof; ValueError if malformed."""
    code = _proof_typecode(window)
    if len(proof) % struct.calcsize(code):
        raise ValueError("proof is not a whole number of entries")
    packed = memoryview(proof).cast(code)
    if not packed or len(packed) <= packed[0]:
        raise ValueError("truncated proof header")
    k = packed[0]
    return packed[1 : k + 1], packed[k + 1 :]


@dataclass(frozen=True)
class SearchLimits:
    max_window: Optional[int] = None
    max_period: Optional[int] = None
    node_budget: int = 2_000_000

    def resolved(self, distances: Sequence[int]) -> "SearchLimits":
        top = max(distances)
        return SearchLimits(
            max_window=self.max_window if self.max_window is not None else 4 * top,
            max_period=self.max_period if self.max_period is not None else min(256, 2 * top + 1),
            node_budget=self.node_budget,
        )


class _OutOfBudget(Exception):
    pass


class _Budget:
    __slots__ = ("left", "spent")

    def __init__(self, total: int):
        self.left = total
        self.spent = 0

    def charge(self, n: int = 1):
        self.left -= n
        self.spent += n
        if self.left < 0:
            raise _OutOfBudget


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------


def _normalize_distances(m: ZSetLike) -> tuple[int, ...]:
    dists = sorted({abs(int(v)) for v in as_int_list(m) if v != 0})
    if not dists:
        raise EmptyInput("no nonzero distances")
    return tuple(dists)


def _window_adjacency(window: int, dists: Sequence[int]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(window)]
    for m in dists:
        if m >= window:
            break
        for i in range(window - m):
            adj[i].append(i + m)
            adj[i + m].append(i)
    return adj


def _circulant_adjacency(p: int, dists: Sequence[int]) -> list[list[int]]:
    deltas = set()
    for m in dists:
        t = m % p
        deltas.add(t)
        deltas.add(p - t)
    adj: list[list[int]] = [[] for _ in range(p)]
    for j in range(p):
        adj[j] = sorted({(j + t) % p for t in deltas} - {j})
    return adj


def _components(adj: list[list[int]]) -> list[list[int]]:
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


def _greedy_clique(adj: list[list[int]], vertices: Sequence[int], tries: int = 12) -> list[int]:
    """Largest of the greedy cliques grown from a few start vertices; its
    size is a sound lower bound on the chromatic number."""
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


def _clique_tree(clique: Sequence[int], r: int, limit: int) -> list[int]:
    """The search tree refuting r-colorings of an (r+1)-clique, in the
    proof format of WindowUnsat: depth i branches on clique[i] over the
    r - i colors left free.  It has floor(e * r!) nodes; empty when that
    exceeds limit."""
    size = term = 1
    for k in range(r, 0, -1):
        term *= k
        size += term
        if size > limit:
            return []
    tree: list[int] = []

    def walk(i: int):
        tree.append(clique[i])
        for _ in range(r - i):
            walk(i + 1)

    walk(0)
    return tree


# ---------------------------------------------------------------------------
# exact coloring searches
# ---------------------------------------------------------------------------


def _greedy_dsatur_colors(adj: list[list[int]], vertices: Sequence[int]) -> dict[int, int]:
    """Plain DSATUR greedy (no backtracking); returns a proper coloring that
    may use any number of colors."""
    colors: dict[int, int] = {}
    sat: dict[int, set[int]] = {v: set() for v in vertices}
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

def _dsatur_decide(
    adj: list[list[int]],
    vertices: Sequence[int],
    r: int,
    budget: _Budget,
    trace: list[int],
) -> Optional[dict[int, int]]:
    """Exhaustive r-colorability on one component, DSATUR-ordered.

    Appends each search node's branching vertex to trace, so on failure
    trace holds the search tree in preorder."""
    vset = set(vertices)
    colors: dict[int, int] = {}
    sat: dict[int, dict[int, int]] = {v: {} for v in vertices}  # color -> support count
    degree = {v: len(adj[v]) for v in vertices}
    order_pool = set(vertices)

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * len(vertices) + 100))

    def pick() -> int:
        return min(order_pool, key=lambda u: (-(len(sat[u])), -degree[u], u))

    def assign(v: int, c: int) -> list[int]:
        colors[v] = c
        touched = []
        for u in adj[v]:
            if u in vset and u not in colors:
                d = sat[u]
                d[c] = d.get(c, 0) + 1
                if d[c] == 1:
                    touched.append(u)
        return touched

    def unassign(v: int, c: int):
        del colors[v]
        for u in adj[v]:
            if u in vset and u not in colors:
                d = sat[u]
                d[c] -= 1
                if d[c] == 0:
                    del d[c]

    def search() -> bool:
        if not order_pool:
            return True
        budget.charge()
        v = pick()
        trace.append(v)
        order_pool.remove(v)
        forbidden = sat[v]
        for c in range(1, r + 1):
            if c in forbidden:
                continue
            assign(v, c)
            if search():
                order_pool.add(v)
                return True
            unassign(v, c)
        order_pool.add(v)
        return False

    if search():
        return dict(colors)
    return None


def _static_lex_coloring(adj: list[list[int]], n: int, r: int, budget: _Budget) -> Optional[list[int]]:
    """First solution of lowest-vertex / lowest-color backtracking over the
    whole graph: the lexicographically least proper r-coloring."""
    colors = [0] * n
    back = [sorted(u for u in adj[v] if u < v) for v in range(n)]

    def search(v: int) -> bool:
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

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 100))
    if search(0):
        return list(colors)
    return None


def _refutation(adj: list[list[int]], r: int, budget: _Budget) -> Optional[tuple[str, list[int]]]:
    """Exact r-colorability of the whole graph (component by component).

    None when the graph is r-colorable.  Otherwise why a component is not:
    ("clique", an (r+1)-clique) or ("tree", its DSATUR search tree in
    WindowUnsat's proof format)."""
    for comp in _components(adj):
        if len(comp) <= r:
            continue  # trivially colorable
        greedy = _greedy_dsatur_colors(adj, comp)
        if max(greedy.values()) <= r:
            continue
        clique = _greedy_clique(adj, comp)
        if len(clique) > r:
            return "clique", clique[: r + 1]
        trace: list[int] = []
        if _dsatur_decide(adj, comp, r, budget, trace) is None:
            return "tree", trace
    return None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def window_r_colorable(m: ZSetLike, window: int, r: int, budget: Optional[_Budget] = None) -> bool:
    dists = _normalize_distances(m)
    budget = budget or _Budget(10_000_000)
    return _refutation(_window_adjacency(window, dists), r, budget) is None


def check_r_birkhoff(m: ZSetLike, r: int, limits: SearchLimits | None = None) -> Verdict:
    """Round-robin certificate search; see the module docstring."""
    if r < 1:
        raise InvalidArity(f"arity must be >= 1, got {r}")
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

    try:
        top = max(limits.max_window, limits.max_period)
        for t in range(1, top + 1):
            if t <= limits.max_window:
                stats.windows_tried = t
                if t > dists[0]:  # smaller windows have no edges at all
                    found = _refutation(_window_adjacency(t, dists), r, budget)
                    if found is not None:
                        kind, entries = found
                        tree = _clique_tree(entries, r, budget.left) if kind == "clique" else entries
                        # distances >= t add no edge, and leaving them out
                        # keeps every packed entry below t
                        proof = _pack_proof(t, [mm for mm in dists if mm < t], tree) if tree else None
                        return finish(Status.R_BIRKHOFF, WindowUnsat(window=t, arity=r, proof=proof))
            if t <= limits.max_period and all(mm % t != 0 for mm in dists):
                stats.periods_tried += 1
                witness = _circulant_witness(dists, t, r, budget)
                if witness is not None:
                    return finish(Status.NOT_R_BIRKHOFF, PeriodicWitness(witness))
    except _OutOfBudget:
        stats.budget_exhausted = True
        stats.nodes = budget.spent
        return Verdict(Status.UNDECIDED, None, stats)

    # enumeration exhausted honestly; if the arity exceeds |M| a periodic
    # witness always exists, and the greedy tail construction finds one
    if r > len(dists):
        witness = _greedy_cycle_witness(dists, r, budget)
        if witness is not None:
            stats.fallback_used = True
            return finish(Status.NOT_R_BIRKHOFF, PeriodicWitness(witness))
    return finish(Status.UNDECIDED, None)


def _circulant_witness(dists: Sequence[int], p: int, r: int, budget: _Budget) -> Optional[PeriodicColoring]:
    adj = _circulant_adjacency(p, dists)
    if p > r and len(_greedy_clique(adj, list(range(p)))) > r:
        return None
    if _refutation(adj, r, budget) is not None:
        return None
    lex = _static_lex_coloring(adj, p, r, budget)
    if lex is None:  # cannot happen: decided colorable above
        return None
    coloring = PeriodicColoring(p, tuple(lex))
    assert coloring.is_valid_for(dists, r)
    return coloring


def _greedy_cycle_witness(dists: Sequence[int], r: int, budget: _Budget) -> Optional[PeriodicColoring]:
    """Cycle of the greedy avoiding sequence, as a (possibly long) witness."""
    top = max(dists)
    palette = len(dists) + 1  # enough colors for the greedy rule
    z: dict[int, int] = {}

    def zval(i: int) -> int:
        return z.get(i, 1) if i >= 1 else 1

    seen: dict[tuple[int, ...], int] = {}
    limit = 1_000_000
    i = 0
    try:
        while i < limit:
            i += 1
            budget.charge()
            forbidden = {zval(i - mm) for mm in dists}
            z[i] = next(c for c in range(1, palette + 1) if c not in forbidden)
            if i >= top:
                state = tuple(z[j] for j in range(i - top + 1, i + 1))
                j0 = seen.get(state)
                if j0 is not None:
                    cycle = tuple(z[j] for j in range(j0 + 1, i + 1))
                    cycle = _primitive_rotation(cycle)
                    coloring = PeriodicColoring(len(cycle), cycle)
                    if coloring.is_valid_for(dists, r):
                        return coloring
                    return None
                seen[state] = i
    except _OutOfBudget:
        return None
    return None


def _primitive_rotation(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Reduce to the primitive period, then pick the lex-least rotation."""
    n = len(cycle)
    for t in range(1, n + 1):
        if n % t == 0 and all(cycle[i] == cycle[i % t] for i in range(n)):
            cycle = cycle[:t]
            break
    return min(cycle[i:] + cycle[:i] for i in range(len(cycle)))


def verify_certificate(m: ZSetLike, r: int, cert: Certificate, node_cap: int = VERIFY_NODE_CAP) -> bool:
    """Independent re-check of a certificate.

    Periodic witnesses are checked residue by residue.  A window certificate
    with a proof has the proof replayed, which shares no code with the
    solver.  One without a proof is re-proved by a plain left-to-right
    exhaustive search under node_cap, and only up to the solver's default
    window of 4 * max M; a larger one raises VerificationBudgetExceeded.
    """
    dists = _normalize_distances(m)
    if isinstance(cert, PeriodicWitness):
        return cert.coloring.is_valid_for(dists, r)
    if isinstance(cert, WindowUnsat):
        if cert.arity != r:
            raise MalformedCertificate(f"certificate arity {cert.arity} != query arity {r}")
        if cert.window < 1:
            raise MalformedCertificate("window must be >= 1")
        if cert.proof is not None:
            return _replay_refutation(dists, cert.window, r, cert.proof)
        if cert.window > 4 * dists[-1]:
            raise VerificationBudgetExceeded(
                f"window {cert.window} exceeds 4 * max distance = {4 * dists[-1]}, "
                "the most a certificate without a proof is re-searched for"
            )
        return not _reference_window_colorable(dists, cert.window, r, node_cap)
    raise MalformedCertificate(f"unknown certificate object {cert!r}")


def _replay_refutation(dists: Sequence[int], window: int, r: int, proof: bytes) -> bool:
    """Walk a packed refutation (see WindowUnsat) and accept it only if it
    is a complete search tree whose every leaf has all r colors blocked.

    Neighbours come straight from the proof's distances D, which must be
    query distances; the cost is O(len(proof) * |D|).
    """
    try:
        proof_dists, vertices = _unpack_proof(window, proof)
    except ValueError:
        return False
    d_set = set(proof_dists)  # within the query, so |D| <= |M| whatever the file says
    if not d_set <= set(dists) or r > 2 * len(d_set):
        return False  # past 2|D| colors no vertex can have all of them blocked
    offsets = [*d_set, *(-m for m in d_set)]  # v's neighbours are v + offset
    colors: dict[int, int] = {}  # the coloring along the current path
    path: list[list] = []  # per open node: [vertex, free colors, index of the one in use]
    for pos, v in enumerate(vertices):
        if v >= window or v in colors:
            return False
        blocked = {colors.get(v + d) for d in offsets}
        free = [c for c in range(1, r + 1) if c not in blocked]
        if free:
            colors[v] = free[0]
            path.append([v, free, 0])
            continue
        # a leaf: move on to the next free color of the deepest open node
        while path:
            node = path[-1]
            node[2] += 1
            if node[2] < len(node[1]):
                colors[node[0]] = node[1][node[2]]
                break
            path.pop()
            del colors[node[0]]
        else:
            return pos == len(vertices) - 1  # the tree is closed: no entry may remain
    return False  # the tree is still open when the proof ends


def _reference_window_colorable(dists: Sequence[int], window: int, r: int, node_cap: int) -> bool:
    """Plain left-to-right backtracking, iterative, one node per vertex
    entered; raises VerificationBudgetExceeded past node_cap nodes."""
    adj = _window_adjacency(window, dists)
    nodes = 0
    for comp in _components(adj):
        index = {v: i for i, v in enumerate(comp)}
        back = [[index[u] for u in adj[v] if u in index and index[u] < index[v]] for v in comp]
        n = len(comp)
        colors = [0] * n
        i, entering = 0, True
        while 0 <= i < n:
            if entering:
                nodes += 1
                if nodes > node_cap:
                    raise VerificationBudgetExceeded("reference search exceeded its cap")
            used = {colors[j] for j in back[i]}
            c = colors[i] + 1
            while c in used:
                c += 1
            if c <= r:
                colors[i] = c
                i, entering = i + 1, True
            else:
                colors[i] = 0
                i, entering = i - 1, False
        if i < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# greedy sequence, minimal subsets, stability probe, chromatic bracket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GreedyRun:
    sequence: tuple[int, ...]
    period: Optional[int]
    cycle: Optional[tuple[int, ...]]

    def witness(self, m: ZSetLike, arity: int) -> Optional[PeriodicColoring]:
        if self.cycle is None:
            return None
        coloring = PeriodicColoring(len(self.cycle), self.cycle)
        if coloring.is_valid_for(_normalize_distances(m), arity):
            return coloring
        return None


def greedy_coloring(m: ZSetLike, n_terms: int) -> GreedyRun:
    """First n_terms of the greedy avoiding sequence over |M|+1 colors.

    Rule: positions <= 0 carry color 1; each later position takes the least
    color differing from every position one M-distance back.  Detects the
    eventual cycle when it closes within the generated range.
    """
    dists = _normalize_distances(m)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    palette = len(dists) + 1
    top = max(dists)
    z: dict[int, int] = {}

    def zval(i: int) -> int:
        return z.get(i, 1) if i >= 1 else 1

    seen: dict[tuple[int, ...], int] = {}
    period = None
    cycle = None
    for i in range(1, n_terms + 1):
        forbidden = {zval(i - mm) for mm in dists}
        z[i] = next(c for c in range(1, palette + 1) if c not in forbidden)
        if period is None and i >= top:
            state = tuple(z[j] for j in range(i - top + 1, i + 1))
            j0 = seen.get(state)
            if j0 is not None:
                raw = tuple(z[j] for j in range(j0 + 1, i + 1))
                cycle = _primitive_rotation(raw)
                period = len(cycle)
            else:
                seen[state] = i
    return GreedyRun(
        sequence=tuple(z[i] for i in range(1, n_terms + 1)),
        period=period,
        cycle=cycle,
    )


@dataclass(frozen=True)
class MinimalSubsetResult:
    status: Status
    subset: IntSet
    removed: tuple[int, ...]
    verdict: Optional[Verdict]


def minimal_r_birkhoff_subset(m: ZSetLike, r: int, limits: SearchLimits | None = None) -> MinimalSubsetResult:
    """Greedy removal: drop each element (ascending) whose removal keeps the
    R_BIRKHOFF verdict.  Any UNDECIDED sub-check aborts with partial progress.
    """
    dists = list(_normalize_distances(m))
    base = check_r_birkhoff(dists, r, limits)
    if base.status is not Status.R_BIRKHOFF:
        return MinimalSubsetResult(base.status, IntSet(tuple(dists)), (), base)
    removed: list[int] = []
    current = list(dists)
    last = base
    for elem in list(dists):
        if len(current) == 1:
            break
        trial = [e for e in current if e != elem]
        verdict = check_r_birkhoff(trial, r, limits)
        if verdict.status is Status.UNDECIDED:
            return MinimalSubsetResult(
                Status.UNDECIDED, IntSet(tuple(current)), tuple(removed), verdict
            )
        if verdict.status is Status.R_BIRKHOFF:
            current = trial
            removed.append(elem)
            last = verdict
    return MinimalSubsetResult(Status.R_BIRKHOFF, IntSet(tuple(current)), tuple(removed), last)


@dataclass(frozen=True)
class StableProbeResult:
    verdict: Verdict
    strategy: str  # "layer_shortcut" or "direct"
    layer_used: Optional[int]
    truncation: IntSet


def stably_r_birkhoff_probe(
    family_r: int,
    removed: ZSetLike = (),
    k_max: int = 3,
    arity: Optional[int] = None,
    limits: SearchLimits | None = None,
) -> StableProbeResult:
    """Finite-removal stability probe for the layered geometric family.

    Removing finitely many elements cannot destroy every layer; if a whole
    layer survives and the query arity does not exceed the family parameter,
    that single layer already certifies the verdict (its window certificate
    is valid for the superset, which only has more edges).
    """
    from .intsets import gen_l_r, l_r_layer

    arity = family_r if arity is None else arity
    removed_set = set(as_int_list(removed))
    family = gen_l_r(family_r, k_max)
    truncation = IntSet(tuple(e for e in family if e not in removed_set))
    if not truncation:
        raise EmptyInput("every element of the truncation was removed")

    if arity <= family_r:
        for k in range(k_max + 1):
            layer = l_r_layer(family_r, k)
            if all(e not in removed_set for e in layer):
                verdict = check_r_birkhoff(layer, arity, limits)
                if verdict.status is Status.R_BIRKHOFF:
                    return StableProbeResult(verdict, "layer_shortcut", k, truncation)
                break  # fall through to the direct check
    verdict = check_r_birkhoff(truncation, arity, limits)
    return StableProbeResult(verdict, "direct", None, truncation)


@dataclass(frozen=True)
class ChromaticBracket:
    lower: int
    upper: int
    exact: bool
    nodes: int


def chromatic_number_window(m: ZSetLike, window: int, limits: SearchLimits | None = None) -> ChromaticBracket:
    """Exact chromatic number of the window distance graph, or a bracket if
    the node budget runs out."""
    dists = _normalize_distances(m)
    if window < 1:
        raise ValueError("window must be >= 1")
    node_budget = (limits or SearchLimits()).node_budget
    budget = _Budget(node_budget)
    adj = _window_adjacency(window, dists)
    greedy_upper = 1
    for comp in _components(adj):
        greedy = _greedy_dsatur_colors(adj, comp)
        greedy_upper = max(greedy_upper, max(greedy.values()))
    lower = 1
    for r in range(1, greedy_upper + 1):
        try:
            if _refutation(adj, r, budget) is None:
                return ChromaticBracket(lower=r, upper=r, exact=True, nodes=budget.spent)
            lower = r + 1
        except _OutOfBudget:
            return ChromaticBracket(lower=lower, upper=greedy_upper, exact=False, nodes=budget.spent)
    return ChromaticBracket(lower=greedy_upper, upper=greedy_upper, exact=True, nodes=budget.spent)


__all__ = [
    "Status",
    "PeriodicColoring",
    "WindowUnsat",
    "PeriodicWitness",
    "Certificate",
    "Verdict",
    "SearchLimits",
    "SearchStats",
    "certificate_to_json",
    "certificate_from_json",
    "proof_to_json",
    "check_r_birkhoff",
    "verify_certificate",
    "greedy_coloring",
    "GreedyRun",
    "minimal_r_birkhoff_subset",
    "MinimalSubsetResult",
    "stably_r_birkhoff_probe",
    "StableProbeResult",
    "chromatic_number_window",
    "ChromaticBracket",
    "window_r_colorable",
]
