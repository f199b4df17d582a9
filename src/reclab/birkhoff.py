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

The two forms exclude each other: an UNSAT window forbids every periodic
coloring, and a periodic coloring colors every window.  So the order in
which windows and periods are tried decides only the cost, and the first
verdict found is canonical: the least UNSAT window, or the solver's
coloring at the least colorable period, colors renamed in order of first
use along residues 0..p-1.  The search tries period p right after window
2p, since most queries end on a window and every period tried before that
window is wasted.  At an arity above |M| it builds no window: a new vertex
has at most |M| neighbours behind it, so no window can be refuted.
Exhausted limits yield UNDECIDED, never a wrong answer.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from itertools import islice
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator, Optional, Sequence, Union

from .errors import InvalidArity, EmptyInput, MalformedCertificate, VerificationBudgetExceeded
from . import intsets
from .intsets import ZSetLike, _check_listing, as_int_list, gen_l_r, l_r_layer

# Default cap of the independent verifier: reference-search nodes for a
# certificate without a proof, proof entries for one read from a file.
VERIFY_NODE_CAP = 50_000_000


class Status(str, Enum):
    R_BIRKHOFF = "R_BIRKHOFF"
    NOT_R_BIRKHOFF = "NOT_R_BIRKHOFF"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True, slots=True)
class PeriodicColoring:
    period: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.period < 1 or len(self.colors) != self.period:
            raise MalformedCertificate("period/colors length mismatch")

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
    search tree of one component that is not colorable, built on a subset
    D of the query distances.  It is packed as
    ``struct.pack(f"{n}{T}", len(D), *D, *vertices)``, where ``vertices``
    lists the tree's branching vertices in preorder and T is the smallest
    unsigned type that holds the window (every entry is below it).  A
    node's children are implied: one per color in 1..min(r, top + 1) that
    its colored neighbours (v +- m, m in D) leave free, in ascending
    order, where top is the largest color on its path.  A leaf is a
    vertex with no such color; as top + 1 is never blocked, that means
    all r colors are.  An (r+1)-clique is written as its r+1 vertices.
    The verifier replays it in O(len(proof) * |D|).
    """

    window: int
    arity: int
    proof: Optional[bytes] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class PeriodicWitness:
    coloring: PeriodicColoring


Certificate = Union[WindowUnsat, PeriodicWitness]


@dataclass(slots=True)
class SearchStats:
    nodes: int = 0
    windows_tried: int = 0  # 0 when r > |M|: no window can then be refuted
    periods_tried: int = 0
    budget_exhausted: bool = False
    fallback_used: bool = False
    limits: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
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


def _windows(dists: Sequence[int]) -> Iterator[list[list[int]]]:
    """The window graphs on {0..t-1} for t = 0, 1, 2, ..., each grown in
    place from the one before, so one list is yielded each time.  v's
    neighbours are in the order [v - m1, v + m1, v - m2, ...], those
    outside the window left out."""
    adj: list[list[int]] = []
    while True:
        yield adj
        v = len(adj)
        back = []
        for j, m in enumerate(dists):
            u = v - m
            if u < 0:
                break
            # adj[u] holds u - m_i for every m_i <= u and u + m_i for i < j,
            # interleaved: v = u + m_j goes right after u - m_j
            adj[u].insert(min(2 * j + 1, len(adj[u])), v)
            back.append(u)
        adj.append(back)


def _window_adjacency(window: int, dists: Sequence[int]) -> list[list[int]]:
    return next(islice(_windows(dists), max(window, 0), None))


def _circulant_steps(p: int, dists: Sequence[int]) -> list[int]:
    """The residues +-m mod p, ascending: j's neighbours in the circulant
    graph are j + t mod p."""
    return sorted({t for m in dists for t in (m % p, -m % p)})  # no 0: no m is a multiple of p


def _circulant_adjacency(p: int, dists: Sequence[int]) -> list[list[int]]:
    steps = _circulant_steps(p, dists)
    return [sorted([(j + t) % p for t in steps]) for j in range(p)]


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


# At most this many start vertices, the smallest of a component, grow a
# greedy clique.
_CLIQUE_TRIES = 12


def _greedy_cliques(adj: list[list[int]], starts: Sequence[int]) -> Iterator[list[int]]:
    """The greedy clique grown from each start: its neighbours in adjacency
    order, each kept if adjacent to all kept so far.  A clique's size is a
    sound lower bound on the chromatic number."""
    for v in starts:
        clique = [v]
        common = set(adj[v])  # the vertices adjacent to every clique vertex
        for u in adj[v]:
            if u in common:
                clique.append(u)
                common.intersection_update(adj[u])
        yield clique


def _circulant_clique_exceeds(p: int, dists: Sequence[int], r: int) -> bool:
    """Whether a greedy clique grown from one of the first _CLIQUE_TRIES
    vertices of the circulant graph has more than r vertices: the answer
    _greedy_cliques gives on _circulant_adjacency(p, dists), found without
    building the graph.

    The steps are symmetric (t is one when p - t is), so j's neighbours in
    ascending order are j + t - p for the c = #{steps <= j} largest steps,
    then j + t for the others: the steps rotated by c.  Adjacency is
    invariant under translation, so the clique from j is j plus the clique
    grown from 0 over the steps in that order, and only c decides its
    size.  Sets of residues are p-bit masks, in which u's neighbourhood is
    the step mask rotated by u."""
    steps = _circulant_steps(p, dists)
    n = len(steps)
    if n < r:  # a clique has at most n + 1 vertices
        return False
    full = (1 << p) - 1
    nbr0 = sum(1 << t for t in steps)
    for c in range(bisect_left(steps, _CLIQUE_TRIES) + 1):  # c over the starts j < min(p, _CLIQUE_TRIES)
        common, size = nbr0, 1
        for t in steps[n - c :] + steps[: n - c]:
            if common >> t & 1:
                size += 1
                common &= ((nbr0 << t) | (nbr0 >> (p - t))) & full
        if size > r:
            return True
    return False


# ---------------------------------------------------------------------------
# exact coloring searches
# ---------------------------------------------------------------------------
#
# DSATUR (Brelaz 1979) picks the uncolored vertex with the most distinct
# colors among its colored neighbours, ties broken by higher degree, then
# lower vertex.  The searches below number a graph's vertices in that
# static (-degree, v) order and keep the uncolored ones in one bitmask of
# these ranks per saturation level: a pick is the lowest bit of the
# highest non-empty level, and coloring a vertex touches only its
# neighbours.  Run on the whole graph, the greedy colors each component
# exactly as it would alone, since picks in one component never change
# another's saturations.


def _ranked(adj: list[list[int]]) -> tuple[list[int], list[int], list[list[int]]]:
    """(order, rank, nbrs): the vertices by (-degree, v), each vertex's
    position in that order, and each ranked vertex's neighbours as ranks,
    in adjacency order."""
    n = len(adj)
    order = sorted(range(n), key=list(map(len, adj)).__getitem__, reverse=True)  # stable: ties ascending
    rank = sorted(range(n), key=order.__getitem__)
    return order, rank, [list(map(rank.__getitem__, adj[v])) for v in order]


def _greedy_colors(nbrs: list[list[int]], members: int, cap: int) -> Optional[list[int]]:
    """Plain DSATUR greedy (no backtracking) on the ranks in the bitmask
    members, a union of components: the color of each rank (0 outside
    members), or None as soon as it needs a color above cap."""
    used = [1] * len(nbrs)  # bit c: a colored neighbour has color c; -1 once colored
    sat = [0] * len(nbrs)
    colors = [0] * len(nbrs)
    levels = [members]  # uncolored ranks by saturation
    for _ in range(members.bit_count()):
        s = len(levels) - 1
        while not levels[s]:
            s -= 1
        low = levels[s] & -levels[s]
        levels[s] ^= low
        i = low.bit_length() - 1
        x = used[i]
        c = (~x & (x + 1)).bit_length() - 1  # least color not in used[i]
        if c > cap:
            return None
        used[i] = -1
        colors[i] = c
        bit = 1 << c
        for j in nbrs[i]:
            x = used[j]
            if not x & bit:
                used[j] = x | bit
                s = sat[j]
                sat[j] = s + 1
                low = 1 << j
                levels[s] ^= low
                if s + 1 < len(levels):
                    levels[s + 1] |= low
                else:
                    levels.append(low)
    return colors


def _dsatur_decide(
    order: list[int],
    nbrs: list[list[int]],
    members: int,
    r: int,
    budget: _Budget,
    trace: list[int],
) -> Optional[list[int]]:
    """Exhaustive r-colorability of the ranks in the bitmask members, one
    component, DSATUR-ordered, with an explicit stack.

    A vertex takes only colors up to 1 + the largest color on its search
    path.  Renaming colors in order of first use turns any coloring into
    one that keeps this rule, so no coloring is lost, and of the up to r!
    relabellings of a partial coloring only one is searched.

    Returns the color of each rank (0 outside members) when colorable.
    Otherwise None, and trace, to which each search node's branching
    vertex is appended, holds the search tree in preorder."""
    n = len(nbrs)
    support = [[0] * (r + 1) for _ in range(n)]  # [i][c]: colored neighbours of i with color c
    sat = [0] * n
    color = [0] * n
    levels = [0] * (r + 1)  # uncolored ranks by saturation
    levels[0] = members
    path: list[tuple[int, int, int]] = []  # (rank, color, top before it) of the colored vertices
    top = 0  # the largest color on the path
    left = members.bit_count()
    descend = True
    while True:
        if descend:
            if not left:
                return color
            budget.charge()
            s = r
            while not levels[s]:
                s -= 1
            low = levels[s] & -levels[s]
            levels[s] ^= low
            i = low.bit_length() - 1
            trace.append(order[i])
            left -= 1
            c = 0
        else:
            if not path:
                return None
            i, c, top = path.pop()
            color[i] = 0
            for j in nbrs[i]:
                if not color[j]:
                    counts = support[j]
                    counts[c] -= 1
                    if not counts[c]:
                        s = sat[j]
                        sat[j] = s - 1
                        low = 1 << j
                        levels[s] ^= low
                        levels[s - 1] |= low
        counts = support[i]
        last = top + 1 if top < r else r
        c += 1
        while c <= last and counts[c]:
            c += 1
        if c > last:  # every color tried: back up
            levels[sat[i]] |= 1 << i
            left += 1
            descend = False
            continue
        color[i] = c
        for j in nbrs[i]:
            if not color[j]:
                counts = support[j]
                counts[c] += 1
                if counts[c] == 1:
                    s = sat[j]
                    sat[j] = s + 1
                    low = 1 << j
                    levels[s] ^= low
                    levels[s + 1] |= low
        path.append((i, c, top))
        if c > top:
            top = c
        descend = True


def _refutation(
    adj: list[list[int]], r: int, budget: _Budget, colors: Optional[list[int]] = None
) -> Optional[list[int]]:
    """Exact r-colorability of the whole graph, component by component.

    None when the graph is r-colorable, and then colors, if given, is set
    to an r-coloring of it, by vertex.  Otherwise the refutation of a
    component that is not, in WindowUnsat's proof format: the vertices of
    an (r+1)-clique, or the DSATUR search tree."""
    order, rank, nbrs = _ranked(adj)
    whole = (1 << len(adj)) - 1
    found = _greedy_colors(nbrs, whole, r)
    if found is None:
        found = [0] * len(adj)
        for comp in _components(adj):
            ranks = [rank[v] for v in comp]
            if len(comp) <= r:  # trivially colorable
                for c, i in enumerate(ranks, 1):
                    found[i] = c
                continue
            members = sum(1 << i for i in ranks)
            # on the whole graph this is the call that has just failed
            part = None if members == whole else _greedy_colors(nbrs, members, r)
            if part is None:
                clique = max(_greedy_cliques(adj, comp[:_CLIQUE_TRIES]), key=len)  # the first largest
                if len(clique) > r:
                    return clique[: r + 1]
                trace: list[int] = []
                part = _dsatur_decide(order, nbrs, members, r, budget, trace)
                if part is None:
                    return trace
            for i in ranks:
                found[i] = part[i]
    if colors is not None:
        colors[:] = [found[i] for i in rank]
    return None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def check_r_birkhoff(m: ZSetLike, r: int, limits: SearchLimits | None = None) -> Verdict:
    """Windows and periods in turn, period p right after window 2p, and
    periods alone at r > |M|; see the module docstring."""
    if r < 1:
        raise InvalidArity(f"arity must be >= 1, got {r}")
    dists = _normalize_distances(m)
    limits = (limits or SearchLimits()).resolved(dists)
    budget = _Budget(limits.node_budget)
    stats = SearchStats(limits=dict(vars(limits)))

    def finish(status, cert):
        stats.nodes = budget.spent
        return Verdict(status, cert, stats)

    colors: list[int] = []  # an r-coloring of the last window, which was colorable
    # past |M| colors a new vertex, with at most |M| neighbours behind it,
    # always extends in place, so no window can be refuted
    max_window = limits.max_window if r <= len(dists) else 0
    lag = 2 if max_window else 1  # period p is tried right after window lag * p
    try:
        windows = islice(_windows(dists), 1, None)
        for t in range(1, max(max_window, lag * limits.max_period) + 1):
            if t <= max_window:
                stats.windows_tried = t
                adj = next(windows)
                # the new vertex t - 1 has neighbours only behind it: if
                # they leave it a color, the coloring extends in place
                blocked = {colors[u] for u in adj[-1]}
                c = 1
                while c in blocked:
                    c += 1
                if c <= r:
                    colors.append(c)
                else:
                    proof = _refutation(adj, r, budget, colors)
                    if proof is not None:
                        # distances >= t add no edge, and leaving them out
                        # keeps every packed entry below t
                        packed = _pack_proof(t, [mm for mm in dists if mm < t], proof)
                        return finish(Status.R_BIRKHOFF, WindowUnsat(window=t, arity=r, proof=packed))
            p, off = divmod(t, lag)
            if not off and p <= limits.max_period and all(mm % p != 0 for mm in dists):
                stats.periods_tried += 1
                witness = _circulant_witness(dists, p, r, budget)
                if witness is not None:
                    return finish(Status.NOT_R_BIRKHOFF, PeriodicWitness(witness))
    except _OutOfBudget:
        stats.budget_exhausted = True
        if r <= len(dists):
            return finish(Status.UNDECIDED, None)
        budget.left = intsets.HIT_CAP  # the fallback gets its own allowance

    # enumeration exhausted, honestly or not; if the arity exceeds |M| a
    # periodic witness always exists, and the greedy tail construction
    # finds one
    if r > len(dists):
        witness = _greedy_cycle_witness(dists, r, budget)
        if witness is not None:
            stats.fallback_used = True
            return finish(Status.NOT_R_BIRKHOFF, PeriodicWitness(witness))
    return finish(Status.UNDECIDED, None)


def _circulant_witness(dists: Sequence[int], p: int, r: int, budget: _Budget) -> Optional[PeriodicColoring]:
    if p > r and _circulant_clique_exceeds(p, dists, r):
        return None
    colors: list[int] = []
    if _refutation(_circulant_adjacency(p, dists), r, budget, colors) is not None:
        return None
    first_use: dict[int, int] = {}  # each color's new name, in order of first use along 0..p-1
    coloring = PeriodicColoring(p, tuple(first_use.setdefault(c, len(first_use) + 1) for c in colors))
    assert coloring.is_valid_for(dists, r)
    return coloring


def _greedy_cycle_witness(dists: Sequence[int], r: int, budget: _Budget) -> Optional[PeriodicColoring]:
    """Cycle of the greedy avoiding sequence, as a (possibly long) witness;
    one budget charge per term generated, the closing term included, and
    at most HIT_CAP terms."""
    # the (left + 1)-th term overdraws the budget, so none after it is needed
    terms, cycle = _greedy_cycle(dists, min(intsets.HIT_CAP, budget.left + 1))
    try:
        budget.charge(len(terms))
    except _OutOfBudget:
        return None
    return None if cycle is None else _cycle_witness(cycle, dists, r)


def _greedy_cycle(dists: Sequence[int], limit: int) -> tuple[list[int], Optional[tuple[int, ...]]]:
    """The greedy avoiding sequence over |M|+1 colors, up to the term at
    which its state first repeats or to `limit` terms, whichever comes
    first: (terms, cycle), where cycle is the lex-least rotation of the
    period that the terms repeat from then on, or None when the state did
    not repeat within limit.

    Rule: positions <= 0 carry color 1; each later position takes the least
    color differing from every position one M-distance back.  A term depends
    only on the max(M) terms before it, so once such a state repeats the
    sequence is periodic.  That period is primitive: a shorter period of
    the terms would have repeated a state sooner.

    A term costs O(|M|): the forbidden colors are a bitmask, and the state
    is an integer holding the last max(M) terms in `width` bits each.
    """
    top = max(dists)
    width = (len(dists) + 1).bit_length()
    mask = (1 << width * top) - 1
    z = [1] * top  # positions 1 - top .. 0, then z[top - 1 + i] is term i
    state = 0  # the latest term in the low bits; whole once i >= top
    seen: dict[int, int] = {}
    for i in range(1, limit + 1):
        used = 1  # bit c is set when color c is taken; there is no color 0
        for mm in dists:
            used |= 1 << z[-mm]
        c = (~used & (used + 1)).bit_length() - 1
        z.append(c)
        state = (state << width | c) & mask
        if i >= top and seen.setdefault(state, i) != i:
            return z[top:], _least_rotation(tuple(z[seen[state] + top :]))
    return z[top:], None


def _cycle_witness(cycle: tuple[int, ...], dists: Sequence[int], r: int) -> Optional[PeriodicColoring]:
    coloring = PeriodicColoring(len(cycle), cycle)
    return coloring if coloring.is_valid_for(dists, r) else None


def _least_rotation(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """The lex-least rotation, in linear time: candidate starts i < j, where
    a mismatch after k equal terms rules out the larger side's start and
    the k starts after it, none of which can then be the least."""
    n, s = len(cycle), cycle + cycle
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j, i + k) + 1
        else:
            j += k + 1
        k = 0
    return s[i : i + n]


def verify_certificate(m: ZSetLike, r: int, cert: Certificate, node_cap: int = VERIFY_NODE_CAP) -> bool:
    """Independent re-check of a certificate.

    Periodic witnesses are checked residue by residue, in O(period * |M|),
    and only up to a period of node_cap; a longer one raises
    VerificationBudgetExceeded before any residue is checked.  A window
    certificate with a proof has the proof replayed, which shares no code
    with the solver.  One without a proof is re-proved by a plain
    left-to-right exhaustive search under node_cap, and only up to the
    solver's default window of 4 * max M and up to node_cap vertices; a
    larger one raises VerificationBudgetExceeded.
    """
    dists = _normalize_distances(m)
    if isinstance(cert, PeriodicWitness):
        if cert.coloring.period > node_cap:
            raise VerificationBudgetExceeded(f"period {cert.coloring.period} exceeds the node cap {node_cap}")
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
        if cert.window > node_cap:  # refused before its graph is built
            raise VerificationBudgetExceeded(f"window {cert.window} exceeds the node cap {node_cap}")
        return not _reference_window_colorable(dists, cert.window, r, node_cap)
    raise MalformedCertificate(f"unknown certificate object {cert!r}")


def _replay_refutation(dists: Sequence[int], window: int, r: int, proof: bytes) -> bool:
    """Walk a packed refutation (see WindowUnsat) and accept it only if it
    is a complete search tree whose every leaf has all r colors blocked.

    A node's children are the free colors up to 1 + the largest color on
    its path.  A proper r-coloring, its colors renamed in order of first
    use along a path, would follow one child at every node down to a leaf,
    where the leaf's vertex would have no color: so no such coloring
    exists.  Neighbours come straight from the proof's distances D, which
    must be query distances; the cost is O(len(proof) * |D|).
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
    path: list[list] = []  # per open node: [vertex, free colors, index of the one in use, path max]
    for pos, v in enumerate(vertices):
        if v >= window or v in colors:
            return False
        top = path[-1][3] if path else 0
        blocked = {colors.get(v + d) for d in offsets}
        free = [c for c in range(1, min(r, top + 1) + 1) if c not in blocked]
        if free:
            colors[v] = free[0]
            path.append([v, free, 0, max(top, free[0])])
            continue
        # a leaf: move on to the next free color of the deepest open node
        while path:
            node = path[-1]
            node[2] += 1
            if node[2] < len(node[1]):
                c = colors[node[0]] = node[1][node[2]]
                node[3] = max(node[3], c)  # free colors ascend
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
        return _cycle_witness(self.cycle, _normalize_distances(m), arity)


def greedy_coloring(m: ZSetLike, count: int) -> GreedyRun:
    """First count terms of the greedy avoiding sequence over |M|+1 colors
    (see _greedy_cycle), with its cycle when that closes within them; terms
    past the closing one are copied as whole periods.  Raises
    ListingBudgetExceeded, before any term, when count exceeds HIT_CAP."""
    dists = _normalize_distances(m)
    if count < 1:
        raise ValueError("term count must be >= 1")
    _check_listing(count, 0, "greedy coloring")
    terms, cycle = _greedy_cycle(dists, count)
    if cycle is not None:
        tail = terms[-len(cycle) :]
        reps, extra = divmod(count - len(terms), len(cycle))
        terms += tail * reps + tail[:extra]
    return GreedyRun(
        sequence=tuple(terms),
        period=None if cycle is None else len(cycle),
        cycle=cycle,
    )


@dataclass(frozen=True)
class MinimalSubsetResult:
    status: Status
    subset: tuple[int, ...]
    removed: tuple[int, ...]
    verdict: Optional[Verdict]


def minimal_r_birkhoff_subset(m: ZSetLike, r: int, limits: SearchLimits | None = None) -> MinimalSubsetResult:
    """Greedy removal: drop each element (ascending) whose removal keeps the
    R_BIRKHOFF verdict.  Any UNDECIDED sub-check aborts with partial progress.
    """
    dists = list(_normalize_distances(m))
    base = check_r_birkhoff(dists, r, limits)
    if base.status is not Status.R_BIRKHOFF:
        return MinimalSubsetResult(base.status, tuple(dists), (), base)
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
                Status.UNDECIDED, tuple(current), tuple(removed), verdict
            )
        if verdict.status is Status.R_BIRKHOFF:
            current = trial
            removed.append(elem)
            last = verdict
    return MinimalSubsetResult(Status.R_BIRKHOFF, tuple(current), tuple(removed), last)


@dataclass(frozen=True)
class StableProbeResult:
    verdict: Verdict
    strategy: str  # "layer_shortcut" or "direct"
    layer_used: Optional[int]
    truncation: tuple[int, ...]


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
    arity = family_r if arity is None else arity
    removed_set = set(as_int_list(removed))
    family = gen_l_r(family_r, k_max)
    truncation = tuple(e for e in family if e not in removed_set)
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
    the node budget runs out.  A window of more than VERIFY_NODE_CAP
    vertices, the verifier's cap, raises VerificationBudgetExceeded before
    its graph is built."""
    dists = _normalize_distances(m)
    if window < 1:
        raise ValueError("window must be >= 1")
    if window > VERIFY_NODE_CAP:
        raise VerificationBudgetExceeded(f"window {window} exceeds the node cap {VERIFY_NODE_CAP}")
    node_budget = (limits or SearchLimits()).node_budget
    budget = _Budget(node_budget)
    adj = _window_adjacency(window, dists)
    greedy_upper = max(_greedy_colors(_ranked(adj)[2], (1 << window) - 1, window))
    lower = 1
    for r in range(1, greedy_upper + 1):
        try:
            if _refutation(adj, r, budget) is None:
                return ChromaticBracket(lower=r, upper=r, exact=True, nodes=budget.spent)
            lower = r + 1
        except _OutOfBudget:
            return ChromaticBracket(lower=lower, upper=greedy_upper, exact=False, nodes=budget.spent)
    return ChromaticBracket(lower=greedy_upper, upper=greedy_upper, exact=True, nodes=budget.spent)
