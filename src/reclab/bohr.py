"""Bohr-set arithmetic on the circle and torus, in exact arithmetic.

A frequency spec (alphas; eps) describes the integer set
{n : dist(n*alpha, Z^k) < eps} with the Euclidean distance on the k-torus.
Membership is decided exactly for rational and quadratic-surd alphas, over
any number of quadratic fields; only the displayed norm and margin of a
multi-frequency member query are tracked-error approximations.  Alphas that
are already approximations (float input) keep their tracked error and raise
UncertainAtPrecision instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    EmptyInput,
    PruningBudgetExceeded,
    UncertainAtPrecision,
)
from .exactreal import (
    Approx,
    Real,
    Surd,
    TorusPoint,
    as_real,
    real_abs,
    real_add,
    real_cmp,
    real_eq,
    real_floor,
    real_frac,
    real_mul_int,
    real_sort,
    real_sub,
    torus_norm,
    torus_norm1,
    torus_norm_lt,
)
from .intsets import Window, ZSetLike, as_int_list


@dataclass(frozen=True)
class BohrSpec:
    """Frequency vector plus an open radius; 0 < eps <= 1/2."""

    alphas: tuple[TorusPoint, ...]
    eps: Fraction

    def __post_init__(self):
        if not self.alphas:
            raise EmptyInput("spec needs at least one frequency")
        if not (0 < self.eps <= Fraction(1, 2)):
            raise ValueError("eps must satisfy 0 < eps <= 1/2")

    @property
    def dim(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class Membership:
    member: bool
    norm: Real
    margin: Real  # |norm - eps|, how far the call was from flipping


def bohr_membership(n: int, spec: BohrSpec) -> Membership:
    """Is n in the set described by `spec`?  Decided exactly (or raises)."""
    xs = [a.multiple(n) for a in spec.alphas]
    member = torus_norm_lt(xs, spec.eps)
    norm = torus_norm(xs)
    return Membership(member, norm, real_abs(real_sub(norm, spec.eps)))


def bohr_enumerate(spec: BohrSpec, window: Window) -> tuple[int, ...]:
    """All nonzero n in the window with dist(n*alpha) < eps, ascending.

    Membership only: no norm or margin is computed.  Undecidable n (an
    Approx frequency) are collected and raised together so the caller can
    rerun at higher precision.
    """
    hits, ambiguous = [], []
    for n in window:
        if n == 0:
            continue
        try:
            if torus_norm_lt([a.multiple(n) for a in spec.alphas], spec.eps):
                hits.append(n)
        except UncertainAtPrecision:
            ambiguous.append(n)
    if ambiguous:
        raise UncertainAtPrecision(
            f"{len(ambiguous)} values undecidable at current precision",
            ambiguous=ambiguous,
        )
    return tuple(hits)


# ---------------------------------------------------------------------------
# continued fractions and the gap structure of orbits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    quotients: tuple[int, ...]
    convergents: tuple[Fraction, ...]
    terminated: bool  # the input was rational and fully expanded

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(c.denominator for c in self.convergents)


def continued_fraction(alpha, depth: int = 30) -> ContinuedFraction:
    """Continued fraction expansion with convergents p_j/q_j.

    Exact for rational and quadratic-surd inputs.  The approximation
    quality invariant dist(q_j * alpha) < 1/q_{j+1} is asserted as the
    convergents are produced.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    x = alpha.value if isinstance(alpha, TorusPoint) else as_real(alpha)
    if isinstance(x, Approx):
        x = x.value  # expand the midpoint; the result is flagged rational
    quotients: list[int] = []
    terminated = False
    cur: Real = x
    for _ in range(depth + 1):
        a = real_floor(cur)
        quotients.append(a)
        frac = real_sub(cur, Fraction(a))
        if isinstance(frac, Fraction) and frac == 0:
            terminated = True
            break
        if isinstance(frac, Fraction):
            cur = 1 / frac
        elif isinstance(frac, Surd):
            cur = frac.reciprocal()
        else:
            raise UncertainAtPrecision("cannot expand an approximate remainder")

    convergents: list[Fraction] = []
    p_prev, p_cur = 1, quotients[0]
    q_prev, q_cur = 0, 1
    convergents.append(Fraction(p_cur, q_cur))
    for a in quotients[1:]:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        convergents.append(Fraction(p_cur, q_cur))

    # quality invariant, checked exactly wherever the next denominator exists;
    # a terminated (rational) expansion ends with equality: the determinant
    # identity gives dist(q_{n-1} alpha) = 1/q_n exactly
    for j in range(len(convergents) - 1):
        qj = convergents[j].denominator
        qnext = convergents[j + 1].denominator
        norm = torus_norm1(real_mul_int(x, qj))
        cmp = real_cmp(norm, Fraction(1, qnext))
        final_pair = terminated and j + 1 == len(convergents) - 1
        assert cmp < 0 or (final_pair and cmp == 0), "convergent quality violated"

    return ContinuedFraction(tuple(quotients), tuple(convergents), terminated)


@dataclass(frozen=True)
class ThreeDistanceResult:
    gaps: tuple[Real, ...]       # circular gaps, ascending, with multiplicity
    distinct: tuple[Real, ...]   # the distinct gap lengths (at most three)


def three_distance(alpha, count: int) -> ThreeDistanceResult:
    """Circular gap structure of {j*alpha mod 1 : 0 <= j <= count}."""
    point = alpha if isinstance(alpha, TorusPoint) else TorusPoint(alpha)
    if count < 1:
        raise ValueError("count must be >= 1")
    values = [real_frac(point.multiple(j)) for j in range(count + 1)]
    values = real_sort(values)
    dedup: list[Real] = []
    for v in values:
        if not dedup or not real_eq(dedup[-1], v):
            dedup.append(v)
    gaps = [real_sub(b, a) for a, b in zip(dedup, dedup[1:])]
    gaps.append(real_sub(real_add(Fraction(1), dedup[0]), dedup[-1]))  # wrap
    gaps = real_sort(gaps)
    distinct: list[Real] = []
    for g in gaps:
        if not distinct or not real_eq(distinct[-1], g):
            distinct.append(g)
    assert len(distinct) <= 3, "circle orbit produced more than three gap lengths"
    return ThreeDistanceResult(tuple(gaps), tuple(distinct))


# ---------------------------------------------------------------------------
# interval pruning: witnesses for lacunary avoidance and Bohr separation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessInterval:
    lo: Fraction
    hi: Fraction
    stages: int
    surviving: int        # interval count after the last stage
    total_measure: Fraction

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _prune_stage(
    intervals: list[tuple[Fraction, Fraction]], n: int, delta: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """Intersect with {alpha : dist(n*alpha, Z) >= delta} exactly.

    Keeps [max(lo, (j + delta)/n), min(hi, (j + 1 - delta)/n)] for every j
    where it is nonempty.  The cut points share the denominator
    n*delta.denominator, so max, min and the emptiness test are integer
    cross-multiplications, and a Fraction is built only for a kept cut point.
    """
    dn, dd = delta.numerator, delta.denominator
    den = n * dd
    width = dd - 2 * dn  # (j + 1 - delta)/n - (j + delta)/n, over den
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in intervals:
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        lo_cross, hi_cross = ln * den, hn * den
        j_first = ln * n // ld - 1
        j_last = -(-hn * n // hd) + 1
        for a in range(j_first * dd + dn, j_last * dd + dn + 1, dd):
            b = a + width  # the cut points are a/den and b/den
            a_cut, b_cut = a * ld > lo_cross, b * hd < hi_cross
            an, ad = (a, den) if a_cut else (ln, ld)
            bn, bd = (b, den) if b_cut else (hn, hd)
            if an * bd <= bn * ad:
                out.append((
                    Fraction(a, den) if a_cut else lo,
                    Fraction(b, den) if b_cut else hi,
                ))
    return out


def _prune(values: Sequence[int], delta: Fraction, cap: int) -> list[tuple[Fraction, Fraction]]:
    if delta <= 0 or delta >= Fraction(1, 2):
        raise ValueError("delta must satisfy 0 < delta < 1/2")
    intervals = [(Fraction(0), Fraction(1))]
    for n in values:
        intervals = _prune_stage(intervals, n, delta)
        if not intervals:
            return []
        if len(intervals) > cap:
            raise PruningBudgetExceeded(f"interval count exceeded {cap}")
    return intervals


def lacunary_witness(
    seq: ZSetLike, delta: Fraction, depth: Optional[int] = None, budget: int = 20_000
) -> Optional[WitnessInterval]:
    """Closed rational interval of alphas with dist(n*alpha) >= delta for the
    first `depth` elements of seq; None when pruning empties out.

    Returns the longest surviving interval (leftmost on ties).
    """
    values = [v for v in as_int_list(seq) if v > 0]
    if not values:
        raise EmptyInput("no positive elements to prune against")
    if depth is not None:
        values = values[:depth]
    delta = Fraction(delta)
    intervals = _prune(values, delta, budget)
    if not intervals:
        return None
    best = max(intervals, key=lambda iv: (iv[1] - iv[0], -iv[0]))
    measure = sum((b - a for a, b in intervals), Fraction(0))
    return WitnessInterval(
        lo=best[0], hi=best[1], stages=len(values),
        surviving=len(intervals), total_measure=measure,
    )


def revalidate_witness(seq: ZSetLike, delta: Fraction, witness: WitnessInterval) -> bool:
    """Exact re-check at the endpoints and midpoint of the returned interval."""
    values = [v for v in as_int_list(seq) if v > 0][: witness.stages]
    delta = Fraction(delta)
    for alpha in (witness.lo, witness.midpoint, witness.hi):
        for n in values:
            if torus_norm1(Fraction(n) * alpha) < delta:
                return False
    return True


def bohr_separation_search(
    l_set: ZSetLike, eps: Fraction, grid_depth: int = 20_000
) -> Optional[BohrSpec]:
    """Search for a single-frequency spec whose set misses l_set entirely.

    dist(n*alpha) >= eps for every n in l_set means the described set
    contains no element of l_set; interval pruning finds such alphas
    exactly.  grid_depth caps the pruning interval count.
    """
    eps = Fraction(eps)
    values = [abs(v) for v in as_int_list(l_set) if v != 0]
    if not values:
        raise EmptyInput("empty target set")
    intervals = _prune(sorted(set(values)), eps, grid_depth)
    if not intervals:
        return None
    lo, hi = max(intervals, key=lambda iv: (iv[1] - iv[0], -iv[0]))
    alpha = (lo + hi) / 2
    # exact post-check before promising anything
    for n in values:
        if torus_norm1(Fraction(n) * alpha) < eps:
            return None
    return BohrSpec(alphas=(TorusPoint(alpha),), eps=eps)


# ---------------------------------------------------------------------------
# cyclic obstructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicObstruction:
    modulus: int
    absolute: bool          # proved for the full generator, not just the listing
    residues_checked: int


def cyclic_obstruction(
    l_set: ZSetLike, m_max: int, polynomial: Optional[Sequence] = None
) -> Optional[CyclicObstruction]:
    """Smallest modulus 2..m_max no element of l_set is divisible by.

    With a polynomial generator supplied (ascending coefficients), the
    verdict upgrades to absolute when the residues p(n) mod m avoid 0 over a
    full period of n; the listing-level check alone is truncation-relative.
    """
    elems = [e for e in as_int_list(l_set) if e != 0]
    if not elems:
        raise EmptyInput("empty set")
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    for m in range(2, m_max + 1):
        if any(e % m == 0 for e in elems):
            continue
        absolute = False
        checked = len(elems)
        if polynomial is not None:
            absolute, checked = _full_period_avoids_zero(polynomial, m)
            if not absolute:
                # the full generator hits the residue class even though the
                # truncation missed it; keep looking for an honest modulus
                continue
        return CyclicObstruction(modulus=m, absolute=absolute, residues_checked=checked)
    return None


def _full_period_avoids_zero(coeffs: Sequence, m: int) -> tuple[bool, int]:
    from math import lcm

    from .intsets import poly_eval_int

    cs = [Fraction(c) for c in coeffs]
    scale = lcm(*[c.denominator for c in cs]) if cs else 1
    period = m * scale
    for n in range(period):
        if poly_eval_int(cs, n) % m == 0:
            return False, n + 1
    return True, period


def bohr_spec_to_json(spec: BohrSpec) -> dict:
    from .exactreal import real_to_json

    return {
        "alphas": [real_to_json(a.value) for a in spec.alphas],
        "eps": f"{spec.eps.numerator}/{spec.eps.denominator}",
        "eps_float": float(spec.eps),
        "dim": spec.dim,
    }
