"""Reference computations for the differential tests.

The circle kernel in ``reclab.bohr`` replaced the sorting three-gap
computation and scans that test every n or m; they use only the package's
exact comparisons, never the kernel.  The integer torus-norm decisions of
``reclab.bohr`` (its torus test and record scan) replaced the Surd-level
ones kept here: squared circle norms built as Surds and Fractions and
signed by ``real_sum_sign`` (``torus_norm_lt``, ``norm_records``), which
folds exact terms of any quadratic fields into the integers that
``reclab.exactreal._int_sum_sign`` signs; ``reclab.exactreal`` itself
compares within one field only.  The
circle branch of ``reclab.bohr.record_times``, which compares the reduced
pair |A + B*sqrt(d)| unsquared, replaced running every n through the
integer squared norm (``sq_norm_record_times``).  The point-free moving-recurrence
functionals in ``reclab.dynamics`` replaced stepping orbit points and
minimising their differences.  The torus norm that ``reclab.bohr.torus_norm``
displays from its integer square is checked against ``decimal_norm``, which
evaluates each coordinate in 60-digit decimal arithmetic.  The rolling-state
greedy generator in
``reclab.birkhoff`` replaced one that hashes a tuple of the last max(M)
terms per term; the oracle keeps its own copy of the primitive rotation
that tries every period and every rotation
(``quadratic_primitive_rotation``).  The bytearray sieve of ``reclab.bohr.cyclic_obstruction``
replaced testing every element at every modulus (``looping_obstruction``).
``bracket_float`` rounds a surd from Fraction brackets, for checking the
float that ``Surd`` computes in integers; ``sqrt_convergents`` lists the
convergents p/q of sqrt(d), whose q*sqrt(d) - p are tiny.  The one-pass JSON writer of
``reclab.cli`` replaced copying a document through ``json_safe`` and
dumping the copy with ``json.dumps(..., indent=2, sort_keys=True)``.
The circle kernel of ``reclab.bohr`` takes a surd's partial quotients
from the PQa recurrence, where it floored two lengths per quotient; that
Euclidean walk is kept here (``floor_walk``).
A periodic witness of ``reclab.birkhoff`` is the solver's own coloring with
its colors renamed in order of first use, where it was the lex-least
vector; ``in_first_use_order`` checks that naming.
``reclab.dynamics.verify_nuu`` decides the reverse inclusion by the density
constant where that applies, proves the forward one by the triangle
inequality, and walks one kernel per coordinate for all its listings;
``bitmask_verify_nuu`` lists the point returns, the set returns and the
enlarged ball's returns by the public listing functions, computes every
difference of point returns on their bitmask, and decides every set
return on the enlarged ball's bitmask.
"""

import functools
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from itertools import count
from math import isqrt, lcm

from reclab.bohr import CyclicObstruction, _full_period_avoids_zero, _int_parts, _Pair, _sq_norm, torus_norm
from reclab.dynamics import BallSpec, NuuReport, _bitmask, return_times_point, return_times_set
from reclab.errors import NoSuchM
from reclab.exactreal import (
    Surd,
    TorusPoint,
    _int_sum_sign,
    real_add,
    real_cmp,
    real_frac,
    real_mul,
    real_mul_int,
    real_sub,
    real_to_float,
    torus_norm1,
)
from reclab.intsets import as_int_list


def bracket_float(p: Fraction, q: Fraction, d: int) -> float:
    """float(p + q*sqrt(d)) for a non-square d, from Fraction brackets of
    sqrt(d) widened until both ends round to one float: an irrational value
    is never a tie, so that float is the correctly rounded one.  The first
    bracket is under 2**-64 wide, so no end of it overflows a float."""
    bits = 64 + q.numerator.bit_length()
    while True:
        n = isqrt(d << 2 * bits)
        lo, hi = p + q * Fraction(n, 1 << bits), p + q * Fraction(n + 1, 1 << bits)
        if float(lo) == float(hi):
            return float(lo)
        bits *= 2


def sqrt_convergents(d: int, count: int) -> list[tuple[int, int]]:
    """Convergents p/q of sqrt(d), so that q*sqrt(d) - p is tiny, of either sign."""
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p, q_prev, q = 1, a0, 0, 1
    out = [(p, q)]
    for _ in range(count):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append((p, q))
    return out


def signed_convergent(d: int, bits: int, sign: int) -> tuple[int, int]:
    """The first convergent p/q of sqrt(d) with q above 2**bits and
    q*sqrt(d) - p of the given sign."""
    return next(
        (p, q) for p, q in sqrt_convergents(d, 6000)
        if q.bit_length() > bits and (q * q * d > p * p) == (sign > 0)
    )


def real_sum_sign(terms, bound=0) -> int:
    """Sign of sum(terms) - bound, for terms that are ints, Fractions or
    Surds of any quadratic fields and a rational bound.  The rational parts
    fold into one numerator and denominator and each field's sqrt(d)
    coefficients into one b/c; over a common denominator,
    ``_int_sum_sign`` decides the sign, and no Fraction is built.  Any other
    term raises TypeError."""
    num, den = -bound.numerator, bound.denominator
    fields: dict[int, tuple[int, int]] = {}
    for t in terms:
        if isinstance(t, Surd):
            a, b, c, d = t.a, t.b, t.c, t.d
            f = fields.get(d)
            fields[d] = (b, c) if f is None else (f[0] * c + b * f[1], f[1] * c)
        elif isinstance(t, (int, Fraction)):
            a, c = t.numerator, t.denominator
        else:
            raise TypeError(f"{t!r} is not an exact real")
        num, den = num * c + a * den, den * c
    surds = [(b, c, d) for d, (b, c) in fields.items() if b]
    # clear denominators: num/den + sum b/c sqrt(d) = (n0 + sum b' sqrt(d))/m
    m = lcm(den, *(c for _, c, _ in surds))
    return _int_sum_sign(num * (m // den), [(b * (m // c), d) for b, c, d in surds])


def torus_sq_terms(xs):
    """Squared circle norms of the coordinates of a torus vector: the terms
    of its squared Euclidean distance to the nearest lattice point."""
    return [real_mul(n, n) for n in map(torus_norm1, xs)]


def torus_norm_lt(xs, eps) -> bool:
    """Is the torus norm of xs below the rational eps?  On the circle real_cmp
    of the circle norm, on a torus real_sum_sign of the squared norms."""
    if len(xs) == 1:
        return real_cmp(torus_norm1(xs[0]), eps) < 0
    return real_sum_sign(torus_sq_terms(xs), eps * eps) < 0


def displacement_lt(sys_, n: int, t) -> bool:
    """Is the displacement norm of the n-th iterate below t?"""
    return torus_norm_lt([a.multiple(n) for a in sys_.alphas], t)


def norm_records(vectors):
    """(i, xs) for each torus vector xs whose norm is below every earlier one's;
    a tie is no record.  On the circle real_cmp of the circle norms, on a
    torus real_sum_sign of the squared norms."""
    best = None  # the record's circle norm, or its negated squared norm terms
    for i, xs in enumerate(vectors):
        if len(xs) == 1:
            norm = torus_norm1(xs[0])
            if best is None or real_cmp(norm, best) < 0:
                best = norm
                yield i, xs
            continue
        sq = torus_sq_terms(xs)
        if best is None or real_sum_sign(sq + best) < 0:
            best = [real_mul_int(t, -1) for t in sq]
            yield i, xs


def sq_norm_record_times(alphas, times):
    """record_times with every n run through _sq_norm, on the circle too:
    each comparison is one _int_sum_sign of the difference of two squared
    norms."""
    _, fields, sq = _sq_norm(alphas, (0,) * len(alphas))
    out = []
    best = None
    for n in times:
        v = sq(n)
        if best is None or _int_sum_sign(
            v[0] - best[0], [(s - t, d) for s, t, d in zip(v[1:], best[1:], fields) if s != t]
        ) < 0:
            best = v
            out.append(n)
    return out


def decimal_norm(xs):
    """(norm, square) for a torus vector xs of Fractions and Surds: its
    Euclidean distance to the nearest lattice point in 60-digit decimal
    arithmetic, and its exact square as a Fraction when that is rational,
    else None.  Each coordinate (a + b*sqrt(d))/c is evaluated from its
    integers and its nearest integer m read off that value; the exact
    square of (a - m*c + b*sqrt(d))/c has the sqrt(d) coefficient
    2*(a - m*c)*b/c**2, and coefficients of one field are summed."""
    with localcontext() as ctx:
        ctx.prec = 60
        total, rational, surd = Decimal(0), Fraction(0), {}
        for x in xs:
            a, b, c, d = (x.a, x.b, x.c, x.d) if isinstance(x, Surd) else (x.numerator, 0, x.denominator, 0)
            v = (a + b * Decimal(d).sqrt()) / c
            m = (v + Decimal(1) / 2).to_integral_value(rounding=ROUND_FLOOR)
            total += (v - m) ** 2
            a -= int(m) * c
            rational += Fraction(a * a + b * b * d, c * c)
            if b:
                surd[d] = surd.get(d, 0) + Fraction(2 * a * b, c * c)
        return total.sqrt(), rational if not any(surd.values()) else None


def step(sys_, x, n: int):
    """T^n x for a rotation: each coordinate moved by n times its frequency, reduced into [0, 1)."""
    return tuple(real_frac(real_add(xi, real_mul_int(a.value, n))) for xi, a in zip(x, sys_.alphas))


def dist_lt(x, y, t) -> bool:
    """Is the torus distance of the points x and y below t?  Decided on squared norms."""
    return torus_norm_lt([real_sub(xi, yi) for xi, yi in zip(x, y)], t)


def real_eq(x, y) -> bool:
    return real_cmp(x, y) == 0


def real_sort(values) -> list:
    return sorted(values, key=functools.cmp_to_key(real_cmp))


def sorting_three_distance(alpha, count: int):
    """(gaps ascending with multiplicity, distinct gaps) of {j*alpha : 0 <= j <= count},
    by sorting the points."""
    point = alpha if isinstance(alpha, TorusPoint) else TorusPoint(alpha)
    values = real_sort(real_frac(point.multiple(j)) for j in range(count + 1))
    dedup = []
    for v in values:
        if not dedup or not real_eq(dedup[-1], v):
            dedup.append(v)
    gaps = [real_sub(b, a) for a, b in zip(dedup, dedup[1:])]
    gaps.append(real_sub(real_add(Fraction(1), dedup[0]), dedup[-1]))
    gaps = real_sort(gaps)
    distinct = []
    for g in gaps:
        if not distinct or not real_eq(distinct[-1], g):
            distinct.append(g)
    return tuple(gaps), tuple(distinct)


def floor_walk(alpha, unit: int, count: int):
    """(quotients, q, delta) of the continued-fraction walk of alpha in
    [0, 1) up to index count, or until delta = 0: a_{k+1} is the floor
    delta_{k-1} // delta_k of two lengths, integer pairs A + B*sqrt(d) in
    units in which the circle has length unit (ints for a rational alpha),
    q_{k+1} = a_{k+1}*q_k + q_{k-1} and delta_{k+1} = delta_{k-1} -
    a_{k+1}*delta_k, from (q, delta) = (0, unit) and (1, alpha*unit)."""
    a, b, d = _int_parts(alpha, unit)
    q, delta, quotients = [0, 1], [unit, _Pair(a, b, d) if b else a], []
    while len(q) <= count and delta[-1] != 0:
        quotients.append(delta[-2] // delta[-1])
        q.append(quotients[-1] * q[-1] + q[-2])
        delta.append(delta[-2] - quotients[-1] * delta[-1])
    return quotients, q, delta


def scan_eta_dense(alpha: TorusPoint, eta: Fraction, cap: int):
    """(M, largest gap) for the least M whose M + 1 orbit points leave no gap above 2*eta."""
    bound = 2 * Fraction(eta)
    for m in range(1, cap + 1):
        gaps, _ = sorting_three_distance(alpha, m)
        if real_cmp(gaps[-1], bound) <= 0:
            return m, gaps[-1]
    raise NoSuchM(f"no density constant up to {cap}")


def scan_records(alphas, horizon: int):
    """(m, displacement) records of the displacement over m = 1..horizon, testing every m."""
    moves = ([a.multiple(m) for a in alphas] for m in range(1, horizon + 1))
    return [(i + 1, torus_norm(xs)) for i, xs in norm_records(moves)]


def scan_hits(alphas, offsets, radius, lo: int, hi: int, skip_zero: bool = False):
    """n in [lo, hi] with |offsets + n*alphas| < radius on the torus, testing every n."""
    hits = []
    for n in range(lo, hi + 1):
        if skip_zero and n == 0:
            continue
        xs = [real_add(o, a.multiple(n)) for o, a in zip(offsets, alphas)]
        if torus_norm_lt(xs, radius):
            hits.append(n)
    return tuple(hits)


def scan_return_times_point(sys_, x, target, horizon: int):
    """{n in [-H, H] : T^n x in the ball}, stepping every n as the rotation does."""
    x, center = sys_.point(x), sys_.point(target.center)
    radius = Fraction(target.radius)
    return tuple(
        n for n in range(-horizon, horizon + 1) if dist_lt(step(sys_, x, n), center, radius)
    )


def scan_return_times_set(sys_, target, horizon: int):
    """{n in [-H, H] : the displacement of T^n is below 2*rho}, testing every n."""
    two_rho = 2 * Fraction(target.radius)
    return tuple(n for n in range(-horizon, horizon + 1) if displacement_lt(sys_, n, two_rho))


def _members(mask: int) -> list[int]:
    """The positions of the set bits of mask >= 0, ascending."""
    return [i for i, c in enumerate(reversed(bin(mask))) if c == "1"]


def bitmask_verify_nuu(sys_, target, x, horizon: int, margin: Fraction = Fraction(1, 100)):
    """The NuuReport of verify_nuu with every inclusion decided on a
    bitmask: the differences of point returns for the forward one, and
    bit |n| of the enlarged ball's return mask over [-4H, 4H] shifted
    against itself for each set return n for the reverse one."""
    margin = Fraction(margin)
    x = sys_.point(x)
    point_returns = return_times_point(sys_, x, target, horizon)
    set_returns = return_times_set(sys_, target, horizon)
    points = _bitmask(point_returns, -horizon, 2 * horizon + 1)
    diffs = 0
    for p in point_returns:
        diffs |= points >> (p + horizon)
    nonnegative = _members(diffs & ((2 << horizon) - 1))
    forward = sorted({s * d for d in nonnegative for s in (1, -1)} - set(set_returns))
    big_h = 4 * horizon
    big_returns = return_times_point(sys_, x, BallSpec(target.center, target.radius + margin), big_h)
    big = _bitmask(big_returns, -big_h, 2 * big_h + 1)
    reverse = [n for n in set_returns if not big & (big >> abs(n))]
    return NuuReport(
        set_returns=set_returns,
        point_returns=point_returns,
        forward_exceptions=tuple(forward),
        reverse_exceptions=tuple(reverse),
        margin=margin,
        horizon=horizon,
        window_ratio=4,
    )


def closest(pairs):
    """Coordinate differences y - z of the first (y, z) pair at least distance."""
    if not pairs:
        raise ValueError("minimum over no times")
    *_, (_, least) = norm_records([real_sub(a, b) for a, b in zip(y, z)] for y, z in pairs)
    return least


def stepping_phi(sys_, x, times, horizon: int):
    """min of dist(T^n x, x) over the nonzero times within the horizon, from stepped points."""
    x = sys_.point(x)
    times = [n for n in times if abs(n) <= horizon and n != 0]
    return torus_norm(closest([(step(sys_, x, n), x) for n in times]))


def stepping_psi(sys_, x, n_terms, r_terms, eps):
    """(psi, psi < eps) from the points T^(n_k + r_k) x and T^(n_k) x."""
    x = sys_.point(x)
    least = closest([(step(sys_, x, n + r), step(sys_, x, n)) for n, r in zip(n_terms, r_terms)])
    return torus_norm(least), torus_norm_lt(least, eps)


def stepping_moving(sys_, n_terms, r_terms, eps, samples: int):
    """(psi values, fraction_below) at the sample points (i/samples, ...), one by one."""
    values, below = [], 0
    for i in range(samples):
        point = tuple(Fraction(i, samples) for _ in range(sys_.dim))
        value, below_eps = stepping_psi(sys_, point, n_terms, r_terms, eps)
        values.append(real_to_float(value))
        below += below_eps
    return tuple(values), Fraction(below, samples)


def quadratic_primitive_rotation(cycle):
    """Reduce to the primitive period, then pick the lex-least rotation,
    trying every period and every rotation."""
    n = len(cycle)
    for t in range(1, n + 1):
        if n % t == 0 and all(cycle[i] == cycle[i % t] for i in range(n)):
            cycle = cycle[:t]
            break
    return min(cycle[i:] + cycle[:i] for i in range(len(cycle)))


def in_first_use_order(colors) -> bool:
    """Whether the colors, read in order, first appear as 1, 2, 3, ..."""
    firsts = list(dict.fromkeys(colors))
    return firsts == list(range(1, len(firsts) + 1))


def tuple_state_greedy_terms(dists):
    """The greedy avoiding sequence, each term with the cycle closed so far,
    keyed on a tuple of the last max(M) terms."""
    top = max(dists)
    palette = range(1, len(dists) + 2)
    z = [1] * top
    seen = {}
    cycle = None
    for i in count(1):
        forbidden = {z[-mm] for mm in dists}
        z.append(next(c for c in palette if c not in forbidden))
        if cycle is None and i >= top:
            state = tuple(z[-top:])
            j0 = seen.setdefault(state, i)
            if j0 != i:
                cycle = quadratic_primitive_rotation(tuple(z[j0 + top :]))
        yield z[-1], cycle


def looping_obstruction(elems, m_max: int, polynomial=None):
    """cyclic_obstruction's result, testing every nonzero element at every
    modulus 2..m_max."""
    elems = [e for e in as_int_list(elems) if e != 0]
    for m in range(2, m_max + 1):
        if any(e % m == 0 for e in elems):
            continue
        absolute, checked = False, len(elems)
        if polynomial is not None:
            absolute, checked = _full_period_avoids_zero(polynomial, m)
            if not absolute:
                continue
        return CyclicObstruction(modulus=m, absolute=absolute, residues_checked=checked)
    return None


def json_safe(value):
    """A copy of value that json can dump: a Fraction as "p/q", a tuple as a
    list, each dict key as its str()."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    return value
