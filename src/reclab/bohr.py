"""Bohr-set arithmetic on the circle and torus, in exact arithmetic.

A frequency spec (alphas; eps) describes the integer set
{n : dist(n*alpha, Z^k) < eps} with the Euclidean distance on the k-torus.
Membership is decided exactly for rational and quadratic-surd alphas, over
any number of quadratic fields.  Alphas are exact: ``TorusPoint`` refuses a
float or an Approx.

On the circle, one exact alpha is served by ``CircleKernel``: one walk of
the continued fraction that keeps each convergent denominator q_k with
delta_k = ||q_k alpha|| exactly, as an integer pair A + B*sqrt(d) in units
in which the circle's length is the common denominator of the inputs; a
Surd or Fraction is built only for a length the kernel returns.  The
three-gap theorem (Sos 1958), in the explicit form of Alessandri and Berthe
(1998), reads the gaps of an orbit segment, and so its largest gap and the
rigidity records, off that walk in O(log N) exact steps.  The hits of an
arc come from Slater's three-step theorem (1967): consecutive hits differ
by a, b or a + b, intermediate fractions of the same walk, so a Bohr set
or a return-time set costs O(hits + log H) steps in integers instead of
one test per n.  An offset from a second quadratic field is refused
(``field_unit``).

Every comparison of torus norms ||x + n*alpha|| is decided here, in
integers: over one denominator each coordinate's position is an integer
pair, so the scaled squared norm is one int plus one sqrt(d) coefficient per
field (``_sq_norm``), and ``exactreal._int_sum_sign`` signs it against a
radius (``_torus_test``) or against the best norm so far (``record_times``
on a torus; on the circle it compares the reduced pair A + B*sqrt(d)
itself, unsquared).
A norm is built only to be printed (``torus_norm``), from the same integer
square: exact where that square is rational, and otherwise the one
approximation in reclab, an ``Approx`` from one ``isqrt`` bracket of the
square at ``_DISPLAY_BITS``.

On a torus of dimension >= 2, a Euclidean ball of radius eps lies inside the
product of the coordinate arcs of radius eps, so every hit is a circle hit
of every coordinate: the coordinates' walks are intersected, and the torus
test runs on the common candidates only.  A walk of more than HIT_CAP hits
raises ListingBudgetExceeded, before its first step when its window must
hold that many; on a torus the cap counts each coordinate's walk, not the
torus hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm
from typing import Iterable, Optional, Sequence

from .errors import (
    EmptyInput,
    ListingBudgetExceeded,
    NoSuchM,
    PruningBudgetExceeded,
    RadicandTooLarge,
)
from .exactreal import (
    Approx,
    Real,
    Surd,
    TorusPoint,
    _floor_ratio,
    _floor_surd,
    _int_sum_sign,
    _norm,
    _sign2,
    _sum_bracket,
    as_real,
    real_abs,
    real_floor,
    real_frac,
    real_sqrt,
    real_sub,
    real_to_json,
    torus_norm1,
)
from . import intsets
from .intsets import Window, ZSetLike, _check_listing, as_int_list, poly_eval_int

# Fractional bits of the integer positions of a surd walk (_slater_walk).
_WALK_BITS = 64

# Fractional bits of a displayed torus norm that is not exact (torus_norm).
# No decision reads it.
_DISPLAY_BITS = 128

# Most intervals an interval pruning may hold: lacunary_witness's cap, and
# the default of bohr_separation_search's grid_depth.
PRUNE_CAP = 20_000


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
    """Is n in the set described by `spec`?  Decided exactly in integers
    (or raises); the norm and margin are built for display."""
    member = _torus_test([a.value for a in spec.alphas], (0,) * spec.dim, spec.eps)(n)
    norm = torus_norm([a.multiple(n) for a in spec.alphas])
    if isinstance(norm, Approx):
        return Membership(member, norm, Approx(abs(norm.value - spec.eps), norm.err))
    return Membership(member, norm, real_abs(real_sub(norm, spec.eps)))


def bohr_enumerate(spec: BohrSpec, window: Window) -> tuple[int, ...]:
    """All nonzero n in the window with dist(n*alpha) < eps, ascending.

    Membership only: no norm or margin is computed; see frequency_hits.
    """
    return tuple(n for n in frequency_hits(spec.alphas, spec.eps, window) if n)


def frequency_hits(alphas: Sequence[TorusPoint], eps: Fraction, window: Window) -> tuple[int, ...]:
    """All n in the window, 0 included, with dist(n*alpha, Z^k) < eps, ascending:
    the orbit hits of the origin, by kernel_hits on one new CircleKernel per
    coordinate.
    """
    values = [a.value for a in alphas]
    return kernel_hits([CircleKernel.of(a, 0, eps) for a in values], values, (0,) * len(values), eps, window)


def kernel_hits(
    kernels: Sequence["CircleKernel"],
    alphas: Sequence[Real],
    offsets: Sequence[Real],
    radius: Fraction,
    window: Window,
) -> tuple[int, ...]:
    """All n in the window with dist(offsets + n*alphas, Z^k) < radius,
    ascending, for each coordinate's alpha and offset of at most one
    quadratic field.  kernels[i] is the caller's kernel of alphas[i], in a
    unit that makes offsets[i] and radius ints or integer pairs, so that one
    kernel serves every offset and radius of a call.

    Each coordinate is listed by CircleKernel.hits.  On a torus, a hit is a
    hit of every coordinate, so the listings are intersected and the exact
    torus norm is tested on the common candidates (_torus_test).
    """
    walks = [k.hits(o, radius, window.lo, window.hi) for k, o in zip(kernels, offsets)]
    if len(walks) == 1:
        return tuple(walks[0])
    inside = _torus_test(alphas, offsets, radius)
    return tuple(n for n in sorted(set(walks[0]).intersection(*walks[1:])) if inside(n))


def _sq_norm(alphas: Sequence[Real], offsets: Sequence[Real]):
    """The squared torus norm of offsets + n*alphas as a function of n, in
    integers: (den, fields, sq), where sq(n) is the list [N, S_1, ...] with
    den**2 * dist(offsets + n*alphas, Z^k)**2 = N + sum(S_j*sqrt(fields[j])).

    Over the denominator den, coordinate i sits at (A_i + B_i*sqrt(d_i))/den
    with A_i and B_i linear in n; its nearest integer m_i is one _floor_surd.
    With A'_i = A_i - m_i*den, the squared norm is
    sum(A'_i**2 + B_i**2*d_i + 2*A'_i*B_i*sqrt(d_i))/den**2.
    """
    den = lcm(*(field_unit(a, o) for a, o in zip(alphas, offsets)))
    coords, slots = [], {}  # slots: each field's index j in sq(n)
    for a, o in zip(alphas, offsets):
        (aa, ab, da), (oa, ob, do) = _int_parts(a, den), _int_parts(o, den)
        d = da or do
        coords.append((aa, ab, oa, ob, d, slots.setdefault(d, len(slots) + 1) if d else 0))
    fields = list(slots)
    two_den = 2 * den

    def sq(n: int) -> list[int]:
        v = [0] * (len(fields) + 1)
        for aa, ab, oa, ob, d, j in coords:
            a, b = oa + n * aa, ob + n * ab
            a -= _floor_surd(2 * a + den, 2 * b, two_den, d) * den
            v[0] += a * a + b * b * d
            if j:
                v[j] += 2 * a * b
        return v

    return den, fields, sq


def torus_norm(xs: Sequence[Real]) -> Real:
    """Euclidean distance from a torus vector to the nearest lattice point,
    for display, from its _sq_norm square (N + sum(S_j*sqrt(d_j)))/den**2.

    Exact on the circle (torus_norm1) and wherever every S_j is 0: the
    real_sqrt of the rational square.  Any other norm, and a rational root
    past MAX_RADICAND_BITS, is an Approx: the sum of the S_j*sqrt(d_j) is
    bracketed at scale 4**_DISPLAY_BITS by _sum_bracket, as in
    _int_sum_sign, and the root by one isqrt of each end of the square's
    bracket.
    """
    if len(xs) == 1:
        return torus_norm1(xs[0])
    den, fields, sq = _sq_norm(xs, (0,) * len(xs))
    v = sq(1)
    if not any(v[1:]):
        try:
            return real_sqrt(Fraction(v[0], den * den))
        except RadicandTooLarge:
            pass
    k = _DISPLAY_BITS
    surds = [(s, d) for s, d in zip(v[1:], fields) if s]
    # den**2 * 4**k times the square lies in [lo, lo + width]
    lo, width = (v[0] << 2 * k) + _sum_bracket(surds, 2 * k), len(surds)
    # sl <= 2**k * norm < sh
    sl, sh = isqrt(max(lo, 0) // (den * den)), isqrt((lo + width) // (den * den)) + 1
    return Approx(Fraction(sl + sh, 2 << k), Fraction(sh - sl, 2 << k))


def _torus_test(alphas: Sequence[Real], offsets: Sequence[Real], radius: Fraction):
    """The test dist(offsets + n*alphas, Z^k) < radius as a function of n,
    in integers: the sign of the _sq_norm value times rd**2 less (rn*den)**2
    for radius = rn/rd, so the floors work on den-sized ints.  A radius <= 0
    holds no n.  Every n is decided: _int_sum_sign refines up to its own
    norm bound, and raises UncertainAtPrecision only where that bound
    passes HIT_CAP bits.
    """
    den, fields, sq = _sq_norm(alphas, offsets)
    rn, rd = radius.numerator, radius.denominator
    bound, scale = rn * abs(rn) * den * den, rd * rd

    def inside(n: int) -> bool:
        v = sq(n)
        return _int_sum_sign(v[0] * scale - bound, [(s * scale, d) for s, d in zip(v[1:], fields) if s]) < 0

    return inside


def record_times(alphas: Sequence[Real], times: Iterable[int]) -> list[int]:
    """The n of times, in order, at which ||n*alphas|| is below its value at
    every earlier n of times; a tie is no record.

    On the circle, n*alpha sits at (A + B*sqrt(d))/den over alpha's
    denominator; one _floor_surd reduces it to [-1/2, 1/2), one sign test
    gives |A + B*sqrt(d)|, and one _sign2 of its difference with the best
    so far decides, with nothing squared first.  An n equal to the one
    before it is a tie and is not reduced again.  On a torus each
    comparison is one _int_sum_sign of the difference of two _sq_norm
    values.
    """
    if len(alphas) == 1:
        return _circle_record_times(alphas[0], times)
    _, fields, sq = _sq_norm(alphas, (0,) * len(alphas))
    out: list[int] = []
    best = None
    for n in times:
        v = sq(n)
        if best is None or _int_sum_sign(
            v[0] - best[0], [(s - t, d) for s, t, d in zip(v[1:], best[1:], fields) if s != t]
        ) < 0:
            best = v
            out.append(n)
    return out


def _circle_record_times(alpha: Real, times: Iterable[int]) -> list[int]:
    den = field_unit(alpha)
    aa, ab, d = _int_parts(alpha, den)
    out: list[int] = []
    last = None  # a time equal to the one before it is a tie
    # a rational alpha has B = d = 0: the floor and the signs below are then
    # those of plain ints
    two_den = 2 * den
    best_a, best_b = den, 0
    for n in times:
        if n == last:
            continue
        last = n
        a, b = n * aa, n * ab
        a -= _floor_surd(2 * a + den, 2 * b, two_den, d) * den
        if _sign2(a, b, d) < 0:
            a, b = -a, -b
        if _sign2(a - best_a, b - best_b, d) < 0:
            best_a, best_b = a, b
            out.append(n)
    return out


# ---------------------------------------------------------------------------
# the circle kernel: convergents, the three-gap theorem and Slater's steps
# ---------------------------------------------------------------------------


def field_unit(*values: Real) -> int:
    """The lcm of the denominators of values, rationals and surds alike: the
    unit in which every value is A + B*sqrt(d) with ints A and B.  Raises
    ValueError when the surds among them come from two quadratic fields,
    and TypeError for a value that is not exact."""
    den, field = 1, None
    for v in values:
        if isinstance(v, Surd):
            if field is not None and v.d != field:
                raise ValueError(
                    f"sqrt({field}) and sqrt({v.d}) in one coordinate: its frequency, "
                    "point and center must use one quadratic field"
                )
            field = v.d
            den = lcm(den, v.c)
        elif isinstance(v, (int, Fraction)):
            den = lcm(den, v.denominator)
        else:
            raise TypeError(f"{v!r} is not an exact real")
    return den


def _int_parts(x: Real, unit: int) -> tuple[int, int, int]:
    """(A, B, d) with x*unit = A + B*sqrt(d), for a unit that field_unit
    allows; B = d = 0 for a rational x."""
    if isinstance(x, Surd):
        k = unit // x.c
        return x.a * k, x.b * k, x.d
    return x.numerator * (unit // x.denominator), 0, 0


def _pqa_state(alpha: Surd) -> list[int]:
    """[P, Q, D, isqrt(D)] with 1/alpha = (P + sqrt(D))/Q and Q dividing
    D - P*P: the PQa state of the complete quotient 1/alpha, from alpha's
    own lowest terms (a + b*sqrt(d))/c, whatever the kernel's unit."""
    sign = 1 if alpha.b > 0 else -1
    # alpha = (P0 + sqrt(D))/Q0, scaled by |Q0| = c so that Q0 divides D - P0**2
    c = alpha.c
    p, s, big_d = alpha.a * sign * c, sign * c * c, alpha.b * alpha.b * alpha.d * c * c
    # 1/alpha is the PQa step from alpha with quotient 0
    return [-p, (big_d - p * p) // s, big_d, isqrt(big_d)]


class _Pair:
    """A + B*sqrt(d) for ints A and B and a non-square d: a length of a surd
    kernel, in the kernel's units.  It mixes with ints (B = 0) under +, -,
    * by an int, //, % by a positive int, and comparisons.  A comparison is
    one _sign2 and the floor of a ratio one _floor_ratio: no Surd or
    Fraction is built."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int):
        self.a, self.b, self.d = a, b, d

    def __add__(self, other):
        if isinstance(other, int):
            return _Pair(self.a + other, self.b, self.d)
        return _Pair(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return _Pair(self.a - other, self.b, self.d)
        return _Pair(self.a - other.a, self.b - other.b, self.d)

    def __rsub__(self, other: int):
        return _Pair(other - self.a, -self.b, self.d)

    def __mul__(self, n: int):
        return _Pair(self.a * n, self.b * n, self.d)

    __rmul__ = __mul__

    def __floordiv__(self, other) -> int:
        if isinstance(other, int):
            return _floor_ratio(self.a, self.b, other, 0, self.d)
        return _floor_ratio(self.a, self.b, other.a, other.b, self.d)

    def __rfloordiv__(self, other: int) -> int:
        return _floor_ratio(other, 0, self.a, self.b, self.d)

    def __mod__(self, n: int):
        return _Pair(self.a - _floor_surd(self.a, self.b, n, self.d) * n, self.b, self.d)

    def _cmp(self, other) -> int:
        if isinstance(other, int):
            return _sign2(self.a - other, self.b, self.d)
        return _sign2(self.a - other.a, self.b - other.b, self.d)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.a == other and not self.b
        return self.a == other.a and self.b == other.b

    def bit_length(self) -> int:
        """The bits of A and B together."""
        return self.a.bit_length() + self.b.bit_length()


class CircleKernel:
    """The continued-fraction walk of one exact rotation number alpha in [0, 1).

    Lengths are kept in units in which the circle has length ``unit``, the
    common denominator of the values handed to ``of`` (see field_unit): ints,
    and integer pairs A + B*sqrt(d) of alpha's one quadratic field
    (``_Pair``).  Only ``real`` turns a length back into a Fraction or a
    Surd.  ``q[i]`` and ``delta[i]`` hold the convergent denominator q_k and
    delta_k = |q_k*alpha - p_k| for k = i - 1, starting from
    (q_-1, delta_-1) = (0, 1) and (q_0, delta_0) = (1, alpha); the step is
    q_{k+1} = a_{k+1}*q_k + q_{k-1} and
    delta_{k+1} = delta_{k-1} - a_{k+1}*delta_k with
    a_{k+1} = floor(delta_{k-1}/delta_k): for a rational alpha the floor of
    two ints (Euclid), and its walk ends at delta = 0; for a surd alpha the
    PQa recurrence on alpha's own lowest terms, whatever the unit (see
    _reach), so no length is floored.  Both lists grow on demand.
    delta_k = ||q_k*alpha|| for k >= 1, and for k = 0 when alpha <= 1/2.
    """

    __slots__ = ("unit", "q", "delta", "_pqa")

    def __init__(self, alpha: Real, unit: int):
        self.unit = unit
        self.q = [0, 1]
        self.delta = [unit, self.scaled(alpha)]
        self._pqa = _pqa_state(alpha) if isinstance(alpha, Surd) else None

    @classmethod
    def of(cls, alpha: Real, *others: Real) -> "CircleKernel":
        """The kernel of alpha, in units that make alpha and others ints or
        integer pairs; see field_unit for what it refuses."""
        return cls(alpha, field_unit(alpha, *others))

    def scaled(self, x: Real):
        a, b, d = _int_parts(x, self.unit)
        return _Pair(a, b, d) if b else a

    def real(self, v) -> Real:
        if isinstance(v, int):
            return Fraction(v, self.unit)
        return _norm(v.a, v.b, self.unit, v.d)

    def _reach(self, i: int) -> bool:
        """Extend the walk to index i; False when it ends (delta = 0) first.

        A surd alpha's next quotient is the floor of its complete quotient
        delta_{k-1}/delta_k = (P + sqrt(D))/Q, and the PQa step is
        P <- a*Q - P, Q <- (D - P*P)/Q: for alpha = (a + b*sqrt(d))/c in
        lowest terms D = b*b*d*c*c, and P and Q stay below 2*sqrt(D) from
        the first reduced complete quotient on (_pqa_state)."""
        q, delta, pqa = self.q, self.delta, self._pqa
        while len(q) <= i:
            if pqa:
                p, s, big_d, root = pqa
                # sqrt(D) is irrational: floor(P + sqrt(D)) = P + root
                a = (p + root + (s < 0)) // s
                p = a * s - p
                pqa[0], pqa[1] = p, (big_d - p * p) // s
            elif delta[-1] == 0:
                return False
            else:
                a = delta[-2] // delta[-1]
            q.append(a * q[-1] + q[-2])
            delta.append(delta[-2] - a * delta[-1])
        return True

    # -- the three-gap theorem (Sos; explicit form by Alessandri and Berthe)

    def gaps(self, count: int) -> list[tuple[Real, int]]:
        """(length, multiplicity) of the circular gaps of
        {j*alpha : 0 <= j <= count}, ascending, distinct lengths.

        With q_k <= count < q_{k+1} and count = r*q_k + q_{k-1} + s,
        0 <= s < q_k, the gaps are delta_k (count + 1 - q_k times),
        delta_{k-1} - r*delta_k (s + 1 times) and
        delta_{k-1} - (r - 1)*delta_k (q_k - s - 1 times).  An orbit that
        has closed at q points has q gaps 1/q.
        """
        i = 1
        while True:
            if not self._reach(i + 1):
                q = self.q[i]
                return [(Fraction(1, q), q)]
            if self.q[i + 1] > count:
                break
            i += 1
        qk, qp, dk, dp = self.q[i], self.q[i - 1], self.delta[i], self.delta[i - 1]
        r, s = divmod(count - qp, qk)
        mid = dp - r * dk
        out: list = []
        for length, mult in ((dk, count + 1 - qk), (mid, s + 1), (mid + dk, qk - s - 1)):
            if out and out[-1][0] == length:
                out[-1][1] += mult
            elif mult:
                out.append([length, mult])
        return [(self.real(length), mult) for length, mult in out]

    def density_constant(self, bound: Fraction) -> tuple[int, Real]:
        """Least N >= 1 with no gap of {j*alpha : 0 <= j <= N} above bound,
        and its largest gap; bound is 2*eta for an eta-dense orbit segment.
        A rational alpha whose orbit closes at q points with gap 1/q above
        bound has none: NoSuchM.

        For q_k <= N < q_{k+1} the largest gap is
        delta_{k-1} - (j - 1)*delta_k with j = floor((N + 1 - q_{k-1})/q_k),
        so the walk takes the first block whose last N is dense enough and
        solves for the least j there.
        """
        if self.delta[1] == 0 and bound >= 1:  # alpha = 0: one point, one gap
            return 1, self.real(self.unit)
        b = self.scaled(bound)
        i = 1
        while self._reach(i + 1):
            qk, qn, qp = self.q[i], self.q[i + 1], self.q[i - 1]
            dk, dp = self.delta[i], self.delta[i - 1]
            if qn > qk and dp - ((qn - qp) // qk - 1) * dk <= b:
                j = max((qk + 1 - qp) // qk, 1 - (b - dp) // dk)
                n = max(qk, j * qk + qp - 1)
                return n, self.real(dp - ((n + 1 - qp) // qk - 1) * dk)
            i += 1
        # the walk ended at delta = 0: the orbit closed at q[i] points
        q = self.q[i]
        raise NoSuchM(f"orbit closes after {q} points with gap 1/{q} > 2*eta; no density constant exists")

    def records(self, horizon: int) -> list[tuple[int, object]]:
        """(q_k, delta_k) for the distinct q_k <= horizon, delta_k as a
        kernel length (``real`` builds its value): the m at which
        ||m*alpha|| is below its value at every earlier m >= 1 (Lagrange:
        the best approximations are the convergents)."""
        out: list[tuple[int, object]] = []
        i = 1
        while self._reach(i) and self.q[i] <= horizon:
            if out and out[-1][0] == self.q[i]:  # q_0 = q_1 = 1 when alpha > 1/2
                out.pop()
            out.append((self.q[i], self.delta[i]))
            i += 1
        return out

    # -- hits of an arc: Euclid on the circle, then Slater's three steps ----

    def first_entry(self, start, lo, hi) -> Optional[int]:
        """Least x >= 0 with start + x*alpha in the open arc (lo, hi) modulo
        unit, for 0 <= start < unit and 0 <= lo < hi <= unit (kernel units);
        None when the orbit never enters it (rational alpha).

        The x that land in the arc after j wraps are the integers in
        ((j*unit + lo - start)/alpha, (j*unit + hi - start)/alpha), and such
        an integer exists when j*unit falls in an arc of the same width
        modulo alpha: the same question on a circle of length alpha turned
        by unit mod alpha.  Level i of that descent is the circle
        delta_{i-1} turned by delta_i, so it is the convergent walk itself.
        """
        frames = []
        i = 0
        while not lo < start < hi:
            self._reach(i + 1)
            circ, step = self.delta[i], self.delta[i + 1]
            if step == 0:
                return None
            z = (circ if start >= hi else 0) + lo - start
            frames.append((z, circ, step))
            width = hi - lo
            if width > step:
                break
            start, lo, hi = z - z // step * step, step - width, step
            i += 1
        x = 0
        for z, circ, step in reversed(frames):
            x = (z + x * circ) // step + 1
        return x

    def first_return(self, side: int, ell) -> Optional[int]:
        """Least n >= 1 with n*alpha modulo unit in the open arc (0, ell)
        for side 0, or in (unit - ell, unit) for side 1, for a kernel length
        0 < ell <= unit; None when no n lands there (rational alpha).

        q_{k-1} + j*q_k, 0 <= j <= a_{k+1}, sits at distance
        delta_{k-1} - j*delta_k from 0, above it for even k - 1 and below for
        odd: these one-sided intermediate fractions are the n closer to 0
        on their side than every smaller n (Slater 1967).  So the first
        block of the side whose last value delta_{k+1} is below ell holds
        the answer, at the least j there: one floor.  A rational alpha's
        value 0 is its period, no return.
        """
        q, delta = self.q, self.delta
        i = 1 - side  # the index of q_{k-1}
        while self._reach(i + 2):
            if delta[i + 2] < ell:
                n = q[i] + max(0, (delta[i] - ell) // delta[i + 1] + 1) * q[i + 1]
                return None if n == q[i + 2] and delta[i + 2] == 0 else n
            i += 2
        # the walk ended at delta[i + 1] = 0: only q[i] is left on this side
        return q[i] if 0 < delta[i] < ell else None

    def hits(self, offset: Real, radius: Fraction, lo: int, hi: int) -> list[int]:
        """All n in [lo, hi] with dist(offset + n*alpha, Z) < radius,
        ascending, in O(hits + log) exact steps, for an offset and radius
        that the kernel's unit makes ints or integer pairs.  A radius above
        1/2 holds every n.

        Shifted so that the target is the open arc (0, l), l = 2*radius:
        let a >= 1 be least with a*alpha in [0, l) and b >= 1 least with
        b*alpha in (1 - l, 1), at u = a*alpha and 1 - v = b*alpha (mod 1).
        From a hit at p, the next hit is a steps on when p + u < l, b steps
        on when p - v > 0, and a + b steps on otherwise (Slater's three-step
        theorem).  a and b are read off the walk (first_return), the first
        hit from lo comes from first_entry, and the steps run in integers
        (see _slater_walk).  Hits are at most a + b apart, so a window whose
        hits from the first one must number more than HIT_CAP raises
        ListingBudgetExceeded before any step, and a walk raises it on the
        (HIT_CAP + 1)-th hit; so does a radius above 1/2 on a window of more
        than HIT_CAP n.
        """
        if 2 * radius.numerator > radius.denominator:
            _check_listing(max(0, hi - lo + 1), 0, "hit window")
            return list(range(lo, hi + 1))
        unit, alpha = self.unit, self.delta[1]
        rad = self.scaled(radius)
        ell = 2 * rad
        start = (self.scaled(offset) + rad + lo * alpha) % unit
        x = self.first_entry(start, 0, ell)
        if x is None or lo + x > hi:
            return []
        # a: the first position in (0, l), or the period of a rational alpha
        # at position 0; b: 0 when no position lies in (1 - l, 1)
        a = self.first_return(0, ell)
        if a is None:
            a = unit // gcd(unit, alpha)
        u = a * alpha % unit
        b = self.first_return(1, ell)
        if b is None:  # then u = 0, so p < l - u at every hit: b is never taken
            b, v = 0, unit
        else:
            v = unit - b * alpha % unit
        _check_listing((hi - lo - x) // (a + b) + 1, 0, "hit listing")
        return _slater_walk(lo + x, hi, a, b, (start + x * alpha) % unit, u, v, ell - u)


def _slater_walk(n: int, hi: int, a: int, b: int, p, u, v, below) -> list[int]:
    """The hits n, ... <= hi of Slater's steps from the hit n at position p:
    a steps on when p < below (and p moves by u), b steps on when p > v (by
    -v), a + b steps on otherwise.  p, u, v and below are kernel lengths,
    ints or _Pairs of one field, and u = a*alpha mod unit.

    The steps build no Surd.  A surd walk's values are A + B*sqrt(d), and
    each position is the int X = A*2**K + B*s with s = isqrt(d*4**K), so a
    step is one integer addition.  X is off 2**K*(A + B*sqrt(d)) by less
    than |B|, and exact
    when B = 0.  The B part of p moves by that of alpha at each n, so a
    comparison of X values decides unless the two are within the walk's
    bound on the difference of B parts; such a close call goes to _sign2,
    with p's (A, B) rebuilt from n and X.  Raises ListingBudgetExceeded on
    the (HIT_CAP + 1)-th hit.
    """
    out: list[int] = []
    append, cap = out.append, intsets.HIT_CAP
    if isinstance(p, int) and isinstance(u, int):  # a rational walk: all four are ints
        for _ in repeat(None, cap):
            if n > hi:
                return out
            append(n)
            if p < below:
                n, p = n + a, p + u
            elif p > v:
                n, p = n + b, p - v
            else:
                n, p = n + a + b, p + u - v
    else:
        values = (p, u, v, below)
        (pa, pb), (ua, ub), (va, vb), (wa, wb) = [(w.a, w.b) if isinstance(w, _Pair) else (w, 0) for w in values]
        d = next(w.d for w in values if isinstance(w, _Pair))
        k = _WALK_BITS
        s = isqrt(d << 2 * k)
        x, xu, xv, xw = [(ta << k) + tb * s for ta, tb in ((pa, pb), (ua, ub), (va, vb), (wa, wb))]
        n0, slack = n, max(abs(wb - pb), abs(vb - pb)) + (hi - n) * abs(ub)

        def sign_from(m: int, xm: int, ta: int, tb: int) -> int:
            """The sign of ta + tb*sqrt(d) - p for the hit m at position xm."""
            pm = pb + (m - n0) * ub // a  # ub/a is the B part of alpha
            return _sign2(ta - ((xm - pm * s) >> k), tb - pm, d)

        lo_w, hi_w, lo_v, hi_v, ab, xuv = xw - slack, xw + slack, xv - slack, xv + slack, a + b, xu - xv
        for _ in repeat(None, cap):
            if n > hi:
                return out
            append(n)
            if x < lo_w or x <= hi_w and sign_from(n, x, wa, wb) > 0:
                n, x = n + a, x + xu
            elif x > hi_v or x >= lo_v and sign_from(n, x, va, vb) < 0:
                n, x = n + b, x - xv
            else:
                n, x = n + ab, x + xuv
    if n > hi:
        return out
    raise ListingBudgetExceeded(f"hit listing exceeds the listing cap {cap}")


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

    Exact for rational and quadratic-surd inputs: the partial quotients past
    the integer part are the circle kernel's walk of the fractional part.
    The approximation quality invariant dist(q_j * alpha) < 1/q_{j+1} is
    asserted on the convergents produced, recomputed from q_j and the
    kernel's alpha (never from its delta_j).  The walk is extended one term
    at a time, and ListingBudgetExceeded is raised, before any Fraction is
    built, once the kept p_j and q_j pass 64*HIT_CAP bits in all.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    x = alpha.value if isinstance(alpha, TorusPoint) else as_real(alpha)
    kernel = CircleKernel.of(real_frac(x))
    q = kernel.q  # q[j + 1] is the convergent denominator q_j
    p_prev, p = 1, real_floor(x)
    quotients, numerators = [p], [p]
    bits = p.bit_length() + 1
    for j in range(1, depth + 1):
        if not kernel._reach(j + 1):
            break
        a = (q[j + 1] - q[j - 1]) // q[j]
        p_prev, p = p, a * p + p_prev
        quotients.append(a)
        numerators.append(p)
        bits += p.bit_length() + q[j + 1].bit_length()
        _check_listing(j + 1, bits, "continued fraction")
    terminated = kernel.delta[-1] == 0
    convergents = [Fraction(p, qj) for p, qj in zip(numerators, q[1:])]

    # quality invariant, checked exactly wherever the next denominator exists,
    # in kernel units on the kernel's alpha = A + B*sqrt(d):
    # ||q_j alpha||*q_{j+1} < unit; a terminated (rational) expansion ends
    # with equality: the determinant identity gives dist(q_{n-1} alpha) = 1/q_n
    unit, alpha = kernel.unit, kernel.delta[1]
    fa, fb, d = (alpha.a, alpha.b, alpha.d) if isinstance(alpha, _Pair) else (alpha, 0, 0)
    for j in range(len(convergents) - 1):
        qj, qnext = convergents[j].denominator, convergents[j + 1].denominator
        # q_j*alpha less its nearest multiple of unit, then its absolute value
        a, b = qj * fa, qj * fb
        a -= _floor_surd(2 * a + unit, 2 * b, 2 * unit, d) * unit
        if _sign2(a, b, d) < 0:
            a, b = -a, -b
        cmp = _sign2(a * qnext - unit, b * qnext, d)
        final_pair = terminated and j + 1 == len(convergents) - 1
        assert cmp < 0 or (final_pair and cmp == 0), "convergent quality violated"

    return ContinuedFraction(tuple(quotients), tuple(convergents), terminated)


@dataclass(frozen=True)
class ThreeDistanceResult:
    gaps: tuple[Real, ...]       # circular gaps, ascending, with multiplicity
    distinct: tuple[Real, ...]   # the distinct gap lengths (at most three)


def three_distance(alpha, count: int) -> ThreeDistanceResult:
    """Circular gap structure of {j*alpha mod 1 : 0 <= j <= count}."""
    parts = three_distance_parts(alpha, count)
    gaps = tuple(g for g, mult in parts for _ in range(mult))
    return ThreeDistanceResult(gaps, tuple(g for g, _ in parts))


def three_distance_parts(alpha, count: int) -> list[tuple[Real, int]]:
    """(length, multiplicity) of the circular gaps of
    {j*alpha mod 1 : 0 <= j <= count}, ascending, distinct lengths.

    Read off the circle kernel's convergents in O(log count) time and
    memory.
    """
    point = alpha if isinstance(alpha, TorusPoint) else TorusPoint(alpha)
    if count < 1:
        raise ValueError("count must be >= 1")
    return CircleKernel.of(point.value).gaps(count)


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


# An interval of the pruning is four ints (lo_num, lo_den, hi_num, hi_den):
# denominators positive, fractions not reduced.
Span = tuple[int, int, int, int]


def _prune_stage(intervals: list[Span], n: int, delta: Fraction, cap: int) -> list[Span]:
    """Intersect with {alpha : dist(n*alpha, Z) >= delta} exactly, raising
    PruningBudgetExceeded before more than cap intervals are built.

    Keeps [max(lo, (j + delta)/n), min(hi, (j + 1 - delta)/n)] for every j
    where it is nonempty: for lo <= hi, exactly the j with
    n*lo - 1 + delta <= j <= n*hi - delta.  The cut points are a/den with
    den = n*delta.denominator and a = j*delta.denominator + delta.numerator.
    Only the least j can keep lo and only the greatest can keep hi, so every
    other kept interval is two cut points.  Endpoints stay unreduced integer
    pairs from stage to stage: no gcd and no Fraction.
    """
    dn, dd = delta.numerator, delta.denominator
    den = n * dd
    width = dd - 2 * dn  # (j + 1 - delta)/n - (j + delta)/n, over den
    out: list[Span] = []
    for ln, ld, hn, hd in intervals:
        # the a of the least and of the greatest j
        first = -((ld * (dd - dn) - ln * den) // (ld * dd)) * dd + dn
        last = (hn * den - hd * dn) // (hd * dd) * dd + dn
        if first > last:
            continue
        lo = (first, den) if first * ld > ln * den else (ln, ld)
        b = last + width
        hi = (b, den) if b * hd < hn * den else (hn, hd)
        if first == last:
            out.append(lo + hi)
            continue
        if len(out) + (last - first) // dd >= cap:  # before the range is built
            raise PruningBudgetExceeded(f"interval count exceeded {cap}")
        out.append(lo + (first + width, den))
        out.extend([(a, den, a + width, den) for a in range(first + dd, last, dd)])
        out.append((last, den) + hi)
    if len(out) > cap:
        raise PruningBudgetExceeded(f"interval count exceeded {cap}")
    return out


def _prune(values: Sequence[int], delta: Fraction, cap: int, name: str = "delta") -> list[Span]:
    """The intervals of [0, 1] left after one _prune_stage per value, in
    order; [] when one stage empties them.  A delta outside (0, 1/2) is a
    ValueError that calls it by the caller's parameter name.

    ||n*(1 - alpha)|| = ||n*alpha||, so the kept set is symmetric about 1/2:
    only [0, 1/2] is pruned, and the mirror (1 - hi, 1 - lo) of each of its
    intervals is appended in reverse order.  No cut point (j + delta)/n or
    (j + 1 - delta)/n is 1/2 for 0 < delta < 1/2, so an interval reaches 1/2
    only while it still ends at the inherited (1, 2), and it then joins its
    mirror.  A half of c intervals counts 2c - s on [0, 1], s = 1 when its
    last one joins its mirror and 0 otherwise.  A stage whose count exceeds
    cap raises PruningBudgetExceeded, as the whole circle's would, and the
    half's budget (cap + 1) // 2 refuses a stage that must exceed cap before
    its range is built.
    """
    if not 0 < 2 * delta.numerator < delta.denominator:
        raise ValueError(f"{name} must satisfy 0 < {name} < 1/2")
    intervals = [(0, 1, 1, 2)]
    s = 1
    for n in values:
        try:
            intervals = _prune_stage(intervals, n, delta, (cap + 1) // 2)
        except PruningBudgetExceeded:
            raise PruningBudgetExceeded(f"interval count exceeded {cap}") from None
        s = 1 if intervals and intervals[-1][2:] == (1, 2) else 0
        if 2 * len(intervals) - s > cap:
            raise PruningBudgetExceeded(f"interval count exceeded {cap}")
        if not intervals:
            return []
    mirror = [(hd - hn, hd, ld - ln, ld) for ln, ld, hn, hd in reversed(intervals)]
    if s:
        ln, ld = intervals.pop()[:2]
        mirror[0] = (ln, ld, ld - ln, ld)
    return intervals + mirror


def _longest(intervals: list[Span]) -> Span:
    """The longest interval, the leftmost of the longest on ties, by
    cross-multiplication."""
    best = intervals[0]
    ln, ld, hn, hd = best
    wn, wd = hn * ld - ln * hd, ld * hd
    for iv in intervals:
        an, ad, bn, bd = iv
        vn, vd = bn * ad - an * bd, ad * bd
        c = vn * wd - wn * vd
        if c > 0 or (c == 0 and an * ld < ln * ad):
            best, ln, ld, wn, wd = iv, an, ad, vn, vd
    return best


def _measure(intervals: list[Span]) -> Fraction:
    """Total length: numerators summed per denominator, then one Fraction
    per denominator."""
    sums: dict[int, int] = {}
    for an, ad, bn, bd in intervals:
        sums[ad] = sums.get(ad, 0) - an
        sums[bd] = sums.get(bd, 0) + bn
    return sum((Fraction(v, d) for d, v in sums.items()), Fraction(0))


def lacunary_witness(
    seq: ZSetLike, delta: Fraction, depth: Optional[int] = None
) -> Optional[WitnessInterval]:
    """Closed rational interval of alphas with dist(n*alpha) >= delta for the
    first `depth` elements of seq; None when pruning empties out.

    Returns the longest surviving interval of [0, 1] (leftmost on ties).
    The pruning runs on [0, 1/2] and mirrors it (_prune), and holds at most
    PRUNE_CAP intervals of [0, 1].
    """
    values = [v for v in as_int_list(seq) if v > 0]
    if not values:
        raise EmptyInput("no positive elements to prune against")
    if depth is not None:
        values = values[:depth]
    delta = Fraction(delta)
    intervals = _prune(values, delta, PRUNE_CAP)
    if not intervals:
        return None
    an, ad, bn, bd = _longest(intervals)
    return WitnessInterval(
        lo=Fraction(an, ad), hi=Fraction(bn, bd), stages=len(values),
        surviving=len(intervals), total_measure=_measure(intervals),
    )


def _separated(values: Iterable[int], num: int, den: int, delta: Fraction) -> bool:
    """Whether ||n*num/den|| >= delta for every n in values (den > 0), in ints."""
    dn, dd = delta.numerator, delta.denominator
    for n in values:
        r = n * num % den
        if min(r, den - r) * dd < dn * den:
            return False
    return True


def revalidate_witness(seq: ZSetLike, delta: Fraction, witness: WitnessInterval) -> bool:
    """Exact re-check at the endpoints and midpoint of the returned interval."""
    values = [v for v in as_int_list(seq) if v > 0][: witness.stages]
    delta = Fraction(delta)
    return all(
        _separated(values, a.numerator, a.denominator, delta) for a in (witness.lo, witness.midpoint, witness.hi)
    )


def bohr_separation_search(
    l_set: ZSetLike, eps: Fraction, grid_depth: int = PRUNE_CAP
) -> Optional[BohrSpec]:
    """Search for a single-frequency spec whose set misses l_set entirely.

    dist(n*alpha) >= eps for every n in l_set means the described set
    contains no element of l_set; interval pruning finds such alphas
    exactly, on [0, 1/2] mirrored to [0, 1] (_prune).  grid_depth caps the
    pruning's interval count of [0, 1].
    """
    eps = Fraction(eps)
    values = [abs(v) for v in as_int_list(l_set) if v != 0]
    if not values:
        raise EmptyInput("empty target set")
    intervals = _prune(sorted(set(values)), eps, grid_depth, "eps")
    if not intervals:
        return None
    an, ad, bn, bd = _longest(intervals)
    num, den = an * bd + bn * ad, 2 * ad * bd  # the midpoint
    # exact post-check before promising anything
    if not _separated(values, num, den, eps):
        return None
    return BohrSpec(alphas=(TorusPoint(Fraction(num, den)),), eps=eps)


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

    Modulus m reads the top//m multiples of m from a bytearray marking the
    elements, or tests every element, whichever is fewer; the bytearray is
    built when some modulus reads it and the largest |e| is at most
    64*HIT_CAP.  Past 64*HIT_CAP reads and tests in all, ListingBudgetExceeded.
    """
    elems = [e for e in as_int_list(l_set) if e != 0]
    if not elems:
        raise EmptyInput("empty set")
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    top, count, budget = max(abs(e) for e in elems), len(elems), 64 * intsets.HIT_CAP
    present = None
    if top // m_max < count and top <= budget:
        present = bytearray(top + 1)
        for e in elems:
            present[abs(e)] = 1
    work = 0
    for m in range(2, m_max + 1):
        sieve = present is not None and top // m < count
        work += top // m if sieve else count
        if work > budget:
            raise ListingBudgetExceeded(f"{work} divisibility tests exceed the listing cap {budget}")
        if (1 in present[m::m]) if sieve else any(e % m == 0 for e in elems):
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
    """(p(n) mod m avoids 0 over the period m*lcm(denominators) of n, n
    evaluated); ListingBudgetExceeded, before any evaluation, for a period
    above HIT_CAP."""
    cs = [Fraction(c) for c in coeffs]
    scale = lcm(*[c.denominator for c in cs]) if cs else 1
    period = m * scale
    _check_listing(period, 0, f"polynomial period modulo {m}")
    for n in range(period):
        if poly_eval_int(cs, n) % m == 0:
            return False, n + 1
    return True, period


def bohr_spec_to_json(spec: BohrSpec) -> dict:
    return {
        "alphas": [real_to_json(a.value) for a in spec.alphas],
        "eps": f"{spec.eps.numerator}/{spec.eps.denominator}",
        "eps_float": float(spec.eps),
        "dim": spec.dim,
    }
