"""Finite-horizon dynamics: torus rotations and indicator subshifts.

On rotations, every comparison of torus norms (return times, rigidity
records, the phi and psi minimisers, psi's comparison with eps,
l-recurrence) is decided exactly, in integers, by ``bohr``; the displayed
distances are built for the winners only, by ``bohr.torus_norm`` from the
exact integer square: on a multi-frequency rotation whose squared norm is
irrational, that is an ``Approx``.  A rotation is an isometry, so phi and psi
are minima of ||n*alpha|| over target times and read no point.

A circle rotation goes through ``bohr.CircleKernel``: return times are
walked from hit to hit (Slater's three-step theorem), rigidity records are
the convergents, and density constants come from the three-gap theorem (Sos;
Alessandri and Berthe).  On a torus of dimension >= 2, return times
intersect the coordinates' circle walks and test the exact torus norm on
the common candidates only (``bohr.kernel_hits``); ``verify_nuu`` walks
one kernel per coordinate for all its listings and computes nothing for
its forward inclusion, a theorem.  Torus rigidity records test every m
(``bohr.record_times``); psi at r_k = k reads the last record.
A coordinate whose frequency, point and center use two quadratic fields is
refused with ValueError (``bohr.field_unit``).

Subshift points are shifts of a single base word declared on a finite
window, and a ``SubshiftSystem`` answers its own two questions: the return
times of the cylinder "coordinate 0 shows 1", which read each coordinate
they need and refuse one outside the window, and phi.  Every other quantity
here is computed on rotations only.

All verdicts here are horizon-limited observations, never limit claims; the
experiment reports say so explicitly in their ``note`` field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .bohr import CircleKernel, _torus_test, frequency_hits, kernel_hits, record_times, torus_norm
from .errors import ListingBudgetExceeded, NoElementsInWindow, NoSuchM, WindowInadequate
from .exactreal import (
    Real,
    TorusPoint,
    real_frac,
    real_sub,
    real_to_float,
)
from .intsets import Window, ZSetLike, _check_listing, as_int_list

HORIZON_NOTE = (
    "horizon-limited observation: quantities are minima over the stated "
    "finite horizon, not limit claims"
)

RotPoint = tuple[Real, ...]
TimeSet = tuple[int, ...]

# find_l_recurrent tests at most this many target times
RECURRENT_SAMPLE_BUDGET = 5_000


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotationSystem:
    """Rotation x -> x + alpha on the k-torus (k = len(alphas))."""

    alphas: tuple[TorusPoint, ...]

    def __post_init__(self):
        if not self.alphas:
            raise ValueError("rotation needs at least one frequency")

    @property
    def dim(self) -> int:
        return len(self.alphas)

    def point(self, coords) -> RotPoint:
        coords = tuple(real_frac(c) for c in coords)
        if len(coords) != self.dim:
            raise ValueError("point dimension mismatch")
        return coords

    def zero(self) -> RotPoint:
        return tuple(Fraction(0) for _ in self.alphas)

    def displacement_norm(self, n: int) -> Real:
        """Exact displacement of the n-th iterate: dist(x, T^n x), any x."""
        return torus_norm([a.multiple(n) for a in self.alphas])


@dataclass(frozen=True)
class BallSpec:
    """Open metric ball.  For rotations the center is a torus point vector."""

    center: tuple
    radius: Fraction

    def __post_init__(self):
        if Fraction(self.radius) <= 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class SubshiftSystem:
    """Shifts of the indicator word of a finite integer listing, which may
    hold 0, on the declared window."""

    members: frozenset
    window: Window

    def symbol(self, i: int) -> int:
        if i not in self.window:
            raise WindowInadequate(
                f"coordinate {i} outside declared window [{self.window.lo}, {self.window.hi}]"
            )
        return 1 if i in self.members else 0

    def returns(self, base: int, horizon: int) -> TimeSet:
        """{n in [-H, H] : the shift by base + n shows 1 at coordinate 0}."""
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        return tuple(n for n in range(-horizon, horizon + 1) if self.symbol(base + n))

    def phi(self, base: int, targets: ZSetLike, horizon: int) -> Fraction:
        """Minimum over target times n of dist(T^n x, x), x the shift by base:
        2^-j for the least j <= scan = min(window.hi // 2, 4*horizon) with the
        two words differing at i = j or i = -j, and 0 where none does.  The
        window must cover 4x the largest target time on both sides of 0, and
        base +- (largest target time + scan), every coordinate the scan may
        read; both are checked before any symbol is read."""
        times = _target_times(targets, horizon)
        largest = max(abs(n) for n in times)
        if self.window.lo > -4 * largest or self.window.hi < 4 * largest:
            raise WindowInadequate(
                f"declared window [{self.window.lo}, {self.window.hi}] is smaller "
                f"than 4x the largest target time {largest}"
            )
        scan = min(self.window.hi // 2, 4 * horizon)
        reach = largest + scan
        if self.window.lo > base - reach or self.window.hi < base + reach:
            raise WindowInadequate(
                f"declared window [{self.window.lo}, {self.window.hi}] does not hold "
                f"offset {base} +- {reach}, the largest target time plus the scan {scan}"
            )

        def dist(n: int) -> Fraction:
            for i in range(scan + 1):
                if self.symbol(base + n + i) != self.symbol(base + i) or (
                    i and self.symbol(base + n - i) != self.symbol(base - i)
                ):
                    return Fraction(1, 2**i)
            return Fraction(0)

        return min(dist(n) for n in times)


# ---------------------------------------------------------------------------
# membership and return times
# ---------------------------------------------------------------------------


def _orbit_kernels(sys_: RotationSystem, x, target: BallSpec, *lengths: Fraction):
    """(alphas, offsets x - center, kernels): one CircleKernel per coordinate,
    in a unit that covers its alpha, x, the center and the lengths, so that
    every return-time listing of x and the ball at those radii reads it.
    ValueError for a coordinate of two quadratic fields (field_unit)."""
    x, center = sys_.point(x), sys_.point(target.center)
    alphas = [a.value for a in sys_.alphas]
    kernels = [CircleKernel.of(a, xi, ci, Fraction(target.radius), *lengths) for a, xi, ci in zip(alphas, x, center)]
    return alphas, [real_sub(xi, ci) for xi, ci in zip(x, center)], kernels


def return_times_point(sys_: RotationSystem, x, target: BallSpec, horizon: int) -> TimeSet:
    """{n in [-H, H] : T^n x in target}; 0 belongs when x itself does."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    alphas, offsets, kernels = _orbit_kernels(sys_, x, target)
    return kernel_hits(kernels, alphas, offsets, Fraction(target.radius), Window(-horizon, horizon))


def return_times_set(sys_: RotationSystem, target: BallSpec, horizon: int) -> TimeSet:
    """{n in [-H, H] : T^n U meets U} for an open ball U; exact for rotations.

    Two radius-rho balls on the torus overlap exactly when the displacement
    norm is below 2*rho, independently of the center: the frequency set at
    2*rho, plus 0.
    """
    return frequency_hits(sys_.alphas, 2 * Fraction(target.radius), Window(-horizon, horizon))


# ---------------------------------------------------------------------------
# the return-set identity check
# ---------------------------------------------------------------------------


def _bitmask(times: Sequence[int], low: int, size: int) -> int:
    """The int whose bit t - low is set for each t in times, low <= t < low + size."""
    bits = bytearray(b"0" * size)
    for t in times:
        bits[size - 1 - t + low] = 49  # ord("1"), most significant first
    return int(bits, 2)


@dataclass(frozen=True)
class NuuReport:
    set_returns: TimeSet
    point_returns: TimeSet
    forward_exceptions: tuple[int, ...]   # always (): verify_nuu proves the forward inclusion
    reverse_exceptions: tuple[int, ...]   # N(U,U) entries with no difference repr
    margin: Fraction
    horizon: int
    window_ratio: int

    @property
    def clean(self) -> bool:
        return not self.forward_exceptions and not self.reverse_exceptions


def _reverse_by_density(sys_: RotationSystem, rho: Fraction, margin: Fraction, horizon: int, kernels) -> bool:
    """Whether verify_nuu's reverse inclusion holds with no exceptions by
    the density constant: on a circle with margin > 0, 4*(rho + margin)
    <= 1 and eta_dense_constant(alpha, margin) <= 7*H, a constant that a
    rational alpha = p/q has only for 1/q <= 2*margin (else NoSuchM).

    The M + 1 gaps of M + 1 orbit points sum to 1, so gaps of at most
    2*margin need M >= 1/(2*margin) - 1: a 7H below that bound is refused
    with no walk.  Otherwise the circle's kernel, in a unit that covers
    2*margin, walks alpha's convergents to M."""
    if sys_.dim != 1 or margin <= 0:
        return False
    (rn, rd), (mn, md) = (rho.numerator, rho.denominator), (margin.numerator, margin.denominator)
    if 4 * (rn * md + mn * rd) > rd * md or 2 * mn * (7 * horizon + 1) < md:
        return False
    try:
        return kernels[0].density_constant(2 * margin)[0] <= 7 * horizon
    except NoSuchM:
        return False


def verify_nuu(
    sys_: RotationSystem,
    target: BallSpec,
    x,
    horizon: int,
    margin: Fraction = Fraction(1, 100),
) -> NuuReport:
    """Check both inclusions between N(U,U) and N(x,U) - N(x,U).

    Forward: every difference of point return times lies in the set return
    times (exact, same horizon).  Reverse: every set return time n in
    [-H, H] is a difference of point return times of the margin-enlarged
    ball, with the point returns drawn from the 4H window.  The set returns
    and every point return list are walked on one CircleKernel per
    coordinate (_orbit_kernels).

    The forward inclusion is a theorem, and nothing is computed for it:
    for point returns a and b, ||a*alpha + x - c|| < rho and
    ||b*alpha + x - c|| < rho, so ||(a - b)*alpha|| < 2*rho by the
    triangle inequality of the torus distance, and every difference with
    |a - b| <= H is a set return at radius 2*rho over [-H, H], 0 included.
    forward_exceptions is always ().

    The reverse inclusion is decided by the density constant where
    _reverse_by_density allows it, alpha rational or not, and otherwise on
    a bitmask of the enlarged ball's returns, n by n.  The density
    argument, with rho' = rho + margin and J the arc of the m whose m*alpha
    puts T^m x in the enlarged ball: T^m x and T^(m+n) x both lie in it
    exactly when m*alpha lies in J and in J - n*alpha.  With 4*rho' <= 1
    these two arcs of length 2*rho' overlap in one arc of length
    2*rho' - ||n*alpha||, above 2*margin since ||n*alpha|| < 2*rho.  The m
    with m and m + n in [-4H, 4H] are at least 7H + 1 consecutive integers,
    whose m*alpha are a turn of {j*alpha : 0 <= j <= 7H}; when
    M = eta_dense_constant(alpha, margin) <= 7H, those points leave no gap
    above 2*margin, so an open arc longer than that holds one of them:
    every n has its m, and the enlarged ball's returns are never listed.

    Raises ValueError for a negative margin.
    """
    margin = Fraction(margin)
    if margin < 0:
        raise ValueError("margin must be >= 0")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    rho = Fraction(target.radius)
    alphas, offsets, kernels = _orbit_kernels(sys_, x, target, margin)
    window = Window(-horizon, horizon)
    point_returns = kernel_hits(kernels, alphas, offsets, rho, window)
    set_returns = kernel_hits(kernels, alphas, (0,) * sys_.dim, 2 * rho, window)
    if _reverse_by_density(sys_, rho, margin, horizon, kernels):
        reverse = []
    else:
        big_h = 4 * horizon
        big_returns = kernel_hits(kernels, alphas, offsets, rho + margin, Window(-big_h, big_h))
        # need m with both m and n+m hitting the enlarged ball inside
        # [-4H, 4H]: n in B - B, tested as bit |n| of the mask shifted
        # against itself
        big = _bitmask(big_returns, -big_h, 2 * big_h + 1)
        reverse = [n for n in set_returns if not big & (big >> abs(n))]
    return NuuReport(
        set_returns=set_returns,
        point_returns=point_returns,
        forward_exceptions=(),
        reverse_exceptions=tuple(reverse),
        margin=margin,
        horizon=horizon,
        window_ratio=4,
    )


# ---------------------------------------------------------------------------
# recurrence functionals
# ---------------------------------------------------------------------------


def _least_time(sys_: RotationSystem, times: Iterable[int]) -> int:
    """The first n in times at least ||n*alpha||.  A rotation is an
    isometry: dist(T^(m+n) x, T^m x) is this norm for every x and m."""
    records = record_times([a.value for a in sys_.alphas], times)
    if not records:
        raise ValueError("minimum over no times")
    return records[-1]


def _target_times(targets: ZSetLike, horizon: int) -> list[int]:
    """The nonzero target times within the horizon; NoElementsInWindow for none."""
    times = [n for n in as_int_list(targets) if abs(n) <= horizon and n != 0]
    if not times:
        raise NoElementsInWindow("no target times inside the horizon")
    return times


def phi_l(sys_: RotationSystem, targets: ZSetLike, horizon: int) -> Real:
    """Minimum of dist(T^n x, x) over target times n within the horizon:
    min_n ||n*alpha||, the same at every point x."""
    return sys_.displacement_norm(_least_time(sys_, _target_times(targets, horizon)))


@dataclass(frozen=True)
class MovingQuery:
    horizon: int
    eps: Fraction
    r_of_k: Optional[Callable[[int], int]] = None  # r_k at k = 1..horizon; None is r_k = k

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("minimum over no times")


def psi_moving(sys_: RotationSystem, query: MovingQuery) -> tuple[Real, bool]:
    """min over k of dist(T^(n_k + r_k) x, T^(n_k) x) within the horizon,
    and whether it is below query.eps, decided exactly.

    A rotation is an isometry, so this is min_k ||r_k*alpha|| for every
    point x and every n_k.  For r_k = k it is the last rigidity record at
    the horizon: on the circle the circle kernel's last convergent
    denominator, at any horizon, and the one value built is its norm;
    other offsets are streamed into one record scan, and a horizon above
    HIT_CAP raises ListingBudgetExceeded before any r_k.
    """
    if query.r_of_k is None and sys_.dim == 1:
        n = CircleKernel.of(sys_.alphas[0].value).records(query.horizon)[-1][0]
    elif query.r_of_k is None:
        n = uniform_rigidity_scan(sys_, query.horizon)[-1].time
    else:
        _check_listing(query.horizon, 0, "formula horizon")
        n = _least_time(sys_, map(query.r_of_k, range(1, query.horizon + 1)))
    below = _torus_test([a.value for a in sys_.alphas], (0,) * sys_.dim, query.eps)(n)
    return sys_.displacement_norm(n), below


@dataclass(frozen=True)
class RecurrentWitness:
    time: int
    value: Real


def find_l_recurrent(sys_: RotationSystem, targets: ZSetLike, eps: Fraction) -> Optional[RecurrentWitness]:
    """A target time bringing every point eps-close to itself, if one of
    the first RECURRENT_SAMPLE_BUDGET target times does; None when there
    are no more target times, and ListingBudgetExceeded when there are."""
    eps = Fraction(eps)
    times = [n for n in as_int_list(targets) if n != 0]
    if not times:
        raise NoElementsInWindow("no target times")
    # displacement is point-independent: scan target times only
    inside = _torus_test([a.value for a in sys_.alphas], (0,) * sys_.dim, eps)
    for n in times[:RECURRENT_SAMPLE_BUDGET]:
        if inside(n):
            return RecurrentWitness(time=n, value=sys_.displacement_norm(n))
    if len(times) > RECURRENT_SAMPLE_BUDGET:
        raise ListingBudgetExceeded(
            f"no witness among the first {RECURRENT_SAMPLE_BUDGET} target times, the sample budget; "
            f"{len(times) - RECURRENT_SAMPLE_BUDGET} more were not tested"
        )
    return None


@dataclass(frozen=True)
class EtaDenseResult:
    constant: int
    max_gap: Real


def eta_dense_constant(sys_: RotationSystem, eta: Fraction) -> EtaDenseResult:
    """Least M with {x, Tx, ..., T^M x} eta-dense for every x (circle case).

    Eta-density of the orbit segment is max circular gap <= 2*eta; rotations
    make the segment's gap structure independent of x.  The circle kernel
    walks alpha's convergents, and raises NoSuchM for a rational alpha whose
    closed orbit's gap 1/q is above 2*eta.
    """
    if sys_.dim != 1:
        raise NotImplementedError("density constants are computed on the circle")
    eta = Fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    alpha, bound = sys_.alphas[0].value, 2 * eta
    return EtaDenseResult(*CircleKernel.of(alpha, bound).density_constant(bound))


@dataclass(frozen=True)
class RigidityRecord:
    time: int
    value: Real


def uniform_rigidity_scan(sys_: RotationSystem, horizon: int) -> tuple[RigidityRecord, ...]:
    """Record minima of the sup displacement sup_x dist(x, T^m x), m = 1..H.

    Exact: a rotation's sup is its displacement norm.  On the circle the
    records are the convergents, at any horizon, and their bits are charged
    to the listing cap (intsets._check_listing) before any value is built;
    on a torus every m is tested, and a horizon above HIT_CAP raises
    ListingBudgetExceeded first.
    """
    if sys_.dim == 1:
        kernel = CircleKernel.of(sys_.alphas[0].value)
        records = kernel.records(horizon)
        bits, unit_bits = 0, kernel.unit.bit_length()
        for count, (m, length) in enumerate(records, 1):
            # the printed time and exact parts: at most those of m, length and unit
            bits += m.bit_length() + length.bit_length() + unit_bits
            _check_listing(count, bits, "rigidity records")
        return tuple(RigidityRecord(m, kernel.real(length)) for m, length in records)
    _check_listing(horizon, 0, "torus record scan")
    # the displayed norm is an Approx on a torus: build it for records only
    times = record_times([a.value for a in sys_.alphas], range(1, horizon + 1))
    return tuple(RigidityRecord(m, sys_.displacement_norm(m)) for m in times)


@dataclass(frozen=True)
class MovingExperimentReport:
    fraction_below: Fraction
    psi_min: float
    psi_max: float
    sample_count: int
    horizon: int
    eps: Fraction
    note: str


def moving_recurrence_experiment(
    sys_: RotationSystem, query: MovingQuery, samples: int = 10
) -> MovingExperimentReport:
    """Evaluate the moving-recurrence functional on a deterministic sample
    grid and report the fraction below the query tolerance.

    A rotation's functional is the same at every point (see psi_moving), so
    it is evaluated once and holds at all `samples` grid points.
    """
    if samples < 1:
        raise ValueError("need at least one sample point")
    value, below_eps = psi_moving(sys_, query)
    shown = real_to_float(value)
    return MovingExperimentReport(
        fraction_below=Fraction(samples if below_eps else 0, samples),
        psi_min=shown,
        psi_max=shown,
        sample_count=samples,
        horizon=query.horizon,
        eps=query.eps,
        note=HORIZON_NOTE,
    )
