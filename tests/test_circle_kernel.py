"""The circle kernel against the per-n and per-m scans it replaced.

Every comparison is exact: the kernel must give the same Fractions and Surds
and the same hits in the same order, on the circle and on tori whose
coordinates' walks are intersected.  A coordinate whose frequency, point and
center come from two quadratic fields is refused, on the circle and on a
torus.  A listing past ``intsets.HIT_CAP`` hits raises, before the walk when
its window must hold that many, and the CLI exits 4.
The kernel takes a surd's quotients from the PQa recurrence; its q_k and
delta_k, and the continued-fraction quotients, are checked against the
Euclidean walk that floors two lengths per quotient, deep enough that the
integer pairs grow large, also in units that carry a large extra
denominator.  Each step of an arc's walk is checked against the descent of
``first_entry``.  A torus
ball whose radius is the exact norm of one n leaves that n out.  A rational
orbit that closes too coarse for a density bound is NoSuchM in the kernel
itself.  The oracles live in ``tests/oracles.py`` and never call the
kernel.  The walks and the record scan build no Fraction per n or per
hit: a listing ten or a hundred times longer builds as many.
"""

import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reclab import bohr, cli, intsets
from reclab.bohr import (
    BohrSpec,
    CircleKernel,
    bohr_enumerate,
    continued_fraction,
    frequency_hits,
    kernel_hits,
    record_times,
    three_distance,
    three_distance_parts,
)
from reclab.dynamics import (
    BallSpec,
    RotationSystem,
    eta_dense_constant,
    return_times_point,
    return_times_set,
    uniform_rigidity_scan,
)
from reclab.errors import ListingBudgetExceeded, NoSuchM
from reclab.exactreal import (
    Surd,
    TorusPoint,
    golden_rotation,
    real_add,
    real_floor,
    real_frac,
    real_mul_int,
    real_sub,
    sqrt2_rotation,
    torus_norm1,
)
from reclab.intsets import Window

from oracles import (
    floor_walk,
    scan_eta_dense,
    scan_hits,
    scan_records,
    scan_return_times_point,
    scan_return_times_set,
    sorting_three_distance,
)

FIELDS = (2, 3, 5, 6, 7, 10, 11, 13)

rationals = st.integers(1, 300).flatmap(
    lambda q: st.integers(0, q - 1).map(lambda p: TorusPoint(Fraction(p, q)))
)


def surds_of(fields):
    return st.builds(
        lambda d, a, b, c: TorusPoint(Surd.make(Fraction(a, c), Fraction(b, c), d)),
        st.sampled_from(fields),
        st.integers(-6, 6),
        st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)),
        st.integers(1, 6),
    )


surds = surds_of(FIELDS)
alphas = st.one_of(rationals, surds)
small_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
windows = st.integers(-80, 80).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo - 5, lo + 160)))


def gaps_of(alpha, count):
    res = three_distance(alpha, count)
    return res.gaps, res.distinct


def records_of(alpha, horizon):
    return [(rec.time, rec.value) for rec in uniform_rigidity_scan(RotationSystem((alpha,)), horizon)]


def offset_in_field(draw, alpha: TorusPoint):
    """A rational, or an element of alpha's field: k*alpha + r for a surd
    alpha, any surd for a rational one."""
    r = draw(small_fractions)
    if draw(st.booleans()):
        return r
    if isinstance(alpha.value, Fraction):
        return draw(surds).value
    return real_add(real_mul_int(alpha.value, draw(st.integers(-30, 30))), r)


def boundary_or_free(draw, value, lo, hi, top=60):
    """A radius: the exact distance dist(value(n)) at some n of the window when
    that is a positive rational, so that the open ball's edge is hit, else
    free up to top/120."""
    if lo <= hi and draw(st.booleans()):
        edge = torus_norm1(value(draw(st.integers(lo, hi))))
        if isinstance(edge, Fraction) and 0 < edge <= Fraction(1, 2):
            return edge
    return Fraction(draw(st.integers(1, top)), 120)


def torus_alphas(draw, k):
    """k frequencies, each rational or a surd; the surds come from distinct fields."""
    fields = draw(st.permutations(FIELDS))[:k]
    return tuple(draw(st.one_of(rationals, surds_of((d,)))) for d in fields)


def coordinate_edge_or_free(draw, alphas, offsets, lo, hi, top):
    """A torus radius: the exact distance of one coordinate at some n of the
    window when that is a positive rational, else free up to top/120."""
    i = draw(st.integers(0, len(alphas) - 1))
    return boundary_or_free(draw, lambda n: real_add(offsets[i], alphas[i].multiple(n)), lo, hi, top)


# -- continued fractions ------------------------------------------------------


radicands = st.one_of(st.integers(2, 10**4), st.integers(2**40, 2**56 - 1))


def wide_surd(d, a, b, c):
    """(a + b*sqrt(d))/c, or None where d is not square-free: Surd.make
    keeps a square-free d up to 56 bits as it is."""
    x = Surd.make(Fraction(a, c), Fraction(b, c), d)
    return x if isinstance(x, Surd) and x.d == d else None


wide_surds = st.builds(
    wide_surd,
    radicands,
    st.integers(-10**6, 10**6),
    st.sampled_from([b for b in range(-50, 51) if b]),
    st.integers(1, 10**4),
)


@given(wide_surds, st.integers(0, 200))
@example(Surd.make(0, 1, 2**56 - 5), 200)
@settings(max_examples=25, deadline=None)
def test_continued_fraction_quotients(x, depth):
    assume(x is not None)
    f = real_frac(x)
    quotients, _, _ = floor_walk(f, f.c, depth + 1)
    assert list(continued_fraction(x, depth).quotients) == [real_floor(x)] + quotients


@given(st.one_of(rationals.map(lambda p: p.value), wide_surds), st.integers(0, 300), st.integers(1, 150))
@example(golden_rotation().value, 300, 150)
@settings(max_examples=60, deadline=None)
def test_kernel_walk_matches_the_floor_walk(alpha, k, depth):
    # the unit carries eta's 10**k, which the PQa state never sees
    assume(alpha is not None)
    alpha = real_frac(alpha)
    kernel = CircleKernel.of(alpha, Fraction(1, 10**k))
    kernel._reach(depth)
    _, q, delta = floor_walk(alpha, kernel.unit, depth)
    assert kernel.q == q
    assert kernel.delta == delta


@given(
    st.one_of(alphas, st.just(TorusPoint(0))),
    st.one_of(
        st.just(Fraction(1, 2)),
        st.just(Fraction(1, 10**6)),
        st.integers(2, 10**6).flatmap(lambda den: st.integers(1, den // 2).map(lambda num: Fraction(num, den))),
    ),
    st.sampled_from((0, 1)),
)
@settings(max_examples=300, deadline=None)
def test_first_return_is_the_first_entry_from_alpha(alpha, radius, side):
    # first_entry descends to the least x >= 0 with alpha + x*alpha in the arc
    kernel = CircleKernel.of(alpha.value, radius)
    unit, ell = kernel.unit, kernel.scaled(2 * radius)
    lo, hi = (0, ell) if side == 0 else (unit - ell, unit)
    x = kernel.first_entry(kernel.delta[1], lo, hi)
    assert kernel.first_return(side, ell) == (None if x is None else x + 1)


# -- gaps, density constants, rigidity records ------------------------------


@given(st.integers(1, 300).flatmap(lambda q: st.tuples(st.integers(0, q - 1), st.just(q), st.integers(1, 2 * q))))
@settings(max_examples=150, deadline=None)
def test_three_distance_rational(case):
    p, q, count = case
    alpha = TorusPoint(Fraction(p, q))
    assert gaps_of(alpha, count) == sorting_three_distance(alpha, count)


def expanded_parts(alpha, count):
    parts = three_distance_parts(alpha, count)
    return tuple(g for g, mult in parts for _ in range(mult)), tuple(g for g, _ in parts)


@given(st.integers(1, 300).flatmap(lambda q: st.tuples(st.integers(0, q - 1), st.just(q), st.integers(1, 2 * q))))
@settings(max_examples=100, deadline=None)
def test_three_distance_parts_rational(case):
    p, q, count = case
    alpha = TorusPoint(Fraction(p, q))
    assert expanded_parts(alpha, count) == sorting_three_distance(alpha, count)


@given(surds, st.integers(1, 150))
@settings(max_examples=100, deadline=None)
def test_three_distance_surd(alpha, count):
    gaps, distinct = gaps_of(alpha, count)
    assert (gaps, distinct) == sorting_three_distance(alpha, count) == expanded_parts(alpha, count)
    assert all(isinstance(g, Surd) for g in gaps)


@given(alphas, st.integers(1, 40))
@settings(max_examples=100, deadline=None)
def test_eta_dense_at_a_gap_of_the_orbit(alpha, m0):
    # eta is half the largest gap of the first m0 + 1 points (rounded up to a
    # Fraction for a surd), so M <= m0, or about that
    gaps, _ = sorting_three_distance(alpha, m0)
    worst = gaps[-1]
    eta = worst / 2 if isinstance(worst, Fraction) else Fraction(math.ceil(float(worst) * 4096), 8192)
    res = eta_dense_constant(RotationSystem((alpha,)), eta)
    assert (res.constant, res.max_gap) == scan_eta_dense(alpha, eta, max(m0, res.constant))


@given(st.integers(1, 60).flatmap(lambda q: st.tuples(st.integers(0, q - 1), st.just(q))), st.integers(1, 130))
@settings(max_examples=100, deadline=None)
def test_eta_dense_rational(pq, k):
    alpha, eta = TorusPoint(Fraction(*pq)), Fraction(1, k)
    system = RotationSystem((alpha,))
    q = alpha.value.denominator
    if Fraction(1, q) > 2 * eta:
        with pytest.raises(NoSuchM):
            eta_dense_constant(system, eta)
        return
    res = eta_dense_constant(system, eta)
    assert (res.constant, res.max_gap) == scan_eta_dense(alpha, eta, q)


@pytest.mark.parametrize(
    "alpha, bound", [(Fraction(1, 7), Fraction(1, 20)), (Fraction(6, 7), Fraction(1, 8)), (Fraction(0), Fraction(1, 2))]
)
def test_density_constant_of_a_coarse_closed_orbit_is_no_such_m(alpha, bound):
    # the walk ends at delta = 0 with every gap 1/q above the bound
    q = alpha.denominator
    with pytest.raises(NoSuchM, match=f"orbit closes after {q} points with gap 1/{q} > 2[*]eta"):
        CircleKernel.of(alpha, bound).density_constant(bound)
    assert CircleKernel.of(alpha).density_constant(Fraction(1, q)) == (q - 1 or 1, Fraction(1, q))


@given(alphas, st.integers(0, 400))
@settings(max_examples=100, deadline=None)
def test_rigidity_records(alpha, horizon):
    assert records_of(alpha, horizon) == scan_records((alpha,), horizon)


# -- hits: Bohr sets, point and set return times ----------------------------


@given(st.data(), alphas, windows)
@settings(max_examples=200, deadline=None)
def test_bohr_enumerate(data, alpha, window):
    lo, hi = window
    eps = boundary_or_free(data.draw, alpha.multiple, lo, hi)
    hits = bohr_enumerate(BohrSpec((alpha,), eps), Window(lo, hi))
    assert hits == scan_hits((alpha,), (Fraction(0),), eps, lo, hi, skip_zero=True)


@given(st.data(), alphas, st.integers(0, 90))
@settings(max_examples=200, deadline=None)
def test_return_times_point(data, alpha, horizon):
    # a rational alpha takes a point from any field, and the center from the point's
    point = offset_in_field(data.draw, alpha)
    center = data.draw(st.one_of(small_fractions, st.just(real_mul_int(point, 2))))
    system = RotationSystem((alpha,))
    if data.draw(st.booleans()):
        x0, c0 = system.point([point])[0], system.point([center])[0]
        radius = boundary_or_free(
            data.draw, lambda n: real_add(real_add(x0, -c0), alpha.multiple(n)), -horizon, horizon
        )
    else:
        radius = Fraction(data.draw(st.integers(1, 90)), 120)  # up to 3/4: past 1/2 every n returns
    ball = BallSpec((center,), radius)
    got = return_times_point(system, (point,), ball, horizon)
    assert got == scan_return_times_point(system, (point,), ball, horizon)


@given(alphas, st.integers(0, 90), st.integers(1, 50))
@settings(max_examples=150, deadline=None)
def test_return_times_set(alpha, horizon, k):
    system, ball = RotationSystem((alpha,)), BallSpec((Fraction(1, 3),), Fraction(k, 120))
    assert return_times_set(system, ball, horizon) == scan_return_times_set(system, ball, horizon)


@given(st.data(), surds, surds, st.integers(0, 30))
@settings(max_examples=40, deadline=None)
def test_one_field_per_coordinate(data, alpha, other, horizon):
    # two fields on two coordinates of a torus are walked one per coordinate;
    # a point or center from another field than its own frequency is
    # refused, on the circle and on a torus
    assume(isinstance(other.value, Surd) and other.value.d != alpha.value.d)
    ball = BallSpec((Fraction(0),), Fraction(data.draw(st.integers(1, 60)), 120))
    circle = RotationSystem((alpha,))
    with pytest.raises(ValueError, match="one quadratic field"):
        return_times_point(circle, (other.value,), ball, horizon)
    with pytest.raises(ValueError, match="one quadratic field"):
        return_times_point(circle, (Fraction(1, 3),), BallSpec((other.value,), ball.radius), horizon)
    torus = RotationSystem((alpha, other))
    with pytest.raises(ValueError, match="one quadratic field"):
        return_times_point(torus, (Fraction(1, 5), alpha.value), BallSpec((0, 0), ball.radius), horizon)
    point = (real_mul_int(alpha.value, 3), real_mul_int(other.value, 2))
    torus_ball = BallSpec((Fraction(1, 3), Fraction(1, 4)), ball.radius)
    assert return_times_point(torus, point, torus_ball, horizon) == scan_return_times_point(
        torus, point, torus_ball, horizon
    )
    assert return_times_set(torus, ball, horizon) == scan_return_times_set(torus, ball, horizon)


def test_rational_alpha_with_a_surd_offset():
    # int steps and surd positions: every close call comes from the offset
    alpha, offset = TorusPoint(Fraction(5, 13)), Surd.make(Fraction(1, 7), Fraction(1, 3), 2)
    for radius in (Fraction(1, 26), Fraction(1, 13), Fraction(3, 10), Fraction(1, 2)):
        kernel = CircleKernel.of(alpha.value, offset, radius)
        assert kernel_hits([kernel], [alpha.value], [offset], radius, Window(-200, 200)) == scan_hits(
            (alpha,), (offset,), radius, -200, 200
        )


@pytest.mark.parametrize("bits", [0, 3])
@given(st.data(), alphas, windows)
@settings(max_examples=60, deadline=None)
def test_close_calls_are_decided_exactly(bits, data, alpha, window):
    # with few fractional bits most comparisons of a surd walk are close
    # calls, and each is decided by the exact sign test
    lo, hi = window
    offset = offset_in_field(data.draw, alpha)
    radius = boundary_or_free(data.draw, lambda n: real_add(offset, alpha.multiple(n)), lo, hi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bohr, "_WALK_BITS", bits)
        kernel = CircleKernel.of(alpha.value, offset, radius)
        got = kernel_hits([kernel], [alpha.value], [offset], radius, Window(lo, hi))
    assert got == scan_hits((alpha,), (offset,), radius, lo, hi)


# -- tori: the coordinates' walks intersected -------------------------------


@given(st.data(), st.integers(2, 3), windows)
@settings(max_examples=100, deadline=None)
def test_torus_bohr_enumerate(data, k, window):
    lo, hi = window
    alphas = torus_alphas(data.draw, k)
    zeros = (Fraction(0),) * k
    eps = coordinate_edge_or_free(data.draw, alphas, zeros, lo, hi, 60)
    hits = bohr_enumerate(BohrSpec(alphas, eps), Window(lo, hi))
    assert hits == scan_hits(alphas, zeros, eps, lo, hi, skip_zero=True)


@given(st.data(), st.integers(2, 3), st.integers(0, 70))
@settings(max_examples=100, deadline=None)
def test_torus_return_times_point(data, k, horizon):
    alphas = torus_alphas(data.draw, k)
    point = tuple(offset_in_field(data.draw, a) for a in alphas)
    center = tuple(data.draw(st.one_of(small_fractions, st.just(real_mul_int(x, 2)))) for x in point)
    system = RotationSystem(alphas)
    offsets = [real_sub(x, c) for x, c in zip(system.point(point), system.point(center))]
    # up to 110/120: past 1/2 every n is a candidate of every coordinate
    radius = coordinate_edge_or_free(data.draw, alphas, offsets, -horizon, horizon, 110)
    ball = BallSpec(center, radius)
    got = return_times_point(system, point, ball, horizon)
    assert got == scan_return_times_point(system, point, ball, horizon)


@given(st.data(), st.integers(2, 3), st.integers(0, 70), st.integers(1, 60))
@settings(max_examples=100, deadline=None)
def test_torus_return_times_set(data, k, horizon, j):
    # 2*rho runs up to 1, past 1/2 for j > 30
    system = RotationSystem(torus_alphas(data.draw, k))
    ball = BallSpec((Fraction(1, 3),) * k, Fraction(j, 120))
    assert return_times_set(system, ball, horizon) == scan_return_times_set(system, ball, horizon)


# Pythagorean tuples: the squares of all but the last entry sum to the last's
PYTHAGOREAN = {2: ((3, 4, 5), (5, 12, 13), (8, 15, 17)), 3: ((1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9))}


@given(st.data(), st.integers(2, 3), st.booleans(), st.integers(-60, 60))
@settings(max_examples=100, deadline=None)
def test_torus_radius_at_an_exact_norm(data, k, same_field, n0):
    # offsets put the orbit at the rational point t at n0, |t| = radius:
    # n0 is a candidate of every coordinate and lies on the ball's edge
    fields = [data.draw(st.sampled_from(FIELDS))] * k if same_field else data.draw(st.permutations(FIELDS))[:k]
    alphas = tuple(data.draw(st.one_of(rationals, surds_of((d,)))) for d in fields)
    *legs, hyp = data.draw(st.sampled_from(PYTHAGOREAN[k]))
    m = data.draw(st.integers(2 * hyp, 6 * hyp))
    t = [Fraction(data.draw(st.sampled_from((-1, 1))) * leg, m) for leg in legs]
    offsets = tuple(real_sub(ti, a.multiple(n0)) for ti, a in zip(t, alphas))
    radius = Fraction(hyp, m)
    lo, hi = n0 - data.draw(st.integers(0, 80)), n0 + data.draw(st.integers(0, 80))
    values = [a.value for a in alphas]
    kernels = [CircleKernel.of(a, o, radius) for a, o in zip(values, offsets)]
    got = kernel_hits(kernels, values, offsets, radius, Window(lo, hi))
    assert n0 not in got
    assert got == scan_hits(alphas, offsets, radius, lo, hi)


# -- the hit cap --------------------------------------------------------------


def small_cap(monkeypatch, cap: int) -> None:
    """HIT_CAP at cap for the walk and for the counts that
    intsets._check_listing refuses before it: every cap reads intsets."""
    monkeypatch.setattr(intsets, "HIT_CAP", cap)


@pytest.mark.parametrize(
    "alphas, radius",
    [
        ((golden_rotation(),), Fraction(1, 3)),
        ((TorusPoint(Fraction(2, 7)),), Fraction(1, 5)),
        ((golden_rotation(), TorusPoint(Surd.make(0, 1, 2))), Fraction(1, 5)),
        ((golden_rotation(), TorusPoint(Fraction(1, 3))), Fraction(3, 5)),  # every n a candidate
    ],
)
def test_a_listing_raises_on_the_hit_past_the_cap(monkeypatch, alphas, radius):
    window = Window(-60, 60)
    hits = frequency_hits(alphas, radius, window)
    walks = [frequency_hits(alphas[i : i + 1], radius, window) for i in range(len(alphas))]
    fullest = max(len(w) for w in walks)
    small_cap(monkeypatch, fullest)
    assert frequency_hits(alphas, radius, window) == hits
    small_cap(monkeypatch, fullest - 1)
    with pytest.raises(ListingBudgetExceeded):
        frequency_hits(alphas, radius, window)


@pytest.mark.parametrize("alpha, radius", [(Fraction(1, 2), Fraction(1, 4)), (Fraction(2, 5), Fraction(1, 20))])
def test_a_walk_of_exactly_the_cap_lists_and_one_more_is_refused_before_walking(monkeypatch, alpha, radius):
    # the hits are the multiples of the period a, with b = 0: the bound
    # 1 + (hi - n) // (a + b) on the count is exact
    period = alpha.denominator
    small_cap(monkeypatch, 1000)
    hits = frequency_hits((TorusPoint(alpha),), radius, Window(0, 999 * period))
    assert hits == tuple(range(0, 1000 * period, period))

    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(bohr, "_slater_walk", no_walk)
    with pytest.raises(ListingBudgetExceeded, match="hit listing of 1001 elements exceeds the listing cap 1000"):
        frequency_hits((TorusPoint(alpha),), radius, Window(0, 1000 * period))


def test_a_walk_that_must_pass_the_cap_exits_4_before_walking(monkeypatch, capsys):
    # at eps = 10**-12 the golden walk's hits are at most about 10**12 apart,
    # so [0, 10**30] holds far more than HIT_CAP; it listed a million first
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(bohr, "_slater_walk", no_walk)
    argv = ["bohr", "enumerate", "--alpha", "golden", "--eps", f"1/{10**12}", "--lo", "0", "--hi", str(10**30)]
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hit listing of" in captured.err and "exceeds the listing cap" in captured.err


CAPPED_CALLS = [
    ["bohr", "enumerate", "--eps", "1/5", "--lo", "-200", "--hi", "200"],
    ["dyn", "returns", "--point", "1/3", "--center", "0", "--radius", "1/10", "--horizon", "200"],
    ["dyn", "nuu", "--point", "1/3", "--center", "0", "--radius", "1/10", "--horizon", "200"],
]


@pytest.mark.parametrize("frequencies", [["golden"], ["golden", "sqrt2"]], ids=["circle", "torus"])
@pytest.mark.parametrize("argv", CAPPED_CALLS, ids=lambda argv: " ".join(argv[:2]))
def test_cli_exits_4_past_the_hit_cap(monkeypatch, capsys, frequencies, argv):
    alpha_flags = [flag for f in frequencies for flag in ("--alpha", f)]
    assert cli.main(argv[:2] + alpha_flags + argv[2:]) == 0
    capsys.readouterr()
    small_cap(monkeypatch, 10)
    assert cli.main(argv[:2] + alpha_flags + argv[2:]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "hit listing" in captured.err and "exceeds the listing cap 10" in captured.err


FRACTION_SYSTEMS = {
    "golden": (golden_rotation(),),
    "13/67": (TorusPoint(Fraction(13, 67)),),
    "torus": (golden_rotation(), sqrt2_rotation()),
}
TENTH = Fraction(1, 10)
# each builds the call of a loop over a listing of the given size, and the two sizes
FRACTION_LOOPS = {
    "enumerate": (lambda alphas, w: partial(bohr_enumerate, BohrSpec(alphas, TENTH), Window(-w, w)), (200, 20_000)),
    "records": (lambda alphas, t: partial(record_times, [a.value for a in alphas], range(1, t + 1)), (100, 10_000)),
    "returns": (
        lambda alphas, h: partial(
            return_times_point,
            RotationSystem(alphas),
            (Fraction(1, 3),) * len(alphas),
            BallSpec((Fraction(0),) * len(alphas), TENTH),
            h,
        ),
        (200, 20_000),
    ),
}


@pytest.mark.parametrize("system", FRACTION_SYSTEMS)
@pytest.mark.parametrize("loop", FRACTION_LOOPS)
def test_hot_loops_build_no_fraction_per_hit(monkeypatch, loop, system):
    make, sizes = FRACTION_LOOPS[loop]
    original = Fraction.__new__
    counts = []
    for size in sizes:
        call, built = make(FRACTION_SYSTEMS[system], size), []

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        assert call()
        monkeypatch.undo()
        counts.append(len(built))
    assert counts[0] == counts[1]
    if loop != "returns":  # a return-time query reads its ball and point into a few
        assert counts == [0, 0]
