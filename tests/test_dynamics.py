"""Rotations, indicator subshifts, and the finite-horizon experiments."""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from reclab import bohr, dynamics, intsets
from reclab.bohr import torus_norm
from reclab.dynamics import (
    HORIZON_NOTE,
    BallSpec,
    MovingQuery,
    RotationSystem,
    eta_dense_constant,
    find_l_recurrent,
    SubshiftSystem,
    moving_recurrence_experiment,
    phi_l,
    psi_moving,
    return_times_point,
    return_times_set,
    uniform_rigidity_scan,
    verify_nuu,
)
from reclab.dynamics import _orbit_kernels, _reverse_by_density
from reclab.errors import ListingBudgetExceeded, NoElementsInWindow, NoSuchM, WindowInadequate
from reclab.exactreal import (
    Surd,
    TorusPoint,
    golden_rotation,
    real_add,
    real_cmp,
    real_mul_int,
    parse_real,
    real_sub,
    real_to_float,
    sqrt2_rotation,
    torus_norm1,
)
from reclab.intsets import Window

from oracles import bitmask_verify_nuu, dist_lt, real_eq, scan_return_times_set, step, stepping_psi


GOLDEN = RotationSystem((golden_rotation(),))
FIFTH = RotationSystem((TorusPoint(Fraction(1, 5)),))
THIRTEEN_37THS = RotationSystem((TorusPoint(Fraction(13, 37)),))
THIRTEEN_67THS = RotationSystem((TorusPoint(Fraction(13, 67)),))


def dist(x, y):
    return torus_norm([real_sub(a, b) for a, b in zip(x, y)])


class TestRotationBasics:
    def test_step_wraps(self):
        x = FIFTH.point([Fraction(3, 5)])
        assert step(FIFTH, x, 3)[0] == Fraction(1, 5)
        assert step(FIFTH, x, -4)[0] == Fraction(4, 5)

    def test_dist_is_torus_metric(self):
        a = FIFTH.point([Fraction(1, 10)])
        b = FIFTH.point([Fraction(9, 10)])
        assert dist(a, b) == Fraction(1, 5)

    def test_displacement_point_independent(self):
        # same displacement from any base point
        n = 7
        for x0 in (Fraction(0), Fraction(1, 3), Fraction(9, 11)):
            x = GOLDEN.point([x0])
            d = dist(step(GOLDEN, x, n), x)
            assert real_eq(d, GOLDEN.displacement_norm(n))

    def test_two_dim_distance(self):
        sys2 = RotationSystem((TorusPoint(Fraction(1, 4)), TorusPoint(Fraction(1, 3))))
        a = sys2.point([Fraction(0), Fraction(0)])
        b = sys2.point([Fraction(1, 2), Fraction(0)])
        assert dist(a, b) == Fraction(1, 2)
        # dist_lt uses squared norms, no rounding
        assert dist_lt(a, b, Fraction(51, 100))
        assert not dist_lt(a, b, Fraction(1, 2))


class TestReturnTimes:
    def test_point_returns_rational(self):
        ball = BallSpec((Fraction(0),), Fraction(1, 10))
        times = return_times_point(FIFTH, FIFTH.zero(), ball, 12)
        assert times == (-10, -5, 0, 5, 10)

    def test_set_returns_match_frequency_set(self):
        rho = Fraction(1, 10)
        ball = BallSpec((Fraction(1, 3),), rho)  # center irrelevant
        observed = return_times_set(GOLDEN, ball, 30)
        assert observed == scan_return_times_set(GOLDEN, ball, 30)

    def test_zero_always_returns(self):
        ball = BallSpec((Fraction(0),), Fraction(1, 50))
        assert 0 in return_times_set(GOLDEN, ball, 5)

    @given(st.integers(2, 30), st.integers(1, 29), st.integers(2, 20))
    @settings(max_examples=25, deadline=None)
    def test_rational_set_returns_are_multiples(self, q, p, inv_rho):
        alpha = TorusPoint(Fraction(p % q or 1, q))
        sys_ = RotationSystem((alpha,))
        rho = Fraction(1, 2 * inv_rho)
        times = return_times_set(sys_, BallSpec((Fraction(0),), rho), 25)
        assert times == scan_return_times_set(sys_, BallSpec((Fraction(0),), rho), 25)
        den = alpha.value.denominator
        if 2 * rho <= Fraction(1, den):
            assert times == tuple(n for n in range(-25, 26) if n % den == 0)


class TestNuu:
    def test_golden_clean(self):
        rep = verify_nuu(
            GOLDEN,
            BallSpec((Fraction(1, 7),), Fraction(1, 12)),
            (Fraction(2, 5),),
            horizon=50,
        )
        assert rep.clean
        assert rep.window_ratio == 4 and rep.margin == Fraction(1, 100)

    def test_rational_orbit_misses_ball(self):
        # orbit of 0 under 1/5 never enters a small ball around 1/10, so the
        # reverse inclusion must flag exceptions
        rep = verify_nuu(
            FIFTH,
            BallSpec((Fraction(1, 10),), Fraction(1, 25)),
            (Fraction(0),),
            horizon=20,
        )
        assert rep.point_returns == ()
        assert rep.reverse_exceptions != ()
        assert rep.forward_exceptions == ()  # vacuous but exact

    def test_forward_inclusion_always_exact(self):
        rep = verify_nuu(
            GOLDEN, BallSpec((Fraction(0),), Fraction(1, 9)), (Fraction(1, 100),), 40
        )
        assert rep.forward_exceptions == ()


def pairwise_nuu(sys_, ball, x, horizon, margin):
    """Both inclusions of verify_nuu, pair by pair."""
    points = return_times_point(sys_, x, ball, horizon)
    set_returns = return_times_set(sys_, ball, horizon)
    forward = sorted({a - b for a in points for b in points if abs(a - b) <= horizon} - set(set_returns))
    big = set(return_times_point(sys_, x, BallSpec(ball.center, ball.radius + margin), 4 * horizon))
    reverse = [n for n in set_returns if not any((m + n) in big for m in big if abs(m + n) <= 4 * horizon)]
    return tuple(forward), tuple(reverse)


nuu_alphas = st.one_of(
    st.sampled_from([golden_rotation(), sqrt2_rotation()]),
    st.builds(lambda p, q: TorusPoint(Fraction(p % q, q)), st.integers(0, 40), st.integers(1, 20)),
)


@given(nuu_alphas, st.integers(0, 11), st.integers(1, 30), st.integers(0, 11),
       st.integers(0, 40), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_nuu_matches_the_pairwise_definition(alpha, c, k, p, horizon, m):
    sys_ = RotationSystem((alpha,))
    ball, x, margin = BallSpec((Fraction(c, 12),), Fraction(k, 64)), (Fraction(p, 12),), Fraction(m, 100)
    rep = verify_nuu(sys_, ball, x, horizon, margin=margin)
    assert (rep.forward_exceptions, rep.reverse_exceptions) == pairwise_nuu(sys_, ball, x, horizon, margin)


def test_nuu_on_a_torus_matches_the_pairwise_definition():
    sys_ = RotationSystem((TorusPoint(Fraction(1, 4)), TorusPoint(Fraction(1, 3))))
    ball, x = BallSpec((Fraction(0), Fraction(1, 6)), Fraction(1, 5)), (Fraction(1, 8), Fraction(0))
    rep = verify_nuu(sys_, ball, x, 15, margin=Fraction(0))
    assert rep.reverse_exceptions
    assert (rep.forward_exceptions, rep.reverse_exceptions) == pairwise_nuu(sys_, ball, x, 15, Fraction(0))


# -- verify_nuu against the bitmask oracle, on both reverse paths ------------


surd_alphas = st.builds(
    lambda d, a, b, c: TorusPoint(Surd.make(Fraction(a, c), Fraction(b, c), d)),
    st.sampled_from((2, 3, 5, 6, 7, 10, 11, 13)),
    st.integers(-6, 6),
    st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)),
    st.integers(1, 6),
)
oracle_alphas = st.one_of(nuu_alphas, surd_alphas)


def density_path(sys_, rho, margin, horizon) -> bool:
    """The density path's conditions, its constant from eta_dense_constant:
    a rational alpha whose orbit closes too coarse has none (NoSuchM)."""
    if sys_.dim != 1 or margin <= 0 or 4 * (rho + margin) > 1:
        return False
    try:
        return eta_dense_constant(sys_, margin).constant <= 7 * horizon
    except NoSuchM:
        return False


def check_against_oracle(sys_, ball, x, horizon, margin) -> bool:
    """verify_nuu equals bitmask_verify_nuu field by field; returns whether
    the density path was taken, after checking _reverse_by_density."""
    rep = verify_nuu(sys_, ball, x, horizon, margin=margin)
    assert rep == bitmask_verify_nuu(sys_, ball, x, horizon, margin=margin)
    _, _, kernels = _orbit_kernels(sys_, x, ball, margin)
    dense = _reverse_by_density(sys_, Fraction(ball.radius), margin, horizon, kernels)
    assert dense == density_path(sys_, Fraction(ball.radius), margin, horizon)
    return dense


@given(st.data(), oracle_alphas, st.integers(0, 99), st.integers(1, 25), st.integers(0, 10), st.integers(0, 300))
@settings(max_examples=120, deadline=None)
def test_nuu_matches_the_bitmask_oracle_on_the_circle(data, alpha, c, k, m, horizon):
    # rho up to 1/4, margins 0 to 1/10; a point on the orbit of a rational
    # one puts it in alpha's field
    x = Fraction(data.draw(st.integers(0, 99)), 100)
    if data.draw(st.booleans()):
        x = real_add(real_mul_int(alpha.value, data.draw(st.integers(-20, 20))), x)
    sys_, ball = RotationSystem((alpha,)), BallSpec((Fraction(c, 100),), Fraction(k, 100))
    dense = check_against_oracle(sys_, ball, (x,), horizon, Fraction(m, 100))
    event(f"density path: {dense}")


@given(st.lists(oracle_alphas, min_size=2, max_size=2), st.lists(st.integers(0, 99), min_size=4, max_size=4),
       st.integers(1, 25), st.integers(0, 10), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_nuu_matches_the_bitmask_oracle_on_a_torus(alphas, coords, k, m, horizon):
    sys_ = RotationSystem(tuple(alphas))
    ball = BallSpec((Fraction(coords[0], 100), Fraction(coords[1], 100)), Fraction(k, 100))
    x = (Fraction(coords[2], 100), Fraction(coords[3], 100))
    assert not check_against_oracle(sys_, ball, x, horizon, Fraction(m, 100))


class TestNuuPaths:
    """golden, x = 1/3, the ball of radius 1/20 around 0: M(1/100) = 88."""

    BALL, X = BallSpec((Fraction(0),), Fraction(1, 20)), (Fraction(1, 3),)

    @pytest.mark.parametrize(
        "system, radius, margin, horizon, dense",
        [
            (GOLDEN, Fraction(1, 20), Fraction(1, 100), 13, True),    # 7H = 91 >= 88
            (GOLDEN, Fraction(1, 20), Fraction(1, 100), 12, False),   # 7H = 84 < 88
            (GOLDEN, Fraction(1, 20), Fraction(0), 200, False),       # no margin, no constant
            (GOLDEN, Fraction(1, 5), Fraction(1, 20), 200, True),     # 4*(rho + margin) = 1
            (GOLDEN, Fraction(1, 5), Fraction(1, 10), 200, False),    # the arcs may wrap
            (FIFTH, Fraction(1, 20), Fraction(1, 20), 200, False),    # gap 1/5 > 2*margin: NoSuchM
            (FIFTH, Fraction(1, 20), Fraction(1, 10), 200, True),     # gap 1/5 <= 2*margin
            (THIRTEEN_37THS, Fraction(1, 20), Fraction(1, 100), 200, False),  # 1/37 > 1/50
            (THIRTEEN_67THS, Fraction(1, 20), Fraction(1, 100), 200, True),   # M = 66 <= 7H
        ],
    )
    def test_the_path_taken(self, system, radius, margin, horizon, dense):
        ball = BallSpec((Fraction(0),), radius)
        assert check_against_oracle(system, ball, self.X, horizon, margin) is dense

    def test_no_walk_below_the_counting_bound(self, monkeypatch):
        # 7H < 1/(2*margin) - 1 = 49 refuses the density path with no walk for M
        def no_walk(self, bound):
            raise AssertionError("density_constant walked")

        monkeypatch.setattr(bohr.CircleKernel, "density_constant", no_walk)
        rep = verify_nuu(GOLDEN, self.BALL, self.X, 6)
        assert rep == bitmask_verify_nuu(GOLDEN, self.BALL, self.X, 6)
        with pytest.raises(AssertionError, match="walked"):
            verify_nuu(GOLDEN, self.BALL, self.X, 7)  # 7H = 49: the bound does not refuse

    def test_no_8h_bit_mask_on_the_density_path(self, monkeypatch):
        sizes = []

        def recording(times, low, size):
            sizes.append(size)
            return bitmask(times, low, size)

        bitmask = dynamics._bitmask
        monkeypatch.setattr(dynamics, "_bitmask", recording)
        rep = verify_nuu(GOLDEN, self.BALL, self.X, 2000)
        assert rep.clean and sizes == []
        verify_nuu(GOLDEN, self.BALL, self.X, 12)
        assert sizes == [97]  # the enlarged ball's returns over [-48, 48]
        sizes.clear()
        rep = verify_nuu(THIRTEEN_67THS, self.BALL, self.X, 2000)
        assert rep.clean and sizes == []

    def test_a_negative_margin_is_refused(self):
        with pytest.raises(ValueError, match="margin must be >= 0"):
            verify_nuu(GOLDEN, self.BALL, self.X, 10, margin=Fraction(-1, 100))


class TestSubshift:
    def make(self, horizon=10):
        members = [n for n in range(-4 * horizon, 4 * horizon + 1) if n % 3 == 0]
        return SubshiftSystem(frozenset(members), Window(-4 * horizon, 4 * horizon))

    def test_symbols(self):
        s = self.make()
        assert s.symbol(0) == 1 and s.symbol(3) == 1 and s.symbol(2) == 0

    def test_window_adequacy_enforced(self):
        s = SubshiftSystem(frozenset([0, 3]), Window(-6, 6))
        with pytest.raises(WindowInadequate):
            s.phi(0, [2], 2)

    def test_window_short_of_the_offset_is_refused_before_the_scan(self, monkeypatch):
        # 4x the largest time fits in [-200, 200], but the scan from offset 190
        # would read up to 190 + 10 + 80
        s = SubshiftSystem(frozenset(range(-201, 202, 3)), Window(-200, 200))
        calls = []
        symbol = SubshiftSystem.symbol
        monkeypatch.setattr(SubshiftSystem, "symbol", lambda self, i: calls.append(i) or symbol(self, i))
        with pytest.raises(WindowInadequate, match=r"offset 190 \+- 90"):
            s.phi(190, [4, 7, 10], 20)
        assert calls == []
        assert s.phi(2, [4, 7, 10], 20) == Fraction(1)
        assert min(calls) >= -88 and max(calls) <= 92

    def test_cylinder_returns(self):
        s = self.make(9)
        times = s.returns(0, 9)
        assert times == (-9, -6, -3, 0, 3, 6, 9)

    def test_metric(self):
        s = self.make()
        # offsets 0 and 3 agree everywhere on the base word
        assert s.phi(0, [3], 10) == 0
        # offsets 0 and 1 differ at coordinate 0 already
        assert s.phi(0, [1], 10) == Fraction(1)


class TestPhi:
    def test_rotation_exact(self):
        v = phi_l(GOLDEN, [13, 21], horizon=30)
        assert real_eq(v, torus_norm1(golden_rotation().multiple(21)))

    def test_no_targets_in_horizon(self):
        with pytest.raises(NoElementsInWindow):
            phi_l(GOLDEN, [100], horizon=10)

    def test_zero_target_excluded(self):
        with pytest.raises(NoElementsInWindow):
            phi_l(GOLDEN, [0], horizon=10)


class TestPsiMoving:
    def test_horizon_past_the_listing_cap_evaluates_no_term(self):
        def never(k):
            raise AssertionError("a term was evaluated")

        with pytest.raises(ListingBudgetExceeded, match="formula horizon of 1000001 elements exceeds"):
            psi_moving(GOLDEN, MovingQuery(intsets.HIT_CAP + 1, Fraction(1, 100), never))

    def test_point_independence_on_rotations(self):
        # psi takes no point: its one value is the functional at every point
        q = MovingQuery(40, Fraction(1, 100))
        value, below_eps = psi_moving(GOLDEN, q)
        n_terms, r_terms = [k * k for k in range(1, 41)], range(1, 41)
        for x in (Fraction(0), Fraction(1, 3), Fraction(7, 9)):
            stepped, stepped_below = stepping_psi(GOLDEN, (x,), n_terms, r_terms, q.eps)
            assert real_eq(value, stepped) and below_eps == stepped_below

    def test_equals_displacement_minimum(self):
        q = MovingQuery(50, Fraction(1, 100))
        v, below_eps = psi_moving(GOLDEN, q)
        expected = min(
            (GOLDEN.displacement_norm(k) for k in range(1, 51)),
            key=real_to_float,
        )
        assert real_eq(v, expected)
        assert below_eps == (real_cmp(expected, Fraction(1, 100)) < 0)

    def test_horizon_below_one_rejected(self):
        with pytest.raises(ValueError, match="minimum over no times"):
            MovingQuery(0, Fraction(1, 10))

    def test_circle_reads_the_last_record_at_any_horizon(self):
        horizon = 10**30
        value, below_eps = psi_moving(GOLDEN, MovingQuery(horizon, Fraction(1, 100)))
        last = uniform_rigidity_scan(GOLDEN, horizon)[-1]
        assert real_eq(value, last.value) and below_eps

    def test_torus_default_offsets_past_the_cap_raise_before_the_scan(self):
        torus = RotationSystem((golden_rotation(), sqrt2_rotation()))
        with pytest.raises(ListingBudgetExceeded, match="torus record scan of 1000001 elements"):
            psi_moving(torus, MovingQuery(intsets.HIT_CAP + 1, Fraction(1, 100)))

    def test_each_offset_is_evaluated_once_in_order(self):
        seen = []
        q = MovingQuery(30, Fraction(1, 100), lambda k: seen.append(k) or 2 * k + 1)
        value, _ = psi_moving(GOLDEN, q)
        assert seen == list(range(1, 31))
        assert real_eq(value, min((GOLDEN.displacement_norm(2 * k + 1) for k in range(1, 31)), key=real_to_float))


class TestRecurrent:
    def test_golden_finds_fibonacci_time(self):
        w = find_l_recurrent(GOLDEN, [5, 8, 13], Fraction(1, 10))
        assert w is not None
        assert w.time == 5  # first target already below eps

    def test_rational_no_luck(self):
        w = find_l_recurrent(FIFTH, [1, 2, 3], Fraction(1, 10))
        assert w is None


class TestEtaDense:
    def test_golden_small_constant(self):
        res = eta_dense_constant(GOLDEN, Fraction(1, 5))
        assert res.constant == 2
        assert real_cmp(res.max_gap, Fraction(2, 5)) <= 0

    def test_golden_tighter_eta(self):
        res = eta_dense_constant(GOLDEN, Fraction(1, 20))
        assert res.constant == 12
        assert real_cmp(res.max_gap, Fraction(1, 10)) <= 0

    def test_rational_orbit_too_coarse(self):
        with pytest.raises(NoSuchM):
            eta_dense_constant(RotationSystem((TorusPoint(Fraction(1, 2)),)), Fraction(1, 10))

    def test_rational_orbit_fine_enough(self):
        res = eta_dense_constant(FIFTH, Fraction(1, 5))
        # {0, 1/5, 2/5, 3/5} already has max gap 2/5 = 2*eta
        assert res.constant == 3
        assert res.max_gap == Fraction(2, 5)


class TestRigidity:
    def test_records_strictly_decreasing(self):
        recs = uniform_rigidity_scan(GOLDEN, 300)
        values = [real_to_float(r.value) for r in recs]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)

    def test_record_times_are_fibonacci(self):
        recs = uniform_rigidity_scan(GOLDEN, 300)
        assert [r.time for r in recs] == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]

    def test_sqrt2_records_are_pell(self):
        recs = uniform_rigidity_scan(RotationSystem((sqrt2_rotation(),)), 180)
        assert [r.time for r in recs] == [1, 2, 5, 12, 29, 70, 169]


class TestMovingExperiment:
    def test_golden_fraction_one(self):
        q = MovingQuery(100, Fraction(1, 50))
        rep = moving_recurrence_experiment(GOLDEN, q, samples=8)
        assert rep.fraction_below == 1
        assert rep.note == HORIZON_NOTE
        assert rep.psi_min == rep.psi_max  # rotations: point-independent

    @pytest.mark.parametrize("eps, fraction", [(Fraction(1, 100), 0), (Fraction(1, 5), 1)])
    def test_two_field_fraction_needs_no_precision(self, monkeypatch, eps, fraction):
        # psi against eps is decided on squared norms; only psi_min and psi_max read the precision
        sys2 = RotationSystem((TorusPoint(parse_real("sqrt:2:0:1:1")), TorusPoint(parse_real("sqrt:3:0:1:1"))))
        q = MovingQuery(30, eps)
        for bits in (128, 8):
            monkeypatch.setattr(bohr, "_DISPLAY_BITS", bits)
            assert moving_recurrence_experiment(sys2, q, samples=5).fraction_below == fraction
