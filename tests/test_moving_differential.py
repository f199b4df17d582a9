"""Point-free moving-recurrence functionals against stepped orbit points.

A rotation is an isometry, so psi_moving, phi_l and the moving-recurrence
experiment read only the exact multiples r*alpha.  The oracles step the
orbit points T^(n+r) x and T^n x and minimise their differences, as the
functionals did before; both must print the same exact values and decide
the same comparisons with eps.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from reclab.dynamics import MovingQuery, RotationSystem, moving_recurrence_experiment, phi_l, psi_moving
from reclab.exactreal import Surd, TorusPoint, real_add, real_mul_int, real_to_json

from oracles import stepping_moving, stepping_phi, stepping_psi

FIELDS = (2, 3, 5, 6, 7, 13)

rationals = st.integers(1, 60).flatmap(lambda q: st.integers(0, q - 1).map(lambda p: TorusPoint(Fraction(p, q))))
surds = st.builds(
    lambda d, a, b, c: TorusPoint(Surd.make(Fraction(a, c), Fraction(b, c), d)),
    st.sampled_from(FIELDS),
    st.integers(-6, 6),
    st.sampled_from((-3, -2, -1, 1, 2, 3)),
    st.integers(1, 6),
)
systems = st.lists(st.one_of(rationals, surds), min_size=1, max_size=2).map(lambda a: RotationSystem(tuple(a)))
small_fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
# 0, negatives and repeats; r and -r tie in norm
terms = st.lists(st.integers(-40, 40), min_size=1, max_size=12)


@st.composite
def points(draw, sys_):
    """A rational coordinate, or one from the field of that coordinate's alpha
    (any field when alpha is rational), so every difference stays exact."""
    coords = []
    for alpha in sys_.alphas:
        r = draw(small_fractions)
        if draw(st.booleans()):
            coords.append(r)
        elif isinstance(alpha.value, Fraction):
            coords.append(real_add(draw(surds).value, r))
        else:
            coords.append(real_add(real_mul_int(alpha.value, draw(st.integers(-9, 9))), r))
    return tuple(coords)


@st.composite
def cases(draw):
    """A system, a point in it, the times n_k and offsets r_k, and an eps
    that may be one of the system's own rational distances, so that strict <
    is tested at equality."""
    sys_ = draw(systems)
    n_terms = draw(terms)
    r_terms = draw(st.lists(st.integers(-40, 40), min_size=len(n_terms), max_size=len(n_terms)))
    eps = Fraction(draw(st.integers(1, 60)), 120)
    edge = sys_.displacement_norm(draw(st.sampled_from(r_terms)))
    if isinstance(edge, Fraction) and edge > 0 and draw(st.booleans()):
        eps = edge
    return sys_, draw(points(sys_)), tuple(n_terms), tuple(r_terms), eps


def query(r_terms, eps):
    """The query whose offsets are r_terms, k = 1..len(r_terms)."""
    return MovingQuery(len(r_terms), eps, lambda k: r_terms[k - 1])


def shown(pair):
    value, below_eps = pair
    return real_to_json(value), below_eps


GOLDEN = RotationSystem((TorusPoint(Surd.make(Fraction(-1, 2), Fraction(1, 2), 5)),))


@given(cases())
@example((GOLDEN, (Fraction(1, 3),), (0, -4, 9), (0, 3, -3), Fraction(1, 100)))
@example((RotationSystem((TorusPoint(Fraction(1, 5)),)), (Fraction(1, 7),), (1, 2), (3, -3), Fraction(2, 5)))
@settings(max_examples=150, deadline=None)
def test_psi_matches_stepped_points(case):
    sys_, x, n_terms, r_terms, eps = case
    assert shown(psi_moving(sys_, query(r_terms, eps))) == shown(stepping_psi(sys_, x, n_terms, r_terms, eps))


@st.composite
def default_offset_cases(draw):
    """A circle or 2-torus rotation and a horizon up to 2,000; a rational
    circle alpha p/q comes with a horizon of at least q, so that its orbit
    closes inside it."""
    kind = draw(st.sampled_from(("zero", "half", "rational", "surd", "torus")))
    if kind == "torus":
        sys_ = RotationSystem(tuple(draw(st.lists(st.one_of(rationals, surds), min_size=2, max_size=2))))
        return sys_, draw(st.integers(1, 2000))
    if kind == "rational":
        q = draw(st.integers(1, 60))
        alpha = TorusPoint(Fraction(draw(st.integers(0, q - 1)), q))
        return RotationSystem((alpha,)), draw(st.integers(q, 2000))
    alpha = {"zero": TorusPoint(Fraction(0)), "half": TorusPoint(Fraction(1, 2))}.get(kind) or draw(surds)
    return RotationSystem((alpha,)), draw(st.integers(1, 2000))


SQRT2_SQRT3 = RotationSystem((TorusPoint(Surd.make(0, 1, 2)), TorusPoint(Surd.make(0, 1, 3))))


@given(default_offset_cases(), st.integers(1, 60), st.integers(-3, 3), st.integers(-9, 9))
@example((GOLDEN, 2000), 1, 1, 0)
@example((SQRT2_SQRT3, 2000), 1, 1, 0)
@example((RotationSystem((TorusPoint(Fraction(0)),)), 1), 1, 0, 0)
@example((RotationSystem((TorusPoint(Fraction(1, 2)),)), 2), 60, 0, 1)
@example((RotationSystem((TorusPoint(Fraction(17, 60)),)), 60), 1, 1, 0)
@settings(max_examples=40, deadline=None)
def test_default_offsets_match_stepped_points(case, eps_num, a, b):
    # r_k = k: psi reads the last rigidity record, the oracle steps n_k = a*k^2 + b*k
    sys_, horizon = case
    eps = Fraction(eps_num, 120)
    ks = range(1, horizon + 1)
    n_terms = [a * k * k + b * k for k in ks]
    x = tuple(Fraction(1, 3) for _ in sys_.alphas)
    assert shown(psi_moving(sys_, MovingQuery(horizon, eps))) == shown(stepping_psi(sys_, x, n_terms, ks, eps))


@given(systems.flatmap(lambda s: st.tuples(st.just(s), points(s))), terms, st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_phi_matches_stepped_points(system_point, times, horizon):
    sys_, x = system_point
    assume(any(n != 0 and abs(n) <= horizon for n in times))
    got = phi_l(sys_, times, horizon)
    assert real_to_json(got) == real_to_json(stepping_phi(sys_, x, times, horizon))


@given(cases(), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_experiment_matches_every_sample_point(case, samples):
    sys_, _, n_terms, r_terms, eps = case
    rep = moving_recurrence_experiment(sys_, query(r_terms, eps), samples)
    values, fraction = stepping_moving(sys_, n_terms, r_terms, eps, samples)
    assert (rep.psi_min, rep.psi_max, rep.fraction_below) == (min(values), max(values), fraction)
