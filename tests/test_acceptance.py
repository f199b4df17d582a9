"""Ten end-to-end checks that pin down the library's headline behavior.

Each test prints one summary line (visible under ``pytest -s``); the
``pytest -v`` listing itself gives the per-criterion pass/fail record.
"""

import random
import time
from fractions import Fraction

from reclab.birkhoff import (
    PeriodicColoring,
    PeriodicWitness,
    SearchLimits,
    Status,
    WindowUnsat,
    check_r_birkhoff,
    greedy_coloring,
    verify_certificate,
)
from reclab.bohr import (
    continued_fraction,
    cyclic_obstruction,
    lacunary_witness,
    revalidate_witness,
)
from reclab.dynamics import (
    BallSpec,
    MovingQuery,
    RotationSystem,
    moving_recurrence_experiment,
    psi_moving,
    return_times_set,
    uniform_rigidity_scan,
    verify_nuu,
)
from reclab.exactreal import (
    Surd,
    TorusPoint,
    golden_rotation,
    real_cmp,
    real_to_float,
    sqrt2_rotation,
)
from reclab.intsets import (
    gen_k_times_nr,
    gen_l_r,
    gen_polynomial,
    l_r_layer,
    lacunarity_ratios,
)
from reclab.report import FAIL, PASS, UNDECIDED, run_claim_suite

from oracles import scan_records, scan_return_times_set, stepping_psi


GOLDEN = RotationSystem((golden_rotation(),))
SEED = 20260816


def report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def test_criterion_01_multiples_pigeonhole():
    started = time.perf_counter()
    checked = 0
    for k in range(1, 6):
        for r in range(1, 7):
            verdict = check_r_birkhoff(gen_k_times_nr(k, r), r)
            assert verdict.status == Status.R_BIRKHOFF, (k, r)
            assert isinstance(verdict.certificate, WindowUnsat)
            assert verdict.certificate.window <= k * r + 1, (k, r)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, f"{checked} (k,r) pairs, window <= k*r+1, {elapsed:.2f}s")


def test_criterion_02_cardinality_bound():
    rng = random.Random(SEED)
    for trial in range(100):
        r = rng.randint(1, 6)
        elems = sorted(rng.sample(range(1, 51), r))
        verdict = check_r_birkhoff(elems, r + 1)
        assert verdict.status == Status.NOT_R_BIRKHOFF, (trial, elems)
        assert verify_certificate(elems, r + 1, verdict.certificate), (trial, elems)

        n_terms = 10 * max(elems)
        run = greedy_coloring(elems, n_terms)
        seq = run.sequence
        for i in range(n_terms):
            for d in elems:
                if i - d >= 0:
                    assert seq[i] != seq[i - d], (trial, i, d)
                else:
                    # virtual positions <= 0 carry color 1
                    assert seq[i] != 1 or (i + 1 - d >= 1), (trial, i, d)
        assert max(seq) <= r + 1
    report(2, "100 random sets refuted at arity r+1, greedy re-checked")


def test_criterion_03_layered_family_triple():
    for r in (2, 3, 4):
        family = gen_l_r(r, 3)

        ratio, is_lac = lacunarity_ratios(family)
        assert is_lac and ratio == Fraction(r, max(r - 1, 1)), r

        elements = set(family)
        for k in range(4):
            layer = set(l_r_layer(r, k))
            truncation = sorted(elements - layer)
            verdict = check_r_birkhoff(truncation, r)
            assert verdict.status == Status.R_BIRKHOFF, (r, k)

        above = check_r_birkhoff(family, r + 1)
        assert above.status == Status.NOT_R_BIRKHOFF, r
        expected = PeriodicWitness(PeriodicColoring(r + 1, tuple(range(1, r + 2))))
        assert above.certificate == expected, r
    report(3, "r in {2,3,4}: lacunary ratio exact, stable at r, refuted at r+1")


def test_criterion_04_polynomial_obstruction():
    shifted = gen_polynomial([1, 0, 1], 100)
    res = cyclic_obstruction(shifted, 10, polynomial=[1, 0, 1])
    assert res is not None and res.modulus == 3
    assert res.absolute  # residues checked over a full period

    squares = gen_polynomial([0, 0, 1], 100)
    assert cyclic_obstruction(squares, 10, polynomial=[0, 0, 1]) is None
    report(4, "n^2+1 blocked mod 3 absolutely, n^2 unobstructed to m=10")


def test_criterion_05_lacunary_witness():
    doubling = [2**k for k in range(21)]
    delta = Fraction(3, 10)
    w = lacunary_witness(doubling, delta)
    assert w is not None
    assert isinstance(w.lo, Fraction) and isinstance(w.hi, Fraction)
    assert w.lo <= Fraction(1, 3) <= w.hi
    assert revalidate_witness(doubling, delta, w)
    report(5, f"interval [{w.lo}, {w.hi}] contains 1/3, revalidated")


def test_criterion_06_nuu_inclusions():
    rng = random.Random(SEED)
    for trial in range(20):
        center = Fraction(rng.randint(0, 999), 1000)
        radius = Fraction(rng.randint(5, 120), 1000)
        point = Fraction(rng.randint(0, 999), 1000)
        rep = verify_nuu(
            GOLDEN,
            BallSpec((center,), radius),
            (point,),
            horizon=50,
            margin=Fraction(1, 100),
        )
        assert rep.window_ratio == 4
        assert rep.forward_exceptions == (), trial
        assert rep.reverse_exceptions == (), trial
    report(6, "20 random balls and points, both inclusions exception-free")


def test_criterion_07_return_set_cross_check():
    rng = random.Random(SEED)
    quadratics = [
        golden_rotation(),
        sqrt2_rotation(),
        TorusPoint(Surd.make(Fraction(0), Fraction(1, 3), 3)),
        TorusPoint(Surd.make(Fraction(1, 4), Fraction(1, 5), 7)),
        TorusPoint(Surd.make(Fraction(0), Fraction(1, 4), 13)),
    ]
    for trial in range(20):
        if trial % 2 == 0:
            q = rng.randint(2, 60)
            p = rng.randint(1, q - 1)
            alpha = TorusPoint(Fraction(p, q))
        else:
            alpha = quadratics[(trial // 2) % len(quadratics)]
        rho = Fraction(rng.randint(2, 25), 100)
        horizon = rng.randint(10, 40)

        system = RotationSystem((alpha,))
        center = (Fraction(rng.randint(0, 99), 100),)
        observed = set(return_times_set(system, BallSpec(center, rho), horizon))

        expected = set(scan_return_times_set(system, BallSpec(center, rho), horizon))
        assert observed == expected, (trial, sorted(observed ^ expected))
    report(7, "20 instances: return-time sets equal frequency sets exactly")


def test_criterion_08_rigidity_matches_cf():
    horizon = 10**4
    records = uniform_rigidity_scan(GOLDEN, horizon)
    times = [rec.time for rec in records]
    assert [(rec.time, rec.value) for rec in records] == scan_records(GOLDEN.alphas, horizon)

    cf = continued_fraction(golden_rotation(), depth=25)
    dens = []
    for q in cf.denominators:
        if q > horizon:
            break
        if not dens or q != dens[-1]:
            dens.append(q)
    assert times == dens

    for rec, q_next_idx in zip(records, range(len(dens))):
        nxt = next(q for q in cf.denominators if q > rec.time)
        assert real_cmp(rec.value, Fraction(1, nxt)) < 0, rec.time
    report(8, f"records at {len(times)} convergent denominators, each < 1/q_next")


def test_criterion_09_moving_recurrence():
    formulas = {
        "k^2": lambda k: k * k,
        "k^3 - k": lambda k: k**3 - k,
        "2^k": lambda k: 2**k,
    }
    horizon = 200
    eps = Fraction(1, 100)
    expected = min(
        (GOLDEN.displacement_norm(k) for k in range(1, horizon + 1)),
        key=real_to_float,
    )
    expected_f = real_to_float(expected)

    # psi reads no n_k: one query stands for every formula, and the orbit
    # points stepped along each formula's n_k give the same minimum
    query = MovingQuery(horizon, eps)
    rep = moving_recurrence_experiment(GOLDEN, query, samples=10)
    assert rep.fraction_below == 1
    psi, _ = psi_moving(GOLDEN, query)
    assert abs(real_to_float(psi) - expected_f) <= 1e-12
    ks = range(1, horizon + 1)
    for label, fn in formulas.items():
        stepped, below = stepping_psi(GOLDEN, (Fraction(1, 3),), [fn(k) for k in ks], ks, eps)
        assert below and abs(real_to_float(stepped) - expected_f) <= 1e-12, label
    report(9, "3 formulas, K=200: fraction 1.0, psi matches min displacement")


def test_criterion_10_starvation_soundness():
    starved = run_claim_suite(limits=SearchLimits(node_budget=10), seed=SEED)
    statuses = {res.claim: res.status for res in starved.results}
    assert len(statuses) == 12
    assert all(s in (PASS, UNDECIDED) for s in statuses.values()), statuses
    assert FAIL not in statuses.values()

    poisoned = run_claim_suite(
        seed=SEED, inject_corruption=True, only=["certificate-audit"]
    )
    assert poisoned.results[0].status == FAIL
    report(10, "starved suite never lies, corrupted certificates caught")
