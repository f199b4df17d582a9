"""End-to-end claim suite: re-derives the headline results at desk scale.

Each claim is a named, self-contained check with a fixed place in the run
order.  A claim reports PASS when its computation confirms the expected
outcome, FAIL when a computation finishes and contradicts it, and UNDECIDED
when a solver verdict ran out of budget before deciding.  Starving the node
budget must therefore never produce a FAIL, only UNDECIDED.

The corruption switch deliberately tampers with one certificate before the
audit claim re-verifies it; the resulting FAIL is the negative control
showing verification has teeth.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import eq
from typing import Callable, Optional

from .birkhoff import (
    PeriodicColoring,
    PeriodicWitness,
    SearchLimits,
    Status,
    WindowUnsat,
    certificate_to_json,
    check_r_birkhoff,
    greedy_coloring,
    stably_r_birkhoff_probe,
    verify_certificate,
)
from .bohr import (
    _torus_test,
    continued_fraction,
    cyclic_obstruction,
    lacunary_witness,
    record_times,
    revalidate_witness,
)
from .dynamics import (
    BallSpec,
    MovingQuery,
    RotationSystem,
    moving_recurrence_experiment,
    return_times_set,
    uniform_rigidity_scan,
    verify_nuu,
)
from .exactreal import (
    Surd,
    TorusPoint,
    golden_rotation,
    real_cmp,
    real_to_float,
    torus_norm1,
)
from .intsets import (
    gen_k_times_nr,
    gen_l_r,
    gen_polynomial,
    l_r_layer,
    lacunarity_ratios,
)
from .seqexpr import compile_sequence

PASS, FAIL, UNDECIDED = "PASS", "FAIL", "UNDECIDED"


@dataclass
class ClaimResult:
    claim: str
    title: str
    status: str
    details: dict
    certificates: list = field(default_factory=list)
    runtime_seconds: float = 0.0


@dataclass
class ClaimSuite:
    results: list[ClaimResult]
    seed: int
    corruption_injected: bool
    limits: SearchLimits

    @property
    def all_pass(self) -> bool:
        return all(r.status == PASS for r in self.results)


def _cert_digest(cert_jsons: list) -> str:
    blob = json.dumps(cert_jsons, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# individual claims
# ---------------------------------------------------------------------------


def _claim_multiples(limits: SearchLimits, rng, corrupt: bool):
    """Arithmetic progressions {k, 2k, ..., rk} decide R_BIRKHOFF with a
    window certificate no larger than k*r + 1."""
    worst = None
    for k in range(1, 6):
        for r in range(1, 7):
            verdict = check_r_birkhoff(gen_k_times_nr(k, r), r, limits)
            if verdict.status is Status.UNDECIDED:
                return UNDECIDED, {"at": [k, r]}, []
            cert = verdict.certificate
            ok = (
                verdict.status is Status.R_BIRKHOFF
                and isinstance(cert, WindowUnsat)
                and cert.window <= k * r + 1
            )
            if not ok:
                return FAIL, {"at": [k, r], "verdict": verdict.to_json()}, []
            if worst is None or cert.window > worst:
                worst = cert.window
    return PASS, {"cases": 30, "largest_window": worst}, []


def _claim_cardinality(limits: SearchLimits, rng, corrupt: bool):
    """Any r distinct positive distances admit an (r+1)-coloring; the greedy
    least-unused-color sequence realizes the avoidance."""
    certs = []
    for trial in range(100):
        r = rng.randint(1, 6)
        elems = rng.sample(range(1, 51), r)
        verdict = check_r_birkhoff(elems, r + 1, limits)
        if verdict.status is Status.UNDECIDED:
            return UNDECIDED, {"trial": trial, "set": sorted(elems)}, []
        if verdict.status is not Status.NOT_R_BIRKHOFF:
            return FAIL, {"trial": trial, "set": sorted(elems)}, []
        if not verify_certificate(elems, r + 1, verdict.certificate):
            return FAIL, {"trial": trial, "set": sorted(elems), "stage": "verify"}, []
        certs.append(certificate_to_json(verdict.certificate))
        # independent greedy check over 10x the largest distance: term i
        # clashes with term i - m, or with the color 1 of positions <= 0
        seq = greedy_coloring(elems, 10 * max(elems)).sequence
        first = (next(compress(count(1), map(eq, seq, chain(repeat(1, m), seq))), None) for m in set(elems))
        clash = min(filter(None, first), default=None)
        if clash is not None:
            return FAIL, {"trial": trial, "greedy_clash_at": clash}, []
    return PASS, {"trials": 100, "cert_digest": _cert_digest(certs)}, certs[:3]


def _claim_layered_lacunary(limits: SearchLimits, rng, corrupt: bool):
    """Layered geometric families have minimum growth ratio exactly r/(r-1)."""
    for r in (2, 3, 4):
        ratio, lacunary = lacunarity_ratios(gen_l_r(r, 3))
        if not lacunary or ratio != Fraction(r, r - 1):
            return FAIL, {"r": r, "ratio": str(ratio)}, []
    return PASS, {"ratios": {str(r): f"{r}/{r - 1}" for r in (2, 3, 4)}}, []


def _claim_layered_stable(limits: SearchLimits, rng, corrupt: bool):
    """Deleting any single layer leaves the family's positive verdict intact."""
    for r in (2, 3, 4):
        for k in range(4):
            probe = stably_r_birkhoff_probe(
                r, removed=l_r_layer(r, k), k_max=3, limits=limits
            )
            if probe.verdict.status is Status.UNDECIDED:
                return UNDECIDED, {"r": r, "layer": k}, []
            if probe.verdict.status is not Status.R_BIRKHOFF:
                return FAIL, {"r": r, "layer": k}, []
    return PASS, {"cases": 12}, []


def _claim_layered_not_above(limits: SearchLimits, rng, corrupt: bool):
    """At arity r+1 the layered family fails, witnessed canonically by the
    residue coloring of period r+1."""
    certs = []
    for r in (2, 3, 4):
        verdict = check_r_birkhoff(gen_l_r(r, 3), r + 1, limits)
        if verdict.status is Status.UNDECIDED:
            return UNDECIDED, {"r": r}, []
        expected = PeriodicWitness(
            PeriodicColoring(r + 1, tuple(range(1, r + 2)))
        )
        if verdict.status is not Status.NOT_R_BIRKHOFF or verdict.certificate != expected:
            return FAIL, {"r": r, "verdict": verdict.to_json()}, []
        certs.append(certificate_to_json(verdict.certificate))
    return PASS, {"r_values": [2, 3, 4]}, certs


def _claim_shifted_squares(limits: SearchLimits, rng, corrupt: bool):
    """n^2+1 values all avoid one residue class; plain squares never do."""
    shifted = cyclic_obstruction(
        gen_polynomial([1, 0, 1], 100), 10, polynomial=[1, 0, 1]
    )
    if shifted is None or shifted.modulus != 3 or not shifted.absolute:
        return FAIL, {"shifted": None if shifted is None else shifted.modulus}, []
    plain = cyclic_obstruction(gen_polynomial([0, 0, 1], 100), 10, polynomial=[0, 0, 1])
    if plain is not None:
        return FAIL, {"plain_modulus": plain.modulus}, []
    return PASS, {"shifted_modulus": 3, "absolute": True, "plain": None}, []


def _claim_lacunary_witness(limits: SearchLimits, rng, corrupt: bool):
    """Doubling sequence: the pruned frequency interval contains 1/3 and
    survives exact re-validation."""
    seq = [2**k for k in range(21)]  # the doubling family includes 2^0 = 1
    delta = Fraction(3, 10)
    w = lacunary_witness(seq, delta)
    third = Fraction(1, 3)
    if not (w.lo <= third <= w.hi):
        return FAIL, {"interval": [str(w.lo), str(w.hi)]}, []
    if not revalidate_witness(seq, delta, w):
        return FAIL, {"stage": "revalidate"}, []
    return PASS, {"interval": [str(w.lo), str(w.hi)], "stages": w.stages}, []


def _claim_ball_returns(limits: SearchLimits, rng, corrupt: bool):
    """Set return times equal point return-time differences for the golden
    rotation, margin 1/100, horizon 50."""
    sys_ = RotationSystem((golden_rotation(),))
    for trial in range(20):
        center = Fraction(rng.randint(0, 999), 1000)
        radius = Fraction(rng.randint(40, 120), 1000)
        x = Fraction(rng.randint(0, 999), 1000)
        report = verify_nuu(
            sys_, BallSpec((center,), radius), (x,), horizon=50, margin=Fraction(1, 100)
        )
        if not report.clean:
            return (
                FAIL,
                {
                    "trial": trial,
                    "forward": list(report.forward_exceptions),
                    "reverse": list(report.reverse_exceptions),
                },
                [],
            )
    return PASS, {"trials": 20, "horizon": 50, "margin": "1/100"}, []


def _claim_return_set_identity(limits: SearchLimits, rng, corrupt: bool):
    """Set return times of a radius-rho ball match the frequency set at 2*rho
    exactly, for rational and quadratic frequencies; the frequency set is
    found by testing every n."""
    quadratics = [
        golden_rotation(),
        TorusPoint(Surd.make(Fraction(-1), Fraction(1), 2)),
        TorusPoint(Surd.make(Fraction(-1), Fraction(1), 3)),
        TorusPoint(Surd.make(Fraction(-2), Fraction(1), 5)),
        TorusPoint(Surd.make(Fraction(0), Fraction(1, 3), 7)),
    ]
    horizon = 40
    for trial in range(20):
        if trial % 2 == 0:
            q = rng.randint(2, 60)
            alpha = TorusPoint(Fraction(rng.randint(1, q - 1), q))
        else:
            alpha = quadratics[(trial // 2) % len(quadratics)]
        rho = Fraction(rng.randint(2, 25), 100)
        sys_ = RotationSystem((alpha,))
        observed = return_times_set(sys_, BallSpec((Fraction(0),), rho), horizon)
        inside = _torus_test([alpha.value], (0,), 2 * rho)
        expected = tuple(n for n in range(-horizon, horizon + 1) if inside(n))
        if observed != expected:
            return FAIL, {"trial": trial, "rho": str(rho)}, []
    return PASS, {"trials": 20, "horizon": horizon}, []


def _claim_rigidity_records(limits: SearchLimits, rng, corrupt: bool):
    """Displacement record times, found by testing every m, are exactly the
    convergent denominators, each record beats the next denominator's
    reciprocal, and the rigidity scan reports the same records."""
    alpha = golden_rotation()
    horizon = 10_000
    times = record_times([alpha.value], range(1, horizon + 1))
    records = [(m, torus_norm1(alpha.multiple(m))) for m in times]
    cf = continued_fraction(alpha, depth=25)
    denoms = []
    for q in cf.denominators:
        if q <= horizon and (not denoms or q > denoms[-1]):
            denoms.append(q)
    times = [m for m, _ in records]
    if times != denoms:
        return FAIL, {"times": times[:12], "denominators": denoms[:12]}, []
    by_next = dict(zip(cf.denominators, cf.denominators[1:]))
    for m, value in records:
        q_next = by_next.get(m)
        if q_next is None:
            continue
        if not real_cmp(value, Fraction(1, q_next)) < 0:
            return FAIL, {"at": m, "bound": f"1/{q_next}"}, []
    reported = [(rec.time, rec.value) for rec in uniform_rigidity_scan(RotationSystem((alpha,)), horizon)]
    if reported != records:
        return FAIL, {"rigidity_scan": [m for m, _ in reported][:12]}, []
    return PASS, {"records": len(records), "horizon": horizon}, []


def _claim_moving_recurrence(limits: SearchLimits, rng, corrupt: bool):
    """Moving recurrence along three fast-growing time sequences: sampled
    fraction is 1 and the functional equals the displacement minimum."""
    sys_ = RotationSystem((golden_rotation(),))
    horizon, eps = 200, Fraction(1, 100)
    want = real_to_float(min(sys_.displacement_norm(k) for k in range(1, horizon + 1)))
    for formula in ("k^2", "k^3 - k", "2^k"):
        compile_sequence(formula)  # psi reads no n_k: one run holds for all three
    outcome = moving_recurrence_experiment(sys_, MovingQuery(horizon, eps), samples=10)
    if outcome.fraction_below != 1:
        return FAIL, {"fraction": str(outcome.fraction_below)}, []
    if any(abs(v - want) > 1e-12 for v in (outcome.psi_min, outcome.psi_max)):
        return FAIL, {"psi_mismatch": True}, []
    return PASS, {"formulas": 3, "samples": 10, "horizon": horizon}, []


def _claim_certificate_audit(limits: SearchLimits, rng, corrupt: bool):
    """Both certificate kinds re-verify; the corruption switch must flip the
    outcome to FAIL."""
    periodic_set, periodic_arity = (2, 4, 6), 4
    window_set, window_arity = (1, 2), 2
    v1 = check_r_birkhoff(periodic_set, periodic_arity, limits)
    v2 = check_r_birkhoff(window_set, window_arity, limits)
    if Status.UNDECIDED in (v1.status, v2.status):
        return UNDECIDED, {"stage": "solve"}, []
    cert1, cert2 = v1.certificate, v2.certificate
    if corrupt:
        assert isinstance(cert1, PeriodicWitness)
        cert1 = PeriodicWitness(
            PeriodicColoring(cert1.coloring.period, (1,) * cert1.coloring.period)
        )
        assert isinstance(cert2, WindowUnsat)
        cert2 = WindowUnsat(window=2, arity=cert2.arity)
    ok1 = verify_certificate(periodic_set, periodic_arity, cert1)
    ok2 = verify_certificate(window_set, window_arity, cert2)
    details = {
        "periodic_verified": ok1,
        "window_verified": ok2,
        "corruption_injected": corrupt,
    }
    certs = [certificate_to_json(cert1), certificate_to_json(cert2)]
    return (PASS if ok1 and ok2 else FAIL), details, certs


_CLAIMS: list[tuple[str, str, Callable]] = [
    ("multiples-are-birkhoff", "scaled progressions pass with tight windows", _claim_multiples),
    ("cardinality-ceiling", "r distances always fail at arity r+1", _claim_cardinality),
    ("layered-family-lacunary", "layered family min ratio is r/(r-1)", _claim_layered_lacunary),
    ("layered-family-stable", "layer removal keeps the verdict", _claim_layered_stable),
    ("layered-family-not-above", "layered family fails at r+1 canonically", _claim_layered_not_above),
    ("shifted-squares-obstructed", "n^2+1 blocked mod 3, n^2 unobstructed", _claim_shifted_squares),
    ("doubling-avoidance-witness", "frequency interval for the doubling sequence", _claim_lacunary_witness),
    ("ball-return-identity", "set returns equal point-return differences", _claim_ball_returns),
    ("return-set-cross-check", "ball overlap times match the frequency set", _claim_return_set_identity),
    ("rigidity-records", "displacement records sit on convergent denominators", _claim_rigidity_records),
    ("moving-recurrence-dense", "moving recurrence fraction is 1", _claim_moving_recurrence),
    ("certificate-audit", "certificates re-verify (corruption must fail)", _claim_certificate_audit),
]

CLAIM_NAMES = [name for name, _, _ in _CLAIMS]


def run_claim_suite(
    limits: Optional[SearchLimits] = None,
    seed: int = 20260816,
    inject_corruption: bool = False,
    only: Optional[list[str]] = None,
) -> ClaimSuite:
    limits = limits or SearchLimits()
    results = []
    for name, title, runner in _CLAIMS:
        if only is not None and name not in only:
            continue
        name_tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
        rng = random.Random(seed ^ name_tag)
        started = time.perf_counter()
        status, details, certs = runner(limits, rng, inject_corruption)
        elapsed = time.perf_counter() - started
        results.append(
            ClaimResult(
                claim=name,
                title=title,
                status=status,
                details=details,
                certificates=certs,
                runtime_seconds=elapsed,
            )
        )
    return ClaimSuite(
        results=results,
        seed=seed,
        corruption_injected=inject_corruption,
        limits=limits,
    )


def suite_to_json(suite: ClaimSuite, include_runtimes: bool = False) -> dict:
    claims = []
    for r in suite.results:
        row = {
            "claim": r.claim,
            "title": r.title,
            "status": r.status,
            "details": r.details,
            "certificates": r.certificates,
        }
        if include_runtimes:
            row["runtime_seconds"] = round(r.runtime_seconds, 3)
        claims.append(row)
    out = {
        "claims": claims,
        "seed": suite.seed,
        "corruption_injected": suite.corruption_injected,
        "all_pass": suite.all_pass,
        "statuses": {
            PASS: sum(r.status == PASS for r in suite.results),
            FAIL: sum(r.status == FAIL for r in suite.results),
            UNDECIDED: sum(r.status == UNDECIDED for r in suite.results),
        },
    }
    return out


def suite_to_markdown(suite: ClaimSuite) -> str:
    lines = [
        "# Claim suite report",
        "",
        f"- seed: {suite.seed}",
        f"- corruption injected: {suite.corruption_injected}",
        f"- node budget: {suite.limits.node_budget}",
        "",
        "| claim | status | runtime (s) |",
        "|---|---|---|",
    ]
    for r in suite.results:
        lines.append(f"| {r.claim} | {r.status} | {r.runtime_seconds:.3f} |")
    lines.append("")
    for r in suite.results:
        lines.append(f"## {r.claim}")
        lines.append("")
        lines.append(r.title)
        lines.append("")
        lines.append("```json")
        lines.append(json.dumps(r.details, indent=2, sort_keys=True, default=str))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
