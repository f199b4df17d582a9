"""Seeded workloads for the reclab benchmark, and the oracle that checks them.

A workload is a list of ops.  An op is what one user command costs: it calls
reclab's public functions through their modules (so a traced run sees the
calls), returns the raw result, and is later checked by an oracle that uses
the benchmark's own arithmetic wherever it can: integers for rationals,
60-digit decimals and an integer continued-fraction expansion for quadratic
surds, and a residue-by-residue check for periodic colorings.

Every input comes from ``random.Random(f"{workload}:{seed}")``; sizes are
fixed per workload so that the seed changes which inputs are drawn, not how
much work a run does.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from math import ceil, floor, gcd, isqrt

from reclab import birkhoff, bohr, cli, dynamics, exactreal
from reclab.errors import NoSuchM, VerificationBudgetExceeded
from reclab.intsets import Window
from reclab.report import CLAIM_NAMES

# Window certificates are re-proved by the reference search under this node
# cap, passed through verify_certificate's public node_cap parameter.  It is
# the library's default, the cap `reclab check` verifies under, and must stay
# the same on every commit.  All 29,752 (set, arity) pairs with 2-6 distances
# from 1..16, a superset of the solver draw, verify under it (the slowest in
# 1.3 s on 2 vCPUs), so no solver op fails on it and the verifier's cost
# shows as time instead.
VERIFY_NODE_CAP = 50_000_000

SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13)
DECIMAL_DIGITS = 60

# (full, tiny) sizes; tiny is only for the self-test
SIZES = {
    "solver": {"ops": (5000, 10), "top": 14},
    "surd": {"alphas": (32, 2), "pairs": (16, 1), "rig_h": 150, "enum_w": 75, "td_count": 60,
             "nuu_h": 6, "eta_m": (8, 20), "enum2_w": 30, "nuu2_h": 4},
    "rational": {"alphas": (32, 2), "prune": (24, 1), "rig_h": 800, "enum_w": 400, "td_count": 150,
                 "nuu_h": 20, "eta_m": (15, 40)},
    "cli": {"rounds": (4, 1), "claims": (CLAIM_NAMES, CLAIM_NAMES[2:4])},
}


class OpFailed(Exception):
    """The op ended without an answer (a budget, precision or exit-code failure)."""


class Op:
    """One timed call.  ``inputs`` describes what the seed drew; ``run``
    returns the raw result; ``check`` returns None when the oracle accepts it,
    else the reason; ``canon`` gives the text the output digest covers."""

    __slots__ = ("kind", "inputs", "run", "check", "canon")

    def __init__(self, kind, inputs, run, check, canon):
        self.kind, self.inputs = kind, inputs
        self.run, self.check, self.canon = run, check, canon


def _pick(size, tiny):
    return size[1] if tiny else size[0]


def _jdump(value) -> str:
    return json.dumps(value, sort_keys=True, default=str)


def _real_text(x) -> str:
    return json.dumps(exactreal.real_to_json(x), sort_keys=True)


# ---------------------------------------------------------------------------
# independent arithmetic used by the oracles
# ---------------------------------------------------------------------------


def dec(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def dec_frac(x: Decimal) -> Decimal:
    return x - x.to_integral_value(rounding=ROUND_FLOOR)


def dec_norm(x: Decimal) -> Decimal:
    frac = dec_frac(x)
    return min(frac, 1 - frac)


def surd_quotients(d: int, a: int, b: int, c: int, count: int) -> list[int]:
    """Partial quotients of (a + b*sqrt(d))/c by the integer (P + sqrt(D))/Q
    recurrence; d square-free >= 2 and b != 0."""
    sign = 1 if b > 0 else -1
    p0, q0, big_d = a * sign, c * sign, b * b * d
    p, q, big_d = p0 * abs(q0), q0 * abs(q0), big_d * q0 * q0  # makes Q | D - P^2
    root = isqrt(big_d)
    out = []
    for _ in range(count):
        a_k = (p + root) // q if q > 0 else -((p + root) // -q) - 1
        out.append(a_k)
        p = a_k * q - p
        q = (big_d - p * p) // q
    return out


def rational_quotients(num: int, den: int) -> list[int]:
    out = []
    while den:
        a_k, rem = divmod(num, den)
        out.append(a_k)
        num, den = den, rem
    return out


def record_times(quotients: list[int], horizon: int) -> list[int]:
    """Convergent denominators <= horizon, without repeats (q_0 = q_1 = 1 when a_1 = 1)."""
    times, q_prev, q_cur = [], 0, 1
    times.append(1)
    for a_k in quotients[1:]:
        q_prev, q_cur = q_cur, a_k * q_cur + q_prev
        if q_cur > horizon:
            break
        if q_cur > times[-1]:
            times.append(q_cur)
    return times


def circular_gaps(points, period):
    """Gaps between sorted points on a circle of the given length, wrap included."""
    pts = sorted(points)
    return [b - a for a, b in zip(pts, pts[1:])] + [period + pts[0] - pts[-1]]


def residue_norm(n: int, p: int, q: int) -> int:
    """q * dist(n*p/q, Z) as an integer."""
    r = n * p % q
    return min(r, q - r)


def fraction_norm(x: Fraction) -> Fraction:
    frac = x - (x.numerator // x.denominator)
    return min(frac, 1 - frac)


def periodic_ok(colors, dists, arity: int) -> bool:
    p = len(colors)
    if any(not 1 <= col <= arity for col in colors):
        return False
    return all(colors[j] != colors[(j + m) % p] for m in dists for j in range(p))


def interval_avoids(lo: Fraction, hi: Fraction, values, delta: Fraction) -> bool:
    """dist(n*t, Z) >= delta for every t in [lo, hi] and every n."""
    for n in values:
        a, b = lo * n, hi * n
        j = floor(a - delta) + 1  # least integer above a - delta
        if j < b + delta:
            return False
    return True


def prune_count(values, delta: Fraction) -> int:
    """Number of intervals left by exact interval pruning (0 when empty)."""
    intervals = [(Fraction(0), Fraction(1))]
    for n in values:
        nxt = []
        for lo, hi in intervals:
            for j in range(floor(lo * n) - 1, ceil(hi * n) + 2):
                a = max(lo, (j + delta) / n)
                b = min(hi, (j + 1 - delta) / n)
                if a <= b:
                    nxt.append((a, b))
        intervals = nxt
        if not intervals:
            return 0
    return len(intervals)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------


def _solver_op(dists: list[int], arity: int) -> Op:
    def run():
        verdict = birkhoff.check_r_birkhoff(dists, arity)
        if verdict.certificate is None:
            return verdict, None
        try:
            ok = birkhoff.verify_certificate(dists, arity, verdict.certificate, node_cap=VERIFY_NODE_CAP)
        except VerificationBudgetExceeded as exc:
            raise OpFailed("verifier cap exceeded") from exc
        return verdict, ok

    def check(out):
        verdict, verified = out
        status, cert = verdict.status, verdict.certificate
        if arity > len(dists) and status is not birkhoff.Status.NOT_R_BIRKHOFF:
            return f"arity {arity} > |M| = {len(dists)} but status {status.value}"
        if status is birkhoff.Status.UNDECIDED:
            return None if cert is None else "UNDECIDED with a certificate"
        if verified is not True:
            return "certificate rejected by verify_certificate"
        if status is birkhoff.Status.NOT_R_BIRKHOFF:
            if not isinstance(cert, birkhoff.PeriodicWitness):
                return "NOT_R_BIRKHOFF without a periodic witness"
            if not periodic_ok(cert.coloring.colors, dists, arity):
                return "periodic witness fails the residue check"
            return None
        if not isinstance(cert, birkhoff.WindowUnsat) or cert.arity != arity:
            return "R_BIRKHOFF without a window certificate at the query arity"
        return None

    def canon(out):
        verdict, verified = out
        return _jdump([verdict.status.value, birkhoff.certificate_to_json(verdict.certificate), verified])

    return Op("solve", [dists, arity], run, check, canon)


def build_solver(seed: int, tiny: bool, workdir: str) -> list[Op]:
    """A seeded sample, without repeats, of every (distance set, arity) pair
    with 2-6 distances from 1..top at arity 2 or 3, in random order."""
    rng = random.Random(f"solver:{seed}")
    sizes = SIZES["solver"]
    space = [
        (list(dists), arity)
        for size in range(2, 7)
        for dists in itertools.combinations(range(1, sizes["top"] + 1), size)
        for arity in (2, 3)
    ]
    return [_solver_op(dists, arity) for dists, arity in rng.sample(space, _pick(sizes["ops"], tiny))]


# ---------------------------------------------------------------------------
# surd and rational: the rotation command mix
# ---------------------------------------------------------------------------


class Frequency:
    """A rotation number together with what the oracle needs to redo it."""

    def __init__(self, text: str):
        self.text = text
        self.point = exactreal.TorusPoint(exactreal.parse_real(text))
        if text.startswith("sqrt:"):
            self.surd = tuple(int(t) for t in text.split(":")[1:])
            self.pq = None
        else:
            value = self.point.value
            self.pq = (value.numerator, value.denominator)
            self.surd = None

    def decimal(self) -> Decimal:
        """alpha to DECIMAL_DIGITS digits; call inside a localcontext."""
        if self.pq:
            return dec(Fraction(*self.pq))
        d, a, b, c = self.surd
        return (Decimal(a) + Decimal(b) * Decimal(d).sqrt()) / Decimal(c)

    def quotients(self, count: int) -> list[int]:
        if self.surd:
            return [0] + surd_quotients(*self.surd, count)[1:]
        return rational_quotients(*self.pq)

    def max_gap(self, m: int):
        """Largest circular gap of {k*alpha : 0 <= k <= m}: a Fraction for
        rationals, a Decimal for surds; computed without reclab."""
        if self.pq:
            p, q = self.pq
            return Fraction(max(circular_gaps({k * p % q for k in range(m + 1)}, q)), q)
        with localcontext() as ctx:
            ctx.prec = DECIMAL_DIGITS
            alpha = self.decimal()
            return max(circular_gaps([dec_frac(alpha * k) for k in range(m + 1)], 1))

    def max_gap_above(self, m: int, bound: Fraction) -> bool:
        gap = self.max_gap(m)
        if isinstance(gap, Fraction):
            return gap > bound
        with localcontext() as ctx:
            ctx.prec = DECIMAL_DIGITS
            return gap > dec(bound)

    def norm_below(self, n: int, bound: Fraction) -> bool:
        """dist(n*alpha, Z) < bound, decided without reclab."""
        if self.pq:
            p, q = self.pq
            return residue_norm(n, p, q) * bound.denominator < bound.numerator * q
        with localcontext() as ctx:
            ctx.prec = DECIMAL_DIGITS
            return dec_norm(self.decimal() * n) < dec(bound)


def draw_surd(rng: random.Random, fields=SQUAREFREE) -> Frequency:
    d = rng.choice(fields)
    return Frequency(f"sqrt:{d}:{rng.randint(-4, 4)}:{rng.choice((-3, -2, -1, 1, 2, 3))}:{rng.randint(1, 6)}")


def draw_rational(rng: random.Random) -> Frequency:
    q = rng.randint(30, 90)
    p = rng.randint(1, q - 1)
    while gcd(p, q) != 1:
        p = rng.randint(1, q - 1)
    return Frequency(f"{p}/{q}")


def _rigidity_op(freq: Frequency, horizon: int) -> Op:
    system = dynamics.RotationSystem((freq.point,))

    def run():
        return dynamics.uniform_rigidity_scan(system, horizon)

    def check(records):
        times = [rec.time for rec in records]
        want = record_times(freq.quotients(40), horizon)
        if times != want:
            return f"record times {times[:8]} != convergent denominators {want[:8]}"
        if freq.pq:  # integer brute force over k*p mod q
            p, q = freq.pq
            best, brute = None, []
            for m in range(1, horizon + 1):
                v = residue_norm(m, p, q)
                if best is None or v < best:
                    brute.append((m, Fraction(v, q)))
                    best = v
            if [(rec.time, rec.value) for rec in records] != brute:
                return "records differ from the integer scan"
        return None

    def canon(records):
        return _jdump([[rec.time, _real_text(rec.value)] for rec in records])

    return Op("rigidity", [freq.text, horizon], run, check, canon)


def _enumerate_op(freqs: list[Frequency], rho: Fraction, width: int) -> Op:
    spec = bohr.BohrSpec(tuple(f.point for f in freqs), 2 * rho)
    system = dynamics.RotationSystem(tuple(f.point for f in freqs))

    def run():
        return bohr.bohr_enumerate(spec, Window(-width, width))

    def check(members):
        returns = dynamics.return_times_set(system, dynamics.BallSpec((Fraction(0),) * len(freqs), rho), width)
        if set(members) | {0} != set(returns):
            return "bohr_enumerate + {0} differs from return_times_set at 2*rho"
        if len(freqs) == 1:
            want = [n for n in range(-width, width + 1) if n and freqs[0].norm_below(n, 2 * rho)]
        else:
            with localcontext() as ctx:
                ctx.prec = DECIMAL_DIGITS
                alphas = [f.decimal() for f in freqs]
                eps_sq = dec((2 * rho) ** 2)
                want = [
                    n for n in range(-width, width + 1)
                    if n and sum(dec_norm(a * n) ** 2 for a in alphas) < eps_sq
                ]
        if list(members) != want:
            return "members differ from the independent norm check"
        return None

    inputs = [[f.text for f in freqs], str(rho), width]
    return Op("enumerate" if len(freqs) == 1 else "enumerate2", inputs, run, check, _jdump)


def _three_distance_op(freq: Frequency, count: int) -> Op:
    def run():
        return bohr.three_distance(freq.point, count)

    def check(res):
        if len(res.distinct) > 3:
            return "more than three gap lengths"
        if freq.pq:
            p, q = freq.pq
            want = sorted(circular_gaps({k * p % q for k in range(count + 1)}, q))
            if [g * q for g in res.gaps] != want:
                return "gaps differ from the integer residues"
            return None
        if len(res.gaps) != count + 1:
            return "an irrational orbit lost a point"
        rational_part = sum((g.p for g in res.gaps), Fraction(0))
        surd_part = sum((g.q for g in res.gaps), Fraction(0))
        if rational_part != 1 or surd_part != 0:
            return "gaps do not sum to exactly 1"
        if len(res.distinct) == 3:
            small, mid, big = res.distinct
            if (big.p, big.q) != (small.p + mid.p, small.q + mid.q):
                return "largest gap is not the sum of the other two"
        return None

    def canon(res):
        return _jdump([_real_text(g) for g in res.distinct] + [len(res.gaps)])

    return Op("threedist", [freq.text, count], run, check, canon)


def eta_for(freq: Frequency, m0: int) -> Fraction:
    """Half the largest gap of the first m0 + 1 orbit points, rounded up to a
    multiple of 1/2048.  eta_dense_constant then answers at most m0, which
    bounds the op: its cost grows like M^2 log M, and a fixed eta such as 1/8
    sends M past 80 for surds close to a rational of small denominator."""
    return Fraction(ceil(freq.max_gap(m0) * 1024), 2048)


def _eta_dense_op(freq: Frequency, eta: Fraction) -> Op:
    system = dynamics.RotationSystem((freq.point,))

    def run():
        try:
            return dynamics.eta_dense_constant(system, eta)
        except NoSuchM as exc:
            raise OpFailed("unexpected NoSuchM") from exc

    def check(res):
        m = res.constant
        if freq.max_gap_above(m, 2 * eta):
            return f"orbit segment of length {m} is not {eta}-dense"
        if m > 1 and not freq.max_gap_above(m - 1, 2 * eta):
            return f"constant {m} is not minimal"
        return None

    def canon(res):
        return _jdump([res.constant, _real_text(res.max_gap)])

    return Op("etadense", [freq.text, str(eta)], run, check, canon)


def _cf_op(freq: Frequency, depth: int) -> Op:
    def run():
        return bohr.continued_fraction(freq.point, depth)

    def check(cf):
        want = freq.quotients(depth + 1)[: depth + 1]
        if list(cf.quotients) != want:
            return "partial quotients differ from the integer expansion"
        return None

    def canon(cf):
        return _jdump([list(cf.quotients), [str(c) for c in cf.convergents], cf.terminated])

    return Op("cf", [freq.text, depth], run, check, canon)


def _nuu_op(freqs: list[Frequency], center, rho: Fraction, x, horizon: int) -> Op:
    system = dynamics.RotationSystem(tuple(f.point for f in freqs))
    ball = dynamics.BallSpec(tuple(center), rho)

    def run():
        return dynamics.verify_nuu(system, ball, tuple(x), horizon, margin=Fraction(1, 100))

    def check(rep):
        if rep.forward_exceptions:
            return "a difference of point returns is missing from N(U,U)"
        if set(rep.set_returns) != {-n for n in rep.set_returns} or 0 not in rep.set_returns:
            return "N(U,U) is not symmetric around 0"
        if len(freqs) == 1 and freqs[0].pq:
            p, q = freqs[0].pq
            alpha = Fraction(p, q)
            want_set = [n for n in range(-horizon, horizon + 1) if freqs[0].norm_below(n, 2 * rho)]
            want_pts = [n for n in range(-horizon, horizon + 1)
                        if fraction_norm(x[0] + n * alpha - center[0]) < rho]
            if list(rep.set_returns) != want_set or list(rep.point_returns) != want_pts:
                return "return times differ from the exact rational check"
        elif len(freqs) == 1:
            want_set = [n for n in range(-horizon, horizon + 1) if freqs[0].norm_below(n, 2 * rho)]
            if list(rep.set_returns) != want_set:
                return "set return times differ from the decimal check"
        return None

    def canon(rep):
        return _jdump([rep.set_returns, rep.point_returns, rep.forward_exceptions, rep.reverse_exceptions])

    inputs = [[f.text for f in freqs], [str(c) for c in center], str(rho), [str(v) for v in x], horizon]
    return Op("nuu" if len(freqs) == 1 else "nuu2", inputs, run, check, canon)


def _rotation_ops(rng: random.Random, freq: Frequency, sizes: dict) -> list[Op]:
    return [
        _rigidity_op(freq, sizes["rig_h"]),
        _enumerate_op([freq], Fraction(rng.randint(3, 12), 100), sizes["enum_w"]),
        _three_distance_op(freq, sizes["td_count"]),
        _eta_dense_op(freq, eta_for(freq, rng.randint(*sizes["eta_m"]))),
        _cf_op(freq, 30),
        _nuu_op(
            [freq],
            [Fraction(rng.randint(0, 99), 100)],
            Fraction(rng.randint(4, 12), 100),
            [Fraction(rng.randint(0, 99), 100)],
            sizes["nuu_h"],
        ),
    ]


def build_surd(seed: int, tiny: bool, workdir: str) -> list[Op]:
    rng = random.Random(f"surd:{seed}")
    sizes = SIZES["surd"]
    ops = []
    for _ in range(_pick(sizes["alphas"], tiny)):
        ops.extend(_rotation_ops(rng, draw_surd(rng), sizes))
    # two frequencies from different quadratic fields take the Approx path
    for _ in range(_pick(sizes["pairs"], tiny)):
        d1, d2 = rng.sample(SQUAREFREE, 2)
        pair = [draw_surd(rng, (d1,)), draw_surd(rng, (d2,))]
        ops.append(_enumerate_op(pair, Fraction(rng.randint(5, 12), 100), sizes["enum2_w"]))
        ops.append(_nuu_op(
            pair,
            [Fraction(rng.randint(0, 99), 100) for _ in pair],
            Fraction(rng.randint(8, 16), 100),
            [Fraction(rng.randint(0, 99), 100) for _ in pair],
            sizes["nuu2_h"],
        ))
    rng.shuffle(ops)
    return ops


def lacunary_sequence(rng: random.Random) -> list[int]:
    """Nine terms, each at least twice and at most 2.5 times the previous."""
    seq = [rng.randint(1, 4)]
    while len(seq) < 9:
        seq.append(2 * seq[-1] + rng.randint(0, seq[-1] // 2))
    return seq


def _lacunary_op(seq: list[int], delta: Fraction) -> Op:
    def run():
        return bohr.lacunary_witness(seq, delta)

    def check(w):
        if w is None:
            return None if prune_count(seq, delta) == 0 else "pruning is not empty"
        if not interval_avoids(w.lo, w.hi, seq[: w.stages], delta):
            return "witness interval meets a delta-neighbourhood"
        if w.surviving != prune_count(seq, delta):
            return "surviving interval count differs"
        return None

    def canon(w):
        return _jdump(None if w is None else [str(w.lo), str(w.hi), w.stages, w.surviving, str(w.total_measure)])

    return Op("witness", [seq, str(delta)], run, check, canon)


def _separation_op(seq: list[int], eps: Fraction) -> Op:
    def run():
        return bohr.bohr_separation_search(seq, eps)

    def check(spec):
        if spec is None:
            return None if prune_count(sorted(set(seq)), eps) == 0 else "pruning is not empty"
        alpha = spec.alphas[0].value
        if spec.eps != eps or any(fraction_norm(n * alpha) < eps for n in seq):
            return "separating frequency hits the set"
        return None

    def canon(spec):
        return _jdump(None if spec is None else [str(spec.alphas[0].value), str(spec.eps)])

    return Op("separate", [seq, str(eps)], run, check, canon)


def build_rational(seed: int, tiny: bool, workdir: str) -> list[Op]:
    rng = random.Random(f"rational:{seed}")
    sizes = SIZES["rational"]
    ops = []
    for _ in range(_pick(sizes["alphas"], tiny)):
        ops.extend(_rotation_ops(rng, draw_rational(rng), sizes))
    for _ in range(_pick(sizes["prune"], tiny)):
        ops.append(_lacunary_op(lacunary_sequence(rng), Fraction(1, rng.choice((5, 6)))))
        ops.append(_separation_op(lacunary_sequence(rng), Fraction(1, rng.choice((5, 6)))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli: in-process reclab.cli.main(argv), stdout captured
# ---------------------------------------------------------------------------


def _cli_op(kind: str, argv: list[str], expect=None) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"exit code {code}")
        return out.getvalue()

    def check(text):
        try:
            result = json.loads(text)["result"]
        except (ValueError, KeyError):
            return "stdout is not a result document"
        return expect(result) if expect else None

    return Op(kind, argv, run, check, lambda text: text)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


NAMED = {"golden": "sqrt:5:-1:1:2", "sqrt2": "sqrt:2:-1:1:1"}


def _cli_alpha(rng: random.Random, kind: str) -> tuple[str, Frequency]:
    """An --alpha argument of the given kind and the same rotation number."""
    if kind == "named":
        name = rng.choice(sorted(NAMED))
        return name, Frequency(NAMED[name])
    freq = draw_surd(rng) if kind == "surd" else draw_rational(rng)
    return freq.text, freq


def _expect(**fields):
    def check(result):
        for key, want in fields.items():
            if result.get(key) != want:
                return f"{key} = {result.get(key)!r}, expected {want!r}"
        return None
    return check


def build_cli(seed: int, tiny: bool, workdir: str) -> list[Op]:
    """Every subcommand, birkhoff inputs from the paper's families.

    Files the commands read are written into workdir, which the worker makes
    its current directory, so every path on a command line is relative and
    stdout does not depend on where the checkout lives.
    """
    from reclab.intsets import gen_k_times_nr, gen_l_r

    rng = random.Random(f"cli:{seed}")
    sizes = SIZES["cli"]
    ops = []
    # each op draws its own frequency; the kinds cycle so every seed gets the same mix
    kinds = itertools.cycle(("named", "surd", "rational", "surd", "rational"))

    def alpha() -> str:
        return _cli_alpha(rng, next(kinds))[0]

    def write(name: str, text: str) -> str:
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
        return name

    for i in range(_pick(sizes["rounds"], tiny)):
        k, r = rng.randint(1, 5), rng.randint(2, 4)
        kxnr = list(gen_k_times_nr(k, r))
        fam_r, k_max = rng.randint(2, 3), rng.randint(1, 2)
        layered = list(gen_l_r(fam_r, k_max))
        lac = lacunary_sequence(rng)
        window_cert = write(f"window{i}.json", json.dumps({"type": "window_unsat", "window": k * r + 1, "arity": r}))
        periodic_cert = write(
            f"periodic{i}.json",
            json.dumps({"type": "periodic", "period": fam_r + 1, "colors": list(range(1, fam_r + 2))}),
        )
        lac_file = write(f"lac{i}.json", json.dumps(lac))
        step = rng.randint(2, 5)
        indicator = write(f"mult{i}.txt", "".join(f"{v}\n" for v in range(-200, 201, step)))
        eps = f"1/{rng.randint(5, 20)}"
        formula = rng.choice(("k^2", "k^3 - k", "2^k mod 97", "3*k + 1"))
        eta_alpha, eta_freq = _cli_alpha(rng, next(kinds))

        ops += [
            _cli_op("birkhoff.check", ["birkhoff", "check", "--elements", _csv(kxnr), "--arity", str(r)],
                    _expect(status="R_BIRKHOFF", verified=True)),
            _cli_op("birkhoff.check", ["birkhoff", "check", "--elements", _csv(layered), "--arity", str(fam_r + 1),
                                       "--emit-cert", f"emitted{i}.json"],
                    _expect(status="NOT_R_BIRKHOFF", verified=True)),
            _cli_op("birkhoff.verify", ["birkhoff", "verify", "--elements", _csv(kxnr), "--arity", str(r),
                                        "--cert", window_cert], _expect(valid=True)),
            _cli_op("birkhoff.verify", ["birkhoff", "verify", "--elements", _csv(layered), "--arity",
                                        str(fam_r + 1), "--cert", periodic_cert], _expect(valid=True)),
            _cli_op("birkhoff.minimal", ["birkhoff", "minimal", "--elements",
                                         _csv(kxnr + [rng.randint(1, 30)]), "--arity", str(r)]),
            _cli_op("birkhoff.greedy", ["birkhoff", "greedy", "--elements",
                                        _csv(rng.sample(range(1, 12), 2)), "--terms", "64"]),
            _cli_op("birkhoff.stable", ["birkhoff", "stable", "--family-r", str(fam_r), "--k-max", "2",
                                        "--removed", str(rng.choice(list(gen_l_r(fam_r, 2))))]),
            _cli_op("birkhoff.chromatic", ["birkhoff", "chromatic", "--elements",
                                           _csv(rng.sample(range(1, 12), 3)), "--window", str(rng.randint(20, 30))]),
            _cli_op("bohr.member", ["bohr", "member", "--n", str(rng.randint(1, 500)), "--alpha", alpha(),
                                    "--eps", eps]),
            _cli_op("bohr.enumerate", ["bohr", "enumerate", "--alpha", alpha(), "--eps", eps,
                                       "--lo", str(-rng.randint(20, 40)), "--hi", str(rng.randint(20, 40))]),
            _cli_op("bohr.witness", ["bohr", "witness", "--set", lac_file, "--delta", "1/5"],
                    lambda res: None if not res["found"] or res["revalidated"] else "witness not revalidated"),
            _cli_op("bohr.obstruct", ["bohr", "obstruct", "--m-max", "10", "--poly", "1,0,1",
                                      "--elements", _csv(n * n + 1 for n in range(1, rng.randint(10, 30)))],
                    _expect(found=True, modulus=3, absolute=True)),
            _cli_op("bohr.separate", ["bohr", "separate", "--set", lac_file, "--eps", "1/6"]),
            _cli_op("bohr.cf", ["bohr", "cf", "--alpha", alpha(), "--depth", str(rng.randint(8, 16))]),
            _cli_op("bohr.threedist", ["bohr", "threedist", "--alpha", alpha(), "--count", str(rng.randint(30, 40))]),
            _cli_op("dyn.returns", ["dyn", "returns", "--alpha", alpha(), "--horizon", str(rng.randint(25, 35)),
                                    "--center", f"{rng.randint(0, 9)}/10", "--radius", eps,
                                    "--point", f"{rng.randint(0, 9)}/10"]),
            _cli_op("dyn.returns", ["dyn", "returns", "--indicator", indicator, "--window-lo", "-200",
                                    "--window-hi", "200", "--horizon", str(rng.randint(10, 40))]),
            _cli_op("dyn.nuu", ["dyn", "nuu", "--alpha", alpha(), "--horizon", str(rng.randint(10, 14)),
                                "--center", f"{rng.randint(0, 9)}/10", "--radius", f"{rng.randint(4, 12)}/100",
                                "--point", f"{rng.randint(0, 9)}/10"],
                    _expect(forward_exceptions=[])),
            _cli_op("dyn.phi", ["dyn", "phi", "--alpha", alpha(), "--elements", _csv(lac[:6]), "--horizon", "600"]),
            _cli_op("dyn.psi", ["dyn", "psi", "--alpha", alpha(), "--nk", formula,
                                "--horizon", str(rng.randint(25, 35))]),
            _cli_op("dyn.recurrent", ["dyn", "recurrent", "--alpha", alpha(), "--elements", _csv(lac),
                                      "--eps", eps]),
            _cli_op("dyn.etadense", ["dyn", "etadense", "--alpha", eta_alpha,
                                     "--eta", str(eta_for(eta_freq, rng.randint(8, 24)))]),
            _cli_op("dyn.rigidity", ["dyn", "rigidity", "--alpha", alpha(), "--horizon", str(rng.randint(150, 250))]),
            _cli_op("dyn.moving", ["dyn", "moving", "--alpha", alpha(), "--nk", formula,
                                   "--horizon", str(rng.randint(15, 25)), "--samples", "5"]),
            _cli_op("sets.diff", ["sets", "diff", "--elements", _csv(lac[:6])]),
            _cli_op("sets.gaps", ["sets", "gaps", "--elements", _csv(range(0, 200, step)),
                                  "--lo", "0", "--hi", "199"]),
            _cli_op("sets.gen", ["sets", "gen", "--family", rng.choice(("kxnr", "lr", "poly")),
                                 "--k", str(k), "--r", str(r), "--k-max", str(k_max), "--coeffs", "1,0,1"]),
        ]

    claim_seed = str(rng.randrange(1 << 30))
    for claim in _pick(sizes["claims"], tiny):
        ops.append(_cli_op("report.paper-claims", ["--seed", claim_seed, "report", "paper-claims", "--only", claim],
                           _expect(all_pass=True)))
    rng.shuffle(ops)
    return ops


BUILDERS = {"solver": build_solver, "surd": build_surd, "rational": build_rational, "cli": build_cli}


def build(name: str, seed: int, tiny: bool, workdir: str) -> list[Op]:
    return BUILDERS[name](seed, tiny, workdir)
