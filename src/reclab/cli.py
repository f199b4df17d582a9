"""Command-line front end.

Machine output is a single JSON document on stdout: {"config": ..., "result":
...} with sorted keys, so identical invocations are byte-identical.  Human
summaries go to stderr.  Exit codes: 0 completed (the verdict, including
UNDECIDED, lives inside the JSON), 2 usage error, 3 precision failure,
4 certificate verification over its budget.

No solver verdict is printed without re-verifying its certificate first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import exactreal
from .birkhoff import (
    SearchLimits,
    certificate_from_json,
    certificate_to_json,
    check_r_birkhoff,
    chromatic_number_window,
    greedy_coloring,
    minimal_r_birkhoff_subset,
    proof_to_json,
    stably_r_birkhoff_probe,
    verify_certificate,
)
from .bohr import (
    BohrSpec,
    bohr_enumerate,
    bohr_membership,
    bohr_separation_search,
    bohr_spec_to_json,
    continued_fraction,
    cyclic_obstruction,
    lacunary_witness,
    revalidate_witness,
    three_distance,
)
from .dynamics import (
    BallSpec,
    MovingQuery,
    RotationSystem,
    eta_dense_constant,
    find_l_recurrent,
    moving_recurrence_experiment,
    one_cylinder,
    phi_l,
    psi_moving,
    return_times_point,
    return_times_set,
    subshift_from_indicator,
    uniform_rigidity_scan,
    verify_nuu,
)
from .errors import NoSuchM, RecLabError, UncertainAtPrecision, VerificationBudgetExceeded
from .exactreal import (
    TorusPoint,
    golden_rotation,
    parse_real,
    real_cmp,
    real_to_json,
    sqrt2_rotation,
)
from .intsets import (
    Window,
    difference_set,
    gen_k_times_nr,
    gen_l_r,
    gen_polynomial,
    load_set_file,
    syndetic_gap,
)
from .report import CLAIM_NAMES, run_claim_suite, suite_to_json, suite_to_markdown
from .seqexpr import EBNF, compile_sequence

DEFAULT_SEED = 20260816


# ---------------------------------------------------------------------------
# input parsing helpers
# ---------------------------------------------------------------------------


def parse_alpha(text: str) -> TorusPoint:
    named = {"golden": golden_rotation, "sqrt2": sqrt2_rotation}
    if text in named:
        return named[text]()
    return TorusPoint(parse_real(text))


def gather_set(args) -> list[int]:
    if getattr(args, "set", None):
        return load_set_file(args.set)
    if getattr(args, "elements", None):
        items = args.elements.replace(",", " ").split()
        return [int(tok) for tok in items]
    raise RecLabError("provide --set FILE or --elements LIST")


def gather_limits(args) -> SearchLimits:
    return SearchLimits(
        max_window=getattr(args, "max_window", None),
        max_period=getattr(args, "max_period", None),
        node_budget=getattr(args, "node_budget", None) or 2_000_000,
    )


def make_system(args) -> RotationSystem:
    if not getattr(args, "alpha", None):
        raise RecLabError("provide at least one --alpha")
    alphas = tuple(parse_alpha(a) for a in args.alpha)
    return RotationSystem(alphas)


def int_list_json(values) -> list[int]:
    return [int(v) for v in values]


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def json_safe(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    return value


def emit(config: dict, result: dict, human: str) -> None:
    doc = {"config": json_safe(config), "result": json_safe(result)}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if human:
        sys.stderr.write(human + "\n")


def build_config(args, command: str) -> dict:
    skip = {"func", "command", "group"}
    flags = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or key.startswith("_"):
            continue
        flags[key] = json_safe(value)
    return {
        "command": command,
        "seed": args.seed,
        "threads": args.threads,
        "precision_bits": args.precision_bits,
        "budgets": {
            "max_window": getattr(args, "max_window", None),
            "max_period": getattr(args, "max_period", None),
            "node_budget": getattr(args, "node_budget", None),
        },
        "flags": flags,
    }


def verdict_result(m, r, verdict) -> dict:
    """Re-verify in-process before printing; refuse to print unverifiable."""
    body = verdict.to_json()
    if verdict.certificate is not None:
        ok = verify_certificate(m, r, verdict.certificate)
        if not ok:
            raise RecLabError("internal: produced certificate failed verification")
        body["verified"] = True
    else:
        body["verified"] = None
    return body


# ---------------------------------------------------------------------------
# birkhoff group
# ---------------------------------------------------------------------------


def cmd_birkhoff_check(args) -> dict:
    elems = gather_set(args)
    verdict = check_r_birkhoff(elems, args.arity, gather_limits(args))
    body = verdict_result(elems, args.arity, verdict)
    if args.emit_cert and verdict.certificate is not None:
        doc = certificate_to_json(verdict.certificate)
        proof = proof_to_json(verdict.certificate)
        if proof is not None:
            doc["proof"] = proof
        with open(args.emit_cert, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    body["set"] = int_list_json(sorted(set(abs(e) for e in elems if e)))
    body["arity"] = args.arity
    return body


def cmd_birkhoff_verify(args) -> dict:
    elems = gather_set(args)
    with open(args.cert) as fh:
        cert = certificate_from_json(json.load(fh))
    ok = verify_certificate(elems, args.arity, cert)
    return {
        "valid": ok,
        "certificate": certificate_to_json(cert),
        "arity": args.arity,
        "set": int_list_json(sorted(set(abs(e) for e in elems if e))),
    }


def cmd_birkhoff_minimal(args) -> dict:
    elems = gather_set(args)
    res = minimal_r_birkhoff_subset(elems, args.arity, gather_limits(args))
    out = {
        "status": res.status.value,
        "subset": int_list_json(res.subset),
        "removed": int_list_json(res.removed),
    }
    if res.verdict is not None:
        out["last_verdict"] = verdict_result(list(res.subset), args.arity, res.verdict)
    return out


def cmd_birkhoff_greedy(args) -> dict:
    elems = gather_set(args)
    run = greedy_coloring(elems, args.terms)
    witness = run.witness(elems, len(set(abs(e) for e in elems if e)) + 1)
    return {
        "sequence": int_list_json(run.sequence),
        "period": run.period,
        "cycle": None if run.cycle is None else int_list_json(run.cycle),
        "cycle_is_witness": witness is not None,
    }


def cmd_birkhoff_stable(args) -> dict:
    removed = []
    if args.removed:
        removed = [int(tok) for tok in args.removed.replace(",", " ").split()]
    res = stably_r_birkhoff_probe(
        args.family_r,
        removed=removed,
        k_max=args.k_max,
        arity=args.arity,
        limits=gather_limits(args),
    )
    arity = args.arity if args.arity is not None else args.family_r
    return {
        "verdict": verdict_result(list(res.truncation), arity, res.verdict),
        "strategy": res.strategy,
        "layer_used": res.layer_used,
        "truncation": int_list_json(res.truncation),
    }


def cmd_birkhoff_chromatic(args) -> dict:
    elems = gather_set(args)
    bracket = chromatic_number_window(elems, args.window, gather_limits(args))
    return {
        "lower": bracket.lower,
        "upper": bracket.upper,
        "exact": bracket.exact,
        "window": args.window,
    }


# ---------------------------------------------------------------------------
# bohr group
# ---------------------------------------------------------------------------


def make_spec(args) -> BohrSpec:
    return BohrSpec(alphas=make_system(args).alphas, eps=Fraction(args.eps))


def cmd_bohr_member(args) -> dict:
    spec = make_spec(args)
    res = bohr_membership(args.n, spec)
    return {
        "member": res.member,
        "norm": real_to_json(res.norm),
        "margin": real_to_json(res.margin),
        "spec": bohr_spec_to_json(spec),
        "n": args.n,
    }


def cmd_bohr_enumerate(args) -> dict:
    spec = make_spec(args)
    hits = bohr_enumerate(spec, Window(args.lo, args.hi))
    return {
        "members": int_list_json(hits),
        "count": len(hits),
        "window": [args.lo, args.hi],
        "spec": bohr_spec_to_json(spec),
    }


def cmd_bohr_witness(args) -> dict:
    elems = gather_set(args)
    w = lacunary_witness(elems, Fraction(args.delta), depth=args.depth)
    if w is None:
        return {"found": False, "interval": None}
    ok = revalidate_witness(elems, Fraction(args.delta), w)
    return {
        "found": True,
        "interval": [str(w.lo), str(w.hi)],
        "midpoint": str(w.midpoint),
        "stages": w.stages,
        "surviving_intervals": w.surviving,
        "total_measure": str(w.total_measure),
        "revalidated": ok,
    }


def cmd_bohr_obstruct(args) -> dict:
    elems = gather_set(args)
    poly = None
    if args.poly:
        poly = [Fraction(tok) for tok in args.poly.replace(",", " ").split()]
    res = cyclic_obstruction(elems, args.m_max, polynomial=poly)
    if res is None:
        return {"found": False, "modulus": None, "m_max": args.m_max}
    return {
        "found": True,
        "modulus": res.modulus,
        "absolute": res.absolute,
        "residues_checked": res.residues_checked,
        "m_max": args.m_max,
    }


def cmd_bohr_separate(args) -> dict:
    elems = gather_set(args)
    spec = bohr_separation_search(elems, Fraction(args.eps), grid_depth=args.grid_depth)
    if spec is None:
        return {"found": False, "spec": None}
    return {"found": True, "spec": bohr_spec_to_json(spec)}


def cmd_bohr_cf(args) -> dict:
    alpha = parse_alpha(args.alpha)
    cf = continued_fraction(alpha, depth=args.depth)
    return {
        "quotients": int_list_json(cf.quotients),
        "convergents": [str(c) for c in cf.convergents],
        "denominators": int_list_json(cf.denominators),
        "terminated": cf.terminated,
    }


def cmd_bohr_threedist(args) -> dict:
    alpha = parse_alpha(args.alpha)
    res = three_distance(alpha, args.count)
    return {
        "distinct_gaps": [real_to_json(g) for g in res.distinct],
        "gap_count": len(res.gaps),
        "distinct_count": len(res.distinct),
    }


# ---------------------------------------------------------------------------
# dyn group
# ---------------------------------------------------------------------------


def parse_point(text: Optional[str], sys_: RotationSystem):
    """A torus point from "x1;...;xk"; one coordinate stands for all k, and
    None is the origin."""
    if text is None:
        return sys_.zero()
    coords = [parse_real(tok) for tok in text.split(";")]
    return sys_.point(coords * sys_.dim if len(coords) == 1 else coords)


def require_indicator_window(args) -> Window:
    if args.window_lo is None or args.window_hi is None:
        raise RecLabError("--indicator needs --window-lo and --window-hi")
    return Window(args.window_lo, args.window_hi)


def cmd_dyn_returns(args) -> dict:
    if args.indicator:
        listing = load_set_file(args.indicator)
        window = require_indicator_window(args)
        shift = subshift_from_indicator(listing, window)
        times = return_times_point(
            shift, args.offset, one_cylinder(), args.horizon
        )
        return {
            "system": "subshift",
            "point_returns": int_list_json(times),
            "horizon": args.horizon,
        }
    sys_ = make_system(args)
    ball = BallSpec(parse_point(args.center, sys_), Fraction(args.radius))
    out = {
        "system": "rotation",
        "set_returns": int_list_json(return_times_set(sys_, ball, args.horizon)),
        "horizon": args.horizon,
    }
    if args.point is not None:
        x = parse_point(args.point, sys_)
        out["point_returns"] = int_list_json(
            return_times_point(sys_, x, ball, args.horizon)
        )
    return out


def cmd_dyn_nuu(args) -> dict:
    sys_ = make_system(args)
    ball = BallSpec(parse_point(args.center, sys_), Fraction(args.radius))
    x = parse_point(args.point, sys_)
    report = verify_nuu(sys_, ball, x, args.horizon, margin=Fraction(args.margin))
    return {
        "clean": report.clean,
        "forward_exceptions": int_list_json(report.forward_exceptions),
        "reverse_exceptions": int_list_json(report.reverse_exceptions),
        "set_return_count": len(report.set_returns),
        "point_return_count": len(report.point_returns),
        "margin": str(report.margin),
        "horizon": report.horizon,
        "window_ratio": report.window_ratio,
        "minimal_declared": report.minimal_declared,
    }


def cmd_dyn_phi(args) -> dict:
    targets = gather_set(args)
    if args.indicator:
        listing = load_set_file(args.indicator)
        window = require_indicator_window(args)
        shift = subshift_from_indicator(listing, window)
        value = phi_l(shift, args.offset, targets, args.horizon)
    else:
        sys_ = make_system(args)
        value = phi_l(sys_, parse_point(args.point, sys_), targets, args.horizon)
    return {"phi": real_to_json(value), "horizon": args.horizon}


def build_query(args) -> MovingQuery:
    n_of_k = compile_sequence(args.nk)
    r_of_k = compile_sequence(args.rk) if args.rk else None
    return MovingQuery.from_callables(n_of_k, r_of_k, args.horizon, Fraction(args.eps))


def cmd_dyn_psi(args) -> dict:
    sys_ = make_system(args)
    query = build_query(args)
    value = psi_moving(sys_, parse_point(args.point, sys_), query)
    return {
        "psi": real_to_json(value),
        "horizon": args.horizon,
        "eps": str(query.eps),
        "below_eps": real_cmp(value, query.eps) < 0,
    }


def cmd_dyn_recurrent(args) -> dict:
    sys_ = make_system(args)
    targets = gather_set(args)
    witness = find_l_recurrent(sys_, targets, Fraction(args.eps))
    if witness is None:
        return {"found": False}
    return {
        "found": True,
        "time": witness.time,
        "value": real_to_json(witness.value),
    }


def cmd_dyn_etadense(args) -> dict:
    sys_ = make_system(args)
    try:
        res = eta_dense_constant(sys_, Fraction(args.eta))
    except NoSuchM as exc:
        return {"found": False, "reason": str(exc)}
    return {
        "found": True,
        "constant": res.constant,
        "max_gap": real_to_json(res.max_gap),
    }


def cmd_dyn_rigidity(args) -> dict:
    sys_ = make_system(args)
    records = uniform_rigidity_scan(sys_, args.horizon)
    return {
        "records": [
            {"time": rec.time, "value": real_to_json(rec.value)} for rec in records
        ],
        "horizon": args.horizon,
    }


def cmd_dyn_moving(args) -> dict:
    sys_ = make_system(args)
    query = build_query(args)
    rep = moving_recurrence_experiment(sys_, query, samples=args.samples)
    return {
        "fraction_below": str(rep.fraction_below),
        "psi_min": rep.psi_min,
        "psi_max": rep.psi_max,
        "sample_count": rep.sample_count,
        "horizon": rep.horizon,
        "eps": str(rep.eps),
        "note": rep.note,
    }


# ---------------------------------------------------------------------------
# sets group
# ---------------------------------------------------------------------------


def cmd_sets_diff(args) -> dict:
    elems = gather_set(args)
    window = None
    if args.lo is not None or args.hi is not None:
        if args.lo is None or args.hi is None:
            raise RecLabError("--lo and --hi must be given together")
        window = Window(args.lo, args.hi)
    diff = difference_set(elems, window=window)
    return {"difference_set": int_list_json(diff), "count": len(diff)}


def cmd_sets_gaps(args) -> dict:
    elems = gather_set(args)
    profile = syndetic_gap(elems, Window(args.lo, args.hi), side=args.side)
    return {
        "max_gap": profile.max_gap,
        "gaps": int_list_json(profile.gaps),
        "side": args.side,
        "window": [args.lo, args.hi],
    }


def cmd_sets_gen(args) -> dict:
    if args.family == "kxnr":
        out = gen_k_times_nr(args.k, args.r)
        meta = {"family": "kxnr", "k": args.k, "r": args.r}
    elif args.family == "lr":
        out = gen_l_r(args.r, args.k_max)
        meta = {"family": "lr", "r": args.r, "k_max": args.k_max}
    else:
        coeffs = [Fraction(tok) for tok in args.coeffs.replace(",", " ").split()]
        out = gen_polynomial(coeffs, args.n_max)
        meta = {
            "family": "poly",
            "coeffs": [str(c) for c in coeffs],
            "n_max": args.n_max,
        }
    listing = int_list_json(out)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(listing, fh)
            fh.write("\n")
    meta["elements"] = listing
    meta["count"] = len(listing)
    return meta


# ---------------------------------------------------------------------------
# report group
# ---------------------------------------------------------------------------


def cmd_report_claims(args) -> dict:
    limits = gather_limits(args)
    only = args.only.split(",") if args.only else None
    if only:
        unknown = [name for name in only if name not in CLAIM_NAMES]
        if unknown:
            raise RecLabError(
                f"unknown claim name(s): {', '.join(unknown)}; "
                f"choose from {', '.join(CLAIM_NAMES)}"
            )
    suite = run_claim_suite(
        limits=limits,
        seed=args.seed,
        inject_corruption=args.inject_corruption,
        only=only,
    )
    if args.md_out:
        with open(args.md_out, "w") as fh:
            fh.write(suite_to_markdown(suite))
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(suite_to_json(suite, include_runtimes=True), fh, indent=2, sort_keys=True)
            fh.write("\n")
    for r in suite.results:
        sys.stderr.write(f"{r.claim:32s} {r.status:9s} {r.runtime_seconds:8.3f}s\n")
    return suite_to_json(suite, include_runtimes=False)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument("--max-window", type=int, default=None)
    p.add_argument("--max-period", type=int, default=None)
    p.add_argument("--node-budget", type=int, default=None)


def add_set_flags(p: argparse.ArgumentParser):
    p.add_argument("--set", help="file with a JSON array or one integer per line")
    p.add_argument("--elements", help="inline integers, comma or space separated")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="reclab",
        description="exact recurrence laboratory: distance-graph certificates, "
        "frequency sets, and finite-horizon dynamics",
    )
    top.add_argument("--seed", type=int, default=DEFAULT_SEED)
    top.add_argument("--threads", type=int, default=0, help="0 = auto (echoed; v1 is single-threaded)")
    top.add_argument(
        "--precision-bits",
        type=int,
        default=int(os.environ.get("RECLAB_PRECISION_BITS", "128")),
    )
    groups = top.add_subparsers(dest="group", required=True)

    # birkhoff ------------------------------------------------------------
    bk = groups.add_parser("birkhoff", help="distance-set colorability certificates")
    bks = bk.add_subparsers(dest="command", required=True)

    p = bks.add_parser("check", help="decide at the given arity")
    add_set_flags(p)
    add_budget_flags(p)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--emit-cert", help="write the certificate JSON here")
    p.set_defaults(func=cmd_birkhoff_check)

    p = bks.add_parser("verify", help="re-check a stored certificate")
    add_set_flags(p)
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=cmd_birkhoff_verify)

    p = bks.add_parser("minimal", help="greedy minimal subset keeping the verdict")
    add_set_flags(p)
    add_budget_flags(p)
    p.add_argument("--arity", type=int, required=True)
    p.set_defaults(func=cmd_birkhoff_minimal)

    p = bks.add_parser("greedy", help="least-unused-color avoiding sequence")
    add_set_flags(p)
    p.add_argument("--terms", type=int, default=64)
    p.set_defaults(func=cmd_birkhoff_greedy)

    p = bks.add_parser("stable", help="layered family probe with removals")
    add_budget_flags(p)
    p.add_argument("--family-r", type=int, required=True)
    p.add_argument("--removed", help="inline integers to delete")
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--arity", type=int, default=None)
    p.set_defaults(func=cmd_birkhoff_stable)

    p = bks.add_parser("chromatic", help="chromatic number of the window graph")
    add_set_flags(p)
    add_budget_flags(p)
    p.add_argument("--window", type=int, required=True)
    p.set_defaults(func=cmd_birkhoff_chromatic)

    # bohr ----------------------------------------------------------------
    bo = groups.add_parser("bohr", help="frequency-set arithmetic")
    bos = bo.add_subparsers(dest="command", required=True)

    p = bos.add_parser("member", help="test one integer")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", action="append", required=True)
    p.add_argument("--eps", required=True)
    p.set_defaults(func=cmd_bohr_member)

    p = bos.add_parser("enumerate", help="list members in a window")
    p.add_argument("--alpha", action="append", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.set_defaults(func=cmd_bohr_enumerate)

    p = bos.add_parser("witness", help="frequency interval avoiding a sequence")
    add_set_flags(p)
    p.add_argument("--delta", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.set_defaults(func=cmd_bohr_witness)

    p = bos.add_parser("obstruct", help="smallest modulus missing the set")
    add_set_flags(p)
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--poly", help="generator coefficients, constant first")
    p.set_defaults(func=cmd_bohr_obstruct)

    p = bos.add_parser("separate", help="frequency spec disjoint from the set")
    add_set_flags(p)
    p.add_argument("--eps", required=True)
    p.add_argument("--grid-depth", type=int, default=20_000)
    p.set_defaults(func=cmd_bohr_separate)

    p = bos.add_parser("cf", help="continued fraction with convergents")
    p.add_argument("--alpha", required=True)
    p.add_argument("--depth", type=int, default=30)
    p.set_defaults(func=cmd_bohr_cf)

    p = bos.add_parser("threedist", help="circular gap structure of an orbit")
    p.add_argument("--alpha", required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=cmd_bohr_threedist)

    # dyn -----------------------------------------------------------------
    dy = groups.add_parser("dyn", help="finite-horizon dynamics")
    dys = dy.add_subparsers(dest="command", required=True)

    def rotation_flags(p, center=False):
        # checked at runtime so subshift-mode calls can omit it
        p.add_argument("--alpha", action="append", default=None)
        if center:
            p.add_argument("--center", default="0")
            p.add_argument("--radius", default="1/10")
        p.add_argument("--point", default=None)

    p = dys.add_parser("returns", help="windowed return-time sets")
    rotation_flags(p, center=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--indicator", help="set file; switches to the subshift")
    p.add_argument("--window-lo", type=int, default=None)
    p.add_argument("--window-hi", type=int, default=None)
    p.add_argument("--offset", type=int, default=0)
    p.set_defaults(func=cmd_dyn_returns)

    p = dys.add_parser("nuu", help="set returns vs point-return differences")
    rotation_flags(p, center=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--margin", default="1/100")
    p.set_defaults(func=cmd_dyn_nuu)

    p = dys.add_parser("phi", help="closest approach over target times")
    rotation_flags(p)
    add_set_flags(p)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--indicator", help="set file; switches to the subshift")
    p.add_argument("--window-lo", type=int, default=None)
    p.add_argument("--window-hi", type=int, default=None)
    p.add_argument("--offset", type=int, default=0)
    p.set_defaults(func=cmd_dyn_phi)

    p = dys.add_parser("psi", help="moving-target closest approach")
    rotation_flags(p)
    p.add_argument("--nk", required=True, help="sequence formula in k")
    p.add_argument("--rk", default=None, help="offset formula, default k")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--eps", default="1/100")
    p.set_defaults(func=cmd_dyn_psi)

    p = dys.add_parser("recurrent", help="find a time bringing a point home")
    rotation_flags(p)
    add_set_flags(p)
    p.add_argument("--eps", required=True)
    p.set_defaults(func=cmd_dyn_recurrent)

    p = dys.add_parser("etadense", help="orbit-density constant")
    rotation_flags(p)
    p.add_argument("--eta", required=True)
    p.set_defaults(func=cmd_dyn_etadense)

    p = dys.add_parser("rigidity", help="displacement record minima")
    rotation_flags(p)
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(func=cmd_dyn_rigidity)

    p = dys.add_parser("moving", help="moving recurrence sample experiment")
    rotation_flags(p)
    p.add_argument("--nk", required=True)
    p.add_argument("--rk", default=None)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--eps", default="1/100")
    p.add_argument("--samples", type=int, default=10)
    p.set_defaults(func=cmd_dyn_moving)

    # sets ------------------------------------------------------------
    se = groups.add_parser("sets", help="integer-set utilities")
    ses = se.add_subparsers(dest="command", required=True)

    p = ses.add_parser("diff", help="difference set, optionally windowed")
    add_set_flags(p)
    p.add_argument("--lo", type=int, default=None)
    p.add_argument("--hi", type=int, default=None)
    p.set_defaults(func=cmd_sets_diff)

    p = ses.add_parser("gaps", help="gap profile over a window")
    add_set_flags(p)
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    p.add_argument("--side", choices=["one", "two"], default="two")
    p.set_defaults(func=cmd_sets_gaps)

    p = ses.add_parser("gen", help="generate a named family")
    p.add_argument("--family", choices=["kxnr", "lr", "poly"], required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--coeffs", default="0,1")
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--out", help="also write the listing to this file")
    p.set_defaults(func=cmd_sets_gen)

    # report ------------------------------------------------------------
    rp = groups.add_parser("report", help="built-in claim suite")
    rps = rp.add_subparsers(dest="command", required=True)

    p = rps.add_parser("paper-claims", help="run every claim end to end")
    add_budget_flags(p)
    p.add_argument("--inject-corruption", action="store_true")
    p.add_argument("--only", help="comma-separated claim names")
    p.add_argument("--md-out", help="write a markdown report here")
    p.add_argument("--json-out", help="write the JSON (with runtimes) here")
    p.set_defaults(func=cmd_report_claims)

    top.epilog = "sequence formula grammar:\n" + EBNF
    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    command = f"{args.group}.{args.command}"
    config = build_config(args, command)
    previous_bits = exactreal.DEFAULT_PRECISION_BITS
    exactreal.DEFAULT_PRECISION_BITS = args.precision_bits
    try:
        result = args.func(args)
    except UncertainAtPrecision as exc:
        doc = {
            "config": json_safe(config),
            "error": {
                "kind": "precision",
                "message": str(exc),
                "ambiguous": getattr(exc, "ambiguous", None),
            },
        }
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 3
    except VerificationBudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except RecLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        exactreal.DEFAULT_PRECISION_BITS = previous_bits

    human = summarize(command, result)
    emit(config, result, human)
    return 0


def summarize(command: str, result: dict) -> str:
    if "status" in result:
        return f"{command}: {result['status']}"
    if "member" in result:
        return f"{command}: member={result['member']}"
    if "valid" in result:
        return f"{command}: valid={result['valid']}"
    if "all_pass" in result:
        counts = result.get("statuses", {})
        return f"{command}: all_pass={result['all_pass']} {counts}"
    return command


if __name__ == "__main__":
    sys.exit(main())
