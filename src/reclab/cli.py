"""Command-line front end.

Machine output is a single JSON document on stdout: {"config": ..., "result":
...}, so identical invocations are byte-identical.  One writer (``_json_text``)
serves stdout and the --emit-cert and --json-out files, in one pass:
indent 2, sorted keys, ASCII-escaped strings, and a rational as the string
"p/q".  Human summaries go to stderr.  Exit codes: 0 completed (the
verdict, including UNDECIDED, lives inside the JSON), 2 usage error (a
zero denominator, or a coordinate whose frequency, point and center use
two quadratic fields, among them), 4 a budget ran out: certificate
verification, interval pruning, a listing past intsets.HIT_CAP (walk hits,
greedy terms, --rk terms (--nk is parsed, never evaluated), torus record
times, set differences, generated elements, a polynomial period, or
64*HIT_CAP convergent bits, circle rigidity record bits, divisibility
tests or the bracket bits of a cross-field sign), or an integer to print
past the interpreter's sys.get_int_max_str_digits() (stdout stays empty).

main can be called repeatedly in one process: the parsers are built on
first use and reused, and each call parses into a fresh namespace.

Every input and every decision is exact, so no flag sets a precision.  The
one approximation is a displayed torus norm whose square is irrational (or
whose rational root is past the radicand cap): ``bohr.torus_norm`` builds it
as an Approx from one isqrt bracket of the exact integer square, at 128
fractional bits (``bohr._DISPLAY_BITS``).  No solver verdict is printed without re-verifying its certificate
first.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

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
    PRUNE_CAP,
    BohrSpec,
    bohr_enumerate,
    bohr_membership,
    bohr_separation_search,
    bohr_spec_to_json,
    continued_fraction,
    cyclic_obstruction,
    lacunary_witness,
    revalidate_witness,
    three_distance_parts,
)
from .dynamics import (
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
from .errors import (
    ListingBudgetExceeded,
    MalformedCertificate,
    NoSuchM,
    PruningBudgetExceeded,
    RecLabError,
    UnprintableInteger,
    VerificationBudgetExceeded,
)
from .exactreal import (
    TorusPoint,
    golden_rotation,
    parse_real,
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
BUDGETS = tuple(f.name for f in fields(SearchLimits))


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
    """The budgets the call gives; SearchLimits' defaults fill in the rest."""
    return SearchLimits(**{k: getattr(args, k) for k in BUDGETS if getattr(args, k, None) is not None})


def make_system(args) -> RotationSystem:
    if not getattr(args, "alpha", None):
        raise RecLabError("provide at least one --alpha")
    alphas = tuple(parse_alpha(a) for a in args.alpha)
    return RotationSystem(alphas)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _float_text(x: float) -> str:
    """json's float rule: NaN and the infinities by name, else the repr."""
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# the text of a scalar of exactly this type
_SCALARS = {
    str: encode_basestring_ascii,
    int: repr,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    Fraction: lambda q: f'"{q.numerator}/{q.denominator}"',
}


def _put(value, out: list, nl: str) -> None:
    """Append the JSON text of value to out.  nl is a newline and the indent
    of value's own line; each nesting level indents by two more spaces."""
    text = _SCALARS.get(type(value))
    if text is not None:
        out.append(text(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        items = {str(k): v for k, v in value.items()}  # a later duplicate wins
        sep = "{" + inner
        for key in sorted(items):
            out.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _put(items[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        if set(map(type, value)) == {int}:
            out.append(f"[{inner}{(',' + inner).join(map(repr, value))}{nl}]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _put(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    # a subclass, such as the str Enum Status, by isinstance in json's order
    elif isinstance(value, Fraction):
        out.append(_SCALARS[Fraction](value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) in one pass, with a Fraction
    written "p/q", a tuple as a list and each dict key as its str().  Raises
    UnprintableInteger for an int past sys.get_int_max_str_digits()."""
    out: list[str] = []
    try:
        _put(doc, out, "\n")
    except ValueError:  # only int-to-text conversion raises it here
        raise UnprintableInteger() from None
    return "".join(out)


def _write_json(path: str, doc) -> None:
    text = _json_text(doc)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def emit(config: dict, result: dict, human: str) -> None:
    sys.stdout.write(_json_text({"config": config, "result": result}))
    sys.stdout.write("\n")
    if human:
        sys.stderr.write(human + "\n")


def build_config(args, command: str) -> dict:
    skip = {"command", "group", "rest"}
    return {
        "command": command,
        "seed": args.seed,
        "budgets": {k: getattr(args, k, None) for k in BUDGETS},
        "flags": {k: v for k, v in vars(args).items() if k not in skip and not k.startswith("_")},
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
        _write_json(args.emit_cert, doc)
    body["set"] = sorted(set(abs(e) for e in elems if e))
    body["arity"] = args.arity
    return body


def cmd_birkhoff_verify(args) -> dict:
    elems = gather_set(args)
    with open(args.cert) as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:
            raise MalformedCertificate("certificate JSON is nested too deeply") from exc
    cert = certificate_from_json(doc)
    ok = verify_certificate(elems, args.arity, cert)
    return {
        "valid": ok,
        "certificate": certificate_to_json(cert),
        "arity": args.arity,
        "set": sorted(set(abs(e) for e in elems if e)),
    }


def cmd_birkhoff_minimal(args) -> dict:
    elems = gather_set(args)
    res = minimal_r_birkhoff_subset(elems, args.arity, gather_limits(args))
    out = {
        "status": res.status.value,
        "subset": list(res.subset),
        "removed": res.removed,
    }
    if res.verdict is not None:
        out["last_verdict"] = verdict_result(list(res.subset), args.arity, res.verdict)
    return out


def cmd_birkhoff_greedy(args) -> dict:
    elems = gather_set(args)
    run = greedy_coloring(elems, args.terms)
    witness = run.witness(elems, len(set(abs(e) for e in elems if e)) + 1)
    return {
        "sequence": run.sequence,
        "period": run.period,
        "cycle": run.cycle,
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
        "truncation": list(res.truncation),
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
        "members": hits,
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
        "quotients": cf.quotients,
        "convergents": [str(c) for c in cf.convergents],
        "denominators": cf.denominators,
        "terminated": cf.terminated,
    }


def cmd_bohr_threedist(args) -> dict:
    alpha = parse_alpha(args.alpha)
    parts = three_distance_parts(alpha, args.count)
    return {
        "distinct_gaps": [real_to_json(g) for g, _ in parts],
        "gap_count": sum(mult for _, mult in parts),
        "distinct_count": len(parts),
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


def indicator_shift(args):
    if args.window_lo is None or args.window_hi is None:
        raise RecLabError("--indicator needs --window-lo and --window-hi")
    return SubshiftSystem(frozenset(load_set_file(args.indicator)), Window(args.window_lo, args.window_hi))


def cmd_dyn_returns(args) -> dict:
    if args.indicator:
        return {
            "system": "subshift",
            "point_returns": indicator_shift(args).returns(args.offset, args.horizon),
            "horizon": args.horizon,
        }
    sys_ = make_system(args)
    ball = BallSpec(parse_point(args.center, sys_), Fraction(args.radius))
    out = {
        "system": "rotation",
        "set_returns": return_times_set(sys_, ball, args.horizon),
        "horizon": args.horizon,
    }
    if args.point is not None:
        x = parse_point(args.point, sys_)
        out["point_returns"] = return_times_point(sys_, x, ball, args.horizon)
    return out


def cmd_dyn_nuu(args) -> dict:
    sys_ = make_system(args)
    ball = BallSpec(parse_point(args.center, sys_), Fraction(args.radius))
    x = parse_point(args.point, sys_)
    report = verify_nuu(sys_, ball, x, args.horizon, margin=Fraction(args.margin))
    return {
        "clean": report.clean,
        "forward_exceptions": report.forward_exceptions,
        "reverse_exceptions": report.reverse_exceptions,
        "set_return_count": len(report.set_returns),
        "point_return_count": len(report.point_returns),
        "margin": str(report.margin),
        "horizon": report.horizon,
        "window_ratio": report.window_ratio,
        "minimal_declared": True,
    }


def cmd_dyn_phi(args) -> dict:
    targets = gather_set(args)
    if args.indicator:
        value = indicator_shift(args).phi(args.offset, targets, args.horizon)
    else:
        value = phi_l(make_system(args), targets, args.horizon)
    return {"phi": real_to_json(value), "horizon": args.horizon}


def build_query(args) -> MovingQuery:
    compile_sequence(args.nk)  # a syntax error exits 2; psi never reads n_k
    r_of_k = compile_sequence(args.rk) if args.rk else None
    return MovingQuery(args.horizon, Fraction(args.eps), r_of_k)


def cmd_dyn_psi(args) -> dict:
    query = build_query(args)
    value, below_eps = psi_moving(make_system(args), query)
    return {
        "psi": real_to_json(value),
        "horizon": args.horizon,
        "eps": str(query.eps),
        "below_eps": below_eps,
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
    return {"difference_set": list(diff), "count": len(diff)}


def cmd_sets_gaps(args) -> dict:
    elems = gather_set(args)
    profile = syndetic_gap(elems, Window(args.lo, args.hi), side=args.side)
    return {
        "max_gap": profile.max_gap,
        "gaps": profile.gaps,
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
    listing = list(out)
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
        _write_json(args.json_out, suite_to_json(suite, include_runtimes=True))
    for r in suite.results:
        sys.stderr.write(f"{r.claim:32s} {r.status:9s} {r.runtime_seconds:8.3f}s\n")
    return suite_to_json(suite, include_runtimes=False)


# ---------------------------------------------------------------------------
# command table
# ---------------------------------------------------------------------------


def count(text: str) -> int:
    """argparse type of a budget, horizon, depth or sample count: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def rationals(text: str) -> str:
    """argparse type of a rational or a list of rationals: each comma or space
    separated token must be a Fraction with a nonzero denominator.  Returns
    the text itself, which the handler parses and the config echoes."""
    for tok in text.replace(",", " ").split():
        try:
            Fraction(tok)
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"zero denominator in {tok!r}") from None
    return text


INT = {"type": int}
COUNT = {"type": count}
RATIONAL = {"type": rationals}
REQUIRED = {"required": True}
REQUIRED_INT = {"type": int, "required": True}
REQUIRED_RATIONAL = {**RATIONAL, **REQUIRED}
HORIZON = {"--horizon": {**COUNT, **REQUIRED}}

SET_FLAGS = {
    "--set": {"help": "file with a JSON array or one integer per line"},
    "--elements": {"help": "inline integers, comma or space separated"},
}
BUDGET_FLAGS = {"--" + k.replace("_", "-"): COUNT for k in BUDGETS}
# --alpha is checked at run time, so subshift-mode calls can omit it
ROTATION_FLAGS = {"--alpha": {"action": "append"}}
BALL_FLAGS = {
    **ROTATION_FLAGS, "--point": {}, "--center": {"default": "0"}, "--radius": {**RATIONAL, "default": "1/10"}}
INDICATOR_FLAGS = {
    "--indicator": {"help": "set file; switches to the subshift"},
    "--window-lo": INT,
    "--window-hi": INT,
    "--offset": {"type": int, "default": 0},
}
QUERY_FLAGS = {
    "--nk": {"required": True, "help": "sequence formula in k"},
    "--rk": {"help": "offset formula, default k"},
    **HORIZON,
    "--eps": {**RATIONAL, "default": "1/100"},
}
FREQUENCY_FLAGS = {"--alpha": {"action": "append", "required": True}, "--eps": REQUIRED_RATIONAL}

GROUPS = {
    "birkhoff": "distance-set colorability certificates",
    "bohr": "frequency-set arithmetic",
    "dyn": "finite-horizon dynamics",
    "sets": "integer-set utilities",
    "report": "built-in claim suite",
}

# (group, command) -> (handler, help, flags); flags map each option string
# to its add_argument keywords
COMMANDS = {
    ("birkhoff", "check"): (cmd_birkhoff_check, "decide at the given arity", {
        **SET_FLAGS, **BUDGET_FLAGS, "--arity": REQUIRED_INT,
        "--emit-cert": {"help": "write the certificate JSON here"}}),
    ("birkhoff", "verify"): (cmd_birkhoff_verify, "re-check a stored certificate", {
        **SET_FLAGS, "--arity": REQUIRED_INT, "--cert": REQUIRED}),
    ("birkhoff", "minimal"): (cmd_birkhoff_minimal, "greedy minimal subset keeping the verdict", {
        **SET_FLAGS, **BUDGET_FLAGS, "--arity": REQUIRED_INT}),
    ("birkhoff", "greedy"): (cmd_birkhoff_greedy, "least-unused-color avoiding sequence", {
        **SET_FLAGS, "--terms": {"type": int, "default": 64}}),
    ("birkhoff", "stable"): (cmd_birkhoff_stable, "layered family probe with removals", {
        **BUDGET_FLAGS, "--family-r": REQUIRED_INT, "--removed": {"help": "inline integers to delete"},
        "--k-max": {"type": int, "default": 3}, "--arity": INT}),
    ("birkhoff", "chromatic"): (cmd_birkhoff_chromatic, "chromatic number of the window graph", {
        **SET_FLAGS, "--node-budget": COUNT, "--window": REQUIRED_INT}),
    ("bohr", "member"): (cmd_bohr_member, "test one integer", {"--n": REQUIRED_INT, **FREQUENCY_FLAGS}),
    ("bohr", "enumerate"): (cmd_bohr_enumerate, "list members in a window", {
        **FREQUENCY_FLAGS, "--lo": REQUIRED_INT, "--hi": REQUIRED_INT}),
    ("bohr", "witness"): (cmd_bohr_witness, "frequency interval avoiding a sequence", {
        **SET_FLAGS, "--delta": REQUIRED_RATIONAL, "--depth": COUNT}),
    ("bohr", "obstruct"): (cmd_bohr_obstruct, "smallest modulus missing the set", {
        **SET_FLAGS, "--m-max": REQUIRED_INT, "--poly": {**RATIONAL, "help": "generator coefficients, constant first"}}),
    ("bohr", "separate"): (cmd_bohr_separate, "frequency spec disjoint from the set", {
        **SET_FLAGS, "--eps": REQUIRED_RATIONAL, "--grid-depth": {**COUNT, "default": PRUNE_CAP}}),
    ("bohr", "cf"): (cmd_bohr_cf, "continued fraction with convergents", {
        "--alpha": REQUIRED, "--depth": {**COUNT, "default": 30}}),
    ("bohr", "threedist"): (cmd_bohr_threedist, "circular gap structure of an orbit", {
        "--alpha": REQUIRED, "--count": REQUIRED_INT}),
    ("dyn", "returns"): (cmd_dyn_returns, "windowed return-time sets", {
        **BALL_FLAGS, **HORIZON, **INDICATOR_FLAGS}),
    ("dyn", "nuu"): (cmd_dyn_nuu, "set returns vs point-return differences", {
        **BALL_FLAGS, **HORIZON, "--margin": {**RATIONAL, "default": "1/100"}}),
    ("dyn", "phi"): (cmd_dyn_phi, "closest approach over target times", {
        **ROTATION_FLAGS, **SET_FLAGS, **HORIZON, **INDICATOR_FLAGS}),
    ("dyn", "psi"): (cmd_dyn_psi, "moving-target closest approach", {**ROTATION_FLAGS, **QUERY_FLAGS}),
    ("dyn", "recurrent"): (cmd_dyn_recurrent, "find a time bringing a point home", {
        **ROTATION_FLAGS, **SET_FLAGS, "--eps": REQUIRED_RATIONAL}),
    ("dyn", "etadense"): (cmd_dyn_etadense, "orbit-density constant", {**ROTATION_FLAGS, "--eta": REQUIRED_RATIONAL}),
    ("dyn", "rigidity"): (cmd_dyn_rigidity, "displacement record minima", {**ROTATION_FLAGS, **HORIZON}),
    ("dyn", "moving"): (cmd_dyn_moving, "moving recurrence sample experiment", {
        **ROTATION_FLAGS, **QUERY_FLAGS, "--samples": {**COUNT, "default": 10}}),
    ("sets", "diff"): (cmd_sets_diff, "difference set, optionally windowed", {
        **SET_FLAGS, "--lo": INT, "--hi": INT}),
    ("sets", "gaps"): (cmd_sets_gaps, "gap profile over a window", {
        **SET_FLAGS, "--lo": REQUIRED_INT, "--hi": REQUIRED_INT,
        "--side": {"choices": ["one", "two"], "default": "two"}}),
    ("sets", "gen"): (cmd_sets_gen, "generate a named family", {
        "--family": {"choices": ["kxnr", "lr", "poly"], "required": True},
        "--k": {"type": int, "default": 1}, "--r": {"type": int, "default": 2},
        "--k-max": {"type": int, "default": 3}, "--coeffs": {**RATIONAL, "default": "0,1"},
        "--n-max": {"type": int, "default": 50}, "--out": {"help": "also write the listing to this file"}}),
    ("report", "paper-claims"): (cmd_report_claims, "run every claim end to end", {
        **BUDGET_FLAGS, "--inject-corruption": {"action": "store_true"},
        "--only": {"help": "comma-separated claim names"}, "--md-out": {"help": "write a markdown report here"},
        "--json-out": {"help": "write the JSON (with runtimes) here"}}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The global flags and GROUP COMMAND; main parses the command's own
    flags from the rest of the argv with command_parser.  Built on the first
    call and shared by every later one."""
    listing = ["commands (reclab GROUP COMMAND --help lists a command's flags):"]
    for group, text in GROUPS.items():
        listing.append(f"  {group}: {text}")
        listing += [f"    {c:13s} {h}" for (g, c), (_, h, _) in COMMANDS.items() if g == group]
    top = argparse.ArgumentParser(
        prog="reclab",
        description="exact recurrence laboratory: distance-graph certificates, "
        "frequency sets, and finite-horizon dynamics",
        epilog="\n".join(listing) + "\n\nsequence formula grammar:\n" + EBNF,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument("--seed", type=int, default=DEFAULT_SEED)
    top.add_argument("group", choices=GROUPS, metavar="GROUP", help="one of the groups listed below")
    top.add_argument("command", metavar="COMMAND", help="one of the group's commands")
    top.add_argument("rest", nargs=argparse.REMAINDER, metavar="...", help="the command's flags")
    return top


@functools.cache
def command_parser(group: str, command: str) -> argparse.ArgumentParser:
    """The parser of one command's own flags, built on its first call."""
    _, text, flags = COMMANDS[(group, command)]
    parser = argparse.ArgumentParser(prog=f"reclab {group} {command}", description=text)
    for option, kwargs in flags.items():
        parser.add_argument(option, **kwargs)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    entry = COMMANDS.get((args.group, args.command))
    if entry is None:
        choices = ", ".join(c for g, c in COMMANDS if g == args.group)
        parser.error(f"argument COMMAND: invalid choice: {args.command!r} (choose from {choices})")
    handler = entry[0]
    # the command's own flags fill the same namespace
    command_parser(args.group, args.command).parse_args(args.rest, namespace=args)

    command = f"{args.group}.{args.command}"
    config = build_config(args, command)
    try:
        result = handler(args)
        emit(config, result, summarize(command, result))
    except (VerificationBudgetExceeded, PruningBudgetExceeded, ListingBudgetExceeded, UnprintableInteger) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (RecLabError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
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
