"""In-process span tracing of reclab's layer boundaries, from outside the package.

Tracing works by replacing module-level functions with timing wrappers in
every reclab module that holds them (so a name imported by a caller module is
wrapped where the caller looks it up), plus the method ``Surd.floor``.  No
file under ``src/`` changes; :meth:`Tracer.uninstall` puts every original
back.

Each span records its name, start, end and parent span in flat arrays that
stay in memory until :meth:`Tracer.write` stores them at exit.  A span's self
time is its duration minus the time its direct children cover; a name's
inclusive time counts only spans with no enclosing span of the same name, so
recursion and wrapper-inside-wrapper calls are not counted twice.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("intsets", "birkhoff", "exactreal", "bohr", "dynamics", "seqexpr", "report", "cli")


def reclab_modules() -> dict:
    return {name: importlib.import_module(f"reclab.{name}") for name in MODULES}

# span name -> functions it covers, as (module, attribute)
SPANS = {
    "birkhoff.check": [("birkhoff", "check_r_birkhoff")],
    "exactreal.real_cmp": [("exactreal", "real_cmp")],
    "exactreal.torus_norm1": [("exactreal", "torus_norm1")],
    "exactreal.arith": [
        ("exactreal", name)
        for name in ("real_add", "real_sub", "real_mul", "real_mul_int", "real_abs", "real_frac", "real_sqrt")
    ],
    "bohr.enumerate": [("bohr", "bohr_enumerate")],
    "bohr.three_distance": [("bohr", "three_distance")],
    "bohr.continued_fraction": [("bohr", "continued_fraction")],
    "bohr.prune": [("bohr", "lacunary_witness"), ("bohr", "bohr_separation_search")],
    "dynamics.rigidity": [("dynamics", "uniform_rigidity_scan")],
    "dynamics.return_times": [("dynamics", "return_times_set"), ("dynamics", "return_times_point")],
    "dynamics.nuu": [("dynamics", "verify_nuu")],
    "dynamics.moving": [("dynamics", "moving_recurrence_experiment"), ("dynamics", "psi_moving")],
    "dynamics.eta_dense": [("dynamics", "eta_dense_constant")],
    "seqexpr.compile": [("seqexpr", "compile_sequence")],
    "intsets": [
        ("intsets", name)
        for name in (
            "difference_set", "syndetic_gap", "is_thick_window", "lacunarity_ratios",
            "gen_k_times_nr", "gen_l_r", "l_r_layer", "gen_polynomial",
            "parse_set_text", "load_set_file",
        )
    ],
    "cli.emit": [("cli", "emit")],
    "report.suite": [("report", "run_claim_suite")],
}


class Tracer:
    """Span recorder plus the deterministic counters read at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self._stack: list[int] = []
        self._open: list[int] = []  # open span count per name id
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()  # times the program reports itself
        self._patched: list[tuple[object, str, object]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if self._open[nid] else 0)
        self._open[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        self._open[self.name_of[i]] -= 1

    # -- wrapping ------------------------------------------------------------

    def wrap(self, fn, name, after=None, on_error=None, name_for=None):
        """Timing wrapper around fn; name_for(args) may pick the span name."""
        nid = self.intern(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            i = begin(name_for(args, kwargs) if name_for else nid)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                finish(i)
            if after:
                after(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch_everywhere(self, modules: dict, original, replacement) -> None:
        """Rebind every module-level name that refers to `original`."""
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self, modules: dict) -> None:
        from reclab.birkhoff import WindowUnsat
        from reclab.errors import UncertainAtPrecision, VerificationBudgetExceeded
        from reclab.exactreal import Approx, Surd

        counts = self.counts

        def count_approx(out):
            if isinstance(out, Approx):
                counts["exactreal.approx_results"] += 1

        def after_check(verdict):
            counts["birkhoff.check.nodes"] += verdict.stats.nodes
            counts["birkhoff.check.windows_tried"] += verdict.stats.windows_tried
            counts["birkhoff.check.periods_tried"] += verdict.stats.periods_tried
            counts["birkhoff.check.undecided"] += verdict.status.value == "UNDECIDED"

        def cmp_error(exc):
            if isinstance(exc, UncertainAtPrecision):
                counts["exactreal.precision_errors"] += 1

        def after_suite(suite):
            for result in suite.results:
                self.seconds[f"report.{result.claim}.s"] += result.runtime_seconds

        hooks = {
            "birkhoff.check": {"after": after_check},
            "exactreal.real_cmp": {"on_error": cmp_error},
            "exactreal.torus_norm1": {"after": count_approx},
            "exactreal.arith": {"after": count_approx},
            "bohr.enumerate": {"after": lambda out: counts.update({"bohr.enumerate.members": len(out)})},
            "bohr.prune": {
                "after": lambda out: counts.update(
                    {"bohr.prune.surviving": getattr(out, "surviving", 0) or 0}
                )
            },
            "dynamics.rigidity": {"after": lambda out: counts.update({"dynamics.rigidity.records": len(out)})},
            "dynamics.eta_dense": {
                "after": lambda out: counts.update({"dynamics.eta_dense.constant_sum": out.constant})
            },
            "report.suite": {"after": after_suite},
        }
        for span, targets in SPANS.items():
            for mod_name, attr in targets:
                original = getattr(modules[mod_name], attr)
                wrapped = self.wrap(original, span, **hooks.get(span, {}))
                self.patch_everywhere(modules, original, wrapped)

        # verification: one name per certificate kind, plus the cap counter
        window_id = self.intern("birkhoff.verify.window")
        periodic_id = self.intern("birkhoff.verify.periodic")

        def verify_kind(args, kwargs):
            cert = args[2] if len(args) > 2 else kwargs.get("cert")
            return window_id if isinstance(cert, WindowUnsat) else periodic_id

        def verify_error(exc):
            if isinstance(exc, VerificationBudgetExceeded):
                counts["birkhoff.verify.cap_exceeded"] += 1

        original = modules["birkhoff"].verify_certificate
        self.patch_everywhere(
            modules,
            original,
            self.wrap(original, "birkhoff.verify.window", on_error=verify_error, name_for=verify_kind),
        )

        # the CLI builds its parser per call: time the build and parse_args
        parse_id = self.intern("cli.parse")
        build_parser = modules["cli"].build_parser
        begin, finish = self.begin, self.finish

        def traced_build_parser():
            i = begin(parse_id)
            try:
                parser = build_parser()
            finally:
                finish(i)
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse")
            return parser

        self.patch_everywhere(modules, build_parser, traced_build_parser)

        floor = Surd.floor
        self._patched.append((Surd, "floor", floor))
        Surd.floor = self.wrap(floor, "exactreal.surd_floor")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if not self.nested[i]:
                row["s"] += dur
        return out

    def write(self, path: str) -> None:
        """Store the spans: one JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": ["name_of:H", "parent:i", "start:d", "end:d", "nested:b"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_of, self.parent, self.start, self.end, self.nested):
                arr.tofile(fh)
