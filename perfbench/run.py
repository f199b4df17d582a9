"""reclab benchmark: one workload, one seed, one command.

    python3 perfbench/run.py --workload solver --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; reclab is imported from its ``src/``.  Each
set-up is a fresh worker process (see worker.py), started SETUPS times so
that ``setup_s`` is a median; the last worker also runs the timed ops.  The
load is a closed loop: one client issuing one op after another.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, from
untraced passes only.  With ``--trace 1`` it holds the per-layer metrics of
one traced pass, plus the tracing overhead against an untraced pass of the
same ops.  Lines before it give the same numbers for people, the failed-op
fraction, per-kind latencies and the sha256 digest of the canonical outputs.
Exits non-zero, printing no result, when reclab cannot be imported from the
checkout or a worker does not finish in time.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("solver", "surd", "rational", "cli")
SETUPS = 9
DEADLINE_S = 170  # every run, its set-ups included, must end within 180 s

CLAIMS = (
    "multiples-are-birkhoff", "cardinality-ceiling", "layered-family-lacunary",
    "layered-family-stable", "layered-family-not-above", "shifted-squares-obstructed",
    "doubling-avoidance-witness", "ball-return-identity", "return-set-cross-check",
    "rigidity-records", "moving-recurrence-dense", "certificate-audit",
)

# metric name, unit, where it comes from ("calls"/"s"/"self_s" of a span name,
# "count" of a counter, "reported" seconds the program measured itself)
LAYER_METRICS = [
    ("birkhoff.check.calls", "count", "calls", "birkhoff.check"),
    ("birkhoff.check.s", "s", "s", "birkhoff.check"),
    ("birkhoff.check.nodes", "count", "count", "birkhoff.check.nodes"),
    ("birkhoff.check.windows_tried", "count", "count", "birkhoff.check.windows_tried"),
    ("birkhoff.check.periods_tried", "count", "count", "birkhoff.check.periods_tried"),
    ("birkhoff.check.undecided", "count", "count", "birkhoff.check.undecided"),
    ("birkhoff.verify.window.calls", "count", "calls", "birkhoff.verify.window"),
    ("birkhoff.verify.window.s", "s", "s", "birkhoff.verify.window"),
    ("birkhoff.verify.periodic.s", "s", "s", "birkhoff.verify.periodic"),
    ("birkhoff.verify.cap_exceeded", "count", "count", "birkhoff.verify.cap_exceeded"),
    *[
        (f"exactreal.{part}.{field}", "count" if field == "calls" else "s", field, f"exactreal.{part}")
        for part in ("real_cmp", "torus_norm1", "surd_floor", "arith")
        for field in ("calls", "self_s")
    ],
    ("exactreal.approx_results", "count", "count", "exactreal.approx_results"),
    ("exactreal.precision_errors", "count", "count", "exactreal.precision_errors"),
    ("bohr.enumerate.calls", "count", "calls", "bohr.enumerate"),
    ("bohr.enumerate.s", "s", "s", "bohr.enumerate"),
    ("bohr.enumerate.members", "count", "count", "bohr.enumerate.members"),
    ("bohr.three_distance.calls", "count", "calls", "bohr.three_distance"),
    ("bohr.three_distance.s", "s", "s", "bohr.three_distance"),
    ("bohr.continued_fraction.s", "s", "s", "bohr.continued_fraction"),
    ("bohr.prune.s", "s", "s", "bohr.prune"),
    ("bohr.prune.surviving", "count", "count", "bohr.prune.surviving"),
    ("dynamics.rigidity.s", "s", "s", "dynamics.rigidity"),
    ("dynamics.rigidity.records", "count", "count", "dynamics.rigidity.records"),
    ("dynamics.return_times.s", "s", "s", "dynamics.return_times"),
    ("dynamics.nuu.s", "s", "s", "dynamics.nuu"),
    ("dynamics.moving.s", "s", "s", "dynamics.moving"),
    ("dynamics.eta_dense.s", "s", "s", "dynamics.eta_dense"),
    ("dynamics.eta_dense.constant_sum", "count", "count", "dynamics.eta_dense.constant_sum"),
    *[(f"report.{claim}.s", "s", "reported", f"report.{claim}.s") for claim in CLAIMS],
    ("seqexpr.compile.s", "s", "s", "seqexpr.compile"),
    ("intsets.s", "s", "s", "intsets"),
    ("cli.parse.s", "s", "s", "cli.parse"),
    ("cli.emit.s", "s", "s", "cli.emit"),
]


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("RECLAB_PRECISION_BITS", None)  # the CLI then runs at its default, 128 bits
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, deadline: float, setup_only: bool):
    """Start a worker and wait for READY; returns (process, setup seconds, import seconds)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT, env=worker_env())
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - started
        if not line.startswith(b"READY "):
            raise WorkerError("worker did not become ready")
    except BaseException:
        stop(proc)
        raise
    return proc, setup_s, json.loads(line[len(b"READY "):])["import_s"]


def stop(proc) -> None:
    """Kill the worker if it still runs, reap it, and drop its scratch directory."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()
    shutil.rmtree(os.path.join(ROOT, ".perfbench_out", f"work-{proc.pid}"), ignore_errors=True)


def run_workers(args) -> tuple[list[float], list[float], dict]:
    deadline = time.monotonic() + DEADLINE_S
    setups, imports = [], []
    for i in range(SETUPS):
        last = i == SETUPS - 1
        proc, setup_s, import_s = start_worker(args, deadline, setup_only=not last)
        setups.append(setup_s)
        imports.append(import_s)
        try:
            out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise WorkerError("worker ran past the deadline") from exc
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise WorkerError(f"worker exited with code {proc.returncode}")
    return setups, imports, json.loads(out.decode().strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res: dict, setups: list[float]) -> dict:
    op_s = res["op_s"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(op_s), "s"),
        "op_p50_ms": (statistics.median(op_s) * 1000, "ms"),
        "op_p90_ms": (percentile(op_s, 90) * 1000, "ms"),
        "ok_frac": (1 - res["failed"] / res["attempted"], "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict, imports: list[float]) -> dict:
    spans, counts, reported = res["spans"], res["counts"], res["seconds"]
    out = {}
    for name, unit, source, key in LAYER_METRICS:
        if source == "count":
            value = counts.get(key, 0)
        elif source == "reported":
            value = reported.get(key, 0.0)
        else:
            value = spans.get(key, {}).get(source, 0)
        out[name] = (value, unit)
    out["cli.import_s"] = (statistics.median(imports), "s")
    out["trace.overhead"] = (res["overhead"], "ratio")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long the untraced passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="a few ops per workload, for the self-test")
    args = ap.parse_args()

    try:
        setups, imports, res = run_workers(args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = per_layer(res, imports) if args.trace else end_to_end(res, setups)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{res['ops']} ops x {res['passes']} passes (the first untimed), closed loop, one client")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_frac {res['failed'] / res['attempted']} ratio ({res['failed']} of {res['attempted']})")
    raw = res["op_raw_s"]
    print(f"unscaled: wall_s {sum(raw)} s, op_p50_ms {statistics.median(raw) * 1000} ms, "
          f"op_p90_ms {percentile(raw, 90) * 1000} ms")
    by_kind: dict[str, list[float]] = {}
    for kind, t in zip(res["kinds"], res["op_s"]):
        by_kind.setdefault(kind, []).append(t)
    for kind, times in sorted(by_kind.items()):
        print(f"kind {kind}: {len(times)} ops, median {statistics.median(times) * 1000:.3f} ms, "
              f"total {sum(times):.4f} s")
    for reason in res["rejected"]:
        print(f"oracle: {reason}")
    print("timed pass walls (reference s):", " ".join(f"{w:.4f}" for w in res["pass_walls"]))
    print(f"output sha256 {res['digest']}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
