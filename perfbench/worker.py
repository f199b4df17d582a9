"""Benchmark worker: one process per set-up, started by run.py.

It imports reclab from the checkout's ``src/`` (and refuses any other copy),
builds the workload's inputs into library objects, and prints ``READY`` with
its import time.  With ``--setup-only`` it stops there.  Otherwise it runs
whole passes over the op list, checks the first pass with the oracle, times
the others in reference seconds (see calibrate), and prints one JSON line
with the measurements.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from math import isqrt

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def import_reclab() -> float:
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import reclab.cli  # noqa: F401  (pulls in every layer)

    elapsed = time.perf_counter() - started
    import reclab

    if os.path.dirname(os.path.dirname(os.path.abspath(reclab.__file__))) != SRC:
        raise ImportError(f"reclab imported from {reclab.__file__}, not from {SRC}")
    return elapsed


# Times are reported in reference seconds: each op's measured time is scaled
# by REFERENCE_S / (seconds the calibration kernel took around it).  On a
# shared 2-vCPU machine the speed of the interpreter drifts by up to 2x
# within minutes; the same inputs measured 2.1 s and 3.8 s an hour apart.
# The kernel uses only the standard library, so no change to reclab moves it.
REFERENCE_S = 0.05
CHUNKS = 10  # calibrations per pass, so drift within a pass is followed too


def calibrate() -> float:
    """Seconds for a fixed kernel shaped like reclab's work: Fraction and
    big-integer arithmetic, dict and set churn, and recursion."""
    started = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 2500):
        acc += Fraction(i % 97, i)
        acc -= acc.numerator // acc.denominator
    total = 0
    for i in range(3000):
        total += isqrt((i * 12345678901234567) << 64)
    counts: dict[int, int] = {}
    for i in range(30000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    seen = set()
    for i in range(20000):
        seen.add(i * 7 % 5000)

    def depth(k: int) -> int:
        return 0 if k == 0 else 1 + depth(k - 1)

    for _ in range(200):
        depth(100)
    return time.perf_counter() - started


def run_pass(ops, tracer=None, calibrated=True):
    """Run every op once; returns (latencies, scales, outputs, errors).

    A latency times its scale is the op's time in reference seconds (the
    scale is 1 when not calibrated).  An error is (label, detail): "failed"
    for a budget, precision or exit-code failure the program reports,
    "crashed" for any other exception.
    """
    from reclab.errors import RecLabError
    from workloads import OpFailed

    gc.collect()
    latencies, scales, outputs, errors = [], [], [], []
    bounds = [len(ops) * k // CHUNKS for k in range(CHUNKS + 1)] if calibrated else [0, len(ops)]
    before = calibrate() if calibrated else None
    for lo, hi in zip(bounds, bounds[1:]):
        for op in ops[lo:hi]:
            span = tracer.begin(tracer.intern(f"op.{op.kind}")) if tracer else None
            started = time.perf_counter()
            out = err = None
            try:
                out = op.run()
            except (OpFailed, RecLabError) as exc:
                err = ("failed", type(exc).__name__)
            except Exception as exc:
                err = ("crashed", f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - started)
            if tracer:
                tracer.finish(span)
            outputs.append(out)
            errors.append(err)
        scale = 1.0
        if calibrated:
            after = calibrate()
            scale = REFERENCE_S / ((before + after) / 2)
            before = after
        scales.extend([scale] * (hi - lo))
    return latencies, scales, outputs, errors


def judge(ops, outputs, errors):
    """Canonical output lines, failed-op count and oracle rejections of one pass.

    A crash or an output the oracle rejects is both a failed op and a wrong
    answer; a failure the program reports cleanly is only a failed op.
    """
    canon, failed, rejected = [], 0, []
    for i, (op, out, err) in enumerate(zip(ops, outputs, errors)):
        if err is not None:
            failed += 1
            canon.append(f"{err[0]}:{err[1] if err[0] == 'failed' else 'exception'}")
            if err[0] == "crashed":
                rejected.append(f"op {i} {op.kind}: crashed: {err[1]}")
            continue
        try:
            reason = op.check(out)
        except Exception as exc:  # the oracle could not read the output
            reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason:
            failed += 1
            rejected.append(f"op {i} {op.kind}: {reason}")
        canon.append(op.canon(out))
    return canon, failed, rejected


def measure(args, ops) -> dict:
    """A warm-up pass checked by the oracle, then calibrated timed passes.

    Untraced: timed passes repeat while another fits in --seconds (at least
    one), and each op's latency is its median over them.  Traced: one
    untraced and one traced pass over the same ops.  ``attempted`` and
    ``failed`` count the ops of the checked pass, so they depend on the seed
    only; every timed pass must reproduce its outputs, failures included.
    """
    started = time.perf_counter()
    _, _, outputs, errors = run_pass(ops, calibrated=False)
    canon, failed, rejected = judge(ops, outputs, errors)
    del outputs
    passes = 1

    def timed_pass(tracer=None):
        """Returns per-op (reference seconds, raw seconds) and the pass's raw duration."""
        nonlocal passes
        pass_started = time.perf_counter()
        raw, scales, outputs, errors = run_pass(ops, tracer)
        passes += 1
        if judge(ops, outputs, errors)[0] != canon:
            rejected.append("outputs differ between passes")
        return [t * k for t, k in zip(raw, scales)], raw, time.perf_counter() - pass_started

    per_op = [[] for _ in ops]
    per_op_raw = [[] for _ in ops]
    pass_walls, pass_seconds = [], []
    while True:
        ref, raw, seconds = timed_pass()
        pass_walls.append(sum(ref))
        pass_seconds.append(seconds)
        for row, t in zip(per_op, ref):
            row.append(t)
        for row, t in zip(per_op_raw, raw):
            row.append(t)
        if args.trace or time.perf_counter() - started + statistics.mean(pass_seconds) > args.seconds:
            break
    result = {}
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(spans.reclab_modules())
        try:
            traced, _, _ = timed_pass(tracer)
        finally:
            tracer.uninstall()
        result.update(
            overhead=sum(traced) / pass_walls[0],
            spans=tracer.summary(),
            counts=dict(tracer.counts),
            seconds=dict(tracer.seconds),
        )
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.bin"))  # latest traced run only
    result.update(
        ops=len(ops),
        passes=passes,
        attempted=len(ops),
        failed=failed,
        correct=not rejected,
        rejected=rejected[:20],
        digest=hashlib.sha256("\n".join(canon).encode()).hexdigest(),
        pass_walls=pass_walls,
        op_s=[statistics.median(row) for row in per_op],
        op_raw_s=[statistics.median(row) for row in per_op_raw],
        kinds=[op.kind for op in ops],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_s = import_reclab()
    import workloads

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        os.chdir(workdir)
        ops = workloads.build(args.workload, args.seed, args.tiny, workdir)
        print("READY " + json.dumps({"import_s": import_s}), flush=True)
        if args.setup_only:
            return 0
        result = measure(args, ops)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
