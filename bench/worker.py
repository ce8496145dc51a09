"""Run one benchmark workload in this process and print its result.

run.py starts this script in a fresh interpreter, with BLAS and OpenMP
pinned to one thread and ``src`` on the path.  It prints report lines and,
as its last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--setup-only`` it stops after set-up and prints
only ``{"setup_s": ...}``.
"""

import time

_STARTED = time.perf_counter()   # set-up time counts the imports below

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

import workloads
from tracer import PER_LAYER, Tracer, layer_metrics

OUT_DIR = Path(".bench_out")

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("slowest_op_s", "s"),
    ("success_frac", "ratio"), ("peak_rss_mb", "MB"),
]
# plan quality comes from sweep-pair only; a workload that makes no plan
# reports 0 for each of these
QUALITY = [
    ("plan_cost.mono", "USD"), ("plan_cost.rh", "USD"), ("plan_cost.mpc", "USD"),
    ("shed_mwh.rh", "MWh"), ("shed_mwh.mpc", "MWh"), ("gap_pct.mpc", "%"),
]
TRACED = PER_LAYER + QUALITY + [("trace.overhead_s", "s")]


def run_pass(ops, tracer=None):
    """One closed-loop pass: each op starts after the previous returns.
    Returns (op name, seconds, Outcome) per op; only ``op.run`` is timed."""
    rows = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                result = tracer.call(f"op.{op.name}", "bench", op.run)
        except Exception as exc:   # noqa: BLE001 - a raising op is a failed op
            elapsed = time.perf_counter() - t0
            rows.append((op.name, elapsed, workloads.Outcome(
                [f"raised {type(exc).__name__}: {exc}"])))
            continue
        elapsed = time.perf_counter() - t0
        rows.append((op.name, elapsed, op.check(result)))
    return rows


def fastest(passes):
    """Op name -> its fastest time over the passes.  Noise on a shared
    machine only ever adds time, in bursts that hit some passes and not
    others, so the fastest repetition is the one that reads the program."""
    best = {}
    for p in passes:
        for name, dt, _ in p:
            best[name] = min(dt, best.get(name, dt))
    return best


def summarize(passes, traced=None):
    """Counts over every pass; end-to-end timings over the untraced passes
    only, from each op's fastest repetition."""
    rows = [r for p in passes + ([traced] if traced else []) for r in p]
    attempted = len(rows)
    failed = sum(bool(o.failures) for _, _, o in rows)
    best = fastest(passes)
    quality = {}
    for _, _, outcome in passes[0]:
        quality.update(outcome.quality)
    return dict(
        correct=not any(o.wrong for _, _, o in rows),
        attempted=attempted,
        failed=failed,
        wall_s=sum(best.values()),
        slowest_op_s=max(best.values()),
        success_frac=(attempted - failed) / attempted,
        quality=quality,
    )


def report(passes, summary):
    best = fastest(passes)
    for k, (name, _, _) in enumerate(passes[0]):
        times = [p[k][1] for p in passes]
        print(f"op {name}: fastest {best[name]:.4f} s, median "
              f"{statistics.median(times):.4f} s over {len(times)} passes")
    seen = set()
    for p in passes:
        for name, _, outcome in p:
            for reason in outcome.failures:
                if (name, reason) not in seen:
                    seen.add((name, reason))
                    print(f"op {name} failed: {reason}")
    print(f"failed_frac {summary['failed'] / summary['attempted']:.4f} ratio "
          f"({summary['failed']} of {summary['attempted']} ops failed)")
    for name, (value, unit) in sorted(summary["quality"].items()):
        print(f"{name} {value!r} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, scratch)
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        passes = []
        begin = time.perf_counter()
        while not passes or time.perf_counter() - begin < args.seconds:
            passes.append(run_pass(ops))
        measured = time.perf_counter() - begin
        traced = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(ops, tracer)
            finally:
                tracer.uninstall()
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = summarize(passes, traced)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced "
          f"passes in {measured:.1f} s")
    report(passes, summary)
    if args.trace:
        values = layer_metrics(tracer)
        values.update({name: value for name, (value, _) in
                       summary["quality"].items() if name in dict(QUALITY)})
        # the traced pass runs the same ops as an untraced one, checks
        # excluded from both
        values["trace.overhead_s"] = (
            sum(dt for _, dt, _ in traced) - summary["wall_s"])
        units = TRACED
    else:
        values = dict(
            setup_s=setup_s, wall_s=summary["wall_s"],
            slowest_op_s=summary["slowest_op_s"],
            success_frac=summary["success_frac"],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units}
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
