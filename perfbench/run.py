"""lcadc benchmark: one workload, one seed, one process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload stock_montecarlo --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs every input once untraced and once traced and reports the per-layer
metrics and the tracing overhead.  The program under test is the ``lcadc``
package in the checkout's ``src/``; without it the benchmark exits with
code 2.  Human-readable lines come first; the last line of standard output
is one JSON object.  A results file with provenance, and in traced runs the
recorded spans, are written under ``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("stock_montecarlo", "multitone_rails", "trace_export")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lcadc", "__init__.py")):
        print(f"error: no lcadc sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # one single-threaded process: keep numpy's thread pools at one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    load_at_start = os.getloadavg()
    sys.path.insert(0, SRC)

    import calibration

    calibration.warm_up()
    before = calibration.kernel_seconds()
    t0, c0 = perf_counter(), process_time()
    import lcadc

    import_cpu_s = process_time() - c0
    import_wall_s = perf_counter() - t0
    import_s = calibration.calibrated(import_cpu_s, before, calibration.kernel_seconds())
    if not os.path.abspath(lcadc.__file__).startswith(SRC + os.sep):
        print(f"error: imported lcadc from {lcadc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUNS, "work", f"{tag}-{os.getpid()}")
    try:
        inputs, setup_runs = harness.setup(workload, args.seed, workdir, SETUP_REPEATS)
        setup_s = import_s + statistics.median(setup_runs)
        workload.start()
        try:
            if args.trace:
                run = harness.run_traced(workload, inputs, workdir, args.seconds)
                loops = (run.untraced, run.traced)
                metrics = harness.per_layer(run, workload.prefix_ops)
                e2e, extra = harness.end_to_end(run.untraced, setup_s, run.peak_rss_mb)
                extra["anchor"] = harness.anchor() if args.workload == "stock_montecarlo" else None
            else:
                loop, peak_rss_mb = harness.run_untraced(workload, inputs, workdir, args.seconds)
                loops = (loop,)
                e2e, extra = harness.end_to_end(loop, setup_s, peak_rss_mb)
                metrics = e2e
        finally:
            workload.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(lp.attempted for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    provenance = {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "lcadc": lcadc.__version__,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_average_at_start": load_at_start,
    }
    record = {
        "provenance": provenance,
        "result": result,
        "end_to_end": {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()},
        "reported_beside": extra,
        "setup_runs_s": setup_runs,
        "import_s": import_s,
        "import_wall_s": import_wall_s,
        "calibration_reference_s": calibration.REFERENCE_S,
        "failures": [{"op": f.index, "problems": f.problems} for f in failures[:20]],
        "workload_notes": dict(workload.notes),
    }
    if args.trace:
        record["prefix_counters"] = run.prefix
    os.makedirs(os.path.join(RUNS, "results"), exist_ok=True)
    with open(os.path.join(RUNS, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        os.makedirs(os.path.join(RUNS, "spans"), exist_ok=True)
        with open(os.path.join(RUNS, "spans", f"{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump(run.tracer.to_json_dict(), fh)

    print(f"{args.workload} seed={args.seed} trace={args.trace} ops={extra['ops']} events={extra['events']}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<14} {value:.6g} {unit}")
    print(
        f"  wall time: events_per_s {extra['wall_events_per_s']:.6g}, op_p50_s {extra['wall_op_p50_s']:.6g},"
        f" op_tail_s {extra['wall_op_tail_s']:.6g}; {extra['wall_per_calibrated_s']:.4g} wall s per calibrated s"
    )
    print(f"  {'error_rate':<14} {extra['error_rate']:.6g} ({len(failures)} of {attempted} ops)")
    if "ops_missing_grazes" in workload.notes:
        missing = workload.notes["ops_missing_grazes"]
        print(f"  {'graze_miss_rate':<14} {missing / attempted:.6g} ({missing} of {attempted} ops missed a graze)")
    print(f"  op_tail_s is the p{extra['op_tail_percentile']:.4g} of {extra['ops']} ops, {extra['ops_beyond_tail']} beyond it")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:.6g} {unit}")
        if extra["anchor"] is not None:
            print(f"  anchor: {extra['anchor']}")
    if any(workload.notes.values()):
        print(f"  notes: {dict(workload.notes)}")
    for f in failures[:3]:
        print(f"  failed op {f.index}: {f.problems[0].strip().splitlines()[-1]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
