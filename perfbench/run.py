"""rankr benchmark: two workloads over the CLI and the scalar API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

The program under test is imported from ``src/`` of the same checkout.
With ``--trace 0`` the run repeats the workload's passes for ``--seconds``
seconds and reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it also makes one traced pass (spans installed by wrapping
module attributes) plus the workload's scaling table, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give the environment and every workload metric by name and unit.  Each
run also writes ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``
with the same data and, when traced, the spans.

Workers are fixed at nproc, RANKR_THREADS is unset and the BLAS/OpenMP
thread variables are pinned to 1, so the process runs at most nproc
threads of numerical work.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_environment():
    os.environ.pop("RANKR_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def measure_setup(name, seed, work):
    """Median set-up time over fresh interpreters (import plus inputs)."""
    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = os.path.join(work, f"probe-{i}")
        os.makedirs(probe_dir, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             "--workload", name, "--seed", str(seed), "--work", probe_dir],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise HarnessError(f"set-up probe failed:\n{proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times), len(times)


def environment(rankr, seed, name, workers):
    import numpy
    import scipy

    resolve = getattr(getattr(rankr, "limitset", None), "resolve_workers", None)
    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "rankr": getattr(rankr, "__version__", "unknown"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "workers": workers,
        "resolved_workers": resolve(workers) if resolve else workers,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS + ("RANKR_THREADS",)},
    }


def _summary(values, unit):
    return {"value": statistics.median(values), "unit": unit, "samples": len(values)}


def run_workload(rankr, name, seed, seconds, trace):
    import spec
    import workloads

    workers = nproc()
    work = os.path.join(OUT, f"work-{os.getpid()}-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_s, setup_samples = measure_setup(name, seed, work)
        wl = workloads.WORKLOADS[name]()
        ctx = workloads.Context(rankr, ROOT, work, seed, workers)
        wl.setup(ctx)

        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            gc.collect()
            ctx.timings = {}
            wl.run_pass(ctx)
            row = {"wall_s": sum(ctx.timings.values())}
            row.update(wl.pass_metrics(ctx.timings))
            passes.append(row)
        wl.final_checks(ctx)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        detail = {
            key: _summary([p[key] for p in passes], spec.detail_unit(key))
            for key in passes[0]
        }
        detail["setup_s"] = {"value": setup_s, "unit": "s", "samples": setup_samples}
        detail["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB", "samples": 1}

        traced = None
        if trace:
            traced = trace_pass(rankr, wl, ctx, detail["wall_s"]["value"])

        failed = [(op, problems) for op, problems in ctx.ops if problems]
        detail["ops_failed_frac"] = {
            "value": len(failed) / len(ctx.ops), "unit": "ratio",
            "samples": len(ctx.ops)}
        if trace:
            metrics = traced["metrics"]
        else:
            metrics = {n: {"value": detail[n]["value"], "unit": u}
                       for n, u, _, _ in spec.END_TO_END}
        result = {
            "correct": not failed,
            "attempted": len(ctx.ops),
            "failed": len(failed),
            "metrics": metrics,
        }
        record = {
            "environment": environment(rankr, seed, name, workers),
            "detail": detail,
            "passes": passes,
            "failures": [f"{op}: {'; '.join(p)}" for op, p in failed[:20]],
            "result": result,
        }
        if traced:
            record["missing"] = traced["missing"]
            record["spans"] = traced["spans"]
        path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def trace_pass(rankr, wl, ctx, untraced_wall):
    """One traced pass plus the scaling table; per-layer metrics."""
    import spans
    import spec

    rec = spans.Recorder()
    instrumentation = spans.Instrumentation(rec, rankr)
    instrumentation.install()
    ctx.recorder = rec
    ctx.tracing = True
    try:
        ctx.timings = {}
        wl.run_pass(ctx)
        traced_wall = sum(ctx.timings.values())
        pass_spans = list(rec.spans)
        tally = spans.Tally(spans.aggregate(pass_spans))

        def measure(fn):
            first = len(rec.spans)
            rec.enabled = True
            try:
                fn()
            finally:
                rec.enabled = False
            return spans.Tally(spans.aggregate(rec.spans[first:]))

        extra = wl.scaling(ctx, measure)
    finally:
        ctx.tracing = False
        instrumentation.uninstall()
    extra["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    extra["trace.top_span_coverage"] = spans.top_coverage(pass_spans, traced_wall)
    metrics = {
        name: {"value": float(value(tally, extra)), "unit": unit}
        for name, unit, _, _, value in spec.PER_LAYER
    }
    return {
        "metrics": metrics,
        "missing": instrumentation.missing,
        "spans": [s.as_row() for s in pass_spans],
    }


def print_record(record):
    print(json.dumps({"environment": record["environment"]}, sort_keys=True))
    if record.get("missing"):
        print(json.dumps({"missing_spans": record["missing"]}))
    for failure in record["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"detail": record["detail"]}, sort_keys=True))
    print(json.dumps(record["result"]))


def run_all(names, args):
    """Every workload in its own process (so peak memory is its own); prints
    every workload metric as a table, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise HarnessError(f"{name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        for key, entry in sorted(detail.items()):
            print(f"{name:14s} {key:32s} {entry['value']:14.6g} "
                  f"{entry['unit']:8s} n={entry['samples']}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [n for n, _ in spec.WORKLOADS]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not os.path.isfile(os.path.join(SRC, "rankr", "__init__.py")):
            raise HarnessError(f"no rankr sources under {SRC}")
        problem = spec.check_benchmark_json(ROOT)
        if problem:
            raise HarnessError(problem)
        if args.workload == "all":
            run_all(names, args)
            return 0
        pin_environment()
        sys.path.insert(0, SRC)
        import rankr
        import rankr.cli

        os.makedirs(OUT, exist_ok=True)
        record = run_workload(
            rankr, args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
