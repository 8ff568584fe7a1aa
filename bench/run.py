"""privtsf benchmark: one workload per run, one process per run.

    python3 bench/run.py --workload baseline-train --seed 11 --seconds 15 --trace 0

Run from the repository root. The program is imported from `src/` next to
this directory. A run sets up its workload three times (setup_s is the median
of the three), then repeats whole units of timed work until --seconds have
passed (throughput is the median over units), then checks the last unit's
outputs against reference computations. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 1 the run instead sets up once under tracing, times untraced
units for half the budget, runs one traced unit, runs the checks traced, and
reports the per-layer metrics plus the tracing overhead. Spans and counts go
to bench/out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 3

# Cap BLAS threads at the core count before numpy loads, and record the cap.
BLAS_THREADS = str(os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def import_program() -> None:
    """Import privtsf from this checkout's src/, refusing any other copy."""
    try:
        import privtsf
    except ImportError as exc:
        sys.exit(f"bench: cannot import privtsf from {ROOT / 'src'}: {exc}")
    if Path(privtsf.__file__).resolve().parent != ROOT / "src" / "privtsf":
        sys.exit(f"bench: privtsf imported from {privtsf.__file__}, not from {ROOT / 'src'}")


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def run_checks(checks: dict, log) -> int:
    """Run every check; return how many failed.

    A check that raises anything, not only CheckFailed, counts as failed and
    the remaining checks still run.
    """
    failed = 0
    for name, check in checks.items():
        try:
            check()
        except Exception:
            failed += 1
            log(f"check {name}: FAILED\n{traceback.format_exc()}")
        else:
            log(f"check {name}: ok")
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()

    def log(message: str) -> None:
        print(f"[{args.workload} seed={args.seed}] {message}", flush=True)

    log(f"numpy {np.__version__}, BLAS threads capped at {BLAS_THREADS}, trace={args.trace}")
    OUT.mkdir(exist_ok=True)
    csv_path = str(OUT / f"corpus-{args.workload}-{args.seed}-{os.getpid()}.csv")
    try:
        if args.trace:
            result = traced_run(workload, args, csv_path, log)
        else:
            result = untraced_run(workload, args, csv_path, log)
    finally:
        if os.path.exists(csv_path):
            os.remove(csv_path)
    print(json.dumps(result))
    return 0


def timed_units(workload, state, seconds: float, log):
    """Whole units until `seconds` have passed; returns per-unit (seconds, items) and the last result."""
    units: list[tuple[float, int]] = []
    start = time.perf_counter()
    while True:
        elapsed, (items, result) = timed(workload.unit, state)
        units.append((elapsed, items))
        log(f"unit {len(units)}: {items} items in {elapsed:.3f}s = {items / elapsed:.1f}/s")
        if time.perf_counter() - start >= seconds:
            return units, result


def untraced_run(workload, args, csv_path: str, log) -> dict:
    setups = []
    for i in range(SETUPS):
        elapsed, state = timed(workload.setup, args.seed, csv_path)
        setups.append(elapsed)
        log(f"setup {i + 1}: {elapsed:.3f}s")
    units, result = timed_units(workload, state, args.seconds, log)
    checks = workload.checks(state, result)
    failed = run_checks(checks, log)
    attempted = sum(workload.stage_calls(items) for _, items in units) + len(checks)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": median(setups), "unit": "s"},
            "throughput": {"value": median([items / t for t, items in units]), "unit": "items/s"},
            "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
        },
    }


def traced_run(workload, args, csv_path: str, log) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.phase = "setup"
    _, state = timed(workload.setup, args.seed, csv_path)
    tracer.uninstall()

    untraced, _ = timed_units(workload, state, args.seconds / 2, log)
    tracer.install()
    tracer.phase = "unit"
    traced_seconds, (items, result) = timed(workload.unit, state)
    log(f"traced unit: {items} items in {traced_seconds:.3f}s")
    tracer.phase = "checks"
    checks = workload.checks(state, result)
    failed = run_checks(checks, log)
    tracer.uninstall()

    untraced_median = median([t for t, _ in untraced])
    overhead = 100.0 * (traced_seconds / untraced_median - 1.0)
    layer = tracer.layer_metrics()
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    write_trace(tracer, trace_path, args, untraced, traced_seconds, metrics)
    log(f"tracing overhead {overhead:+.1f}% ({traced_seconds:.3f}s traced vs {untraced_median:.3f}s untraced median)")
    if tracer.missing:
        log(f"not found in the program, so not traced: {', '.join(tracer.missing)}")
    attempted = sum(workload.stage_calls(n) for _, n in untraced) + workload.stage_calls(items) + len(checks)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def write_trace(tracer, path: Path, args, untraced, traced_seconds: float, metrics: dict) -> None:
    own = tracer.self_times()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "blas_threads": BLAS_THREADS,
        "untraced_unit_seconds": [t for t, _ in untraced],
        "traced_unit_seconds": traced_seconds,
        "layer_self_seconds": tracer.layer_self_times(),
        "metrics": metrics,
        "missing": tracer.missing,
        "spans": [
            {
                "name": s.name,
                "phase": s.phase,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "self": own[i],
                **{k: v for k, v in s.info.items() if k != "pairs"},
            }
            for i, s in enumerate(tracer.spans)
        ],
    }
    path.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
