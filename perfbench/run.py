"""labrr benchmark: one seeded workload, timed in a closed loop, outputs checked.

Run from the root of the checkout to measure:

    python3 perfbench/run.py --workload noisy-small-support --seed 1 --seconds 30 --trace 0

The workload's inputs come from ``--seed`` alone.  Calls run back to back
(a closed loop, one process) until ``--seconds`` have passed, and at least
until every distinct training trial has run once and the first one twice.
With ``--trace 0`` the calls run
the unmodified library and the end-to-end metrics are reported; with
``--trace 1`` untraced and traced calls on the same inputs alternate, and
the per-layer metrics plus the tracing overhead are reported.

Times are host-adjusted (see ``hostspeed.py``): each timed operation is
scaled by how fast a fixed reference computation ran just before and after
it, so that runs made minutes apart on a shared host stay comparable.

The second-to-last line of standard output is the full record (provenance,
raw and adjusted timing medians with quartiles and sample counts, per-call
stop reasons and support sizes, gate failures); the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.  Both records and the
trace spans also go to ``.perfbench_out/`` under the repository root.
Exit codes: 0 when every gate passed, 1 when a gate failed, 2 when labrr
cannot be imported from ``src/``.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads, fixed before numpy loads so runs are comparable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import json
import platform
import resource
import statistics
import tempfile
import time
import traceback
from pathlib import Path

#: The checkout under test is the working directory, so one copy of this
#: script can measure another checkout's ``src/`` (see ``compare.py``).
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("noisy-small-support", "grow-large-support", "cli-predict-bulk")
SETUP_REPEATS = 3

#: End-to-end metrics with their units, reported by every workload.
E2E_METRICS = {
    "setup_s": "s",
    "call_s": "s",
    "work_per_s": "1/s",
    "test_rmse": "y_norm",
    "n_support": "count",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="input size; 'tiny' is for the smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def import_labrr():
    """Import labrr from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "labrr" / "__init__.py").is_file():
        raise ImportError(f"no labrr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import labrr

    if Path(labrr.__file__).resolve().parent != (SRC / "labrr").resolve():
        raise ImportError(f"labrr was imported from {labrr.__file__}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count of a list of timings."""
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def closed_loop(wl, tracer, timer, seconds: float) -> tuple[list[dict], int]:
    """Call the workload back to back until ``seconds`` pass.

    Returns one record per call, with its wall and host-adjusted seconds,
    and the work the successful untraced calls completed.
    """
    pair = 2 if tracer else 1  # traced runs alternate untraced/traced calls on one input
    min_calls = pair if tracer else wl.min_calls
    records: list[dict] = []
    work = 0
    started = time.perf_counter()
    while len(records) < min_calls or time.perf_counter() - started < seconds:
        i = len(records)
        traced = tracer is not None and i % 2 == 1
        k = i // pair
        fn = wl.entry()
        wall = adjusted = None
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                if traced:
                    tracer.trial = k
                    fn = tracer.wrap(wl.root_span, fn)
                output, wall, adjusted = timer.time(wl.call, k, fn)
            failures, call_work, record = wl.check(k, output)
        except Exception as exc:  # a failing call is counted and the loop goes on
            traceback.print_exc()
            failures, call_work, record = [f"call {i}: {type(exc).__name__}: {exc}"], 0, {"call": k}
        records.append(dict(record, traced=traced, wall_s=wall, call_s=adjusted, failures=failures))
        if not failures and not traced:
            work += call_work
    return records, work


def run(args, workdir: Path) -> tuple[dict, dict]:
    import hostspeed
    import tracing
    import workloads

    wl = workloads.make(args.workload, args.size, args.seed, workdir)
    timer = hostspeed.AdjustedTimer(wl.spec.reference)
    setups = [timer.time(wl.setup)[1:] for _ in range(SETUP_REPEATS)]

    tracer = tracing.Tracer(args.workload) if args.trace else None
    records, work = closed_loop(wl, tracer, timer, args.seconds)

    def times(key, traced):
        return [r[key] for r in records if r["traced"] == traced and not r["failures"]]

    failures = [f for r in records for f in r["failures"]]
    attempted = len(records)
    failed_calls = sum(1 for r in records if r["failures"])
    try:
        summary_failures, quality = wl.summary()
    except Exception as exc:  # no successful call left anything to summarize
        summary_failures, quality = [f"summary: {type(exc).__name__}: {exc}"], {}
    if summary_failures:
        failed_calls = attempted  # a workload-level gate covers every call
        failures += summary_failures
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        calls = times("call_s", False)
        values = {
            "setup_s": statistics.median(adjusted for _, adjusted in setups),
            "call_s": statistics.median(calls) if calls else 0.0,
            "work_per_s": work / sum(calls) if calls else 0.0,
            "test_rmse": quality.get("test_rmse", 0.0),
            "n_support": quality.get("n_support", 0.0),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed_calls) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS.items()}
    else:
        traced, untraced = times("call_s", True), times("call_s", False)
        overhead = statistics.median(traced) / statistics.median(untraced) if traced and untraced else 0.0
        traced_wall = times("wall_s", True)
        metrics = tracing.layer_metrics(
            tracer.spans,
            max(sum(1 for r in records if r["traced"]), 1),
            statistics.mean(traced_wall) if traced_wall else 0.0,
            overhead,
        )
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    full = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "setup_wall_s": spread([wall for wall, _ in setups]),
        "setup_s": spread([adjusted for _, adjusted in setups]),
        "wall_s": spread(times("wall_s", False)),
        "call_s": spread(times("call_s", False)),
        "traced_wall_s": spread(times("wall_s", True)),
        "traced_call_s": spread(times("call_s", True)),
        "reference_s": spread(timer.reference_s),
        "nominal_reference_s": timer.nominal_s,
        "work_unit": wl.work_unit,
        "work": work,
        "quality": quality,
        "peak_rss_mb": peak_rss_mb,
        "calls": records,
        "failures": failures,
    }
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_calls,
        "metrics": metrics,
    }
    return full, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_labrr()
    except ImportError as exc:
        print(f"perfbench: cannot import labrr: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        full, summary = run(args, Path(tmp))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(dict(full, summary=summary), indent=1) + "\n", encoding="utf-8")
    for failure in full["failures"]:
        print(f"perfbench: gate failed: {failure}", file=sys.stderr)
    print(json.dumps(full))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
