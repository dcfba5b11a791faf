"""Run one benchmark workload against the package in this checkout.

Usage, from the repository root::

    python3 perfbench/run.py --workload {train,explore} --seed N \\
        --seconds S --trace {0,1} [--smoke]

``--smoke`` sets up once instead of several times, for the benchmark's own
test (``python3 -m pytest perfbench``).

The package is imported from ``src/`` of the checkout; nothing is installed.
BLAS and OpenMP are pinned to one thread before numpy loads, and all load
comes from this one process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from a run that alternates untraced and traced requests so
that ``trace.overhead_pct`` compares the two.  The line before it is an
``info`` object with the request count, every request's latency, the
percentile reported as ``req_tail_ms``, the error rate and the machine and
library versions.

The exit code is 0 when every check passed, 1 when a correctness check
failed and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Set-ups per run; ``setup_s`` reports their median plus the import time.
SETUP_REPEATS = 3
#: Tracebacks printed per run; later failures are only counted.
MAX_TRACEBACKS = 3

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "explore"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one set-up instead of several, for the benchmark's own test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "vinerisk" / "__init__.py").is_file():
        print(f"error: no package at {src / 'vinerisk'}; run from a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed with the package it loads for)
    import vinerisk

    import_s = time.perf_counter() - t0
    if Path(vinerisk.__file__).resolve().parent != src / "vinerisk":
        print(f"error: imported vinerisk from {vinerisk.__file__}, not {src}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, import_s, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, import_s: float, workdir: str) -> int:
    import numpy as np
    import vinerisk as vr

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

    setup_times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_problems = wl.served_problems()
    probs = vr.posterior(wl.model, wl.x_test)
    heldout = vr.evaluate_probs(probs, wl.y_test, wl.model.classes)

    tracer = None
    if args.trace:
        from tracing import Tracer, unit

        tracer = Tracer()
    latencies, rows, traced, untraced = [], [], [], []
    attempted = failed = 0
    min_requests = 2 if tracer else 1
    start = time.perf_counter()
    while attempted < min_requests or time.perf_counter() - start < args.seconds:
        call, n_rows = wl.request(attempted)
        use_trace = tracer is not None and attempted % 2 == 1
        t0 = time.perf_counter()
        try:
            result = tracer.request(call) if use_trace else call()
            problems = None
        except Exception:
            result, problems = None, ["exception"]
            if failed < MAX_TRACEBACKS:
                traceback.print_exc()
        dt = time.perf_counter() - t0
        if problems is None:
            problems = wl.check(result)
        if problems:
            failed += 1
            if failed <= MAX_TRACEBACKS:
                print(f"request {attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        attempted += 1
        rows.append(n_rows)
        latencies.append(dt)
        (traced if use_trace else untraced).append(dt)

    lat_ms = np.asarray(latencies) * 1e3
    tail_pct = workloads.TAIL_PERCENTILE[args.workload]
    tail_ms = float(np.percentile(lat_ms, tail_pct))
    if tracer is None:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "req_p50_ms": (float(np.median(lat_ms)), "ms"),
            "req_tail_ms": (tail_ms, "ms"),
            "rows_per_s": (sum(rows) / sum(latencies), "rows/s"),
            "success_rate": (1.0 - failed / attempted, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "heldout_auc": (heldout["auc"], "ratio"),
            "heldout_nll_mean": (heldout["nll_mean"], "nats"),
        }
    else:
        layer = tracer.layer_metrics(wl.model)
        layer["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
        metrics = {name: (value, unit(name)) for name, value in layer.items()}

    correct = failed == 0 and not setup_problems
    for problem in setup_problems:
        print(f"set-up check failed: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "requests": attempted,
        "traced_requests": len(traced),
        "error_rate": failed / attempted,
        "tail_percentile": tail_pct,
        "tail_requests_beyond": int(np.sum(lat_ms > tail_ms)),
        "import_s": import_s,
        "setup_runs_s": setup_times,
        "latencies_ms": [float(f"{v:.4g}") for v in lat_ms],
        "environment": environment(),
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
