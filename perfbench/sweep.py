"""Run the benchmark over several seeds and summarise the spread of each metric.

Usage, from the repository root::

    python3 perfbench/sweep.py --workloads train,explore --seeds 1-10 \\
        --trace 0 [--seconds S] [--out runs.json] [--baseline perfbench/baseline.json]

Runs are made one after another.  For each workload and metric the summary
gives the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the distance between the quartiles as a share of the median.
``--baseline`` merges the summary into that file: untraced runs give the
end-to-end table, traced runs the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
        }
    return out


def write_baseline(path: Path, by_workload: dict, trace: int, seconds: int) -> None:
    base = json.loads(path.read_text()) if path.exists() else {}
    key = "per_layer" if trace else "end_to_end"
    table = base.setdefault(key, {})
    for workload, runs in by_workload.items():
        table[workload] = {
            "seeds": [r["info"]["seed"] for r in runs],
            "run_seconds": seconds,
            "metrics": summarise(runs),
        }
    if trace:
        sys.path.insert(0, str(ROOT / "src"))
        from tracing import moves

        names = next(iter(by_workload.values()))[0]["metrics"]
        base["per_layer_moves"] = {
            name: [{"metric": m, "workload": w} for m, w in moves(name)] for name in names
        }
    base["environment"] = next(iter(by_workload.values()))[0]["info"]["environment"]
    path.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="train,explore")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--seconds",
        type=int,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run's output here")
    parser.add_argument("--baseline", type=Path, help="merge the summary into this file")
    args = parser.parse_args(argv)

    by_workload = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: correctness check failed")
            runs.append(result)
            print(f"{workload} seed {seed}: {result['attempted']} requests", file=sys.stderr)
        by_workload[workload] = runs
        for name, s in summarise(runs).items():
            print(f"{workload:8s} {name:34s} median {s['median']:14.6g} {s['unit']:8s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(by_workload, indent=1) + "\n")
    if args.baseline:
        write_baseline(args.baseline, by_workload, args.trace, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
