"""The benchmark's own test: very short runs of every workload.

Run from the repository root::

    python3 -m pytest perfbench

Each workload runs once untraced and once traced in smoke mode; every metric
named in ``BENCHMARK.json`` must be emitted with its unit.  The remaining
tests show that the correctness checks run: they reject broken outputs, a run
whose served model disagrees with the stored reference fails, and a directory
without the package fails without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]


def test_run_fails_when_served_model_disagrees_with_reference(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["probe_adverse_posterior"] = [p + 0.01 for p in ref["probe_adverse_posterior"]]
    ref_path.write_text(json.dumps(ref))
    proc = run_bench(tmp_path, "train", 0)
    assert proc.returncode == 1
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False
    assert "probe posteriors differ" in proc.stderr


def test_run_without_package_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "train", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_posterior_checks_reject_bad_rows():
    good = np.array([[0.25, 0.75], [0.5, 0.5]])
    assert workloads.posterior_problems(good, 2) == []
    assert workloads.posterior_problems(good, 3)
    assert workloads.posterior_problems(good + [[1e-9, 0.0], [0.0, 0.0]], 2)
    assert workloads.posterior_problems(np.array([[1.5, -0.5]]), 1)
    assert workloads.posterior_problems(np.array([[np.nan, 1.0]]), 1)


def test_explore_check_rejects_bad_surface_and_bands(tmp_path):
    wl = workloads.Explore(0, str(tmp_path))
    wl.setup()
    call, _ = wl.request(0)
    curve, mixed, square, bands, rho = call()
    assert wl.check((curve, mixed, square, bands, rho)) == []
    square.probs[0, 0] = 1.5
    cat = bands.categories[0]
    bands.lower[cat], bands.upper[cat] = bands.upper[cat] + 0.1, bands.lower[cat]
    problems = wl.check((curve, mixed, square, bands, rho))
    assert any("surface" in p for p in problems)
    assert any("band" in p for p in problems)
