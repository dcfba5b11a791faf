"""Write ``reference.json``: probe posteriors of the served model.

Run from the repository root, at the commit whose outputs the benchmark
should hold later commits to::

    python3 perfbench/make_reference.py
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    with tempfile.TemporaryDirectory(dir=HERE.parent) as workdir:
        wl = workloads.Workload(0, workdir)
        wl.setup()
        probs = workloads.probe_posterior(wl.model)
    adverse = probs[:, wl.model.class_index(workloads.ADVERSE)]
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump({"probe_adverse_posterior": adverse.tolist()}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
