"""The package loads none of ``scipy.stats``, ``scipy.integrate``,
``scipy.optimize`` and ``scipy.linalg``, on import or in use.

Each check runs in a fresh interpreter, because other test modules import
``scipy.stats`` themselves.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

FORBIDDEN = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.linalg")

REPORT = f"""
import sys
FORBIDDEN = {FORBIDDEN!r}
print(sorted(m for m in sys.modules if m.startswith(FORBIDDEN)))
"""

# one call to each function whose body used scipy.stats, scipy.integrate or
# scipy.optimize; the two-variable fit computes no latent correlation, so
# the polyserial and polychoric estimates are called directly
SESSION = """
import numpy as np
import vinerisk as vr
from vinerisk.bicop import Bicop, tau_to_param
from vinerisk.latent import polychoric_rho, polyserial_rho

ds = vr.simulate_dgp(vr.DgpConfig(variant="mixed", n_train=60, n_test=20, seed=1))
model = vr.fit_classifier(ds, vr.FitConfig(families=("indep", "gaussian", "frank", "clayton")))
probs = vr.posterior(model, ds.x)
vr.evaluate_probs(probs, ds.labels, model.classes)
x1, x2 = ds.x[:, 0], ds.x[:, 1]
levels = ds.schema.variables[1].levels
base = vr.BaseProfile({"x1": float(x1[0]), "x2": int(x2[0])})
vr.risk_surface(
    model, base, vr.GridSpec.linspace("x1", -2.0, 2.0, 5), vr.GridSpec.level_list("x2", range(1, levels + 1))
)
y = x1 + np.random.default_rng(0).normal(size=x1.size)
vr.conditional_spearman(x1, y, x2)
vr.bootstrap_bands(x1, y, x2, replicates=100, seed=0)
vr.latent_normal_scores(x1, x2, levels)
Bicop("studentt", 0, (0.5, 4.0)).cdf(0.3, 0.6)
tau_to_param("frank", 0.4)
tau_to_param("joe", 0.4)
polyserial_rho(x1, x2, levels)
polychoric_rho(x2, levels, np.minimum(x2, 3), levels)
"""


def _loaded(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code + REPORT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["vinerisk", "vinerisk.cli"])
def test_import_loads_no_scipy_stats_or_integrate(module):
    assert _loaded(f"import {module}\n") == "[]"


def test_a_session_through_every_former_call_site_loads_neither():
    assert _loaded(textwrap.dedent(SESSION)) == "[]"
