"""Import footprint: what importing and running coxjm loads of scipy, and that importing
it does not load numpy.random (the simulator loads it at its first call).

Each check runs in a fresh interpreter, since the test process itself has
imported scipy.  scipy.linalg is loaded only when an information operator is
first factorised: at the fit's first Newton step, or else at the first
variance call; nothing loads scipy.special.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import coxjm

SRC = str(Path(coxjm.__file__).resolve().parent.parent)

SCRIPT = """
import json, os, sys

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = {}
import coxjm, coxjm.cli, coxjm.io, coxjm.study
stages["import"] = loaded()
stages["numpy.random at import"] = "numpy.random" in sys.modules
from coxjm import SimConfig, TransitionParams, em_fit, gen_dataset, partial_lik_fit, variance_report
cfg = SimConfig(n=60, grid_step=0.25, tau=3.0, alpha0=TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25),
                beta0=1.0, lambda0=0.3, censor_rate=0.2, seed=3)
ds, _ = gen_dataset(cfg)
path = os.path.join(sys.argv[1], "dataset.json")
coxjm.io.save_dataset_json(ds, path)
ds = coxjm.io.load_dataset_json(path)
partial_lik_fit(ds)
stages["simulate, JSON round trip, lvcf"] = loaded()
fit = em_fit(ds)
variance_report(ds, fit.theta_hat, fit.posterior, fit)
stages["npml and variance"] = loaded()
print(json.dumps(stages))
"""


def _stages(tmp_path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_scipy_is_loaded_only_by_the_variance(tmp_path):
    stages = _stages(tmp_path)
    assert stages["import"] == [] and not stages["numpy.random at import"]
    assert stages["simulate, JSON round trip, lvcf"] == []
    late = stages["npml and variance"]
    assert "scipy.linalg" in late
    assert not [m for m in late if m == "scipy.special" or m.startswith("scipy.special.")]
