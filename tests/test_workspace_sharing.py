"""One live workspace per dataset: the fit, its atoms, the variance and the LVCF comparator
share it while a posterior or fit holds it, and it dies with its last holder."""

import copy
import gc
import pickle
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from coxjm import (
    FitConfig,
    Theta,
    TransitionParams,
    ValidationError,
    breslow,
    em_fit,
    estep_atoms,
    observed_loglik,
    partial_lik_fit,
    score_full,
    validate_dataset,
    variance_report,
)
from coxjm import io as cio
from coxjm.simulate import SimConfig, fullinfo_dataset, gen_dataset
from coxjm.workspace import _Workspace, _workspace_of

ALPHA0 = TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25)


def _sim(n=200, seed=0, grid_step=0.25):
    return gen_dataset(SimConfig(n=n, grid_step=grid_step, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                                 lambda0=0.3, censor_rate=0.2, seed=seed))


@pytest.fixture
def builds(monkeypatch):
    """The workspaces built from here on, in order."""
    built = []
    init = _Workspace.__init__

    def recorded(self, dataset):
        init(self, dataset)
        built.append(weakref.ref(self))

    monkeypatch.setattr(_Workspace, "__init__", recorded)
    return built


def test_fit_and_report_pass_builds_one_workspace(builds, monkeypatch):
    ds, truths = _sim()
    fit = em_fit(ds)
    th = fit.theta_hat
    ws = fit.posterior.ws
    assert len(builds) == 1 and builds[0]() is ws
    # the fit's last certificate leaves the observed interval sums at beta-hat, which the
    # atoms at theta-hat read again without a pass over the observed entries
    passes = []
    sums = _Workspace.interval_sums
    monkeypatch.setattr(_Workspace, "interval_sums", lambda self, v, beta: passes.append(beta) or sums(self, v, beta))
    atoms = estep_atoms(ds, th)
    assert atoms.ws is ws and passes == []
    observed_loglik(ds, th)
    score_full(ds, th, (None, 1.0, None))
    variance_report(ds, th, atoms, fit)
    assert partial_lik_fit(ds).converged
    breslow(ds, 0.5)
    assert len(builds) == 1
    # the full-information form is another dataset, with one workspace of its own
    full = fullinfo_dataset(ds, truths)
    fit_full = em_fit(full)
    partial_lik_fit(full, "next")
    breslow(full, 0.5, "next")
    assert len(builds) == 2 and fit_full.posterior.ws is not ws


def test_workspace_dies_with_its_last_holder(builds):
    ds, _ = _sim()
    gc.disable()  # freed by reference counts alone: no cycle holds the workspace
    try:
        fit = em_fit(ds)
        atoms = estep_atoms(ds, fit.theta_hat)
        report = variance_report(ds, fit.theta_hat, atoms, fit)
        lvcf = partial_lik_fit(ds)
        assert len(builds) == 1 and ds._workspace() is fit.posterior.ws
        del fit, atoms
        assert builds[0]() is None and ds._workspace() is None
        # the results kept hold no workspace; the next call builds a new one
        assert report["var_beta_full"] is not None and lvcf.converged
        again = estep_atoms(ds, Theta(alpha=ALPHA0, beta=lvcf.beta_pl, hazard=lvcf.breslow))
        assert len(builds) == 2 and builds[1]() is again.ws
        del again
        assert builds[1]() is None
    finally:
        gc.enable()


def test_equal_dataset_from_json_keeps_the_posterior(tmp_path, builds):
    ds, _ = _sim(n=60)
    fit = em_fit(ds)
    cio.save_dataset_json(ds, tmp_path / "d.json")
    same = cio.load_dataset_json(tmp_path / "d.json")
    # the posterior of an equal but distinct dataset is accepted, on its own workspace
    assert _workspace_of(same, fit.posterior) is fit.posterior.ws
    assert repr(variance_report(same, fit.theta_hat, fit.posterior, fit)) == \
        repr(variance_report(ds, fit.theta_hat, fit.posterior, fit))
    assert len(builds) == 1
    # a call that builds reads the reloaded dataset's own live workspace
    assert estep_atoms(same, fit.theta_hat).ws is not fit.posterior.ws
    assert len(builds) == 2


def test_copies_get_their_own_workspace(builds):
    ds, _ = _sim(n=60)
    held = _Workspace.of(ds)
    assert _Workspace.of(ds) is held and len(builds) == 1
    for twin in (replace(ds), copy.copy(ds), copy.deepcopy(ds), pickle.loads(pickle.dumps(ds))):
        assert twin == ds and not hasattr(twin, "_workspace")
        assert _Workspace.of(twin).dataset is twin
    assert len(builds) == 5 and _Workspace.of(ds) is held
    # ties: the dataset has no workspace, its jittered copy one of its own
    # (two events in one grid interval, so both keep their measurement counts)
    ev = np.flatnonzero(ds.delta)
    i, j = next((i, j) for i in ev for j in ev if i < j and ds.a_x[i] == ds.a_x[j])
    x = ds.x.copy()
    x[j] = x[i]
    tied = replace(ds, x=x)
    with pytest.raises(ValidationError, match="tied uncensored event times"):
        _Workspace.of(tied)
    jittered = validate_dataset(tied, jitter_ties=True)
    assert jittered is not tied and _Workspace.of(jittered).dataset is jittered
    assert getattr(tied, "_workspace", None) is None


def test_threads_fitting_one_dataset_reproduce_sequential_fits():
    # fits on one workspace from two threads at once: each asks the shared per-beta cache
    # of observed interval sums for its own betas, and must never read another beta's sums
    ds, _ = _sim(n=200, seed=1)
    configs = [FitConfig(), FitConfig(Q=12), FitConfig(), FitConfig(Q=12)]

    def outcome(fit):
        return repr((fit.theta_hat, fit.loglik_trace, fit.iterations, fit.newton_steps,
                     fit.quadrature, fit.warnings))

    want = [outcome(em_fit(ds, config=cfg)) for cfg in configs]
    held = _Workspace.of(ds)
    got = [None] * len(configs)
    start = threading.Barrier(2)

    def work(rows):
        start.wait()
        for i in rows:
            got[i] = outcome(em_fit(ds, config=configs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so the fits interleave finely
    try:
        threads = [threading.Thread(target=work, args=(rows,)) for rows in ((0, 1), (2, 3))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert ds._workspace() is held
