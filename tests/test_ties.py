"""Tied event times by Breslow's convention (Breslow 1974, Biometrics 30:89): one hazard jump
per event, the events tied at one time sharing its risk set, so no tie needs breaking."""

from dataclasses import replace

import numpy as np
import pytest
from oracles import breslow_partial_lik_beta

from coxjm import MeasurementGrid, TransitionParams, em_fit, estep_atoms, partial_lik_fit, variance_report
from coxjm import io as cio
from coxjm.simulate import SimConfig, fullinfo_dataset, gen_dataset

ALPHA0 = TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25)


def _sim(seed):
    return gen_dataset(SimConfig(n=200, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                                 lambda0=0.3, censor_rate=0.2, seed=seed))


def _rounded_up(ds, per: int, scale: float = 1.0):
    """ds with its times scaled by `scale` and each follow-up time rounded up to a multiple of
    1 / per, which every scaled grid time is, so no subject changes interval; an event rounded
    up to tau moves one unit below it, since tau censors."""
    x = np.ceil(ds.x * (scale * per)) / per
    tau = scale * ds.tau
    x[(ds.delta == 1) & (x >= tau)] = tau - 1 / per
    return replace(ds, grid=MeasurementGrid(tuple(scale * t for t in ds.grid.times)), tau=tau, x=x)


def _tie_groups(ds) -> int:
    return int(np.sum(np.unique(ds.x[ds.delta == 1], return_counts=True)[1] > 1))


@pytest.mark.parametrize("seed", range(6))
def test_tied_fits_converge_and_match_breslow(seed):
    # times rounded up to 0.01 form 11 to 23 tie groups among about 100 events
    ds, truths = _sim(seed)
    tied = _rounded_up(ds, 100)
    assert _tie_groups(tied) >= 10
    fit = em_fit(tied)
    assert fit.converged and not fit.warnings
    assert variance_report(tied, fit.theta_hat, fit.posterior, fit)["var_beta_full"] > 0
    # with every terminal value stored, the NPML beta-hat maximizes the partial likelihood
    # (Johansen 1983), which for ties is Breslow's; measured within 5.5e-15
    full = fullinfo_dataset(tied, truths)
    beta = em_fit(full).theta_hat.beta
    assert beta == pytest.approx(partial_lik_fit(full, "next").beta_pl, rel=0, abs=1e-13)
    assert beta == pytest.approx(breslow_partial_lik_beta(full), rel=0, abs=1e-13)


@pytest.mark.parametrize("seed", [0, 3])
def test_duplicating_every_subject(seed):
    # under new ids every event time becomes a tie of two: the risk sets double, so each jump
    # halves, while alpha-hat, beta-hat and the per-subject variances stay (measured within
    # 5.6e-16 in the parameters and 2.3e-14 relative in the variances)
    ds, _ = _sim(seed)
    doc = cio.dataset_to_dict(ds)
    doc["subjects"] += [{**s, "id": s["id"] + ds.n} for s in doc["subjects"]]
    twice = cio.dataset_from_dict(doc)
    fits = em_fit(ds), em_fit(twice)
    one, two = (f.theta_hat for f in fits)
    rep_one, rep_two = (variance_report(d, f.theta_hat, f.posterior, f) for d, f in zip((ds, twice), fits))
    assert two.beta == pytest.approx(one.beta, rel=0, abs=1e-14)
    np.testing.assert_allclose(two.alpha.as_array(), one.alpha.as_array(), rtol=0, atol=1e-14)
    assert two.hazard.times == tuple(np.repeat(one.hazard.times, 2))
    np.testing.assert_allclose(np.reshape(two.hazard.jumps, (-1, 2)), np.outer(one.hazard.jumps, [0.5, 0.5]),
                               rtol=1e-14, atol=0)
    assert rep_two["var_beta_full"] == pytest.approx(rep_one["var_beta_full"], rel=1e-12)
    np.testing.assert_allclose(rep_two["var_alpha"], rep_one["var_alpha"], rtol=1e-12, atol=0)
    np.testing.assert_allclose(rep_two["lambda_band"], rep_one["lambda_band"], rtol=1e-12, atol=0)


def test_whole_day_fit_round_trip(tmp_path):
    # times in whole days on a 91-day grid: what the package writes loads back, and the
    # loaded fit's atoms and variance report are the fit's own, bit for bit
    ds, _ = _sim(2)
    days = _rounded_up(ds, 1, scale=364.0)
    assert _tie_groups(days) >= 10
    cio.save_dataset_json(days, tmp_path / "dataset.json")
    fitted = cio.load_dataset_json(tmp_path / "dataset.json")
    fit = em_fit(fitted)
    assert fit.converged and not np.any(fit.active)
    cio.save_fit_json(fit, tmp_path / "fit.json")
    theta = cio.theta_from_fit_dict(cio.load_json(tmp_path / "fit.json"))
    assert theta == fit.theta_hat
    loaded = cio.load_dataset_json(tmp_path / "dataset.json")  # a workspace of its own
    assert variance_report(loaded, theta, estep_atoms(loaded, theta), None) == \
        variance_report(fitted, fit.theta_hat, fit.posterior, fit)
    # the cumulative hazard at a tied time counts every jump there
    times, jumps = np.array(theta.hazard.times), np.array(theta.hazard.jumps)
    t = times[np.argmax(np.diff(times) == 0)]
    below = theta.hazard.evaluate(np.nextafter(t, 0))
    assert theta.hazard.evaluate(t) - below == pytest.approx(np.sum(jumps[times == t]), rel=1e-12)
    assert below == pytest.approx(np.sum(jumps[times < t]), rel=1e-14)
