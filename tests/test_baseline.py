import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import Subject, dataset_of, lvcf_value, stack_atoms, subjects_of

from coxjm import (
    DegenerateRiskSetError,
    MeasurementGrid,
    TransitionParams,
    ValidationError,
    breslow,
    nelson_aalen,
    partial_lik_fit,
)
from coxjm.fit import lambda_update
from coxjm.simulate import SimConfig, fullinfo_dataset, gen_dataset

GRID = MeasurementGrid((0.0, 1.0, 2.0))
GRID0 = MeasurementGrid((0.0,))
ALPHA0 = TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25)


def test_lvcf_examples():
    s = Subject(id=1, x=2.5, delta=1, measurements=(0.1, 0.2, 0.3))
    assert lvcf_value(s, 0.0, GRID) == 0.1
    assert lvcf_value(s, 2.5, GRID) == 0.3      # terminal window carries forward
    assert lvcf_value(s, 1.0 + 1e-9, GRID) == 0.2
    assert lvcf_value(s, 0.5, GRID) == 0.1


def test_partial_lik_flat_likelihood():
    subs = tuple(Subject(id=i, x=x, delta=d, measurements=(1.0,))
                 for i, (x, d) in enumerate([(0.5, 1), (1.2, 1), (2.0, 0)]))
    ds = dataset_of(GRID0, subs, 3.0)
    fit = partial_lik_fit(ds)
    assert fit.beta_pl == 0.0
    assert "flat-likelihood" in fit.flags


def test_partial_lik_shift_invariance():
    cfg = SimConfig(n=30, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=0.8,
                    lambda0=0.3, censor_rate=0.2, seed=21)
    ds, _ = gen_dataset(cfg)
    fit = partial_lik_fit(ds)
    shifted = replace(ds, values=ds.values + 5.0)
    fit2 = partial_lik_fit(shifted)
    assert fit2.beta_pl == pytest.approx(fit.beta_pl, abs=1e-10)


def test_partial_lik_matches_brute_force():
    subs = (Subject(id=1, x=0.4, delta=1, measurements=(0.5,)),
            Subject(id=2, x=0.9, delta=1, measurements=(-0.3,)),
            Subject(id=3, x=1.6, delta=1, measurements=(1.1,)),
            Subject(id=4, x=3.0, delta=0, measurements=(0.2,)))
    ds = dataset_of(GRID0, subs, 3.0)
    fit = partial_lik_fit(ds)

    def lpl(beta):
        out = 0.0
        for ev in subs:
            if ev.delta == 0:
                continue
            num = beta * lvcf_value(ev, ev.x, GRID0)
            den = sum(math.exp(beta * lvcf_value(s, ev.x, GRID0))
                      for s in subs if s.x >= ev.x)
            out += num - math.log(den)
        return out

    # coarse grid then golden-section refinement
    grid = np.linspace(-5, 5, 2001)
    vals = [lpl(b) for b in grid]
    lo, hi = grid[int(np.argmax(vals)) - 1], grid[int(np.argmax(vals)) + 1]
    phi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(200):
        if lpl(c) > lpl(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    best = 0.5 * (a + b)
    assert fit.beta_pl == pytest.approx(best, abs=1e-6)
    assert fit.converged
    assert fit.information >= 0


def test_breslow_nelson_aalen_reduction():
    subs = (Subject(id=1, x=0.5, delta=1, measurements=(0.3,)),
            Subject(id=2, x=1.4, delta=1, measurements=(-0.1,)))
    ds = dataset_of(GRID0, subs, 3.0)
    hz = breslow(ds, 0.0)
    assert hz.jumps == (0.5, 1.0)
    cfg = SimConfig(n=25, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                    lambda0=0.3, censor_rate=0.2, seed=22)
    ds2, _ = gen_dataset(cfg)
    assert np.allclose(breslow(ds2, 0.0).jumps, nelson_aalen(ds2).jumps, rtol=0, atol=0)


def test_breslow_matches_lambda_update_with_degenerate_atoms():
    # single-point grid: every risked time is in the latent window, so atoms
    # pinned at the LVCF value reproduce the Breslow risk sums exactly
    cfg = SimConfig(n=20, grid_step=3.0, tau=3.0, alpha0=ALPHA0, beta0=0.7,
                    lambda0=0.4, censor_rate=0.0, seed=23)
    ds, _ = gen_dataset(cfg)
    assert len(ds.grid.times) == 1
    beta = 0.7
    atoms = stack_atoms(ds, np.array([[lvcf_value(s, s.x, ds.grid)] for s in subjects_of(ds)]),
                        np.ones((ds.n, 1)))
    hz_em = lambda_update(ds, atoms, beta)
    hz_bl = breslow(ds, beta)
    assert np.allclose(hz_em.jumps, hz_bl.jumps, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_partial_lik_fit_hazard_is_breslow_at_its_beta(seed):
    # the fit's jumps come from the risk-set sums of its last Newton step, not from a pass of their own
    cfg = SimConfig(n=200, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                    lambda0=0.3, censor_rate=0.2, seed=seed)
    ds, truths = gen_dataset(cfg)
    full = fullinfo_dataset(ds, truths)
    for data, imputation in ((ds, "lvcf"), (full, "lvcf"), (full, "next")):
        fit = partial_lik_fit(data, imputation=imputation)
        assert fit.converged and fit.iterations > 1
        assert fit.breslow == breslow(data, fit.beta_pl, imputation=imputation)


def test_partial_lik_boundary_flag():
    # perfectly separated covariate: higher value always fails first
    subs = (Subject(id=1, x=0.3, delta=1, measurements=(3.0,)),
            Subject(id=2, x=0.8, delta=1, measurements=(2.0,)),
            Subject(id=3, x=1.5, delta=1, measurements=(1.0,)),
            Subject(id=4, x=2.5, delta=0, measurements=(0.0,)))
    ds = dataset_of(GRID0, subs, 3.0)
    fit = partial_lik_fit(ds, beta_box=5.0)
    assert not fit.converged
    assert "boundary" in fit.flags
    assert abs(fit.beta_pl) == pytest.approx(5.0)


def test_partial_lik_degenerate_risk_set_names_event_time():
    # the first Newton step jumps to beta = 10, where the last event's risk set
    # (its own subject, at z = -100) sums to e^{-1000} = 0 in floating point
    grid = MeasurementGrid((0.0, 1.0))
    subs = (Subject(id="a", x=0.5, delta=1, measurements=(0.001,)),
            *(Subject(id=f"c{j}", x=1.2, delta=0, measurements=(0.0, 0.0)) for j in range(4)),
            Subject(id="b", x=1.5, delta=1, measurements=(0.0, -100.0)))
    ds = dataset_of(grid, subs, 3.0)
    with pytest.raises(DegenerateRiskSetError) as exc:
        partial_lik_fit(ds)
    assert exc.value.time == 1.5
    with pytest.raises(DegenerateRiskSetError) as exc:
        breslow(ds, 10.0)
    assert exc.value.time == 1.5


@pytest.mark.parametrize("box", [math.nan, math.inf, -1.0])
def test_partial_lik_fit_refuses_a_bad_beta_box(box):
    # refused as FitConfig refuses it; unchecked, nan failed at the first event time as a
    # degenerate risk set and -1 returned beta 0
    ds, _ = gen_dataset(SimConfig(n=200, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                                  lambda0=0.3, censor_rate=0.2, seed=0))
    with pytest.raises(ValidationError, match="beta_box"):
        partial_lik_fit(ds, beta_box=box)


def test_imputation_must_be_lvcf_or_next():
    ds = dataset_of(GRID0, [Subject(id=1, x=0.5, delta=1, measurements=(0.3,))], 3.0)
    with pytest.raises(ValidationError, match="^imputation must be 'lvcf' or 'next', got 'locf'"):
        partial_lik_fit(ds, imputation="locf")
    with pytest.raises(ValidationError, match="^imputation must be"):
        breslow(ds, 0.0, imputation=None)


@pytest.mark.slow
def test_partial_lik_fit_converges_at_large_n():
    # K ~ 32,800 events: the score's rounding floor (~2e-12) lies above an absolute 1e-12
    cfg = SimConfig(n=64000, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                    lambda0=0.3, censor_rate=0.2, seed=1)
    ds, _ = gen_dataset(cfg)
    fit = partial_lik_fit(ds)
    assert fit.converged and fit.iterations < 10 and not fit.flags
    assert fit.score * fit.score <= 1e-24 * fit.information


@pytest.mark.slow
def test_partial_lik_fit_converges_on_a_fine_grid_at_large_n():
    # |loglik| ~ 76,500 on the 0.02 grid, where one ulp is 1.5e-11: the step-halving guard
    # is relative, as an absolute 1e-12 refused converged steps for 60 halvings each
    cfg = SimConfig(n=16000, grid_step=0.02, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                    lambda0=0.3, censor_rate=0.2, seed=1)
    ds, _ = gen_dataset(cfg)
    fit = partial_lik_fit(ds)
    assert fit.converged and fit.iterations <= 5 and not fit.flags
