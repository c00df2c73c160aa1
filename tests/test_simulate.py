import math

import numpy as np
import pytest
from oracles import scalar_gen_dataset

from coxjm import (
    MeasurementGrid,
    Subject,
    TransitionParams,
    ValidationError,
    last_index,
)
from coxjm.baseline import nelson_aalen
from coxjm.data import Theta
from coxjm.fit import estep_atoms
from coxjm.simulate import (
    SimConfig,
    fullinfo_dataset,
    gen_dataset,
    gen_subject,
    make_grid,
    piecewise_exp_time,
    subject_stream,
)

ALPHA0 = TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25)


def _cfg(**kw):
    base = dict(n=10, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                lambda0=0.3, censor_rate=0.0, seed=0)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValidationError):
        _cfg(n=0)
    with pytest.raises(ValidationError):
        _cfg(tau=1.1, grid_step=0.25)
    with pytest.raises(ValidationError):
        _cfg(lambda0=0.0)
    with pytest.raises(ValidationError):
        _cfg(censor_rate=-1.0)


def test_make_grid():
    grid = make_grid(_cfg())
    assert grid.times[0] == 0.0
    assert grid.times[-1] == pytest.approx(2.75)
    assert len(grid.times) == 12


def test_piecewise_exp_time_inversion():
    rates = [2.0, 0.5]
    # cumulative hazard: 2*t on (0,1], 2 + 0.5*(t-1) on (1,2]
    assert piecewise_exp_time(1.0, rates, 1.0, 2.0) == pytest.approx(0.5)
    assert piecewise_exp_time(2.25, rates, 1.0, 2.0) == pytest.approx(1.5)
    assert piecewise_exp_time(3.0, rates, 1.0, 2.0) == math.inf
    # survival through the first interval: T > t_1 iff e > rate_0 * t_1
    assert piecewise_exp_time(2.0 + 1e-12, rates, 1.0, 2.0) > 1.0
    assert piecewise_exp_time(2.0 - 1e-12, rates, 1.0, 2.0) < 1.0


def test_gen_dataset_deterministic():
    ds1, tr1 = gen_dataset(_cfg(seed=5))
    ds2, tr2 = gen_dataset(_cfg(seed=5))
    assert ds1 == ds2
    assert tr1 == tr2
    ds3, _ = gen_dataset(_cfg(seed=6))
    assert ds3 != ds1


def test_administrative_censoring_only():
    ds, truths = gen_dataset(_cfg(n=200, seed=1))
    for s in ds.subjects:
        if s.delta == 0:
            assert s.x == ds.tau
    # censoring times never depend on the covariate: all equal tau here
    assert {t.censor_time for t in truths} == {3.0}


def test_measurement_counts_and_latent_consistency():
    ds, truths = gen_dataset(_cfg(n=100, seed=2, censor_rate=0.3))
    for s, t in zip(ds.subjects, truths):
        a_x = last_index(s.x, ds.grid)
        assert len(s.measurements) == a_x + 1
        assert all(gt < s.x for gt in ds.grid.times[: a_x + 1])
        assert math.isfinite(t.latent_z)
        if s.delta == 1:
            assert t.event_time == pytest.approx(s.x)
        else:
            assert t.censor_time == pytest.approx(s.x)
            assert t.event_time > s.x or t.event_time == math.inf


def test_event_time_median_exponential():
    # beta0=0, lambda0=1: T ~ Exp(1), median ln 2
    cfg = _cfg(n=20000, seed=3, beta0=0.0, lambda0=1.0, tau=50.0, grid_step=0.5)
    ds, truths = gen_dataset(cfg)
    ts = np.array([t.event_time for t in truths])
    assert np.median(ts) == pytest.approx(math.log(2), abs=0.02)


def test_truncated_mean_oracle():
    # mean of min(T, tau) for T ~ Exp(1) is 1 - e^{-tau}
    tau = 5.0
    cfg = _cfg(n=100000, seed=4, beta0=0.0, lambda0=1.0, tau=tau, grid_step=0.5)
    ds, truths = gen_dataset(cfg)
    xs = np.array([min(t.event_time, tau) for t in truths])
    want = 1.0 - math.exp(-tau)
    ex2 = 2.0 * (1.0 - (tau + 1.0) * math.exp(-tau))
    se = math.sqrt((ex2 - want**2) / len(xs))
    assert abs(xs.mean() - want) <= 3 * se


def test_event_fraction_binomial_oracle():
    cfg = _cfg(n=10000, seed=5, beta0=0.0, lambda0=1.0, tau=3.0)
    ds, _ = gen_dataset(cfg)
    p = 1.0 - math.exp(-3.0)
    frac = ds.n_events / ds.n
    se = math.sqrt(p * (1 - p) / ds.n)
    assert abs(frac - p) <= 3 * se


def test_survival_curve_ks():
    cfg = _cfg(n=10000, seed=6, beta0=0.0, lambda0=1.0, tau=3.0)
    ds, _ = gen_dataset(cfg)
    xs = np.sort([s.x for s in ds.subjects])
    # for t < tau, X <= t iff T <= t; compare the edf against 1 - e^{-t}
    grid = np.linspace(1e-3, 2.999, 500)
    edf = np.searchsorted(xs, grid, side="right") / len(xs)
    ks = np.max(np.abs(edf - (1.0 - np.exp(-grid))))
    assert ks <= 1.36 / math.sqrt(len(xs))


def test_at_risk_at_tau_positive():
    ds, _ = gen_dataset(_cfg(n=500, seed=7, censor_rate=0.2))
    assert sum(1 for s in ds.subjects if s.x >= ds.tau) > 0


def test_censoring_independent_permutation_check():
    # permuting covariate histories across subjects leaves censor times alone:
    # the generator never feeds Z into the censoring draw, and empirically the
    # censor times are uncorrelated with the entry value at desk scale
    cfg = _cfg(n=4000, seed=8, censor_rate=0.5)
    _, truths = gen_dataset(cfg)
    ds, _ = gen_dataset(cfg)
    z0 = np.array([s.measurements[0] for s in ds.subjects])
    c = np.array([t.censor_time for t in truths])
    mask = c < cfg.tau
    r = np.corrcoef(z0[mask], c[mask])[0, 1]
    assert abs(r) < 3.0 / math.sqrt(mask.sum())


def test_gen_subject_stream_reproducible():
    cfg = _cfg()
    s1, t1 = gen_subject(subject_stream(cfg.seed, 3), cfg, subject_id=3)
    s2, t2 = gen_subject(subject_stream(cfg.seed, 3), cfg, subject_id=3)
    assert s1 == s2 and t1 == t2


def test_fullinfo_dataset_appends_latent():
    ds, truths = gen_dataset(_cfg(n=30, seed=9, censor_rate=0.3))
    full = fullinfo_dataset(ds, truths)
    for s, f, t in zip(ds.subjects, full.subjects, truths):
        assert f.measurements == s.measurements + (t.latent_z,)
    # idempotent
    again = fullinfo_dataset(full, truths)
    assert again == full
    # degenerate atoms downstream: each stored value is one atom of weight one
    th = Theta(alpha=ALPHA0, beta=0.5, hazard=nelson_aalen(full))
    atoms = estep_atoms(full, th)
    latent = np.array([t.latent_z for t in truths])
    assert np.array_equal(atoms.nodes, np.repeat(latent[:, None], atoms.nodes.shape[1], axis=1))
    assert np.array_equal(atoms.weights[:, 0], np.ones(full.n)) and not np.any(atoms.weights[:, 1:])


def test_fullinfo_misalignment_error():
    ds, truths = gen_dataset(_cfg(n=5, seed=10))
    with pytest.raises(ValidationError):
        fullinfo_dataset(ds, truths[:-1])
    with pytest.raises(ValidationError):
        fullinfo_dataset(ds, tuple(reversed(truths)))


def test_truncation_bound_applied():
    cfg = _cfg(n=200, seed=11, truncate_at=1.0)
    ds, truths = gen_dataset(cfg)
    for s, t in zip(ds.subjects, truths):
        assert all(abs(z) <= 1.0 for z in s.measurements)
        assert abs(t.latent_z) <= 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("grid_step", [0.25, 0.02])
@pytest.mark.parametrize("censor_rate", [0.0, 0.3])
@pytest.mark.parametrize("truncate_at", [None, 1.2])
def test_gen_dataset_matches_scalar_draws(seed, grid_step, censor_rate, truncate_at):
    # nonzero intercepts, so that a change in how a draw is combined with its mean shows
    cfg = _cfg(n=25, seed=seed, grid_step=grid_step, censor_rate=censor_rate, truncate_at=truncate_at,
               alpha0=TransitionParams(0.3, 1.2, 0.17, 0.7, 0.25))
    got, want = gen_dataset(cfg), scalar_gen_dataset(cfg)
    assert repr(got) == repr(want)
