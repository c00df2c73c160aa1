import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    Subject,
    cond_latent_params,
    covariate_at,
    dataset_of,
    exponent_split,
    log_joint_density,
    nelson_aalen_start,
    stack_atoms,
    subjects_of,
)

from coxjm import (
    AlphaBox,
    FitConfig,
    InsufficientDataError,
    MeasurementGrid,
    ModeSearchError,
    SieveHazard,
    Theta,
    TransitionParams,
    ValidationError,
    em_fit,
    estep_atoms,
    lambda_update,
    nelson_aalen,
    observed_loglik,
    score_full,
    variance_report,
)
from coxjm.fit import _bounds, _init_theta
from coxjm.simulate import SimConfig, fullinfo_dataset, gen_dataset
from coxjm.transition import FLOOR_MESSAGE, VAR_FLOOR
from coxjm.workspace import _risk_cols, _workspace_of, _Workspace

GRID0 = MeasurementGrid((0.0,))
STD = TransitionParams(0.0, 1.0, 0.0, 0.0, 1.0)
ALPHA0 = TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25)
HIGH_MISSING = TransitionParams(0.0, 1.0, 0.0, 0.3, 1.0)  # b = 0.3, ssq = 1: a noisy latent value


def _points(ds, zs):
    """One atom per subject, at zs[i] with weight one."""
    return stack_atoms(ds, np.asarray(zs, dtype=float)[:, None], np.ones((ds.n, 1)))


def _score_beta(ds, atoms, beta, hazard):
    """The beta score at frozen atoms: score_full along the probe (0, 1, 0)."""
    return score_full(ds, Theta(alpha=STD, beta=beta, hazard=hazard), (None, 1.0, None), atoms=atoms)


def _wn(ds, atoms, beta):
    """W_n(x_k) = (1/n) sum_i E[e^{beta Z(x_k)} 1{x_k <= X_i} | y_i] at the K event times."""
    return _risk_cols(_workspace_of(ds, atoms), atoms, beta)[:, 0] / ds.n


def _sim(n=40, seed=0, censor_rate=0.2, beta0=1.0, grid_step=0.25, alpha0=ALPHA0):
    cfg = SimConfig(n=n, grid_step=grid_step, tau=3.0, alpha0=alpha0, beta0=beta0,
                    lambda0=0.3, censor_rate=censor_rate, seed=seed)
    return gen_dataset(cfg)


def test_wn_at_risk_fraction_at_beta_zero():
    ds, _ = _sim(30, seed=1)
    atoms = _points(ds, [0.0] * ds.n)
    for t, wn in zip(ds.event_times()[:5], _wn(ds, atoms, 0.0)):
        frac = np.sum(ds.x >= t) / ds.n
        assert wn == pytest.approx(frac, abs=1e-12)


def test_wn_single_subject():
    ds = dataset_of(GRID0, (Subject(id=1, x=0.8, delta=1, measurements=(0.4,)),), 3.0)
    atoms = _points(ds, [1.1])
    assert _wn(ds, atoms, 0.7)[0] == pytest.approx(math.exp(0.7 * 1.1), abs=1e-12)


def test_wn_fully_observed_classical_risk_sum():
    ds, truths = _sim(25, seed=2)
    full = fullinfo_dataset(ds, truths)
    atoms = estep_atoms(full, _theta_for(full, beta=0.8))
    for t, wn in zip(full.event_times()[:5], _wn(full, atoms, 0.8)):
        want = np.mean([
            math.exp(0.8 * covariate_at(s, t, full.grid)) if s.x >= t else 0.0
            for s in subjects_of(full)
        ])
        assert wn == pytest.approx(want, rel=1e-12)


def _theta_for(ds, beta=0.0, alpha=ALPHA0):
    hz = nelson_aalen(ds)
    return Theta(alpha=alpha, beta=beta, hazard=hz)


def test_lambda_update_nelson_aalen_cases():
    g = GRID0
    subs = (Subject(id=1, x=0.5, delta=1, measurements=(0.0,)),
            Subject(id=2, x=1.0, delta=1, measurements=(0.0,)))
    ds = dataset_of(g, subs, 3.0)
    atoms = _points(ds, [0.0] * 2)
    hz = lambda_update(ds, atoms, 0.0)
    assert hz.jumps == (0.5, 1.0)

    one = dataset_of(g, (Subject(id=1, x=0.8, delta=1, measurements=(0.0,)),), 3.0)
    hz1 = lambda_update(one, _points(one, [1.3]), 0.9)
    assert hz1.jumps[0] == pytest.approx(1.0 / math.exp(0.9 * 1.3), rel=1e-14)


def test_lambda_update_fixed_point_identity():
    ds, _ = _sim(5, seed=3, censor_rate=0.0)
    rng = np.random.default_rng(0)
    atoms = _points(ds, [rng.normal() for _ in range(ds.n)])
    beta = 0.6
    hz = lambda_update(ds, atoms, beta)
    for dl, wn in zip(hz.jumps, _wn(ds, atoms, beta)):
        assert dl * wn == pytest.approx(1.0 / ds.n, abs=1e-12)


def test_score_beta_one_subject_degenerate():
    ds = dataset_of(GRID0, (Subject(id=1, x=0.8, delta=1, measurements=(0.0,)),), 3.0)
    atoms = _points(ds, [1.7])
    for beta in (-0.5, 0.0, 0.8, 2.0):
        hz = lambda_update(ds, atoms, beta)
        assert _score_beta(ds, atoms, beta, hz) == pytest.approx(0.0, abs=1e-12)


def test_score_beta_constant_covariate():
    c = 0.9
    subs = tuple(Subject(id=i, x=x, delta=d, measurements=(c,))
                 for i, (x, d) in enumerate([(0.4, 1), (0.9, 1), (1.4, 0), (2.0, 1)]))
    ds = dataset_of(GRID0, subs, 3.0)
    atoms = _points(ds, [c] * 4)
    beta = 0.3
    hz = SieveHazard((0.4, 0.9, 2.0), (0.2, 0.3, 0.4))
    got = _score_beta(ds, atoms, beta, hz)
    want = np.mean([s.delta * c - c * math.exp(beta * c) * hz.evaluate(s.x) for s in subs])
    assert got == pytest.approx(want, rel=1e-12)


def test_score_beta_matches_fd_of_em_objective():
    # finite difference of the atom-frozen objective in beta
    ds, _ = _sim(20, seed=4)
    th = _theta_for(ds, beta=0.4)
    atoms = estep_atoms(ds, th)
    hz = th.hazard

    def q_beta(b):
        # beta-dependent part of the EM objective at frozen atoms
        ws = atoms.ws
        total = float(np.asarray(hz.jumps) @ _risk_cols(ws, atoms, b)[:, 0])
        return (b * float(np.sum(ws.delta * atoms.E1)) - total) / ws.n

    h = 1e-6
    for b in (0.0, 0.4, 1.0):
        fd = (q_beta(b + h) - q_beta(b - h)) / (2 * h)
        assert _score_beta(ds, atoms, b, hz) == pytest.approx(fd, abs=1e-6)


def test_observed_loglik_censored_marginal():
    subj = Subject(id=1, x=0.4, delta=0, measurements=(0.0,))
    other = Subject(id=2, x=0.9, delta=1, measurements=(0.5,))
    ds = dataset_of(GRID0, (subj, other), 3.0)
    th = Theta(alpha=STD, beta=0.0, hazard=SieveHazard((0.9,), (0.5,)))
    ll = observed_loglik(ds, th)
    # at beta=0 each subject contributes ln dL^delta - Lambda(x) + ln marginal
    want_1 = -0.9189385 - th.hazard.evaluate(0.4)
    want_2 = math.log(0.5) - th.hazard.evaluate(0.9) + (-0.5 * math.log(2 * math.pi) - 0.125)
    assert ll == pytest.approx(want_1 + want_2, abs=1e-6)


def test_observed_loglik_beta_zero_reduction():
    ds, _ = _sim(12, seed=6)
    th = _theta_for(ds, beta=0.0)

    want = 0.0
    jumps = dict(zip(th.hazard.times, th.hazard.jumps))
    for s in subjects_of(ds):
        want += s.delta * math.log(jumps[s.x]) if s.delta else 0.0
        want += -th.hazard.evaluate(s.x)
        want += log_joint_density(list(s.measurements), th.alpha)
    assert observed_loglik(ds, th) == pytest.approx(want, abs=1e-9)


def test_observed_loglik_matches_trapezoid_oracle():
    ds, _ = _sim(10, seed=7)
    th = _theta_for(ds, beta=0.8)
    # brute-force per-subject likelihood: trapezoid over the latent value
    total = 0.0
    jumps = dict(zip(th.hazard.times, th.hazard.jumps))
    for s in subjects_of(ds):
        sp = exponent_split(s, th.hazard, th.beta, ds.grid)
        # window from the posterior mode finder, integration independent
        from coxjm.posterior import _batch_modes

        mean, var = cond_latent_params(s.measurements, th.alpha)
        mode, sd = _batch_modes(np.array([float(s.delta)]), np.array([sp.a_lat]),
                                np.array([mean]), var, th.beta)
        zs = np.linspace(mode[0] - 14 * sd[0], mode[0] + 14 * sd[0], 40001)
        integrand = np.exp(s.delta * th.beta * zs - sp.a_lat * np.exp(np.minimum(th.beta * zs, 700))
                           - (zs - mean) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)
        li = np.trapezoid(integrand, zs)
        total += (math.log(jumps[s.x]) if s.delta else 0.0) - sp.a_obs
        total += log_joint_density(list(s.measurements), th.alpha) + math.log(li)
    assert observed_loglik(ds, th) == pytest.approx(total, abs=1e-6)


def test_em_fit_ascent_and_certificates():
    ds, _ = _sim(40, seed=8)
    fit = em_fit(ds)
    assert fit.converged
    tr = np.array(fit.loglik_trace)
    assert np.all(np.diff(tr) >= -1e-8)
    assert fit.score_norm <= 1e-6
    th = fit.theta_hat
    atoms = estep_atoms(ds, th)
    for dl, wn in zip(th.hazard.jumps, _wn(ds, atoms, th.beta)):
        assert dl * wn == pytest.approx(1.0 / ds.n, abs=1e-10)
    assert all(math.isfinite(j) for j in th.hazard.jumps)


def test_em_fit_beta_frozen_gives_nelson_aalen():
    ds, _ = _sim(30, seed=9)
    fit = em_fit(ds, config=FitConfig(beta_box=0.0))
    assert fit.theta_hat.beta == 0.0
    na = nelson_aalen(ds)
    assert np.allclose(fit.theta_hat.hazard.jumps, na.jumps, rtol=0, atol=1e-12)


def test_em_fit_fullinfo_matches_partial_likelihood():
    ds, truths = _sim(50, seed=10)
    full = fullinfo_dataset(ds, truths)
    fit = em_fit(full, config=FitConfig(tol_param=1e-11, tol_score=1e-10, id_tol=1e-13))
    from coxjm.baseline import partial_lik_fit

    pl = partial_lik_fit(full, imputation="next")
    assert fit.theta_hat.beta == pytest.approx(pl.beta_pl, abs=1e-6)
    dl = np.abs(np.cumsum(fit.theta_hat.hazard.jumps) - np.cumsum(pl.breslow.jumps))
    assert dl.max() <= 1e-8


@pytest.mark.parametrize("field, value", [
    ("Q", 20.5), ("max_iter", 2.5), ("Q", 1), ("max_iter", 0),
    ("beta_box", -1.0), ("tol_param", math.nan), ("tol_score", math.inf), ("id_tol", math.nan),
    ("beta_box", math.nan), ("var_floor", 1e-9), ("var_floor", math.nan),
    ("alpha_box", {"mu0": [-1.0, math.nan]}), ("alpha_box", {"b": [1.0, -1.0]}), ("var_floor", 200.0),
])
def test_fit_config_refuses_values_it_cannot_honour(field, value):
    # the fit would run on them: a NaN beta_box pins beta at 0, a NaN tol_param runs every
    # map, a fractional Q fails inside the rule, a var_floor above the variances' upper
    # bounds (100) puts alpha outside its box
    with pytest.raises(ValidationError, match=f"^{field}"):
        FitConfig.from_dict({field: value})


def test_fit_config_refuses_an_alpha_box_that_is_not_a_mapping():
    with pytest.raises(ValidationError, match="^malformed fit config"):
        FitConfig.from_dict({"alpha_box": [-1.0, 1.0]})


def test_em_fit_requires_events():
    subs = (Subject(id=1, x=3.0, delta=0, measurements=(0.0,)),)
    ds = dataset_of(GRID0, subs, 3.0)
    with pytest.raises(InsufficientDataError):
        em_fit(ds)


def test_em_fit_initial_hazard_support_checked():
    ds, _ = _sim(10, seed=11)
    bad = Theta(alpha=ALPHA0, beta=0.0, hazard=SieveHazard((0.123,), (1.0,)))
    with pytest.raises(ValidationError):
        em_fit(ds, init=bad)


def _time_scaled(ds, c):
    """`ds` with the grid, tau and the follow-up times multiplied by c."""
    return replace(ds, grid=MeasurementGrid(tuple(c * t for t in ds.grid.times)), tau=c * ds.tau, x=c * ds.x)


@pytest.mark.parametrize("c", [1.0, 1e-12, 1e6])
def test_hazard_support_check_does_not_depend_on_the_unit_of_time(c):
    # a hazard that jumps at 1.2 times the event times is refused in every unit of time,
    # and one at the event times accepted; an absolute tolerance of 1e-12 on the times
    # accepted the first with time in units of 1e-12
    ds = _time_scaled(_sim(200, seed=0)[0], c)
    times = np.asarray(ds.event_times())
    with pytest.raises(ValidationError, match="exactly at the dataset event times"):
        observed_loglik(ds, Theta(ALPHA0, 1.0, SieveHazard(tuple(1.2 * times), (0.01,) * times.size)))
    assert math.isfinite(observed_loglik(ds, Theta(ALPHA0, 1.0, SieveHazard(tuple(times), (0.01,) * times.size))))


@pytest.mark.parametrize("seed, alpha0", [(0, ALPHA0), (3, HIGH_MISSING)], ids=["0", "3-b0.3-ssq1"])
def test_em_fit_equivariant_under_time_rescaling(seed, alpha0):
    # the likelihood reads time only through the order of the event and grid times, so
    # time x c leaves the updates, beta, the jumps, the log likelihood and var_beta_full
    # bit-equal (measured for c = 3.7, 0.01, 100, 1e-9, 1e-12 and 1e6), and scales the
    # hazard's times
    ds, _ = _sim(200, seed=seed, alpha0=alpha0)

    def summary(data):
        fit = em_fit(data)
        rep = variance_report(data, fit.theta_hat, fit.posterior, fit)
        th = fit.theta_hat
        return (fit.iterations, fit.converged, th.beta, th.hazard.jumps, fit.loglik, rep["var_beta_full"]), th

    want, th = summary(ds)
    for c in (3.7, 1e-9, 1e6):
        got, th_c = summary(_time_scaled(ds, c))
        assert got == want, c
        assert np.array_equal(th_c.hazard.times, c * np.asarray(th.hazard.times))


@pytest.mark.parametrize("c, d, held", [(1.0, 15.0, "mu0 = 10"),
                                        (200.0, 500.0, "mu0 = 10, s0sq = 100, a = 10, ssq = 100")])
def test_em_fit_names_the_components_held_at_a_bound(c, d, held):
    # covariate units outside the default alpha box (Z + 15; 200 Z + 500, CD4-like): the fit
    # ends with components held at their bounds, which its warning names with the bound
    ds, _ = _sim(200, seed=0)
    fit = em_fit(replace(ds, values=c * ds.values + d))
    assert fit.warnings == [f"held at a bound of the feasible set: {held}"]


def test_em_fit_identifiability_warning():
    subs = (Subject(id=1, x=0.5, delta=1, measurements=(0.1,)),
            Subject(id=2, x=0.9, delta=1, measurements=(0.4,)),
            Subject(id=3, x=3.0, delta=0, measurements=(-0.2,)))
    ds = dataset_of(GRID0, subs, 3.0)
    fit = em_fit(ds, config=FitConfig(max_iter=50))
    assert any("identifiability" in w for w in fit.warnings)


def test_score_full_probe_decomposition():
    ds, _ = _sim(20, seed=12)
    fit = em_fit(ds)
    th = fit.theta_hat
    K = len(th.hazard.times)
    # h = (0, 1, 0) at fresh atoms recovers the beta score at frozen atoms
    atoms = estep_atoms(ds, th)
    s2 = _score_beta(ds, atoms, th.beta, th.hazard)
    got = score_full(ds, th, (np.zeros(5), 1.0, np.zeros(K)))
    assert got == pytest.approx(s2, abs=1e-9)
    # h3 = 1 at the Nelson-Aalen/beta=0 fixed point gives zero
    th0 = _theta_for(ds, beta=0.0)
    val = score_full(ds, th0, (np.zeros(5), 0.0, np.ones(len(th0.hazard.times))))
    assert val == pytest.approx(0.0, abs=1e-12)
    # at convergence every canonical probe is below tolerance
    for j in range(5):
        e = np.zeros(5)
        e[j] = 1.0
        assert abs(score_full(ds, th, (e, 0.0, np.zeros(K)))) <= 1e-6
    for k in range(K):
        e3 = np.zeros(K)
        e3[k] = 1.0
        assert abs(score_full(ds, th, (np.zeros(5), 0.0, e3))) <= 1e-6


def test_score_full_none_part_is_zero_and_wrong_length_refused():
    ds, _ = _sim(20, seed=12)
    fit = em_fit(ds)
    th, atoms = fit.theta_hat, fit.posterior
    K = len(th.hazard.times)
    zeros = (np.zeros(5), 0.0, np.zeros(K))
    for probe in [(None, None, np.ones(K)), (None, 1.0, None)] + [(e, 0.0, None) for e in np.eye(5)]:
        full = tuple(z if p is None else p for p, z in zip(probe, zeros))
        got = score_full(ds, th, probe, atoms=atoms)
        assert math.isfinite(got) and got == score_full(ds, th, full, atoms=atoms)
    for probe, name in [((np.ones(4), 0.0, None), "h1"), ((None, [1.0, 2.0], None), "h2"),
                        ((None, 0.0, np.ones(K + 1)), "h3")]:
        with pytest.raises(ValidationError, match=f"^probe {name} has"):
            score_full(ds, th, probe, atoms=atoms)


@pytest.mark.parametrize("Q", [20.5, "a", 1, None])
def test_single_shot_calls_refuse_a_bad_quadrature_order(Q):
    ds, _ = _sim(20, seed=12)
    th = _theta_for(ds, beta=0.5)
    for call in (lambda: estep_atoms(ds, th, Q), lambda: observed_loglik(ds, th, Q),
                 lambda: score_full(ds, th, (None, 1.0, None), Q)):
        with pytest.raises(ValidationError, match="quadrature order must be an integer >= 2"):
            call()
    assert observed_loglik(ds, th, np.int64(8)) == observed_loglik(ds, th, 8)


def test_em_fit_performance_smoke():
    import time

    ds, _ = _sim(100, seed=99)
    t0 = time.perf_counter()
    fit = em_fit(ds)
    elapsed = time.perf_counter() - t0
    assert fit.converged
    assert elapsed < 10.0
    # boundedness embodiment: the hazard-mass bound holds on simulated fits
    assert not any("boundedness" in w or "exceeds" in w for w in fit.warnings)


def test_em_ascent_randomized_small_fits():
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = int(rng.integers(8, 25))
        ds, _ = _sim(n, seed=1000 + trial, censor_rate=float(rng.uniform(0, 0.4)),
                     beta0=float(rng.uniform(-1, 1.5)))
        fit = em_fit(ds, config=FitConfig(max_iter=200))
        tr = np.array(fit.loglik_trace)
        assert np.all(np.diff(tr) >= -1e-8), f"trial {trial}"


def _shifted(ds, c):
    """`ds` with c added to every covariate measurement."""
    return replace(ds, values=ds.values + c)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), c=st.floats(-2.0, 2.0))
def test_em_fit_covariate_shift_invariance(seed, c):
    # z -> z + c is a reparametrization: beta, b and the variances stay, mu0 and a
    # shift, and the hazard absorbs e^{beta c}.  The Newton steps follow it, but the stopping
    # rule does not (the jumps it compares scale by e^{-beta c}), so the two fits stop
    # at different points near the maximizer; both run to tight tolerances.
    ds, _ = _sim(100, seed=seed)
    cfg = FitConfig(tol_param=1e-10, tol_score=1e-10, max_iter=2000)
    fit, fit_c = em_fit(ds, config=cfg), em_fit(_shifted(ds, c), config=cfg)
    assert fit.converged and fit_c.converged
    al, th_c = fit.theta_hat.alpha, fit_c.theta_hat
    want = TransitionParams(al.mu0 + c, al.s0sq, al.a + c * (1 - al.b), al.b, al.ssq)
    lo, hi = FitConfig().alpha_box.bounds().T
    assert np.all(want.as_array() >= lo) and np.all(want.as_array() <= hi)
    np.testing.assert_allclose(th_c.alpha.as_array(), want.as_array(), rtol=1e-6, atol=1e-9)
    assert th_c.beta == pytest.approx(fit.theta_hat.beta, rel=1e-6)
    np.testing.assert_allclose(th_c.hazard.jumps, np.array(fit.theta_hat.hazard.jumps)
                               * math.exp(-fit.theta_hat.beta * c), rtol=1e-6)


UNIT_FITS = {"seed0": (0, ALPHA0), "seed3-b0.3-ssq1": (3, HIGH_MISSING)}


@pytest.fixture(scope="module")
def unit_fit():
    cache = {}

    def get(name):
        if name not in cache:
            seed, alpha0 = UNIT_FITS[name]
            ds = _sim(200, seed=seed, alpha0=alpha0)[0]
            cache[name] = ds, em_fit(ds)
        return cache[name]

    return get


def _near(got, *terms):
    """got equals the sum of `terms` to 1e-11 of their summed magnitudes."""
    return abs(got - sum(terms)) <= 1e-11 * sum(abs(t) for t in terms)


@pytest.mark.parametrize("name", UNIT_FITS)
@settings(max_examples=24, deadline=None, derandomize=True)
@given(c=st.one_of(st.floats(0.5, 3.0), st.floats(-3.0, -0.5)), d=st.floats(-5.0, 5.0))
def test_em_fit_equivariant_under_covariate_units(unit_fit, name, c, d):
    # Z -> cZ + d with the default config: the fit maps beta -> beta / c, alpha -> (c mu0 + d,
    # c^2 s0sq, c a + d (1 - b), b, c^2 ssq), the jumps by e^{-beta d / c}, and the log
    # likelihood by -N log|c| (N the stored measurements, each a density in Z's units);
    # measured over these 48 draws to 4.2e-14 of the terms' magnitudes, every fit converged
    ds, fit = unit_fit(name)
    got = em_fit(replace(ds, values=c * ds.values + d))
    assert got.converged and not got.warnings
    th, al, new = fit.theta_hat, fit.theta_hat.alpha, got.theta_hat.alpha
    assert _near(got.theta_hat.beta, th.beta / c)
    assert _near(new.mu0, c * al.mu0, d) and _near(new.s0sq, c * c * al.s0sq)
    assert _near(new.a, c * al.a, d * (1 - al.b)) and _near(new.b, al.b) and _near(new.ssq, c * c * al.ssq)
    want = np.asarray(th.hazard.jumps) * math.exp(-th.beta * d / c)
    assert np.all(np.abs(np.asarray(got.theta_hat.hazard.jumps) - want) <= 1e-11 * want)
    assert _near(got.loglik, fit.loglik, -ds.values.size * math.log(abs(c)))


@pytest.mark.parametrize("seed", [0, 5])
def test_em_fit_iterations_do_not_depend_on_covariate_centring(seed):
    # the profiled beta step uses the risk-set-centred curvature, so moving the covariate
    # away from 0 does not slow EM down; a Newton step with the uncentred curvature at a
    # fixed hazard does (about 5x the maps at seed 0, c = 2)
    ds, _ = _sim(100, seed=seed)
    base = em_fit(ds).iterations
    for c in (-2.0, 2.0):
        assert em_fit(_shifted(ds, c)).iterations <= 1.5 * base + 2, c


@pytest.mark.parametrize("case", ["beta-box-0", "flat"])
def test_em_fit_starts_at_nelson_aalen_without_an_lvcf_step(case):
    # beta_box = 0 clips the LVCF Newton step to 0, and with every value 0.5 the LVCF
    # partial likelihood is flat (partial_lik_fit flags it): the start is beta = 0 with the
    # Nelson-Aalen jumps
    from coxjm.baseline import partial_lik_fit

    ds, _ = _sim(200, seed=0)
    cfg = FitConfig(beta_box=0.0) if case == "beta-box-0" else FitConfig()
    if case == "flat":
        ds = replace(ds, values=np.full_like(ds.values, 0.5))
        assert partial_lik_fit(ds).flags == ("flat-likelihood",)
    _, beta, dL = _init_theta(_Workspace.of(ds), None, _bounds(cfg), [])
    assert beta == 0.0 and np.array_equal(dL, nelson_aalen(ds).jumps)


@pytest.mark.parametrize("seed", range(8))
def test_em_fit_default_start_matches_the_nelson_aalen_start(seed):
    # the LVCF Newton step starts the fit closer to the maximizer: the same beta-hat within
    # 1e-10 (measured 1e-14), in no more updates (measured one fewer, two at seed 5)
    ds, _ = _sim(200, seed=seed)
    fit, old = em_fit(ds), em_fit(ds, init=nelson_aalen_start(ds))
    assert fit.converged and old.converged
    assert abs(fit.theta_hat.beta - old.theta_hat.beta) <= 1e-10
    assert fit.iterations <= old.iterations


@pytest.mark.parametrize("failure, reason", [
    ("mode-search", "a trial E-step fails"), ("non-finite-loglik", "a trial E-step fails"),
    ("singular-operator", "the operator is not positive definite")],
    ids=["mode-search", "non-finite-loglik", "singular-operator"])
def test_em_fit_survives_failed_newton_steps(monkeypatch, failure, reason):
    # every Newton step fails, in its trial E-step or in the factorisation, at every damping:
    # the fit tries each mu of the ladder once, then stops at its start (whatever that is),
    # unconverged, with a warning that names the update and the last reason
    from coxjm import fit as fit_mod
    from coxjm.variance import DiscretizedOperator

    failed = []
    if failure == "singular-operator":
        monkeypatch.setattr(DiscretizedOperator, "_factors", property(lambda op: failed.append(True)))
    else:
        estep = fit_mod._estep
        error = (ModeSearchError(7) if failure == "mode-search"
                 else ValidationError("non-finite log likelihood (subject 7)"))

        def marked(*args):
            if sys._getframe(1).f_code.co_name == "_step":
                failed.append(True)
                raise error
            return estep(*args)

        monkeypatch.setattr(fit_mod, "_estep", marked)
    ds, _ = _sim(100, seed=0)
    fit = em_fit(ds)
    assert len(failed) == len(fit_mod.DAMPING)
    assert fit.converged is False and fit.iterations == fit.newton_steps == 0
    alpha, beta, dL = _init_theta(_Workspace.of(ds), None, _bounds(FitConfig()), [])
    start = Theta(alpha, beta, SieveHazard(fit.theta_hat.hazard.times, dL))
    assert len(fit.loglik_trace) == 1 and fit.theta_hat == start
    assert fit.warnings == [f"stopped at update 1: no damped Newton step ascends ({reason})"]


@pytest.mark.parametrize("seed, alpha0", [(seed, ALPHA0) for seed in range(8)] + [
    (seed, HIGH_MISSING) for seed in range(4)], ids=[*map(str, range(8)), *(f"{s}-b0.3-ssq1" for s in range(4))])
def test_em_fit_newton_from_the_start(seed, alpha0):
    # the first update is a Newton step from the start, whose certificate the fit computes
    # before the loop, and no step needs damping (4-5 updates with alpha0, 5-7
    # with b = 0.3, ssq = 1), as simulated and in full-information form; there the fit stops
    # within 1e-14 in beta of a tight fit, where two EM maps stopped up to 2.1e-8 short
    ds, truths = _sim(200, seed=seed, alpha0=alpha0)
    full = fullinfo_dataset(ds, truths)
    fits = em_fit(ds), em_fit(full)
    for fit in fits:
        assert fit.converged and fit.iterations == fit.newton_steps
        assert np.all(np.diff(fit.loglik_trace) >= -1e-13 * (1 + np.abs(fit.loglik_trace[1:])))
    tight = em_fit(full, config=FitConfig(tol_param=1e-11, tol_score=1e-11))
    assert abs(fits[1].theta_hat.beta - tight.theta_hat.beta) <= 1e-10


def test_em_fit_stopped_by_max_iter_states_a_bool(monkeypatch):
    # `converged` is a Python bool, which json writes, when max_iter stops the fit after a
    # Newton step (whose beta was a NumPy scalar, so that `converged` could be numpy.bool_)
    # and when no step is found
    from coxjm import fit as fit_mod

    ds, _ = _sim(200, seed=7)
    fit = em_fit(ds, config=FitConfig(max_iter=4))
    assert fit.converged is False and fit.newton_steps == 4
    monkeypatch.setattr(fit_mod, "_newton", lambda *args: "refused")
    fit = em_fit(ds, config=FitConfig(max_iter=4))
    assert fit.converged is False and fit.iterations == 0


def test_em_fit_reproducible_with_the_heap_shifted():
    # the Newton steps' LAPACK and BLAS calls give the same bits wherever their arrays sit
    # (b = 0.3, ssq = 1, n = 200, seed 3: seven Newton steps, one of them halved)
    ds, _ = _sim(200, seed=3, alpha0=HIGH_MISSING)
    keep, outs = [], set()
    for r in range(10):
        keep += [bytearray(int(s)) for s in np.random.default_rng(r).integers(1, 3000, 50)]
        fit = em_fit(ds)
        outs.add(repr((fit.theta_hat, fit.loglik_trace, fit.iterations, fit.newton_steps)))
    assert len(outs) == 1 and fit.newton_steps > 0


@pytest.mark.parametrize("seed, alpha0, bound", [(seed, ALPHA0, 1e-12) for seed in range(5)] + [
    (3, HIGH_MISSING, 1e-9)], ids=[*map(str, range(5)), "3-b0.3-ssq1"])
def test_em_fit_matches_tight_fit(seed, alpha0, bound):
    # the Newton steps stop within `bound` in beta of a fit run far past the tolerances with a
    # finer rule: measured at most 2.7e-14 with alpha0, and 3.5e-10 with b = 0.3, ssq = 1,
    # where the gap is the change of the maximizer from Q = 20 to Q = 80 (it is 3e-15 against
    # a tight fit with Q = 20)
    ds, _ = _sim(200, seed=seed, alpha0=alpha0)
    fit = em_fit(ds)
    tight = em_fit(ds, config=FitConfig(Q=80, tol_param=1e-11, tol_score=1e-11))
    assert fit.converged and tight.converged
    assert abs(fit.theta_hat.beta - tight.theta_hat.beta) <= bound


def test_em_fit_tight_tolerances_converge_on_long_histories():
    # about 75 observed transitions per subject put the alpha objective near -5e4, where its
    # rounding (~1e-11) exceeds any absolute ascent margin small enough to be one: an M-step
    # guard with such a margin rejects the exact closed-form update and the map stands still
    ds, _ = _sim(1000, seed=1, grid_step=0.02)
    fit = em_fit(ds, config=FitConfig(tol_param=1e-11, tol_score=1e-11, max_iter=100))
    assert fit.converged


@pytest.mark.parametrize("box", [AlphaBox(b=(0.7, 0.7)), AlphaBox(mu0=(0.5, 0.5))], ids=["b", "mu0"])
def test_em_fit_converges_with_a_pinned_transition_parameter(box):
    # with one component pinned, the Newton steps hold it and move the others (5 steps on
    # this dataset, where EM maps alone took 30 and 31), so the other scores vanish and the
    # certificate holds
    ds, _ = _sim(200, seed=0)
    fit = em_fit(ds, config=FitConfig(alpha_box=box))
    assert fit.converged and fit.newton_steps >= 1 and fit.iterations <= 10
    lo, hi = box.bounds().T
    assert np.array_equal(fit.theta_hat.alpha.as_array()[lo == hi], lo[lo == hi])
    tr = np.asarray(fit.loglik_trace)
    assert np.all(np.diff(tr) >= -4 * np.spacing(np.abs(tr[1:])))


def test_em_fit_clamps_a_warm_start_to_the_variance_floor():
    # a given init enters the box with its variances floored, as every update's alpha is:
    # from the default fit (ssq 0.245) a fit with var_floor 0.5 starts at ssq = 0.5 and
    # ascends from there, where an init below the floor would make the first update descend
    ds, _ = _sim(200, seed=0)
    init = em_fit(ds).theta_hat
    fit = em_fit(ds, init=init, config=FitConfig(var_floor=0.5, max_iter=20))
    assert init.alpha.ssq < 0.5 and fit.theta_hat.alpha.ssq == 0.5
    assert fit.loglik_trace[0] == observed_loglik(ds, replace(init, alpha=replace(init.alpha, ssq=0.5)))
    tr = np.asarray(fit.loglik_trace)
    assert np.all(np.diff(tr) >= -4 * np.spacing(np.abs(tr[1:])))


@pytest.mark.parametrize("config, warm, j, bound, ll_em", [
    (FitConfig(alpha_box=AlphaBox(a=(0.05, 1.0))), False, 2, 0.05, -1667.6348785574946),
    (FitConfig(var_floor=0.5), True, 4, 0.5, -1754.7249675928304),
], ids=["a-lower-bound", "var-floor-warm-start"])
def test_em_fit_certifies_an_active_bound(config, warm, j, bound, ll_em):
    # an alpha component at a bound whose score points out of the box is active (the KKT
    # condition): the certificate drops its score and the Newton steps hold it, so the fit
    # converges (5 and 8 updates).  A certificate asking that score to vanish ran 500 maps
    # unconverged, ending at log likelihood ll_em
    ds, _ = _sim(200, seed=0)
    fit = em_fit(ds, init=em_fit(ds).theta_hat if warm else None, config=config)
    th = fit.theta_hat
    assert fit.converged and fit.newton_steps >= 1 and th.alpha.as_array()[j] == bound
    assert score_full(ds, th, (np.eye(5)[j], 0.0, None)) < 0  # it points below the lower bound
    assert fit.loglik >= ll_em
    tr = np.asarray(fit.loglik_trace)
    assert np.all(np.diff(tr) >= -4 * np.spacing(np.abs(tr[1:])))


def test_em_fit_ending_at_the_beta_box_is_not_converged():
    # beta on its box with its score pointing out is held like an alpha bound, so the loop
    # stops once the certificate holds (4 updates); a fit that ends on the box stays
    # unconverged, with its warning
    ds, _ = _sim(200, seed=0)
    fit = em_fit(ds, config=FitConfig(beta_box=0.5, max_iter=50))
    assert not fit.converged and fit.theta_hat.beta == 0.5 and fit.iterations < 10
    assert fit.score_norm <= FitConfig().tol_score
    assert "beta at the box boundary" in fit.warnings


def _exact_transitions():
    """The n = 200 seed 0 layout with every value 0.1 j + 0.01 (i mod 7): every observed
    transition is exact, so the residual variance's MLE is 0."""
    ds, _ = _sim(200, seed=0)
    i = np.repeat(np.arange(ds.n), np.diff(ds.offsets))
    return replace(ds, values=0.1 * (np.arange(ds.values.size) - ds.offsets[i]) + 0.01 * (i % 7))


def test_em_fit_reports_a_floored_start_once(monkeypatch):
    # values 0.1 j + 0.01 (i mod 7) make every observed transition exact: the start's residual
    # variance is raised to its lower bound, which the fit's warnings state once, as the
    # end of the fit does for a variance held there, with no RuntimeWarning (an error under
    # this suite's filterwarnings).  One update, a Newton step that holds ssq at its bound,
    # or none when every step is refused
    from coxjm import fit as fit_mod

    flat = _exact_transitions()
    for newton_steps in (1, 0):
        fit = em_fit(flat, config=FitConfig(max_iter=1))
        assert fit.newton_steps == newton_steps
        assert fit.warnings.count(FLOOR_MESSAGE) == 1 and fit.theta_hat.alpha.ssq == VAR_FLOOR
        monkeypatch.setattr(fit_mod, "_newton", lambda *args: "refused")


def test_em_fit_converges_with_exact_transitions():
    # with ssq held at its floor 1e-8 the transition objective divides sums of squares of size
    # ~400 that cancel to rounding (2.8e-14) by 2e-8.  From the Nelson-Aalen start two of the
    # Newton steps need damping (mu = 1e-4), and the fit converges in 8 updates at log
    # likelihood 9469.5202405236.  The default start takes 4 undamped ones to the same
    # maximizer (beta within 3.3e-14), whose log likelihood there differs only by that
    # rounding over 2e-8 (measured 7.1e-7)
    flat = _exact_transitions()
    fit, default = em_fit(flat, init=nelson_aalen_start(flat)), em_fit(flat)
    for f in (fit, default):
        assert f.converged and f.theta_hat.alpha.ssq == VAR_FLOOR
        assert f.warnings == [FLOOR_MESSAGE]
        tr = np.asarray(f.loglik_trace)
        assert np.all(np.diff(tr) >= -1e-13 * (1 + np.abs(tr[1:])))
    assert 0 < fit.newton_steps < fit.iterations <= 10
    assert abs(fit.loglik - 9469.5202405236) <= 1e-9
    assert default.newton_steps == default.iterations <= 5
    assert abs(default.theta_hat.beta - fit.theta_hat.beta) <= 1e-12
    assert abs(default.loglik - 9469.5202405236) <= 2.8e-14 / 2e-8


def test_em_fit_holds_beta_at_the_box_on_a_monotone_likelihood():
    # a monotone likelihood (Bryson & Johnson 1981): the profile likelihood in beta rises all
    # the way to the box, so the MLE does not exist.  Each full Newton step leaves the beta
    # box; the projected step clips beta onto it, where its score points out and it is held,
    # so the certificate holds in 7 updates (2 damped), and the fit ends unconverged with
    # beta on the box
    cfg = SimConfig(n=60, grid_step=0.05, tau=3.0, alpha0=TransitionParams(1.0, 0.5, 0.5, 0.95, 0.05),
                    beta0=0.0, lambda0=0.3, censor_rate=0.0, seed=0, truncate_at=1.2)
    ds, _ = gen_dataset(cfg)
    fit = em_fit(ds)
    assert fit.converged is False and fit.iterations < 50 and fit.newton_steps < fit.iterations
    assert fit.theta_hat.beta == FitConfig().beta_box and fit.score_norm <= FitConfig().tol_score
    assert fit.warnings == ["beta at the box boundary"]
    assert abs(fit.loglik - 1635.3635373013874) <= 1e-9
    trace = np.array(fit.loglik_trace)
    assert np.all(np.diff(trace) >= -1e-13 * (1 + np.abs(trace[1:])))


def test_quadrature_check_matches_public_calls():
    # the check compares the fit's E-step with a 2Q one at theta-hat, which estep_atoms,
    # observed_loglik and score_full compute from scratch (the modes do not depend on Q)
    ds, _ = _sim(200, seed=3, alpha0=HIGH_MISSING)
    fit = em_fit(ds, config=FitConfig(Q=8))
    th, quad = fit.theta_hat, fit.quadrature
    assert quad.order == 16
    coarse, fine = estep_atoms(ds, th, 8), estep_atoms(ds, th, 16)
    assert quad.log_norm == float(np.max(np.abs(fine.log_norm - coarse.log_norm))) > 0
    assert quad.loglik == observed_loglik(ds, th, 16) - observed_loglik(ds, th, 8) != 0
    beta_score = [score_full(ds, th, (None, 1.0, None), Q) for Q in (8, 16)]
    assert quad.score_beta == beta_score[1] - beta_score[0] != 0


def test_quadrature_check_moves_no_fitted_number(monkeypatch):
    from coxjm import fit as fit_mod

    ds, _ = _sim(200, seed=3, alpha0=HIGH_MISSING)
    fit = em_fit(ds)
    unchecked = fit_mod.QuadratureCheck(0, 0.0, 0.0, 0.0)
    monkeypatch.setattr(fit_mod, "_quadrature_check", lambda *args: unchecked)
    bare = em_fit(ds)
    assert bare.quadrature is unchecked and fit.quadrature.order == 2 * FitConfig().Q
    assert (repr(bare.theta_hat), bare.loglik_trace, bare.iterations, bare.score_norm, bare.warnings) == (
        repr(fit.theta_hat), fit.loglik_trace, fit.iterations, fit.score_norm, fit.warnings)
    for name in ("nodes", "weights", "log_norm", "mode", "sd", "E1", "V"):
        np.testing.assert_array_equal(getattr(bare.posterior, name), getattr(fit.posterior, name))


def test_quadrature_check_warns_on_a_coarse_rule():
    # b = 0.3, ssq = 1, n = 2000, seed 2: at Q = 8 a 16-node rule moves the beta score by
    # 2.35e-6, more than tol_score; the default rule moves it by 2.2e-10
    ds, _ = _sim(2000, seed=2, alpha0=HIGH_MISSING)
    fit = em_fit(ds, config=FitConfig(Q=8))
    assert fit.converged and abs(fit.quadrature.score_beta) > FitConfig().tol_score
    assert [w for w in fit.warnings if w.startswith("quadrature error")] == [
        f"quadrature error: with 16 nodes in place of Q=8 the beta score moves by "
        f"{fit.quadrature.score_beta:.3g}, more than tol_score 1e-06; raise Q"]
    # with beta frozen its score is not certified, so it is not checked either
    frozen = em_fit(ds, config=FitConfig(Q=8, beta_box=0.0))
    assert not any(w.startswith("quadrature error") for w in frozen.warnings)


def test_em_fit_stops_on_a_stall_with_a_coarse_rule():
    # Q = 3 with b = 0.3, ssq = 1, n = 200, seed 3: quadrature noise keeps the score near
    # 5.6e-6, so damped steps crawl (at mu = 100 for all 500 updates without the stall rule);
    # a damped step that moves the parameters less than tol_param ends the fit, unconverged,
    # with the "raise Q" warning (at Q = 4 the fit converges)
    ds, _ = _sim(200, seed=3, alpha0=HIGH_MISSING)
    fit = em_fit(ds, config=FitConfig(Q=3))
    assert fit.converged is False and fit.iterations <= 30
    assert re.fullmatch(r"stopped at update \d+: a damped Newton step \(mu = \S+\) moved the "
                        r"parameters less than tol_param", fit.warnings[0]), fit.warnings
    assert fit.warnings[1].startswith("quadrature error: with 6 nodes in place of Q=3") and len(fit.warnings) == 2
    tr = np.asarray(fit.loglik_trace)
    assert np.all(np.diff(tr) >= -1e-13 * (1 + np.abs(tr[1:])))


FIXED_SEEDS = [(200, seed, 0.25, ALPHA0) for seed in range(8)] + [
    (2000, seed, 0.25, ALPHA0) for seed in range(3)] + [
    (1000, seed, 0.02, ALPHA0) for seed in range(3)] + [
    (2000, 2, 0.25, HIGH_MISSING), (200, 3, 0.25, HIGH_MISSING)]


@pytest.mark.slow
@pytest.mark.parametrize("n, seed, grid_step, alpha0", FIXED_SEEDS, ids=[
    f"n{n}-seed{seed}-grid{step}" + ("-b0.3-ssq1" if al is HIGH_MISSING else "")
    for n, seed, step, al in FIXED_SEEDS])
def test_default_rule_on_fixed_seed_set(n, seed, grid_step, alpha0):
    # the default rule against a Q = 80 fit run far past the tolerances: the fit converges,
    # its log likelihood does not drop (beyond the rounding of a sum over subjects, measured
    # at 2 ulps at n = 200 seeds 2 and 7), beta is within 1e-6 and the check stays silent;
    # neither it nor the full-information fit warns (no bound is active, no step damped)
    ds, truths = _sim(n, seed=seed, grid_step=grid_step, alpha0=alpha0)
    full = em_fit(fullinfo_dataset(ds, truths))
    assert full.converged and full.iterations == full.newton_steps and not full.warnings
    fit = em_fit(ds)
    ref = em_fit(ds, config=FitConfig(Q=80, tol_param=1e-11, tol_score=1e-11))
    assert fit.converged and ref.converged
    tr = np.asarray(fit.loglik_trace)
    assert np.all(np.diff(tr) >= -4 * np.spacing(np.abs(tr[1:])))
    assert abs(fit.theta_hat.beta - ref.theta_hat.beta) <= 1e-6
    assert abs(fit.quadrature.score_beta) <= FitConfig().tol_score and not fit.warnings
    assert fit.iterations == fit.newton_steps


@pytest.mark.slow
def test_em_fit_converges_on_the_small_sample_sweep():
    # 600 small fits (n = 20, 50, 100; seeds 0-99; alpha0 and b = 0.3, ssq = 1), about 4 s:
    # every one converges within 10 updates (measured at most 9, with 21 damped steps over
    # 15 fits)
    for alpha0 in (ALPHA0, HIGH_MISSING):
        for n in (20, 50, 100):
            for seed in range(100):
                fit = em_fit(_sim(n, seed=seed, alpha0=alpha0)[0])
                assert fit.converged and fit.iterations <= 10, (n, seed, alpha0)
