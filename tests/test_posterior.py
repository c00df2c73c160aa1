import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ExponentSplit,
    PosteriorAtoms,
    Subject,
    cond_exp,
    exponent_split,
    log_unnormalized_posterior,
    oracle_moments,
    posterior_atoms,
)
from scipy.optimize import brentq
from scipy.special import wrightomega

from coxjm import (
    MeasurementGrid,
    ModeSearchError,
    SieveHazard,
    Theta,
    TransitionParams,
    ValidationError,
)
from coxjm.posterior import EXP_CLIP, SQRT2, _batch_modes, _gh, _wright_omega, batch_posterior

GRID0 = MeasurementGrid((0.0,))
GRID2 = MeasurementGrid((0.0, 0.5))
STD = TransitionParams(0.0, 1.0, 0.0, 0.0, 1.0)


def _theta(alpha=STD, beta=0.0, times=(), jumps=()):
    return Theta(alpha=alpha, beta=beta, hazard=SieveHazard(times, jumps))


def _exp(beta):
    return lambda z: np.exp(np.minimum(beta * np.asarray(z), 700.0))


def test_exponent_split_beta_zero_sums_to_hazard():
    subj = Subject(id=1, x=1.2, delta=1, measurements=(0.4, -0.1))
    hz = SieveHazard((0.3, 0.9, 1.2), (0.2, 0.3, 0.1))
    sp = exponent_split(subj, hz, 0.0, GRID2)
    assert sp.a_obs + sp.a_lat == pytest.approx(hz.evaluate(subj.x), abs=1e-12)
    # u=0.3 is in (0, 0.5] with a measured next value; 0.9 and 1.2 are terminal
    assert sp.a_obs == pytest.approx(0.2)
    assert sp.a_lat == pytest.approx(0.4)
    assert sp.own_jump == pytest.approx(0.1)


def test_exponent_split_empty_latent_window():
    subj = Subject(id=1, x=0.4, delta=0, measurements=(0.4,))
    hz = SieveHazard((0.9,), (0.5,))  # only jump is after x
    sp = exponent_split(subj, hz, 1.0, GRID0)
    assert sp.a_lat == 0.0
    assert sp.a_obs == 0.0
    assert sp.own_jump == 0.0


def test_exponent_split_event_includes_own_jump():
    subj = Subject(id=1, x=0.8, delta=1, measurements=(0.4,))
    hz = SieveHazard((0.5, 0.8), (0.2, 0.3))
    sp = exponent_split(subj, hz, 1.0, GRID0)
    assert sp.a_lat == pytest.approx(0.5)
    assert sp.own_jump == pytest.approx(0.3)
    assert sp.own_jump <= sp.a_lat


def test_log_unnormalized_posterior_cases():
    subj = Subject(id=1, x=0.8, delta=0, measurements=(0.0,))
    th = _theta()
    sp = exponent_split(subj, th.hazard, th.beta, GRID0)
    # censored, no latent hazard mass: posterior equals the prior conditional
    zs = np.array([-1.0, 0.0, 2.0])
    want = -0.5 * np.log(2 * np.pi) - zs**2 / 2
    assert np.allclose(log_unnormalized_posterior(zs, subj, sp, th), want)

    # overflow guard
    th2 = _theta(beta=2.0)
    assert log_unnormalized_posterior(1000.0, subj, sp, th2) == -math.inf


def test_log_unnormalized_posterior_peak_value():
    subj = Subject(id=1, x=0.8, delta=1, measurements=(1.0,))
    alpha = TransitionParams(0.0, 1.0, 0.3, 0.5, 0.4)  # conditional N(0.8, 0.4)
    th = _theta(alpha=alpha, beta=0.7, times=(0.5,), jumps=(0.6,))
    sp = exponent_split(subj, th.hazard, th.beta, GRID0)
    mean, var = 0.8, 0.4
    got = log_unnormalized_posterior(mean, subj, sp, th)
    want = 0.7 * mean - 0.6 * math.exp(0.7 * mean) - 0.5 * math.log(2 * math.pi * var)
    assert got == pytest.approx(want, abs=1e-12)


def test_posterior_gaussian_case():
    subj = Subject(id=1, x=0.8, delta=0, measurements=(0.0,))
    at = posterior_atoms(subj, _theta(), 20, GRID0)
    assert cond_exp(at, lambda z: z) == pytest.approx(0.0, abs=1e-10)
    assert cond_exp(at, lambda z: z * z) == pytest.approx(1.0, abs=1e-10)
    assert at.log_norm == pytest.approx(0.0, abs=1e-12)


def test_posterior_exponential_tilt_identity():
    # delta=1, no hazard mass in the window, beta=0.5, conditional N(0,1):
    # posterior is N(0.5, 1) and the integral factor is e^{0.125}
    subj = Subject(id=1, x=0.8, delta=1, measurements=(0.0,))
    th = _theta(beta=0.5, times=(0.9,), jumps=(0.4,))  # jump after x: A_lat = 0
    at = posterior_atoms(subj, th, 20, GRID0)
    assert cond_exp(at, lambda z: z) == pytest.approx(0.5, abs=1e-10)
    assert at.log_norm == pytest.approx(0.125, abs=1e-10)


def test_posterior_matches_oracle():
    subj = Subject(id=1, x=1.0, delta=1, measurements=(0.0,))
    alpha = TransitionParams(0.0, 1.0, 0.3, 0.5, 0.4)  # conditional N(0.3, 0.4)
    th = _theta(alpha=alpha, beta=1.0, times=(0.6, 1.0), jumps=(0.4, 0.3))
    at = posterior_atoms(subj, th, 40, GRID0)
    for g in (lambda z: z, lambda z: z * z, _exp(1.0)):
        assert cond_exp(at, g) == pytest.approx(
            oracle_moments(subj, th, g, 20000, GRID0), rel=1e-6)


def test_posterior_oracle_randomized_sweep():
    rng = np.random.default_rng(0)
    for trial in range(100):
        delta = int(rng.integers(0, 2))
        beta = float(rng.uniform(0.2, 1.2)) * (1 if rng.random() < 0.8 else -1)
        m = float(rng.uniform(0.2, 1.5))
        ssq = float(rng.uniform(0.09, 1.0))
        alpha = TransitionParams(0.0, 1.0, m, 0.5, ssq)
        subj = Subject(id=trial, x=1.0, delta=delta, measurements=(0.0,))
        times = (0.5, 1.0) if delta else (0.5, 0.9)
        th = _theta(alpha=alpha, beta=beta,
                    times=times, jumps=(float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.05, 0.9))))
        at = posterior_atoms(subj, th, 40, GRID0)
        for g in (lambda z: z, _exp(beta),
                  lambda z: np.asarray(z) * _exp(beta)(z),
                  lambda z: np.asarray(z) ** 2 * _exp(beta)(z)):
            q = cond_exp(at, g)
            o = oracle_moments(subj, th, g, 20000, GRID0)
            assert q == pytest.approx(o, rel=1e-6, abs=1e-9)


def test_posterior_weight_properties():
    rng = np.random.default_rng(1)
    for trial in range(25):
        alpha = TransitionParams(0.0, 1.0, float(rng.normal()), 0.5, float(rng.uniform(0.1, 1.0)))
        subj = Subject(id=trial, x=1.0, delta=1, measurements=(float(rng.normal()),))
        th = _theta(alpha=alpha, beta=float(rng.uniform(-1, 1.5)),
                    times=(0.7, 1.0), jumps=(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))))
        at = posterior_atoms(subj, th, 40, GRID0)
        assert np.all(at.weights >= 0)
        assert abs(float(np.sum(at.weights)) - 1.0) < 1e-12
        assert at.nodes.size == 40


def test_tilt_monotonicity_in_beta():
    subj = Subject(id=1, x=0.8, delta=1, measurements=(0.0,))
    prev = -math.inf
    for beta in np.linspace(0.0, 2.0, 9):
        th = _theta(beta=float(beta), times=(0.9,), jumps=(0.4,))  # A_lat = 0
        at = posterior_atoms(subj, th, 40, GRID0)
        mean = cond_exp(at, lambda z: z)
        assert mean > prev
        prev = mean


def test_quadrature_order_convergence():
    rng = np.random.default_rng(2)
    for trial in range(20):
        alpha = TransitionParams(0.0, 1.0, float(rng.uniform(-1, 1)), 0.5,
                                 float(rng.uniform(0.1, 1.0)))
        subj = Subject(id=trial, x=1.0, delta=int(rng.integers(0, 2)), measurements=(0.3,))
        th = _theta(alpha=alpha, beta=float(rng.uniform(-1, 1.5)),
                    times=(0.7, 1.0), jumps=(float(rng.uniform(0, 0.8)), float(rng.uniform(0, 0.8))))
        m40 = cond_exp(posterior_atoms(subj, th, 40, GRID0), lambda z: z)
        m80 = cond_exp(posterior_atoms(subj, th, 80, GRID0), lambda z: z)
        assert abs(m40 - m80) <= 1e-8


def test_oracle_resolution_stability():
    subj = Subject(id=1, x=1.0, delta=1, measurements=(0.0,))
    alpha = TransitionParams(0.0, 1.0, 0.3, 0.5, 0.4)
    th = _theta(alpha=alpha, beta=1.0, times=(0.6, 1.0), jumps=(0.4, 0.3))
    a = oracle_moments(subj, th, lambda z: z, 10**4, GRID0)
    b = oracle_moments(subj, th, lambda z: z, 2 * 10**4, GRID0)
    assert abs(a - b) < 1e-9
    with pytest.raises(ValidationError):
        oracle_moments(subj, th, lambda z: z, 100, GRID0)


def test_cond_exp_examples_and_errors():
    subj = Subject(id=1, x=0.8, delta=0, measurements=(0.0,))
    at = posterior_atoms(subj, _theta(), 20, GRID0)
    assert cond_exp(at, lambda z: np.ones_like(z)) == pytest.approx(1.0, abs=1e-14)
    single = PosteriorAtoms(nodes=np.array([2.0]), weights=np.array([1.0]),
                            mode=2.0, curvature_sd=0.0, log_norm=0.0)
    assert cond_exp(single, lambda z: z) == 2.0
    with pytest.raises(ValidationError):
        cond_exp(at, lambda z: np.full_like(z, np.nan))


def test_degenerate_atoms_for_fully_observed_subject():
    full = Subject(id=1, x=0.8, delta=1, measurements=(0.0, 1.3))
    th = _theta(beta=0.5, times=(0.6,), jumps=(0.2,))
    at = posterior_atoms(full, th, 40, GRID0)
    assert at.nodes.tolist() == [1.3]
    assert at.weights.tolist() == [1.0]
    # log factor: delta*beta*z + ln N(z; 0, 1)
    want = 0.5 * 1.3 - 0.5 * math.log(2 * math.pi) - 1.3**2 / 2
    assert at.log_norm == pytest.approx(want, abs=1e-12)


def test_posterior_atoms_order_validation():
    subj = Subject(id=1, x=0.8, delta=0, measurements=(0.0,))
    with pytest.raises(ValidationError):
        posterior_atoms(subj, _theta(), 1, GRID0)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@settings(max_examples=400, deadline=None)
@given(beta=st.one_of(st.floats(-10, 10), st.floats(-1e-6, 1e-6)), v=_log_uniform(1e-8, 100),
       a=st.one_of(st.just(0.0), _log_uniform(1e-8, 1e4)), m=st.floats(-20, 20),
       delta=st.sampled_from([0, 1]))
def test_mode_matches_bracketed_root(beta, v, a, m, delta):
    # the closed-form mode against a Brent root of g'(z) = delta*beta - a*beta*e^{beta z} - (z - m)/v,
    # bracketed by doubling steps away from c = m + delta*beta*v (g' is strictly decreasing)
    mode, sd = _batch_modes(np.array([float(delta)]), np.array([a]), np.array([m]), v, beta)

    def gp(z):
        return delta * beta - a * beta * math.exp(min(beta * z, EXP_CLIP)) - (z - m) / v

    def bound(sign):
        step = math.sqrt(v)
        while sign * gp(c + sign * step) >= 0:
            step *= 2
        return c + sign * step

    c = m + delta * beta * v
    scale = abs(m) + abs(beta) * v + math.sqrt(v)
    root = brentq(gp, bound(-1), bound(1), xtol=1e-16 * scale)
    assert abs(mode[0] - root) <= 1e-14 * (scale + abs(root))
    want_sd = (a * beta * beta * math.exp(min(beta * root, EXP_CLIP)) + 1 / v) ** -0.5
    assert sd[0] == pytest.approx(want_sd, rel=1e-12)


def test_mode_far_from_the_prior_mean():
    # beta*c = 900 and omega is about 893; the value is an mpmath root
    mode, _ = _batch_modes(np.array([1.0]), np.array([1e-3]), np.array([0.0]), 100.0, 3.0)
    assert mode[0] == pytest.approx(2.3000196687595344, rel=1e-14)


def _region_edges():
    # each region boundary, its neighbouring doubles and points a little further out
    for b in (-50.0, -2.0, 1.0, 1e20):
        yield from (b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), b - 1e-9 * abs(b),
                    b + 1e-9 * abs(b), b - 0.5 * abs(b), b + 0.5 * abs(b))


def test_wright_omega_matches_scipy():
    # oracle: scipy.special.wrightomega, Algorithm 917 in the same regions and steps.  The two
    # differ only through the last bit of exp and log (NumPy's SIMD loops against libm), and
    # omega's relative condition number |x| / (1 + omega) scales that, so the bound is 4 ulp
    # times max(1, |x| / (1 + omega)); on (-8, -2) plain ulp differences reach 7
    x = np.concatenate([list(_region_edges()), np.linspace(-60.0, 60.0, 120001),
                        np.geomspace(1.0, 1e25, 2001), [1e300, -1e300, 0.0, -0.0]])
    # the whole sweep, then each start region alone, so every skipped branch is exercised
    parts = [x] + [x[(lo <= x) & (x < hi)] for lo, hi in ((-50.0, -2.0), (-2.0, 1.0), (-50.0, 1.0),
                                                           (1.0, 1e20), (-np.inf, -2.0))]
    with np.errstate(all="raise", under="ignore"):
        got = np.concatenate([_wright_omega(part) for part in parts])
    x = np.concatenate(parts)
    want = wrightomega(x)
    assert np.all(np.isfinite(got)) and np.all(got >= 0)
    kappa = np.maximum(1.0, np.abs(x) / (1.0 + want))
    ulps = np.abs(got - want) / np.spacing(want)
    assert np.all(ulps <= 4 * kappa), (x[np.argmax(ulps / kappa)], np.max(ulps / kappa))
    assert np.mean(got == want) > 0.95


def test_wright_omega_infinities_and_nan():
    with np.errstate(all="raise", under="ignore"):
        got = _wright_omega(np.array([-np.inf, np.inf, np.nan, -750.0, 1e21]))
    assert got[0] == 0.0 and got[1] == np.inf and np.isnan(got[2])
    assert got[3] == 0.0  # e^x underflows, as in scipy
    assert got[4] == 1e21


def test_batch_modes_without_latent_mass_is_the_prior_tilt():
    # a_lat = 0: log 0 = -inf, omega = 0, so the mode is c = mean + delta*beta*var and the sd
    # sqrt(var), exactly
    delta, mean, var = np.array([1.0, 0.0, 1.0]), np.array([0.3, -2.0, 5.0]), 0.7
    with np.errstate(all="raise", under="ignore"):
        mode, sd = _batch_modes(delta, np.zeros(3), mean, var, -1.3)
    assert mode.tolist() == (mean + delta * -1.3 * var).tolist()
    assert sd.tolist() == [math.sqrt(var)] * 3


@pytest.mark.parametrize("beta, clipped", [(10.0, True), (1.0, False)])
def test_batch_posterior_clip_matches_unfused_integrand(beta, clipped):
    # no latent mass and a prior mean of 69: at beta = 10 the upper nodes pass EXP_CLIP
    # (beta z up to about 820); at beta = 1 none does.  Either way the in-place kernel's
    # weights and log integral equal, bit for bit, those of the oracle's unfused log posterior
    delta, a_lat = np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 0.0, 0.3, 0.3])
    mean, var = np.array([69.0, 69.0, 69.0, 0.5]), 1.0
    nodes, weights, mode, sd, log_norm = batch_posterior(delta, a_lat, mean, var, beta, 40)
    assert bool(np.any(beta * nodes > EXP_CLIP)) == clipped
    logint = np.stack([log_unnormalized_posterior(
        nodes[i], Subject(id=i, x=1.0, delta=int(delta[i]), measurements=(0.0,)), ExponentSplit(0.0, a_lat[i], 0.0),
        _theta(alpha=TransitionParams(0.0, 1.0, mean[i], 0.0, var), beta=beta)) for i in range(4)], axis=1)
    xg, wg = _gh(40)
    logw = (np.log(wg) + xg**2)[:, None] + logint
    top = np.max(logw, axis=0)
    w = np.exp(logw - top)
    total = np.sum(w, axis=0)
    assert np.array_equal(weights, (w / total).T)
    assert np.array_equal(log_norm, top + np.log(total) + np.log(SQRT2 * sd))
    assert np.all(weights[beta * nodes > EXP_CLIP] == 0.0)
