"""The grid-collapsed risk-set kernel against the dense n x K oracle, the node-major
E-step against per-subject atoms, and the kernel's scaling."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    DenseRisk,
    Subject,
    _powers,
    covariate_at,
    dataset_of,
    is_fully_observed,
    last_index,
    latent_covariances,
    latent_moments,
    lvcf_risk_sums,
    lvcf_value,
    posterior_atoms,
    stack_atoms,
    subjects_of,
)

from coxjm import (
    FitConfig,
    MeasurementGrid,
    ModeSearchError,
    SieveHazard,
    Theta,
    TransitionParams,
    ValidationError,
    em_fit,
    nelson_aalen,
)
from coxjm.baseline import _imputed, _risk_sums
from coxjm.fit import Q_DEFAULT, _boundedness_check, _bounds, _init_theta, estep_atoms, observed_loglik
from coxjm.posterior import EXP_CLIP, _gh
from coxjm.simulate import SimConfig, fullinfo_dataset, gen_dataset
from coxjm.transition import TransitionStats
from coxjm.variance import BLOCK, _information, _latent_covariances, _operator
from coxjm.workspace import _estep, _risk_cols, _score, _Workspace

TAU = 3.0
ALPHA0 = TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25)
RTOL = 1e-12


def _sim(n, grid_step, seed):
    return gen_dataset(SimConfig(n=n, grid_step=grid_step, tau=TAU, alpha0=ALPHA0, beta0=1.0,
                                 lambda0=0.3, censor_rate=0.2, seed=seed))


def _close(got, want, scale):
    """|got - want| <= RTOL * scale, scale being the summands' magnitudes summed."""
    got, want, scale = np.asarray(got), np.asarray(want), np.asarray(scale)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= RTOL * scale), (got, want)


def _magnitudes(est, F, raw):
    """Per subject, sum_q w_q |F_j - F_j bar| |F_l - F_l bar|: the magnitudes of the summands of
    each posterior covariance, with F and raw the centred and the plain terms of
    `oracles.latent_covariances`.  Centring leaves an error of a few eps times the plain term,
    which sets the covariance's rounding where the nodes nearly coincide, so the plain terms'
    products enter scaled by 16 eps / RTOL."""
    A, B = (np.abs(v) * np.sqrt(est.weights)[:, None, :] for v in (F, raw))
    AB = A @ B.transpose(0, 2, 1)
    return A @ A.transpose(0, 2, 1) + 16 * np.finfo(float).eps / RTOL * (AB + AB.transpose(0, 2, 1))


def _atoms(rng, ds, beta, dL, Q=3):
    """Random atoms, one row of Q per subject, with the hazard masses at (beta, dL); a stored
    terminal value is one atom of weight one, as `_estep` writes it."""
    nodes, weights = np.empty((ds.n, Q)), np.empty((ds.n, Q))
    for i, s in enumerate(subjects_of(ds)):
        w = rng.uniform(0.05, 1.0, Q)
        weights[i], nodes[i] = w / w.sum(), rng.uniform(-2.5, 2.5, Q)
        if is_fully_observed(s, ds.grid):
            weights[i], nodes[i] = np.eye(1, Q)[0], s.measurements[-1]
    return stack_atoms(ds, nodes, weights, beta, dL)


def lvcf_newton_step(ds, box):
    """The step-halved Newton step from 0 on the LVCF log partial likelihood, from the dense
    oracle's risk sums, and the magnitudes of its terms; None where the likelihood is flat."""
    S, A = lvcf_risk_sums(ds, lvcf_value, 0.0), lvcf_risk_sums(ds, lvcf_value, 0.0, absolute=True)
    z = [lvcf_value(s, s.x, ds.grid) for s in subjects_of(ds) if s.delta]
    m1 = S[1] / S[0]
    score, info = sum(z) - np.sum(m1), np.sum(S[2] / S[0] - m1 * m1)
    if info <= 1e-300:
        return None, None
    full = score / info
    scale = (np.sum(np.abs(z)) + np.sum(A[1] / S[0]) + abs(full) * np.sum(S[2] / S[0] + m1 * m1)) / info

    def lp(b):
        return b * sum(z) - np.sum(np.log(lvcf_risk_sums(ds, lvcf_value, b)[0]))

    lp0 = lp(0.0)
    for j in range(31):
        cand = float(np.clip(full * 0.5**j, -box, box))
        if lp(cand) >= lp0 - 1e-13 * (1 + abs(lp0)):
            return cand, scale * 0.5**j
    return None, None


def check_against_oracle(ds, beta, rng):
    """Every kernel sum on `ds` equals the dense oracle's, within RTOL of its magnitude."""
    D, n = DenseRisk(ds), ds.n
    dL = rng.uniform(1e-3, 0.5, D.xe.size)
    est = _atoms(rng, ds, beta, dL)
    ws = est.ws

    # row sums: each subject's latent hazard mass, and the observed mass summed over subjects
    a_obs, a_lat = D.splits(beta, dL)
    assert np.ndim(est.a_obs) == 0
    _close(est.a_obs, a_obs.sum(), a_obs.sum())
    _close(est.a_lat, a_lat, a_lat)

    # column sums W_n, C_n, D_n, and the beta score and objective terms
    m = latent_moments(est.nodes, est.weights, beta)
    cols, mag = D.cols(beta, m), D.cols(beta, m, absolute=True)
    R = _risk_cols(ws, est, beta)
    _close(R, cols, mag)
    tot, tmag = D.totals(beta, m, dL), D.totals(beta, m, dL, absolute=True)
    E1 = np.sum(est.weights * est.nodes, axis=1)
    dE, dmag = float(D.delta @ E1), float(D.delta @ np.abs(E1))
    _close(_score(ws, est, ALPHA0, beta, dL)[5], (dE - tot[1]) / n, (dmag + tmag[1]) / n)

    # the operator's columns, and its sums over the latent windows holding x_k
    theta = Theta(alpha=ALPHA0, beta=beta, hazard=SieveHazard(tuple(D.xe), tuple(dL)))
    op = _information(ds, theta, est)[0]
    _close(op.w, cols[:, 0] / n, mag[:, 0] / n)
    cov, *terms = latent_covariances(ws, est, ALPHA0, beta)
    lat, lat_mag = D.lat_mask.T @ cov[:, :, 4] / n, D.lat_mask.T @ _magnitudes(est, *terms)[:, :, 4] / n
    assert not np.any(op.G[:, :2])
    _close(op.G[:, 2:5], lat[:, :3], lat_mag[:, :3])
    _close(op.G[:, 5], cols[:, 1] / n + lat[:, 3], mag[:, 1] / n + lat_mag[:, 3])
    _close(op.v, lat[:, 4], lat_mag[:, 4])

    # the fit's default start: the LVCF partial likelihood's Newton step from 0 and Breslow's
    # jumps there; where the likelihood is flat, beta = 0 and exact risk-set counts
    beta1, dL1 = _init_theta(ws, None, _bounds(FitConfig()), [])[1:]
    want, scale = lvcf_newton_step(ds, FitConfig().beta_box)
    if want is None:
        assert beta1 == 0.0 and np.array_equal(dL1, 1.0 / D.risk.sum(axis=0))
    else:
        _close(beta1, want, scale)
        S0 = lvcf_risk_sums(ds, lvcf_value, beta1)[0]
        _close(dL1, 1.0 / S0, 1.0 / S0)

    # boundedness warning: its bound uses the largest observed value at risk
    at_tau = int(np.sum(D.x >= TAU))
    if at_tau:
        cfg = FitConfig()
        zmax = max(D.zmax(), float(np.max(np.abs(est.nodes))))
        bound = (D.xe.size / n) / (np.exp(-cfg.beta_box * zmax) * at_tau / n)
        for f, warned in ((1 + 1e-6, True), (1 - 1e-6, False)):
            warn = []
            _boundedness_check(ws, est, dL * (bound * f / dL.sum()), cfg, warn)
            assert bool(warn) == warned

    # the LVCF comparator's S0, S1, S2, and imputation "next" where the values at risk are observed
    _close(_risk_sums(*_imputed(ds, "lvcf"), beta).T, lvcf_risk_sums(ds, lvcf_value, beta),
           lvcf_risk_sums(ds, lvcf_value, beta, absolute=True))
    if D.lat_mask.any():
        with pytest.raises(ValidationError, match="latent value at risk"):
            _imputed(ds, "next")
    else:
        # every value at risk is stored, so the covariate path is the value due at each interval's end
        _close(_risk_sums(*_imputed(ds, "next"), beta).T, lvcf_risk_sums(ds, covariate_at, beta),
               lvcf_risk_sums(ds, covariate_at, beta, absolute=True))


@st.composite
def risk_cases(draw):
    """Small datasets with follow-up times on grid points, at tau, equal to an
    event time, or anywhere; each subject's terminal value stored or latent."""
    step = draw(st.sampled_from([0.02, 0.25, 0.7, 3.0]))
    grid = MeasurementGrid(tuple(k * step for k in range(int(np.ceil(TAU / step - 1e-9)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    all_extra = draw(st.booleans())
    subs, events = [], set()
    for i in range(draw(st.integers(2, 12))):
        kind = draw(st.sampled_from(["grid", "event", "tau", "free"]))
        if kind == "grid" and len(grid) > 1:
            x = grid.times[draw(st.integers(1, len(grid) - 1))]
        elif kind == "event" and events:
            x = draw(st.sampled_from(sorted(events)))
        elif kind == "tau":
            x = TAU
        else:
            x = draw(st.integers(1, 299)) / 100
        delta = int(x < TAU and x not in events and draw(st.booleans()))
        if delta:
            events.add(x)
        extra = all_extra or draw(st.booleans())
        subs.append(Subject(id=i, x=x, delta=delta,
                            measurements=tuple(rng.uniform(-2.5, 2.5, last_index(x, grid) + 1 + extra))))
    if not events:
        x = 1.234
        subs.append(Subject(id=len(subs), x=x, delta=1,
                            measurements=tuple(rng.uniform(-2.5, 2.5, last_index(x, grid) + 1 + all_extra))))
    return dataset_of(grid, subs, TAU), draw(st.floats(-2.0, 2.0)), rng


@pytest.mark.filterwarnings("ignore:transition-model residual variance floored")
@settings(max_examples=60, deadline=None)
@given(risk_cases())
def test_kernel_matches_dense_oracle(case):
    check_against_oracle(*case)


@st.composite
def covariance_cases(draw):
    """Simulated datasets below, at and past BLOCK subjects (n not a multiple of it too),
    every k-th subject's terminal value stored (one atom), random atoms and transition parameters;
    beta is 0, a draw, or 10 with a node of weight zero at 75, where e^{bZ} is clipped
    (the E-step gives such a node weight zero)."""
    n = draw(st.one_of(st.sampled_from([BLOCK - 1, BLOCK, 2 * BLOCK]), st.integers(20, 3 * BLOCK)))
    seed = draw(st.integers(0, 2**16))
    ds, truths = gen_dataset(SimConfig(n=n, grid_step=0.25, tau=TAU, alpha0=ALPHA0, beta0=1.0,
                                       lambda0=0.3, censor_rate=0.2, seed=seed))
    every = draw(st.integers(2, 6))
    ds = dataset_of(ds.grid, [f if i % every == 0 else s for i, (s, f) in
                              enumerate(zip(subjects_of(ds), subjects_of(fullinfo_dataset(ds, truths))))], ds.tau)
    rng = np.random.default_rng(seed)
    Q = draw(st.integers(2, 6))
    beta = draw(st.sampled_from([0.0, 10.0, draw(st.floats(-2.0, 2.0))]))
    nodes, weights = rng.uniform(-2.5, 2.5, (n, Q)), rng.uniform(0.05, 1.0, (n, Q))
    stored = np.array([is_fully_observed(s, ds.grid) for s in subjects_of(ds)])
    nodes[stored], weights[stored] = ds.values[ds.offsets[1:][stored] - 1, None], np.eye(1, Q)
    if beta == 10.0:
        clip = np.flatnonzero(~stored)[::7]
        nodes[clip, 0], weights[clip, 0] = 75.0, 0.0
    est = stack_atoms(ds, nodes, weights / weights.sum(axis=1, keepdims=True), beta,
                      rng.uniform(1e-3, 0.5, len(ds.event_times())))
    alpha = TransitionParams(0.0, 1.0, *rng.uniform([-1.0, -1.0, 0.1], [1.0, 1.0, 2.0]))
    return est, alpha, beta


@pytest.mark.filterwarnings("ignore:transition-model residual variance floored")
@settings(max_examples=40, deadline=None)
@given(covariance_cases())
def test_latent_covariances_match_oracle(case):
    # per subject, each term's covariance with e^{bZ}, and the 4 x 4 block summed over the
    # subjects, within RTOL of the magnitudes of their summands
    est, alpha, beta = case
    cov, miss = _latent_covariances(est.ws, est, alpha, beta)
    want, *terms = latent_covariances(est.ws, est, alpha, beta)
    mag = _magnitudes(est, *terms)
    assert bool(np.any(beta * est.nodes > EXP_CLIP)) == (beta == 10.0)
    _close(cov, want[:, [0, 2, 3, 4], 4].T, mag[:, [0, 2, 3, 4], 4].T)
    _close(est.ws.z_pred * cov[0], want[:, 1, 4], mag[:, 1, 4])
    _close(miss, want[:, :4, :4].sum(axis=0), mag[:, :4, :4].sum(axis=0))
    assert np.array_equal(miss, miss.T)


def _hand_built():
    # events at 0.4, 1.0 (a grid point) and 2.5; none in the interval (1, 2];
    # subject 3 is censored at the event time 2.5, subject 4 at tau
    grid = MeasurementGrid((0.0, 1.0, 2.0))
    rows = [(0.4, 1, 2), (1.0, 1, 1), (2.0, 0, 3), (2.5, 1, 3), (2.5, 0, 4), (3.0, 0, 3)]
    return dataset_of(grid, [
        Subject(id=i, x=x, delta=d, measurements=tuple(math.sin(1.7 * j + i) for j in range(m)))
        for i, (x, d, m) in enumerate(rows)], TAU)


def _mixed(grid_step, every):
    # a simulated dataset whose terminal value is stored for every `every`-th subject
    ds, truths = _sim(40, grid_step, seed=13)
    full = fullinfo_dataset(ds, truths)
    return dataset_of(ds.grid, [f if i % every == 0 else s
                                for i, (s, f) in enumerate(zip(subjects_of(ds), subjects_of(full)))], ds.tau)


def _tau_heavy():
    # the 0.02 grid with 30 of 48 subjects censored at tau, filling the last interval, which
    # also holds three events; six subjects are censored at event times, and every third
    # subject's terminal value is stored
    grid = MeasurementGrid(tuple(k * 0.02 for k in range(150)))
    events = [0.33, 1.05, 2.5, 2.985, 2.99, 2.995]
    rows = ([(x, 1) for x in events] + [(x, 0) for x in events] + [(TAU, 0)] * 30
            + [(0.71, 0), (1.5, 0), (2.3, 0), (2.97, 0), (2.981, 0), (2.999, 0)])
    rng = np.random.default_rng(7)
    return dataset_of(grid, [
        Subject(id=i, x=x, delta=d, measurements=tuple(rng.uniform(-2.5, 2.5, last_index(x, grid) + 1 + (i % 3 == 0))))
        for i, (x, d) in enumerate(rows)], TAU)


@pytest.mark.parametrize("make", [_hand_built, lambda: _mixed(0.02, 2), lambda: _mixed(0.25, 1), _tau_heavy],
                         ids=["hand-built", "fine-grid-mixed", "fully-observed", "fine-grid-tau-heavy"])
@pytest.mark.parametrize("beta", [-1.3, 0.0, 0.8])
def test_kernel_matches_dense_oracle_fixed(make, beta):
    ds = make()
    check_against_oracle(ds, beta, np.random.default_rng(5))
    # the running sums' pad has one row per grid interval and one column more than the
    # largest number of events in one interval, however many subjects an interval holds
    most = np.bincount([last_index(x, ds.grid) for x in ds.event_times()]).max()
    assert _Workspace(ds)._pad == (len(ds.grid), 1 + most)


def _mixed_named():
    # the fine-grid mixed dataset (subject 0 stored) with ids that are not positions
    ds = _mixed(0.02, 2)
    return replace(ds, ids=[f"s{i:02d}" for i in range(ds.n)])


@pytest.mark.parametrize("beta", [-1.3, 0.8])
def test_estep_matches_per_subject_atoms(beta):
    ds = _mixed_named()
    theta = Theta(alpha=ALPHA0, beta=beta, hazard=nelson_aalen(ds))
    est = estep_atoms(ds, theta)
    stored = [is_fully_observed(s, ds.grid) for s in subjects_of(ds)]
    assert any(stored) and not all(stored)  # both branches of _estep
    atoms = [posterior_atoms(s, theta, Q_DEFAULT, ds.grid) for s in subjects_of(ds)]  # estep_atoms' order
    for i, want in enumerate(atoms):
        q = want.nodes.size  # a stored value is one atom, repeated with weight zero in `est`
        np.testing.assert_allclose(est.nodes[i, :q], want.nodes, rtol=RTOL, atol=RTOL)
        np.testing.assert_allclose(est.weights[i, :q], want.weights, rtol=RTOL, atol=RTOL)
        assert np.all(est.nodes[i, q:] == want.nodes[0]) and not np.any(est.weights[i, q:])
        for got, w in ((est.mode, want.mode), (est.sd, want.curvature_sd), (est.log_norm, want.log_norm)):
            assert got[i] == pytest.approx(w, rel=RTOL, abs=RTOL)

    # the E-step's posterior moments, at two betas and back, against the per-subject atoms
    def oracle(b):
        return np.concatenate([latent_moments(a.nodes[None], a.weights[None], b) for a in atoms])
    m = oracle(0.0)
    np.testing.assert_allclose(np.column_stack([est.E1, est.V]), np.column_stack([m[:, 1], m[:, 2] - m[:, 1]**2]),
                               rtol=RTOL, atol=RTOL)
    for b in (beta, 0.3, beta):
        np.testing.assert_allclose(est.exp_moments(b), oracle(b), rtol=RTOL, atol=RTOL)


def test_estep_mode_search_error_names_subject():
    # the tau-heavy dataset's last interval holds events but no observed entry: an infinite
    # jump there must meet no 0 * inf in the observed total
    for ds in (_mixed_named(), _tau_heavy()):
        ws = _Workspace(ds)
        jumps = np.asarray(nelson_aalen(ds).jumps)
        subjects = subjects_of(ds)
        for k in range(ws.K):
            # an infinite jump gives every subject whose latent window holds it an infinite
            # latent mass, and so a non-finite mode; the error names the first of them.  A
            # stored terminal value has no latent mass, so with none latent there is no error
            t = ws.xe[k]
            latent = [s.id for s in subjects if t <= s.x and covariate_at(s, t, ds.grid) is None]
            dL = jumps.copy()
            dL[k] = np.inf
            if not latent:
                assert np.all(np.isfinite(_estep(ws, ALPHA0, 0.8, dL, 40).a_lat))
                continue
            with pytest.raises(ModeSearchError) as err:
                _estep(ws, ALPHA0, 0.8, dL, 40)
            assert err.value.subject_id == latent[0] != ds.ids[0]


def test_loglik_error_names_subject_whose_observed_mass_overflows():
    # every terminal value stored, so there is no latent mass: a jump of 1e308 overflows the
    # observed mass of the subjects whose observed values at risk there are large enough,
    # and the error names the first of them, as the dense oracle's per-subject masses give
    # it; when only their sum overflows, it names the event time whose jump times its risk
    # set's observed e^{beta z} is largest, the one given the large jump.  In the tau-heavy
    # dataset the last interval's events reach only stored terminal values.
    named = {}
    for ds, big in ((replace(_mixed(0.25, 1), ids=[f"s{i:02d}" for i in range(40)]), 1e308), (_tau_heavy(), 3e307)):
        jumps = np.asarray(nelson_aalen(ds).jumps)
        dense = DenseRisk(ds)
        for k in range(jumps.size):
            dL = jumps.copy()
            dL[k] = big
            with np.errstate(over="ignore"):
                bad = np.flatnonzero(~np.isfinite(dense.splits(0.8, dL)[0]))
                assert int(np.argmax(dL * dense.cols(0.8, np.zeros((ds.n, 3)))[:, 0])) == k
            want = (f"subject {ds.ids[bad[0]]!r}" if bad.size
                    else f"observed hazard mass overflows at event time {float(dense.xe[k])!r}")
            theta = Theta(alpha=ALPHA0, beta=0.8, hazard=SieveHazard(ds.event_times(), tuple(dL)))
            try:
                ll = observed_loglik(ds, theta)
            except ValidationError as err:
                assert str(err) == f"non-finite log likelihood ({want})"
                named.setdefault(big, []).append(want)
            else:
                assert not bad.size and math.isfinite(ll)
    assert sum(w.startswith("subject") for w in set(named[1e308])) > 1
    assert all(any(w.startswith("observed") for w in v) for v in named.values())


def test_posterior_keeps_risk_sums_for_its_last_beta():
    # the risk-set sums and transition statistics are kept on the posterior, read-only; after
    # a call at another beta, each beta's sums are again those computed afresh
    ds, _ = _sim(200, 0.25, seed=3)
    ws, cfg = _Workspace(ds), FitConfig()
    alpha, beta, dL = _init_theta(ws, None, _bounds(cfg), [])
    est = _estep(ws, alpha, beta, dL, cfg.Q)

    def fresh(b):
        return ws.cols(ws.interval_sums(ws.t_next, b), latent_moments(est.nodes, est.weights, b))

    R = _risk_cols(ws, est, beta)
    assert _risk_cols(ws, est, beta) is R and np.array_equal(R, fresh(beta))
    for cached in (R, ws.obs_mats(beta)):
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 1.0
    b_new = beta + 0.5
    for b in (b_new, beta, b_new):
        assert np.array_equal(_risk_cols(ws, est, b), fresh(b))
    stats = ws.transition_stats(est)
    assert ws.transition_stats(est) is stats
    assert stats == ws.obs.merge(TransitionStats.of((), ws.z_pred, est.E1, est.V))


def test_em_fit_invariant_under_subject_permutation():
    ds, _ = _sim(200, 0.25, seed=3)
    perm = np.random.default_rng(0).permutation(ds.n)
    subjects = subjects_of(ds)
    shuffled = dataset_of(ds.grid, [subjects[i] for i in perm], ds.tau)
    a, b = em_fit(ds), em_fit(shuffled)
    assert a.converged and b.iterations == a.iterations
    assert abs(b.theta_hat.beta - a.theta_hat.beta) <= 1e-10
    assert b.theta_hat.hazard.times == a.theta_hat.hazard.times
    np.testing.assert_allclose(b.theta_hat.hazard.jumps, a.theta_hat.hazard.jumps, rtol=1e-10, atol=0)


def test_em_fit_memory_is_linear_in_n():
    # K is about 10400 here: one n x K float array alone would take about 1.5 GiB; the
    # updates are Newton steps, which build the information operator
    ds, _ = _sim(20000, 0.25, seed=0)
    tracemalloc.start()
    try:
        fit = em_fit(ds, config=FitConfig(max_iter=6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.newton_steps > 0 and peak < 256 * 2**20


@pytest.mark.parametrize("beta, clipped", [(10.0, True), (1.0, False)])
def test_exp_moments_clip_matches_unfused(beta, clipped):
    # one node of every seventh subject at 75: past EXP_CLIP at beta = 10, not at beta = 1
    ds, _ = _sim(60, 0.25, seed=1)
    rng = np.random.default_rng(0)
    nodes, weights = rng.uniform(-2.5, 2.5, (ds.n, 5)), rng.uniform(0.05, 1.0, (ds.n, 5))
    nodes[::7, 2] = 75.0
    est = stack_atoms(ds, nodes, weights / weights.sum(axis=1, keepdims=True))
    assert bool(np.any(beta * est.nodes > EXP_CLIP)) == clipped
    assert np.array_equal(est.exp_moments(beta), latent_moments(est.nodes, est.weights, beta))


@pytest.mark.parametrize("beta, clipped", [(10.0, True), (1.0, False)])
def test_interval_sums_clip_matches_unfused(beta, clipped):
    ds, _ = _sim(60, 0.25, seed=1)
    ws = _Workspace(ds)
    v = ws.t_next.copy()
    v[::5] = 75.0
    assert bool(np.any(beta * v > EXP_CLIP)) == clipped
    S = ws.interval_sums(v, beta)
    F = _powers(v, beta, 1.0)
    # the same segment reduction over the unfused powers: the entries are interval-major,
    # t_count per interval, and an interval without entries sums to 0
    seen = np.flatnonzero(ws.t_count)
    want = np.zeros((ws.J, 3))
    with np.errstate(over="ignore"):
        want[seen] = np.column_stack([np.add.reduceat(f, (np.cumsum(ws.t_count) - ws.t_count)[seen]) for f in F])
    assert 0 < seen.size < ws.J and np.array_equal(S, want)
    assert bool(np.any(np.isinf(S))) == clipped  # an overflowing sum is inf, without a warning


def test_estep_allocates_few_quadrature_arrays():
    # the kernels compute in place: an E-step holds three Q x n arrays at once (nodes,
    # weights and one scratch array), bounded here by four, and the exponential moments
    # one, bounded by one and a half.  The Gauss-Hermite rule is built, and cached, before
    # tracing: the first E-step with Q nodes in a process builds it, importing
    # numpy.polynomial (about 0.7 MB), which took the peak from 3.5 to 5.6 Q x n
    ds, _ = _sim(2000, 0.25, seed=0)
    ws, cfg = _Workspace(ds), FitConfig()
    alpha, _, dL = _init_theta(ws, None, _bounds(cfg), [])
    size = cfg.Q * ws.n * 8
    _gh(cfg.Q)
    tracemalloc.start()
    try:
        est = _estep(ws, alpha, 1.0, dL, cfg.Q)
        estep_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        est.exp_moments(0.5)
        moments_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert estep_peak <= 4 * size
    assert moments_peak <= 1.5 * size


def test_operator_allocates_few_quadrature_arrays():
    # above its inputs, the E-step with the risk-set sums and transition statistics a
    # Newton step finds on it, the operator build holds the per-subject covariances with
    # e^{bZ} (4 x n, 0.2 Q x n arrays), one block's four Q x BLOCK factors (0.5 at n = 2000)
    # with NumPy's buffers, and O(K) parts: 0.9 Q x n arrays measured, where an n x 5 x Q
    # array of the score terms would take about nine
    ds, _ = _sim(2000, 0.25, seed=0)
    ws, cfg = _Workspace(ds), FitConfig()
    alpha, _, dL = _init_theta(ws, None, _bounds(cfg), [])
    est = _estep(ws, alpha, 1.0, dL, cfg.Q)
    _risk_cols(ws, est, 1.0)
    ws.transition_stats(est)
    tracemalloc.start()
    try:
        _operator(ws, est, alpha, 1.0, dL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * cfg.Q * ws.n * 8
