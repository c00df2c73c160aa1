import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    Subject,
    cond_latent_params,
    dataset_of,
    hessian_alpha,
    log_joint_density,
    observed_history,
    score_alpha,
    stack_atoms,
    subjects_of,
)

from coxjm import (
    AlphaBox,
    FitConfig,
    InsufficientDataError,
    MeasurementGrid,
    Theta,
    TransitionParams,
    ValidationError,
    estep_atoms,
    nelson_aalen,
    weighted_mle_alpha,
)
from coxjm.fit import _bounds
from coxjm.simulate import SimConfig, fullinfo_dataset, gen_dataset
from coxjm.transition import VAR_FLOOR, TransitionStats, gauss_logpdf
from coxjm.workspace import _estep, _Workspace

LN_NORM_0 = -0.5 * math.log(2 * math.pi)  # ln N(0; 0, 1)


def _atoms(ds, nodes, weights=None):
    """Atoms with one row of nodes and weights per subject (weight one on a single node)."""
    nodes = np.asarray(nodes, dtype=float).reshape(ds.n, -1)
    return stack_atoms(ds, nodes, np.ones_like(nodes) if weights is None else weights)


def test_log_joint_density_examples():
    a = TransitionParams(0.0, 1.0, 0.0, 0.0, 1.0)
    assert log_joint_density([0.0], a) == pytest.approx(-0.9189385, abs=1e-6)
    assert log_joint_density([0.0, 0.0], a) == pytest.approx(-1.8378771, abs=1e-6)
    a2 = TransitionParams(0.0, 1.0, 0.0, 1.0, 1.0)
    # ln N(1; 0, 1) + ln N(2; 1, 1) = 2 * (-0.9189385 - 0.5)
    assert log_joint_density([1.0, 2.0], a2) == pytest.approx(-2.8378771, abs=1e-6)


def test_log_joint_density_errors():
    a = TransitionParams(0.0, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        log_joint_density([math.inf], a)
    with pytest.raises(ValidationError):
        log_joint_density([], a)
    with pytest.raises(ValidationError):
        TransitionParams(0.0, 0.0, 0.0, 0.0, 1.0)


def test_density_normalizes_over_last_coordinate():
    # the joint density of hist + [z] is the history's times the last transition's,
    # which integrates to one over z; the history term is a constant, and the last
    # transition's density is evaluated at every trapezoid point in one call
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = TransitionParams(rng.normal(), rng.uniform(0.2, 2.0), rng.normal(),
                             rng.uniform(-0.9, 0.9), rng.uniform(0.2, 2.0))
        hist = list(rng.normal(size=3))
        mean, var = cond_latent_params(hist, a)
        sd = math.sqrt(var)
        zs = np.linspace(mean - 10 * sd, mean + 10 * sd, 40001)
        head, last = log_joint_density(hist, a), gauss_logpdf(zs, mean, var)
        for j in (0, 12345, 20000, 40000):
            assert head + last[j] == pytest.approx(log_joint_density(hist + [zs[j]], a), rel=1e-12)
        vals = np.exp(head + last)
        total = np.trapezoid(vals, zs) / math.exp(head)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_cond_latent_params_examples():
    a = TransitionParams(0.0, 1.0, 0.5, 0.8, 0.25)
    assert cond_latent_params([2.0], a) == (pytest.approx(2.1), pytest.approx(0.25))
    a0 = TransitionParams(0.0, 1.0, 0.5, 0.0, 0.25)
    assert cond_latent_params([2.0], a0)[0] == pytest.approx(0.5)
    assert cond_latent_params([7.0, 0.0], a)[0] == pytest.approx(0.5)


def test_score_alpha_examples():
    a = TransitionParams(0.0, 1.0, 0.0, 0.0, 1.0)
    assert score_alpha([0.0], a)[0] == 0.0
    assert score_alpha([1.0], a)[0] == pytest.approx(1.0)


def _fd_gradient(values, a, h=1e-5):
    vec = a.as_array()
    g = np.zeros(5)
    for j in range(5):
        up, dn = vec.copy(), vec.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (log_joint_density(values, TransitionParams.from_array(up))
                - log_joint_density(values, TransitionParams.from_array(dn))) / (2 * h)
    return g


def test_score_alpha_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = TransitionParams(rng.normal(), rng.uniform(0.3, 2.0), rng.normal(),
                             rng.uniform(-0.9, 0.9), rng.uniform(0.3, 2.0))
        values = list(rng.normal(size=rng.integers(1, 6)))
        got = score_alpha(values, a)
        want = _fd_gradient(values, a)
        assert np.allclose(got, want, rtol=1e-6, atol=1e-6)


def test_hessian_alpha_examples_and_symmetry():
    a = TransitionParams(0.0, 1.0, 0.0, 0.0, 1.0)
    H = hessian_alpha([0.0], a)
    assert H[0, 0] == pytest.approx(-1.0)
    rng = np.random.default_rng(3)
    for _ in range(10):
        values = list(rng.normal(size=rng.integers(1, 5)))
        H = hessian_alpha(values, a)
        assert np.array_equal(H, H.T)


def test_hessian_alpha_matches_finite_differences():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = TransitionParams(rng.normal(), rng.uniform(0.3, 2.0), rng.normal(),
                             rng.uniform(-0.9, 0.9), rng.uniform(0.3, 2.0))
        values = list(rng.normal(size=rng.integers(2, 6)))
        H = hessian_alpha(values, a)
        vec = a.as_array()
        h = 1e-5
        for j in range(5):
            up, dn = vec.copy(), vec.copy()
            up[j] += h
            dn[j] -= h
            col = (score_alpha(values, TransitionParams.from_array(up))
                   - score_alpha(values, TransitionParams.from_array(dn))) / (2 * h)
            assert np.allclose(H[:, j], col, rtol=1e-4, atol=1e-5)


GRID1 = MeasurementGrid((0.0, 1.0))


def _dataset_with(measurements_list, xs=None, deltas=None):
    # one uncensored subject gives the risk-set workspace an event time; delta
    # does not enter the transition model
    xs = xs or [1.5] * len(measurements_list)
    deltas = deltas or [1] + [0] * (len(measurements_list) - 1)
    subs = []
    for i, (m, x, d) in enumerate(zip(measurements_list, xs, deltas)):
        subs.append(Subject(id=i, x=x, delta=d, measurements=tuple(m)))
    return dataset_of(GRID1, subs, 3.0)


def test_weighted_mle_two_point_example():
    # observed transitions (0 -> 1) and (1 -> 1): slope 0, intercept 1, ssq floored
    ds = _dataset_with([(0.0, 1.0), (1.0, 1.0)])
    atoms = _atoms(ds, [1.0, 1.0])  # latent transitions also land on 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = weighted_mle_alpha(ds, atoms)
    assert a.b == pytest.approx(0.0, abs=1e-12)
    assert a.a == pytest.approx(1.0, abs=1e-12)
    assert a.ssq == pytest.approx(1e-8)


def test_weighted_mle_floor_warns():
    ds = _dataset_with([(0.0, 1.0), (1.0, 1.0)])
    atoms = _atoms(ds, [1.0, 1.0])
    with pytest.warns(RuntimeWarning):
        weighted_mle_alpha(ds, atoms)


def test_weighted_mle_refuses_a_floor_above_the_variance_box():
    # as FitConfig does: the floored variance would lie outside the box it is asked for
    ds = _dataset_with([(0.0, 1.0), (1.0, 1.0)])
    with pytest.raises(ValidationError, match=r"^var_floor 0.5 exceeds alpha_box.s0sq's upper bound 0.1$"):
        weighted_mle_alpha(ds, _atoms(ds, [1.0, 1.0]), AlphaBox(s0sq=(1e-8, 0.1)), var_floor=0.5)


def test_weighted_mle_insufficient_data():
    ds = _dataset_with([(0.0, 1.0)])
    with pytest.raises(InsufficientDataError):
        weighted_mle_alpha(ds, _atoms(ds, [0.0]))


def test_weighted_mle_degenerate_equals_complete_mle():
    # point-mass atoms at known values reproduce the fully observed MLE
    rng = np.random.default_rng(5)
    n = 12
    seqs = [list(rng.normal(size=2)) for _ in range(n)]
    latents = [float(rng.normal()) for _ in range(n)]
    ds = _dataset_with(seqs)
    atoms = _atoms(ds, latents)
    got = weighted_mle_alpha(ds, atoms)
    full = np.array([s + [z] for s, z in zip(seqs, latents)])
    z0 = full[:, 0]
    prev = full[:, :-1].ravel()
    nxt = full[:, 1:].ravel()
    b = np.cov(prev, nxt, ddof=0)[0, 1] / np.var(prev)
    a = nxt.mean() - b * prev.mean()
    ssq = np.mean((nxt - a - b * prev) ** 2)
    assert got.mu0 == pytest.approx(z0.mean(), abs=1e-12)
    assert got.s0sq == pytest.approx(np.var(z0), abs=1e-12)
    assert got.a == pytest.approx(a, abs=1e-10)
    assert got.b == pytest.approx(b, abs=1e-10)
    assert got.ssq == pytest.approx(ssq, abs=1e-10)


def _weighted_objective(ds, atoms, vec):
    a = TransitionParams.from_array(vec)
    out = 0.0
    for s, nodes, weights in zip(subjects_of(ds), atoms.nodes, atoms.weights):
        hist = list(s.measurements)
        out += log_joint_density(hist, a)
        mean, var = cond_latent_params(hist, a)
        out += float(np.dot(weights, -0.5 * np.log(2 * np.pi * var) - (nodes - mean) ** 2 / (2 * var)))
    return out


def test_weighted_mle_matches_numerical_optimizer():
    rng = np.random.default_rng(6)
    n = 10
    seqs = [list(rng.normal(size=2)) for _ in range(n)]
    ds = _dataset_with(seqs)
    nodes, weights = np.empty((n, 5)), np.empty((n, 5))
    for i in range(n):
        nodes[i] = rng.normal(size=5)
        w = rng.uniform(0.2, 1.0, size=5)
        weights[i] = w / w.sum()
    atoms = _atoms(ds, nodes, weights)
    got = weighted_mle_alpha(ds, atoms)
    res = scipy.optimize.minimize(
        lambda v: -_weighted_objective(ds, atoms, v),
        got.as_array() + rng.normal(scale=0.05, size=5),
        method="L-BFGS-B",
        bounds=[(-10, 10), (1e-6, 100), (-10, 10), (-10, 10), (1e-6, 100)],
        options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 500},
    )
    assert np.allclose(got.as_array(), res.x, atol=1e-6)
    # stationarity: atom-weighted score sums to ~0 at the interior solution
    total = np.zeros(5)
    for s, nodes, weights in zip(subjects_of(ds), atoms.nodes, atoms.weights):
        for z, w in zip(nodes, weights):
            total += w * score_alpha(list(s.measurements) + [float(z)], got)
    assert np.max(np.abs(total)) < 1e-6 * n


def test_hessian_negative_semidefinite_at_mle():
    rng = np.random.default_rng(7)
    n = 10
    seqs = [list(rng.normal(size=2)) for _ in range(n)]
    latents = [float(rng.normal()) for _ in range(n)]
    ds = _dataset_with(seqs)
    a = weighted_mle_alpha(ds, _atoms(ds, latents))
    H = sum(hessian_alpha(s + [z], a) for s, z in zip(seqs, latents))
    assert np.max(np.linalg.eigvalsh(H)) <= 1e-8


def test_mean_information_positive_definite():
    # C6-style check: -(1/n) sum E[hessian] at the fit is positive definite
    rng = np.random.default_rng(8)
    n = 30
    seqs = [list(rng.normal(size=2)) for _ in range(n)]
    latents = [float(rng.normal()) for _ in range(n)]
    ds = _dataset_with(seqs)
    a = weighted_mle_alpha(ds, _atoms(ds, latents))
    info = -sum(hessian_alpha(s + [z], a) for s, z in zip(seqs, latents)) / n
    assert np.min(np.linalg.eigvalsh(info)) > 0


ALPHA0 = TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25)


def _mixed_named():
    # every other subject stores its terminal value; ids are strings, not positions
    ds, truths = gen_dataset(SimConfig(n=30, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                                       lambda0=0.3, censor_rate=0.2, seed=13))
    full = fullinfo_dataset(ds, truths)
    return dataset_of(ds.grid, [replace(f if i % 2 == 0 else s, id=f"s{i:02d}")
                                for i, (s, f) in enumerate(zip(subjects_of(ds), subjects_of(full)))], ds.tau)


def test_transition_stats_match_per_subject_oracles():
    ds = _mixed_named()
    beta = 0.8
    theta = Theta(alpha=ALPHA0, beta=beta, hazard=nelson_aalen(ds))
    ws = _Workspace(ds)
    est = _estep(ws, ALPHA0, beta, np.asarray(theta.hazard.jumps), 40)
    stats = ws.transition_stats(est)
    alpha = TransitionParams(0.3, 0.8, -0.2, 0.5, 0.4)  # away from the maximizer
    obj, g, H = 0.0, np.zeros(5), np.zeros((5, 5))
    for i, s in enumerate(subjects_of(ds)):
        hist = list(observed_history(s, ds.grid))
        for z, w in zip(est.nodes[i], est.weights[i]):
            obj += w * log_joint_density(hist + [z], alpha)
            g += w * score_alpha(hist + [z], alpha)
            H += w * hessian_alpha(hist + [z], alpha)
    assert stats.objective(alpha) == pytest.approx(obj, rel=1e-12)
    np.testing.assert_allclose(stats.score(alpha), g, rtol=1e-12)
    np.testing.assert_allclose(stats.hessian(alpha), H, rtol=1e-12)
    # the public call on a fresh posterior gives the same statistics' MLE
    got = weighted_mle_alpha(ds, estep_atoms(ds, theta))
    np.testing.assert_allclose(got.as_array(), stats.mle(AlphaBox().bounds())[0].as_array(), rtol=1e-12)


def test_transition_stats_score_vanishes_at_interior_mle():
    ds = _mixed_named()
    ws = _Workspace(ds)
    est = _estep(ws, ALPHA0, 0.8, np.asarray(nelson_aalen(ds).jumps), 40)
    stats = ws.transition_stats(est)
    alpha, floored = stats.mle(AlphaBox().bounds())
    lo, hi = AlphaBox().bounds().T
    assert not floored and np.all(alpha.as_array() >= lo + 1e-3) and np.all(alpha.as_array() <= hi - 1e-3)
    assert np.max(np.abs(stats.score(alpha))) <= 1e-12 * (stats.n0 + stats.N)
    assert np.max(np.linalg.eigvalsh(stats.hessian(alpha))) < 0


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1), n0=st.integers(0, 20), N=st.integers(0, 40),
       cut=st.floats(0.0, 1.0), offset=st.floats(-1e3, 1e3))
def test_transition_stats_merge_equals_whole(seed, n0, N, cut, offset):
    rng = np.random.default_rng(seed)
    z0 = offset + rng.normal(size=n0)
    prev = offset + rng.normal(size=N)
    nxt = 0.5 * prev + rng.normal(size=N)
    var = rng.uniform(0.0, 1.0, size=N)
    c0, c = int(cut * n0), int(cut * N)
    whole = np.array(astuple(TransitionStats.of(z0, prev, nxt, var)))
    merged = np.array(astuple(TransitionStats.of(z0[:c0], prev[:c], nxt[:c], var[:c]).merge(
        TransitionStats.of(z0[c0:], prev[c:], nxt[c:], var[c:]))))
    np.testing.assert_allclose(merged, whole, rtol=1e-12, atol=1e-12 * np.max(np.abs(whole)))


def _side(draw, lo_min, lo_max):
    """One side of a box: a bound pair, equal bounds (a pinned component) one time in four."""
    lo = draw(st.floats(lo_min, lo_max))
    return lo, lo if draw(st.integers(0, 3)) == 0 else lo + draw(st.floats(0.0, 2.0))


@st.composite
def _stats_and_box(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n0, N = draw(st.integers(2, 20)), draw(st.integers(1, 40))
    z0 = draw(st.floats(-3.0, 3.0)) + draw(st.floats(0.0, 2.0)) * rng.normal(size=n0)
    # all predecessors equal one time in four: the slope's curvature is 0
    prev = np.full(N, draw(st.floats(-2.0, 2.0))) if draw(st.integers(0, 3)) == 0 else rng.normal(size=N)
    nxt = draw(st.floats(-1.0, 1.0)) + draw(st.floats(-1.5, 1.5)) * prev + draw(st.floats(0.0, 1.0)) * rng.normal(size=N)
    stats = TransitionStats.of(z0, prev, nxt, rng.uniform(0.0, draw(st.floats(0.0, 0.5)), size=N))
    box = AlphaBox(mu0=_side(draw, -3.0, 3.0), s0sq=_side(draw, VAR_FLOOR, 1.0), a=_side(draw, -2.0, 2.0),
                   b=_side(draw, -2.0, 2.0), ssq=_side(draw, VAR_FLOOR, 1.0))
    return stats, box, draw(st.sampled_from([VAR_FLOOR, 0.1, 0.5]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_stats_and_box())
def test_transition_stats_mle_is_the_maximizer_over_the_box(case):
    # against L-BFGS-B over the same box, variances in logs, started from the unconstrained
    # maximizer projected one coordinate at a time (the optimizer must not end above it)
    stats, box, var_floor = case
    if var_floor > min(box.s0sq[1], box.ssq[1]):
        # the floor would put alpha outside its own box: the fit's config refuses it
        with pytest.raises(ValidationError, match="^var_floor"):
            FitConfig(alpha_box=box, var_floor=var_floor)
        return
    # the feasible set: the box with var_floor raised into its variance lower bounds
    bounds = _bounds(FitConfig(alpha_box=box, var_floor=var_floor))
    got, free = stats.mle(bounds)[0], stats.mle(AlphaBox().bounds())[0]
    logs, (lo, hi) = [1, 4], bounds[:5].T
    assert np.all((lo <= got.as_array()) & (got.as_array() <= hi))
    start = np.clip(free.as_array(), lo, hi)

    def alpha_of(v):
        v = np.array(v, dtype=float)
        v[logs] = np.clip(np.exp(v[logs]), lo[logs], hi[logs])  # exp(log) may round below the floor
        return TransitionParams.from_array(v)

    start[logs], bounds = np.log(start[logs]), np.column_stack([lo, hi])
    bounds[logs] = np.log(bounds[logs])
    res = scipy.optimize.minimize(lambda v: -stats.objective(alpha_of(v)), start, method="L-BFGS-B",
                                  bounds=bounds.tolist(), options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 1000})
    best = -float(res.fun)
    assert stats.objective(got) >= best - 1e-12 * (1 + abs(best))
    # the unconstrained maximizer, when it lies in the box, is returned as it is
    if np.all((lo <= free.as_array()) & (free.as_array() <= hi)):
        assert got == free
