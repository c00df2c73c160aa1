import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from oracles import Subject, dataset_of, dense_operator, last_index, stack_atoms

from coxjm import (
    DiscretizedOperator,
    FitConfig,
    MeasurementGrid,
    SingularOperatorError,
    Theta,
    TransitionParams,
    ValidationError,
    build_sigma_hat,
    ci,
    em_fit,
    estep_atoms,
    score_full,
    var_beta_simple,
    var_estimate,
    variance_report,
)
from coxjm.data import SieveHazard
from coxjm.simulate import SimConfig, gen_dataset
from coxjm.variance import COND_LIMIT, _solve, beta_probe, lambda_band, z_quantile

GRID0 = MeasurementGrid((0.0,))
ALPHA0 = TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25)
HIGH_MISSING = TransitionParams(0.0, 1.0, 0.0, 0.3, 1.0)  # b = 0.3, ssq = 1: a noisy latent value


@pytest.fixture(scope="module")
def fitted():
    cfg = SimConfig(n=80, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                    lambda0=0.3, censor_rate=0.2, seed=31)
    ds, _ = gen_dataset(cfg)
    fit = em_fit(ds)
    atoms = estep_atoms(ds, fit.theta_hat)
    op = build_sigma_hat(ds, fit.theta_hat, atoms)
    return ds, fit, atoms, op


def test_operator_block_shapes(fitted):
    ds, fit, atoms, op = fitted
    K = len(fit.theta_hat.hazard.times)
    assert (op.E.shape, op.G.shape) == ((6, 6), (K, 6))
    assert dense_operator(op).shape == (6 + K, 6 + K)
    A = op.E[:5, :5]
    assert np.array_equal(A, A.T)
    assert np.min(np.linalg.eigvalsh(A)) > 0
    assert np.array_equal(beta_probe(K), np.eye(1, 6 + K, 5)[0])


def test_sigma3_at_risk_fraction_constant_covariate():
    # beta=0, constant covariate: the h3 diagonal of B is the at-risk fraction
    c = 1.3
    subs = tuple(Subject(id=i, x=x, delta=d, measurements=(c,))
                 for i, (x, d) in enumerate([(0.5, 1), (1.0, 1), (1.8, 0), (2.2, 1)]))
    ds = dataset_of(GRID0, subs, 3.0)
    from coxjm.baseline import nelson_aalen

    th = Theta(alpha=ALPHA0, beta=0.0, hazard=nelson_aalen(ds))
    atoms = stack_atoms(ds, np.full((len(subs), 1), c), np.ones((len(subs), 1)),
                        th.beta, th.hazard.jumps)
    M = dense_operator(build_sigma_hat(ds, th, atoms))
    for k, t in enumerate(th.hazard.times):
        frac = sum(1 for s in subs if s.x >= t) / len(subs)
        assert M[6 + k, 6 + k] == pytest.approx(frac, abs=1e-12)
        assert M[6 + k, 5] == pytest.approx(c * frac, abs=1e-12)


def test_operator_matches_score_finite_differences(fitted):
    # operator entries are minus the directional derivatives of the observed-
    # data score (atoms recomputed at each theta); h3 rows are scaled by 1/dL_k
    ds, fit, atoms, op = fitted
    _check_operator_against_score(ds, fit.theta_hat, op)


@pytest.mark.parametrize("n, seed, alpha0", [(200, 0, ALPHA0), (200, 3, HIGH_MISSING)],
                         ids=["n200-seed0", "n200-seed3-b0.3-ssq1"])
def test_operator_matches_score_finite_differences_away_from_optimum(n, seed, alpha0):
    # the fit's Newton steps solve with the operator from the fourth update on: after the
    # three plain EM maps it is still minus the derivative of the observed score
    cfg = SimConfig(n=n, grid_step=0.25, tau=3.0, alpha0=alpha0, beta0=1.0,
                    lambda0=0.3, censor_rate=0.2, seed=seed)
    ds, _ = gen_dataset(cfg)
    fit = em_fit(ds, config=FitConfig(max_iter=3))
    assert fit.newton_steps == 0 and not fit.converged and fit.score_norm > 1e-4
    th = fit.theta_hat
    _check_operator_against_score(ds, th, build_sigma_hat(ds, th, estep_atoms(ds, th)))


def _check_operator_against_score(ds, th, op):
    K = op.K
    M = dense_operator(op)
    dL = np.asarray(th.hazard.jumps)
    h = 1e-6

    def theta_at(step):
        # step on (alpha, beta, hazard direction g3 = e_k: dL_k scaled by 1 + step)
        return Theta(alpha=TransitionParams.from_array(th.alpha.as_array() + step[:5]),
                     beta=th.beta + step[5],
                     hazard=type(th.hazard)(th.hazard.times, tuple(dL * (1 + step[6:]))))

    def unit(j):
        out = np.zeros(6 + K)
        out[j] = 1.0
        return out

    def minus_d(direction, probe):
        # -(d/dt) score_full(theta + t * direction)[probe] at t = 0
        g = unit(probe)
        up, dn = theta_at(h * unit(direction)), theta_at(-h * unit(direction))
        fd = (score_full(ds, up, (g[:5], g[5], g[6:]), atoms=None)
              - score_full(ds, dn, (g[:5], g[5], g[6:]), atoms=None)) / (2 * h)
        return -fd

    A_, BETA, HZ = 2, 5, 6  # indices of `a`, beta and the first hazard direction
    assert minus_d(BETA, BETA) == pytest.approx(M[BETA, BETA], abs=1e-5)
    for k in [0, K // 2, K - 1]:
        # the beta score along the hazard direction e_k, and the h3 = e_k score along beta
        assert minus_d(HZ + k, BETA) == pytest.approx(M[BETA, HZ + k], abs=1e-5)
        assert minus_d(BETA, HZ + k) == pytest.approx(dL[k] * M[HZ + k, BETA], abs=1e-5)
        # the same pair for the `a` score, whose entries are all missing information
        assert minus_d(HZ + k, A_) == pytest.approx(M[A_, HZ + k], rel=1e-4)
        assert minus_d(A_, HZ + k) == pytest.approx(dL[k] * M[HZ + k, A_], rel=1e-4)
    # hazard-hazard off the diagonal: two event times in one grid interval share
    # the latent windows of the subjects exiting after both
    ivl = [last_index(t, ds.grid) for t in op.times]
    k = next(k for k in range(K - 1) if ivl[k] == ivl[k + 1])
    want = dL[k] * M[HZ + k, HZ + k + 1]
    assert want != 0.0
    assert minus_d(HZ + k + 1, HZ + k) == pytest.approx(want, rel=1e-4)
    # alpha block against the mu0 and `a` directions
    assert minus_d(0, 0) == pytest.approx(op.E[0, 0], abs=1e-5)
    assert minus_d(A_, A_) == pytest.approx(op.E[2, 2], abs=1e-5)
    # alpha-beta cross entry: the `a` score along beta, and the beta score along `a`
    assert abs(M[A_, BETA]) > 1e-2
    assert minus_d(BETA, A_) == pytest.approx(M[A_, BETA], abs=1e-5)
    assert minus_d(A_, BETA) == pytest.approx(M[A_, BETA], abs=1e-5)


def test_invert_apply_round_trip(fitted):
    ds, fit, atoms, op = fitted
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = rng.normal(size=6 + op.K)
        back = op.matvec(_solve(op, g))
        assert np.allclose(back, g, atol=1e-8)


def test_bilinear_form_symmetric(fitted):
    ds, fit, atoms, op = fitted
    dL = op.dL
    rng = np.random.default_rng(1)

    def q(g, gs):
        h = _solve(op, gs)
        return float(np.dot(g[6:] * h[6:], dL)) + float(g[:6] @ h[:6])

    for _ in range(50):
        g, gs = rng.normal(size=6 + op.K), rng.normal(size=6 + op.K)
        a, b = q(g, gs), q(gs, g)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_var_estimate_alpha_block_decoupling(fitted):
    # z_0 is always observed, so (mu0, s0sq) decouple from the rest of the
    # operator; the latent terminal value couples (a, b, ssq) to (beta, Lambda)
    ds, fit, atoms, op = fitted
    joint = np.linalg.inv(dense_operator(op))
    A_inv = np.linalg.inv(op.E[:5, :5])
    for j in range(5):
        got = var_estimate(op, fit.theta_hat.hazard, np.eye(1, 6 + op.K, j)[0])
        want = float((A_inv if j < 2 else joint)[j, j])
        assert got == pytest.approx(want, rel=1e-10)
    assert joint[2, 2] > float(A_inv[2, 2]) * (1 + 1e-3)


def test_single_subject_toy_variances():
    # fully observed z=2, one event: beta is not identified from one subject,
    # so the closed form refuses, and the (h2,h3) block is exactly rank one,
    # so the full inversion refuses too
    subj = Subject(id=1, x=0.8, delta=1, measurements=(0.0, 2.0))
    ds = dataset_of(GRID0, (subj,), 3.0)
    beta = 0.4
    th = Theta(alpha=ALPHA0, beta=beta,
               hazard=SieveHazard((0.8,), (math.exp(-beta * 2.0),)))
    atoms = estep_atoms(ds, th)
    with pytest.raises(ValidationError):
        var_beta_simple(ds, th, atoms)
    op = build_sigma_hat(ds, th, atoms)
    assert np.linalg.det(dense_operator(op)[5:, 5:]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(SingularOperatorError):
        _solve(op, beta_probe(op.K))

    # add a fully observed z = 0 censored at 1.5: the one event's risk set
    # holds both values, Breslow jump 1 / (1 + e) with e = e^{2 beta}, and the
    # curvature dL (D - C^2/W) = 2 e / (1 + e)^2 per subject (the classical
    # Cox information 4 p (1 - p), p = e / (1 + e), over n = 2)
    ds = dataset_of(GRID0, (subj, Subject(id=2, x=1.5, delta=0, measurements=(0.0, 0.0))), 3.0)
    e = math.exp(2.0 * beta)
    th = Theta(alpha=ALPHA0, beta=beta, hazard=SieveHazard((0.8,), (1.0 / (1.0 + e),)))
    atoms = estep_atoms(ds, th)
    assert var_beta_simple(ds, th, atoms) == pytest.approx((1 + e) ** 2 / (2 * e), rel=1e-12)


def test_var_beta_simple_latent_toy():
    # beta = 0, so subject 0's latent Z keeps its prior N(0, ssq) as posterior.
    # Event times 0.5 (all at risk, Z = latent, 1, -1) and 1.0 (Z = 1, -1):
    # sum_k dL_k (D_k - C_k^2/W_k) = (1/3)(0.75) + (1/2)(2/3) = 7/12.  Subject 0's
    # window holds 0.5 only (A = 1/3), so its beta score is Z (1 - 1/3), with
    # variance (4/9) ssq = 1/9; over n = 3 the missing information is 1/27.
    subs = (Subject(id=0, x=0.5, delta=1, measurements=(0.0,)),
            Subject(id=1, x=1.0, delta=1, measurements=(0.0, 1.0)),
            Subject(id=2, x=2.0, delta=0, measurements=(0.0, -1.0)))
    ds = dataset_of(GRID0, subs, 3.0)
    th = Theta(alpha=ALPHA0, beta=0.0, hazard=SieveHazard((0.5, 1.0), (1 / 3, 1 / 2)))
    atoms = estep_atoms(ds, th)
    assert var_beta_simple(ds, th, atoms) == pytest.approx(1 / (7 / 12 - 1 / 27), rel=1e-10)


def test_var_beta_simple_constant_covariate():
    # every covariate equal: beta is not identified, and the closed form
    # refuses rather than report the reciprocal of an uncentred sum
    c = 1.5
    subs = tuple(Subject(id=i, x=x, delta=d, measurements=(c,))
                 for i, (x, d) in enumerate([(0.5, 1), (1.1, 1), (2.0, 0)]))
    ds = dataset_of(GRID0, subs, 3.0)
    from coxjm.baseline import nelson_aalen

    th = Theta(alpha=ALPHA0, beta=0.0, hazard=nelson_aalen(ds))
    atoms = stack_atoms(ds, np.full((len(subs), 1), c), np.ones((len(subs), 1)),
                        th.beta, th.hazard.jumps)
    with pytest.raises(ValidationError):
        var_beta_simple(ds, th, atoms)


def test_var_estimate_negative_warns():
    # a negative quadratic form is reported, not masked: force one by flipping
    # the operator sign on the (h2, h3) block of a synthetic operator
    op = DiscretizedOperator(E=np.diag([1.0] * 5 + [-1.0]), G=np.zeros((2, 6)),
                             w=-np.ones(2), v=np.zeros(2), dL=np.array([0.1, 0.2]),
                             times=np.array([0.5, 1.0]), interval=np.array([0, 1]))
    hz = SieveHazard((0.5, 1.0), (0.1, 0.2))
    with pytest.warns(RuntimeWarning):
        out = var_estimate(op, hz, beta_probe(2))
    assert out < 0


def test_operator_refuses_nonsymmetric_border():
    # M is kept by the parts of the symmetric P M, whose border is E itself
    E = np.eye(6)
    E[5, 0] = 0.5
    with pytest.raises(ValidationError, match="symmetric"):
        DiscretizedOperator(E=E, G=np.zeros((2, 6)), w=np.ones(2), v=np.zeros(2), dL=np.array([0.1, 0.2]),
                            times=np.array([0.5, 1.0]), interval=np.array([0, 1]))


def test_ci_examples(fitted):
    ds, fit, atoms, op = fitted
    v = 2.0
    lo, hi = ci(fit, v, 0.95)
    hw = 1.959964 * math.sqrt(v / ds.n)
    assert hi - lo == pytest.approx(2 * hw, rel=1e-6)
    assert 0.5 * (lo + hi) == pytest.approx(fit.theta_hat.beta, abs=1e-12)
    with pytest.raises(ValidationError):
        ci(fit, 0.0, 0.95)
    with pytest.raises(ValidationError):
        ci(fit, 1.0, 1.5)


@pytest.mark.parametrize("var", [math.nan, math.inf, 0.0, -1.0])
def test_ci_refuses_a_variance_that_is_not_finite_and_positive(fitted, var):
    with pytest.raises(ValidationError, match="^variance estimate must be finite and > 0"):
        ci(fitted[1], var, 0.95)


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_z_quantile_matches_ndtri(level):
    # the stdlib normal quantile against scipy's ndtri; at 0.95 it gives 1.9599639845400536,
    # two ulp below ndtri's 1.959963984540054
    want = float(scipy.special.ndtri(0.5 * (1.0 + level)))
    got = z_quantile(level)
    assert type(got) is float
    assert abs(got - want) <= 4 * np.spacing(want)


@pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5])
def test_z_quantile_refuses_levels_outside_the_open_unit_interval(level):
    with pytest.raises(ValidationError, match="level"):
        z_quantile(level)


def test_lambda_band_and_report(fitted):
    ds, fit, atoms, op = fitted
    band = lambda_band(op, fit.theta_hat.hazard, [1.0, 2.0, 3.0])
    assert len(band) == 3
    assert all(v > 0 for _, v in band)
    assert band[0][1] < band[2][1]  # variance grows with t
    rep = variance_report(ds, fit.theta_hat, atoms, fit)
    assert set(rep) >= {"var_beta_simple", "var_beta_full", "var_alpha", "lambda_band", "cond_B",
                        "newton_beta_step", "newton_decrement"}
    assert rep["var_beta_simple"] > 0
    assert rep["var_beta_full"] > 0
    assert len(rep["var_alpha"]) == 5


def test_variance_report_matches_single_calls(fitted, monkeypatch):
    # the report's beta variances are the single calls' values bit for bit,
    # and the condition number comes from structured solves, without an SVD
    ds, fit, atoms, op = fitted
    th = fit.theta_hat
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m: calls.append(m.shape) or cond(m))
    rep = variance_report(ds, th, atoms, fit)
    assert calls == []
    monkeypatch.undo()
    # 1-norm and 2-norm condition numbers agree within the dimension
    M = dense_operator(op)
    c2 = np.linalg.cond(M)
    assert c2 / (6 + op.K) <= op.cond <= c2 * (6 + op.K)
    assert rep["cond_B"] == op.cond
    assert rep["var_beta_simple"] == var_beta_simple(ds, th, atoms)
    assert rep["var_beta_full"] == var_estimate(op, th.hazard, beta_probe(op.K))
    assert rep["var_alpha"] == pytest.approx(np.diag(np.linalg.inv(M))[:5], rel=1e-10)


def test_operator_cond_reproducible():
    # the same parts in fresh operators, with the heap shifted in between
    # (the raw estimate can move in its last bits with where its arrays sit)
    rng = np.random.default_rng(0)
    K = 300
    E = rng.standard_normal((6, 6))
    parts = dict(E=E + E.T + math.sqrt(K) * np.eye(6), G=rng.standard_normal((K, 6)),
                 w=math.sqrt(K) + rng.standard_normal(K), v=rng.uniform(0.0, 0.5, K),
                 dL=rng.uniform(0.5, 1.5, K), times=np.arange(1.0, K + 1),
                 interval=np.repeat(np.arange(10), 30))
    keep, conds = [], set()
    for r in range(20):
        keep += [bytearray(int(s)) for s in np.random.default_rng(r).integers(1, 3000, 50)]
        conds.add(DiscretizedOperator(**{k: np.array(a) for k, a in parts.items()}).cond)
    assert len(conds) == 1
    assert math.isfinite(conds.pop())


def test_variance_report_degenerate_data(tmp_path):
    # one subject: beta is not identified and the operator is singular, so
    # every variance is reported as null instead of aborting the report
    from coxjm.data import SieveHazard
    from coxjm.io import save_json

    subj = Subject(id=1, x=0.8, delta=1, measurements=(0.0, 2.0))
    ds = dataset_of(GRID0, (subj,), 3.0)
    th = Theta(alpha=ALPHA0, beta=0.4, hazard=SieveHazard((0.8,), (math.exp(-0.8),)))
    rep = variance_report(ds, th, estep_atoms(ds, th), None)
    assert rep["var_beta_simple"] is None
    assert rep["var_beta_full"] is None
    assert rep["var_alpha"] == [None] * 5
    assert rep["lambda_band"] is None
    assert rep["newton_beta_step"] is None and rep["newton_decrement"] is None
    save_json(rep, tmp_path / "variance.json")


def test_variance_report_states_the_optimisation_error():
    # h_beta of the Newton step at the fit is the distance of beta-hat from the maximizer:
    # after 3 EM maps and 2 Newton steps it is 5.43e-5, estimated to 7e-5 relative; at the
    # converged fit both it and the decrement <g, h> fall to rounding (5e-16 and 6e-31)
    cfg = SimConfig(n=200, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                    lambda0=0.3, censor_rate=0.2, seed=0)
    ds, _ = gen_dataset(cfg)
    tight = em_fit(ds, config=FitConfig(tol_param=1e-11, tol_score=1e-11))
    early, fit = em_fit(ds, config=FitConfig(max_iter=5)), em_fit(ds)
    assert (early.newton_steps, early.converged, fit.converged) == (2, False, True)
    rep = variance_report(ds, early.theta_hat, early.posterior, early)
    err = tight.theta_hat.beta - early.theta_hat.beta
    assert abs(err) > 1e-5 and rep["newton_beta_step"] == pytest.approx(err, rel=1e-3)
    assert rep["newton_decrement"] > 0
    rep = variance_report(ds, fit.theta_hat, fit.posterior, fit)
    assert abs(rep["newton_beta_step"]) <= 1e-12 and abs(rep["newton_decrement"]) <= 1e-20


def test_probe_length_validated(fitted):
    # a probe holds h1, h2 and one h3 value per event time: 6 + K finite values
    ds, fit, atoms, op = fitted
    with pytest.raises(ValidationError, match=rf"shape \({op.K + 7},\).*6 \+ K = {op.K + 6}\b"):
        var_estimate(op, fit.theta_hat.hazard, beta_probe(op.K + 1))
    nan = beta_probe(op.K)
    nan[7] = math.nan
    with pytest.raises(ValidationError, match="finite"):
        var_estimate(op, fit.theta_hat.hazard, nan)


def test_time_grid_validated(fitted):
    ds, fit, atoms, op = fitted
    hz = fit.theta_hat.hazard
    for grid in ([1.0, math.nan], [[1.0, 2.0]], [math.inf]):
        with pytest.raises(ValidationError):
            lambda_band(op, hz, grid)
        with pytest.raises(ValidationError):
            variance_report(ds, fit.theta_hat, atoms, fit, t_grid=grid)
    assert lambda_band(op, hz, []) == []
    assert variance_report(ds, fit.theta_hat, atoms, fit, t_grid=[])["lambda_band"] == []


def test_var_estimate_refuses_foreign_hazard(fitted):
    # the hazard weights the h3 part of the quadratic form, so only the
    # operator's own (same times, same jumps) is accepted
    ds, fit, atoms, op = fitted
    hz = fit.theta_hat.hazard
    g = np.concatenate([np.zeros(6), op.times <= 1.5])
    assert var_estimate(op, hz, g) > 0
    doubled = SieveHazard(hz.times, tuple(2.0 * j for j in hz.jumps))
    shifted = SieveHazard(tuple(t + 1e-6 for t in hz.times), hz.jumps)
    for other in (doubled, shifted):
        with pytest.raises(ValidationError):
            var_estimate(op, other, g)
        with pytest.raises(ValidationError):
            lambda_band(op, other, [1.0])


def _dense_report(op, hazard, t_grid):
    """variance_report's operator values from dense LAPACK on the oracle matrix."""
    M = dense_operator(op)
    lu = scipy.linalg.lapack.dgetrf(M)[0]
    rcond = scipy.linalg.lapack.dgecon(lu, np.linalg.norm(M, 1), norm="1")[0]
    dL = np.asarray(hazard.jumps)
    K = op.K
    g3 = (op.times[:, None] <= np.asarray(t_grid)[None, :]).astype(float)
    rhs = np.concatenate([np.eye(6 + K, 6), np.concatenate([np.zeros((6, g3.shape[1])), g3])], axis=1)
    sol = np.linalg.solve(M, rhs)
    return {"cond_B": float(f"{1.0 / rcond:.6g}"), "var_beta_full": sol[5, 5],
            "var_alpha": list(np.diag(sol[:5, :5])),
            "lambda_band": [float(np.dot(g3[:, j] * sol[6:, 6 + j], dL)) for j in range(g3.shape[1])]}


@pytest.mark.parametrize("n, step, seed", [(200, 0.25, s) for s in range(8)] + [
    pytest.param(n, step, s, marks=pytest.mark.slow)
    for n, step in [(2000, 0.25), (1000, 0.02)] for s in range(3)])
def test_structured_operator_matches_dense_oracle(n, step, seed):
    ds, _ = gen_dataset(SimConfig(n=n, grid_step=step, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                                  lambda0=0.3, censor_rate=0.2, seed=seed))
    fit = em_fit(ds)
    th = fit.theta_hat
    op = build_sigma_hat(ds, th, fit.posterior)
    M = dense_operator(op)
    x = np.random.default_rng(seed).standard_normal((6 + op.K, 3))

    def close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    close(op.solve(x), np.linalg.solve(M, x))
    close(op.solve(x, trans=True), np.linalg.solve(M.T, x))
    close(op.matvec(x), M @ x)
    assert op.norm1 == pytest.approx(np.linalg.norm(M, 1), rel=1e-14)

    t_grid = np.linspace(0.0, ds.tau, 11)[1:]
    rep = variance_report(ds, th, fit.posterior, fit, t_grid=t_grid)
    want = _dense_report(op, th.hazard, t_grid)
    assert rep["cond_B"] == want["cond_B"]
    assert rep["var_beta_full"] == pytest.approx(want["var_beta_full"], rel=1e-10)
    assert rep["var_alpha"] == pytest.approx(want["var_alpha"], rel=1e-10)
    assert [t for t, _ in rep["lambda_band"]] == list(t_grid)
    assert [v for _, v in rep["lambda_band"]] == pytest.approx(want["lambda_band"], rel=1e-10)


@pytest.mark.parametrize("K, n_intervals", [(1, 1), (2, 1), (2, 2), (3, 3), (40, 1), (40, 7), (300, 25)])
def test_structured_operator_matches_dense_oracle_random(K, n_intervals):
    # random parts whose hazard columns carry the 1-norm, and systems of order
    # 1 and 2, which LAPACK's tridiagonal wrapper does not take unpadded
    rng = np.random.default_rng(K * 100 + n_intervals)
    E = 0.25 * rng.standard_normal((6, 6))
    op = DiscretizedOperator(E=E + E.T + 2 * np.eye(6), G=rng.standard_normal((K, 6)) / K,
                             w=10.0 + rng.random(K), v=rng.uniform(-1.0, 2.0, K),
                             dL=rng.uniform(0.1, 1.0, K), times=np.arange(1.0, K + 1),
                             interval=np.sort(rng.integers(0, n_intervals, K)))
    M = dense_operator(op)
    x = rng.standard_normal((6 + K, 2))
    np.testing.assert_allclose(op.solve(x), np.linalg.solve(M, x), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(op.solve(x, trans=True), np.linalg.solve(M.T, x), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(op.matvec(x), M @ x, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(op.solve(x[:, 0]), np.linalg.solve(M, x[:, 0]), rtol=1e-10, atol=1e-12)
    assert op.norm1 == pytest.approx(np.linalg.norm(M, 1), rel=1e-14)
    assert np.max(np.abs(M[:, 6:]).sum(0)) == np.linalg.norm(M, 1)
    lu = scipy.linalg.lapack.dgetrf(M)[0]
    rcond = scipy.linalg.lapack.dgecon(lu, np.linalg.norm(M, 1), norm="1")[0]
    assert op.cond == float(f"{1.0 / rcond:.6g}")


def test_variance_report_memory_is_linear_in_n():
    # K is about 10400 here: the dense (6+K)^2 operator alone would take about 860 MB
    ds, _ = gen_dataset(SimConfig(n=20000, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                                  lambda0=0.3, censor_rate=0.2, seed=0))
    fit = em_fit(ds, config=FitConfig(max_iter=2))
    tracemalloc.start()
    try:
        rep = variance_report(ds, fit.theta_hat, fit.posterior, fit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(rep["cond_B"])
    assert peak < 128 * 2**20


def _large_norm_operator():
    """A random operator whose hazard rows carry 1/dL with dL about 1e-9, so ||M||_1 is
    about 1e11 while cond stays below COND_LIMIT, and a right-hand side for it."""
    K = 300
    rng = np.random.default_rng(0)
    E = 0.25 * rng.standard_normal((6, 6))
    dL = rng.uniform(0.1, 1.0, K) * 1e-9
    op = DiscretizedOperator(E=E + E.T + 2 * np.eye(6), G=rng.standard_normal((K, 6)) / dL[:, None] / K,
                             w=(10.0 + rng.random(K)) / dL, v=0.01 * rng.uniform(-1.0, 2.0, K) / dL**2,
                             dL=dL, times=np.arange(1.0, K + 1), interval=np.sort(rng.integers(0, 25, K)))
    return op, rng.standard_normal(6 + K)


def test_solve_gate_reads_backward_error_not_residual():
    # the residual grows with ||M||: relative to max(1, ||b||) it exceeds 1e-8 here, yet
    # the solve is backward stable, and the gate reads the normwise backward error
    op, b = _large_norm_operator()
    assert op.norm1 > 1e10 and op.cond <= COND_LIMIT
    x = op.solve(b)
    assert np.linalg.norm(op.matvec(x) - b) / max(1.0, np.linalg.norm(b)) > 1e-8
    assert np.array_equal(_solve(op, b), x)


def test_solve_gate_refuses_perturbed_solution(monkeypatch):
    # a solution off by a relative 1e-8 leaves a backward error of about 1e-10, above SOLVE_TOL
    op, g = _large_norm_operator()
    op.cond  # estimated, and cached, with the exact solves
    solve = DiscretizedOperator.solve
    rng = np.random.default_rng(1)
    monkeypatch.setattr(DiscretizedOperator, "solve",
                        lambda self, rhs, trans=False: solve(self, rhs, trans) * (1 + 1e-8 * rng.standard_normal(rhs.shape)))
    with pytest.raises(SingularOperatorError, match="backward error too large"):
        _solve(op, g)
