"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte Carlo criteria (7, 8, 10) share two fixed-seed studies and run for
several minutes; deselect them with `-m "not slow"` for a quick pass.
Criterion 8 checks the calibration of both variance estimators, which use the
observed-data information (complete-data curvature minus the conditional
covariance of the complete-data score, Louis 1982).
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.optimize
from oracles import DenseRisk, Subject, cond_exp, dataset_of, oracle_moments, posterior_atoms

from coxjm import (
    AlphaBox,
    FitConfig,
    MeasurementGrid,
    Theta,
    TransitionParams,
    em_fit,
    estep_atoms,
    lambda_update,
    nelson_aalen,
    observed_loglik,
    score_full,
)
from coxjm.baseline import partial_lik_fit
from coxjm.simulate import SimConfig, fullinfo_dataset, gen_dataset
from coxjm.study import StudyConfig, run_study
from coxjm.variance import _solve, build_sigma_hat
from coxjm.workspace import _risk_cols, _workspace_of

ALPHA0 = TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25)
BETA0 = 1.0


def _default_sim(n, seed):
    return SimConfig(n=n, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=BETA0,
                     lambda0=0.3, censor_rate=0.2, seed=seed)


def _report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line, flush=True)
    assert ok, line


# -------------------------------------------------------------------- 1
def test_criterion_1_reduction_equivalence():
    t0 = time.perf_counter()
    cfg = FitConfig(tol_param=1e-11, tol_score=1e-10, id_tol=1e-13)
    worst_b = worst_l = 0.0
    for seed in range(20):
        ds, truths = gen_dataset(_default_sim(50, 1100 + seed))
        full = fullinfo_dataset(ds, truths)
        fit = em_fit(full, config=cfg)
        pl = partial_lik_fit(full, imputation="next")
        worst_b = max(worst_b, abs(fit.theta_hat.beta - pl.beta_pl))
        worst_l = max(worst_l, float(np.max(np.abs(
            np.cumsum(fit.theta_hat.hazard.jumps) - np.cumsum(pl.breslow.jumps)))))
    elapsed = time.perf_counter() - t0
    ok = worst_b <= 1e-6 and worst_l <= 1e-8 and elapsed < 5.0
    _report(1, ok, f"max|dbeta|={worst_b:.2e} (<=1e-6), sup|dLambda|={worst_l:.2e} "
                   f"(<=1e-8), {elapsed:.2f}s (<5s) over 20 full-information fits")


# -------------------------------------------------------------------- 2
def test_criterion_2_nelson_aalen_reduction():
    worst = 0.0
    for seed in range(5):
        ds, _ = gen_dataset(_default_sim(40, 1200 + seed))
        na = np.asarray(nelson_aalen(ds).jumps)
        atoms = estep_atoms(ds, Theta(alpha=ALPHA0, beta=0.0, hazard=nelson_aalen(ds)))
        hz = lambda_update(ds, atoms, 0.0)
        worst = max(worst, float(np.max(np.abs(np.asarray(hz.jumps) - na))))
        fit = em_fit(ds, config=FitConfig(beta_box=0.0))
        worst = max(worst, float(np.max(np.abs(np.asarray(fit.theta_hat.hazard.jumps) - na))))
    _report(2, worst <= 1e-12, f"max|dLambda jumps - Nelson-Aalen| = {worst:.2e} (<=1e-12)")


# -------------------------------------------------------------------- 3 & 4
@pytest.fixture(scope="module")
def randomized_fits():
    rng = np.random.default_rng(2024)
    fits = []
    for trial in range(100):
        n = int(rng.integers(10, 30))
        cfg = SimConfig(n=n, grid_step=0.25, tau=3.0, alpha0=ALPHA0,
                        beta0=float(rng.uniform(-1.0, 1.5)), lambda0=float(rng.uniform(0.2, 0.6)),
                        censor_rate=float(rng.uniform(0.0, 0.4)), seed=1300 + trial)
        ds, _ = gen_dataset(cfg)
        fits.append((ds, em_fit(ds, config=FitConfig(max_iter=400))))
    return fits


def test_criterion_3_em_ascent(randomized_fits):
    violations = 0
    for ds, fit in randomized_fits:
        tr = np.asarray(fit.loglik_trace)
        if np.any(np.diff(tr) < -1e-8):
            violations += 1
    _report(3, violations == 0,
            f"{violations} ascent violations (tol 1e-8/step) across {len(randomized_fits)} randomized fits")


def test_criterion_4_fixed_point_and_score_certificate(randomized_fits):
    worst_id = worst_sc = 0.0
    n_conv = 0
    for ds, fit in randomized_fits:
        if not fit.converged:
            continue
        n_conv += 1
        th = fit.theta_hat
        atoms = estep_atoms(ds, th)
        K = len(th.hazard.times)
        wn = _risk_cols(_workspace_of(ds, atoms), atoms, th.beta)[:, 0] / ds.n
        worst_id = max(worst_id, float(np.max(np.abs(np.asarray(th.hazard.jumps) * wn - 1.0 / ds.n))))
        probes = [(np.eye(5)[j], 0.0, np.zeros(K)) for j in range(5)]
        probes.append((np.zeros(5), 1.0, np.zeros(K)))
        probes.extend((np.zeros(5), 0.0, np.eye(K)[k]) for k in range(K))
        worst_sc = max(worst_sc, max(abs(score_full(ds, th, h, atoms=atoms)) for h in probes))
    ok = n_conv >= 95 and worst_id <= 1e-10 and worst_sc <= 1e-6
    _report(4, ok, f"{n_conv}/100 converged; max|dL*w_n - 1/n| = {worst_id:.2e} (<=1e-10); "
                   f"max canonical |score| = {worst_sc:.2e} (<=1e-6)")


# -------------------------------------------------------------------- 5
def test_criterion_5_oracle_global_maximum():
    t0 = time.perf_counter()
    grid = MeasurementGrid((0.0, 0.5))
    subs = (
        Subject(id=1, x=0.35, delta=1, measurements=(0.2,)),
        Subject(id=2, x=0.80, delta=1, measurements=(-0.5, 0.1)),
        Subject(id=3, x=1.25, delta=1, measurements=(0.9, 0.6)),
        Subject(id=4, x=1.50, delta=0, measurements=(0.0, -0.3)),
        Subject(id=5, x=0.60, delta=0, measurements=(0.4, 0.8)),
    )
    ds = dataset_of(grid, subs, 1.5)
    frozen = AlphaBox(**{k: (float(v), float(v)) for k, v in ALPHA0.to_dict().items()})
    fit = em_fit(ds, config=FitConfig(alpha_box=frozen, tol_param=1e-10, tol_score=1e-9,
                                      id_tol=1e-12))
    assert fit.converged
    em_point = np.array([fit.theta_hat.beta, *fit.theta_hat.hazard.jumps])
    em_ll = observed_loglik(ds, fit.theta_hat)

    dense = DenseRisk(ds)

    def ll_points(points):
        """Log likelihood at each row (beta, dL_1, dL_2, dL_3), one oracle call per beta."""
        out = np.full(len(points), -np.inf)
        ok = np.all(points[:, 1:] > 0, axis=1)
        for b in np.unique(points[ok, 0]):
            rows = ok & (points[:, 0] == b)
            out[rows] = dense.loglik(ALPHA0, float(b), points[rows, 1:].T)
        return out

    def ll_vec(v):
        return float(ll_points(np.asarray([v], dtype=float))[0])

    # coarse global grid, then a 1e-2 local grid, then simplex polish
    bg = np.arange(-3.0, 3.01, 0.25)
    jg = np.geomspace(0.02, 2.0, 14)
    coarse = np.array(list(itertools.product(bg, jg, jg, jg)))
    vals = ll_points(coarse)
    best, best_val = coarse[np.argmax(vals)], float(np.max(vals))
    offs = np.arange(-0.05, 0.0501, 0.01)
    local = best + np.array(list(itertools.product(offs, offs, offs, offs)))
    vals = ll_points(local)
    if np.max(vals) > best_val:
        best, best_val = local[np.argmax(vals)], float(np.max(vals))
    res = scipy.optimize.minimize(
        lambda u: -ll_vec([u[0], *np.exp(u[1:])]),
        np.array([best[0], *np.log(best[1:])]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000, "maxfev": 8000},
    )
    oracle_point = np.array([res.x[0], *np.exp(res.x[1:])])
    oracle_ll = -res.fun
    elapsed = time.perf_counter() - t0
    coord_err = float(np.max(np.abs(oracle_point - em_point)))
    ll_err = abs(oracle_ll - em_ll)
    ok = coord_err <= 1e-3 and ll_err <= 1e-6 and elapsed < 60.0
    _report(5, ok, f"max coordinate gap {coord_err:.2e} (<=1e-3), loglik gap {ll_err:.2e} "
                   f"(<=1e-6), {elapsed:.1f}s (<60s)")


# -------------------------------------------------------------------- 6
def test_criterion_6_quadrature_accuracy():
    rng = np.random.default_rng(6)
    grid = MeasurementGrid((0.0,))
    worst = 0.0
    for trial in range(100):
        delta = int(rng.integers(0, 2))
        beta = float(rng.uniform(0.2, 1.2)) * (1 if rng.random() < 0.8 else -1)
        mean = float(rng.uniform(0.2, 1.5))
        ssq = float(rng.uniform(0.09, 1.0))
        alpha = TransitionParams(0.0, 1.0, mean, 0.5, ssq)
        subj = Subject(id=trial, x=1.0, delta=delta, measurements=(0.0,))
        times = (0.5, 1.0) if delta else (0.5, 0.9)
        from coxjm.data import SieveHazard

        th = Theta(alpha=alpha, beta=beta, hazard=SieveHazard(
            times, (float(rng.uniform(0.05, 0.9)), float(rng.uniform(0.05, 0.9)))))
        at = posterior_atoms(subj, th, 40, grid)

        def ex(z):
            return np.exp(np.minimum(beta * np.asarray(z), 700.0))

        for g in (lambda z: np.asarray(z), ex,
                  lambda z: np.asarray(z) * ex(z),
                  lambda z: np.asarray(z) ** 2 * ex(z)):
            q = cond_exp(at, g)
            o = oracle_moments(subj, th, g, 20000, grid)
            worst = max(worst, abs(q - o) / max(abs(o), 1e-9))
    _report(6, worst <= 1e-6,
            f"worst relative moment error vs trapezoid oracle = {worst:.2e} (<=1e-6), 100 cases x 4 moments")


# -------------------------------------------------------------------- 7, 8, 10
@pytest.fixture(scope="module")
def study_n100():
    cfg = StudyConfig(sim=_default_sim(100, 8100), fit=FitConfig(),
                      replications=200, estimators=("npml",), workers=2)
    return run_study(cfg)


@pytest.fixture(scope="module")
def study_n400():
    cfg = StudyConfig(sim=_default_sim(400, 8400), fit=FitConfig(),
                      replications=200, estimators=("npml", "lvcf"), workers=2)
    return run_study(cfg)


@pytest.fixture(scope="module")
def study_coverage():
    cfg = StudyConfig(sim=_default_sim(200, 8200), fit=FitConfig(),
                      replications=300, estimators=("npml",), workers=2)
    return run_study(cfg)


def _row(report, estimator):
    return next(r for r in report.rows if r["estimator"] == estimator)


@pytest.mark.slow
def test_criterion_7_consistency_scaling(study_n100, study_n400):
    r100 = _row(study_n100, "npml")
    r400 = _row(study_n400, "npml")
    ratio = r400["rmse"] / r100["rmse"]
    ok = (abs(r400["mean_bias"]) <= abs(r100["mean_bias"])
          and 0.40 <= ratio <= 0.65
          and r400["mean_sup_lambda_err"] < r100["mean_sup_lambda_err"]
          and not study_n100.invalid and not study_n400.invalid)
    _report(7, ok, f"|bias| {abs(r100['mean_bias']):.4f} -> {abs(r400['mean_bias']):.4f} "
                   f"(must not grow); RMSE ratio {ratio:.3f} (in [0.40, 0.65]); "
                   f"sup-Lambda err {r100['mean_sup_lambda_err']:.4f} -> "
                   f"{r400['mean_sup_lambda_err']:.4f} (decreasing); "
                   f"R=200 each, n in {{100,400}}")


@pytest.mark.slow
def test_criterion_8_coverage(study_coverage):
    r = _row(study_coverage, "npml")
    cs, cf = r["coverage_simple"], r["coverage_full"]
    ok = 0.90 <= cs <= 0.99 and 0.90 <= cf <= 0.99 and not study_coverage.invalid
    _report(8, ok, f"95% CI coverage at n=200, R=300: simple {cs:.3f}, full {cf:.3f} "
                   f"(each required in [0.90, 0.99]); empirical SD {r['emp_sd']:.4f} vs "
                   f"mean SE simple {r['mean_se_simple']:.4f} / full {r['mean_se_full']:.4f}"
                   " -- an operator that leaves out the missing information on the "
                   "latent covariate values overstates precision")


@pytest.mark.slow
def test_criterion_10_comparator_contrast(study_n400):
    rn = _row(study_n400, "npml")
    rl = _row(study_n400, "lvcf")
    ok = abs(rn["mean_bias"]) < abs(rl["mean_bias"]) and not study_n400.invalid
    _report(10, ok, f"|bias| at n=400, R=200: npml {abs(rn['mean_bias']):.4f} < "
                    f"lvcf {abs(rl['mean_bias']):.4f} (LVCF attenuates under b<1, ssq>0)")


# -------------------------------------------------------------------- 9
def test_criterion_9_variance_operator_algebra():
    rng = np.random.default_rng(9)
    worst_rt = worst_sym = 0.0
    min_eig = math.inf
    op_for_probes = None
    hz = None
    for seed in range(10):
        ds, _ = gen_dataset(_default_sim(60, 1900 + seed))
        fit = em_fit(ds)
        th = fit.theta_hat
        atoms = estep_atoms(ds, th)
        op = build_sigma_hat(ds, th, atoms)
        min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(op.E[:5, :5]))))
        if op_for_probes is None:
            op_for_probes, hz = op, th.hazard
    for _ in range(50):
        g, gs = rng.normal(size=6 + op_for_probes.K), rng.normal(size=6 + op_for_probes.K)
        back = op_for_probes.matvec(_solve(op_for_probes, g))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - g))))

        def q(a, b):
            hb = _solve(op_for_probes, b)
            return float(np.dot(a[6:] * hb[6:], op_for_probes.dL)) + float(a[5] * hb[5]) + float(a[:5] @ hb[:5])

        qa, qb = q(g, gs), q(gs, g)
        worst_sym = max(worst_sym, abs(qa - qb) / max(1.0, abs(qa)))
    ok = worst_rt <= 1e-8 and worst_sym <= 1e-8 and min_eig > 0
    _report(9, ok, f"round-trip residual {worst_rt:.2e} (<=1e-8); bilinear symmetry "
                   f"{worst_sym:.2e} (<=1e-8) on 50 probe pairs; min eig(A) = {min_eig:.3f} > 0 "
                   "on 10 simulated fits")
