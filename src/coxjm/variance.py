"""Asymptotic variance estimation via the discretized observed information operator.

Probes are h = (h1, h2, h3) with h1 a 5-vector for the transition parameters,
h2 scalar for the regression coefficient and h3 a function carried by its
values at the event times (the estimated hazard charges nothing else).  The
estimator is an NPMLE, so the operator is the observed-data information.  By
Louis's identity (Louis 1982, JRSS-B 44:226) that is the conditional expected
complete-data curvature minus (1/n) sum_i Cov_i[complete-data score | y_i].
The latent terminal value Z enters the alpha, beta and hazard scores alike,
so the missing-information term couples all three: the operator is one joint
matrix on (h1, h2, h3(x_1), ..., h3(x_K)) with a 5x5 alpha block A, a
(1+K)x(1+K) block B on (h2, h3) and a cross block C.  Rows carrying h3(x_k)
are scaled by 1/dL_k.  The variance of the estimator paired with a probe g is
the quadratic form

    sum_k g3(x_k) h3(x_k) dL_k + g2 h2 + g1' h1,    where sigma-hat(h) = g.

Each subject's latent window lies inside one grid interval, so the
hazard-hazard part of the missing information is block diagonal by interval.

A closed-form estimate for the beta variance is reported next to the full
inversion: the beta curvature centred on each risk set, minus the beta
missing information.  It ignores the coupling between event times and with
alpha, so the two agree only asymptotically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.special import ndtri

from .data import Dataset, SieveHazard, Theta
from .exceptions import SingularOperatorError, ValidationError
from .fit import FitResult, Posterior, _hazard_jumps, _workspace_of
from .posterior import EXP_CLIP

COND_LIMIT = 1e12
# the centred beta curvature must exceed this share of the uncentred one
SIMPLE_RTOL = 1e-10


@dataclass(frozen=True)
class Probe:
    """A direction h = (h1, h2, h3-values-at-event-times)."""

    h1: np.ndarray
    h2: float
    h3: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h1", np.asarray(self.h1, dtype=float).reshape(5))
        object.__setattr__(self, "h2", float(self.h2))
        object.__setattr__(self, "h3", np.asarray(self.h3, dtype=float).ravel())
        if not (np.all(np.isfinite(self.h1)) and math.isfinite(self.h2)
                and np.all(np.isfinite(self.h3))):
            raise ValidationError("probe components must be finite")


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Finite representation of the estimated information operator.

    `matrix` is the joint (6+K)x(6+K) matrix on (h1, h2, h3 at event times).
    A, B and C are views of its alpha block, its (h2, h3) block and its
    alpha-row cross block; the (h2, h3)-row cross block is C transposed with
    the h3 rows scaled by 1/dL.  Omitting C leaves alpha decoupled.
    """

    A: np.ndarray          # 5x5 alpha block
    B: np.ndarray          # (1+K)x(1+K) block on (h2, h3 at event times)
    dL: np.ndarray         # hazard jumps used as integration weights
    times: np.ndarray      # event times carrying h3
    C: np.ndarray | None = None        # 5x(1+K) alpha rows, (h2, h3) columns
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dL = np.asarray(self.dL, dtype=float)
        K = dL.size
        if np.shape(self.A) != (5, 5) or np.shape(self.B) != (1 + K, 1 + K):
            raise ValidationError("operator blocks do not match the hazard support")
        m = np.zeros((6 + K, 6 + K))
        m[:5, :5] = self.A
        m[5:, 5:] = self.B
        if self.C is not None:
            m[:5, 5:] = self.C
            m[5:, :5] = np.asarray(self.C, dtype=float).T / np.concatenate([[1.0], dL])[:, None]
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "A", m[:5, :5])
        object.__setattr__(self, "B", m[5:, 5:])
        object.__setattr__(self, "C", m[:5, 5:])

    @property
    def K(self) -> int:
        return self.dL.size

    @cached_property
    def cond(self) -> float:
        """1-norm condition number estimate of the joint matrix (LAPACK gecon on its LU).

        It lies within a factor 6+K of the 2-norm condition number; inf when
        the LU factorization meets an exact zero pivot.  gecon's last bits
        depend on where its work arrays sit in memory, so the estimate is
        rounded to 6 significant digits, which keeps it reproducible.
        """
        lu, _, info = self._lu
        if info != 0 or not np.all(np.isfinite(lu)):
            return math.inf
        rcond, _ = scipy.linalg.lapack.dgecon(lu, np.linalg.norm(self.matrix, 1), norm="1")
        return float(f"{1.0 / rcond:.6g}") if rcond > 0 else math.inf

    @cached_property
    def _lu(self):
        """LU factors, pivots and LAPACK info of the joint matrix, computed once."""
        return scipy.linalg.lapack.dgetrf(self.matrix)


def beta_probe(K: int) -> Probe:
    return Probe(np.zeros(5), 1.0, np.zeros(K))


@dataclass(frozen=True)
class _InfoParts:
    """Complete-information columns and missing-information pieces at a fit."""

    post: Posterior
    dL: np.ndarray
    w: np.ndarray        # W_n(x_k) = (1/n) sum_i E_i[e^{bZ(x_k)} 1{x_k <= X_i}]
    c: np.ndarray        # (1/n) sum_i E_i[Z e^{bZ} ...], same support
    d: np.ndarray        # (1/n) sum_i E_i[Z^2 e^{bZ} ...]
    miss: np.ndarray     # (1/n) sum_i Cov_i of the first four terms, symmetrized
    cross: np.ndarray    # 4 x K: (1/n) sum over windows holding x_k of Cov_i[term j, e^{bZ}]
    var_e: np.ndarray    # (1/n) sum over windows holding x_k of Var_i(e^{bZ})


def _latent_covariances(ws, est, alpha, beta: float) -> np.ndarray:
    """Per-subject posterior covariances of the Z-dependent complete-score terms.

    The terms, in order: the a, b and ssq scores r/ssq, z_pred r/ssq and
    r^2/(2 ssq^2) with r = Z - a - b z_pred; the beta score
    delta Z - Z e^{bZ} A_i with A_i the hazard mass of the latent window; and
    e^{bZ}, which times -dL_k is the hazard score at x_k in the window.
    """
    Z, w = est.nodes, est.weights
    r = Z - (alpha.a + alpha.b * ws.z_pred)[:, None]
    e = np.exp(np.minimum(beta * Z, EXP_CLIP))
    F = np.stack([r / alpha.ssq, ws.z_pred[:, None] * r / alpha.ssq,
                  r * r / (2 * alpha.ssq**2),
                  (ws.delta[:, None] - est.a_lat[:, None] * e) * Z, e], axis=1)
    F -= np.einsum("iq,ifq->if", w, F)[:, :, None]
    return (F * w[:, None, :]) @ F.transpose(0, 2, 1)


def _info_parts(dataset: Dataset, theta_hat: Theta, atoms: Posterior) -> _InfoParts:
    ws = _workspace_of(dataset, atoms)
    dL = _hazard_jumps(ws, theta_hat.hazard)
    beta = theta_hat.beta
    cov = _latent_covariances(ws, atoms, theta_hat.alpha, beta)
    n = ws.n
    w, c, d = ws.cols(ws.obs_mats(beta)[1], ws.moments(atoms, beta)).T / n
    # sums over the subjects whose latent window holds x_k, one column each
    lat = ws.cols(None, np.where(ws.has_extra[:, None], 0.0,
                                 np.column_stack([cov[:, :4, 4], cov[:, 4, 4]]))) / n
    miss = np.sum(cov[:, :4, :4], axis=0) / n
    return _InfoParts(atoms, dL, w, c, d, 0.5 * (miss + miss.T), lat[:, :4].T, lat[:, 4])


def build_sigma_hat(dataset: Dataset, theta_hat: Theta, atoms: Posterior) -> DiscretizedOperator:
    """Assemble the observed information operator at a converged fit with its atoms."""
    return _operator(_info_parts(dataset, theta_hat, atoms), theta_hat.alpha)


def _operator(p: _InfoParts, alpha) -> DiscretizedOperator:
    ws, dL = p.post.ws, p.dL
    K = ws.K
    A = -ws.transition_stats(p.post).hessian(alpha) / ws.n
    A[2:, 2:] -= p.miss[:3, :3]

    B = np.zeros((1 + K, 1 + K))
    B[0, 0] = float(np.dot(p.d, dL)) - p.miss[3, 3]
    B[0, 1:] = (p.c + p.cross[3]) * dL
    B[1:, 0] = p.c + p.cross[3]
    B[np.arange(1, 1 + K), np.arange(1, 1 + K)] = p.w
    # hazard-hazard: dL_l (1/n) sum over windows holding x_k and x_l of Var_i(e^{bZ}).
    # A latent window lies inside one grid interval, so this is nonzero only
    # within an interval, where the windows holding both are those holding the later
    starts = np.flatnonzero(np.diff(ws.a_e, prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], K)):
        later = np.maximum.outer(np.arange(lo, hi), np.arange(lo, hi))
        B[1 + lo:1 + hi, 1 + lo:1 + hi] -= p.var_e[later] * dL[lo:hi]

    C = np.zeros((5, 1 + K))
    C[2:, 0] = -p.miss[:3, 3]
    C[2:, 1:] = p.cross[:3] * dL
    return DiscretizedOperator(A=A, B=B, dL=dL.copy(), times=ws.xe.copy(), C=C)


def _solve(op: DiscretizedOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve the joint system for one or more right-hand sides (columns)."""
    if not math.isfinite(op.cond) or op.cond > COND_LIMIT:
        raise SingularOperatorError(op.cond)
    sol = scipy.linalg.lu_solve(op._lu[:2], rhs)
    res = np.linalg.norm(op.matrix @ sol - rhs, axis=0) / np.maximum(1.0, np.linalg.norm(rhs, axis=0))
    if np.max(res) > 1e-8:
        raise SingularOperatorError(op.cond, f"linear solve residual too large ({np.max(res):.2e})")
    return sol


def _stack(op: DiscretizedOperator, h: Probe) -> np.ndarray:
    return np.concatenate([h.h1, [h.h2], np.asarray(h.h3, dtype=float) * np.ones(op.K)])


def apply_operator(op: DiscretizedOperator, h: Probe) -> Probe:
    """sigma-hat applied to a probe (g1, g2, g3-at-event-times)."""
    out = op.matrix @ _stack(op, h)
    return Probe(out[:5], float(out[5]), out[6:])


def invert_apply(op: DiscretizedOperator, g: Probe) -> Probe:
    """Solve sigma-hat(h) = g; refuses numerically singular operators."""
    v = _solve(op, _stack(op, g))
    return Probe(v[:5], float(v[5]), v[6:])


def var_estimate(op: DiscretizedOperator, hazard: SieveHazard, g: Probe) -> float:
    """Quadratic-form variance of the estimator paired with the probe g."""
    dL = np.asarray(hazard.jumps, dtype=float)
    if dL.size != op.K:
        raise ValidationError("hazard does not match the operator support")
    h = invert_apply(op, g)
    g3 = np.asarray(g.h3, dtype=float) * np.ones(op.K)
    out = float(np.dot(g3 * h.h3, dL)) + h.h2 * g.h2 + float(h.h1 @ g.h1)
    if out < 0:
        warnings.warn(f"negative variance estimate {out:.6g} (finite-sample pathology)",
                      RuntimeWarning)
    return out


def var_beta_simple(dataset: Dataset, theta_hat: Theta, atoms: Posterior) -> float:
    """Closed-form beta variance, refused when the curvature below is not positive:

        1 / ( sum_k dL_k (D_k - C_k^2 / W_k) - (1/n) sum_i Var_i[delta_i Z - Z e^{bZ} A_i] )

    W_k, C_k and D_k are (1/n) sum_i E_i[Z^m e^{bZ} 1{x_k <= X_i}] for m = 0, 1, 2,
    so each event time contributes the risk-set variance of Z; the last term is
    the beta missing information (A_i is the hazard mass of i's latent window).
    """
    return _beta_simple(_info_parts(dataset, theta_hat, atoms))


def _beta_simple(p: _InfoParts) -> float:
    total = float(np.dot(p.d - p.c**2 / p.w, p.dL) - p.miss[3, 3])
    if not total > SIMPLE_RTOL * float(np.dot(p.d, p.dL)):
        raise ValidationError("beta curvature is not positive (beta not identified); "
                              "beta variance undefined")
    return 1.0 / total


def ci(fit: FitResult, var_est: float, level: float) -> tuple[float, float]:
    """Wald interval for beta from a variance estimate of sqrt(n)(beta-hat - beta0)."""
    q = z_quantile(level)
    if var_est <= 0:
        raise ValidationError("variance estimate must be > 0")
    hw = q * math.sqrt(var_est / fit.n_subjects)
    return fit.theta_hat.beta - hw, fit.theta_hat.beta + hw


def z_quantile(level: float) -> float:
    """The standard normal quantile bounding a two-sided interval of coverage `level`."""
    if not 0 < level < 1:
        raise ValidationError("level must be in (0, 1)")
    return float(ndtri(0.5 * (1.0 + level)))


def lambda_band(op: DiscretizedOperator, hazard: SieveHazard, t_grid) -> list[tuple[float, float]]:
    """Variance of sqrt(n)(Lambda-hat(t) - Lambda0(t)) at each t in t_grid."""
    dL = np.asarray(hazard.jumps, dtype=float)
    ts = np.asarray(t_grid, dtype=float)
    g3 = (op.times[:, None] <= ts[None, :]).astype(float)
    sol = _solve(op, np.concatenate([np.zeros((6, ts.size)), g3]))
    return [(float(t), float(np.dot(g3[:, j] * sol[6:, j], dL))) for j, t in enumerate(ts)]


def variance_report(dataset: Dataset, theta_hat: Theta, atoms: Posterior, fit: FitResult,
                    t_grid=None) -> dict:
    """Side-by-side variance summary used by the CLI and the study harness.

    `cond_B` is the 1-norm condition number estimate of the joint operator
    matrix (LAPACK gecon on its LU factors).  It agrees with the 2-norm
    condition number within a factor 6+K; the 1/dL scaling of the hazard rows
    makes it the larger of the two in practice (1.36e6 against 4.36e3 on a
    simulated fit with n=2000).  A variance that is undefined at this fit is
    reported as None: `var_beta_simple` when beta is not identified, and
    `var_beta_full`, every `var_alpha` entry and `lambda_band` when the
    operator is numerically singular.
    """
    p = _info_parts(dataset, theta_hat, atoms)
    op = _operator(p, theta_hat.alpha)
    try:
        simple = _beta_simple(p)
    except ValidationError:
        simple = None
    report: dict = {"var_beta_simple": simple, "cond_B": op.cond}
    try:
        report["var_beta_full"] = var_estimate(op, theta_hat.hazard, beta_probe(op.K))
        sol = _solve(op, np.eye(6 + op.K, 5))
        report["var_alpha"] = [float(v) for v in np.diag(sol[:5])]
    except SingularOperatorError:
        report["var_beta_full"] = None
        report["var_alpha"] = [None] * 5
    if t_grid is None:
        t_grid = np.linspace(0.0, dataset.tau, 11)[1:]
    try:
        report["lambda_band"] = lambda_band(op, theta_hat.hazard, t_grid)
    except SingularOperatorError:
        report["lambda_band"] = None
    return report
