"""Asymptotic variance estimation via the discretized observed information operator.

A probe h = (h1, h2, h3) is one array of length 6 + K in the operator's layout:
h1, the five transition-parameter entries, then h2, the regression
coefficient's, then h3, a function carried by its values at the K event times
(the estimated hazard charges nothing else).  The estimator is an NPMLE, so
the operator is the observed-data information.  By
Louis's identity (Louis 1982, JRSS-B 44:226) that is the conditional expected
complete-data curvature minus (1/n) sum_i Cov_i[complete-data score | y_i].
The latent terminal value Z enters the alpha, beta and hazard scores alike,
so the missing-information term couples all three: the operator is one joint
matrix M on (h1, h2, h3(x_1), ..., h3(x_K)).  Rows carrying h3(x_k) are
scaled by 1/dL_k.  The variance of the estimator paired with a probe g is
the quadratic form

    <g, h> = sum_k g3(x_k) h3(x_k) dL_k + g2 h2 + g1' h1,    where sigma-hat(h) = g.

An observed information is self-adjoint in this inner product: with
P = diag(1, ..., 1, dL_1, ..., dL_K), the matrix P M is symmetric, so M is
kept by the parts of P M.  At a maximum P M is also positive definite, and
the operator is refused where it is not, so the variance of an accepted
operator, <g, h> = (P g)' (P M)^{-1} (P g), is positive.

Each subject's latent window lies inside one grid interval, so the
hazard-hazard part of the missing information is block diagonal by interval,
and each block is a diagonal plus a semiseparable matrix (Vandebril, Van Barel
& Mastronardi 2008, Matrix Computations and Semiseparable Matrices).
`DiscretizedOperator` keeps M by these parts, never as a (6+K)x(6+K) array:
its factorisations, solves, products and 1-norm take O(K) time and memory.

Louis's missing information needs, per subject, only the covariances of the score
terms with e^{bZ}, and the (alpha, beta) block summed over the subjects.  Each is a
weighted sum over the subject's quadrature nodes of a product of two factors centred
within the subject (`_latent_covariances`), taken over blocks of subjects, so no score
term is held at every node of every subject.

A closed-form estimate for the beta variance is reported next to the full
inversion: the beta curvature centred on each risk set, minus the beta
missing information.  It ignores the coupling between event times and with
alpha, so the two agree only asymptotically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from statistics import NormalDist
from typing import TYPE_CHECKING

import numpy as np

from .data import Dataset, SieveHazard, Theta
from .exceptions import SingularOperatorError, ValidationError
from .posterior import exp_clipped
from .workspace import Posterior, _hazard_jumps, _risk_cols, _score, _workspace_of

if TYPE_CHECKING:  # pragma: no cover
    from .fit import FitResult

# the largest normwise backward error a solve may leave
SOLVE_TOL = 1e-12
# the centred beta curvature must exceed this share of the uncentred one
SIMPLE_RTOL = 1e-10
# subjects per block of `_latent_covariances`.  A block's four Q x BLOCK factors (160 KiB
# at Q = 20) stay in cache and are reused from the heap, whereas arrays over all subjects'
# nodes are handed back to the OS and faulted in again at every Newton step's build.
# Each block costs about thirty NumPy calls, so smaller blocks trade time for memory: at
# n = 2000 a build with 96 takes about 1.4 times as long and peaks at 0.47 Q x n arrays
# above its inputs, against 0.9 with 256
BLOCK = 256
BETA_UNIDENTIFIED = "beta curvature is not positive (beta not identified); beta variance undefined"


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Finite representation of the estimated information operator.

    The joint matrix on (h1, h2, h3 at event times) is

        M = [[E, G' diag(dL)],
             [G, H          ]],    H = diag(w) - V diag(dL),

    with E the symmetric 6x6 border on (h1, h2) and G the Kx6 h3 rows;
    V_kl = v[max(k, l)] when x_k and x_l lie in one grid interval and 0
    otherwise, so P M with P = diag(1, ..., 1, dL) is symmetric.  M is never
    formed.  On one interval V = U diag(delta) U' with U the upper-triangular
    matrix of ones and delta_m = v_m - v_{m+1} (v past the interval's last
    event counts as 0).  With omega = w / dL,

        H x = r    <=>   T z = U^{-1} r,   z = U' (dL x),

    where T = U^{-1} diag(omega) U^{-T} - diag(delta) is symmetric tridiagonal
    (diagonal omega_k + omega_{k+1} - delta_k, off-diagonal -omega_{k+1}, both
    omega_{k+1} terms zero where the interval ends).  The L D L' factors of T,
    the K x 6 Z = dL H^{-1} G and the Cholesky factor of the symmetric 6x6 Schur
    complement E - G'Z solve M in O(K) per right-hand side.

    Both factorisations test P M for positive definiteness.  On each interval
    H = U T U' diag(dL), so the hazard block diag(dL) H of P M is congruent to T,
    and E - G'Z is the Schur complement of that block in P M.  By Haynsworth's
    inertia additivity (1968, Linear Algebra Appl. 1:73) P M is positive definite
    exactly when T and E - G'Z are, that is when both factorisations succeed.
    Otherwise `solve` refuses the operator, whatever the scale or origin of the
    covariate.
    """

    E: np.ndarray          # symmetric 6x6 border on (h1, h2)
    G: np.ndarray          # Kx6 h3 rows, border columns
    w: np.ndarray          # diagonal of H before the V term
    v: np.ndarray          # generator of V: V_kl = v[max(k, l)] within an interval
    dL: np.ndarray         # hazard jumps used as integration weights
    times: np.ndarray      # event times carrying h3
    interval: np.ndarray   # grid interval of each event time, nondecreasing

    def __post_init__(self):
        for name in ("E", "G", "w", "v", "dL", "times"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "interval", np.asarray(self.interval, dtype=int))
        K = self.dL.size
        if (K == 0 or self.E.shape != (6, 6) or self.G.shape != (K, 6)
                or any(a.shape != (K,) for a in (self.w, self.v, self.times, self.interval))):
            raise ValidationError("operator parts do not match a hazard support of one or more event times")
        if not np.array_equal(self.E, self.E.T, equal_nan=True):
            raise ValidationError("operator border E must be symmetric")
        if np.any(np.diff(self.interval) < 0):
            raise ValidationError("event grid intervals must be nondecreasing")

    @property
    def K(self) -> int:
        return self.dL.size

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each event's interval as event indices [lo, hi), and the (K-1)x1 column
        holding 1.0 where event k+1 lies in the interval of event k, else 0.0."""
        lo = np.searchsorted(self.interval, self.interval, "left")
        hi = np.searchsorted(self.interval, self.interval, "right")
        return lo, hi, (hi[:-1] > np.arange(1, self.K)).astype(float)[:, None]

    @cached_property
    def _factors(self):
        """The solve with T's L D L' factors (LAPACK dpttrs), Z = dL H^{-1} G and the solve
        with the Schur complement's Cholesky factor (dpotrs); None unless both
        factorisations succeed, that is unless P M is positive definite.

        scipy.linalg is imported here, at the first factorisation, and nowhere else, so a
        process that computes no variance never loads it (lazy loading as in Scientific
        Python SPEC 1).
        """
        from scipy.linalg import lapack

        same = self._bounds[2][:, 0]
        omega = self.w / self.dL
        nxt = np.append(omega[1:] * same, 0.0)   # omega_{k+1}, 0 where the interval ends
        diag = omega + nxt - self.v + np.append(self.v[1:] * same, 0.0)
        # a decoupled unit row: scipy's dpttrf wrapper refuses a system of order 1
        *tri, info = lapack.dpttrf(np.append(diag, 1.0), -nxt)
        if info != 0 or not np.isfinite(np.concatenate(tri)).all():
            return None
        tsolve = partial(lapack.dpttrs, *tri)
        Z = self._tsolve(tsolve, self.G)
        chol, info = lapack.dpotrf(self.E - self.G.T @ Z)
        if info != 0 or not np.isfinite(chol).all():
            return None
        return tsolve, Z, partial(lapack.dpotrs, chol)

    def _tsolve(self, tsolve, r: np.ndarray) -> np.ndarray:
        """U^{-T} T^{-1} U^{-1} r, which is dL H^{-1} r, for a K x m matrix r."""
        same = self._bounds[2]
        u = np.zeros((r.shape[0] + 1, r.shape[1]))
        u[:-1] = r
        u[:-2] -= r[1:] * same
        z = tsolve(u)[0][:-1]
        z[1:] -= z[:-1] * same
        return z

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs for a vector or the columns of a matrix, refused unless P M is positive
        definite."""
        f = self._factors
        if f is None:
            raise SingularOperatorError("information operator is not positive definite")
        tsolve, Z, ssolve = f
        r = rhs.reshape(rhs.shape[0], -1)
        # block elimination: t = dL H^{-1} r_h3
        t = self._tsolve(tsolve, r[6:])
        xb = ssolve(r[:6] - self.G.T @ t)[0]
        return np.concatenate([xb, (t - Z @ xb) / self.dL[:, None]]).reshape(rhs.shape)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """M x for a vector or the columns of a matrix."""
        xs = x.reshape(x.shape[0], -1)
        xb, xh = xs[:6], xs[6:]
        lo, hi, _ = self._bounds
        m = xh.shape[1]
        # (V y)_k = v_k sum_{lo_k <= l <= k} y_l + sum_{k < l < hi_k} v_l y_l with y = dL x,
        # from the running sums of y and of v y, each led by a zero row
        y = self.dL[:, None] * xh
        v = self.v[:, None]
        c = np.zeros((self.K + 1, 2 * m))
        np.cumsum(np.concatenate([y, v * y], axis=1), axis=0, out=c[1:])
        vy = v * (c[1:, :m] - c[lo, :m]) + c[hi, m:] - c[1:, m:]
        return np.concatenate([self.E @ xb + self.G.T @ y,
                               self.G @ xb + self.w[:, None] * xh - vy]).reshape(x.shape)

    @cached_property
    def norm1(self) -> float:
        """The 1-norm of M, its largest absolute column sum."""
        lo, hi, _ = self._bounds
        av = np.abs(self.v)
        cum = np.concatenate([[0.0], np.cumsum(av)])
        # column l: G[l] dL_l in the border rows; in H, w_l - v_l dL_l on the diagonal,
        # v_l dL_l above it and v_k dL_l below
        hz = np.abs(self.w - self.v * self.dL) + np.abs(self.dL) * (
            (np.arange(self.K) - lo) * av + cum[hi] - cum[1:] + np.abs(self.G).sum(1))
        return float(max(np.max(np.abs(self.E).sum(0) + np.abs(self.G).sum(0)), np.max(hz)))


def beta_probe(K: int) -> np.ndarray:
    """The probe of beta alone: the unit vector at index 5 of length 6 + K."""
    return np.eye(1, 6 + K, 5)[0]


def _latent_covariances(ws, est, alpha, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The posterior covariances of the Z-dependent complete-score terms that `_operator`
    reads: per subject, their covariances with e^{bZ} (4 x n: the a, ssq and beta terms'
    and the variance of e^{bZ}; the b term's is z_pred times the a term's), and the 4 x 4
    block of the first four terms summed over the subjects.

    The terms, in order: the a, b and ssq scores r/ssq, z_pred r/ssq and
    r^2/(2 ssq^2) with r = Z - a - b z_pred; the beta score
    delta Z - Z e^{bZ} A_i with A_i the hazard mass of the latent window; and
    e^{bZ}, which times -dL_k is the hazard score at x_k in the window.  With d = Z - E[Z]
    and c = E[Z] - a - b z_pred, r = d + c, so the transition terms less their means are
    d/ssq, z_pred d/ssq and u/(2 ssq^2), u = d (d + 2c) less its mean.  Every entry is
    then a weighted node sum of the product of two of d, u, the beta term t and e^{bZ},
    times constants of the subject.  Each factor is centred within its subject before any
    product is formed, so no covariance is a difference of large moments; e^{bZ} is first
    taken less its value at E[Z], so that where it is constant over the nodes (beta = 0,
    a stored value) it centres to exactly 0.  The subjects run in blocks of BLOCK, a
    block's four factors in one 4 x Q x BLOCK array.
    """
    n, s = ws.n, alpha.ssq
    nodes, weights = est.nodes.T, est.weights.T
    Q = nodes.shape[0]
    # until its block overwrites them, cov holds per subject 2c, -A, e^{bZ} at Z = E[Z], and
    # delta
    cov = np.empty((4, n))
    np.multiply(est.E1 - alpha.a - alpha.b * ws.z_pred, 2, out=cov[0])
    np.negative(est.a_lat, out=cov[1])
    exp_clipped(np.multiply(est.E1, beta, out=cov[2]))
    cov[3] = ws.delta
    X = np.empty(4 * Q * min(BLOCK, n))
    # over the subjects, the 4 x 4 products of (d, u, t, e) weighted by 1, z_pred and z_pred^2
    tot = np.zeros((16, 3))
    zpow = np.ones((min(BLOCK, n), 3))
    for lo in range(0, n, BLOCK):
        sl = slice(lo, lo + BLOCK)
        z, w, zp = nodes[:, sl], weights[:, sl], ws.z_pred[sl]
        c2, neg_a, e_mean, delta = cov[:, sl]
        x = X[: 4 * Q * zp.size].reshape(4, Q, -1)
        d, u, t, e = x
        # each pass reads at most one operand that is strided or broadcast
        np.copyto(d, z)
        d -= est.E1[sl]
        np.add(d, c2, out=u)
        u *= d
        exp_clipped(np.multiply(z, beta, out=e))
        np.multiply(e, neg_a, out=t)
        t += delta
        t *= z
        e -= e_mean
        for xk, mk in zip(x, np.einsum("qi,kqi->ki", w, x)):
            xk -= mk
        g = np.einsum("qi,kqi,lqi->kli", w, x, x)
        cov[:, sl] = g[3]
        P = zpow[: zp.size]
        P[:, 1] = zp
        np.multiply(zp, zp, out=P[:, 2])
        tot += g.reshape(16, -1) @ P
        del g
    cov[0] /= s
    cov[1] /= 2 * s * s
    # term j is factor k_j times z_pred^p_j f_j, so miss[i, j] is the (k_i, k_j) product
    # weighted by z_pred^(p_i + p_j), times f_i f_j; the upper triangle in k serves both
    # (i, j) and (j, i), so miss is symmetric
    k, p = np.array([0, 0, 1, 2]), np.array([0, 1, 0, 0])
    f = np.array([1 / s, 1 / s, 1 / (2 * s * s), 1.0])
    tot = tot.reshape(4, 4, 3)
    miss = tot[np.minimum.outer(k, k), np.maximum.outer(k, k), np.add.outer(p, p)] * np.outer(f, f)
    return cov, miss


def _operator(ws, est, alpha, beta: float, dL: np.ndarray) -> tuple[DiscretizedOperator, float | None]:
    """The observed information operator at (alpha, beta, dL), `est` being the E-step there
    (its risk-set sums at beta are reused), and the closed-form beta variance
    (`var_beta_simple`), None where its curvature is not positive.  It holds away from the
    maximizer as well: P M is then minus the Hessian of the observed log likelihood / n in
    (alpha, beta, log dL), which the fit's Newton steps use.

    The missing information comes from `_latent_covariances`: the (a, b, ssq, beta) block
    summed over the subjects, and each subject's covariances with e^{bZ}, summed here over
    the latent windows holding each event time in one risk-set pass.  Besides its inputs a
    build holds the 4 x n covariances, their 5 x n stack, one block's factors and O(K) parts."""
    n = ws.n
    cov, miss = _latent_covariances(ws, est, alpha, beta)
    miss /= n
    # per x_k, (1/n) sum over the latent windows holding it of Cov_i[term j, e^{bZ}], the
    # five terms in one pass, the b term's last (z_pred times the a term's).  A stored
    # terminal value has no latent window: it is one atom, whose covariances are exactly 0
    cov /= n
    a_lat, ssq_lat, beta_lat, v, b_lat = ws.cols(None, np.vstack([cov, cov[0] * ws.z_pred]).T).T
    del cov
    # W_n, C_n, D_n: (1/n) sum_i E_i[Z^m e^{bZ} 1{x_k <= X_i}], m = 0, 1, 2
    w, c, d = _risk_cols(ws, est, beta).T / n
    curvature = float(np.dot(d - c**2 / w, dL) - miss[3, 3])
    E = np.zeros((6, 6))
    E[:5, :5] = -ws.transition_stats(est).hessian(alpha) / n
    E[2:5, 2:5] -= miss[:3, :3]
    E[2:5, 5] = E[5, 2:5] = -miss[:3, 3]
    E[5, 5] = float(np.dot(d, dL)) - miss[3, 3]
    # h3 rows: the (a, b, ssq) and beta scores against the hazard score -e^{bZ} dL_k
    G = np.zeros((ws.K, 6))
    G[:, 2], G[:, 3], G[:, 4], G[:, 5] = a_lat, b_lat, ssq_lat, c + beta_lat
    # V diag(dL) is the hazard-hazard missing information: dL_l (1/n) sum over the
    # windows holding x_k and x_l of Var_i(e^{bZ}).  A latent window lies inside one
    # grid interval, so within an interval the windows holding both are those
    # holding the later, and their variance sum at the later time is V's generator
    op = DiscretizedOperator(E=E, G=G, w=w, v=v, dL=dL.copy(), times=ws.xe.copy(), interval=ws.a_e)
    return op, 1.0 / curvature if curvature > SIMPLE_RTOL * float(np.dot(d, dL)) else None


def _information(dataset: Dataset, theta_hat: Theta, atoms: Posterior
                 ) -> tuple[DiscretizedOperator, float | None]:
    """`_operator` at a fit with its atoms."""
    ws = _workspace_of(dataset, atoms)
    return _operator(ws, atoms, theta_hat.alpha, theta_hat.beta, _hazard_jumps(ws.xe, theta_hat.hazard))


def build_sigma_hat(dataset: Dataset, theta_hat: Theta, atoms: Posterior) -> DiscretizedOperator:
    """Assemble the observed information operator at a converged fit with its atoms."""
    return _information(dataset, theta_hat, atoms)[0]


def _solve(op: DiscretizedOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve the joint system for one or more right-hand sides (columns), refused unless P M
    is positive definite and the backward error is at most SOLVE_TOL."""
    sol = op.solve(rhs)
    # per column, the normwise backward error ||Mx - b|| / (||M|| ||x|| + ||b||) in the 1-norm
    # (Rigal & Gaches 1967, J. ACM 14:543; Higham 2002, Accuracy and Stability of Numerical
    # Algorithms, sec. 7.1): unlike the residual it does not grow with ||M||, which the 1/dL
    # rows make grow like n
    res = np.abs(op.matvec(sol) - rhs).sum(axis=0)
    scale = op.norm1 * np.abs(sol).sum(axis=0) + np.abs(rhs).sum(axis=0)
    err = float(np.max(res / np.maximum(scale, np.finfo(float).tiny)))
    if not err <= SOLVE_TOL:
        raise SingularOperatorError(f"linear solve backward error too large ({err:.2e})")
    return sol


def _own_jumps(op: DiscretizedOperator, hazard: SieveHazard) -> np.ndarray:
    """The hazard's jumps, refused unless the hazard is the one the operator was built at."""
    dL = _hazard_jumps(op.times, hazard)
    if not np.array_equal(dL, op.dL):
        raise ValidationError("hazard jumps differ from those the operator was built at")
    return dL


def var_estimate(op: DiscretizedOperator, hazard: SieveHazard, g: np.ndarray) -> float:
    """Quadratic-form variance <g, h> of the estimator paired with the probe g, where
    sigma-hat(h) = g; refuses a g that is not 6 + K finite values, and operators that
    are not positive definite or whose solve leaves a backward error above SOLVE_TOL.
    On an operator it accepts the form is positive.

    `hazard` must be the one the operator was built at (its jumps weight the
    h3 part of the form).
    """
    dL = _own_jumps(op, hazard)
    g = np.asarray(g, dtype=float)
    if g.shape != (6 + op.K,):
        raise ValidationError(f"probe has shape {g.shape}; the operator needs 6 + K = {6 + op.K} values")
    if not np.all(np.isfinite(g)):
        raise ValidationError("probe entries must be finite")
    h = _solve(op, g)
    return float(np.dot(g[6:] * h[6:], dL)) + float(h[5] * g[5]) + float(h[:5] @ g[:5])


def var_beta_simple(dataset: Dataset, theta_hat: Theta, atoms: Posterior) -> float:
    """Closed-form beta variance, refused when the curvature below is not positive:

        1 / ( sum_k dL_k (D_k - C_k^2 / W_k) - (1/n) sum_i Var_i[delta_i Z - Z e^{bZ} A_i] )

    W_k, C_k and D_k are (1/n) sum_i E_i[Z^m e^{bZ} 1{x_k <= X_i}] for m = 0, 1, 2,
    so each event time contributes the risk-set variance of Z; the last term is
    the beta missing information (A_i is the hazard mass of i's latent window).
    """
    var = _information(dataset, theta_hat, atoms)[1]
    if var is None:
        raise ValidationError(BETA_UNIDENTIFIED)
    return var


def ci(fit: FitResult, var_est: float, level: float) -> tuple[float, float]:
    """Wald interval for beta from a variance estimate of sqrt(n)(beta-hat - beta0)."""
    q = z_quantile(level)
    if not 0 < var_est < math.inf:
        raise ValidationError(f"variance estimate must be finite and > 0, got {var_est!r}")
    hw = q * math.sqrt(var_est / fit.n_subjects)
    return fit.theta_hat.beta - hw, fit.theta_hat.beta + hw


def z_quantile(level: float) -> float:
    """The standard normal quantile bounding a two-sided interval of coverage `level`."""
    if not 0 < level < 1:
        raise ValidationError("level must be in (0, 1)")
    return NormalDist().inv_cdf(0.5 * (1.0 + level))


def lambda_band(op: DiscretizedOperator, hazard: SieveHazard, t_grid) -> list[tuple[float, float]]:
    """Variance of sqrt(n)(Lambda-hat(t) - Lambda0(t)) at each t in the 1-D grid t_grid."""
    dL = _own_jumps(op, hazard)
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or not np.all(np.isfinite(ts)):
        raise ValidationError(f"t_grid must be a 1-D array of finite times, got shape {ts.shape}")
    if ts.size == 0:
        return []
    g3 = (op.times[:, None] <= ts[None, :]).astype(float)
    sol = _solve(op, np.concatenate([np.zeros((6, ts.size)), g3]))
    return [(float(t), float(v)) for t, v in zip(ts, dL @ (g3 * sol[6:]))]


def variance_report(dataset: Dataset, theta_hat: Theta, atoms: Posterior, fit: FitResult,
                    t_grid=None) -> dict:
    """Side-by-side variance summary used by the CLI and the study harness.

    A variance that is undefined at this fit is reported as None:
    `var_beta_simple` when beta is not identified, and `var_beta_full`, every
    `var_alpha` entry and `lambda_band` when the operator is not positive
    definite or a solve leaves a backward error above SOLVE_TOL.  A positive
    definite but badly conditioned operator gives large finite variances.  An
    empty `t_grid` gives an empty `lambda_band`.

    The fit's optimisation error is stated as the Newton step h solving M h = g at the
    fit, g being the score representer: `newton_beta_step` is h_beta, an estimate of the
    distance of beta-hat from the maximizer, and `newton_decrement` is <g, h>, twice the
    gain in log likelihood per subject that a full step predicts.  Both are None where the
    operator is refused.
    """
    ws = _workspace_of(dataset, atoms)
    dL = _hazard_jumps(ws.xe, theta_hat.hazard)
    op, simple = _operator(ws, atoms, theta_hat.alpha, theta_hat.beta, dL)
    report: dict = {"var_beta_simple": simple}
    try:
        report["var_beta_full"] = var_estimate(op, theta_hat.hazard, beta_probe(op.K))
        sol = _solve(op, np.eye(6 + op.K, 5))
        report["var_alpha"] = [float(v) for v in np.diag(sol[:5])]
    except SingularOperatorError:
        report["var_beta_full"] = None
        report["var_alpha"] = [None] * 5
    try:
        s = _score(ws, atoms, theta_hat.alpha, theta_hat.beta, dL)
        h = _solve(op, np.concatenate([s[:6], s[6:] / dL]))
        report["newton_beta_step"], report["newton_decrement"] = float(h[5]), float(s @ h)
    except SingularOperatorError:
        report["newton_beta_step"] = report["newton_decrement"] = None
    if t_grid is None:
        t_grid = np.linspace(0.0, dataset.tau, 11)[1:]
    try:
        report["lambda_band"] = lambda_band(op, theta_hat.hazard, t_grid)
    except SingularOperatorError:
        report["lambda_band"] = None
    return report
