"""Asymptotic variance estimation via the discretized observed information operator.

Probes are h = (h1, h2, h3) with h1 a 5-vector for the transition parameters,
h2 scalar for the regression coefficient and h3 a function carried by its
values at the event times (the estimated hazard charges nothing else).  The
estimator is an NPMLE, so the operator is the observed-data information.  By
Louis's identity (Louis 1982, JRSS-B 44:226) that is the conditional expected
complete-data curvature minus (1/n) sum_i Cov_i[complete-data score | y_i].
The latent terminal value Z enters the alpha, beta and hazard scores alike,
so the missing-information term couples all three: the operator is one joint
matrix M on (h1, h2, h3(x_1), ..., h3(x_K)).  Rows carrying h3(x_k) are
scaled by 1/dL_k.  The variance of the estimator paired with a probe g is
the quadratic form

    <g, h> = sum_k g3(x_k) h3(x_k) dL_k + g2 h2 + g1' h1,    where sigma-hat(h) = g.

An observed information is self-adjoint in this inner product: with
P = diag(1, ..., 1, dL_1, ..., dL_K), the matrix P M is symmetric.  So M is
kept by the parts of P M, and M' needs no parts of its own:
M'^{-1} = P M^{-1} P^{-1}.

Each subject's latent window lies inside one grid interval, so the
hazard-hazard part of the missing information is block diagonal by interval,
and each block is a diagonal plus a semiseparable matrix (Vandebril, Van Barel
& Mastronardi 2008, Matrix Computations and Semiseparable Matrices).
`DiscretizedOperator` keeps M by these parts, never as a (6+K)x(6+K) array:
its solves, products, 1-norm and condition estimate take O(K) time and memory.

A closed-form estimate for the beta variance is reported next to the full
inversion: the beta curvature centred on each risk set, minus the beta
missing information.  It ignores the coupling between event times and with
alpha, so the two agree only asymptotically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from statistics import NormalDist

import numpy as np

from .data import Dataset, SieveHazard, Theta
from .exceptions import SingularOperatorError, ValidationError
from .fit import FitResult, Posterior, _hazard_jumps, _risk_cols, _workspace_of
from .posterior import exp_clipped

COND_LIMIT = 1e12
# the largest normwise backward error a solve may leave
SOLVE_TOL = 1e-12
# the centred beta curvature must exceed this share of the uncentred one
SIMPLE_RTOL = 1e-10
BETA_UNIDENTIFIED = "beta curvature is not positive (beta not identified); beta variance undefined"


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
    omega_{k+1} terms zero where the interval ends).  One LU of T, the K x 6
    Z = dL H^{-1} G and an LU of the symmetric 6x6 Schur complement E - G'Z
    solve M in O(K) per right-hand side, and M' through M'^{-1} = P M^{-1} P^{-1}.
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
        if (self.E.shape != (6, 6) or self.G.shape != (K, 6)
                or any(a.shape != (K,) for a in (self.w, self.v, self.times, self.interval))):
            raise ValidationError("operator parts do not match the hazard support")
        if not np.array_equal(self.E, self.E.T, equal_nan=True):
            raise ValidationError("operator border E must be symmetric")
        if np.any(np.diff(self.interval) < 0):
            raise ValidationError("event grid intervals must be nondecreasing")

    @property
    def K(self) -> int:
        return self.dL.size

    @property
    def A(self) -> np.ndarray:
        """The 5x5 alpha block."""
        return self.E[:5, :5]

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each event's interval as event indices [lo, hi), and the (K-1)x1 column
        holding 1.0 where event k+1 lies in the interval of event k, else 0.0."""
        lo = np.searchsorted(self.interval, self.interval, "left")
        hi = np.searchsorted(self.interval, self.interval, "right")
        return lo, hi, (hi[:-1] > np.arange(1, self.K)).astype(float)[:, None]

    @cached_property
    def _factors(self):
        """The solve with T's LU (LAPACK dgttrs), Z = dL H^{-1} G and the solve with the
        Schur complement's LU (dgetrs); None if singular.

        scipy.linalg is imported here, at the first factorisation, and nowhere else, so a
        process that computes no variance never loads it (lazy loading as in Scientific
        Python SPEC 1).
        """
        from scipy.linalg import lapack

        same = self._bounds[2][:, 0]
        omega = self.w / self.dL
        nxt = np.append(omega[1:] * same, 0.0)   # omega_{k+1}, 0 where the interval ends
        diag = omega + nxt - self.v + np.append(self.v[1:] * same, 0.0)
        # two decoupled unit rows: scipy's dgttrf wrapper refuses systems of order < 3
        off = np.append(-nxt, 0.0)
        *tri, info = lapack.dgttrf(off, np.append(diag, [1.0, 1.0]), off)
        if info != 0 or not np.isfinite(np.concatenate(tri[:4])).all():
            return None
        tsolve = partial(lapack.dgttrs, *tri)
        Z = self._tsolve(tsolve, self.G)
        lu, piv, info = lapack.dgetrf(self.E - self.G.T @ Z)
        if info != 0 or not np.isfinite(lu).all():
            return None
        return tsolve, Z, partial(lapack.dgetrs, lu, piv)

    def _tsolve(self, tsolve, r: np.ndarray) -> np.ndarray:
        """U^{-T} T^{-1} U^{-1} r, which is dL H^{-1} r, for a K x m matrix r."""
        same = self._bounds[2]
        u = np.zeros((r.shape[0] + 2, r.shape[1]))
        u[:-2] = r
        u[:-3] -= r[1:] * same
        z = tsolve(u)[0][:-2]
        z[1:] -= z[:-1] * same
        return z

    def solve(self, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
        """M^{-1} rhs, or M'^{-1} rhs = P M^{-1} P^{-1} rhs when trans, for a vector or the
        columns of a matrix."""
        f = self._factors
        if f is None:
            raise SingularOperatorError(math.inf)
        tsolve, Z, ssolve = f
        r = rhs.reshape(rhs.shape[0], -1)
        dL = self.dL[:, None]
        # block elimination: t = dL H^{-1} r_h3 with r = rhs, or P^{-1} rhs when trans
        t = self._tsolve(tsolve, r[6:] / dL if trans else r[6:])
        xb = ssolve(r[:6] - self.G.T @ t)[0]
        xh = t - Z @ xb
        return np.concatenate([xb, xh if trans else xh / dL]).reshape(rhs.shape)

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

    @cached_property
    def cond(self) -> float:
        """1-norm condition number estimate of M: ||M||_1 times an estimate of ||M^{-1}||_1.

        The inverse's norm is Hager's estimate (Hager 1984, SIAM J. Sci.
        Stat. Comput. 5:311) in Higham's form, LAPACK dlacn2 (Higham 1988,
        ACM TOMS 14:381), the iteration LAPACK gecon runs, here over the
        structured solves of M and M'.  The result lies within a factor 6+K
        of the 2-norm condition number; inf when T or the Schur complement
        meets an exact zero pivot.  Its last bits can move with where BLAS
        finds the arrays in memory, so it is rounded to 6 significant
        digits, which keeps it reproducible.
        """
        if self._factors is None:
            return math.inf
        c = self.norm1 * _inverse_norm1(self.solve, lambda x: self.solve(x, trans=True), 6 + self.K)
        return float(f"{c:.6g}") if 0 < c < math.inf else math.inf


def _inverse_norm1(solve, solve_t, n: int) -> float:
    """Hager's lower estimate of ||M^{-1}||_1 from solves with M and M', step by step as dlacn2."""
    x = solve(np.full(n, 1.0 / n))
    est = float(np.abs(x).sum())
    sign = np.where(x >= 0, 1.0, -1.0)
    j = int(np.argmax(np.abs(solve_t(sign))))
    for _ in range(4):  # dlacn2's iteration counter runs from 2 to ITMAX = 5
        x = solve(np.eye(1, n, j)[0])
        est_old, est = est, float(np.abs(x).sum())
        s = np.where(x >= 0, 1.0, -1.0)
        if np.array_equal(s, sign) or est <= est_old:
            break
        sign = s
        xt = solve_t(sign)
        j_last, j = j, int(np.argmax(np.abs(xt)))
        if xt[j_last] == abs(xt[j]):
            break
    alt = 1.0 + np.arange(n) / (n - 1)
    alt[1::2] *= -1.0
    return max(est, 2.0 * float(np.abs(solve(alt)).sum()) / (3 * n))


def beta_probe(K: int) -> Probe:
    return Probe(np.zeros(5), 1.0, np.zeros(K))


def _latent_covariances(ws, est, alpha, beta: float) -> np.ndarray:
    """Per-subject posterior covariances of the Z-dependent complete-score terms.

    The terms, in order: the a, b and ssq scores r/ssq, z_pred r/ssq and
    r^2/(2 ssq^2) with r = Z - a - b z_pred; the beta score
    delta Z - Z e^{bZ} A_i with A_i the hazard mass of the latent window; and
    e^{bZ}, which times -dL_k is the hazard score at x_k in the window.
    """
    Z, w = est.nodes, est.weights
    r = Z - (alpha.a + alpha.b * ws.z_pred)[:, None]
    e = exp_clipped(beta * Z)
    F = np.empty((ws.n, 5, Z.shape[1]))
    F[:, 0] = r / alpha.ssq
    F[:, 1] = ws.z_pred[:, None] * r / alpha.ssq
    F[:, 2] = r * r / (2 * alpha.ssq**2)
    F[:, 3] = (ws.delta[:, None] - est.a_lat[:, None] * e) * Z
    F[:, 4] = e
    F -= np.einsum("iq,ifq->if", w, F)[:, :, None]
    F *= np.sqrt(w)[:, None, :]  # w >= 0, so sum_q w_q f_q f_q' is G G' with G = F sqrt(w)
    return F @ F.transpose(0, 2, 1)


def _information(dataset: Dataset, theta_hat: Theta, atoms: Posterior
                 ) -> tuple[DiscretizedOperator, float | None]:
    """The observed information operator at a fit with its atoms, and the closed-form
    beta variance (`var_beta_simple`), None where its curvature is not positive."""
    ws = _workspace_of(dataset, atoms)
    dL = _hazard_jumps(ws.xe, theta_hat.hazard)
    beta, n = theta_hat.beta, ws.n
    cov = _latent_covariances(ws, atoms, theta_hat.alpha, beta)
    # W_n, C_n, D_n: (1/n) sum_i E_i[Z^m e^{bZ} 1{x_k <= X_i}], m = 0, 1, 2
    w, c, d = _risk_cols(ws, atoms, beta).T / n
    # per x_k, (1/n) sum over the latent windows holding it of Cov_i[term j, e^{bZ}]
    lat = ws.cols(None, np.where(ws.has_extra[:, None], 0.0, cov[:, :, 4])) / n
    miss = np.sum(cov[:, :4, :4], axis=0) / n
    miss = 0.5 * (miss + miss.T)
    E = np.zeros((6, 6))
    E[:5, :5] = -ws.transition_stats(atoms).hessian(theta_hat.alpha) / n
    E[2:5, 2:5] -= miss[:3, :3]
    E[2:5, 5] = E[5, 2:5] = -miss[:3, 3]
    E[5, 5] = float(np.dot(d, dL)) - miss[3, 3]
    # h3 rows: the (a, b, ssq) and beta scores against the hazard score -e^{bZ} dL_k
    G = np.zeros((ws.K, 6))
    G[:, 2:5] = lat[:, :3]
    G[:, 5] = c + lat[:, 3]
    # V diag(dL) is the hazard-hazard missing information: dL_l (1/n) sum over the
    # windows holding x_k and x_l of Var_i(e^{bZ}).  A latent window lies inside one
    # grid interval, so within an interval the windows holding both are those
    # holding the later, and their variance sum at the later time is V's generator
    op = DiscretizedOperator(E=E, G=G, w=w, v=lat[:, 4], dL=dL.copy(), times=ws.xe.copy(),
                             interval=ws.a_e)
    curvature = float(np.dot(d - c**2 / w, dL) - miss[3, 3])
    return op, 1.0 / curvature if curvature > SIMPLE_RTOL * float(np.dot(d, dL)) else None


def build_sigma_hat(dataset: Dataset, theta_hat: Theta, atoms: Posterior) -> DiscretizedOperator:
    """Assemble the observed information operator at a converged fit with its atoms."""
    return _information(dataset, theta_hat, atoms)[0]


def _solve(op: DiscretizedOperator, rhs: np.ndarray) -> np.ndarray:
    """Solve the joint system for one or more right-hand sides (columns)."""
    if not math.isfinite(op.cond) or op.cond > COND_LIMIT:
        raise SingularOperatorError(op.cond)
    sol = op.solve(rhs)
    # per column, the normwise backward error ||Mx - b|| / (||M|| ||x|| + ||b||) in the 1-norm
    # (Rigal & Gaches 1967, J. ACM 14:543; Higham 2002, Accuracy and Stability of Numerical
    # Algorithms, sec. 7.1): unlike the residual it does not grow with ||M||, which the 1/dL
    # rows make grow like n
    res = np.abs(op.matvec(sol) - rhs).sum(axis=0)
    scale = op.norm1 * np.abs(sol).sum(axis=0) + np.abs(rhs).sum(axis=0)
    err = float(np.max(res / np.maximum(scale, np.finfo(float).tiny)))
    if not err <= SOLVE_TOL:
        raise SingularOperatorError(op.cond, f"linear solve backward error too large ({err:.2e})")
    return sol


def _h3(op: DiscretizedOperator, h: Probe) -> np.ndarray:
    """The probe's h3 at the K event times; a single value stands for a constant h3."""
    if h.h3.size == op.K:
        return h.h3
    if h.h3.size != 1:
        raise ValidationError(f"probe h3 has length {h.h3.size}; the operator needs 1 or K = {op.K}")
    return np.full(op.K, h.h3[0])


def _stack(op: DiscretizedOperator, h: Probe) -> np.ndarray:
    return np.concatenate([h.h1, [h.h2], _h3(op, h)])


def _own_jumps(op: DiscretizedOperator, hazard: SieveHazard) -> np.ndarray:
    """The hazard's jumps, refused unless the hazard is the one the operator was built at."""
    dL = _hazard_jumps(op.times, hazard)
    if not np.array_equal(dL, op.dL):
        raise ValidationError("hazard jumps differ from those the operator was built at")
    return dL


def apply_operator(op: DiscretizedOperator, h: Probe) -> Probe:
    """sigma-hat applied to a probe (g1, g2, g3-at-event-times)."""
    out = op.matvec(_stack(op, h))
    return Probe(out[:5], float(out[5]), out[6:])


def invert_apply(op: DiscretizedOperator, g: Probe) -> Probe:
    """Solve sigma-hat(h) = g; refuses numerically singular operators."""
    v = _solve(op, _stack(op, g))
    return Probe(v[:5], float(v[5]), v[6:])


def var_estimate(op: DiscretizedOperator, hazard: SieveHazard, g: Probe) -> float:
    """Quadratic-form variance of the estimator paired with the probe g.

    `hazard` must be the one the operator was built at (its jumps weight the
    h3 part of the form).
    """
    dL = _own_jumps(op, hazard)
    h = invert_apply(op, g)
    out = float(np.dot(_h3(op, g) * h.h3, dL)) + h.h2 * g.h2 + float(h.h1 @ g.h1)
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

    `cond_B` is `DiscretizedOperator.cond`, the 1-norm condition number
    estimate of the joint operator matrix (Hager's estimate of the inverse's
    norm over structured solves, as LAPACK gecon computes it on a dense LU).
    It agrees with the 2-norm condition number within a factor 6+K; the 1/dL
    scaling of the hazard rows makes it the larger of the two in practice
    (1.36e6 against 4.36e3 on a simulated fit with n=2000).  A variance that
    is undefined at this fit is reported as None: `var_beta_simple` when beta
    is not identified, and `var_beta_full`, every `var_alpha` entry and
    `lambda_band` when the operator is numerically singular.  An empty
    `t_grid` gives an empty `lambda_band`.
    """
    op, simple = _information(dataset, theta_hat, atoms)
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
