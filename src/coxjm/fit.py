"""EM/ECM maximizer of the joint pseudo likelihood over the step-hazard sieve.

Outer iteration: (E) posterior atoms for every subject at the current theta;
(M) closed-form transition-parameter update, then `inner_cycles` rounds of
closed-form hazard update followed by a step-halved Newton move in beta, and
one final hazard update at the accepted beta.  Every conditional update
increases the EM objective, so the observed log likelihood is nondecreasing;
a global step-halving fallback guards the floor/box corner cases.

Convergence requires parameter stability, a small score over the canonical
probe directions, and the hazard fixed-point identity
dL_k * W_n(x_k) = 1/n holding at freshly computed atoms.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SieveHazard, Theta, last_index, validate_dataset
from .exceptions import (
    AscentError,
    DegenerateRiskSetError,
    InsufficientDataError,
    ValidationError,
)
from .posterior import EXP_CLIP, PosteriorAtoms, batch_posterior, gauss_logpdf
from .transition import (
    FLOOR_MESSAGE,
    VAR_FLOOR,
    AlphaBox,
    TransitionParams,
    _solve_gaussian_mle,
)

ASCENT_TOL = 1e-8


@dataclass
class FitConfig:
    """Knobs of the EM fitter; all runs with the same config are deterministic."""

    Q: int = 40
    max_iter: int = 500
    tol_param: float = 1e-7
    tol_score: float = 1e-6
    id_tol: float = 1e-11
    inner_cycles: int = 3
    beta_box: float = 10.0
    alpha_box: AlphaBox = field(default_factory=AlphaBox)
    step_halving_max: int = 30
    var_floor: float = VAR_FLOOR

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValidationError("max_iter must be >= 1")
        if self.tol_param <= 0 or self.tol_score <= 0 or self.id_tol <= 0:
            raise ValidationError("tolerances must be > 0")
        if self.inner_cycles < 1:
            raise ValidationError("inner_cycles must be >= 1")
        if self.beta_box < 0:
            raise ValidationError("beta_box must be >= 0")
        if self.Q < 2:
            raise ValidationError("quadrature order must be >= 2")

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "Q", "max_iter", "tol_param", "tol_score", "id_tol", "inner_cycles",
            "beta_box", "step_halving_max", "var_floor")}
        d["alpha_box"] = {k: list(getattr(self.alpha_box, k))
                          for k in ("mu0", "s0sq", "a", "b", "ssq")}
        return d

    @staticmethod
    def from_dict(d: dict) -> "FitConfig":
        d = dict(d)
        box = d.pop("alpha_box", None)
        cfg = FitConfig(**d)
        if box is not None:
            cfg.alpha_box = AlphaBox(**{k: tuple(v) for k, v in box.items()})
        return cfg


@dataclass
class FitResult:
    theta_hat: Theta
    loglik_trace: list[float]
    iterations: int
    converged: bool
    score_norm: float
    warnings: list[str]
    n_subjects: int

    @property
    def loglik(self) -> float:
        return self.loglik_trace[-1]


def _exp_powers(v: np.ndarray, beta: float):
    """e^{beta v}, v e^{beta v} and v^2 e^{beta v}."""
    e = np.exp(np.minimum(beta * v, EXP_CLIP))
    ve = v * e
    return e, ve, v * ve


class _Workspace:
    """Per-dataset arrays behind every risk-set sum, in O(n J + K) memory.

    The covariate path is a step function on the grid, so risk-set sums
    collapse onto the J grid intervals (t_j, t_{j+1}] (the last one ends at
    tau).  Subject i is at risk at every event of an interval j < a_x(i), an
    observed entry (`t_sub`, `t_int`) with the value `t_next` = z_{j+1}; in its
    terminal interval a_x(i) only at events <= x_i, with the value z_extra when
    the dataset stores it (full-information form) and the latent value otherwise.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        grid = dataset.grid
        subs = dataset.subjects
        n = len(subs)
        self.n = n
        self.ids = [s.id for s in subs]
        self.x = np.array([s.x for s in subs])
        self.delta = np.array([s.delta for s in subs], dtype=float)
        ev = sorted((s.x, i) for i, s in enumerate(subs) if s.delta == 1)
        self.xe = np.array([t for t, _ in ev])
        self.ev_row = np.array([i for _, i in ev], dtype=int)
        self.K = len(self.xe)
        if self.K == 0:
            raise InsufficientDataError("no uncensored subjects")
        if np.any(np.diff(self.xe) <= 0):
            raise ValidationError("tied uncensored event times")
        self.J = J = len(grid)
        self.a_e = np.array([last_index(t, grid) for t in self.xe], dtype=int)
        self.a_x = np.array([last_index(s.x, grid) for s in subs], dtype=int)
        self.has_extra = np.array([len(s.measurements) for s in subs]) == self.a_x + 2
        self.extra_rows = np.flatnonzero(self.has_extra)
        Z = np.zeros((n, J + 1))
        for i, s in enumerate(subs):
            Z[i, : len(s.measurements)] = s.measurements
        rows = np.arange(n)
        self.z0 = Z[:, 0].copy()
        self.z_pred = Z[rows, self.a_x]
        self.z_extra = Z[rows, self.a_x + 1]  # 0 where not stored
        # the observed entries are also the observed history transitions
        # z_j -> z_{j+1} (the terminal step is always carried by the atoms)
        self.t_sub, self.t_int = np.nonzero(np.arange(J)[None, :] < self.a_x[:, None])
        self.t_prev, self.t_next = Z[self.t_sub, self.t_int], Z[self.t_sub, self.t_int + 1]
        self._obs_beta = None
        # Events, then subjects, in one time order (an event before a subject
        # leaving at its time, who is at risk there) in a zero-padded array with
        # one row per grid interval: running sums along a row stay within the
        # interval, so a late small sum is never a difference of large totals.
        order = np.lexsort((np.arange(self.K + n) >= self.K, np.concatenate([self.xe, self.x])))
        pos = np.empty_like(order)
        pos[order] = np.arange(order.size)
        row = np.concatenate([self.a_e, self.a_x])
        counts = np.bincount(row, minlength=J)
        self._cell = (row, pos - (np.cumsum(counts) - counts)[row])
        self._rows = (J, int(counts.max()))
        self.obs_stats = {
            "S_p": float(np.sum(self.t_prev)),
            "S_n": float(np.sum(self.t_next)),
            "S_pp": float(np.sum(self.t_prev**2)),
            "S_pn": float(np.sum(self.t_prev * self.t_next)),
            "S_nn": float(np.sum(self.t_next**2)),
            "count": float(self.t_prev.size),
        }

    def interval_sums(self, v: np.ndarray, beta: float):
        """e^{beta v} of values v on the observed entries, and per grid interval
        the sums of v^m e^{beta v}, m = 0, 1, 2 (J x 3)."""
        E = _exp_powers(v, beta)
        return E[0], np.stack([np.bincount(self.t_int, F, self.J) for F in E], axis=1)

    def obs_mats(self, beta: float):
        """`interval_sums` of the observed values, kept for the last beta (an EM
        iteration asks for one beta from the E-step, the M-step and the certificate)."""
        if beta != self._obs_beta:
            self._obs_beta, self._obs = beta, self.interval_sums(self.t_next, beta)
        return self._obs

    def _running(self, v: np.ndarray, reverse: bool = False) -> np.ndarray:
        """Per item (events, then subjects): the sum of v over its interval's items up to it
        (from it on, if reverse)."""
        pad = np.zeros(self._rows + v.shape[1:])
        pad[self._cell] = v
        if reverse:
            return np.cumsum(pad[:, ::-1], axis=1)[:, ::-1][self._cell]
        return np.cumsum(pad, axis=1)[self._cell]

    def masses(self, dL: np.ndarray):
        """Hazard mass of each grid interval (J) and of each subject's terminal window (n)."""
        return (np.bincount(self.a_e, weights=dL, minlength=self.J),
                self._running(np.concatenate([dL, np.zeros(self.n)]))[self.K:])

    def splits(self, beta: float, dL: np.ndarray):
        """Per subject: hazard mass times e^{beta z} where z is observed (a_obs), latent mass (a_lat)."""
        H, P = self.masses(dL)
        # (astype: bincount returns integers when there is no observed entry)
        a_obs = np.bincount(self.t_sub, self.obs_mats(beta)[0] * H[self.t_int], self.n).astype(float, copy=False)
        x = self.extra_rows
        a_obs[x] += np.exp(np.minimum(beta * self.z_extra[x], EXP_CLIP)) * P[x]
        return a_obs, ~self.has_extra * P

    def moments(self, est: "_EStep", beta: float) -> np.ndarray:
        """E_i[Z^m e^{beta Z}], m = 0, 1, 2, of each terminal value (n x 3), or of its stored
        value, written into `est`'s block for this beta (the same write each time)."""
        m = est.exp_moments(beta)
        if self.extra_rows.size:
            m[self.extra_rows] = np.column_stack(_exp_powers(self.z_extra[self.extra_rows], beta))
        return m

    def cols(self, S, g) -> np.ndarray:
        """Per event time, the sum over its risk set of each subject's value there: S (J,
        optional trailing axes; None for zero) sums per interval the values of the
        subjects at risk past it, g (n, same trailing axes) holds their terminal values."""
        out = self._running(np.concatenate([np.zeros((self.K,) + g.shape[1:]), g]), reverse=True)[: self.K]
        return out if S is None else out + S[self.a_e]

    def totals(self, est: "_EStep", beta: float, dL: np.ndarray) -> np.ndarray:
        """sum_i of the dL-integral of Z^m e^{beta Z} over subject i's risk period, m = 0, 1, 2."""
        H, P = self.masses(dL)
        return self.obs_mats(beta)[1].T @ H + self.moments(est, beta).T @ P


class _EStep:
    """Posterior atoms for all subjects plus the per-subject hazard splits; `nodes` and
    `weights` are n x Q, and sums over nodes run along the subjects of their transposes."""

    __slots__ = ("nodes", "weights", "log_norm", "a_obs", "a_lat", "E1", "E2", "mode", "sd",
                 "_moments_beta", "_moments")

    def __init__(self, nodes, weights, log_norm, a_obs, a_lat, mode=None, sd=None):
        self.nodes = nodes
        self.weights = weights
        self.log_norm = log_norm
        self.a_obs = a_obs
        self.a_lat = a_lat
        self.mode = mode
        self.sd = sd
        wz = weights.T * nodes.T
        self.E1 = np.sum(wz, axis=0)
        self.E2 = np.sum(np.multiply(wz, nodes.T, out=wz), axis=0)
        self._moments_beta = None

    def exp_moments(self, beta: float) -> np.ndarray:
        """E[Z^m e^{bZ}], m = 0, 1, 2 (n x 3) at the current beta (kept for the last beta)."""
        if beta != self._moments_beta:
            z = self.nodes.T
            t = self.weights.T * np.exp(np.minimum(beta * z, EXP_CLIP))
            m = np.empty((z.shape[1], 3))
            for j in range(3):
                m[:, j] = np.sum(t, axis=0)
                t *= z
            self._moments_beta, self._moments = beta, m
        return self._moments


def _estep(ws: _Workspace, alpha: TransitionParams, beta: float, dL: np.ndarray, Q: int) -> _EStep:
    a_obs, a_lat = ws.splits(beta, dL)
    mean = alpha.a + alpha.b * ws.z_pred
    full, n = ws.extra_rows, ws.n
    if full.size < n:
        nodes, weights, mode, sd, log_norm = batch_posterior(
            ws.delta, a_lat, mean, alpha.ssq, beta, Q, ids=ws.ids)
    else:  # every terminal value is stored: no quadrature
        nodes, weights, mode, sd, log_norm = np.empty((Q, n)).T, np.empty((Q, n)).T, *np.empty((3, n))
    if full.size:
        # a stored terminal value is one atom (with no latent mass, the
        # quadrature above made no mode search for it)
        zf = ws.z_extra[full]
        nodes[full], weights[full], weights[full, 0], mode[full], sd[full] = zf[:, None], 0.0, 1.0, zf, 0.0
        log_norm[full] = ws.delta[full] * beta * zf + gauss_logpdf(zf, mean[full], alpha.ssq)
    return _EStep(nodes, weights, log_norm, a_obs, a_lat, mode, sd)


def _alpha_stats(ws: _Workspace, est: _EStep) -> dict:
    s = ws.obs_stats
    return {
        "z0": ws.z0,
        "S_p": s["S_p"] + float(np.sum(ws.z_pred)),
        "S_n": s["S_n"] + float(np.sum(est.E1)),
        "S_pp": s["S_pp"] + float(np.sum(ws.z_pred**2)),
        "S_pn": s["S_pn"] + float(np.sum(ws.z_pred * est.E1)),
        "S_nn": s["S_nn"] + float(np.sum(est.E2)),
        "count": s["count"] + ws.n,
    }


def _alpha_objective(stats: dict, alpha: TransitionParams) -> float:
    """EM objective restricted to alpha (expected complete-data Gaussian loglik)."""
    z0 = stats["z0"]
    n0 = z0.size
    out = -0.5 * n0 * (math.log(2 * math.pi) + math.log(alpha.s0sq))
    out -= float(np.sum((z0 - alpha.mu0) ** 2)) / (2 * alpha.s0sq)
    N = stats["count"]
    sse = (
        stats["S_nn"] - 2 * alpha.a * stats["S_n"] - 2 * alpha.b * stats["S_pn"]
        + N * alpha.a**2 + 2 * alpha.a * alpha.b * stats["S_p"] + alpha.b**2 * stats["S_pp"]
    )
    out += -0.5 * N * (math.log(2 * math.pi) + math.log(alpha.ssq)) - sse / (2 * alpha.ssq)
    return out


def _hist_loglik(ws: _Workspace, alpha: TransitionParams) -> float:
    out = float(np.sum(gauss_logpdf(ws.z0, alpha.mu0, alpha.s0sq)))
    if ws.t_prev.size:
        out += float(np.sum(gauss_logpdf(ws.t_next, alpha.a + alpha.b * ws.t_prev, alpha.ssq)))
    return out


def _loglik(ws: _Workspace, alpha: TransitionParams, dL: np.ndarray, est: _EStep) -> float:
    out = float(np.sum(np.log(dL)))
    out += float(np.sum(-est.a_obs + est.log_norm))
    out += _hist_loglik(ws, alpha)
    if not math.isfinite(out):
        bad = np.flatnonzero(~np.isfinite(-est.a_obs + est.log_norm))
        sid = ws.ids[bad[0]] if bad.size else "?"
        raise ValidationError(f"non-finite log likelihood (subject {sid!r})")
    return out


def _wn_vec(ws: _Workspace, est: _EStep, beta: float) -> np.ndarray:
    return ws.cols(ws.obs_mats(beta)[1][:, 0], ws.moments(est, beta)[:, 0]) / ws.n


def _check_wn(ws: _Workspace, wn: np.ndarray) -> None:
    bad = ~(wn > 0) | ~np.isfinite(wn)
    if np.any(bad):
        raise DegenerateRiskSetError(float(ws.xe[int(np.argmax(bad))]))


def _score_info_beta(ws, est, beta, dL):
    _, t1, t2 = ws.totals(est, beta, dL)
    return (float(np.sum(ws.delta * est.E1)) - float(t1)) / ws.n, float(t2) / ws.n


def _q_beta(ws, est, beta, dL):
    """EM objective terms that depend on beta, at fixed atoms and hazard."""
    return (beta * float(np.sum(ws.delta * est.E1)) - float(ws.totals(est, beta, dL)[0])) / ws.n


def _alpha_score_mean(ws: _Workspace, est: _EStep, alpha: TransitionParams) -> np.ndarray:
    """(1/n) sum_i E_i[d/dalpha log f], the alpha block of the empirical score."""
    stats = _alpha_stats(ws, est)
    n = ws.n
    N = stats["count"]
    d0 = ws.z0 - alpha.mu0
    g = np.empty(5)
    g[0] = float(np.sum(d0)) / alpha.s0sq / n
    g[1] = float(np.sum(-0.5 / alpha.s0sq + d0 * d0 / (2 * alpha.s0sq**2))) / n
    g[2] = (stats["S_n"] - N * alpha.a - alpha.b * stats["S_p"]) / alpha.ssq / n
    g[3] = (stats["S_pn"] - alpha.a * stats["S_p"] - alpha.b * stats["S_pp"]) / alpha.ssq / n
    sse = (
        stats["S_nn"] - 2 * alpha.a * stats["S_n"] - 2 * alpha.b * stats["S_pn"]
        + N * alpha.a**2 + 2 * alpha.a * alpha.b * stats["S_p"] + alpha.b**2 * stats["S_pp"]
    )
    g[4] = (-0.5 * N / alpha.ssq + sse / (2 * alpha.ssq**2)) / n
    return g


def _free_directions(cfg: FitConfig):
    """Probe directions along which the constrained maximizer must be stationary.

    Components pinned by a degenerate box are not part of the sieve, so their
    score need not vanish and they drop out of the convergence certificate.
    """
    lo, hi = cfg.alpha_box.bounds().T
    return lo < hi, cfg.beta_box > 0


def _certificate(ws, est, alpha, beta, dL, cfg: FitConfig):
    """Fixed-point residual and score norm over the canonical probe basis."""
    wn = _wn_vec(ws, est, beta)
    id_resid = float(np.max(np.abs(dL * wn - 1.0 / ws.n)))
    s3 = 1.0 / ws.n - dL * wn
    score_norm = float(np.max(np.abs(s3)))
    alpha_free, beta_free = _free_directions(cfg)
    if np.any(alpha_free):
        s1 = _alpha_score_mean(ws, est, alpha)
        score_norm = max(score_norm, float(np.max(np.abs(s1[alpha_free]))))
    if beta_free:
        s2, _ = _score_info_beta(ws, est, beta, dL)
        score_norm = max(score_norm, abs(s2))
    return id_resid, score_norm


def _mstep(ws, est, alpha, beta, dL, cfg: FitConfig, warn: list):
    # conditional maximization in alpha (closed form, ascent-safeguarded)
    stats = _alpha_stats(ws, est)
    alpha_new, floored = _solve_gaussian_mle(stats, cfg.alpha_box, cfg.var_floor)
    if floored and FLOOR_MESSAGE not in warn:
        warn.append(FLOOR_MESSAGE)
    if _alpha_objective(stats, alpha_new) < _alpha_objective(stats, alpha) - 1e-12:
        # projection onto the box can break ascent; backtrack toward the old value
        ok = False
        va, vn = alpha.as_array(), alpha_new.as_array()
        for j in range(1, cfg.step_halving_max + 1):
            cand = TransitionParams.from_array(va + (vn - va) * 0.5**j)
            if _alpha_objective(stats, cand) >= _alpha_objective(stats, alpha) - 1e-12:
                alpha_new, ok = cand, True
                break
        if not ok:
            alpha_new = alpha

    for _ in range(cfg.inner_cycles):
        wn = _wn_vec(ws, est, beta)
        _check_wn(ws, wn)
        dL = 1.0 / (ws.n * wn)
        score, info = _score_info_beta(ws, est, beta, dL)
        if info <= 0 or abs(score) < 0.05 * cfg.tol_score:
            continue
        q0 = _q_beta(ws, est, beta, dL)
        step = score / info
        for j in range(cfg.step_halving_max + 1):
            cand = float(np.clip(beta + step * 0.5**j, -cfg.beta_box, cfg.beta_box))
            if cand == beta:
                break
            if _q_beta(ws, est, cand, dL) >= q0 - 1e-13 * (1 + abs(q0)):
                beta = cand
                break
    wn = _wn_vec(ws, est, beta)
    _check_wn(ws, wn)
    dL = 1.0 / (ws.n * wn)
    return alpha_new, beta, dL


def _init_theta(ws: _Workspace, init: Theta | None, cfg: FitConfig):
    if init is None:
        # Gaussian MLE from the observed transitions only
        if ws.n < 2:
            raise InsufficientDataError("need at least 2 subjects")
        if ws.obs_stats["count"] < 1:
            # no observed transitions at all: fall back to the entry distribution
            mu0 = float(np.mean(ws.z0))
            s0sq = max(float(np.mean((ws.z0 - mu0) ** 2)), cfg.var_floor)
            vec = cfg.alpha_box.project(np.array([mu0, s0sq, mu0, 0.0, s0sq]))
            vec[[1, 4]] = np.maximum(vec[[1, 4]], cfg.var_floor)
            alpha = TransitionParams.from_array(vec)
        else:
            alpha, floored = _solve_gaussian_mle({"z0": ws.z0, **ws.obs_stats}, cfg.alpha_box, cfg.var_floor)
            if floored:
                _warnings.warn(FLOOR_MESSAGE, RuntimeWarning)
        beta = 0.0
        dL = 1.0 / ws.cols(np.bincount(ws.t_int, minlength=ws.J), np.ones(ws.n))  # Nelson-Aalen jumps
        return alpha, beta, dL
    alpha = TransitionParams.from_array(cfg.alpha_box.project(init.alpha.as_array()))
    beta = float(np.clip(init.beta, -cfg.beta_box, cfg.beta_box))
    dL = np.maximum(_hazard_jumps(ws, init.hazard), 1e-300)
    return alpha, beta, dL


def _boundedness_check(ws, est, dL, cfg, warn: list):
    at_tau = int(np.sum(ws.x >= ws.dataset.tau))
    if at_tau == 0:
        return
    # the observed values at risk at some event (z_extra is 0 where not stored), and the atoms
    zmax = float(np.max(np.abs(np.concatenate([
        ws.t_next[np.bincount(ws.a_e, minlength=ws.J)[ws.t_int] > 0],
        ws.z_extra * (ws.masses(np.ones(ws.K))[1] > 0), est.nodes.ravel()]))))
    m = math.exp(-cfg.beta_box * zmax) if cfg.beta_box * zmax < EXP_CLIP else 0.0
    if m <= 0:
        return
    bound = (ws.K / ws.n) / (m * at_tau / ws.n)
    if float(np.sum(dL)) > bound * (1 + 1e-9):
        warn.append(f"hazard mass {float(np.sum(dL)):.6g} exceeds the boundedness bound {bound:.6g}")


def em_fit(dataset: Dataset, init: Theta | None = None, config: FitConfig | None = None) -> FitResult:
    """Maximize the joint pseudo likelihood by ECM with ascent safeguards."""
    cfg = config or FitConfig()
    dataset = validate_dataset(dataset)
    if dataset.n_events < 1:
        raise InsufficientDataError("at least one uncensored subject is required")
    ws = _Workspace(dataset)
    warn: list[str] = []
    if max(len(s.measurements) for s in dataset.subjects) < 2:
        warn.append("identifiability: no subject has two or more measurements")

    alpha, beta, dL = _init_theta(ws, init, cfg)
    est = _estep(ws, alpha, beta, dL, cfg.Q)
    ll = _loglik(ws, alpha, dL, est)
    trace = [ll]
    converged = False
    score_norm = math.inf
    iterations = 0

    for it in range(1, cfg.max_iter + 1):
        iterations = it
        a_new, b_new, dL_new = _mstep(ws, est, alpha, beta, dL, cfg, warn)
        est_new = _estep(ws, a_new, b_new, dL_new, cfg.Q)
        ll_new = _loglik(ws, a_new, dL_new, est_new)
        if ll_new < ll - ASCENT_TOL:
            accepted = False
            va, vn = alpha.as_array(), a_new.as_array()
            for j in range(1, cfg.step_halving_max + 1):
                t = 0.5**j
                a_try = TransitionParams.from_array(va + (vn - va) * t)
                b_try = beta + (b_new - beta) * t
                dL_try = dL + (dL_new - dL) * t
                est_try = _estep(ws, a_try, b_try, dL_try, cfg.Q)
                ll_try = _loglik(ws, a_try, dL_try, est_try)
                if ll_try >= ll - ASCENT_TOL:
                    a_new, b_new, dL_new, est_new, ll_new = a_try, b_try, dL_try, est_try, ll_try
                    accepted = True
                    break
            if not accepted:
                raise AscentError(
                    f"observed log likelihood decreased ({ll:.10g} -> {ll_new:.10g}) "
                    f"and {cfg.step_halving_max} halvings did not restore ascent at iteration {it}")
        change = max(
            float(np.max(np.abs(a_new.as_array() - alpha.as_array()))),
            abs(b_new - beta),
            float(np.max(np.abs(dL_new - dL))),
        )
        alpha, beta, dL, est, ll = a_new, b_new, dL_new, est_new, ll_new
        trace.append(ll)
        id_resid, score_norm = _certificate(ws, est, alpha, beta, dL, cfg)
        if change < cfg.tol_param and score_norm <= cfg.tol_score and id_resid <= cfg.id_tol:
            converged = True
            break

    _boundedness_check(ws, est, dL, cfg, warn)
    if abs(beta) >= cfg.beta_box and cfg.beta_box > 0:
        warn.append("beta at the box boundary")
    theta = Theta(alpha=alpha, beta=beta, hazard=SieveHazard(tuple(ws.xe), tuple(dL)))
    return FitResult(
        theta_hat=theta,
        loglik_trace=trace,
        iterations=iterations,
        converged=converged,
        score_norm=float(score_norm),
        warnings=warn,
        n_subjects=ws.n,
    )


# ---------------------------------------------------------------------------
# Public single-shot operations (thin wrappers over the vectorized kernels)
# ---------------------------------------------------------------------------

def _atoms_to_estep(ws: _Workspace, atoms, beta: float, dL: np.ndarray) -> _EStep:
    if len(atoms) != ws.n:
        raise ValidationError("atoms must align with dataset.subjects")
    qmax = max(len(np.atleast_1d(a.nodes)) for a in atoms)
    nodes = np.zeros((ws.n, qmax))
    weights = np.zeros((ws.n, qmax))
    log_norm = np.zeros(ws.n)
    for i, a in enumerate(atoms):
        nd = np.atleast_1d(np.asarray(a.nodes, dtype=float))
        wt = np.atleast_1d(np.asarray(a.weights, dtype=float))
        nodes[i, : nd.size] = nd
        nodes[i, nd.size:] = nd[-1] if nd.size else 0.0
        weights[i, : wt.size] = wt
        log_norm[i] = a.log_norm
    a_obs, a_lat = ws.splits(beta, dL)
    return _EStep(nodes, weights, log_norm, a_obs, a_lat)


def _hazard_jumps(ws: _Workspace, hazard: SieveHazard) -> np.ndarray:
    ht = np.asarray(hazard.times)
    if ht.size != ws.K or not np.allclose(ht, ws.xe, rtol=0.0, atol=1e-12):
        raise ValidationError("hazard must jump exactly at the dataset event times")
    return np.asarray(hazard.jumps, dtype=float)


def w_n(u: float, dataset: Dataset, atoms, beta: float) -> float:
    """W_n(u) = (1/n) sum_i E[e^{beta Z(u)} 1{u <= X_i} | y_i] at an event time u."""
    ws = _Workspace(dataset)
    k = int(np.argmin(np.abs(ws.xe - u)))
    if abs(ws.xe[k] - u) > 1e-12:
        raise ValidationError(f"u={u!r} is not an event time of the dataset")
    est = _atoms_to_estep(ws, atoms, beta, np.zeros(ws.K))
    return float(_wn_vec(ws, est, beta)[k])


def lambda_update(dataset: Dataset, atoms, beta: float) -> SieveHazard:
    """Closed-form hazard update: dL_k = (1/n) / W_n(x_k)."""
    ws = _Workspace(dataset)
    est = _atoms_to_estep(ws, atoms, beta, np.zeros(ws.K))
    wn = _wn_vec(ws, est, beta)
    _check_wn(ws, wn)
    return SieveHazard(tuple(ws.xe), tuple(1.0 / (ws.n * wn)))


def score_beta(dataset: Dataset, atoms, beta: float, hazard: SieveHazard) -> float:
    """Empirical beta-score (1/n) sum_i E_i[dZ - int Z e^{bZ} dL]."""
    ws = _Workspace(dataset)
    dL = _hazard_jumps(ws, hazard)
    est = _atoms_to_estep(ws, atoms, beta, dL)
    return _score_info_beta(ws, est, beta, dL)[0]


def info_beta(dataset: Dataset, atoms, beta: float, hazard: SieveHazard) -> float:
    """Curvature (1/n) sum_i E_i[int Z^2 e^{bZ} dL] used by the Newton step."""
    ws = _Workspace(dataset)
    dL = _hazard_jumps(ws, hazard)
    est = _atoms_to_estep(ws, atoms, beta, dL)
    return _score_info_beta(ws, est, beta, dL)[1]


def observed_loglik(dataset: Dataset, theta: Theta, Q: int = 40) -> float:
    """Observed-data log likelihood of theta, by mode-recentered quadrature."""
    ws = _Workspace(dataset)
    dL = _hazard_jumps(ws, theta.hazard)
    est = _estep(ws, theta.alpha, theta.beta, dL, Q)
    return _loglik(ws, theta.alpha, dL, est)


def estep_atoms(dataset: Dataset, theta: Theta, Q: int = 40) -> list[PosteriorAtoms]:
    """Posterior atoms for all subjects at theta, in subject order."""
    ws = _Workspace(dataset)
    dL = _hazard_jumps(ws, theta.hazard)
    est = _estep(ws, theta.alpha, theta.beta, dL, Q)
    out = []
    for i in range(ws.n):
        take = 1 if ws.has_extra[i] else est.nodes.shape[1]
        out.append(PosteriorAtoms(
            nodes=est.nodes[i, :take].copy(), weights=est.weights[i, :take].copy(),
            mode=float(est.mode[i]), curvature_sd=float(est.sd[i]),
            log_norm=float(est.log_norm[i])))
    return out


def score_full(dataset: Dataset, theta: Theta, h, Q: int = 40, atoms=None) -> float:
    """Empirical score along the probe h = (h1, h2, h3-at-event-times).

    With `atoms` given, expectations are frozen at the atoms' parameter
    (the two-argument score of the EM construction); otherwise the atoms are
    recomputed at theta itself.
    """
    h1, h2, h3 = h
    ws = _Workspace(dataset)
    dL = _hazard_jumps(ws, theta.hazard)
    if atoms is None:
        est = _estep(ws, theta.alpha, theta.beta, dL, Q)
    else:
        est = _atoms_to_estep(ws, atoms, theta.beta, dL)
    h1 = np.zeros(5) if h1 is None else np.asarray(h1, dtype=float)
    h3 = np.zeros(ws.K) if h3 is None else np.asarray(h3, dtype=float) * np.ones(ws.K)
    s1 = _alpha_score_mean(ws, est, theta.alpha)
    s2, _ = _score_info_beta(ws, est, theta.beta, dL)
    wn = _wn_vec(ws, est, theta.beta)
    s3 = float(np.sum(h3 * (1.0 / ws.n - dL * wn)))
    return float(h1 @ s1) + float(h2) * s2 + s3
