"""EM maximizer of the joint pseudo likelihood over the step-hazard sieve.

One EM map: (E) posterior atoms for every subject at the current theta;
(M) closed-form transition-parameter update, then at most `inner_cycles`
step-halved Newton steps in beta on the EM objective profiled over the hazard
(whose maximizing hazard is the closed form dL_k = (1/n) / W_n(x_k), taken at
the accepted beta).  Every update increases the EM objective, so the observed
log likelihood is nondecreasing up to quadrature error; a drop beyond
ASCENT_TOL raises AscentError.

The maps are accelerated by SQUAREM: after two maps the parameters are
extrapolated along their differences, and the extrapolated point is kept (and
followed by one more map) only if its log likelihood has not dropped.

Convergence requires one map to move the parameters less than `tol_param`, a
small score over the canonical probe directions, and the hazard fixed-point
identity dL_k * W_n(x_k) = 1/n holding at freshly computed atoms.
"""

from __future__ import annotations

import itertools
import math
import warnings as _warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SieveHazard, Theta, validate_dataset
from .exceptions import (
    AscentError,
    DegenerateRiskSetError,
    InsufficientDataError,
    ModeSearchError,
    ValidationError,
    reading,
)
from .posterior import EXP_CLIP, batch_posterior, exp_clipped, gauss_logpdf
from .transition import (
    FLOOR_MESSAGE,
    VAR_FLOOR,
    AlphaBox,
    TransitionParams,
    TransitionStats,
)

ASCENT_TOL = 1e-8


@dataclass
class FitConfig:
    """Knobs of the EM fitter; all runs with the same config are deterministic.

    `max_iter` caps the EM maps; `inner_cycles` caps the M-step's Newton steps in beta.
    """

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
        with reading("fit config"):
            d = dict(d)
            box = d.pop("alpha_box", None)
            cfg = FitConfig(**d)
            if box is not None:
                cfg.alpha_box = AlphaBox(**{k: tuple(v) for k, v in box.items()})
        return cfg


@dataclass
class FitResult:
    """`posterior` is the final E-step, the posterior at theta_hat on the fit's workspace."""

    theta_hat: Theta
    loglik_trace: list[float]
    iterations: int
    converged: bool
    score_norm: float
    warnings: list[str]
    n_subjects: int
    posterior: Posterior = field(repr=False, compare=False)

    @property
    def loglik(self) -> float:
        return self.loglik_trace[-1]


def _exp_powers(v: np.ndarray, beta: float):
    """e^{beta v}, v e^{beta v} and v^2 e^{beta v}."""
    e = exp_clipped(np.multiply(v, beta))
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
        self.dataset = validate_dataset(dataset)
        n = self.n = dataset.n
        self.ids = [s.id for s in dataset.subjects]
        self.x, self.delta, self.a_x, self.has_extra = dataset.x, dataset.delta, dataset.a_x, dataset.has_extra
        ev = np.flatnonzero(self.delta)
        self.ev_row = ev[np.argsort(self.x[ev], kind="stable")]
        self.xe = self.x[self.ev_row]
        self.K = len(self.xe)
        if self.K == 0:
            raise InsufficientDataError("no uncensored subjects")
        self.J = J = len(dataset.grid)
        self.a_e = self.a_x[self.ev_row]
        # the zero-padded measurement matrix: its observed entries are also the observed
        # transitions z_j -> z_{j+1}, j < a_x (the atoms carry the terminal step)
        Z = np.zeros((n, J + 1))
        Z[np.arange(J + 1) <= (self.a_x + self.has_extra)[:, None]] = list(
            itertools.chain.from_iterable(s.measurements for s in dataset.subjects))
        self.t_sub, self.t_int = np.nonzero(np.arange(J) < self.a_x[:, None])
        self.extra_rows = np.flatnonzero(self.has_extra)
        self.z0 = Z[:, 0].copy()
        rows = np.arange(n)
        self.z_pred, self.z_extra = Z[rows, self.a_x], Z[rows, self.a_x + 1]  # z_extra 0 where not stored
        self.t_prev, self.t_next = Z[self.t_sub, self.t_int], Z[self.t_sub, self.t_int + 1]
        self.obs = TransitionStats.of(self.z0, self.t_prev, self.t_next)
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
        col = pos - (np.cumsum(counts) - counts)[row]
        self._rows = (J, int(counts.max()))
        # each item's cell as a flat index into the padded rows, and with mirrored columns
        self._cell = (row * self._rows[1] + col, (row + 1) * self._rows[1] - 1 - col)

    def transition_stats(self, est: "Posterior") -> TransitionStats:
        """The observed histories' statistics merged with the terminal transitions
        z_pred -> latent value, integrated over `est`'s atoms."""
        return self.obs.merge(TransitionStats.of((), self.z_pred, est.E1, est.V))

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
        """Running sums within each grid interval over its items in time order: per
        subject, the sum of the events' values v (K) up to it; if reverse, per event, the
        sum of the subjects' values v (n, optional trailing axes) from it on.  The reverse
        sum runs forward over mirrored columns, adding in the same order."""
        cell = self._cell[reverse]
        put, take = (cell[self.K:], cell[: self.K]) if reverse else (cell[: self.K], cell[self.K:])
        pad = np.zeros((self._rows[0] * self._rows[1],) + v.shape[1:])
        pad[put] = v
        rows = pad.reshape(self._rows + v.shape[1:])
        np.cumsum(rows, axis=1, out=rows)
        return pad[take]

    def masses(self, dL: np.ndarray):
        """Hazard mass of each grid interval (J) and of each subject's terminal window (n)."""
        return (np.bincount(self.a_e, weights=dL, minlength=self.J),
                self._running(dL))

    def splits(self, beta: float, dL: np.ndarray):
        """Per subject: hazard mass times e^{beta z} where z is observed (a_obs), latent mass (a_lat)."""
        H, P = self.masses(dL)
        # (astype: bincount returns integers when there is no observed entry)
        h = np.take(H, self.t_int)
        h *= self.obs_mats(beta)[0]
        a_obs = np.bincount(self.t_sub, h, self.n).astype(float, copy=False)
        x = self.extra_rows
        a_obs[x] += exp_clipped(beta * self.z_extra[x]) * P[x]
        return a_obs, np.where(self.has_extra, 0.0, P)

    def cols(self, S, g) -> np.ndarray:
        """Per event time, the sum over its risk set of each subject's value there: S (J,
        optional trailing axes; None for zero) sums per interval the values of the
        subjects at risk past it, g (n, same trailing axes) holds their terminal values."""
        out = self._running(g, reverse=True)
        if S is not None:
            out += np.take(S, self.a_e, axis=0)
        return out


class Posterior:
    """The posterior of every subject's terminal value at one parameter, on the workspace
    `ws` of the dataset it was computed on, which the calls that take it read.

    `nodes` and `weights` (n x Q) are the atoms: mode-recentred Gauss-Hermite nodes, or a
    stored terminal value repeated with weight one on the first.  `log_norm` is the log of
    each subject's integral factor, `a_obs` and `a_lat` its hazard mass on observed and
    latent values, `E1` and `V` the posterior mean and variance.  Sums over nodes run along
    the subjects of the transposes.
    """

    __slots__ = ("ws", "nodes", "weights", "log_norm", "a_obs", "a_lat", "E1", "V", "mode", "sd",
                 "_moments_beta", "_moments")

    def __init__(self, ws, nodes, weights, log_norm, a_obs, a_lat, mode=None, sd=None):
        self.ws = ws
        self.nodes = nodes
        self.weights = weights
        self.log_norm = log_norm
        self.a_obs = a_obs
        self.a_lat = a_lat
        self.mode = mode
        self.sd = sd
        wz = weights.T * nodes.T
        self.E1 = np.sum(wz, axis=0)
        # posterior variance E[Z^2] - E[Z]^2: the cancellation stays within one subject's term
        self.V = np.sum(np.multiply(wz, nodes.T, out=wz), axis=0) - self.E1**2
        self._moments_beta = None

    def exp_moments(self, beta: float) -> np.ndarray:
        """E[Z^m e^{bZ}], m = 0, 1, 2 (n x 3) at the current beta (kept for the last beta)."""
        if beta != self._moments_beta:
            z = self.nodes.T
            t = exp_clipped(np.multiply(z, beta))
            t *= self.weights.T
            m = np.empty((z.shape[1], 3))
            for j in range(3):
                if j:
                    t *= z
                m[:, j] = np.sum(t, axis=0)
            self._moments_beta, self._moments = beta, m
        return self._moments


def _estep(ws: _Workspace, alpha: TransitionParams, beta: float, dL: np.ndarray, Q: int) -> Posterior:
    a_obs, a_lat = ws.splits(beta, dL)
    mean = alpha.a + alpha.b * ws.z_pred
    nodes, weights, mode, sd, log_norm = batch_posterior(ws.delta, a_lat, mean, alpha.ssq, beta, Q, ids=ws.ids)
    full = ws.extra_rows
    if full.size:
        # a stored terminal value is one atom, written over its quadrature row
        zf = ws.z_extra[full]
        nodes[full], weights[full], weights[full, 0], mode[full], sd[full] = zf[:, None], 0.0, 1.0, zf, 0.0
        log_norm[full] = ws.delta[full] * beta * zf + gauss_logpdf(zf, mean[full], alpha.ssq)
    return Posterior(ws, nodes, weights, log_norm, a_obs, a_lat, mode, sd)


def _loglik(ws: _Workspace, alpha: TransitionParams, dL: np.ndarray, est: Posterior) -> float:
    out = float(np.sum(np.log(dL)))
    out += float(np.sum(-est.a_obs + est.log_norm))
    out += ws.obs.objective(alpha)
    if not math.isfinite(out):
        bad = np.flatnonzero(~np.isfinite(-est.a_obs + est.log_norm))
        sid = ws.ids[bad[0]] if bad.size else "?"
        raise ValidationError(f"non-finite log likelihood (subject {sid!r})")
    return out


def _check_wn(ws: _Workspace, wn: np.ndarray) -> None:
    bad = ~(wn > 0) | ~np.isfinite(wn)
    if np.any(bad):
        raise DegenerateRiskSetError(float(ws.xe[int(np.argmax(bad))]))


def _score_beta(ws, est, R, dL) -> float:
    """(1/n) sum_i E_i[delta_i Z - int Z e^{beta Z} dL], the beta score at a fixed hazard,
    from the risk-set sums R at beta (`_risk_cols`)."""
    return (float(np.sum(ws.delta * est.E1)) - float(dL @ R[:, 1])) / ws.n


def _free_directions(cfg: FitConfig):
    """Probe directions along which the constrained maximizer must be stationary.

    Components pinned by a degenerate box are not part of the sieve, so their
    score need not vanish and they drop out of the convergence certificate.
    """
    lo, hi = cfg.alpha_box.bounds().T
    return lo < hi, cfg.beta_box > 0


def _certificate(ws, est, alpha, beta, dL, cfg: FitConfig):
    """Fixed-point residual and score norm over the canonical probe basis."""
    R = _risk_cols(ws, est, beta)
    wn = R[:, 0] / ws.n
    id_resid = float(np.max(np.abs(dL * wn - 1.0 / ws.n)))
    s3 = 1.0 / ws.n - dL * wn
    score_norm = float(np.max(np.abs(s3)))
    alpha_free, beta_free = _free_directions(cfg)
    if np.any(alpha_free):
        s1 = ws.transition_stats(est).score(alpha) / ws.n
        score_norm = max(score_norm, float(np.max(np.abs(s1[alpha_free]))))
    if beta_free:
        score_norm = max(score_norm, abs(_score_beta(ws, est, R, dL)))
    return id_resid, score_norm


def _risk_cols(ws, est, beta):
    """Per event time, the risk-set sums W, C, D of E[Z^m e^{beta Z}], m = 0, 1, 2 (K x 3)."""
    return ws.cols(ws.obs_mats(beta)[1], est.exp_moments(beta))


def _mstep(ws, est, alpha, beta, cfg: FitConfig, warn: list):
    # conditional maximization in alpha (closed form, ascent-safeguarded)
    stats = ws.transition_stats(est)
    alpha_new, floored = stats.mle(cfg.alpha_box, cfg.var_floor)
    if floored and FLOOR_MESSAGE not in warn:
        warn.append(FLOOR_MESSAGE)
    q = stats.objective(alpha)
    q_min = q - 1e-13 * (1 + abs(q))  # rounding in q grows with its magnitude
    if stats.objective(alpha_new) < q_min:
        # projection onto the box can break ascent; backtrack toward the old value
        ok = False
        va, vn = alpha.as_array(), alpha_new.as_array()
        for j in range(1, cfg.step_halving_max + 1):
            cand = TransitionParams.from_array(va + (vn - va) * 0.5**j)
            if stats.objective(cand) >= q_min:
                alpha_new, ok = cand, True
                break
        if not ok:
            alpha_new = alpha

    # (beta, hazard): step-halved Newton ascent on the EM objective profiled over the
    # hazard, l_p(beta) = (beta sum_i delta_i E_i[Z] - sum_k log W_k(beta)) / n, whose
    # maximizing hazard is dL_k = 1 / W_k; its curvature is centred on each risk set
    dE = float(np.sum(ws.delta * est.E1))
    R = _risk_cols(ws, est, beta)
    _check_wn(ws, R[:, 0])
    lp = (beta * dE - float(np.sum(np.log(R[:, 0])))) / ws.n
    for _ in range(cfg.inner_cycles):
        m1 = R[:, 1] / R[:, 0]
        score = (dE - float(np.sum(m1))) / ws.n
        info = float(np.sum(R[:, 2] / R[:, 0] - m1 * m1)) / ws.n
        if info <= 0 or abs(score) < 0.05 * cfg.tol_score:
            break
        for j in range(cfg.step_halving_max + 1):
            cand = float(np.clip(beta + score / info * 0.5**j, -cfg.beta_box, cfg.beta_box))
            if cand == beta:
                break
            R_c = _risk_cols(ws, est, cand)
            lp_c = (cand * dE - float(np.sum(np.log(R_c[:, 0])))) / ws.n
            if lp_c >= lp - 1e-13 * (1 + abs(lp)):
                break
        else:
            break  # no halving ascends
        if cand == beta:
            break  # pinned at the box, or the step no longer moves beta
        beta, R, lp = cand, R_c, lp_c
    _check_wn(ws, R[:, 0])
    return alpha_new, beta, 1.0 / R[:, 0]


def _init_theta(ws: _Workspace, init: Theta | None, cfg: FitConfig):
    if init is None:
        # Gaussian MLE from the observed transitions only
        if ws.n < 2:
            raise InsufficientDataError("need at least 2 subjects")
        if ws.obs.N < 1:
            # no observed transitions at all: fall back to the entry distribution
            mu0 = ws.obs.z0bar
            s0sq = max(ws.obs.M2_0 / ws.obs.n0, cfg.var_floor)
            alpha = cfg.alpha_box.clamp(np.array([mu0, s0sq, mu0, 0.0, s0sq]), cfg.var_floor)
        else:
            alpha, floored = ws.obs.mle(cfg.alpha_box, cfg.var_floor)
            if floored:
                _warnings.warn(FLOOR_MESSAGE, RuntimeWarning)
        beta = 0.0
        dL = 1.0 / ws.cols(np.bincount(ws.t_int, minlength=ws.J), np.ones(ws.n))  # Nelson-Aalen jumps
        return alpha, beta, dL
    alpha = TransitionParams.from_array(cfg.alpha_box.project(init.alpha.as_array()))
    beta = float(np.clip(init.beta, -cfg.beta_box, cfg.beta_box))
    dL = np.maximum(_hazard_jumps(ws.xe, init.hazard), 1e-300)
    return alpha, beta, dL


def _boundedness_check(ws, est, dL, cfg, warn: list):
    at_tau = int(np.sum(ws.x >= ws.dataset.tau))
    if at_tau == 0:
        return
    # the observed values at risk at some event (z_extra is 0 where not stored), and the atoms
    zmax = float(np.max(np.abs(np.concatenate([
        ws.t_next[np.bincount(ws.a_e, minlength=ws.J)[ws.t_int] > 0],
        ws.z_extra * (ws.masses(np.ones(ws.K))[1] > 0), [est.nodes.min(), est.nodes.max()]]))))
    m = math.exp(-cfg.beta_box * zmax) if cfg.beta_box * zmax < EXP_CLIP else 0.0
    if m <= 0:
        return
    bound = (ws.K / ws.n) / (m * at_tau / ws.n)
    if float(np.sum(dL)) > bound * (1 + 1e-9):
        warn.append(f"hazard mass {float(np.sum(dL)):.6g} exceeds the boundedness bound {bound:.6g}")


def _em_map(ws, state, cfg: FitConfig, warn: list, it: int):
    """One EM map (M-step, then the E-step at its result) from state = (alpha, beta, dL,
    E-step, loglik); returns the new state and the largest parameter move.  Every M-step
    piece ascends the EM objective, so a loglik drop beyond ASCENT_TOL raises AscentError."""
    alpha, beta, dL, est, ll = state
    a_new, b_new, dL_new = _mstep(ws, est, alpha, beta, cfg, warn)
    est_new = _estep(ws, a_new, b_new, dL_new, cfg.Q)
    ll_new = _loglik(ws, a_new, dL_new, est_new)
    if ll_new < ll - ASCENT_TOL:
        raise AscentError(f"observed log likelihood dropped by {ll - ll_new:.6g} "
                          f"({ll:.10g} -> {ll_new:.10g}) at iteration {it}")
    change = max(
        float(np.max(np.abs(a_new.as_array() - alpha.as_array()))),
        abs(b_new - beta),
        float(np.max(np.abs(dL_new - dL))),
    )
    return (a_new, b_new, dL_new, est_new, ll_new), change


def _coords(state) -> np.ndarray:
    """(mu0, log s0sq, a, b, log ssq, beta, log dL) of a state: variances and jumps stay
    positive along any line in these coordinates."""
    v = state[0].as_array()
    v[[1, 4]] = np.log(v[[1, 4]])
    return np.concatenate([v, [state[1]], np.log(state[2])])


def _extrapolate(ws, cycle, ll: float, cfg: FitConfig):
    """SQUAREM step SqS3 (Varadhan & Roland 2008, Scand. J. Stat. 35:335) from the
    coordinates of a state and of its next two EM maps, the last with loglik ll, projected
    onto the boxes and the variance floor.  Returns the extrapolated state, or None when
    the step length is -1 (the last map itself), the E-step fails there, or its loglik
    falls below ll by more than ASCENT_TOL."""
    x0, x1, x2 = cycle
    r, v = x1 - x0, x2 - 2 * x1 + x0
    nv = float(np.linalg.norm(v))
    step = -float(np.linalg.norm(r)) / nv if nv > 0 else -1.0
    if not step < -1.0:
        return None
    x = x0 - 2 * step * r + step * step * v
    vec = x[:5].copy()
    vec[[1, 4]] = np.exp(vec[[1, 4]])
    alpha = cfg.alpha_box.clamp(vec, cfg.var_floor)
    beta = float(np.clip(x[5], -cfg.beta_box, cfg.beta_box))
    dL = np.exp(x[6:])
    try:
        est = _estep(ws, alpha, beta, dL, cfg.Q)
        ll_x = _loglik(ws, alpha, dL, est)
    except (ModeSearchError, ValidationError):  # a non-finite mode or loglik
        return None
    return (alpha, beta, dL, est, ll_x) if ll_x >= ll - ASCENT_TOL else None


def em_fit(dataset: Dataset, init: Theta | None = None, config: FitConfig | None = None) -> FitResult:
    """Maximize the joint pseudo likelihood by SQUAREM-accelerated EM with ascent safeguards;
    `iterations` counts the EM maps."""
    cfg = config or FitConfig()
    ws = _Workspace(dataset)
    warn: list[str] = []
    if not np.any(ws.a_x + ws.has_extra):  # every subject has one measurement
        warn.append("identifiability: no subject has two or more measurements")

    alpha, beta, dL = _init_theta(ws, init, cfg)
    est = _estep(ws, alpha, beta, dL, cfg.Q)
    state = (alpha, beta, dL, est, _loglik(ws, alpha, dL, est))
    trace = [state[4]]
    converged = False
    score_norm = math.inf
    iterations = 0
    cycle = [_coords(state)]  # coordinates of the states since the last extrapolation

    while not converged and iterations < cfg.max_iter:
        iterations += 1
        state, change = _em_map(ws, state, cfg, warn, iterations)
        trace.append(state[4])
        id_resid, score_norm = _certificate(ws, state[3], *state[:3], cfg)
        converged = change < cfg.tol_param and score_norm <= cfg.tol_score and id_resid <= cfg.id_tol
        cycle.append(_coords(state))
        if len(cycle) == 3 and not converged and iterations < cfg.max_iter:
            ext = _extrapolate(ws, cycle, state[4], cfg)
            # an accepted point is stabilised by the next map, whose result starts a cycle
            state, cycle = (state, cycle[2:]) if ext is None else (ext, [])

    alpha, beta, dL, est = state[:4]
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
        posterior=est,
    )


# ---------------------------------------------------------------------------
# Public single-shot operations (thin wrappers over the vectorized kernels); those
# that take a posterior read its workspace
# ---------------------------------------------------------------------------

def _hazard_jumps(times: np.ndarray, hazard: SieveHazard) -> np.ndarray:
    ht = np.asarray(hazard.times)
    if ht.size != times.size or not np.all(np.abs(ht - times) <= 1e-12):
        raise ValidationError("hazard must jump exactly at the dataset event times")
    return np.asarray(hazard.jumps, dtype=float)


def _workspace_of(dataset: Dataset, atoms: Posterior) -> _Workspace:
    """The workspace `atoms` was computed on, refused unless it belongs to `dataset`."""
    if not isinstance(atoms, Posterior):
        raise ValidationError("atoms must be a Posterior (estep_atoms or FitResult.posterior)")
    if atoms.ws.dataset is not dataset and atoms.ws.dataset != dataset:
        raise ValidationError("the posterior was computed on a different dataset")
    return atoms.ws


def w_n(u: float, dataset: Dataset, atoms: Posterior, beta: float) -> float:
    """W_n(u) = (1/n) sum_i E[e^{beta Z(u)} 1{u <= X_i} | y_i] at an event time u."""
    ws = _workspace_of(dataset, atoms)
    k = int(np.argmin(np.abs(ws.xe - u)))
    if abs(ws.xe[k] - u) > 1e-12:
        raise ValidationError(f"u={u!r} is not an event time of the dataset")
    return float(_risk_cols(ws, atoms, beta)[k, 0] / ws.n)


def lambda_update(dataset: Dataset, atoms: Posterior, beta: float) -> SieveHazard:
    """Closed-form hazard update: dL_k = (1/n) / W_n(x_k)."""
    ws = _workspace_of(dataset, atoms)
    wn = _risk_cols(ws, atoms, beta)[:, 0] / ws.n
    _check_wn(ws, wn)
    return SieveHazard(tuple(ws.xe), tuple(1.0 / (ws.n * wn)))


def weighted_mle_alpha(dataset: Dataset, atoms: Posterior, box: AlphaBox | None = None,
                       var_floor: float = VAR_FLOOR) -> TransitionParams:
    """Expected complete-data Gaussian MLE of alpha under `atoms` (the M-step's alpha
    update, before its ascent guard); raises InsufficientDataError for fewer than two subjects."""
    ws = _workspace_of(dataset, atoms)
    if ws.n < 2:
        raise InsufficientDataError("weighted MLE needs at least 2 subjects")
    alpha, floored = ws.transition_stats(atoms).mle(box or AlphaBox(), var_floor)
    if floored:
        _warnings.warn(FLOOR_MESSAGE, RuntimeWarning)
    return alpha


def estep_atoms(dataset: Dataset, theta: Theta, Q: int = 40) -> Posterior:
    """The posterior of every subject's terminal value at theta, on a new workspace."""
    ws = _Workspace(dataset)
    return _estep(ws, theta.alpha, theta.beta, _hazard_jumps(ws.xe, theta.hazard), Q)


def observed_loglik(dataset: Dataset, theta: Theta, Q: int = 40) -> float:
    """Observed-data log likelihood of theta, by mode-recentered quadrature."""
    post = estep_atoms(dataset, theta, Q)
    return _loglik(post.ws, theta.alpha, np.asarray(theta.hazard.jumps, dtype=float), post)


def score_full(dataset: Dataset, theta: Theta, h, Q: int = 40, atoms: Posterior | None = None) -> float:
    """Empirical score along the probe h = (h1, h2, h3-at-event-times).

    With `atoms` given, expectations are frozen at the atoms' parameter
    (the two-argument score of the EM construction); otherwise the atoms are
    recomputed at theta itself.
    """
    h1, h2, h3 = h
    est = estep_atoms(dataset, theta, Q) if atoms is None else atoms
    ws = _workspace_of(dataset, est)
    dL = _hazard_jumps(ws.xe, theta.hazard)
    h1 = np.zeros(5) if h1 is None else np.asarray(h1, dtype=float)
    h3 = np.zeros(ws.K) if h3 is None else np.asarray(h3, dtype=float) * np.ones(ws.K)
    s1 = ws.transition_stats(est).score(theta.alpha) / ws.n
    R = _risk_cols(ws, est, theta.beta)
    s3 = float(np.sum(h3 * (1.0 / ws.n - dL * (R[:, 0] / ws.n))))
    return float(h1 @ s1) + float(h2) * _score_beta(ws, est, R, dL) + s3
