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

The fit then states its quadrature error: one E-step at the final parameter with
twice the nodes (Gauss-Hermite rules are not nested), compared with the fit's own.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, SieveHazard, Theta, validate_dataset
from .exceptions import (
    AscentError,
    DegenerateRiskSetError,
    InsufficientDataError,
    ModeSearchError,
    ValidationError,
    check_fields,
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
Q_DEFAULT = 20  # the E-step's Gauss-Hermite order, unless a config or a call gives one


@dataclass
class FitConfig:
    """Knobs of the EM fitter; all runs with the same config are deterministic.

    `Q` is the order of the mode-recentred Gauss-Hermite rule of every E-step; the fit
    checks it against a 2Q rule at the end (`FitResult.quadrature`).  `max_iter` caps the
    EM maps; `inner_cycles` caps the M-step's Newton steps in beta.
    """

    Q: int = Q_DEFAULT
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
        check_fields(self, ("Q", "max_iter", "inner_cycles", "step_halving_max"),
                     ("tol_param", "tol_score", "id_tol", "beta_box", "var_floor"),
                     {"Q": 2, "max_iter": 1, "inner_cycles": 1, "step_halving_max": 0,
                      "beta_box": 0, "var_floor": VAR_FLOOR})
        if min(self.tol_param, self.tol_score, self.id_tol) <= 0:
            raise ValidationError("tolerances must be > 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "FitConfig":
        with reading("fit config"):
            d = dict(d)
            box = dict(d.pop("alpha_box", None) or {})
            return FitConfig(**d, alpha_box=AlphaBox(**{k: tuple(v) for k, v in box.items()}))


@dataclass(frozen=True)
class QuadratureCheck:
    """An E-step with `order` nodes against a coarser one at the same parameter: the largest
    per-subject change of log_norm, and the changes (finer minus coarser) of the observed
    log likelihood and of the beta score at a fixed hazard."""

    order: int
    log_norm: float
    loglik: float
    score_beta: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class FitResult:
    """`posterior` is the final E-step, the posterior at theta_hat on the fit's workspace;
    `quadrature` compares it with a rule of twice its nodes."""

    theta_hat: Theta
    loglik_trace: list[float]
    iterations: int
    converged: bool
    score_norm: float
    warnings: list[str]
    n_subjects: int
    posterior: Posterior = field(repr=False, compare=False)
    quadrature: QuadratureCheck

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
    observed entry of subject `t_sub` with the value `t_next` = z_{j+1}; in its
    terminal interval a_x(i) only at events <= x_i, with the value z_extra when
    the dataset stores it (full-information form) and the latent value otherwise.

    The observed entries are stored interval-major, `t_count` of them per interval,
    so each interval is one contiguous segment and each subject's entries come in
    increasing j.  Interval j holds the subjects with a_x > j, in order of decreasing
    a_x; these counts never rise with j, so the intervals without entries are a suffix.
    """

    def __init__(self, dataset: Dataset):
        self.dataset = validate_dataset(dataset)
        n = self.n = dataset.n
        self.ids = dataset.ids
        self.x, self.delta, self.a_x, self.has_extra = dataset.x, dataset.delta, dataset.a_x, dataset.has_extra
        ev = np.flatnonzero(self.delta)
        self.ev_row = ev[np.argsort(self.x[ev], kind="stable")]
        self.xe = self.x[self.ev_row]
        self.K = len(self.xe)
        if self.K == 0:
            raise InsufficientDataError("no uncensored subjects")
        self.J = J = len(dataset.grid)
        self.a_e = self.a_x[self.ev_row]
        # subject i's measurement z_j is values[first[i] + j]; its observed entries are
        # also its observed transitions z_j -> z_{j+1}, j < a_x (the atoms carry the
        # terminal step)
        first, values = dataset.offsets[:-1], dataset.values
        self.extra_rows = np.flatnonzero(self.has_extra)
        self.z0, self.z_pred = values[first], values[first + self.a_x]
        self.z_extra = np.zeros(n)  # 0 where not stored
        self.z_extra[self.extra_rows] = values[first[self.extra_rows] + self.a_x[self.extra_rows] + 1]
        self.t_count = count = n - np.cumsum(np.bincount(self.a_x, minlength=J))
        start = np.cumsum(count) - count
        by_a_x = np.argsort(-self.a_x, kind="stable")  # interval j holds the first count[j]
        self.t_sub = by_a_x[np.arange(count.sum()) - np.repeat(start, count)]
        at = first[self.t_sub] + np.repeat(np.arange(J), count)
        self.t_prev, self.t_next = values[at], values[at + 1]
        self._segments = start[count > 0]
        self.obs = TransitionStats.of(self.z0, self.t_prev, self.t_next)
        self._obs_beta = None
        # Running sums within each grid interval, over a (J, 1 + most events in an
        # interval) pad: the event of rank r in its interval sits in column r + 1, a
        # subject in the column of the number of its interval's events at or before its
        # time (so an event comes before a subject leaving at its time, who is at risk
        # there).  A late small sum is never a difference of large totals.
        e_count = np.bincount(self.a_e, minlength=J)
        e_first = np.cumsum(e_count) - e_count
        self._pad = (J, 1 + int(e_count.max()))
        row = np.concatenate([self.a_e, self.a_x])
        col = np.concatenate([np.arange(self.K) - e_first[self.a_e] + 1,
                              np.searchsorted(self.xe, self.x, side="right") - e_first[self.a_x]])
        # each item's cell (events, then subjects) as a flat index into the pad, and with mirrored columns
        self._cell = (row * self._pad[1] + col, (row + 1) * self._pad[1] - 1 - col)

    def transition_stats(self, est: "Posterior") -> TransitionStats:
        """The observed histories' statistics merged with the terminal transitions
        z_pred -> latent value, integrated over `est`'s atoms."""
        return self.obs.merge(TransitionStats.of((), self.z_pred, est.E1, est.V))

    def interval_sums(self, v: np.ndarray, beta: float):
        """e^{beta v} of values v on the observed entries, and per grid interval
        the sums of v^m e^{beta v}, m = 0, 1, 2 (J x 3), each a reduction over the
        interval's segment (0 for an interval without entries)."""
        e = exp_clipped(np.multiply(v, beta))
        f = v * e
        S = [self._segment_sums(e), self._segment_sums(f)]
        f *= v
        S.append(self._segment_sums(f))
        return e, np.stack(S, axis=1)

    def _segment_sums(self, f: np.ndarray) -> np.ndarray:
        """Per grid interval, the sum of f over its observed entries."""
        out = np.zeros(self.J)
        with np.errstate(over="ignore"):  # an overflowing sum is inf, without a warning
            out[: self._segments.size] = np.add.reduceat(f, self._segments)
        return out

    def obs_mats(self, beta: float):
        """`interval_sums` of the observed values, kept for the last beta (an EM
        iteration asks for one beta from the E-step, the M-step and the certificate)."""
        if beta != self._obs_beta:
            self._obs_beta, self._obs = beta, self.interval_sums(self.t_next, beta)
        return self._obs

    def masses(self, dL: np.ndarray):
        """Hazard mass of each grid interval (J) and of each subject's terminal window (n):
        the running sum over its interval's events up to the subject."""
        pad = np.zeros(self._pad[0] * self._pad[1])
        pad[self._cell[0][: self.K]] = dL
        rows = pad.reshape(self._pad)
        np.cumsum(rows, axis=1, out=rows)
        return (np.bincount(self.a_e, weights=dL, minlength=self.J),
                pad[self._cell[0][self.K:]])

    def splits(self, beta: float, dL: np.ndarray):
        """Per subject: hazard mass times e^{beta z} where z is observed (a_obs), latent mass (a_lat)."""
        H, P = self.masses(dL)
        # (astype: bincount returns integers when there is no observed entry)
        h = np.repeat(H, self.t_count)
        h *= self.obs_mats(beta)[0]
        a_obs = np.bincount(self.t_sub, h, self.n).astype(float, copy=False)
        x = self.extra_rows
        a_obs[x] += exp_clipped(beta * self.z_extra[x]) * P[x]
        return a_obs, np.where(self.has_extra, 0.0, P)

    def cols(self, S, g) -> np.ndarray:
        """Per event time, the sum over its risk set of each subject's value there: S (J,
        optional trailing axes; None for zero) sums per interval the values of the
        subjects at risk past it, g (n, same trailing axes) holds their terminal values.

        The subjects' values are summed per cell of the pad, then run forward over its
        mirrored columns: each event gets the sum over its interval's subjects from it on."""
        cell, size = self._cell[1], self._pad[0] * self._pad[1]
        w = g.reshape(self.n, -1).T
        pad = np.empty((len(w), size))
        for p, v in zip(pad, w):
            p[:] = np.bincount(cell[self.K:], v, size)
        rows = pad.reshape(-1, *self._pad)
        np.cumsum(rows, axis=2, out=rows)
        out = pad[:, cell[: self.K]].T.reshape((self.K,) + g.shape[1:])
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


def _estep(ws: _Workspace, alpha: TransitionParams, beta: float, dL: np.ndarray, Q: int,
           modes=None) -> Posterior:
    """The E-step at (alpha, beta, dL) with a Q-node rule; `modes`, the (mode, sd) of a
    posterior at the same parameter, skips the mode search."""
    a_obs, a_lat = ws.splits(beta, dL)
    mean = alpha.a + alpha.b * ws.z_pred
    nodes, weights, mode, sd, log_norm = batch_posterior(ws.delta, a_lat, mean, alpha.ssq, beta, Q,
                                                         ids=ws.ids, modes=modes)
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


def _quadrature_check(ws, state, Q: int) -> QuadratureCheck:
    """The E-step of state = (alpha, beta, dL, E-step, loglik), taken with Q nodes, against
    one with 2Q nodes at the same parameter and the same modes and curvature sds."""
    alpha, beta, dL, est, ll = state
    fine = _estep(ws, alpha, beta, dL, 2 * Q, (est.mode, est.sd))
    return QuadratureCheck(
        order=2 * Q,
        log_norm=float(np.max(np.abs(fine.log_norm - est.log_norm))),
        loglik=_loglik(ws, alpha, dL, fine) - ll,
        score_beta=(_score_beta(ws, fine, _risk_cols(ws, fine, beta), dL)
                    - _score_beta(ws, est, _risk_cols(ws, est, beta), dL)),
    )


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
    # the hazard score 1/n - dL_k W_n(x_k) is the fixed-point residual
    score_norm = id_resid = float(np.max(np.abs(dL * (R[:, 0] / ws.n) - 1.0 / ws.n)))
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
        va, vn = alpha.as_array(), alpha_new.as_array()
        for j in range(1, cfg.step_halving_max + 1):
            alpha_new = TransitionParams.from_array(va + (vn - va) * 0.5**j)
            if stats.objective(alpha_new) >= q_min:
                break
        else:
            alpha_new = alpha

    # (beta, hazard): at most `inner_cycles` Newton steps on the EM objective profiled over
    # the hazard, whose maximizing hazard is dL_k = 1 / W_k at the accepted beta
    dE = float(np.sum(ws.delta * est.E1))
    R = _risk_cols(ws, est, beta)
    _check_wn(ws, R[:, 0])
    prof = _profile(R, dE, beta, ws.n)
    for _ in range(cfg.inner_cycles):
        if prof[2] <= 0 or abs(prof[1]) < 0.05 * cfg.tol_score:
            break
        step = _newton_step(lambda b: _risk_cols(ws, est, b), dE, ws.n, beta, prof,
                            cfg.beta_box, cfg.step_halving_max)
        if step is None:
            break
        beta, R, prof = step
    _check_wn(ws, R[:, 0])
    return alpha_new, beta, 1.0 / R[:, 0]


def _profile(R, dE: float, beta: float, n: int):
    """The EM objective profiled over the hazard, l_p(beta) = (beta dE - sum_k log W_k) / n,
    its score and its curvature centred on each risk set, from the risk-set sums W, C, D
    (K x 3, `_risk_cols`) at beta, where dE = sum_i delta_i E_i[Z].  At atoms pinned at
    imputed covariate values n l_p is Cox's log partial likelihood (Johansen 1983)."""
    m1 = R[:, 1] / R[:, 0]
    return ((beta * dE - float(np.sum(np.log(R[:, 0])))) / n,
            (dE - float(np.sum(m1))) / n,
            float(np.sum(R[:, 2] / R[:, 0] - m1 * m1)) / n)


def _newton_step(sums, dE: float, n: int, beta: float, prof, box: float, halvings: int):
    """One step-halved Newton step on l_p from beta, where prof is `_profile` at beta and
    sums(b) gives the risk-set sums at b: the first of the steps halved 0..halvings times
    and clipped into [-box, box] that does not lower l_p beyond its rounding, with its sums
    and profile; None when none does or the step no longer moves beta."""
    lp, score, info = prof
    for j in range(halvings + 1):
        cand = float(np.clip(beta + score / info * 0.5**j, -box, box))
        if cand == beta:
            return None
        R = sums(cand)
        p = _profile(R, dE, cand, n)
        if p[0] >= lp - 1e-13 * (1 + abs(lp)):  # rounding in l_p grows with its magnitude
            return cand, R, p
    return None


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
        dL = 1.0 / ws.cols(ws.t_count, np.ones(ws.n))  # Nelson-Aalen jumps
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
        ws.t_next[np.repeat(np.bincount(ws.a_e, minlength=ws.J) > 0, ws.t_count)],
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
        quad = _quadrature_check(ws, (a_new, b_new, dL_new, est_new, ll_new), cfg.Q)
        raise AscentError(f"observed log likelihood dropped by {ll - ll_new:.6g} "
                          f"({ll:.15g} -> {ll_new:.15g}; with {quad.order} nodes in place of "
                          f"Q={cfg.Q} the new value moves by {quad.loglik:.3g}, an estimate of "
                          f"the quadrature error) at iteration {it}")
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
    quad = _quadrature_check(ws, state, cfg.Q)
    if abs(quad.score_beta) > cfg.tol_score and _free_directions(cfg)[1]:
        warn.append(f"quadrature error: with {quad.order} nodes in place of Q={cfg.Q} the beta "
                    f"score moves by {quad.score_beta:.3g}, more than tol_score {cfg.tol_score:g}; "
                    "raise Q")
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
        quadrature=quad,
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


def estep_atoms(dataset: Dataset, theta: Theta, Q: int = Q_DEFAULT) -> Posterior:
    """The posterior of every subject's terminal value at theta, on a new workspace."""
    ws = _Workspace(dataset)
    return _estep(ws, theta.alpha, theta.beta, _hazard_jumps(ws.xe, theta.hazard), Q)


def observed_loglik(dataset: Dataset, theta: Theta, Q: int = Q_DEFAULT) -> float:
    """Observed-data log likelihood of theta, by mode-recentered quadrature."""
    post = estep_atoms(dataset, theta, Q)
    return _loglik(post.ws, theta.alpha, np.asarray(theta.hazard.jumps, dtype=float), post)


def score_full(dataset: Dataset, theta: Theta, h, Q: int = Q_DEFAULT, atoms: Posterior | None = None) -> float:
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
