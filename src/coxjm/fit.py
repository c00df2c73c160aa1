"""Maximizer of the joint pseudo likelihood over the step-hazard sieve: EM, then Newton.

One EM map: (E) posterior atoms for every subject at the current theta;
(M) the transition parameters' exact maximizer over their box, then at most
INNER_CYCLES step-halved Newton steps in beta on the EM objective profiled over
the hazard (whose maximizing hazard is the closed form dL_k = (1/n) / W_n(x_k),
taken at the accepted beta).  Every update increases the EM objective, so the
observed log likelihood is nondecreasing up to quadrature error; a drop beyond
ASCENT_TOL raises AscentError.

After EM_MAPS such maps the fit takes Newton steps on the observed log
likelihood (Lange 1995, JRSS-B 57:425; Jamshidian & Jennrich 1997, JRSS-B
59:569): the step solves M h = g, with M the observed information operator of
`variance` (Louis 1982, JRSS-B 44:226) and g the score representer, and moves
alpha by h1, beta by h2 and log dL by h3.  A step is halved until the log
likelihood does not drop beyond its rounding; where the operator is not positive
definite, the step is no ascent direction or leaves the feasible set, its E-step fails, or
NEWTON_HALVINGS halvings do not ascend, the fit takes one EM map instead.  Both
keep (alpha, beta) in one feasible set, `_bounds`, and the Newton steps hold its
active components (projected Newton, Bertsekas 1982, SIAM J. Control Optim. 20:221).

Convergence requires one update to move the parameters less than `tol_param`, a
small score over the canonical probe directions that are not active (KKT), and the
hazard fixed-point identity dL_k * W_n(x_k) = 1/n holding at freshly computed atoms.

The fit then states its quadrature error: one E-step at the final parameter with
twice the nodes (Gauss-Hermite rules are not nested), compared with the fit's own.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset, SieveHazard, Theta
from .exceptions import (
    AscentError,
    DegenerateRiskSetError,
    InsufficientDataError,
    ModeSearchError,
    SingularOperatorError,
    ValidationError,
    check_fields,
    reading,
)
from .posterior import EXP_CLIP, exp_clipped
from .transition import FLOOR_MESSAGE, VAR_FLOOR, AlphaBox, TransitionParams
from .variance import _operator
from .workspace import (
    Posterior,
    _estep,
    _hazard_jumps,
    _loglik,
    _risk_cols,
    _score,
    _score_beta,
    _Workspace,
    _workspace_of,
)

ASCENT_TOL = 1e-8
EM_MAPS = 3  # plain EM maps before the Newton steps
NEWTON_HALVINGS = 3  # a Newton step halved more often than this gives way to an EM map
INNER_CYCLES = 3  # the M-step's Newton steps in beta
BETA_HALVINGS = 30  # a Newton step in beta halved more often than this is refused
Q_DEFAULT = 20  # the E-step's Gauss-Hermite order, unless a config or a call gives one


@dataclass
class FitConfig:
    """Knobs of the fitter; all runs with the same config are deterministic.

    `Q` is the order of the mode-recentred Gauss-Hermite rule of every E-step; the fit
    checks it against a 2Q rule at the end (`FitResult.quadrature`).  `max_iter` caps the
    parameter updates, EM maps and Newton steps together.  `var_floor` raises the variance
    lower bounds of `alpha_box` (`_bounds`) and may not exceed their upper bounds.
    """

    Q: int = Q_DEFAULT
    max_iter: int = 500
    tol_param: float = 1e-7
    tol_score: float = 1e-6
    id_tol: float = 1e-11
    beta_box: float = 10.0
    alpha_box: AlphaBox = field(default_factory=AlphaBox)
    var_floor: float = VAR_FLOOR

    def __post_init__(self):
        check_fields(self, ("Q", "max_iter"), ("tol_param", "tol_score", "id_tol", "beta_box", "var_floor"),
                     {"Q": 2, "max_iter": 1, "beta_box": 0, "var_floor": VAR_FLOOR})
        if min(self.tol_param, self.tol_score, self.id_tol) <= 0:
            raise ValidationError("tolerances must be > 0")
        for name, (_, hi) in (("s0sq", self.alpha_box.s0sq), ("ssq", self.alpha_box.ssq)):
            if self.var_floor > hi:
                raise ValidationError(f"var_floor {self.var_floor!r} exceeds alpha_box.{name}'s upper bound {hi!r}")

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
    """`iterations` counts the parameter updates, EM maps and Newton steps, and
    `newton_steps` the Newton steps among them; `posterior` is the final E-step, the
    posterior at theta_hat on the fit's workspace; `quadrature` compares it with a rule of
    twice its nodes."""

    theta_hat: Theta
    loglik_trace: list[float]
    iterations: int
    newton_steps: int
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


def _check_wn(ws: _Workspace, wn: np.ndarray) -> None:
    bad = ~(wn > 0) | ~np.isfinite(wn)
    if np.any(bad):
        raise DegenerateRiskSetError(float(ws.xe[int(np.argmax(bad))]))


def _quadrature_check(ws, state, Q: int) -> QuadratureCheck:
    """The E-step of state = (alpha, beta, dL, E-step, loglik), taken with Q nodes, against
    one with 2Q nodes at the same parameter and the same modes and curvature sds."""
    alpha, beta, dL, est, ll = state
    fine = _estep(ws, alpha, beta, dL, 2 * Q, (est.mode, est.sd))
    return QuadratureCheck(
        order=2 * Q,
        log_norm=float(np.max(np.abs(fine.log_norm - est.log_norm))),
        loglik=_loglik(ws, alpha, beta, dL, fine) - ll,
        score_beta=(_score_beta(ws, fine, _risk_cols(ws, fine, beta), dL)
                    - _score_beta(ws, est, _risk_cols(ws, est, beta), dL)),
    )


def _bounds(cfg: FitConfig) -> np.ndarray:
    """The feasible set as (lo, hi) rows over (mu0, s0sq, a, b, ssq, beta): the alpha box
    with var_floor raised into its variance lower bounds, and [-beta_box, beta_box]."""
    bounds = np.vstack([cfg.alpha_box.bounds(), [-cfg.beta_box, cfg.beta_box]])
    bounds[[1, 4], 0] = np.maximum(bounds[[1, 4], 0], cfg.var_floor)
    return bounds


def _certificate(ws, est, alpha, beta, dL, bounds):
    """Fixed-point residual and score norm over the canonical probe basis, the score along
    that basis (`workspace._score`), and the active components of (alpha, beta), whose
    score drops out of the norm: those the bounds pin, and alpha ones at a bound whose score
    points out of the box (KKT).  The beta box is a safeguard: beta on it is not active."""
    s = _score(ws, est, alpha, beta, dL)
    lo, hi = bounds.T
    x, sa = np.append(alpha.as_array(), beta), np.append(s[:5], 0.0)
    active = (lo == hi) | ((x <= lo) & (sa < 0)) | ((x >= hi) & (sa > 0))
    # the hazard score 1/n - dL_k W_n(x_k) is the fixed-point residual
    id_resid = float(np.max(np.abs(s[6:])))
    return id_resid, max(id_resid, float(np.max(np.abs(s[:6][~active]), initial=0.0))), s, active


def _mstep(ws, est, beta, cfg: FitConfig, bounds, warn: list):
    # alpha: the maximizer over the box, which ascends from every feasible alpha
    alpha_new, floored = ws.transition_stats(est).mle(bounds)
    if floored and FLOOR_MESSAGE not in warn:
        warn.append(FLOOR_MESSAGE)

    # (beta, hazard): at most INNER_CYCLES Newton steps on the EM objective profiled over
    # the hazard, whose maximizing hazard is dL_k = 1 / W_k at the accepted beta
    dE = float(np.sum(ws.delta * est.E1))
    R = _risk_cols(ws, est, beta)
    _check_wn(ws, R[:, 0])
    prof = _profile(R, dE, beta, ws.n)
    for _ in range(INNER_CYCLES):
        if prof[2] <= 0 or abs(prof[1]) < 0.05 * cfg.tol_score:
            break
        step = _newton_step(lambda b: _risk_cols(ws, est, b), dE, ws.n, beta, prof,
                            bounds[5, 1], BETA_HALVINGS)
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


def _init_theta(ws: _Workspace, init: Theta | None, bounds, warn: list):
    lo, hi = bounds.T
    if init is None:
        # Gaussian MLE from the observed transitions only
        if ws.n < 2:
            raise InsufficientDataError("need at least 2 subjects")
        if ws.obs.N < 1:
            # no observed transitions at all: fall back to the entry distribution
            mu0, s0sq = ws.obs.z0bar, ws.obs.M2_0 / ws.obs.n0
            alpha = TransitionParams.from_array(np.clip([mu0, s0sq, mu0, 0.0, s0sq], lo[:5], hi[:5]))
        else:
            alpha, floored = ws.obs.mle(bounds)
            if floored:
                warn.append(FLOOR_MESSAGE)
        return alpha, 0.0, 1.0 / ws.cols(ws.t_count, np.ones(ws.n))  # Nelson-Aalen jumps
    x = np.clip(np.append(init.alpha.as_array(), init.beta), lo, hi)
    return TransitionParams.from_array(x[:5]), float(x[5]), np.maximum(_hazard_jumps(ws.xe, init.hazard), 1e-300)


def _boundedness_check(ws, est, dL, cfg, warn: list):
    at_tau = int(np.sum(ws.x >= ws.dataset.tau))
    if at_tau == 0:
        return
    # the largest |z| at risk at some event: observed (`zmax_obs`) or an atom
    zmax = float(np.max(np.abs([ws.zmax_obs, est.nodes.min(), est.nodes.max()])))
    m = math.exp(-cfg.beta_box * zmax) if cfg.beta_box * zmax < EXP_CLIP else 0.0
    if m <= 0:
        return
    bound = (ws.K / ws.n) / (m * at_tau / ws.n)
    if float(np.sum(dL)) > bound * (1 + 1e-9):
        warn.append(f"hazard mass {float(np.sum(dL)):.6g} exceeds the boundedness bound {bound:.6g}")


def _em_map(ws, state, cfg: FitConfig, bounds, warn: list, it: int):
    """One EM map (M-step, then the E-step at its result) from state = (alpha, beta, dL,
    E-step, loglik); returns the new state.  Every M-step piece ascends the EM objective,
    so a loglik drop beyond ASCENT_TOL raises AscentError."""
    _, beta, _, est, ll = state
    a_new, b_new, dL_new = _mstep(ws, est, beta, cfg, bounds, warn)
    est_new = _estep(ws, a_new, b_new, dL_new, cfg.Q)
    ll_new = _loglik(ws, a_new, b_new, dL_new, est_new)
    if ll_new < ll - ASCENT_TOL:
        quad = _quadrature_check(ws, (a_new, b_new, dL_new, est_new, ll_new), cfg.Q)
        raise AscentError(f"observed log likelihood dropped by {ll - ll_new:.6g} "
                          f"({ll:.15g} -> {ll_new:.15g}; with {quad.order} nodes in place of "
                          f"Q={cfg.Q} the new value moves by {quad.loglik:.3g}, an estimate of "
                          f"the quadrature error) at iteration {it}")
    return a_new, b_new, dL_new, est_new, ll_new


def _move(old, new) -> float:
    """The largest parameter move between two states."""
    return max(float(np.max(np.abs(new[0].as_array() - old[0].as_array()))),
               abs(new[1] - old[1]), float(np.max(np.abs(new[2] - old[2]))))


def _newton(ws, state, s, active, bounds, cfg: FitConfig):
    """A guarded Newton step on the observed log likelihood from state = (alpha, beta, dL,
    E-step, loglik), where s is the score along the canonical probes and `active` marks the
    components of (alpha, beta) held at their bounds (`_certificate`).

    The step h solves M h = g, with M the observed information operator there and g the
    score representer, and h_j = 0 for each active j (unit rows and columns in the border
    E, zero columns in G and a zero right-hand side); it moves alpha by h1, beta by h2 and
    log dL by h3, and is halved until the log likelihood does not drop beyond its rounding.
    Returns the new state, or None when the operator is not positive definite (its
    factorisations fail: the quadratic model there is not strictly concave), h is not
    finite or not an ascent direction (<g, h> <= 0), the full step leaves the bounds, a
    trial E-step fails, or the step needs more than NEWTON_HALVINGS halvings.  The halvings
    guard the step's length.
    """
    alpha, beta, dL, est, ll = state
    op = _operator(ws, est, alpha, beta, dL)[0]
    g = np.concatenate([s[:6], s[6:] / dL])
    if np.any(active):
        keep = ~active
        op = replace(op, E=op.E * np.outer(keep, keep) + np.diag(1.0 * active), G=op.G * keep)
        g[:6] *= keep
    try:
        h = op.solve(g)
    except SingularOperatorError:
        return None
    if not (np.all(np.isfinite(h)) and float(s @ h) > 0):  # s @ h is <g, h>
        return None
    va = alpha.as_array()
    top = np.append(va, beta) + h[:6]
    with np.errstate(over="ignore", under="ignore"):
        dL_top = dL * np.exp(h[6:])
    if not (np.all((bounds[:, 0] <= top) & (top <= bounds[:, 1])) and np.all((dL_top > 0) & (dL_top < math.inf))):
        return None
    ll_min = ll - 1e-13 * (1 + abs(ll))  # rounding in ll grows with its magnitude
    for j in range(NEWTON_HALVINGS + 1):
        t = 0.5**j
        a_new, b_new = TransitionParams.from_array(va + t * h[:5]), beta + t * h[5]
        dL_new = dL * np.exp(t * h[6:]) if j else dL_top
        try:
            est_new = _estep(ws, a_new, b_new, dL_new, cfg.Q)
            ll_new = _loglik(ws, a_new, b_new, dL_new, est_new)
        except (ModeSearchError, ValidationError):  # a non-finite mode or loglik
            return None
        if ll_new >= ll_min:
            return a_new, b_new, dL_new, est_new, ll_new
    return None


def em_fit(dataset: Dataset, init: Theta | None = None, config: FitConfig | None = None) -> FitResult:
    """Maximize the joint pseudo likelihood over the feasible set `_bounds` by EM_MAPS EM maps,
    then guarded Newton steps on the observed information operator, which hold the active
    components, each giving way to an EM map where it fails; every update ascends up to rounding."""
    cfg = config or FitConfig()
    bounds = _bounds(cfg)
    ws = _Workspace.of(dataset)
    warn: list[str] = []
    if not np.any(ws.a_x + ws.has_extra):  # every subject has one measurement
        warn.append("identifiability: no subject has two or more measurements")

    alpha, beta, dL = _init_theta(ws, init, bounds, warn)
    est = _estep(ws, alpha, beta, dL, cfg.Q)
    state = (alpha, beta, dL, est, _loglik(ws, alpha, beta, dL, est))
    trace = [state[4]]
    # the start's certificate: a first Newton step (EM_MAPS = 0) reads its score and active
    # components, and the first M-step the risk-set sums and transition statistics it keeps
    # on the posterior
    score_norm, s, active = _certificate(ws, est, alpha, beta, dL, bounds)[1:]
    converged = False
    iterations = newton_steps = 0

    while not converged and iterations < cfg.max_iter:
        iterations += 1
        new = _newton(ws, state, s, active, bounds, cfg) if iterations > EM_MAPS else None
        if new is None:
            new = _em_map(ws, state, cfg, bounds, warn, iterations)
        else:
            newton_steps += 1
        change, state = _move(state, new), new
        trace.append(state[4])
        id_resid, score_norm, s, active = _certificate(ws, state[3], *state[:3], bounds)
        converged = change < cfg.tol_param and score_norm <= cfg.tol_score and id_resid <= cfg.id_tol

    alpha, beta, dL, est = state[:4]
    quad = _quadrature_check(ws, state, cfg.Q)
    if abs(quad.score_beta) > cfg.tol_score and cfg.beta_box > 0:
        warn.append(f"quadrature error: with {quad.order} nodes in place of Q={cfg.Q} the beta "
                    f"score moves by {quad.score_beta:.3g}, more than tol_score {cfg.tol_score:g}; "
                    "raise Q")
    _boundedness_check(ws, est, dL, cfg, warn)
    if abs(beta) >= cfg.beta_box and cfg.beta_box > 0:
        warn.append("beta at the box boundary")
    theta = Theta(alpha=alpha, beta=beta, hazard=SieveHazard(ws.xe, dL))
    return FitResult(
        theta_hat=theta,
        loglik_trace=trace,
        iterations=iterations,
        newton_steps=newton_steps,
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

def lambda_update(dataset: Dataset, atoms: Posterior, beta: float) -> SieveHazard:
    """Closed-form hazard update: dL_k = (1/n) / W_n(x_k)."""
    ws = _workspace_of(dataset, atoms)
    wn = _risk_cols(ws, atoms, beta)[:, 0] / ws.n
    _check_wn(ws, wn)
    return SieveHazard(ws.xe, 1.0 / (ws.n * wn))


def weighted_mle_alpha(dataset: Dataset, atoms: Posterior, box: AlphaBox | None = None,
                       var_floor: float = VAR_FLOOR) -> TransitionParams:
    """Expected complete-data Gaussian MLE of alpha over `box` floored at var_floor under `atoms`
    (the M-step's alpha update); refuses what `FitConfig` refuses, and fewer than two subjects."""
    bounds = _bounds(FitConfig(alpha_box=box or AlphaBox(), var_floor=var_floor))
    ws = _workspace_of(dataset, atoms)
    if ws.n < 2:
        raise InsufficientDataError("weighted MLE needs at least 2 subjects")
    alpha, floored = ws.transition_stats(atoms).mle(bounds)
    if floored:
        _warnings.warn(FLOOR_MESSAGE, RuntimeWarning)
    return alpha


def estep_atoms(dataset: Dataset, theta: Theta, Q: int = Q_DEFAULT) -> Posterior:
    """The posterior of every subject's terminal value at theta, on the dataset's live
    workspace (`_Workspace.of`: a fit's, while the fit is held)."""
    ws = _Workspace.of(dataset)
    return _estep(ws, theta.alpha, theta.beta, _hazard_jumps(ws.xe, theta.hazard), Q)


def observed_loglik(dataset: Dataset, theta: Theta, Q: int = Q_DEFAULT) -> float:
    """Observed-data log likelihood of theta, by mode-recentered quadrature."""
    post = estep_atoms(dataset, theta, Q)
    return _loglik(post.ws, theta.alpha, theta.beta, np.asarray(theta.hazard.jumps, dtype=float), post)


def score_full(dataset: Dataset, theta: Theta, h, Q: int = Q_DEFAULT, atoms: Posterior | None = None) -> float:
    """Empirical score along the probe h = (h1, h2, h3-at-event-times), the dot product
    of h with `workspace._score`; a None part of h is 0, and a part of the wrong length
    is refused.

    With `atoms` given, expectations are frozen at the atoms' parameter
    (the two-argument score of the EM construction); otherwise the atoms are
    recomputed at theta itself.
    """
    est = estep_atoms(dataset, theta, Q) if atoms is None else atoms
    ws = _workspace_of(dataset, est)
    probe = np.zeros(6 + ws.K)
    for name, part, sl in zip(("h1", "h2", "h3"), h, (slice(0, 5), slice(5, 6), slice(6, None))):
        if part is not None:
            part = np.ravel(part)
            if part.size != probe[sl].size:
                raise ValidationError(f"probe {name} has {part.size} values; the score needs {probe[sl].size}")
            probe[sl] = part
    return float(probe @ _score(ws, est, theta.alpha, theta.beta, _hazard_jumps(ws.xe, theta.hazard)))
