"""Maximizer of the joint pseudo likelihood over the step-hazard sieve by damped, projected
Newton steps.

Every update is a Newton step on the observed log likelihood (Lange 1995, JRSS-B 57:425;
Jamshidian & Jennrich 1997, JRSS-B 59:569): it solves M h = g, with M the observed
information operator of `variance` (Louis 1982, JRSS-B 44:226) and g the score
representer, moves alpha by h1, beta by h2 and log dL by h3, and is halved until the log
likelihood does not drop beyond its rounding.  Where that step is refused (the operator is
not positive definite, h is no ascent direction, its E-step fails, or NEWTON_HALVINGS
halvings do not ascend), the fit solves (M + mu D) h = g for the growing mu of DAMPING, D
the diagonal of M (Levenberg-Marquardt; Moré 1978, LNM 630:105), and takes the first that
ascends.  All steps keep (alpha, beta) in one feasible set, `_bounds`: they hold its
active components and clip a component that would leave it onto its bound (projected
Newton, Bertsekas 1982, SIAM J. Control Optim. 20:221).  Where no mu ascends, or a damped
step no longer moves the parameters, the fit stops unconverged, with a warning.

The default start is the first iterate of the LVCF partial likelihood (`_init_theta`).

Convergence requires one update to move the parameters less than `tol_param`, a
small score over the canonical probe directions that are not active (KKT), and the
hazard fixed-point identity dL_k * W_n(x_k) = 1/n holding at freshly computed atoms.
The first time these hold, with the last update's active set and before max_iter, the
fit solves the last update's operator (its factors are cached) for the Newton step at the
end, and takes one more update if that step moves the parameters by more than
tol_param^2: a tail that converges only linearly (a variance held at its floor) can pass
on one update's move while the maximizer is farther off.  Only once, since at a tol_param
near rounding (1e-11) no computed step is that small.

The fit then states its quadrature error: one E-step at the final parameter with
twice the nodes (Gauss-Hermite rules are not nested), compared with the fit's own.
"""

from __future__ import annotations

import math
import warnings as _warnings
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .baseline import _hazard, _imputed, _newton_step, _profile, _risk_sums
from .data import Dataset, SieveHazard, Theta
from .exceptions import (
    DegenerateRiskSetError,
    InsufficientDataError,
    ModeSearchError,
    SingularOperatorError,
    ValidationError,
    check_fields,
    reading,
)
from .posterior import EXP_CLIP
from .transition import FLOOR_MESSAGE, PARAM_NAMES, VAR_FLOOR, AlphaBox, TransitionParams
from .variance import _operator, _restrict
from .workspace import (Posterior, _check_wn, _estep, _hazard_jumps, _loglik, _risk_cols, _score, _Workspace,
                        _workspace_of)

NEWTON_HALVINGS = 3  # a Newton step halved more often than this is refused at its damping
DAMPING = (0.0, *(10.0**k for k in range(-4, 9)))  # the Levenberg-Marquardt ladder of mu
Q_DEFAULT = 20  # the E-step's Gauss-Hermite order, unless a config or a call gives one


@dataclass
class FitConfig:
    """Knobs of the fitter; all runs with the same config are deterministic.

    `Q` is the order of the mode-recentred Gauss-Hermite rule of every E-step; the fit
    checks it against a 2Q rule at the end (`FitResult.quadrature`).  `max_iter` caps the
    parameter updates, damped or not.  `var_floor` raises the variance lower bounds of
    `alpha_box` (`_bounds`) and may not exceed their upper bounds.
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
    """`iterations` counts the parameter updates and `newton_steps` the undamped ones among
    them; `active` masks the components of (mu0, s0sq, a, b, ssq, beta) that the final
    certificate holds at a bound, and `variance_report` holds fixed; `posterior` is the final
    E-step, at theta_hat on the fit's workspace; `quadrature` compares it with 2Q nodes."""

    theta_hat: Theta
    loglik_trace: list[float]
    iterations: int
    newton_steps: int
    converged: bool
    score_norm: float
    warnings: list[str]
    active: np.ndarray = field(compare=False)
    n_subjects: int
    posterior: Posterior = field(repr=False, compare=False)
    quadrature: QuadratureCheck

    @property
    def loglik(self) -> float:
        return self.loglik_trace[-1]


def _quadrature_check(ws, state, Q: int) -> QuadratureCheck:
    """The E-step of state = (alpha, beta, dL, E-step, loglik), taken with Q nodes, against
    one with 2Q nodes at the same parameter and the same modes and curvature sds."""
    alpha, beta, dL, est, ll = state
    fine = _estep(ws, alpha, beta, dL, 2 * Q, (est.mode, est.sd))
    return QuadratureCheck(
        order=2 * Q,
        log_norm=float(np.max(np.abs(fine.log_norm - est.log_norm))),
        loglik=_loglik(ws, alpha, beta, dL, fine) - ll,
        score_beta=float(_score(ws, fine, alpha, beta, dL)[5] - _score(ws, est, alpha, beta, dL)[5]),
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
    score drops out of the norm: those the bounds pin, and those at a bound whose score
    points out of the box (KKT)."""
    s = _score(ws, est, alpha, beta, dL)
    lo, hi = bounds.T
    x = np.append(alpha.as_array(), beta)
    active = (lo == hi) | ((x <= lo) & (s[:6] < 0)) | ((x >= hi) & (s[:6] > 0))
    # the hazard score 1/n - dL_k W_n(x_k) is the fixed-point residual
    id_resid = float(np.max(np.abs(s[6:])))
    return id_resid, max(id_resid, float(np.max(np.abs(s[:6][~active]), initial=0.0))), s, active


def _init_theta(ws: _Workspace, init: Theta | None, bounds, warn: list):
    """The fit's start (alpha, beta, dL): `init` clipped into the bounds, or else alpha the
    Gaussian MLE from the observed transitions (`FLOOR_MESSAGE` in `warn` where a variance
    is raised to its floor) and (beta, dL) the first iterate of `partial_lik_fit`, whose
    LVCF log partial likelihood is the profiled EM objective / n at point-mass atoms
    (Johansen 1983): one step-halved Newton step from beta = 0, clipped into the beta
    bounds, with Breslow's jumps there.  Where that likelihood is flat, the step is refused
    (beta_box = 0 among them) or a risk set degenerates, beta = 0 with Nelson-Aalen jumps."""
    lo, hi = bounds.T
    if init is not None:
        x = np.clip(np.append(init.alpha.as_array(), init.beta), lo, hi)
        return TransitionParams.from_array(x[:5]), float(x[5]), np.maximum(_hazard_jumps(ws.xe, init.hazard), 1e-300)
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
    _, v, z = _imputed(ws.dataset, "lvcf")
    sums = partial(_risk_sums, ws, v, z)
    beta, dE, R = 0.0, float(np.sum(ws.delta * z)), sums(0.0)
    prof = _profile(R, dE, beta, ws.n)
    if ws.n * prof[2] > 1e-300:  # `partial_lik_fit`'s flat-likelihood threshold
        try:
            beta, R = (_newton_step(sums, dE, ws.n, beta, prof, hi[5]) or (beta, R))[:2]
        except DegenerateRiskSetError:
            pass
    return alpha, beta, np.asarray(_hazard(ws, R).jumps)


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


def _move(old, new) -> float:
    """The largest parameter move between two states."""
    return max(float(np.max(np.abs(new[0].as_array() - old[0].as_array()))),
               abs(new[1] - old[1]), float(np.max(np.abs(new[2] - old[2]))))


def _newton(ws, state, s, active, bounds, cfg: FitConfig):
    """A damped, projected Newton step on the observed log likelihood from state = (alpha,
    beta, dL, E-step, loglik), where s is the score along the canonical probes and `active`
    marks the components of (alpha, beta) held at their bounds (`_certificate`).

    The step h solves (M + mu D) h = g, with M the observed information operator there and g
    the score representer, and h_j = 0 for each active j (`variance._restrict`).  D =
    diag(d, w): d the absolute diagonal of the unrestricted E, floored at 1e-8 of its largest
    entry over the free components, and w the diagonal part of the hazard block H, so
    P (M + mu D) stays symmetric.  mu runs through DAMPING; returns (the new state, mu, the
    undamped restricted operator) for the first mu whose step `_step` accepts, or the reason
    the last one was refused."""
    op = _operator(ws, state[3], *state[:3])[0]
    d = np.abs(np.diag(op.E))
    d = np.maximum(d, 1e-8 * np.max(d, where=~active, initial=0.0))  # near 0 where alpha has no information
    op, g = _restrict(op, active, score=s)
    for mu in DAMPING:
        new = _step(ws, state, s, g, replace(op, E=op.E + mu * np.diag(d), w=op.w * (1 + mu)) if mu else op,
                    bounds, cfg)
        if not isinstance(new, str):
            return new, mu, op
    return new


def _step(ws, state, s, g, op, bounds, cfg: FitConfig):
    """The step h = op^{-1} g from state, with each component of (alpha, beta) that would
    leave the bounds clipped onto its bound, halved until the log likelihood does not
    drop beyond its rounding: the new state, or why it is refused (op is not positive
    definite, so the quadratic model is not strictly concave; h is not finite or not an
    ascent direction, <g, h> <= 0; the hazard step overflows; a trial E-step fails; or
    NEWTON_HALVINGS halvings do not ascend).  The halvings guard the step's length."""
    alpha, beta, dL, est, ll = state
    try:
        h = op.solve(g)
    except SingularOperatorError:
        return "the operator is not positive definite"
    if not (np.all(np.isfinite(h)) and float(s @ h) > 0):  # s @ h is <g, h>
        return "the step is no ascent direction"
    lo, hi = bounds.T
    x = np.append(alpha.as_array(), beta)
    top = x + h[:6]
    out = (top < lo) | (top > hi)  # only these move, so a step inside the bounds keeps its bits
    top[out] = np.clip(top[out], lo[out], hi[out])
    h[:6][out] = top[out] - x[out]
    with np.errstate(over="ignore", under="ignore"):
        dL_top = dL * np.exp(h[6:])
    if not np.all((dL_top > 0) & (dL_top < math.inf)):
        return "the hazard step overflows"
    ll_min = ll - 1e-13 * (1 + abs(ll))  # rounding in ll grows with its magnitude
    for j in range(NEWTON_HALVINGS + 1):
        t = 0.5**j
        xt = x + t * h[:6] if j else top
        a_new, b_new = TransitionParams.from_array(xt[:5]), float(xt[5])
        dL_new = dL * np.exp(t * h[6:]) if j else dL_top
        try:
            est_new = _estep(ws, a_new, b_new, dL_new, cfg.Q)
            ll_new = _loglik(ws, a_new, b_new, dL_new, est_new)
        except (ModeSearchError, ValidationError):  # a non-finite mode or loglik
            return "a trial E-step fails"
        if ll_new >= ll_min:
            return a_new, b_new, dL_new, est_new, ll_new
    return f"{NEWTON_HALVINGS} halvings do not ascend"


def _settled(state, s, active, op, tol: float) -> bool:
    """Whether the Newton step at state (score s, held set `active`), solved with op, the
    last update's undamped restricted operator, moves the parameters by at most tol in
    `_move`'s units; True where op is refused."""
    try:
        h = op.solve(_restrict(op, active, score=s)[-1])
    except SingularOperatorError:
        return True
    with np.errstate(over="ignore"):  # an overflowing hazard move is inf, and not settled
        move = max(float(np.max(np.abs(h[:6]))), float(np.max(np.abs(state[2] * np.expm1(h[6:])))))
    return move <= tol


def _bound_warnings(x, active, bounds, warn: list):
    """Name each alpha component that the bounds do not pin but that is active at the end,
    and its bound; a variance on its lower bound gives FLOOR_MESSAGE instead."""
    lo, hi = bounds.T
    held = list(np.flatnonzero(active[:5] & (lo[:5] < hi[:5])))
    floored = [j for j in held if j in (1, 4) and x[j] <= lo[j]]
    if floored and FLOOR_MESSAGE not in warn:
        warn.append(FLOOR_MESSAGE)
    if len(held) > len(floored):
        warn.append("held at a bound of the feasible set: " + ", ".join(
            f"{PARAM_NAMES[j]} = {x[j]:g}" for j in held if j not in floored))


def em_fit(dataset: Dataset, init: Theta | None = None, config: FitConfig | None = None) -> FitResult:
    """Maximize the joint pseudo likelihood over the feasible set `_bounds` by damped,
    projected Newton steps on the observed information operator, which hold the active
    components; every update ascends up to rounding."""
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
    # the start's certificate: the first Newton step reads its score and active components
    score_norm, s, active = _certificate(ws, est, alpha, beta, dL, bounds)[1:]
    done = extended = False
    iterations = newton_steps = 0

    while not done and iterations < cfg.max_iter:
        step = _newton(ws, state, s, active, bounds, cfg)
        if isinstance(step, str):
            warn.append(f"stopped at update {iterations + 1}: no damped Newton step ascends ({step})")
            break
        new, mu, op = step
        iterations += 1
        newton_steps += mu == 0
        change, state, held = _move(state, new), new, active
        trace.append(state[4])
        id_resid, score_norm, s, active = _certificate(ws, state[3], *state[:3], bounds)
        done = change < cfg.tol_param and score_norm <= cfg.tol_score and id_resid <= cfg.id_tol
        if mu and change < cfg.tol_param and not done:
            warn.append(f"stopped at update {iterations}: a damped Newton step (mu = {mu:g}) moved "
                        "the parameters less than tol_param")
            break
        if done and not extended and iterations < cfg.max_iter and np.array_equal(active, held):
            done = _settled(state, s, active, op, cfg.tol_param**2)
            extended = not done

    alpha, beta, dL, est = state[:4]
    quad = _quadrature_check(ws, state, cfg.Q)
    if abs(quad.score_beta) > cfg.tol_score and cfg.beta_box > 0:
        warn.append(f"quadrature error: with {quad.order} nodes in place of Q={cfg.Q} the beta "
                    f"score moves by {quad.score_beta:.3g}, more than tol_score {cfg.tol_score:g}; "
                    "raise Q")
    _boundedness_check(ws, est, dL, cfg, warn)
    _bound_warnings(alpha.as_array(), active, bounds, warn)
    at_box = abs(beta) >= cfg.beta_box > 0
    if at_box:
        warn.append("beta at the box boundary")
    theta = Theta(alpha=alpha, beta=beta, hazard=SieveHazard(ws.xe, dL))
    return FitResult(
        theta_hat=theta,
        loglik_trace=trace,
        iterations=iterations,
        newton_steps=newton_steps,
        converged=done and not at_box,
        score_norm=float(score_norm),
        warnings=warn,
        active=active,
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
    (an EM M-step's alpha update); refuses what `FitConfig` refuses, and fewer than two subjects."""
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
