"""Independent reference implementations of the risk-set sums, for tests only.

`Subject` is one subject as a record (`dataset_of` and `subjects_of` convert), and
the scalar functions from `last_index` to `lvcf_value` state the covariate path
convention one subject and one time at a time.
`DenseRisk` is the dense construction the fitter used before its kernel was
collapsed onto grid intervals: one [subject i, event time k] matrix each for
the risk indicator, its observed and latent parts, and the observed covariate
value.  It takes O(n K) memory, so it serves small test datasets only.
`lvcf_risk_sums` evaluates the comparator's imputation one (subject, event
time) pair at a time through the scalar value functions, and
`breslow_partial_lik_beta` maximizes Breslow's partial likelihood for tied event
times over the dense matrix of the fully observed covariate.  `scalar_gen_dataset`
is the simulator drawn one `rng.normal` call per chain value, each subject from
its own `SeedSequence` (`subject_stream`), with each event time inverted interval
by interval (`piecewise_exp_time`).
`log_joint_density`, `score_alpha` and `hessian_alpha` are the transition
model's log density and its derivatives for one measurement sequence, written
out residual by residual.  `batch_loglik` is the observed-data log likelihood
at many (beta, hazard) points at once, from the dense risk matrices.
`posterior_atoms` is one subject's posterior, with its hazard split
(`exponent_split`) summed jump by jump; `cond_exp` integrates against its
atoms and `oracle_moments` by the trapezoid rule.  `stack_atoms` builds a
`Posterior` from hand-made atoms.  `latent_covariances` is each subject's 5 x 5
posterior covariance of the complete-score terms, from the n x 5 x Q array of
the terms at every node.  `nelson_aalen_start` is the fit's start without its LVCF
Newton step, for an explicit `init`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import asdict, dataclass

import numpy as np

from coxjm.baseline import nelson_aalen
from coxjm.data import Dataset, MeasurementGrid, SieveHazard, Theta
from coxjm.exceptions import ValidationError
from coxjm.fit import FitConfig, _bounds
from coxjm.io import dataset_from_dict
from coxjm.posterior import EXP_CLIP, _batch_modes, batch_posterior
from coxjm.simulate import SimTruth, make_grid
from coxjm.transition import TransitionParams, gauss_logpdf
from coxjm.workspace import Posterior, _Workspace


@dataclass(frozen=True)
class Subject:
    """One subject as a record: follow-up time x, event indicator delta (1 an event at x,
    0 censoring) and the measurements z_0, z_1, ..."""

    id: int | str
    x: float
    delta: int
    measurements: tuple[float, ...]


def dataset_of(grid: MeasurementGrid, subjects, tau: float) -> Dataset:
    """The columnar `Dataset` of a sequence of `Subject` records, read as a dataset document."""
    return dataset_from_dict({"grid": grid.times, "tau": tau, "subjects": [asdict(s) for s in subjects]})


def subjects_of(dataset: Dataset) -> tuple[Subject, ...]:
    """The records of a dataset's subjects, in subject order."""
    v, o = dataset.values.tolist(), dataset.offsets.tolist()
    return tuple(Subject(sid, x, d, tuple(v[lo:hi])) for sid, x, d, lo, hi in
                 zip(dataset.ids, dataset.x.tolist(), dataset.delta.tolist(), o, o[1:]))


def last_index(t: float, grid: MeasurementGrid) -> int:
    """Index of the last grid time strictly before t, i.e. max{k : t_k < t}."""
    if not t > 0:
        raise ValidationError(f"last_index requires t > 0, got {t!r}")
    # bisect_left returns the count of grid times < t
    return bisect.bisect_left(grid.times, t) - 1


def covariate_at(subject: Subject, u: float, grid: MeasurementGrid) -> float | None:
    """Covariate path value of `subject` at time u; None marks the latent value.

    u = 0 yields the entry value z_0; u in (t_j, t_{j+1}] yields the value due
    at t_{j+1} when it was measured, and None on the terminal window.
    """
    if u < 0 or u > subject.x:
        raise ValidationError(f"covariate_at: u={u!r} outside [0, x={subject.x!r}]")
    if u == 0:
        return subject.measurements[0]
    j = last_index(u, grid) + 1
    if j < len(subject.measurements):
        return subject.measurements[j]
    return None


def is_fully_observed(subject: Subject, grid: MeasurementGrid) -> bool:
    """True when the terminal-window value is stored as an extra measurement."""
    return len(subject.measurements) == last_index(subject.x, grid) + 2


def observed_history(subject: Subject, grid: MeasurementGrid) -> tuple[float, ...]:
    """Measurements z_0 .. z_{a_x}, excluding any stored terminal value."""
    return subject.measurements[: last_index(subject.x, grid) + 1]


def cond_latent_params(history, alpha: TransitionParams) -> tuple[float, float]:
    """Mean and variance of the next transition step given the (nonempty) history."""
    return alpha.a + alpha.b * float(history[-1]), alpha.ssq


def lvcf_value(subject: Subject, u: float, grid: MeasurementGrid) -> float:
    """Last measured value at or before u in [0, x]: z_{a_u} (z_{a_x} in the terminal window)."""
    if u == 0:
        return subject.measurements[0]
    return subject.measurements[min(last_index(u, grid), last_index(subject.x, grid))]


def _powers(v, beta, mask):
    e = np.exp(np.minimum(beta * v, EXP_CLIP)) * mask
    return np.stack([e, v * e, v * (v * e)])


def latent_moments(nodes, weights, beta):
    """sum_q w_q z_q^m e^{beta z_q}, m = 0, 1, 2, per subject (n x 3), with t = w e^{beta z}
    multiplied up as z t and z (z t), in the kernels' order."""
    t = weights * np.exp(np.minimum(beta * nodes, EXP_CLIP))
    return np.stack([np.sum(t, axis=1), np.sum(nodes * t, axis=1), np.sum(nodes * (nodes * t), axis=1)], axis=1)


class DenseRisk:
    """Dense risk-set matrices of a dataset, indexed [subject i, event time k]."""

    def __init__(self, dataset):
        grid, subs = dataset.grid, subjects_of(dataset)
        n = len(subs)
        self.n = n
        self.x = np.array([s.x for s in subs])
        self.delta = np.array([s.delta for s in subs], dtype=float)
        self.xe = np.array(dataset.event_times())
        a_e = np.array([last_index(t, grid) for t in self.xe], dtype=int)
        last_idx = np.array([len(s.measurements) - 1 for s in subs], dtype=int)
        lmax = int(last_idx.max()) + 1
        Z = np.zeros((n, lmax))
        for i, s in enumerate(subs):
            Z[i, : len(s.measurements)] = s.measurements
        self.risk = self.xe[None, :] <= self.x[:, None]
        nxt = np.minimum(a_e + 1, lmax - 1)
        self.obs_mask = self.risk & ((a_e + 1)[None, :] <= last_idx[:, None])
        self.lat_mask = self.risk & ~self.obs_mask
        self.V = np.where(self.obs_mask, Z[:, nxt], 0.0)
        self.hist = [observed_history(s, grid) for s in subs]
        self.stored = last_idx > np.array([len(h) for h in self.hist]) - 1

    def splits(self, beta, dL):
        """a_obs = sum_k dL_k e^{beta V_ik} over observed risk, a_lat = latent hazard mass."""
        return _powers(self.V, beta, self.obs_mask)[0] @ dL, self.lat_mask @ dL

    def cols(self, beta, m, absolute=False):
        """Per event time: sum over the risk set of V^p e^{beta V}, or m[:, p] where latent (K x 3).

        With `absolute`, every summand enters by its absolute value: the
        scale a floating-point comparison of the sum should use.
        """
        F = _powers(self.V, beta, self.obs_mask)
        if absolute:
            F, m = np.abs(F), np.abs(m)
        return (F.sum(axis=1) + (self.lat_mask.T @ m).T).T

    def totals(self, beta, m, dL, absolute=False):
        """sum_i sum_k dL_k (V^p e^{beta V} or m[:, p] where latent), p = 0, 1, 2."""
        return self.cols(beta, m, absolute).T @ dL

    def loglik(self, alpha, beta, jumps, Q=40):
        """Observed-data log likelihood at P points sharing alpha and beta, with the
        hazard jumps in the columns of the K x P matrix `jumps`.

        `splits` is linear in dL, so one product gives every point's hazard
        masses, and one `batch_posterior` call integrates every subject at
        every point; the history density is the same at all of them.
        """
        if np.any(self.stored):
            raise ValidationError("stored terminal values are not supported")
        a_obs, a_lat = self.splits(beta, jumps)
        n, P = a_obs.shape
        mean = alpha.a + alpha.b * np.array([h[-1] for h in self.hist])
        log_norm = batch_posterior(np.repeat(self.delta, P), a_lat.ravel(), np.repeat(mean, P),
                                   alpha.ssq, beta, Q)[4].reshape(n, P)
        hist = sum(log_joint_density(h, alpha) for h in self.hist)
        return np.sum(np.log(jumps), axis=0) + np.sum(log_norm - a_obs, axis=0) + hist

    def zmax(self):
        """Largest observed covariate magnitude at risk at some event time."""
        return float(np.max(np.abs(self.V)))


def lvcf_risk_sums(dataset, value_fn, beta, absolute=False):
    """S_p(x_k) = sum over the risk set of v^p e^{beta v}, v = value_fn(subject, x_k), p = 0, 1, 2.

    With `absolute`, |v|^p replaces v^p.
    """
    xe, subjects = dataset.event_times(), subjects_of(dataset)
    S = np.zeros((3, len(xe)))
    for k, t in enumerate(xe):
        for s in subjects:
            if s.x >= t:
                v = value_fn(s, t, dataset.grid)
                e = np.exp(min(beta * v, EXP_CLIP))
                S[:, k] += (e, (abs(v) if absolute else v) * e, v * v * e)
    return S


def breslow_partial_lik_beta(dataset) -> float:
    """The maximizer of Breslow's log partial likelihood for a fully observed dataset,
    sum over the events i of beta z_i(x_i) - log sum_{x_j >= x_i} e^{beta z_j(x_i)}, where
    events tied at one time share its risk set (Breslow 1974).  z_j(t) is
    `covariate_at`, taken per (subject, event time) into a dense n x K matrix.  Newton's method
    runs from beta = 0 and stops after a step below 1e-12, which leaves an error at rounding,
    as it converges quadratically."""
    grid, subjects, xe = dataset.grid, subjects_of(dataset), dataset.event_times()
    if not all(is_fully_observed(s, grid) for s in subjects):
        raise ValidationError("Breslow's partial likelihood needs fully observed data")
    risk = np.array([[s.x >= t for t in xe] for s in subjects])
    z = np.array([[covariate_at(s, t, grid) if s.x >= t else 0.0 for t in xe] for s in subjects])
    z_event = sum(covariate_at(s, s.x, grid) for s in subjects if s.delta)
    beta = 0.0
    for _ in range(100):
        s0, s1, s2 = _powers(z, beta, risk).sum(axis=1)
        step = (z_event - np.sum(s1 / s0)) / np.sum(s2 / s0 - (s1 / s0) ** 2)
        beta += step
        if abs(step) < 1e-12:
            return beta
    raise ValidationError("Newton's method did not converge")


def _normal(rng, mean, sd, bound):
    """One rng.normal(mean, sd) draw, redrawn until |value| <= bound when bound is set."""
    while True:
        v = float(rng.normal(mean, sd))
        if bound is None or abs(v) <= bound:
            return v


def piecewise_exp_time(e: float, rates, step: float, tau: float) -> float:
    """Invert the piecewise-constant cumulative hazard at a standard exponential e.

    rates[j] rules the interval ((j)*step, (j+1)*step], the last one ending at
    tau; returns math.inf when the total hazard through tau is below e.
    """
    acc = 0.0
    for j, rate in enumerate(rates):
        hi = min((j + 1) * step, tau)
        width = hi - j * step
        mass = rate * width
        if acc + mass >= e:
            return float(j * step + (e - acc) / rate)
        acc += mass
    return math.inf


def subject_stream(seed: int, index: int) -> np.random.Generator:
    """Subject `index`'s stream: NumPy's SeedSequence spawned at the index."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def scalar_gen_dataset(config):
    """gen_dataset with one rng.normal call per chain value, subject by subject."""
    subjects, truths = [], []
    al = config.alpha0
    for i in range(config.n):
        rng = subject_stream(config.seed, i)
        z = np.empty(config.n_intervals + 1)
        z[0] = _normal(rng, al.mu0, math.sqrt(al.s0sq), config.truncate_at)
        for j in range(1, z.size):
            z[j] = _normal(rng, al.a + al.b * z[j - 1], math.sqrt(al.ssq), config.truncate_at)
        t = piecewise_exp_time(float(rng.exponential(1.0)), config.lambda0 * np.exp(config.beta0 * z[1:]),
                               config.grid_step, config.tau)
        c = min(config.tau, float(rng.exponential(1.0 / config.censor_rate))) if config.censor_rate > 0 else config.tau
        x = min(t, c)
        a_x = last_index(x, make_grid(config))
        subjects.append(Subject(id=i, x=x, delta=int(t <= c), measurements=tuple(z[: a_x + 1])))
        truths.append((float(z[a_x + 1]), t, c))
    latent_z, event_time, censor_time = zip(*truths)
    return (dataset_of(make_grid(config), subjects, config.tau),
            SimTruth(ids=range(config.n), latent_z=latent_z, event_time=event_time, censor_time=censor_time))


def log_joint_density(values, alpha) -> float:
    """Log joint density of a measurement sequence z_0 .. z_m under alpha."""
    z = np.asarray(values, dtype=float)
    if z.ndim != 1 or z.size == 0:
        raise ValidationError("values must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(z)):
        raise ValidationError("values must be finite")
    out = float(gauss_logpdf(z[0], alpha.mu0, alpha.s0sq))
    if z.size > 1:
        out += float(np.sum(gauss_logpdf(z[1:], alpha.a + alpha.b * z[:-1], alpha.ssq)))
    return out


def score_alpha(values, alpha) -> np.ndarray:
    """Gradient of log_joint_density with respect to (mu0, s0sq, a, b, ssq)."""
    z = np.asarray(values, dtype=float)
    g = np.zeros(5)
    d0 = z[0] - alpha.mu0
    g[0] = d0 / alpha.s0sq
    g[1] = -0.5 / alpha.s0sq + d0 * d0 / (2.0 * alpha.s0sq**2)
    if z.size > 1:
        prev = z[:-1]
        r = z[1:] - alpha.a - alpha.b * prev
        g[2] = np.sum(r) / alpha.ssq
        g[3] = np.sum(r * prev) / alpha.ssq
        g[4] = np.sum(-0.5 / alpha.ssq + r * r / (2.0 * alpha.ssq**2))
    return g


def hessian_alpha(values, alpha) -> np.ndarray:
    """Hessian of log_joint_density with respect to alpha (symmetric 5x5)."""
    z = np.asarray(values, dtype=float)
    H = np.zeros((5, 5))
    s0, s = alpha.s0sq, alpha.ssq
    d0 = z[0] - alpha.mu0
    H[0, 0] = -1.0 / s0
    H[0, 1] = H[1, 0] = -d0 / s0**2
    H[1, 1] = 0.5 / s0**2 - d0 * d0 / s0**3
    if z.size > 1:
        prev = z[:-1]
        r = z[1:] - alpha.a - alpha.b * prev
        m = prev.size
        H[2, 2] = -m / s
        H[2, 3] = H[3, 2] = -np.sum(prev) / s
        H[3, 3] = -np.sum(prev * prev) / s
        H[2, 4] = H[4, 2] = -np.sum(r) / s**2
        H[3, 4] = H[4, 3] = -np.sum(r * prev) / s**2
        H[4, 4] = np.sum(0.5 / s**2 - r * r / s**3)
    return H


@dataclass(frozen=True)
class ExponentSplit:
    """Hazard mass on [0, x] split by covariate observability at the jump times."""

    a_obs: float  # sum of dL_k * exp(beta * observed value)
    a_lat: float  # sum of dL_k over jumps in the latent window
    own_jump: float  # dL at the subject's own event time (0 if censored)


@dataclass(frozen=True, eq=False)
class PosteriorAtoms:
    """Weighted nodes for the conditional law of the latent value.

    log_norm is the log of the subject's integral factor
    int exp(delta*beta*z - A_lat*exp(beta*z)) N(z; m, s^2) dz,
    which the observed-data likelihood needs.  A single-node instance with
    weight one encodes a known (fully observed) terminal value.
    """

    nodes: np.ndarray
    weights: np.ndarray
    mode: float
    curvature_sd: float
    log_norm: float


def exponent_split(subject: Subject, hazard: SieveHazard, beta: float, grid: MeasurementGrid) -> ExponentSplit:
    """Partition the subject's integrated hazard term by covariate observability."""
    a_obs = 0.0
    a_lat = 0.0
    own = 0.0
    for t, dl in zip(hazard.times, hazard.jumps):
        if t > subject.x:
            break
        v = covariate_at(subject, t, grid)
        if v is None:
            a_lat += dl
        else:
            a_obs += dl * math.exp(min(beta * v, EXP_CLIP))
        if subject.delta == 1 and t == subject.x:
            own = dl
    return ExponentSplit(a_obs=a_obs, a_lat=a_lat, own_jump=own)


def log_unnormalized_posterior(z, subject: Subject, split: ExponentSplit, theta: Theta,
                               grid: MeasurementGrid | None = None):
    """Log of the unnormalized posterior density at z (vectorized over z).

    Constants in z (A_obs, the subject's own log-jump, the history marginal)
    are dropped.  Values with beta*z beyond the overflow guard map to -inf.
    """
    history = observed_history(subject, grid) if grid is not None else subject.measurements
    m, s2 = cond_latent_params(history, theta.alpha)
    z = np.asarray(z, dtype=float)
    bz = theta.beta * z
    out = np.where(
        bz > EXP_CLIP,
        -np.inf,
        subject.delta * bz - split.a_lat * np.exp(np.minimum(bz, EXP_CLIP)) + gauss_logpdf(z, m, s2),
    )
    return float(out) if out.ndim == 0 else out


def degenerate_atoms(value: float, delta: int, beta: float, mean: float, var: float) -> PosteriorAtoms:
    """Point mass at a known terminal value (full-information reduction)."""
    log_norm = delta * beta * value + float(gauss_logpdf(value, mean, var))
    return PosteriorAtoms(
        nodes=np.array([value]),
        weights=np.array([1.0]),
        mode=float(value),
        curvature_sd=0.0,
        log_norm=log_norm,
    )


def posterior_atoms(subject: Subject, theta: Theta, order: int, grid: MeasurementGrid) -> PosteriorAtoms:
    """Atoms for one subject at theta; order is the quadrature order."""
    split = exponent_split(subject, theta.hazard, theta.beta, grid)
    history = observed_history(subject, grid)
    m, s2 = cond_latent_params(history, theta.alpha)
    if is_fully_observed(subject, grid):
        return degenerate_atoms(subject.measurements[-1], subject.delta, theta.beta, m, s2)
    nodes, weights, mode, sd, log_norm = batch_posterior(
        np.array([subject.delta]), np.array([split.a_lat]), np.array([m]), s2,
        theta.beta, order, ids=[subject.id],
    )
    return PosteriorAtoms(
        nodes=nodes[0], weights=weights[0],
        mode=float(mode[0]), curvature_sd=float(sd[0]), log_norm=float(log_norm[0]),
    )


def cond_exp(atoms: PosteriorAtoms, g) -> float:
    """E[g(Z) | y] as the atom-weighted sum; g must be finite at every node."""
    vals = np.asarray(g(atoms.nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValidationError("g is not finite at a posterior node")
    return float(np.dot(atoms.weights, vals))


def oracle_moments(subject: Subject, theta: Theta, g, resolution: int,
                   grid: MeasurementGrid) -> float:
    """Brute-force posterior expectation of g via trapezoid integration.

    Integrates g * exp(log unnormalized posterior) over mode +- 12 curvature
    sd and normalizes; independent of the quadrature path it certifies.
    """
    if resolution < 10**4:
        raise ValidationError("oracle resolution must be >= 1e4")
    split = exponent_split(subject, theta.hazard, theta.beta, grid)
    history = observed_history(subject, grid)
    m, s2 = cond_latent_params(history, theta.alpha)
    mode, sd = _batch_modes(
        np.array([float(subject.delta)]), np.array([split.a_lat]), np.array([m]), s2,
        theta.beta, ids=[subject.id],
    )
    zs = np.linspace(mode[0] - 12.0 * sd[0], mode[0] + 12.0 * sd[0], int(resolution))
    logp = log_unnormalized_posterior(zs, subject, split, theta, grid=grid)
    logp = logp - np.max(logp)
    dens = np.exp(logp)
    num = np.trapezoid(np.asarray(g(zs), dtype=float) * dens, zs)
    den = np.trapezoid(dens, zs)
    return float(num / den)


def stack_atoms(dataset, nodes, weights, beta=0.0, dL=None) -> Posterior:
    """A `Posterior` on a new workspace of `dataset` from hand-made atoms (n x Q nodes and
    weights, one row per subject), with the observed total and latent hazard masses at
    (beta, dL) (dL zero if None)."""
    ws = _Workspace(dataset)
    dL = np.zeros(ws.K) if dL is None else np.asarray(dL, dtype=float)
    nodes, weights = (np.asarray(v, dtype=float) for v in (nodes, weights))
    return Posterior(ws, nodes, weights, np.zeros(ws.n), *ws.mass_split(beta, dL))


def latent_covariances(ws, est, alpha, beta):
    """Per-subject posterior covariances of the Z-dependent complete-score terms (n x 5 x 5).

    The terms, in order: the a, b and ssq scores r/ssq, z_pred r/ssq and
    r^2/(2 ssq^2) with r = Z - a - b z_pred; the beta score
    delta Z - Z e^{bZ} A_i with A_i the hazard mass of the latent window; and
    e^{bZ}, which times -dL_k is the hazard score at x_k in the window.  Also returns the
    terms centred within each subject and the terms themselves (n x 5 x Q each), whose
    weighted absolute products bound the rounding of each covariance.
    """
    def terms(Z):
        r = Z - (alpha.a + alpha.b * ws.z_pred)[:, None]
        e = np.exp(np.minimum(beta * Z, EXP_CLIP))
        return np.stack([r / alpha.ssq, ws.z_pred[:, None] * r / alpha.ssq, r * r / (2 * alpha.ssq**2),
                         (ws.delta[:, None] - est.a_lat[:, None] * e) * Z, e], axis=1)

    w = est.weights
    raw = terms(est.nodes)
    # less the terms at the posterior mean first: a term constant over the nodes (e^{bZ} at
    # beta = 0, a stored value) centres to exactly 0
    F = raw - terms(est.E1[:, None])
    F -= np.einsum("iq,ifq->if", w, F)[:, :, None]
    G = F * np.sqrt(w)[:, None, :]  # w >= 0, so sum_q w_q f_q f_q' is G G'
    return G @ G.transpose(0, 2, 1), F, raw


def dense_operator(op) -> np.ndarray:
    """The joint (6+K)x(6+K) matrix of a `DiscretizedOperator`, assembled densely.

    The hazard block is diag(w) minus, within each grid interval,
    v[max(k, l)] dL_l, one interval block at a time.
    """
    K = op.K
    m = np.zeros((6 + K, 6 + K))
    m[:6, :6] = op.E
    m[:6, 6:] = op.G.T * op.dL
    m[6:, :6] = op.G
    m[np.arange(6, 6 + K), np.arange(6, 6 + K)] = op.w
    starts = np.flatnonzero(np.diff(op.interval, prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], K)):
        later = np.maximum.outer(np.arange(lo, hi), np.arange(lo, hi))
        m[6 + lo:6 + hi, 6 + lo:6 + hi] -= op.v[later] * op.dL[lo:hi]
    return m


def nelson_aalen_start(dataset, config: FitConfig | None = None) -> Theta:
    """The observed-transition MLE of alpha in the config's feasible set, beta = 0 and the
    Nelson-Aalen jumps: the default start of `em_fit` less its LVCF Newton step."""
    alpha = _Workspace(dataset).obs.mle(_bounds(config or FitConfig()))[0]
    return Theta(alpha=alpha, beta=0.0, hazard=nelson_aalen(dataset))
