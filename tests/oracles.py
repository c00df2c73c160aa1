"""Independent reference implementations of the risk-set sums, for tests only.

`DenseRisk` is the dense construction the fitter used before its kernel was
collapsed onto grid intervals: one [subject i, event time k] matrix each for
the risk indicator, its observed and latent parts, and the observed covariate
value.  It takes O(n K) memory, so it serves small test datasets only.
`lvcf_risk_sums` evaluates the comparator's imputation one (subject, event
time) pair at a time through the scalar value functions.  `scalar_gen_dataset`
is the simulator drawn one `rng.normal` call per chain value.
`log_joint_density`, `score_alpha` and `hessian_alpha` are the transition
model's log density and its derivatives for one measurement sequence, written
out residual by residual.  `batch_loglik` is the observed-data log likelihood
at many (beta, hazard) points at once, from the dense risk matrices.
`posterior_atoms` is one subject's posterior, with its hazard split
(`exponent_split`) summed jump by jump; `cond_exp` integrates against its
atoms and `oracle_moments` by the trapezoid rule.  `stack_atoms` builds a
`Posterior` from hand-made atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from coxjm.data import (
    Dataset,
    MeasurementGrid,
    SieveHazard,
    Subject,
    Theta,
    covariate_at,
    is_fully_observed,
    last_index,
    validate_dataset,
)
from coxjm.exceptions import ValidationError
from coxjm.fit import Posterior, _Workspace
from coxjm.posterior import EXP_CLIP, _batch_modes, batch_posterior
from coxjm.simulate import SimTruth, make_grid, piecewise_exp_time, subject_stream
from coxjm.transition import cond_latent_params, gauss_logpdf, observed_history


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
        grid, subs = dataset.grid, dataset.subjects
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
    xe = dataset.event_times()
    S = np.zeros((3, len(xe)))
    for k, t in enumerate(xe):
        for s in dataset.subjects:
            if s.x >= t:
                v = value_fn(s, t, dataset.grid)
                e = np.exp(min(beta * v, EXP_CLIP))
                S[:, k] += (e, (abs(v) if absolute else v) * e, v * v * e)
    return S


def _normal(rng, mean, sd, bound):
    """One rng.normal(mean, sd) draw, redrawn until |value| <= bound when bound is set."""
    while True:
        v = float(rng.normal(mean, sd))
        if bound is None or abs(v) <= bound:
            return v


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
        truths.append(SimTruth(subject_id=i, latent_z=float(z[a_x + 1]), event_time=t, censor_time=c))
    ds = Dataset(grid=make_grid(config), subjects=tuple(subjects), tau=config.tau)
    return validate_dataset(ds, jitter_ties=True), tuple(truths)


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
    weights, one row per subject), with the hazard splits at (beta, dL) (dL zero if None)."""
    ws = _Workspace(dataset)
    dL = np.zeros(ws.K) if dL is None else np.asarray(dL, dtype=float)
    nodes, weights = (np.asarray(v, dtype=float) for v in (nodes, weights))
    return Posterior(ws, nodes, weights, np.zeros(ws.n), *ws.splits(beta, dL))


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
