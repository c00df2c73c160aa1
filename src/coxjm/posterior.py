"""Conditional law of the latent terminal-window covariate value.

For a subject with observed data y and parameter theta, the unnormalized log
posterior of the latent value z is

    delta*beta*z - A_lat*exp(beta*z) + log N(z; m, s^2),

where (m, s^2) is the transition-model conditional of the next value given
the observed history, and A_lat is the hazard mass whose covariate value is
the latent z (the subject's terminal window).  Hazard mass sitting on times
with an observed covariate value, A_obs, is constant in z and drops out.

The integrand is log-concave, so a mode-recentered Gauss-Hermite rule
converges fast; a brute-force trapezoid oracle certifies it in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import MeasurementGrid, SieveHazard, Subject, Theta, covariate_at, is_fully_observed
from .exceptions import ModeSearchError, ValidationError
from .transition import cond_latent_params, gauss_logpdf, observed_history

SQRT2 = math.sqrt(2.0)
EXP_CLIP = 700.0  # IEEE double overflow guard for beta*z

_gh_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gh(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _gh_cache:
        _gh_cache[order] = np.polynomial.hermite.hermgauss(order)
    return _gh_cache[order]


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


def _batch_modes(delta, a_lat, mean, var, beta, max_iter=100, ids=None):
    """Vectorized safeguarded Newton for the posterior mode and curvature sd.

    g(z) = delta*beta*z - a_lat*exp(beta*z) - (z - mean)^2 / (2 var);
    g is strictly concave, so g' has a unique root which we bracket first.
    """
    delta = np.asarray(delta, dtype=float)
    a_lat = np.asarray(a_lat, dtype=float)
    mean = np.asarray(mean, dtype=float)
    sd = np.sqrt(var) * np.ones_like(mean)
    var = np.asarray(var, dtype=float) * np.ones_like(mean)

    trivial = (a_lat <= 0.0) | (beta == 0.0)
    mode = mean + np.where(trivial, delta * beta * var, 0.0)
    curv_sd = sd.copy()
    active = ~trivial
    if not np.any(active):
        return mode, curv_sd

    def gprime(z):
        bz = np.minimum(beta * z, EXP_CLIP)
        return delta * beta - a_lat * beta * np.exp(bz) - (z - mean) / var

    lo = mean - 8.0 * sd
    hi = mean + 8.0 * sd
    for _ in range(200):
        bad = active & (gprime(lo) <= 0.0)
        if not np.any(bad):
            break
        lo = np.where(bad, mean - 2.0 * (mean - lo), lo)
    for _ in range(200):
        bad = active & (gprime(hi) >= 0.0)
        if not np.any(bad):
            break
        hi = np.where(bad, mean + 2.0 * (hi - mean), hi)

    z = 0.5 * (lo + hi)
    done = ~active
    for _ in range(max_iter):
        bz = np.minimum(beta * z, EXP_CLIP)
        expbz = np.exp(bz)
        gp = delta * beta - a_lat * beta * expbz - (z - mean) / var
        gpp = -a_lat * beta * beta * expbz - 1.0 / var
        lo = np.where(~done & (gp > 0), z, lo)
        hi = np.where(~done & (gp < 0), z, hi)
        done = done | (np.abs(gp) * np.sqrt(var) <= 1e-11) | (hi - lo <= 1e-13 * np.maximum(1.0, np.abs(z)))
        if np.all(done):
            break
        step = np.where(done, 0.0, -gp / gpp)
        z_new = z + step
        outside = ~done & ((z_new <= lo) | (z_new >= hi) | ~np.isfinite(z_new))
        z_new = np.where(outside, 0.5 * (lo + hi), z_new)
        z = np.where(done, z, z_new)
    if not np.all(done):
        bad = int(np.argmax(~done))
        raise ModeSearchError(ids[bad] if ids is not None else bad)
    mode = np.where(active, z, mode)
    bz = np.minimum(beta * mode, EXP_CLIP)
    curv = a_lat * beta * beta * np.exp(bz) + 1.0 / var
    curv_sd = np.where(active, 1.0 / np.sqrt(curv), curv_sd)
    return mode, curv_sd


def batch_posterior(delta, a_lat, mean, var, beta, order, ids=None):
    """Mode-recentered Gauss-Hermite atoms for a batch of subjects.

    Returns (nodes, weights, mode, curvature_sd, log_norm) with shapes
    (n, order) for nodes/weights and (n,) for the rest; log_norm is the log of
    int exp(delta*beta*z - a_lat*exp(beta*z)) N(z; mean, var) dz.  The arrays
    are built node-major (order x n), so passes and reductions run along the
    subjects; nodes and weights are their transposed views.
    """
    if order < 2:
        raise ValidationError("quadrature order must be >= 2")
    delta, a_lat, mean, var = (np.asarray(v, dtype=float) for v in (delta, a_lat, mean, var))
    mode, sd = _batch_modes(delta, a_lat, mean, var, beta, ids=ids)
    xg, wg = _gh(order)
    nodes = mode + SQRT2 * sd * xg[:, None]
    bz = beta * nodes
    logint = delta * bz - a_lat * np.exp(np.minimum(bz, EXP_CLIP)) + gauss_logpdf(nodes, mean, var)
    logint = np.where(bz > EXP_CLIP, -np.inf, logint)
    logw = (np.log(wg) + xg**2)[:, None] + logint
    top = np.max(logw, axis=0)
    w = np.exp(logw - top)
    total = np.sum(w, axis=0)
    w /= total
    log_norm = top + np.log(total) + np.log(SQRT2 * sd)
    return nodes.T, w.T, mode, sd, log_norm


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
