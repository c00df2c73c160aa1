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

import numpy as np

from .exceptions import ModeSearchError, ValidationError
from .transition import gauss_logpdf

SQRT2 = math.sqrt(2.0)
EXP_CLIP = 700.0  # IEEE double overflow guard for beta*z

_gh_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gh(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _gh_cache:
        _gh_cache[order] = np.polynomial.hermite.hermgauss(order)
    return _gh_cache[order]


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
