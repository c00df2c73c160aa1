"""Conditional law of the latent terminal-window covariate value.

For a subject with observed data y and parameter theta, the unnormalized log
posterior of the latent value z is

    delta*beta*z - A_lat*exp(beta*z) + log N(z; m, s^2),

where (m, s^2) is the transition-model conditional of the next value given
the observed history, and A_lat is the hazard mass whose covariate value is
the latent z (the subject's terminal window).  Hazard mass sitting on times
with an observed covariate value, A_obs, is constant in z and drops out.

The integrand is log-concave, and its mode has a closed form (a Wright omega
root), so a Gauss-Hermite rule recentred there and scaled by the curvature
converges fast; a brute-force trapezoid oracle certifies the quadrature in the
tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import wrightomega

from .exceptions import ModeSearchError, ValidationError
from .transition import gauss_logpdf

SQRT2 = math.sqrt(2.0)
EXP_CLIP = 700.0  # IEEE double overflow guard for beta*z

_gh_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gh(order: int) -> tuple[np.ndarray, np.ndarray]:
    if order not in _gh_cache:
        _gh_cache[order] = np.polynomial.hermite.hermgauss(order)
    return _gh_cache[order]


def _batch_modes(delta, a_lat, mean, var, beta, ids=None):
    """The posterior mode and curvature sd of a batch of subjects, in closed form.

    g(z) = delta*beta*z - a_lat*exp(beta*z) - (z - mean)^2 / (2 var) is strictly
    concave.  With c = mean + delta*beta*var, g'(z) = 0 reads

        beta(c - z) e^{beta(c - z)} = var*a_lat*beta^2 e^{beta c},

    so omega = beta(c - z) is the Lambert W of the right-hand side (Corless et al.
    1996, Adv. Comput. Math. 5:329), taken without overflow as the Wright omega
    function of its log (Lawrence, Corless & Jeffrey 2012, ACM TOMS 38:20).  The
    mode is c - omega/beta, and -g'' there is (1 + omega)/var.  With beta = 0 or
    a_lat = 0 the mode is c and the sd sqrt(var).  A non-finite mode raises
    ModeSearchError naming the subject.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float) * np.ones_like(mean)
    c = mean + delta * beta * var
    if beta == 0.0:
        return c, np.sqrt(var)
    with np.errstate(divide="ignore"):  # a_lat = 0 gives log 0 = -inf and omega = 0
        omega = wrightomega(np.log(var * a_lat * beta * beta) + beta * c)
    mode = c - omega / beta
    bad = ~np.isfinite(mode)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ModeSearchError(ids[k] if ids is not None else k)
    return mode, np.sqrt(var / (1.0 + omega))


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
