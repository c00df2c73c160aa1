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
import numbers

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


def exp_clipped(bz: np.ndarray) -> np.ndarray:
    """exp(min(bz, EXP_CLIP)), computed in place in bz; below the clip the minimum is an
    identity, so its pass runs only when some value exceeds EXP_CLIP."""
    if bz.max(initial=-np.inf) > EXP_CLIP:
        np.minimum(bz, EXP_CLIP, out=bz)
    return np.exp(bz, out=bz)


def _fsc_step(x, w):
    """One Fritsch-Shafer-Crowley step (1973, CACM 16:123) towards w + log w = x; returns
    the new w and the step's residual r and w + 1."""
    r = x - w - np.log(w)
    wp1 = w + 1.0
    a = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
    return w * (1.0 + (r / wp1) * (a - r) / (a - 2.0 * r)), r, wp1


def _wright_omega(x: np.ndarray) -> np.ndarray:
    """The real Wright omega function, the root w of w + log w = x, elementwise.

    Lawrence, Corless & Jeffrey (2012, ACM TOMS 38:20, Algorithm 917) on the real
    line, with the regions of scipy.special.wrightomega: below -50 omega is e^x and
    above 1e20 it is x, each to double precision.  Between, the start e^x on
    (-50, -2), e^{2(x-1)/3} on [-2, 1) or x - log x + log(x)/x from 1 takes one
    FSC step, and a second where (2w^2 - 8w - 1)|r|^4 >= eps 72 |w + 1|^6.  -inf
    gives 0.  Each branch's exp or log runs on arguments clipped to its own
    region, so no branch overflows or warns where another is taken.  At a few
    hundred subjects the time goes to the number of array passes, so a region
    that no element reaches costs none.
    """
    lo, hi = x.min(initial=np.inf), x.max(initial=-np.inf)
    inside = -50.0 <= lo and hi <= 1e20  # False when some x is NaN
    t = x if inside else np.minimum(np.maximum(x, -50.0), 1e20)
    if hi < -2.0:
        w = np.exp(t)
    else:
        w = np.exp(np.where(t < -2.0, t, 2.0 * (np.minimum(t, 1.0) - 1.0) / 3.0))
        if not hi < 1.0:
            u = np.maximum(t, 1.0)
            lg = np.log(u)
            w = np.where(t < 1.0, w, u - lg + lg / u)
    w, r, wp1 = _fsc_step(t, w)
    # w + 1 > 0; pow of a negative base takes libm's slow path, so |r| goes in
    again = np.abs(2.0 * w * w - 8.0 * w - 1.0) * np.abs(r) ** 4 >= np.finfo(float).eps * 72.0 * wp1**6
    if again.any():
        w = np.where(again, _fsc_step(t, w)[0], w)
    if inside:
        return w
    return np.where(x < -50.0, np.exp(np.minimum(x, -50.0)), np.where(x > 1e20, x, w))


def _batch_modes(delta, a_lat, mean, var, beta, ids=None):
    """The posterior mode and curvature sd of a batch of subjects, in closed form.

    g(z) = delta*beta*z - a_lat*exp(beta*z) - (z - mean)^2 / (2 var) is strictly
    concave.  With c = mean + delta*beta*var, g'(z) = 0 reads

        beta(c - z) e^{beta(c - z)} = var*a_lat*beta^2 e^{beta c},

    so omega = beta(c - z) is the Lambert W of the right-hand side (Corless et al.
    1996, Adv. Comput. Math. 5:329), taken without overflow as the Wright omega
    function of its log (`_wright_omega`).  The mode is c - omega/beta, and -g''
    there is (1 + omega)/var.  With beta = 0 or a_lat = 0 the mode is c and the
    sd sqrt(var).  A non-finite mode raises ModeSearchError naming the subject.
    """
    mean = np.asarray(mean, dtype=float)
    var = np.asarray(var, dtype=float) * np.ones_like(mean)
    c = mean + delta * beta * var
    if beta == 0.0:
        return c, np.sqrt(var)
    with np.errstate(divide="ignore"):  # a_lat = 0 gives log 0 = -inf and omega = 0
        omega = _wright_omega(np.log(var * a_lat * beta * beta) + beta * c)
    mode = c - omega / beta
    bad = ~np.isfinite(mode)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ModeSearchError(ids[k] if ids is not None else k)
    return mode, np.sqrt(var / (1.0 + omega))


def batch_posterior(delta, a_lat, mean, var, beta, order, ids=None, modes=None):
    """Mode-recentered Gauss-Hermite atoms for a batch of subjects.

    Returns (nodes, weights, mode, curvature_sd, log_norm) with shapes
    (n, order) for nodes/weights and (n,) for the rest; log_norm is the log of
    int exp(delta*beta*z - a_lat*exp(beta*z)) N(z; mean, var) dz.  The arrays
    are built node-major (order x n), so passes and reductions run along the
    subjects; nodes and weights are their transposed views.  `modes`, the
    (mode, curvature_sd) of the same batch, skips the mode search: neither
    depends on the order.  A zero sd there gives a log_norm of -inf.
    """
    if not isinstance(order, numbers.Integral) or order < 2:
        raise ValidationError(f"quadrature order must be an integer >= 2, got {order!r}")
    delta, a_lat, mean, var = (np.asarray(v, dtype=float) for v in (delta, a_lat, mean, var))
    mode, sd = _batch_modes(delta, a_lat, mean, var, beta, ids=ids) if modes is None else modes
    xg, wg = _gh(order)
    nodes = np.multiply(xg[:, None], SQRT2 * sd)
    nodes += mode
    # w is beta*z, then the log integrand, then the weights, each computed in place
    w = np.multiply(nodes, beta)
    over = w > EXP_CLIP if w.max(initial=-np.inf) > EXP_CLIP else None  # no clip below EXP_CLIP
    s = np.exp(w if over is None else np.minimum(w, EXP_CLIP))
    s *= a_lat
    w *= delta
    w -= s
    del s  # freed before gauss_logpdf allocates its result
    w += gauss_logpdf(nodes, mean, var)
    if over is not None:
        w[over] = -np.inf
    w += (np.log(wg) + xg**2)[:, None]
    top = np.max(w, axis=0)
    w -= top
    np.exp(w, out=w)
    total = np.sum(w, axis=0)
    w /= total
    with np.errstate(divide="ignore"):
        log_norm = top + np.log(total) + np.log(SQRT2 * sd)
    return nodes.T, w.T, mode, sd, log_norm
