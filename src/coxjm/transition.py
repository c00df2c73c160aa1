"""Gaussian first-order transition model for the longitudinal covariate.

The joint density of (z_0, ..., z_m) factorizes as
N(z_0; mu0, s0sq) * prod_j N(z_j; a + b*z_{j-1}, ssq), and the value due on a
subject's terminal window is one more transition step from the last observed
measurement.  The five parameters alpha = (mu0, s0sq, a, b, ssq) live in a
configurable compact box; variances are floored at VAR_FLOOR.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, subject_last_grid_index
from .exceptions import InsufficientDataError, ValidationError

VAR_FLOOR = 1e-8
FLOOR_MESSAGE = "transition-model residual variance floored"

LOG_2PI = math.log(2.0 * math.pi)

PARAM_NAMES = ("mu0", "s0sq", "a", "b", "ssq")


@dataclass(frozen=True)
class AlphaBox:
    """Componentwise compact box for the transition parameters."""

    mu0: tuple[float, float] = (-10.0, 10.0)
    s0sq: tuple[float, float] = (VAR_FLOOR, 100.0)
    a: tuple[float, float] = (-10.0, 10.0)
    b: tuple[float, float] = (-10.0, 10.0)
    ssq: tuple[float, float] = (VAR_FLOOR, 100.0)

    def bounds(self) -> np.ndarray:
        return np.array([self.mu0, self.s0sq, self.a, self.b, self.ssq], dtype=float)

    def project(self, vec: np.ndarray) -> np.ndarray:
        lo, hi = self.bounds().T
        return np.clip(np.asarray(vec, dtype=float), lo, hi)

    def contains(self, params: "TransitionParams", margin: float = 0.0) -> bool:
        vec = params.as_array()
        lo, hi = self.bounds().T
        return bool(np.all(vec >= lo + margin) and np.all(vec <= hi - margin))


@dataclass(frozen=True)
class TransitionParams:
    """alpha = (mu0, s0sq, a, b, ssq); variances must be >= VAR_FLOOR."""

    mu0: float
    s0sq: float
    a: float
    b: float
    ssq: float

    def __post_init__(self):
        vec = self.as_array()
        if not np.all(np.isfinite(vec)):
            raise ValidationError("transition parameters must be finite")
        if self.s0sq < VAR_FLOOR or self.ssq < VAR_FLOOR:
            raise ValidationError(f"variances must be >= {VAR_FLOOR}")

    def as_array(self) -> np.ndarray:
        return np.array([self.mu0, self.s0sq, self.a, self.b, self.ssq], dtype=float)

    @staticmethod
    def from_array(vec) -> "TransitionParams":
        mu0, s0sq, a, b, ssq = (float(v) for v in vec)
        return TransitionParams(mu0, s0sq, a, b, ssq)

    def to_dict(self) -> dict:
        return {k: float(getattr(self, k)) for k in PARAM_NAMES}

    @staticmethod
    def from_dict(d: dict) -> "TransitionParams":
        return TransitionParams(**{k: float(d[k]) for k in PARAM_NAMES})


def gauss_logpdf(x, mean, var):
    """log N(x; mean, var), vectorized."""
    x = np.asarray(x, dtype=float)
    return -0.5 * (LOG_2PI + np.log(var)) - (x - mean) ** 2 / (2.0 * var)


def log_joint_density(values, alpha: TransitionParams) -> float:
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


def cond_latent_params(history, alpha: TransitionParams) -> tuple[float, float]:
    """Mean and variance of the next transition step given the history."""
    if len(history) == 0:
        raise ValidationError("history must be nonempty")
    return alpha.a + alpha.b * float(history[-1]), alpha.ssq


def score_alpha(values, alpha: TransitionParams) -> np.ndarray:
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


def hessian_alpha(values, alpha: TransitionParams) -> np.ndarray:
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


def observed_history(subject, grid) -> tuple[float, ...]:
    """Measurements z_0 .. z_{a_x}, excluding any stored terminal value."""
    a_x = subject_last_grid_index(subject, grid)
    return subject.measurements[: a_x + 1]


def _transition_stats(dataset: Dataset, atoms) -> dict:
    """Sufficient statistics of all transitions: observed pairs plus, per
    subject, the terminal transition with its value integrated over the atoms.

    Accumulation runs in dataset subject order for bitwise reproducibility.
    """
    z0 = []
    S_p = S_n = S_pp = S_pn = S_nn = 0.0
    count = 0.0
    for subject, at in zip(dataset.subjects, atoms):
        hist = observed_history(subject, dataset.grid)
        z0.append(hist[0])
        h = np.asarray(hist)
        if h.size > 1:
            prev, nxt = h[:-1], h[1:]
            S_p += float(np.sum(prev))
            S_n += float(np.sum(nxt))
            S_pp += float(np.sum(prev * prev))
            S_pn += float(np.sum(prev * nxt))
            S_nn += float(np.sum(nxt * nxt))
            count += prev.size
        p = float(h[-1])
        w = np.asarray(at.weights, dtype=float)
        nodes = np.asarray(at.nodes, dtype=float)
        e1 = float(np.dot(w, nodes))
        e2 = float(np.dot(w, nodes * nodes))
        S_p += p
        S_n += e1
        S_pp += p * p
        S_pn += p * e1
        S_nn += e2
        count += 1.0
    return {
        "z0": np.asarray(z0),
        "S_p": S_p,
        "S_n": S_n,
        "S_pp": S_pp,
        "S_pn": S_pn,
        "S_nn": S_nn,
        "count": count,
    }


def _solve_gaussian_mle(stats: dict, box: AlphaBox, var_floor: float) -> tuple[TransitionParams, bool]:
    """The box-projected Gaussian MLE, and whether a variance was below the floor."""
    z0 = stats["z0"]
    mu0 = float(np.mean(z0))
    s0sq = float(np.mean((z0 - mu0) ** 2))
    N = stats["count"]
    den = stats["S_pp"] - stats["S_p"] ** 2 / N
    if den > 1e-12 * max(1.0, stats["S_pp"]):
        b = (stats["S_pn"] - stats["S_p"] * stats["S_n"] / N) / den
    else:
        # all predecessors (numerically) equal: slope is unidentified, take 0
        b = 0.0
    a = (stats["S_n"] - b * stats["S_p"]) / N
    ssq = (
        stats["S_nn"]
        - 2.0 * a * stats["S_n"]
        - 2.0 * b * stats["S_pn"]
        + N * a * a
        + 2.0 * a * b * stats["S_p"]
        + b * b * stats["S_pp"]
    ) / N
    vec = box.project(np.array([mu0, s0sq, a, b, ssq]))
    vec[1] = max(vec[1], var_floor)
    vec[4] = max(vec[4], var_floor)
    return TransitionParams.from_array(vec), s0sq < var_floor or ssq < var_floor


def weighted_mle_alpha(
    dataset: Dataset,
    atoms,
    box: AlphaBox | None = None,
    var_floor: float = VAR_FLOOR,
) -> TransitionParams:
    """Weighted complete-data Gaussian MLE for alpha.

    `atoms` is a per-subject sequence (aligned with dataset.subjects) giving
    nodes/weights for the terminal-window value; a single-atom entry encodes a
    known value.  Raises InsufficientDataError for fewer than two subjects.
    """
    if dataset.n < 2:
        raise InsufficientDataError("weighted MLE needs at least 2 subjects")
    if len(atoms) != dataset.n:
        raise ValidationError("atoms must align with dataset.subjects")
    alpha, floored = _solve_gaussian_mle(_transition_stats(dataset, atoms), box or AlphaBox(), var_floor)
    if floored:
        warnings.warn(FLOOR_MESSAGE, RuntimeWarning)
    return alpha


def draw_initial(rng, alpha: TransitionParams, truncate_at: float | None = None) -> float:
    """Draw the entry value z_0; optional resampling truncation at +-truncate_at."""
    return _draw_truncated(rng, alpha.mu0, math.sqrt(alpha.s0sq), truncate_at)


def draw_next(rng, prev: float, alpha: TransitionParams, truncate_at: float | None = None) -> float:
    """Draw the next transition value given the previous one."""
    return _draw_truncated(rng, alpha.a + alpha.b * prev, math.sqrt(alpha.ssq), truncate_at)


def _draw_truncated(rng, mean: float, sd: float, truncate_at: float | None) -> float:
    if truncate_at is None:
        return float(rng.normal(mean, sd))
    for _ in range(1000):
        z = float(rng.normal(mean, sd))
        if abs(z) <= truncate_at:
            return z
    raise ValidationError(f"truncation bound {truncate_at} incompatible with N({mean}, {sd**2})")
