"""Gaussian first-order transition model for the longitudinal covariate.

The joint density of (z_0, ..., z_m) factorizes as
N(z_0; mu0, s0sq) * prod_j N(z_j; a + b*z_{j-1}, ssq), and the value due on a
subject's terminal window is one more transition step from the last observed
measurement.  The five parameters alpha = (mu0, s0sq, a, b, ssq) live in a
configurable compact box; variances are floored at VAR_FLOOR.

The model's log density, its score, Hessian and exact maximizer over the box
depend on the data only through `TransitionStats`: the entry values'
and the transitions' means and centred cross-products, merged pairwise when
the observed histories and the latent terminal steps combine.  The fitter,
the convergence certificate and the variance operator all read them there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError, reading

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

    def __post_init__(self):
        for name, (lo, hi) in zip(PARAM_NAMES, self.bounds()):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValidationError(f"alpha_box.{name} must be finite with lo <= hi, got {getattr(self, name)!r}")

    def bounds(self) -> np.ndarray:
        return np.array([self.mu0, self.s0sq, self.a, self.b, self.ssq], dtype=float)


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
        with reading("transition parameters"):
            return TransitionParams(**{k: float(d[k]) for k in PARAM_NAMES})


def gauss_logpdf(x, mean, var):
    """log N(x; mean, var), vectorized, computed in place in the one array it returns."""
    var = np.asarray(var, dtype=float)
    out = np.empty(np.broadcast_shapes(np.shape(x), np.shape(mean), var.shape))
    np.square(np.subtract(x, mean, out=out, dtype=float), out=out)
    out /= 2.0 * var
    return np.subtract(-0.5 * (LOG_2PI + np.log(var)), out, out=out)[()]


def _mean(v: np.ndarray) -> float:
    return float(np.mean(v)) if v.size else 0.0


@dataclass(frozen=True)
class TransitionStats:
    """Sufficient statistics of the Gaussian transition model in centred form.

    The n0 entry values enter by their mean z0bar and centred sum of squares
    M2_0; the N transitions prev -> next by the means pbar, nbar and the
    centred cross-products Cpp, Cpn, Cnn.  A latent successor enters by its
    posterior mean, with its posterior variance added to Cnn, so the
    complete-data formulas below give the expected complete-data ones.  This
    is the only implementation of the model's objective, score, Hessian and MLE.
    """

    n0: float
    z0bar: float
    M2_0: float
    N: float
    pbar: float
    nbar: float
    Cpp: float
    Cpn: float
    Cnn: float

    @staticmethod
    def of(z0, prev, nxt, nxt_var=0.0) -> "TransitionStats":
        """Statistics of the entry values z0 and the transitions prev -> nxt, where a
        successor known only in law has mean nxt and variance nxt_var."""
        z0, prev, nxt = (np.asarray(v, dtype=float) for v in (z0, prev, nxt))
        z0bar, pbar, nbar = _mean(z0), _mean(prev), _mean(nxt)
        dz, dp, dn = z0 - z0bar, prev - pbar, nxt - nbar
        return TransitionStats(float(z0.size), z0bar, float(dz @ dz), float(prev.size), pbar, nbar,
                               float(dp @ dp), float(dp @ dn), float(dn @ dn) + float(np.sum(nxt_var)))

    def merge(self, o: "TransitionStats") -> "TransitionStats":
        """The statistics of both samples, by the pairwise update of Chan, Golub &
        LeVeque (1983, Am. Stat. 37:242)."""
        n0, N = self.n0 + o.n0, self.N + o.N
        f0, f = (o.n0 / n0 if n0 else 0.0), (o.N / N if N else 0.0)
        d0, dp, dn = o.z0bar - self.z0bar, o.pbar - self.pbar, o.nbar - self.nbar
        g = self.N * f  # N_self N_o / N
        return TransitionStats(
            n0, self.z0bar + f0 * d0, self.M2_0 + o.M2_0 + self.n0 * f0 * d0 * d0,
            N, self.pbar + f * dp, self.nbar + f * dn, self.Cpp + o.Cpp + g * dp * dp,
            self.Cpn + o.Cpn + g * dp * dn, self.Cnn + o.Cnn + g * dn * dn)

    def _entry_ss(self, mu0: float) -> float:
        """sum (z0 - mu0)^2 over the entry values."""
        return self.M2_0 + self.n0 * (self.z0bar - mu0) ** 2

    def _sse(self, a: float, b: float) -> float:
        """sum r^2 of the residuals r = next - a - b prev."""
        r = self.nbar - a - b * self.pbar
        return self.Cnn - 2.0 * b * self.Cpn + b * b * self.Cpp + self.N * r * r

    def objective(self, alpha: TransitionParams) -> float:
        """The (expected complete-data) log density of all entries and transitions."""
        return (-0.5 * self.n0 * (LOG_2PI + math.log(alpha.s0sq)) - self._entry_ss(alpha.mu0) / (2 * alpha.s0sq)
                - 0.5 * self.N * (LOG_2PI + math.log(alpha.ssq)) - self._sse(alpha.a, alpha.b) / (2 * alpha.ssq))

    def score(self, alpha: TransitionParams) -> np.ndarray:
        """Gradient of `objective` in (mu0, s0sq, a, b, ssq)."""
        s0, s = alpha.s0sq, alpha.ssq
        rbar = self.nbar - alpha.a - alpha.b * self.pbar
        return np.array([
            self.n0 * (self.z0bar - alpha.mu0) / s0,
            (self._entry_ss(alpha.mu0) / s0 - self.n0) / (2 * s0),
            self.N * rbar / s,
            (self.Cpn - alpha.b * self.Cpp + self.N * self.pbar * rbar) / s,
            (self._sse(alpha.a, alpha.b) / s - self.N) / (2 * s),
        ])

    def hessian(self, alpha: TransitionParams) -> np.ndarray:
        """Hessian of `objective` in alpha (symmetric 5x5)."""
        s0, s = alpha.s0sq, alpha.ssq
        g = self.score(alpha)
        H = np.zeros((5, 5))
        H[0, 0] = -self.n0 / s0
        H[0, 1] = H[1, 0] = -g[0] / s0
        H[1, 1] = (0.5 * self.n0 - self._entry_ss(alpha.mu0) / s0) / s0**2
        H[2, 2] = -self.N / s
        H[2, 3] = H[3, 2] = -self.N * self.pbar / s
        H[3, 3] = -(self.Cpp + self.N * self.pbar**2) / s
        H[2, 4] = H[4, 2] = -g[2] / s
        H[3, 4] = H[4, 3] = -g[3] / s
        H[4, 4] = (0.5 * self.N - self._sse(alpha.a, alpha.b) / s) / s**2
        return H

    def mle(self, bounds: np.ndarray) -> tuple[TransitionParams, bool]:
        """The maximizer of `objective` over the box whose (lo, hi) rows for (mu0, s0sq, a, b,
        ssq) lead `bounds`, and whether a variance was raised to its lower bound.  The entry and
        transition parts separate.  A mean's optimum does not depend on its variance, whose
        objective is unimodal, so clipping each in turn is exact; the residual sum of squares, a
        convex quadratic in (a, b), is least on the rectangle at its unconstrained minimum or
        else on an edge."""
        (mu_lo, mu_hi), (s0_lo, s0_hi), (a_lo, a_hi), (b_lo, b_hi), (s_lo, s_hi) = bounds[:5].tolist()
        mu0 = min(max(self.z0bar, mu_lo), mu_hi)
        curv = self.Cpp + self.N * self.pbar**2  # half the curvature of the sum of squares in b
        # all predecessors (numerically) equal: slope is unidentified, take 0
        b = self.Cpn / self.Cpp if self.Cpp > 1e-12 * max(1.0, curv) else 0.0
        a = self.nbar - b * self.pbar
        if not (a_lo <= a <= a_hi and b_lo <= b <= b_hi):
            # each edge's clipped minimum: on b = c at a = nbar - c pbar, on a = c at the b
            # solving b curv = Cpn + N pbar (nbar - c), or at any b where curv is 0
            edges = [(min(max(self.nbar - c * self.pbar, a_lo), a_hi), c) for c in (b_lo, b_hi)] + [
                (c, min(max((self.Cpn + self.N * self.pbar * (self.nbar - c)) / curv if curv > 0 else 0.0,
                            b_lo), b_hi)) for c in (a_lo, a_hi)]
            a, b = min(edges, key=lambda ab: self._sse(*ab))
        s0sq, ssq = self._entry_ss(mu0) / self.n0, self._sse(a, b) / self.N
        alpha = TransitionParams.from_array((mu0, min(max(s0sq, s0_lo), s0_hi), a, b, min(max(ssq, s_lo), s_hi)))
        return alpha, s0sq < s0_lo or ssq < s_lo
