"""Independent reference implementations of the risk-set sums, for tests only.

`DenseRisk` is the dense construction the fitter used before its kernel was
collapsed onto grid intervals: one [subject i, event time k] matrix each for
the risk indicator, its observed and latent parts, and the observed covariate
value.  It takes O(n K) memory, so it serves small test datasets only.
`lvcf_risk_sums` evaluates the comparator's imputation one (subject, event
time) pair at a time through the scalar value functions.  `scalar_gen_dataset`
is the simulator drawn one `rng.normal` call per chain value.
"""

from __future__ import annotations

import math

import numpy as np

from coxjm.data import Dataset, Subject, last_index, validate_dataset
from coxjm.posterior import EXP_CLIP
from coxjm.simulate import SimTruth, make_grid, piecewise_exp_time, subject_stream


def _powers(v, beta, mask):
    e = np.exp(np.minimum(beta * v, EXP_CLIP)) * mask
    return np.stack([e, v * e, v * v * e])


def latent_moments(nodes, weights, beta):
    """sum_q w_q z_q^m e^{beta z_q}, m = 0, 1, 2, per subject (n x 3)."""
    t = weights * np.exp(np.minimum(beta * nodes, EXP_CLIP))
    return np.stack([np.sum(t * nodes**m, axis=1) for m in range(3)], axis=1)


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
