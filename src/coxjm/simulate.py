"""Data generation from the true joint model with a constant baseline hazard.

The covariate path follows the package convention: the value drawn for grid
time t_{j+1} rules the interval (t_j, t_{j+1}], so the conditional hazard is
piecewise constant at lambda0 * exp(beta0 * Z_{j+1}) and event times come from
an exact piecewise-exponential inverse transform.  Censoring is administrative
at tau, optionally competing with an independent exponential censoring time.

Each subject draws from its own counter-derived stream, so generation is
order-independent and bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, MeasurementGrid, validate_dataset
from .exceptions import ValidationError, check_fields, reading
from .transition import TransitionParams


@dataclass(frozen=True)
class SimConfig:
    n: int
    grid_step: float
    tau: float
    alpha0: TransitionParams
    beta0: float
    lambda0: float
    censor_rate: float = 0.0
    seed: int = 0
    truncate_at: float | None = None

    def __post_init__(self):
        check_fields(self, ("n",), ("grid_step", "tau", "beta0", "lambda0", "censor_rate"),
                     {"n": 1, "censor_rate": 0})
        if self.grid_step <= 0:
            raise ValidationError("grid_step must be > 0")
        if self.lambda0 <= 0:
            raise ValidationError("lambda0 must be > 0")
        m = self.tau / self.grid_step
        if abs(m - round(m)) > 1e-9 * max(1.0, m) or round(m) < 1:
            raise ValidationError("tau must be a positive multiple of grid_step")

    @property
    def n_intervals(self) -> int:
        return int(round(self.tau / self.grid_step))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "grid_step": self.grid_step,
            "tau": self.tau,
            "alpha0": self.alpha0.to_dict(),
            "beta0": self.beta0,
            "lambda0": self.lambda0,
            "censor_rate": self.censor_rate,
            "seed": self.seed,
            "truncate_at": self.truncate_at,
        }

    @staticmethod
    def from_dict(d: dict) -> "SimConfig":
        with reading("simulation config"):
            d = dict(d)
            d["alpha0"] = TransitionParams.from_dict(d["alpha0"])
            return SimConfig(**d)


@dataclass(frozen=True)
class SimTruth:
    """Latent quantities kept aside for oracle tests; never fed to fitters."""

    subject_id: int | str
    latent_z: float
    event_time: float  # math.inf when the subject survives past tau
    censor_time: float


def make_grid(config: SimConfig) -> MeasurementGrid:
    """Grid times 0, step, ..., tau - step."""
    return MeasurementGrid(tuple(k * config.grid_step for k in range(config.n_intervals)))


def subject_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-derived stream for one subject (or one replication)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _truncated_normal(rng, mean: float, sd: float, bound: float) -> float:
    """One rng.normal(mean, sd) draw, redrawn until |value| <= bound."""
    for _ in range(1000):
        z = float(rng.normal(mean, sd))
        if abs(z) <= bound:
            return z
    raise ValidationError(f"truncation bound {bound} incompatible with N({mean}, {sd**2})")


def _event_times(z: np.ndarray, e: np.ndarray, config: SimConfig) -> np.ndarray:
    """Invert each row's piecewise-constant cumulative hazard at its standard exponential e.

    Row i has rate lambda0 * exp(beta0 * z[i, j+1]) on ((j)*step, (j+1)*step], the last
    interval ending at tau.  The masses are summed left to right, so the time lies in the
    first interval whose running sum reaches e; it is inf where the total is below e.
    """
    m, step, tau = config.n_intervals, config.grid_step, config.tau
    cum = config.beta0 * z[:, 1:]
    np.exp(cum, out=cum)
    cum *= config.lambda0
    cum *= [min((j + 1) * step, tau) - j * step for j in range(m)]
    np.cumsum(cum, axis=1, out=cum)
    j = np.count_nonzero(cum < e[:, None], axis=1)  # rows are nondecreasing
    rows = np.flatnonzero(j < m)
    jr = j[rows]
    acc = np.where(jr > 0, cum[rows, jr - 1], 0.0)
    t = np.full(len(e), math.inf)
    t[rows] = jr * step + (e[rows] - acc) / (config.lambda0 * np.exp(config.beta0 * z[rows, jr + 1]))
    return t


def gen_dataset(config: SimConfig) -> tuple[Dataset, tuple[SimTruth, ...]]:
    """n independent subjects on derived streams; ties (probability zero) jittered.

    Subject i draws from `subject_stream(seed, i)`: its chain (m+1 standard normals, or
    the truncated rejection draws), a standard exponential for the event time, then the
    censoring exponential.  The chain recursion and the event times then run across
    subjects, with the per-subject arithmetic in its order.
    """
    n, m, al, bound = config.n, config.n_intervals, config.alpha0, config.truncate_at
    z, e, c = np.empty((n, m + 1)), np.empty(n), np.full(n, float(config.tau))
    for i in range(n):
        rng = subject_stream(config.seed, i)
        if bound is None:
            rng.standard_normal(out=z[i])
        else:  # rejection makes the number of draws per value random
            row = [_truncated_normal(rng, al.mu0, math.sqrt(al.s0sq), bound)]
            for _ in range(m):
                row.append(_truncated_normal(rng, al.a + al.b * row[-1], math.sqrt(al.ssq), bound))
            z[i] = row
        e[i] = rng.exponential(1.0)
        if config.censor_rate > 0:
            c[i] = min(config.tau, rng.exponential(1.0 / config.censor_rate))
    if bound is None:  # z[:, j] holds standard normals until step j combines them
        z[:, 0] = al.mu0 + math.sqrt(al.s0sq) * z[:, 0]
        for j in range(1, m + 1):
            z[:, j] = (al.a + al.b * z[:, j - 1]) + math.sqrt(al.ssq) * z[:, j]
    t = _event_times(z, e, config)
    x = np.minimum(t, c)
    grid = make_grid(config)
    a_x = grid.last_index(x)
    dataset = Dataset(grid=grid, tau=config.tau, ids=range(n), x=x, delta=t <= c,
                      offsets=np.concatenate([[0], np.cumsum(a_x + 1)]), values=z[np.arange(m + 1) <= a_x[:, None]])
    truths = tuple(SimTruth(subject_id=i, latent_z=zi, event_time=ti, censor_time=ci)
                   for i, (zi, ti, ci) in enumerate(zip(z[np.arange(n), a_x + 1].tolist(), t.tolist(), c.tolist())))
    return validate_dataset(dataset, jitter_ties=True), truths


def fullinfo_dataset(dataset: Dataset, truths) -> Dataset:
    """Append each subject's latent value as an observed terminal measurement.

    The result is the no-missingness reduction used by the acceptance tests;
    already-augmented subjects pass through unchanged.
    """
    if len(truths) != dataset.n:
        raise ValidationError("truths must align with the dataset's subjects")
    for t, sid in zip(truths, dataset.ids):
        if t.subject_id != sid:
            raise ValidationError(f"truth/subject id mismatch: {t.subject_id!r} vs {sid!r}")
    add = ~dataset.has_extra
    latent = np.array([t.latent_z for t in truths], dtype=float)[add]
    return replace(dataset, offsets=dataset.offsets + np.concatenate([[0], np.cumsum(add)]),
                   values=np.insert(dataset.values, dataset.offsets[1:][add], latent))
