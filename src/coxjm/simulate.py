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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, MeasurementGrid, Subject, last_index, validate_dataset
from .exceptions import ValidationError, reading
from .transition import TransitionParams, draw_initial, draw_next


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
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        if self.grid_step <= 0:
            raise ValidationError("grid_step must be > 0")
        if self.lambda0 <= 0:
            raise ValidationError("lambda0 must be > 0")
        if self.censor_rate < 0:
            raise ValidationError("censor_rate must be >= 0")
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


@functools.lru_cache(maxsize=16)
def make_grid(config: SimConfig) -> MeasurementGrid:
    """Grid times 0, step, ..., tau - step (kept per config: each subject asks for it)."""
    return MeasurementGrid(tuple(k * config.grid_step for k in range(config.n_intervals)))


def subject_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-derived stream for one subject (or one replication)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


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


def gen_subject(rng: np.random.Generator, config: SimConfig,
                subject_id: int | str = 0) -> tuple[Subject, SimTruth]:
    """One subject: covariate chain, event time, censoring, recorded data.  An untruncated
    chain takes its m+1 normals in one call and combines them as `rng.normal(mean, sd)` does."""
    m, al = config.n_intervals, config.alpha0
    if config.truncate_at is None:
        eps = rng.standard_normal(m + 1).tolist()
        z = [al.mu0 + math.sqrt(al.s0sq) * eps[0]]
        for d in eps[1:]:
            z.append((al.a + al.b * z[-1]) + math.sqrt(al.ssq) * d)
    else:  # rejection makes the number of draws per value random
        z = [draw_initial(rng, al, config.truncate_at)]
        for _ in range(m):
            z.append(draw_next(rng, z[-1], al, config.truncate_at))
    z = np.array(z)
    rates = config.lambda0 * np.exp(config.beta0 * z[1:])
    e = float(rng.exponential(1.0))
    t_event = piecewise_exp_time(e, rates, config.grid_step, config.tau)
    if config.censor_rate > 0:
        c = min(config.tau, float(rng.exponential(1.0 / config.censor_rate)))
    else:
        c = config.tau
    x = min(t_event, c)
    delta = 1 if t_event <= c else 0
    a_x = last_index(x, make_grid(config))
    subject = Subject(id=subject_id, x=x, delta=delta, measurements=tuple(z[: a_x + 1]))
    truth = SimTruth(subject_id=subject_id, latent_z=float(z[a_x + 1]),
                     event_time=t_event, censor_time=c)
    return subject, truth


def gen_dataset(config: SimConfig) -> tuple[Dataset, tuple[SimTruth, ...]]:
    """n independent subjects on derived streams; ties (probability zero) jittered."""
    subjects = []
    truths = []
    for i in range(config.n):
        s, t = gen_subject(subject_stream(config.seed, i), config, subject_id=i)
        subjects.append(s)
        truths.append(t)
    grid = make_grid(config)
    dataset = Dataset(grid=grid, subjects=tuple(subjects), tau=config.tau)
    dataset = validate_dataset(dataset, jitter_ties=True)
    return dataset, tuple(truths)


def fullinfo_dataset(dataset: Dataset, truths) -> Dataset:
    """Append each subject's latent value as an observed terminal measurement.

    The result is the no-missingness reduction used by the acceptance tests;
    already-augmented subjects pass through unchanged.
    """
    if len(truths) != dataset.n:
        raise ValidationError("truths must align with dataset.subjects")
    for s, t in zip(dataset.subjects, truths):
        if t.subject_id != s.id:
            raise ValidationError(f"truth/subject id mismatch: {t.subject_id!r} vs {s.id!r}")
    new_subjects = tuple(s if stored else replace(s, measurements=s.measurements + (t.latent_z,))
                         for s, t, stored in zip(dataset.subjects, truths, dataset.has_extra))
    return Dataset(grid=dataset.grid, subjects=new_subjects, tau=dataset.tau)
