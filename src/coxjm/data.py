"""Core domain types: measurement grid, subjects, datasets and the step hazard.

Covariate path convention
-------------------------
The longitudinal covariate is measured on a common grid 0 = t_0 < t_1 < ...
(all grid times strictly below the administrative horizon tau).  The path
value on the interval (t_j, t_{j+1}] is the value due at t_{j+1}.  A subject
followed up to time x therefore has observed values z_0 .. z_{a_x}, where
a_x = max{k : t_k < x}, and carries one *latent* value on the terminal
window (t_{a_x}, x]: the measurement that was never taken.

A dataset produced by the full-information reduction stores that terminal
value as one extra trailing measurement (count a_x + 2 instead of a_x + 1);
`covariate_at` then never returns the latent marker for such subjects.

`Dataset` works this layout out once, as read-only arrays, and validates from
them; the fit workspace, the tie check and the full-information reduction read them.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .transition import TransitionParams

TIE_JITTER = 1e-9


@dataclass(frozen=True)
class MeasurementGrid:
    """Common measurement times t_0 < t_1 < ...; t_0 must equal 0."""

    times: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if not times:
            raise ValidationError("measurement grid is empty")
        if times[0] != 0.0:
            raise ValidationError("first grid time must be 0")
        if any(not math.isfinite(t) for t in times):
            raise ValidationError("grid times must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("grid times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)


def last_index(t: float, grid: MeasurementGrid) -> int:
    """Index of the last grid time strictly before t, i.e. max{k : t_k < t}."""
    if not t > 0:
        raise ValidationError(f"last_index requires t > 0, got {t!r}")
    # bisect_left returns the count of grid times < t
    return bisect.bisect_left(grid.times, t) - 1


@dataclass(frozen=True)
class Subject:
    """One right-censored follow-up with grid-timed covariate measurements.

    delta = 1 marks an observed event at x, delta = 0 a censoring time.
    """

    id: int | str
    x: float
    delta: int
    measurements: tuple[float, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "x", float(self.x))
            object.__setattr__(self, "delta", int(self.delta))
            object.__setattr__(self, "measurements", tuple(map(float, self.measurements)))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"subject {self.id!r}: {exc}") from exc
        if not self.x > 0 or not math.isfinite(self.x):
            raise ValidationError(f"subject {self.id!r}: follow-up time must be finite and > 0")
        if self.delta not in (0, 1):
            raise ValidationError(f"subject {self.id!r}: delta must be 0 or 1")
        if not self.measurements:
            raise ValidationError(f"subject {self.id!r}: entry measurement z_0 is required")
        if not all(map(math.isfinite, self.measurements)):
            raise ValidationError(f"subject {self.id!r}: measurements must be finite")


def covariate_at(subject: Subject, u: float, grid: MeasurementGrid) -> float | None:
    """Covariate path value of `subject` at time u; None marks the latent value.

    u = 0 yields the entry value z_0; u in (t_j, t_{j+1}] yields the value due
    at t_{j+1} when it was measured, and None on the terminal window.
    """
    if u < 0 or u > subject.x:
        raise ValidationError(f"covariate_at: u={u!r} outside [0, x={subject.x!r}]")
    if u == 0:
        return subject.measurements[0]
    j = last_index(u, grid) + 1
    if j < len(subject.measurements):
        return subject.measurements[j]
    return None


@dataclass(frozen=True)
class SieveHazard:
    """Step cumulative hazard with jumps at the ordered uncensored times."""

    times: tuple[float, ...]
    jumps: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        jumps = tuple(float(j) for j in self.jumps)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "jumps", jumps)
        if len(times) != len(jumps):
            raise ValidationError("hazard times and jumps must have equal length")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("hazard jump times must be strictly increasing")
        if any(t <= 0 or not math.isfinite(t) for t in times):
            raise ValidationError("hazard jump times must be finite and > 0")
        if any(j < 0 or not math.isfinite(j) for j in jumps):
            raise ValidationError("hazard jumps must be finite and >= 0")

    def evaluate(self, t):
        """Cumulative hazard Lambda(t) = sum of jumps at times <= t (vectorized)."""
        times = np.asarray(self.times)
        cum = np.concatenate([[0.0], np.cumsum(self.jumps)])
        idx = np.searchsorted(times, np.asarray(t, dtype=float), side="right")
        out = cum[idx]
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out

    @property
    def total(self) -> float:
        return float(np.sum(self.jumps))


def hazard_eval(hazard: SieveHazard, t: float) -> float:
    """Lambda(t), the cumulative hazard at t (inclusive of a jump at t)."""
    if t < 0:
        raise ValidationError(f"hazard_eval requires t >= 0, got {t!r}")
    return hazard.evaluate(t)


@dataclass(frozen=True)
class Theta:
    """Full parameter: transition parameters, regression coefficient, hazard."""

    alpha: "TransitionParams"
    beta: float
    hazard: SieveHazard

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        if not math.isfinite(self.beta):
            raise ValidationError("beta must be finite")


@dataclass(frozen=True)
class Dataset:
    """A measurement grid, a horizon tau and the subjects under study, with their layout
    in subject order as read-only arrays: follow-up time `x`, event indicator `delta`, last
    grid index `a_x` = max{k : t_k < x}, and `has_extra`, whether z_{a_x+1} is stored."""

    grid: MeasurementGrid
    subjects: tuple[Subject, ...]
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "subjects", tuple(self.subjects))
        object.__setattr__(self, "tau", float(self.tau))
        if not math.isfinite(self.tau) or self.tau <= 0:
            raise ValidationError("tau must be finite and > 0")
        if self.grid.times[-1] >= self.tau:
            raise ValidationError("all grid times must be < tau")
        ids = [s.id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise ValidationError("subject ids must be unique")
        x = np.array([s.x for s in self.subjects], dtype=float)
        delta = np.array([s.delta for s in self.subjects], dtype=int)
        count = np.array([len(s.measurements) for s in self.subjects], dtype=int)
        a_x = np.searchsorted(self.grid.times, x) - 1  # the count of grid times < x, less one
        bad = np.stack([x > self.tau, (x == self.tau) & (delta != 0), (count < a_x + 1) | (count > a_x + 2)])
        if np.any(bad):
            # the first offending subject, with the message of its first failed check
            i = int(np.argmax(np.any(bad, axis=0)))
            raise ValidationError(f"subject {ids[i]!r}: " + [
                "x exceeds tau",
                "events at tau are not allowed (administrative censoring)",
                f"expected {a_x[i] + 1} measurements (or {a_x[i] + 2} in the full-information form), got {count[i]}",
            ][int(np.argmax(bad[:, i]))])
        for name, v in (("x", x), ("delta", delta), ("a_x", a_x), ("has_extra", count == a_x + 2)):
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return len(self.subjects)

    def event_times(self) -> tuple[float, ...]:
        """Increasingly ordered uncensored times (ties not resolved here)."""
        return tuple(np.sort(self.x[self.delta == 1]).tolist())

    @property
    def n_events(self) -> int:
        return int(np.sum(self.delta))


def validate_dataset(dataset: Dataset, jitter_ties: bool = False) -> Dataset:
    """Check the no-tied-events assumption; optionally break ties deterministically.

    With `jitter_ties`, tied uncensored times within a tie group get x shifted
    by TIE_JITTER * rank in subject-id order (ranks 1, 2, ... within the group),
    which preserves the risk-set order.
    """
    times, counts = np.unique(dataset.event_times(), return_counts=True)
    tied = times[counts > 1]
    if not tied.size:
        return dataset
    if not jitter_ties:
        raise ValidationError(f"tied uncensored event times at {tied.tolist()}; enable jitter to break ties")
    rows = np.flatnonzero((dataset.delta == 1) & np.isin(dataset.x, tied))
    group = sorted((dataset.subjects[i] for i in rows), key=lambda s: (s.x, str(s.id)))
    shifted = {s.id: x + TIE_JITTER * rank for x, same_x in itertools.groupby(group, key=lambda s: s.x)
               for rank, s in enumerate(same_x, start=1)}
    new_subjects = tuple(
        replace(s, x=shifted[s.id]) if s.id in shifted else s for s in dataset.subjects
    )
    out = Dataset(grid=dataset.grid, subjects=new_subjects, tau=dataset.tau)
    return validate_dataset(out, jitter_ties=False)


def is_fully_observed(subject: Subject, grid: MeasurementGrid) -> bool:
    """True when the terminal-window value is stored as an extra measurement."""
    return len(subject.measurements) == last_index(subject.x, grid) + 2
