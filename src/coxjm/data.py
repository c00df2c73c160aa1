"""Core domain types: measurement grid, datasets and the step hazard.

Covariate path convention
-------------------------
The longitudinal covariate is measured on a common grid 0 = t_0 < t_1 < ...
(all grid times strictly below the administrative horizon tau).  The path
value on the interval (t_j, t_{j+1}] is the value due at t_{j+1}.  A subject
followed up to time x therefore has observed values z_0 .. z_{a_x}, where
a_x = max{k : t_k < x} (`MeasurementGrid.last_index`), and carries one
*latent* value on the terminal window (t_{a_x}, x]: the measurement that was
never taken.

A dataset produced by the full-information reduction stores that terminal
value as one extra trailing measurement (count a_x + 2 instead of a_x + 1),
so such a subject has no latent value.

`Dataset` holds its subjects as columns, validated once as arrays; the fit
workspace, the tie check, the full-information reduction and the file formats
read them.
"""

from __future__ import annotations

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

    def last_index(self, x) -> np.ndarray:
        """a_x = max{k : t_k < x} for each follow-up time x > 0: the count of grid times
        below x, less one."""
        return np.searchsorted(self.times, x) - 1


@dataclass(frozen=True)
class SieveHazard:
    """Step cumulative hazard with jumps at the ordered uncensored times."""

    times: tuple[float, ...]
    jumps: tuple[float, ...]

    def __post_init__(self):
        # validated as arrays, kept as tuples of Python floats
        times, jumps = np.asarray(self.times, dtype=float), np.asarray(self.jumps, dtype=float)
        if times.ndim != 1 or jumps.ndim != 1:
            raise ValidationError("hazard times and jumps must be one-dimensional")
        object.__setattr__(self, "times", tuple(times.tolist()))
        object.__setattr__(self, "jumps", tuple(jumps.tolist()))
        if times.size != jumps.size:
            raise ValidationError("hazard times and jumps must have equal length")
        if np.any(times[1:] <= times[:-1]):
            raise ValidationError("hazard jump times must be strictly increasing")
        if np.any((times <= 0) | ~np.isfinite(times)):
            raise ValidationError("hazard jump times must be finite and > 0")
        if np.any((jumps < 0) | ~np.isfinite(jumps)):
            raise ValidationError("hazard jumps must be finite and >= 0")

    def evaluate(self, t):
        """Cumulative hazard Lambda(t) = sum of jumps at times <= t (vectorized)."""
        times = np.asarray(self.times)
        cum = np.concatenate([[0.0], np.cumsum(self.jumps)])
        idx = np.searchsorted(times, np.asarray(t, dtype=float), side="right")
        out = cum[idx]
        return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


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


def _floats(v, owner, errors: dict) -> np.ndarray:
    """The sequence v as a float array of its own, NaN where an entry is not a number; the
    error of such an entry i goes into `errors` under its subject owner[i], unless that
    subject has one already."""
    try:
        out = np.array(v, dtype=float)
        if out.ndim == 1:
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    out = np.full(len(v), math.nan)
    for i, u in enumerate(v):
        try:
            out[i] = float(u)
        except (TypeError, ValueError, OverflowError) as exc:
            errors.setdefault(int(owner[i]), exc)
    return out


@dataclass(frozen=True, eq=False)
class Dataset:
    """A measurement grid, a horizon tau and the subjects under study as columns in subject
    order: `ids`, and read-only arrays of follow-up times `x`, event indicators `delta`
    (1 an event at x, 0 censoring) and measurements `values`, subject i's being
    `values[offsets[i]:offsets[i+1]]`.  Derived, also read-only: the last grid index
    `a_x` = max{k : t_k < x} and `has_extra`, whether z_{a_x+1} is stored."""

    grid: MeasurementGrid
    tau: float
    ids: tuple
    x: np.ndarray
    delta: np.ndarray
    offsets: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        tau = float(self.tau)
        if not math.isfinite(tau) or tau <= 0:
            raise ValidationError("tau must be finite and > 0")
        if self.grid.times[-1] >= tau:
            raise ValidationError("all grid times must be < tau")
        ids = tuple(self.ids)
        n = len(ids)
        offsets = np.array(self.offsets, dtype=np.int64)
        if (len(self.x) != n or len(self.delta) != n or offsets.shape != (n + 1,) or offsets[0] != 0
                or np.any(np.diff(offsets) < 0) or offsets[-1] != len(self.values)):
            raise ValidationError("inconsistent dataset layout: x and delta need one entry per id, and "
                                  "offsets one more, rising from 0 to the number of values")
        count = np.diff(offsets)
        owner, errors = np.repeat(np.arange(n), count), {}  # each subject's first entry that is not a number
        x, delta, values = (_floats(v, o, errors) for v, o in
                            ((self.x, range(n)), (self.delta, range(n)), (self.values, owner)))
        a_x = self.grid.last_index(x)
        bad = np.stack([np.isin(np.arange(n), list(errors)), ~(x > 0) | ~np.isfinite(x),
                        (delta != 0) & (delta != 1), count == 0, np.bincount(owner, ~np.isfinite(values), n) > 0,
                        x > tau, (x == tau) & (delta != 0), (count < a_x + 1) | (count > a_x + 2)])
        if np.any(bad):
            # the first offending subject, with the message of its first failed check
            i = int(np.argmax(np.any(bad, axis=0)))
            raise ValidationError(f"subject {ids[i]!r}: " + [
                str(errors.get(i)),
                "follow-up time must be finite and > 0",
                "delta must be 0 or 1",
                "entry measurement z_0 is required",
                "measurements must be finite",
                "x exceeds tau",
                "events at tau are not allowed (administrative censoring)",
                f"expected {a_x[i] + 1} measurements (or {a_x[i] + 2} in the full-information form), got {count[i]}",
            ][int(np.argmax(bad[:, i]))])
        if len(set(ids)) != n:
            raise ValidationError("subject ids must be unique")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "ids", ids)
        for name, v in (("x", x), ("delta", delta.astype(int)), ("offsets", offsets), ("values", values),
                        ("a_x", a_x), ("has_extra", count == a_x + 2)):
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Dataset) and (self.grid, self.tau, self.ids) == (other.grid, other.tau, other.ids)
                and all(np.array_equal(getattr(self, k), getattr(other, k)) for k in ("x", "delta", "offsets", "values")))

    def __getstate__(self) -> dict:
        # a pickled or copied dataset leaves its live workspace (`_Workspace.of`) behind
        return {k: v for k, v in self.__dict__.items() if k != "_workspace"}

    @property
    def n(self) -> int:
        return len(self.ids)

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
    x = dataset.x.copy()
    rows = sorted(np.flatnonzero((dataset.delta == 1) & np.isin(x, tied)), key=lambda i: (x[i], str(dataset.ids[i])))
    for _, same_x in itertools.groupby(rows, key=dataset.x.__getitem__):
        for rank, i in enumerate(same_x, start=1):
            x[i] += TIE_JITTER * rank
    return validate_dataset(replace(dataset, x=x), jitter_ties=False)
