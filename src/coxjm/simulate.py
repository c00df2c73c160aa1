"""Data generation from the true joint model with a constant baseline hazard.

The covariate path follows the package convention: the value drawn for grid
time t_{j+1} rules the interval (t_j, t_{j+1}], so the conditional hazard is
piecewise constant at lambda0 * exp(beta0 * Z_{j+1}) and event times come from
an exact piecewise-exponential inverse transform.  Censoring is administrative
at tau, optionally competing with an independent exponential censoring time.

Each subject draws from its own counter-derived stream, NumPy's
`SeedSequence(entropy=seed, spawn_key=(i,))` for subject i, so generation is
order-independent and bitwise reproducible.  `stream_words` computes the state words
of every subject's stream in one array pass.
"""

from __future__ import annotations

import functools
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
        check_fields(self, ("n", "seed"), ("grid_step", "tau", "beta0", "lambda0", "censor_rate"),
                     {"n": 1, "censor_rate": 0, "seed": 0})
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


@dataclass(frozen=True, eq=False)
class SimTruth:
    """Latent quantities kept aside for oracle tests; never fed to fitters.  Columns in
    subject order: the subject `ids` (a tuple, as `Dataset.ids`), and read-only float arrays
    of each subject's latent terminal value `latent_z`, event time `event_time` (inf when
    the subject survives past tau) and censoring time `censor_time`."""

    ids: tuple
    latent_z: np.ndarray
    event_time: np.ndarray
    censor_time: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        for name in ("latent_z", "event_time", "censor_time"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (len(self.ids),):
                raise ValidationError(f"truths need one {name} per id")
            v.flags.writeable = False
            object.__setattr__(self, name, v)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimTruth) and self.ids == other.ids and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in ("latent_z", "event_time", "censor_time")))


def make_grid(config: SimConfig) -> MeasurementGrid:
    """Grid times 0, step, ..., tau - step."""
    return MeasurementGrid(tuple(k * config.grid_step for k in range(config.n_intervals)))


# NumPy's SeedSequence (O'Neill's seed_seq alternative): 32-bit hashing and mixing,
# every operation modulo 2**32, on Python ints or uint32 arrays alike
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash(value, const, mult=_MULT_A):
    """SeedSequence's hash of a word by the hash constant `const`, and the next constant."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's mix of the hashed word y into the pool word x."""
    r = ((_MIX_L * x & _MASK32) - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """The uint32 hash constants init * mult**k mod 2**32, k < count."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count)], dtype=np.uint32)


def stream_words(seed: int, n: int) -> np.ndarray:
    """The state words `SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4,
    np.uint64)` of every subject i < n (n x 4 uint64), in one pass.

    The entropy is the seed's 32-bit words, least significant first, padded with zeros
    to the 4-word pool, then the spawn key i (one word, as i < 2**32).  All but that last
    word are the same for every subject, so they are hashed and mixed into the pool once;
    the spawn key's four hashes, their mixes into the pool and the output hashes run as
    uint32 arrays.
    """
    seed = int(seed)
    run = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    run += [0] * (4 - len(run))
    const, pool = _INIT_A, []
    for w in run[:4]:
        h, const = _hash(w, const)
        pool.append(h)
    for src in range(4):  # every pool word into every other
        for dst in range(4):
            if src != dst:
                h, const = _hash(pool[src], const)
                pool[dst] = _mix(pool[dst], h)
    for w in run[4:]:  # run entropy past the pool (seed >= 2**128)
        for dst in range(4):
            h, const = _hash(w, const)
            pool[dst] = _mix(pool[dst], h)
    h, _ = _hash(np.arange(n, dtype=np.uint32)[:, None], _powers(const, _MULT_A, 4))
    pools = _mix(np.array(pool, dtype=np.uint32), h)  # n x 4
    # generate_state: 8 words from the pool cycled twice, read in pairs as little-endian uint64
    state, _ = _hash(np.tile(pools, 2), _powers(_INIT_B, _MULT_B, 8), _MULT_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _words_seed_sequence() -> type:
    """The seed-sequence type whose state words are given: a row of `stream_words`, which is
    what `PCG64` asks for (`generate_state(4, np.uint64)`).  numpy.random is imported here,
    at the first simulation, so that `import coxjm` does not load it (about 10 ms)."""
    from numpy.random.bit_generator import ISeedSequence

    class StreamWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StreamWords


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


def gen_dataset(config: SimConfig) -> tuple[Dataset, SimTruth]:
    """n independent subjects on derived streams; ties (probability zero) jittered.

    Subject i draws from its stream (state words `stream_words(seed, n)[i]`): its chain
    (m+1 standard normals, or the truncated rejection draws), a standard exponential for
    the event time, then one for the censoring time.  The chain recursion, the censoring
    scale and the event times then run across subjects, with the per-subject arithmetic
    in its order.
    """
    n, m, al, bound, rate = config.n, config.n_intervals, config.alpha0, config.truncate_at, config.censor_rate
    z, ex, seed_seq = np.empty((n, m + 1)), np.empty((n, 1 + (rate > 0))), _words_seed_sequence()
    for i, words in enumerate(stream_words(config.seed, n)):
        rng = np.random.Generator(np.random.PCG64(seed_seq(words)))
        if bound is None:
            rng.standard_normal(out=z[i])
        else:  # rejection makes the number of draws per value random
            row = [_truncated_normal(rng, al.mu0, math.sqrt(al.s0sq), bound)]
            for _ in range(m):
                row.append(_truncated_normal(rng, al.a + al.b * row[-1], math.sqrt(al.ssq), bound))
            z[i] = row
        rng.standard_exponential(out=ex[i])
    if bound is None:  # z[:, j] holds standard normals until step j combines them
        z[:, 0] = al.mu0 + math.sqrt(al.s0sq) * z[:, 0]
        for j in range(1, m + 1):
            z[:, j] = (al.a + al.b * z[:, j - 1]) + math.sqrt(al.ssq) * z[:, j]
    # rng.exponential(scale) is scale times a standard exponential
    c = np.minimum(config.tau, (1.0 / rate) * ex[:, 1]) if rate > 0 else np.full(n, float(config.tau))
    t = _event_times(z, ex[:, 0], config)
    x = np.minimum(t, c)
    grid = make_grid(config)
    a_x = grid.last_index(x)
    dataset = validate_dataset(Dataset(grid=grid, tau=config.tau, ids=range(n), x=x, delta=t <= c,
                                       offsets=np.concatenate([[0], np.cumsum(a_x + 1)]),
                                       values=z[np.arange(m + 1) <= a_x[:, None]]), jitter_ties=True)
    return dataset, SimTruth(ids=dataset.ids, latent_z=z[np.arange(n), a_x + 1], event_time=t, censor_time=c)


def fullinfo_dataset(dataset: Dataset, truths: SimTruth) -> Dataset:
    """Append each subject's latent value as an observed terminal measurement.

    The result is the no-missingness reduction used by the acceptance tests;
    already-augmented subjects pass through unchanged.
    """
    if truths.ids != dataset.ids:
        if len(truths.ids) != dataset.n:
            raise ValidationError("truths must align with the dataset's subjects")
        i = next(i for i, (a, b) in enumerate(zip(truths.ids, dataset.ids)) if a != b)
        raise ValidationError(f"truth/subject id mismatch: {truths.ids[i]!r} vs {dataset.ids[i]!r}")
    add = ~dataset.has_extra
    return replace(dataset, offsets=dataset.offsets + np.concatenate([[0], np.cumsum(add)]),
                   values=np.insert(dataset.values, dataset.offsets[1:][add], truths.latent_z[add]))
