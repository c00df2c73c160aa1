import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import last_index, piecewise_exp_time, scalar_gen_dataset, subjects_of

from coxjm import MeasurementGrid, TransitionParams, ValidationError
from coxjm.baseline import nelson_aalen
from coxjm.data import Theta
from coxjm.fit import estep_atoms
from coxjm.simulate import SimConfig, SimTruth, _event_times, fullinfo_dataset, gen_dataset, make_grid, stream_words
from coxjm.study import derive_rep_seed

ALPHA0 = TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25)


def _cfg(**kw):
    base = dict(n=10, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                lambda0=0.3, censor_rate=0.0, seed=0)
    base.update(kw)
    return SimConfig(**base)


def _rows(truths, rows):
    """The truths of the subjects `rows` (a slice)."""
    return SimTruth(truths.ids[rows], truths.latent_z[rows], truths.event_time[rows], truths.censor_time[rows])


def test_config_validation():
    with pytest.raises(ValidationError):
        _cfg(n=0)
    with pytest.raises(ValidationError):
        _cfg(tau=1.1, grid_step=0.25)
    with pytest.raises(ValidationError):
        _cfg(lambda0=0.0)
    with pytest.raises(ValidationError):
        _cfg(censor_rate=-1.0)


@pytest.mark.parametrize("field, value", [
    ("lambda0", math.nan), ("lambda0", math.inf), ("beta0", math.nan), ("beta0", -math.inf),
    ("censor_rate", math.nan), ("censor_rate", math.inf), ("grid_step", math.nan),
    ("grid_step", math.inf), ("tau", math.nan), ("tau", math.inf), ("n", 2.5), ("n", "3"),
    ("seed", -1), ("seed", 1.5), ("seed", "3"), ("seed", None),
])
def test_config_rejects_non_finite_and_non_integer_values(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        _cfg(**{field: value})
    # the same message through the config document the CLI reads
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        SimConfig.from_dict({**_cfg().to_dict(), field: value})


def _seed_sequence_words(seed, i):
    return np.random.SeedSequence(entropy=seed, spawn_key=(i,)).generate_state(4, np.uint64)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128]),
                      st.integers(0, 2**32 - 1), st.integers(2**128, 2**300),
                      st.builds(derive_rep_seed, st.integers(0, 2**64), st.integers(0, 10**6))),
       n=st.integers(1, 3000), data=st.data())
def test_stream_words_match_seed_sequence(seed, n, data):
    # subject i's state words are those of SeedSequence(entropy=seed, spawn_key=(i,)),
    # for one-word seeds, seeds longer than the 4-word pool, and the study's replication seeds
    words = stream_words(seed, n)
    assert words.shape == (n, 4) and words.dtype == np.uint64
    rows = {0, n - 1, *data.draw(st.lists(st.integers(0, n - 1), max_size=5))}
    for i in sorted(rows):
        assert np.array_equal(words[i], _seed_sequence_words(seed, i)), i


def test_stream_words_match_seed_sequence_for_every_large_n_subject():
    # every subject of the n = 64000, seed 1 dataset that the large-n end-to-end check writes
    words = stream_words(1, 64000)
    want = np.stack([_seed_sequence_words(1, i) for i in range(64000)])
    assert np.array_equal(words, want)


def test_truths_refuse_a_column_of_another_length():
    with pytest.raises(ValidationError, match="^truths need one event_time per id$"):
        SimTruth(ids=(0, 1), latent_z=[0.1, 0.2], event_time=[1.0], censor_time=[3.0, 3.0])


def test_make_grid():
    grid = make_grid(_cfg())
    assert grid.times[0] == 0.0
    assert grid.times[-1] == pytest.approx(2.75)
    assert len(grid.times) == 12


def _inverse(z, e, **kw):
    """Batched event times for the chains z at the exponentials e, and the oracle's."""
    cfg = _cfg(n=len(e), **kw)
    z, e = np.asarray(z, dtype=float), np.asarray(e, dtype=float)
    rates = cfg.lambda0 * np.exp(cfg.beta0 * z[:, 1:])
    want = [piecewise_exp_time(float(ei), r, cfg.grid_step, cfg.tau) for ei, r in zip(e, rates)]
    return _event_times(z, e, cfg).tolist(), want, rates


def test_event_times_inversion():
    # rates 2 and 0.5 (up to rounding in exp): cumulative hazard 2t on (0,1], 2 + 0.5(t-1) on (1,2]
    z = [0.0, math.log(4.0), 0.0]
    got, want, rates = _inverse([z] * 5, [1.0, 2.25, 3.0, 2.0 + 1e-12, 2.0 - 1e-12],
                                grid_step=1.0, tau=2.0, beta0=1.0, lambda0=0.5)
    assert got == want
    assert got[0] == pytest.approx(0.5) and got[1] == pytest.approx(1.5) and got[2] == math.inf
    # survival through the first interval: T > t_1 iff e > rate_0 * t_1
    assert got[3] > 1.0 > got[4]
    # e equal to the total hazard through tau is reached at tau, not beyond it
    total = rates[0, 0] * 1.0 + rates[0, 1] * 1.0
    got, want, _ = _inverse([z], [total], grid_step=1.0, tau=2.0, beta0=1.0, lambda0=0.5)
    assert got == want and got[0] == pytest.approx(2.0)


def test_event_time_on_an_interval_boundary_takes_the_earlier_interval():
    # a rate r whose mass r*0.1 divides back to just below 0.1: the first interval gives
    # (r*0.1)/r < 0.1, and the second would give 0.1 + 0/r' = 0.1
    r = next(v for v in 0.5 * np.exp(np.linspace(0.1, 2.0, 400)) if (v * 0.1) / v != 0.1)
    z = [0.0, math.log(r / 0.5), 0.3]
    cfg = dict(grid_step=0.1, tau=0.2, beta0=1.0, lambda0=0.5)
    _, _, rates = _inverse([z], [1.0], **cfg)
    got, want, _ = _inverse([z], [float(rates[0, 0] * 0.1)], **cfg)
    assert got == want
    assert got[0] == (rates[0, 0] * 0.1) / rates[0, 0] < 0.1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([0.25, 0.02]), st.integers(1, 8), st.floats(-2.0, 2.0), st.floats(0.01, 5.0),
       st.data())
def test_event_times_match_the_interval_loop(grid_step, n, beta0, lambda0, data):
    m = int(round(3.0 / grid_step))
    z = data.draw(arrays(float, (n, m + 1), elements=st.floats(-3.0, 3.0)))
    e = data.draw(arrays(float, n, elements=st.floats(0.0, 40.0)))
    # some rows' e exactly on a running sum of the masses, as the loop accumulates them
    rates = lambda0 * np.exp(beta0 * z[:, 1:])
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
        k = data.draw(st.integers(1, m))
        acc = 0.0
        for j in range(k):
            acc += rates[i, j] * (min((j + 1) * grid_step, 3.0) - j * grid_step)
        e[i] = acc
    got, want, _ = _inverse(z, e, grid_step=grid_step, beta0=beta0, lambda0=lambda0)
    assert got == want


def test_gen_dataset_deterministic():
    ds1, tr1 = gen_dataset(_cfg(seed=5))
    ds2, tr2 = gen_dataset(_cfg(seed=5))
    assert ds1 == ds2
    assert tr1 == tr2
    ds3, _ = gen_dataset(_cfg(seed=6))
    assert ds3 != ds1


def test_administrative_censoring_only():
    ds, truths = gen_dataset(_cfg(n=200, seed=1))
    for s in subjects_of(ds):
        if s.delta == 0:
            assert s.x == ds.tau
    # censoring times never depend on the covariate: all equal tau here
    assert set(truths.censor_time.tolist()) == {3.0}


def test_measurement_counts_and_latent_consistency():
    ds, truths = gen_dataset(_cfg(n=100, seed=2, censor_rate=0.3))
    for s, latent_z, event_time, censor_time in zip(subjects_of(ds), truths.latent_z, truths.event_time,
                                                    truths.censor_time):
        a_x = last_index(s.x, ds.grid)
        assert len(s.measurements) == a_x + 1
        assert all(gt < s.x for gt in ds.grid.times[: a_x + 1])
        assert math.isfinite(latent_z)
        if s.delta == 1:
            assert event_time == pytest.approx(s.x)
        else:
            assert censor_time == pytest.approx(s.x)
            assert event_time > s.x or event_time == math.inf


def test_event_time_median_exponential():
    # beta0=0, lambda0=1: T ~ Exp(1), median ln 2
    cfg = _cfg(n=20000, seed=3, beta0=0.0, lambda0=1.0, tau=50.0, grid_step=0.5)
    ds, truths = gen_dataset(cfg)
    ts = truths.event_time
    assert np.median(ts) == pytest.approx(math.log(2), abs=0.02)


def test_truncated_mean_oracle():
    # mean of min(T, tau) for T ~ Exp(1) is 1 - e^{-tau}
    tau = 5.0
    cfg = _cfg(n=100000, seed=4, beta0=0.0, lambda0=1.0, tau=tau, grid_step=0.5)
    ds, truths = gen_dataset(cfg)
    xs = np.minimum(truths.event_time, tau)
    want = 1.0 - math.exp(-tau)
    ex2 = 2.0 * (1.0 - (tau + 1.0) * math.exp(-tau))
    se = math.sqrt((ex2 - want**2) / len(xs))
    assert abs(xs.mean() - want) <= 3 * se


def test_event_fraction_binomial_oracle():
    cfg = _cfg(n=10000, seed=5, beta0=0.0, lambda0=1.0, tau=3.0)
    ds, _ = gen_dataset(cfg)
    p = 1.0 - math.exp(-3.0)
    frac = ds.n_events / ds.n
    se = math.sqrt(p * (1 - p) / ds.n)
    assert abs(frac - p) <= 3 * se


def test_survival_curve_ks():
    cfg = _cfg(n=10000, seed=6, beta0=0.0, lambda0=1.0, tau=3.0)
    ds, _ = gen_dataset(cfg)
    xs = np.sort(ds.x)
    # for t < tau, X <= t iff T <= t; compare the edf against 1 - e^{-t}
    grid = np.linspace(1e-3, 2.999, 500)
    edf = np.searchsorted(xs, grid, side="right") / len(xs)
    ks = np.max(np.abs(edf - (1.0 - np.exp(-grid))))
    assert ks <= 1.36 / math.sqrt(len(xs))


def test_at_risk_at_tau_positive():
    ds, _ = gen_dataset(_cfg(n=500, seed=7, censor_rate=0.2))
    assert np.sum(ds.x >= ds.tau) > 0


def test_censoring_independent_permutation_check():
    # permuting covariate histories across subjects leaves censor times alone:
    # the generator never feeds Z into the censoring draw, and empirically the
    # censor times are uncorrelated with the entry value at desk scale
    cfg = _cfg(n=4000, seed=8, censor_rate=0.5)
    _, truths = gen_dataset(cfg)
    ds, _ = gen_dataset(cfg)
    z0 = ds.values[ds.offsets[:-1]]
    c = truths.censor_time
    mask = c < cfg.tau
    r = np.corrcoef(z0[mask], c[mask])[0, 1]
    assert abs(r) < 3.0 / math.sqrt(mask.sum())


@pytest.mark.parametrize("truncate_at", [None, 1.2])
def test_subject_draws_do_not_depend_on_n(truncate_at):
    # subject i reads only its own stream, so the first subjects and their truths are the same
    # whatever the number of subjects drawn after them
    small, small_truths = gen_dataset(_cfg(n=5, censor_rate=0.3, truncate_at=truncate_at))
    large, large_truths = gen_dataset(_cfg(n=12, censor_rate=0.3, truncate_at=truncate_at))
    assert subjects_of(small) == subjects_of(large)[:5]
    assert small_truths == _rows(large_truths, slice(5))


def test_fullinfo_dataset_appends_latent():
    ds, truths = gen_dataset(_cfg(n=30, seed=9, censor_rate=0.3))
    full = fullinfo_dataset(ds, truths)
    for s, f, latent_z in zip(subjects_of(ds), subjects_of(full), truths.latent_z.tolist()):
        assert f.measurements == s.measurements + (latent_z,)
    # idempotent
    again = fullinfo_dataset(full, truths)
    assert again == full
    # degenerate atoms downstream: each stored value is one atom of weight one
    th = Theta(alpha=ALPHA0, beta=0.5, hazard=nelson_aalen(full))
    atoms = estep_atoms(full, th)
    latent = truths.latent_z
    assert np.array_equal(atoms.nodes, np.repeat(latent[:, None], atoms.nodes.shape[1], axis=1))
    assert np.array_equal(atoms.weights[:, 0], np.ones(full.n)) and not np.any(atoms.weights[:, 1:])


def test_fullinfo_misalignment_error():
    ds, truths = gen_dataset(_cfg(n=5, seed=10))
    with pytest.raises(ValidationError):
        fullinfo_dataset(ds, _rows(truths, slice(-1)))
    with pytest.raises(ValidationError, match="^truth/subject id mismatch: 4 vs 0$"):
        fullinfo_dataset(ds, _rows(truths, slice(None, None, -1)))


def test_truncation_bound_applied():
    cfg = _cfg(n=200, seed=11, truncate_at=1.0)
    ds, truths = gen_dataset(cfg)
    for s in subjects_of(ds):
        assert all(abs(z) <= 1.0 for z in s.measurements)
    assert np.all(np.abs(truths.latent_z) <= 1.0)


@pytest.mark.parametrize("seed", [0, 1, 2, 2**128 + 7])
@pytest.mark.parametrize("grid_step", [0.25, 0.02])
@pytest.mark.parametrize("censor_rate", [0.0, 0.3])
@pytest.mark.parametrize("truncate_at", [None, 1.2])
def test_gen_dataset_matches_scalar_draws(seed, grid_step, censor_rate, truncate_at):
    # nonzero intercepts, so that a change in how a draw is combined with its mean shows
    cfg = _cfg(n=25, seed=seed, grid_step=grid_step, censor_rate=censor_rate, truncate_at=truncate_at,
               alpha0=TransitionParams(0.3, 1.2, 0.17, 0.7, 0.25))
    (got, got_truths), (want, want_truths) = gen_dataset(cfg), scalar_gen_dataset(cfg)
    assert repr((subjects_of(got), got_truths)) == repr((subjects_of(want), want_truths))
    assert got_truths == want_truths


@pytest.mark.parametrize("censor_rate", [0, 0.3, 1, 0.2])
@pytest.mark.parametrize("truncate_at", [None, 1.2])
def test_gen_dataset_with_integer_tau_and_grid_step(censor_rate, truncate_at):
    # integers, as a JSON config may give them: the censoring times must stay real numbers
    # (at rate 0.2, x / rate and (1 / rate) * x differ in the last bit for about a third of x)
    cfg = _cfg(n=40, grid_step=1, tau=3, censor_rate=censor_rate, truncate_at=truncate_at)
    (got, got_truths), (want, want_truths) = gen_dataset(cfg), scalar_gen_dataset(cfg)
    assert repr(subjects_of(got)) == repr(subjects_of(want))
    assert got_truths == want_truths
    assert all(v.dtype == np.float64 for v in (got_truths.latent_z, got_truths.event_time, got_truths.censor_time))
    if censor_rate:
        assert np.any((0 < got_truths.censor_time) & (got_truths.censor_time < 3) & (got_truths.censor_time % 1 != 0))
