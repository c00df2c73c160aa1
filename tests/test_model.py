import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import Subject, covariate_at, dataset_of, is_fully_observed, last_index

from coxjm import (
    Dataset,
    MeasurementGrid,
    SieveHazard,
    Theta,
    TransitionParams,
    ValidationError,
    breslow,
    em_fit,
    estep_atoms,
    partial_lik_fit,
    validate_dataset,
)

GRID = MeasurementGrid((0.0, 1.0, 2.0))


def test_last_index_examples():
    assert last_index(1.5, GRID) == 1
    assert last_index(1.0, GRID) == 0
    assert last_index(2.5, GRID) == 2


def test_last_index_domain_error():
    with pytest.raises(ValidationError):
        last_index(0.0, GRID)
    with pytest.raises(ValidationError):
        last_index(-1.0, GRID)


@given(st.floats(min_value=1e-9, max_value=10.0), st.floats(min_value=1e-9, max_value=10.0))
@settings(deadline=None)
def test_last_index_monotone(t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    assert last_index(lo, GRID) <= last_index(hi, GRID)


def test_last_index_unit_steps_at_grid_times():
    eps = 1e-12
    for k, t in enumerate(GRID.times):
        if t == 0:
            continue
        assert last_index(t + eps, GRID) == last_index(t, GRID) + 1


def test_grid_validation():
    with pytest.raises(ValidationError):
        MeasurementGrid((1.0, 2.0))  # must start at 0
    with pytest.raises(ValidationError):
        MeasurementGrid((0.0, 0.0, 1.0))
    with pytest.raises(ValidationError):
        MeasurementGrid((0.0, math.inf))
    with pytest.raises(ValidationError):
        MeasurementGrid(())


SUBJ = Subject(id="s", x=1.7, delta=1, measurements=(0.3, -0.2))


def test_covariate_at_examples():
    assert covariate_at(SUBJ, 0.5, GRID) == -0.2  # value due at t_1
    assert covariate_at(SUBJ, 1.4, GRID) is None  # terminal window
    assert covariate_at(SUBJ, 0.0, GRID) == 0.3


def test_covariate_at_domain():
    with pytest.raises(ValidationError):
        covariate_at(SUBJ, 1.8, GRID)
    with pytest.raises(ValidationError):
        covariate_at(SUBJ, -0.1, GRID)


def test_covariate_latent_iff_terminal_window():
    a_x = last_index(SUBJ.x, GRID)
    t_ax = GRID.times[a_x]
    for u in np.linspace(1e-6, SUBJ.x, 57):
        v = covariate_at(SUBJ, float(u), GRID)
        assert (v is None) == (u > t_ax)
    # an uncensored subject's own exit value is always latent
    assert covariate_at(SUBJ, SUBJ.x, GRID) is None


def test_covariate_at_fully_observed_subject():
    full = Subject(id="f", x=1.7, delta=1, measurements=(0.3, -0.2, 0.9))
    assert covariate_at(full, 1.4, GRID) == 0.9
    assert covariate_at(full, full.x, GRID) == 0.9


HZ = SieveHazard((1.0, 2.0), (0.5, 1.0))


def test_hazard_eval_examples():
    assert HZ.evaluate(0.5) == 0.0
    assert HZ.evaluate(1.0) == 0.5
    assert HZ.evaluate(3.0) == 1.5


def test_hazard_eval_properties():
    assert HZ.evaluate(0.0) == 0.0
    ts = np.linspace(0, 3, 100)
    vals = HZ.evaluate(ts)
    assert np.all(np.diff(vals) >= 0)
    assert HZ.evaluate(-0.5) == 0.0  # no jump at or before a negative time


def test_hazard_validation():
    with pytest.raises(ValidationError):
        SieveHazard((1.0, 1.0), (0.1, 0.1))
    with pytest.raises(ValidationError):
        SieveHazard((1.0,), (-0.1,))
    with pytest.raises(ValidationError):
        SieveHazard((1.0, 2.0), (0.1,))


@pytest.mark.parametrize("times, jumps, message", [
    ((1.0, 2.0), (0.1,), "hazard times and jumps must have equal length"),
    ((1.0, 1.0), (0.1, 0.1), "hazard jump times must be strictly increasing"),
    ((2.0, 1.0), (0.1, 0.1), "hazard jump times must be strictly increasing"),
    ((0.0, 1.0), (0.1, 0.1), "hazard jump times must be finite and > 0"),
    ((-1.0,), (0.1,), "hazard jump times must be finite and > 0"),
    ((1.0, math.nan), (0.1, 0.1), "hazard jump times must be finite and > 0"),
    ((1.0, math.inf), (0.1, 0.1), "hazard jump times must be finite and > 0"),
    ((1.0,), (-0.1,), "hazard jumps must be finite and >= 0"),
    ((1.0,), (math.nan,), "hazard jumps must be finite and >= 0"),
    ((1.0,), (math.inf,), "hazard jumps must be finite and >= 0"),
    (((1.0, 2.0),), ((0.1, 0.2),), "hazard times and jumps must be one-dimensional"),
    (1.0, 0.1, "hazard times and jumps must be one-dimensional"),
])
def test_hazard_validation_messages(times, jumps, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        SieveHazard(times, jumps)


def test_hazard_keeps_python_floats():
    # any sequence of numbers is kept as a tuple of the floats float() gives its entries
    times, jumps = np.array([0.5, 1.25, 3.0]), [np.float32(0.1), 2, 0.3]
    hz = SieveHazard(times, jumps)
    assert hz.times == tuple(float(t) for t in times) and hz.jumps == tuple(float(j) for j in jumps)
    assert all(type(v) is float for v in hz.times + hz.jumps)
    assert SieveHazard((), ()).times == ()


def _dataset(subjects):
    return dataset_of(GRID, subjects, 3.0)


def test_dataset_measurement_count():
    # x = 1.7 has a_x = 1, so 2 measurements (or 3 in full-information form)
    _dataset([Subject(id=1, x=1.7, delta=1, measurements=(0.0, 1.0))])
    _dataset([Subject(id=1, x=1.7, delta=1, measurements=(0.0, 1.0, 2.0))])
    with pytest.raises(ValidationError):
        _dataset([Subject(id=1, x=1.7, delta=1, measurements=(0.0,))])
    with pytest.raises(ValidationError):
        _dataset([Subject(id=1, x=1.7, delta=1, measurements=(0.0, 1.0, 2.0, 3.0))])


def test_dataset_administrative_censoring():
    _dataset([Subject(id=1, x=3.0, delta=0, measurements=(0.0, 1.0, 2.0))])
    with pytest.raises(ValidationError):
        _dataset([Subject(id=1, x=3.0, delta=1, measurements=(0.0, 1.0, 2.0))])
    with pytest.raises(ValidationError):
        _dataset([Subject(id=1, x=3.5, delta=0, measurements=(0.0, 1.0, 2.0))])


def test_dataset_unique_ids():
    s = Subject(id=1, x=1.7, delta=1, measurements=(0.0, 1.0))
    with pytest.raises(ValidationError):
        _dataset([s, s])


def test_tied_events_rejected_then_jittered():
    a = Subject(id="a", x=1.5, delta=1, measurements=(0.0, 1.0))
    b = Subject(id="b", x=1.5, delta=1, measurements=(0.2, 0.4))
    ds = _dataset([a, b, Subject(id="c", x=2.5, delta=0, measurements=(0.0, 1.0, 2.0))])
    theta = Theta(alpha=TransitionParams(0.0, 1.0, 0.0, 0.5, 1.0), beta=0.0, hazard=SieveHazard((1.5,), (0.5,)))
    # every consumer refuses ties with the one message that names the tied times
    for call in (validate_dataset, em_fit, partial_lik_fit, lambda d: breslow(d, 0.0),
                 lambda d: estep_atoms(d, theta)):
        with pytest.raises(ValidationError, match=r"^tied uncensored event times at \[1\.5\]"):
            call(ds)
    fixed = validate_dataset(ds, jitter_ties=True)
    xs = sorted(fixed.x.tolist())
    assert xs[0] != xs[1]
    assert xs[0] == pytest.approx(1.5, abs=1e-8)
    # deterministic: same input gives the same jitter
    again = validate_dataset(ds, jitter_ties=True)
    assert again.x.tolist() == fixed.x.tolist()


def test_tied_censoring_is_fine():
    a = Subject(id="a", x=1.5, delta=0, measurements=(0.0, 1.0))
    b = Subject(id="b", x=1.5, delta=0, measurements=(0.2, 0.4))
    validate_dataset(_dataset([a, b]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), steps=st.lists(st.floats(0.05, 1.0), max_size=6))
def test_dataset_layout_matches_per_subject_functions(data, steps):
    grid = MeasurementGrid(tuple(np.concatenate([[0.0], np.cumsum(steps)]).tolist()))
    tau = grid.times[-1] + 0.5
    subjects = []
    for i in range(data.draw(st.integers(1, 12))):
        x = data.draw(st.one_of(st.floats(1e-6, tau), st.sampled_from(grid.times[1:] + (tau,))))
        delta = 0 if x == tau else data.draw(st.integers(0, 1))
        count = last_index(x, grid) + 1 + data.draw(st.integers(0, 1))
        subjects.append(Subject(id=i, x=x, delta=delta, measurements=(0.5,) * count))
    ds = dataset_of(grid, subjects, tau)
    assert ds.x.tolist() == [s.x for s in subjects]
    assert ds.delta.tolist() == [s.delta for s in subjects]
    assert ds.a_x.tolist() == [last_index(s.x, grid) for s in subjects]
    assert ds.has_extra.tolist() == [is_fully_observed(s, grid) for s in subjects]


def test_dataset_layout_is_read_only():
    ds = _dataset([Subject(id=1, x=1.7, delta=1, measurements=(0.0, 1.0))])
    for v in (ds.x, ds.delta, ds.offsets, ds.values, ds.a_x, ds.has_extra):
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 0


@pytest.mark.parametrize("bad, message", [
    (dict(x=3.5), "x exceeds tau"),
    (dict(x=3.0, delta=1), "events at tau are not allowed"),
    (dict(measurements=(0.0,)), r"expected 3 measurements \(or 4 in the full-information form\), got 1"),
    (dict(x=0.0), "follow-up time must be finite and > 0"),
    (dict(x=math.inf), "follow-up time must be finite and > 0"),
    (dict(delta=2), "delta must be 0 or 1"),
    (dict(delta=1.7), "delta must be 0 or 1"),
    (dict(measurements=()), "entry measurement z_0 is required"),
    (dict(measurements=(0.0, math.nan, 2.0)), "measurements must be finite"),
    (dict(x="abc"), "could not convert string to float: 'abc'"),
    (dict(measurements=(0.0, 10**400, 2.0)), "int too large to convert to float"),
])
def test_dataset_error_names_first_bad_subject(bad, message):
    # the later bad subject fails the first check (an entry that is not a number), so a
    # check-by-check scan would name it
    ok = Subject(id="ok", x=2.5, delta=0, measurements=(0.0, 1.0, 2.0))
    subjects = [ok, replace(ok, id="first", **bad), replace(ok, id="ok2"), replace(ok, id="second", x="abc")]
    with pytest.raises(ValidationError, match=f"^subject 'first': {message}"):
        _dataset(subjects)


@pytest.mark.parametrize("bad", [
    dict(offsets=[1, 2, 3]),  # does not start at 0
    dict(offsets=[0, 4, 3]),  # decreases
    dict(offsets=[0, 2, 4]),  # does not end at len(values)
    dict(x=[1.7]),  # columns of unequal length
    dict(delta=[1, 0, 0]),
    dict(offsets=[0, 3]),
])
def test_dataset_inconsistent_layout_is_refused(bad):
    cols = dict(grid=GRID, tau=3.0, ids=[1, 2], x=[1.7, 0.5], delta=[1, 0], offsets=[0, 2, 3],
                values=[0.0, 1.0, 2.0])
    Dataset(**cols)
    with pytest.raises(ValidationError, match="^inconsistent dataset layout"):
        Dataset(**(cols | bad))
