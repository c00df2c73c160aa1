"""File formats: dataset JSON/CSV, truths CSV, fit and variance report JSON.

JSON floats are written with Python's shortest round-trip decimal repr
(at most 17 significant digits), so a save/load cycle is bit-exact.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

from .baseline import BaselineFit
from .data import Dataset, MeasurementGrid, SieveHazard, Subject, Theta
from .exceptions import ValidationError, reading
from .fit import FitResult
from .simulate import SimTruth
from .transition import TransitionParams


def dataset_to_dict(dataset: Dataset) -> dict:
    return {
        "grid": list(dataset.grid.times),
        "tau": dataset.tau,
        "subjects": [
            {"id": s.id, "x": s.x, "delta": s.delta, "measurements": list(s.measurements)}
            for s in dataset.subjects
        ],
    }


def dataset_from_dict(d: dict) -> Dataset:
    with reading("dataset document"):
        grid = MeasurementGrid(tuple(d["grid"]))
        subjects = tuple(
            Subject(id=s["id"], x=s["x"], delta=s["delta"], measurements=tuple(s["measurements"]))
            for s in d["subjects"]
        )
        return Dataset(grid=grid, subjects=subjects, tau=d["tau"])


def save_dataset_json(dataset: Dataset, path) -> None:
    """Write `json.dumps(dataset_to_dict(dataset), indent=1)` and a newline.  The layout is
    written here, because json's indenting encoder is pure Python; every float is finite, so
    each is its `float.__repr__`, as json writes it."""
    r = float.__repr__
    subjects = ",\n".join(
        f'  {{\n   "id": {json.dumps(s.id)},\n   "x": {r(s.x)},\n   "delta": {s.delta},\n'
        '   "measurements": [\n    ' + ",\n    ".join(map(r, s.measurements)) + "\n   ]\n  }"
        for s in dataset.subjects)
    Path(path).write_text('{\n "grid": [\n  ' + ",\n  ".join(map(r, dataset.grid.times))
                          + f'\n ],\n "tau": {r(dataset.tau)},\n "subjects": '
                          + (f"[\n{subjects}\n ]" if subjects else "[]") + "\n}\n")


def load_dataset_json(path) -> Dataset:
    return dataset_from_dict(load_json(path))


def save_dataset_csv(dataset: Dataset, subjects_path, measurements_path) -> None:
    """Two-file CSV form: id,x,delta plus a companion id,measure_index,value."""
    with open(subjects_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "x", "delta"])
        for s in dataset.subjects:
            w.writerow([s.id, repr(s.x), s.delta])
    with open(measurements_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "measure_index", "value"])
        for s in dataset.subjects:
            for j, z in enumerate(s.measurements):
                w.writerow([s.id, j, repr(z)])


def _csv_id(s: str) -> int | str:
    """A CSV id field as written: an int when it is an int's own decimal form."""
    return int(s) if re.fullmatch(r"0|-?[1-9][0-9]*", s) else s


def load_dataset_csv(subjects_path, measurements_path, grid_times, tau) -> Dataset:
    """Load the CSV pair; the grid and tau are not stored there and must be given."""
    meas: dict[str, dict[int, float]] = {}
    with open(measurements_path, newline="") as f:
        for row in csv.DictReader(f):
            meas.setdefault(row["id"], {})[int(row["measure_index"])] = float(row["value"])
    subjects = []
    with open(subjects_path, newline="") as f:
        for row in csv.DictReader(f):
            mm = meas.get(row["id"], {})
            values = tuple(mm[j] for j in sorted(mm))
            if len(values) != len(mm) or sorted(mm) != list(range(len(mm))):
                raise ValidationError(f"subject {row['id']!r}: measurement indices not contiguous")
            subjects.append(Subject(id=_csv_id(row["id"]), x=float(row["x"]),
                                    delta=int(row["delta"]), measurements=values))
    return Dataset(grid=MeasurementGrid(tuple(grid_times)), subjects=tuple(subjects), tau=float(tau))


def save_truths_csv(truths, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "latent_z", "T", "C"])
        for t in truths:
            w.writerow([t.subject_id, repr(float(t.latent_z)),
                        repr(float(t.event_time)), repr(float(t.censor_time))])


def load_truths_csv(path) -> tuple[SimTruth, ...]:
    out = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            out.append(SimTruth(subject_id=_csv_id(row["id"]), latent_z=float(row["latent_z"]),
                                event_time=float(row["T"]), censor_time=float(row["C"])))
    return tuple(out)


def fit_to_dict(fit: FitResult, method: str = "npml") -> dict:
    th = fit.theta_hat
    return _fit_doc(method, th.alpha.to_dict(), th.beta, th.hazard, fit.loglik_trace, fit.converged,
                    fit.score_norm, fit.iterations, fit.n_subjects, fit.warnings,
                    fit.quadrature.to_dict())


def baseline_fit_to_dict(bl: BaselineFit, n_subjects: int) -> dict:
    """An LVCF partial-likelihood fit in the same layout, with no transition parameters and
    no quadrature."""
    return _fit_doc("lvcf-cox", None, bl.beta_pl, bl.breslow, [bl.loglik], bl.converged,
                    abs(bl.score), bl.iterations, n_subjects, bl.flags, None)


def _fit_doc(method, alpha, beta, hazard, trace, converged, score_norm, iterations, n_subjects,
             warnings, quadrature) -> dict:
    return {
        "method": method,
        "alpha": alpha,
        "beta": beta,
        "hazard": {"times": list(hazard.times), "jumps": list(hazard.jumps)},
        "loglik_trace": list(trace),
        "loglik": trace[-1],
        "converged": converged,
        "score_norm": score_norm,
        "iterations": iterations,
        "n_subjects": n_subjects,
        "warnings": list(warnings),
        "quadrature": quadrature,
    }


def save_fit_json(fit: FitResult | dict, path, method: str = "npml") -> None:
    """Write a fit, or a document from `baseline_fit_to_dict`."""
    doc = fit if isinstance(fit, dict) else fit_to_dict(fit, method)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def theta_from_fit_dict(d: dict) -> Theta:
    if d.get("alpha", {}) is None:
        raise ValidationError(f"a {d.get('method')!r} fit has no transition parameters, so no theta")
    with reading("fit document"):
        alpha = TransitionParams.from_dict(d["alpha"])
        hz = SieveHazard(tuple(d["hazard"]["times"]), tuple(d["hazard"]["jumps"]))
        return Theta(alpha=alpha, beta=float(d["beta"]), hazard=hz)


def load_json(path):
    """The JSON document in the file at `path`; text that is not JSON is a ValidationError."""
    with reading(f"JSON file {path}"):
        return json.loads(Path(path).read_text())


def load_fit_json(path) -> dict:
    return load_json(path)


def save_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
