"""File formats: dataset JSON/CSV, truths CSV, fit and variance report JSON.

JSON floats are written with Python's shortest round-trip decimal repr
(at most 17 significant digits), so a save/load cycle is bit-exact.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

from .data import Dataset, MeasurementGrid, SieveHazard, Subject, Theta
from .exceptions import ValidationError
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
    try:
        grid = MeasurementGrid(tuple(d["grid"]))
        subjects = tuple(
            Subject(id=s["id"], x=s["x"], delta=s["delta"], measurements=tuple(s["measurements"]))
            for s in d["subjects"]
        )
        return Dataset(grid=grid, subjects=subjects, tau=d["tau"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed dataset document: {exc}") from exc


def save_dataset_json(dataset: Dataset, path) -> None:
    Path(path).write_text(json.dumps(dataset_to_dict(dataset), indent=1) + "\n")


def load_dataset_json(path) -> Dataset:
    return dataset_from_dict(json.loads(Path(path).read_text()))


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
    return {
        "method": method,
        "alpha": th.alpha.to_dict() if th.alpha is not None else None,
        "beta": th.beta,
        "hazard": {"times": list(th.hazard.times), "jumps": list(th.hazard.jumps)},
        "loglik_trace": list(fit.loglik_trace),
        "loglik": fit.loglik,
        "converged": fit.converged,
        "score_norm": fit.score_norm,
        "iterations": fit.iterations,
        "n_subjects": fit.n_subjects,
        "warnings": list(fit.warnings),
    }


def save_fit_json(fit: FitResult, path, method: str = "npml") -> None:
    Path(path).write_text(json.dumps(fit_to_dict(fit, method), indent=1) + "\n")


def theta_from_fit_dict(d: dict) -> Theta:
    try:
        alpha = TransitionParams.from_dict(d["alpha"])
        hz = SieveHazard(tuple(d["hazard"]["times"]), tuple(d["hazard"]["jumps"]))
        return Theta(alpha=alpha, beta=float(d["beta"]), hazard=hz)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed fit document: {exc}") from exc


def load_fit_json(path) -> dict:
    return json.loads(Path(path).read_text())


def save_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
