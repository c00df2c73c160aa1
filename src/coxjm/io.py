"""File formats: dataset JSON/CSV, truths CSV, fit and variance report JSON.

JSON floats are written with Python's shortest round-trip decimal repr
(at most 17 significant digits), so a save/load cycle is bit-exact.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
from pathlib import Path

import numpy as np

from .baseline import BaselineFit
from .data import Dataset, MeasurementGrid, SieveHazard, Theta
from .exceptions import ValidationError, reading
from .fit import FitResult
from .simulate import SimTruth
from .transition import TransitionParams


def dataset_to_dict(dataset: Dataset) -> dict:
    v, o = dataset.values.tolist(), dataset.offsets.tolist()
    return {
        "grid": list(dataset.grid.times),
        "tau": dataset.tau,
        "subjects": [
            {"id": sid, "x": x, "delta": d, "measurements": v[lo:hi]}
            for sid, x, d, lo, hi in zip(dataset.ids, dataset.x.tolist(), dataset.delta.tolist(), o, o[1:])
        ],
    }


def dataset_from_dict(d: dict) -> Dataset:
    with reading("dataset document"):
        subjects = d["subjects"]
        ids, meas = [s["id"] for s in subjects], [s["measurements"] for s in subjects]
        try:
            count = [len(m) for m in meas]
        except TypeError:
            i = next(i for i, m in enumerate(meas) if not hasattr(m, "__len__"))
            raise ValidationError(f"subject {ids[i]!r}: measurements must be a list, "
                                  f"got {type(meas[i]).__name__}") from None
        return Dataset(grid=MeasurementGrid(tuple(d["grid"])), tau=d["tau"], ids=ids,
                       x=[s["x"] for s in subjects], delta=[s["delta"] for s in subjects],
                       offsets=np.cumsum([0, *count]), values=list(itertools.chain.from_iterable(meas)))


def save_dataset_json(dataset: Dataset, path) -> None:
    """Write `json.dumps(dataset_to_dict(dataset), indent=1)` and a newline.  The layout is
    written here, because json's indenting encoder is pure Python; every float is finite, so
    each is its `float.__repr__`, as json writes it."""
    r = float.__repr__
    v, o = list(map(r, dataset.values.tolist())), dataset.offsets.tolist()
    # the ids as json writes them, in one call: an encoded id holds no raw newline
    ids = json.dumps(list(dataset.ids), separators=("\n", ":"))[1:-1].split("\n")
    subjects = ",\n".join([
        f'  {{\n   "id": {sid},\n   "x": {r(x)},\n   "delta": {d},\n'
        '   "measurements": [\n    ' + ",\n    ".join(v[lo:hi]) + "\n   ]\n  }"
        for sid, x, d, lo, hi in zip(ids, dataset.x.tolist(), dataset.delta.tolist(), o, o[1:])])
    Path(path).write_text('{\n "grid": [\n  ' + ",\n  ".join(map(r, dataset.grid.times))
                          + f'\n ],\n "tau": {r(dataset.tau)},\n "subjects": '
                          + (f"[\n{subjects}\n ]" if subjects else "[]") + "\n}\n")


def load_dataset_json(path) -> Dataset:
    return dataset_from_dict(load_json(path))


def save_dataset_csv(dataset: Dataset, subjects_path, measurements_path) -> None:
    """Two-file CSV form: id,x,delta plus a companion id,measure_index,value."""
    subjects = dataset_to_dict(dataset)["subjects"]
    with open(subjects_path, "w", newline="") as f:
        csv.writer(f).writerows([("id", "x", "delta")] + [(s["id"], repr(s["x"]), s["delta"]) for s in subjects])
    with open(measurements_path, "w", newline="") as f:
        csv.writer(f).writerows([("id", "measure_index", "value")] + [
            (s["id"], j, repr(z)) for s in subjects for j, z in enumerate(s["measurements"])])


def _csv_id(s: str) -> int | str:
    """A CSV id field as written: an int when it is an int's own decimal form."""
    return int(s) if re.fullmatch(r"0|-?[1-9][0-9]*", s) else s


def load_dataset_csv(subjects_path, measurements_path, grid_times, tau) -> Dataset:
    """Load the CSV pair; the grid and tau are not stored there and must be given."""
    meas: dict[str, dict[int, str]] = {}
    with open(measurements_path, newline="") as f:
        for row in csv.DictReader(f):
            meas.setdefault(row["id"], {})[int(row["measure_index"])] = row["value"]
    with open(subjects_path, newline="") as f:
        subjects = list(csv.DictReader(f))
    for s in subjects:
        mm = meas.get(s["id"], {})
        if sorted(mm) != list(range(len(mm))):
            raise ValidationError(f"subject {s['id']!r}: measurement indices not contiguous")
        s["id"], s["measurements"] = _csv_id(s["id"]), [mm[j] for j in range(len(mm))]
    return dataset_from_dict({"grid": grid_times, "tau": tau, "subjects": subjects})


def save_truths_csv(truths: SimTruth, path) -> None:
    cols = (map(repr, v.tolist()) for v in (truths.latent_z, truths.event_time, truths.censor_time))
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([("id", "latent_z", "T", "C"), *zip(truths.ids, *cols)])


def load_truths_csv(path) -> SimTruth:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    return SimTruth([_csv_id(r["id"]) for r in rows], *([float(r[k]) for r in rows] for k in ("latent_z", "T", "C")))


def fit_to_dict(fit: FitResult) -> dict:
    th = fit.theta_hat
    return _fit_doc("npml", th.alpha.to_dict(), th.beta, th.hazard, fit.loglik_trace, fit.converged,
                    fit.score_norm, fit.iterations, fit.newton_steps, fit.n_subjects, fit.warnings,
                    fit.quadrature.to_dict())


def baseline_fit_to_dict(bl: BaselineFit, n_subjects: int) -> dict:
    """An LVCF partial-likelihood fit in the same layout, with no transition parameters, no
    Newton steps on the information operator and no quadrature; its `score_norm` is
    |score| / n, per subject as the NPML fit's."""
    return _fit_doc("lvcf-cox", None, bl.beta_pl, bl.breslow, [bl.loglik], bl.converged,
                    abs(bl.score) / n_subjects, bl.iterations, None, n_subjects, bl.flags, None)


def _fit_doc(method, alpha, beta, hazard, trace, converged, score_norm, iterations, newton_steps,
             n_subjects, warnings, quadrature) -> dict:
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
        "newton_steps": newton_steps,
        "n_subjects": n_subjects,
        "warnings": list(warnings),
        "quadrature": quadrature,
    }


def save_fit_json(fit: FitResult | dict, path) -> None:
    """Write a fit, or a document from `baseline_fit_to_dict`."""
    doc = fit if isinstance(fit, dict) else fit_to_dict(fit)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def theta_from_fit_dict(d: dict) -> Theta:
    if d.get("alpha", {}) is None:
        raise ValidationError(f"a {d.get('method')!r} fit has no transition parameters, so no theta")
    with reading("fit document"):
        alpha = TransitionParams.from_dict(d["alpha"])
        hz = SieveHazard(d["hazard"]["times"], d["hazard"]["jumps"])
        return Theta(alpha=alpha, beta=float(d["beta"]), hazard=hz)


def load_json(path):
    """The JSON document in the file at `path`; text that is not JSON is a ValidationError."""
    with reading(f"JSON file {path}"):
        return json.loads(Path(path).read_text())


def save_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
