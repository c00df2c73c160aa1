"""Classical comparator: Cox partial likelihood with LVCF-imputed covariates.

The missing covariate value at each event time is imputed by the last
measured value at or before that time; Breslow's estimator then gives the
cumulative baseline hazard.  `breslow(dataset, 0.0)` is exactly Nelson-Aalen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, MeasurementGrid, SieveHazard, Subject, covariate_at, last_index
from .exceptions import DegenerateRiskSetError, ValidationError
from .fit import _exp_powers, _Workspace


@dataclass(frozen=True)
class BaselineFit:
    beta_pl: float
    breslow: SieveHazard
    iterations: int
    converged: bool
    flags: tuple[str, ...] = ()
    loglik: float = float("nan")
    score: float = float("nan")
    information: float = float("nan")


def lvcf_value(subject: Subject, u: float, grid: MeasurementGrid) -> float:
    """Last measured value at or before u: z_{a_u} (z_{a_x} past follow-up)."""
    if u < 0 or u > subject.x:
        raise ValidationError(f"lvcf_value: u={u!r} outside [0, x={subject.x!r}]")
    if u == 0:
        return subject.measurements[0]
    a_u = last_index(u, grid)
    a_x = last_index(subject.x, grid)
    return subject.measurements[min(a_u, a_x)]


def next_value(subject: Subject, u: float, grid: MeasurementGrid) -> float:
    """Covariate-path value at u; requires the dataset in full-information form."""
    v = covariate_at(subject, u, grid)
    if v is None:
        raise ValidationError(
            f"subject {subject.id!r} has a latent value at u={u!r}; "
            "next_value needs fully observed data")
    return v


def _imputed(dataset: Dataset, value_fn):
    """The risk-set workspace and the imputed values on the observed entries (subject i,
    interval j < a_x(i)) and in each terminal interval (n): `lvcf_value` takes
    measurement min(j, a_x), `next_value` the value due at the interval's end, fully observed."""
    ws = _Workspace(dataset)
    if value_fn is lvcf_value:
        return ws, ws.t_prev, ws.z_pred
    if value_fn is not next_value:
        raise ValidationError("value_fn must be lvcf_value or next_value")
    short = ~ws.has_extra & (ws.masses(np.ones(ws.K))[1] > 0)
    if np.any(short):
        raise ValidationError(
            f"subject {dataset.subjects[int(np.argmax(short))].id!r} has a latent value at risk; "
            "next_value needs fully observed data")
    return ws, ws.t_next, ws.z_extra


def _risk_sums(ws, v, z, beta):
    """S0, S1, S2: sums of v^m e^{beta v} over each event's risk set."""
    S = ws.cols(ws.interval_sums(v, beta)[1], np.column_stack(_exp_powers(z, beta))).T
    bad = ~(S[0] > 0)
    if np.any(bad):
        raise DegenerateRiskSetError(float(ws.xe[int(np.argmax(bad))]))
    return S


def _pl_parts(ws, v, z, beta):
    S0, S1, S2 = _risk_sums(ws, v, z, beta)
    v_event = z[ws.ev_row]
    loglik = float(np.sum(beta * v_event - np.log(S0)))
    mean = S1 / S0
    score = float(np.sum(v_event - mean))
    info = float(np.sum(S2 / S0 - mean * mean))
    return loglik, score, info


def partial_lik_fit(
    dataset: Dataset,
    value_fn=lvcf_value,
    beta_box: float = 10.0,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> BaselineFit:
    """Newton-Raphson maximization of the log partial likelihood.

    A flat likelihood (all covariate values equal within every risk set)
    returns beta = 0 with a "flat-likelihood" flag; a monotone likelihood is
    clipped at the box boundary and flagged non-converged.
    """
    parts = _imputed(dataset, value_fn)
    beta = 0.0
    flags: list[str] = []
    loglik, score, info = _pl_parts(*parts, beta)
    if info <= 1e-300:
        return BaselineFit(0.0, _breslow(parts, 0.0), 0, True, ("flat-likelihood",), loglik, score, info)
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        if info <= 0:
            raise ValidationError("log partial likelihood is not concave at an iterate")
        step = score / info
        new = float(np.clip(beta + step, -beta_box, beta_box))
        ll_new, sc_new, info_new = _pl_parts(*parts, new)
        halved = 0
        while ll_new < loglik - 1e-12 and halved < 60:
            new = beta + (new - beta) * 0.5
            ll_new, sc_new, info_new = _pl_parts(*parts, new)
            halved += 1
        moved = abs(new - beta)
        beta, loglik, score, info = new, ll_new, sc_new, info_new
        if abs(score) <= tol:
            converged = True
            break
        if moved == 0.0:
            break
    if abs(beta) >= beta_box and abs(score) > tol:
        flags.append("boundary")
        converged = False
    return BaselineFit(beta, _breslow(parts, beta), it, converged, tuple(flags), loglik, score, info)


def breslow(dataset: Dataset, beta: float, value_fn=lvcf_value) -> SieveHazard:
    """Breslow estimator: jump 1 / sum_{at risk} e^{beta z_j(x_k)} at each event."""
    if not np.isfinite(beta):
        raise ValidationError("beta must be finite")
    return _breslow(_imputed(dataset, value_fn), beta)


def _breslow(parts, beta: float) -> SieveHazard:
    return SieveHazard(tuple(parts[0].xe), tuple(1.0 / _risk_sums(*parts, beta)[0]))


def nelson_aalen(dataset: Dataset) -> SieveHazard:
    """Nelson-Aalen estimator: jump 1 / (number at risk) at each event time."""
    return breslow(dataset, 0.0)
