"""Classical comparator: Cox partial likelihood with LVCF-imputed covariates.

The missing covariate value at each event time is imputed by the last
measured value at or before that time; Breslow's estimator then gives the
cumulative baseline hazard.  `breslow(dataset, 0.0)` is exactly Nelson-Aalen.

Cox's partial likelihood is the likelihood profiled over the baseline hazard
(Johansen 1983, Int. Stat. Rev. 51:165): here it is n times the EM objective
that the M-step profiles over the hazard (`fit._profile`), taken at point-mass
atoms at the imputed values, and it is maximized by the M-step's step-halved
Newton step (`fit._newton_step`).  Breslow's jumps are that profile's hazard.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .data import Dataset, SieveHazard
from .exceptions import ValidationError
from .fit import BETA_HALVINGS, FitConfig, _check_wn, _exp_powers, _newton_step, _profile
from .workspace import _Workspace


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


def _imputed(dataset: Dataset, imputation: str):
    """The risk-set workspace and the imputed values on the observed entries (subject i,
    interval j < a_x(i)) and in each terminal interval (n): "lvcf" takes measurement
    min(j, a_x), "next" the value due at the interval's end, which must be stored."""
    ws = _Workspace.of(dataset)
    if imputation == "lvcf":
        return ws, ws.t_prev, ws.z_pred
    if imputation != "next":
        raise ValidationError(f"imputation must be 'lvcf' or 'next', got {imputation!r}")
    short = ~ws.has_extra & ws.terminal_at_risk
    if np.any(short):
        raise ValidationError(
            f"subject {dataset.ids[int(np.argmax(short))]!r} has a latent value at risk; "
            "imputation 'next' needs fully observed data")
    return ws, ws.t_next, ws.z_extra


def _risk_sums(ws, v, z, beta):
    """S0, S1, S2 (K x 3): sums of v^m e^{beta v} over each event's risk set."""
    S = ws.cols(ws.interval_sums(v, beta), np.column_stack(_exp_powers(z, beta)))
    _check_wn(ws, S[:, 0])
    return S


def partial_lik_fit(dataset: Dataset, imputation: str = "lvcf", beta_box: float = 10.0) -> BaselineFit:
    """Newton-Raphson maximization of the log partial likelihood, with the covariate at risk
    imputed by `imputation`: "lvcf", or "next" for a dataset in full-information form.

    A flat likelihood (all covariate values equal within every risk set) returns beta = 0 with a
    "flat-likelihood" flag; a monotone likelihood is clipped at the box boundary and flagged
    non-converged.  Newton stops, after at most 100 steps, when the decrement
    |score| / sqrt(info), the next step in standard errors of beta, is at most 1e-12; its
    rounding floor grows like sqrt(K), the score's (a sum) like K.  `loglik`, `score` and
    `information` are sums over the events.  `beta_box` must be finite and >= 0.
    """
    FitConfig(beta_box=beta_box)  # refuses a box FitConfig refuses
    ws, v, z = _imputed(dataset, imputation)
    sums = partial(_risk_sums, ws, v, z)
    n, dE = ws.n, float(np.sum(ws.delta * z))
    beta, R = 0.0, sums(0.0)
    prof = _profile(R, dE, beta, n)
    if n * prof[2] <= 1e-300:
        return BaselineFit(0.0, _hazard(ws, R), 0, True, ("flat-likelihood",), *(n * p for p in prof))
    for it in range(1, 101):
        if prof[2] <= 0:
            raise ValidationError("log partial likelihood is not concave at an iterate")
        step = _newton_step(sums, dE, n, beta, prof, beta_box, BETA_HALVINGS)
        if step is not None:
            beta, R, prof = step
        converged = n * prof[1] * prof[1] <= 1e-24 * prof[2]
        if converged or step is None:
            break
    flags = ("boundary",) if abs(beta) >= beta_box and not converged else ()
    return BaselineFit(beta, _hazard(ws, R), it, converged, flags, *(n * p for p in prof))


def breslow(dataset: Dataset, beta: float, imputation: str = "lvcf") -> SieveHazard:
    """Breslow estimator: jump 1 / sum_{at risk} e^{beta z_j(x_k)} at each event."""
    if not np.isfinite(beta):
        raise ValidationError("beta must be finite")
    ws, v, z = _imputed(dataset, imputation)
    return _hazard(ws, _risk_sums(ws, v, z, beta))


def _hazard(ws, S) -> SieveHazard:
    """Breslow's jumps 1 / S0 from the risk-set sums S at one beta."""
    return SieveHazard(ws.xe, 1.0 / S[:, 0])


def nelson_aalen(dataset: Dataset) -> SieveHazard:
    """Nelson-Aalen estimator: jump 1 / (number at risk) at each event time."""
    return breslow(dataset, 0.0)
