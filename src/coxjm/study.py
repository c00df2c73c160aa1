"""Monte Carlo study orchestration: replicate, fit, aggregate, report.

Replication r derives its simulation seed from the master seed through a
counter-based stream, so reports are reproducible byte for byte regardless of
worker count.  Wall time is recorded in the JSON report only, keeping the CSV
deterministic.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .baseline import partial_lik_fit
from .exceptions import CoxjmError, SingularOperatorError, ValidationError, reading
from .fit import FitConfig, em_fit
from .simulate import SimConfig, gen_dataset
from .variance import BETA_UNIDENTIFIED, _information, beta_probe, var_estimate, z_quantile

log = logging.getLogger(__name__)

ESTIMATORS = ("npml", "lvcf")
LAMBDA_GRID_POINTS = 50
MAX_FAILURE_FRACTION = 0.10

REPORT_COLUMNS = [
    "estimator", "n", "replications", "n_failed", "config_hash",
    "mean_beta", "mean_bias", "emp_sd", "rmse",
    "mean_se_simple", "mean_se_full", "coverage_simple", "coverage_full",
    "mean_sup_lambda_err", "convergence_rate",
]


@dataclass
class StudyConfig:
    sim: SimConfig
    fit: FitConfig = field(default_factory=FitConfig)
    replications: int = 100
    estimators: tuple[str, ...] = ("npml", "lvcf")
    ci_level: float = 0.95
    output_dir: str | None = None
    workers: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        if not 0 < self.ci_level < 1:
            raise ValidationError("ci_level must be in (0, 1)")
        bad = set(self.estimators) - set(ESTIMATORS)
        if bad:
            raise ValidationError(f"unknown estimators: {sorted(bad)}")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")

    def to_dict(self) -> dict:
        return {
            "sim": self.sim.to_dict(),
            "fit": self.fit.to_dict(),
            "replications": self.replications,
            "estimators": list(self.estimators),
            "ci_level": self.ci_level,
            "output_dir": self.output_dir,
            "workers": self.workers,
        }

    @staticmethod
    def from_dict(d: dict) -> "StudyConfig":
        with reading("study config"):
            d = dict(d)
            d["sim"] = SimConfig.from_dict(d["sim"])
            if "fit" in d and d["fit"] is not None:
                d["fit"] = FitConfig.from_dict(d["fit"])
            else:
                d.pop("fit", None)
            if "estimators" in d:
                d["estimators"] = tuple(d["estimators"])
            return StudyConfig(**d)


def config_hash(config: StudyConfig) -> str:
    payload = json.dumps(config.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def derive_rep_seed(master_seed: int, rep: int) -> int:
    return int(np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,)).generate_state(1)[0])


def _sup_lambda_err(hazard, lambda0: float, tau: float) -> float:
    ts = np.linspace(0.0, tau, LAMBDA_GRID_POINTS)
    return float(np.max(np.abs(hazard.evaluate(ts) - lambda0 * ts)))


def _run_one(config: StudyConfig, rep: int) -> list[dict]:
    seed = derive_rep_seed(config.sim.seed, rep)
    sim_cfg = replace(config.sim, seed=seed)
    dataset, _ = gen_dataset(sim_cfg)
    beta0 = sim_cfg.beta0
    q = z_quantile(config.ci_level)

    def covers(beta_hat: float, se: float) -> int | None:
        """Whether the Wald interval beta_hat +- q se holds beta0; None for a non-finite se."""
        return int(beta_hat - q * se <= beta0 <= beta_hat + q * se) if math.isfinite(se) else None

    rows = []
    for estimator in config.estimators:
        row = {"estimator": estimator, "rep": rep, "seed": seed, "error": None}
        try:
            if estimator == "npml":
                fit = em_fit(dataset, config=config.fit)
                th = fit.theta_hat
                # one operator build, at the fit's own posterior, gives both variances
                op, vs = _information(dataset, th, fit.posterior)
                if vs is None:
                    raise ValidationError(BETA_UNIDENTIFIED)
                row["beta_hat"], row["se_simple"] = th.beta, math.sqrt(vs / dataset.n)
                try:
                    vf = var_estimate(op, th.hazard, beta_probe(op.K))
                    row["se_full"] = math.sqrt(vf / dataset.n) if vf > 0 else float("nan")
                except SingularOperatorError:
                    row["se_full"] = float("nan")
                row["converged"] = int(fit.converged)
                hazard = th.hazard
            else:
                bl = partial_lik_fit(dataset, beta_box=config.fit.beta_box)
                row["beta_hat"] = bl.beta_pl
                row["se_simple"] = math.sqrt(1.0 / bl.information) if bl.information > 0 else float("nan")
                row["se_full"] = float("nan")
                row["converged"] = int(bl.converged)
                hazard = bl.breslow
            row["cover_simple"] = covers(row["beta_hat"], row["se_simple"])
            row["cover_full"] = covers(row["beta_hat"], row["se_full"])
            row["sup_lambda_err"] = _sup_lambda_err(hazard, sim_cfg.lambda0, sim_cfg.tau)
        except CoxjmError as exc:
            log.warning("replication %d estimator %s failed: %s", rep, estimator, exc)
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


@dataclass
class StudyReport:
    rows: list[dict]
    replication_rows: list[dict]
    config_hash: str
    invalid: bool
    wall_time_s: float


def run_study(config: StudyConfig, workers: int | None = None) -> StudyReport:
    """Run all replications and aggregate per-estimator summary rows."""
    t0 = time.perf_counter()
    n_workers = workers if workers is not None else config.workers
    reps = range(config.replications)
    if n_workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
            per_rep = list(pool.map(_run_one, [config] * config.replications, reps, chunksize=4))
    else:
        per_rep = [_run_one(config, r) for r in reps]
    # aggregation in replication order
    flat = [row for rep_rows in per_rep for row in rep_rows]
    chash = config_hash(config)
    rows = []
    invalid = False
    beta0 = config.sim.beta0
    for estimator in config.estimators:
        sub = [r for r in flat if r["estimator"] == estimator]
        ok = [r for r in sub if r["error"] is None]
        n_failed = len(sub) - len(ok)
        if n_failed > MAX_FAILURE_FRACTION * len(sub):
            invalid = True
        betas = np.array([r["beta_hat"] for r in ok])
        row = {
            "estimator": estimator,
            "n": config.sim.n,
            "replications": config.replications,
            "n_failed": n_failed,
            "config_hash": chash,
            "mean_beta": _mean(betas),
            "mean_bias": _mean(betas - beta0) if betas.size else float("nan"),
            "emp_sd": float(np.std(betas, ddof=1)) if betas.size > 1 else float("nan"),
            "rmse": float(np.sqrt(np.mean((betas - beta0) ** 2))) if betas.size else float("nan"),
            "mean_se_simple": _mean_of(ok, "se_simple"),
            "mean_se_full": _mean_of(ok, "se_full"),
            "coverage_simple": _mean_of(ok, "cover_simple"),
            "coverage_full": _mean_of(ok, "cover_full"),
            "mean_sup_lambda_err": _mean_of(ok, "sup_lambda_err"),
            "convergence_rate": _mean_of(ok, "converged"),
        }
        rows.append(row)
    return StudyReport(rows=rows, replication_rows=flat, config_hash=chash,
                       invalid=invalid, wall_time_s=time.perf_counter() - t0)


def _mean(arr) -> float:
    arr = np.asarray(arr, dtype=float)
    return float(np.mean(arr)) if arr.size else float("nan")


def _mean_of(rows, key) -> float:
    vals = [r[key] for r in rows if r.get(key) is not None and not (
        isinstance(r[key], float) and math.isnan(r[key]))]
    return float(np.mean(vals)) if vals else float("nan")


def write_report_csv(report: StudyReport, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=REPORT_COLUMNS)
        w.writeheader()
        for row in report.rows:
            w.writerow({k: _csv_cell(row.get(k)) for k in REPORT_COLUMNS})


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return v


def write_report_json(report: StudyReport, path) -> None:
    doc = {
        "config_hash": report.config_hash,
        "invalid": report.invalid,
        "wall_time_s": report.wall_time_s,
        "rows": report.rows,
        "replications": report.replication_rows,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_report_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ValidationError(f"empty report: {path}")
    hashes = {r["config_hash"] for r in rows}
    if len(hashes) > 1:
        raise ValidationError(f"mixed config hashes in one report: {sorted(hashes)}")
    return rows
