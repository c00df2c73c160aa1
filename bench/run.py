"""coxjm benchmark: one command, three workloads, checked outputs, an optional trace.

Usage (from the repository root):

    python3 bench/run.py --workload fit_n2000 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

`--trace 0` prints the end-to-end metrics listed in BENCHMARK.json; `--trace 1`
alternates untraced and traced cycles and prints the per-layer metrics, which
come from spans recorded around every call this file makes into coxjm (the
library itself is not instrumented).  `--smoke` runs every workload once at a
tiny size, in both modes, so that a broken workload fails within seconds.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A failed correctness check is printed to
standard error, makes `correct` false and the exit code 1.  See
bench/README.md for the workloads and the layer -> metric -> workload map.
"""

import os

# BLAS threads are pinned before numpy loads: every workload is one caller in
# one process, and a single BLAS thread keeps run-to-run spread low on a
# shared two-core machine (two threads measured no faster at n=2000).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import mean, median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import coxjm as cj  # noqa: E402
from coxjm import io as cjio  # noqa: E402
from coxjm.study import StudyConfig, derive_rep_seed, run_study  # noqa: E402
from coxjm.variance import beta_probe  # noqa: E402

if not Path(cj.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"coxjm was imported from {cj.__file__}, not from {SRC}")

MiB = 2.0**20
SETUP_REPS = 3
DEFAULT_SEED = 0
FIT_CONFIG = cj.FitConfig()
ALPHA0 = cj.TransitionParams(mu0=0.0, s0sq=1.0, a=0.0, b=0.7, ssq=0.25)
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import coxjm, coxjm.io, coxjm.study; print(time.perf_counter() - t)")
# the calls study._run_one makes, replayed per replication to split run_study's time
REPLAY_SPAN = "study.replay"
# what `coxjm fit --method npml` computes: the time_to_report_s calls
REPORT_CALLS = {"fit.em_fit", "fit.estep_atoms", "variance.variance_report"}

# Values at --seed 0 (ROADMAP gate: same iterations, beta within 1e-10).  For
# study_n200 they belong to replication 0 of the first chunk.
REFERENCE = {
    "study_n200": {"beta_hat": 0.9531928430079805, "iterations": 26,
                   "var_beta_simple": 2.7685206509599327, "var_beta_full": 3.7755427110056616},
    "fit_n2000": {"beta_hat": 0.889635127058202, "iterations": 26,
                  "var_beta_simple": 2.948641354721749, "var_beta_full": 3.7798572715075323},
    "fine_grid_n1000": {"beta_hat": 1.0113790606777306, "iterations": 25,
                        "var_beta_simple": 2.6540602108316493, "var_beta_full": 3.9644582460364863},
}
BETA_TOL = 1e-10
VAR_RTOL = 1e-8

# Host speed.  Other load on a shared host slows identical work by up to 2x
# for minutes at a time, so each run also times a fixed yardstick and scales
# every time it reports by YARDSTICK_REF_S / (the run's mean yardstick time).
# The constant only sets the scale: times read as seconds on a machine where
# the yardstick takes 0.2 s, and comparisons between commits do not depend on it.
YARDSTICK_REF_S = 0.2
YARDSTICK_SHARE = 0.15  # of the run's unit time spent on the yardstick
_YARD_RNG = np.random.default_rng(2006)
_YARD_SMALL = _YARD_RNG.standard_normal((200, 104))   # one n x K array of study_n200
_YARD_LARGE = _YARD_RNG.standard_normal((1000, 500))  # 4 MB: twice L2, well inside L3
_YARD_BUF = np.empty_like(_YARD_LARGE)
_YARD_SQUARE = _YARD_RNG.standard_normal((300, 300))


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    grid_step: float
    chunk: int = 0   # replications per run_study call; 0 for the single-dataset fit workloads
    chunks: int = 1  # run_study calls per cycle, each on replications of its own

    def sim(self, seed: int) -> cj.SimConfig:
        return cj.SimConfig(n=self.n, grid_step=self.grid_step, tau=3.0, alpha0=ALPHA0,
                            beta0=1.0, lambda0=0.3, censor_rate=0.2, seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("study_n200", n=200, grid_step=0.25, chunk=4, chunks=2),
    Workload("fit_n2000", n=2000, grid_step=0.25),
    Workload("fine_grid_n1000", n=1000, grid_step=0.02),
)}
SMOKE = {
    "study_n200": replace(WORKLOADS["study_n200"], n=100, chunk=2, chunks=1),
    "fit_n2000": replace(WORKLOADS["fit_n2000"], n=200),
    "fine_grid_n1000": replace(WORKLOADS["fine_grid_n1000"], n=150),
}


class Recorder:
    """Spans around the benchmark's calls into coxjm, kept in memory.

    Every call is timed.  While `tracing` is on, tracemalloc runs and each leaf
    call also records its allocation peak above the traced level at entry.
    """

    def __init__(self):
        self.tracing = False
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "traced": self.tracing,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["dur"] = rec["end"] - rec["start"]
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        if self.tracing:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        with self.span(name) as rec:
            out = fn(*args, **kwargs)
        if self.tracing:
            rec["peak_mib"] = (tracemalloc.get_traced_memory()[1] - base) / MiB
        return out

    def total(self, names, since: int) -> float:
        return sum(s["dur"] for s in self.spans[since:] if s["name"] in names)

    @contextmanager
    def traced(self, on: bool):
        self.tracing = on
        if on:
            tracemalloc.start()
        try:
            yield
        finally:
            if on:
                tracemalloc.stop()
            self.tracing = False


@dataclass
class Run:
    workload: Workload
    seed: int
    rec: Recorder = field(default_factory=Recorder)
    setups: list[float] = field(default_factory=list)
    units: list[dict] = field(default_factory=list)   # key, traced, wall, replications, overhead
    ops: list[dict] = field(default_factory=list)     # one per fit pass or study replication
    problems: list[str] = field(default_factory=list)
    failed: set[str] = field(default_factory=set)     # operations with a failed check
    first: dict[str, str] = field(default_factory=dict)  # unit key -> outcome in cycle 0
    yardsticks: list[float] = field(default_factory=list)

    def fail(self, where: str, what: str) -> None:
        self.failed.add(where)
        self.problems.append(f"{self.workload.name} seed={self.seed} {where}: {what}")


# --------------------------------------------------------------------------- checks

def check_npml(run: Run, where: str, ds, fit, atoms) -> None:
    """Converged, and the certificate holds when re-derived through public calls."""
    rec, cfg, th = run.rec, FIT_CONFIG, fit.theta_hat
    if not fit.converged:
        run.fail(where, f"NPML fit not converged after {fit.iterations} iterations")
    fresh = rec.call("fit.lambda_update", cj.lambda_update, ds, atoms, th.beta)
    dL = np.asarray(th.hazard.jumps)
    wn = 1.0 / (ds.n * np.asarray(fresh.jumps))
    id_resid = float(np.max(np.abs(dL * wn - 1.0 / ds.n)))
    if not id_resid <= cfg.id_tol:
        run.fail(where, f"fixed-point residual {id_resid:.3g} > id_tol {cfg.id_tol:g}")
    probes = [(np.eye(5)[j], 0.0, None) for j in range(5)] + [(None, 1.0, None)]
    for j, h in enumerate(probes):
        s = rec.call("fit.score_full", cj.score_full, ds, th, h, cfg.Q, atoms=atoms)
        if not abs(s) <= cfg.tol_score:
            run.fail(where, f"score along probe {j} is {s:.3g} > tol_score {cfg.tol_score:g}")
    ll = rec.call("fit.observed_loglik", cj.observed_loglik, ds, th, cfg.Q)
    if not abs(ll - fit.loglik) <= 1e-9 * (1.0 + abs(fit.loglik)):
        run.fail(where, f"observed_loglik {ll!r} differs from the fit's {fit.loglik!r}")
    # EM contracts, so the next alpha update moves less than the last accepted
    # change, which the stopping rule held below tol_param.
    alpha = rec.call("transition.weighted_mle_alpha", cj.weighted_mle_alpha, ds, atoms,
                     box=cfg.alpha_box, var_floor=cfg.var_floor)
    step = float(np.max(np.abs(alpha.as_array() - th.alpha.as_array())))
    if not step <= cfg.tol_param:
        run.fail(where, f"alpha update at the fit moves {step:.3g} > tol_param {cfg.tol_param:g}")


def variance_split(rec: Recorder, ds, th, atoms) -> tuple[float, float]:
    vs = rec.call("variance.var_beta_simple", cj.var_beta_simple, ds, th, atoms)
    op = rec.call("variance.build_sigma_hat", cj.build_sigma_hat, ds, th, atoms)
    vf = rec.call("variance.var_estimate", cj.var_estimate, op, th.hazard, beta_probe(op.K))
    return vs, vf


def check_report(run: Run, where: str, report: dict, vs: float, vf: float) -> None:
    values = [report["var_beta_simple"], report["var_beta_full"], *report["var_alpha"]]
    if report["lambda_band"] is None:
        run.fail(where, "lambda_band missing (singular operator)")
    else:
        values += [v for _, v in report["lambda_band"]]
    if not all(v is not None and math.isfinite(v) and v > 0 for v in values):
        run.fail(where, f"variance not finite and positive: {values}")
    if (report["var_beta_simple"], report["var_beta_full"]) != (vs, vf):
        run.fail(where, "variance_report disagrees with var_beta_simple/var_estimate: "
                        f"{(report['var_beta_simple'], report['var_beta_full'])} vs {(vs, vf)}")


def check_reference(run: Run, where: str, fit, vs: float, vf: float) -> None:
    if run.seed != DEFAULT_SEED or run.workload is not WORKLOADS[run.workload.name]:
        return
    ref = REFERENCE[run.workload.name]
    got = {"beta_hat": fit.theta_hat.beta, "iterations": fit.iterations,
           "var_beta_simple": vs, "var_beta_full": vf}
    if not (abs(got["beta_hat"] - ref["beta_hat"]) <= BETA_TOL
            and got["iterations"] == ref["iterations"]
            and all(abs(got[k] - ref[k]) <= VAR_RTOL * ref[k] for k in ("var_beta_simple", "var_beta_full"))):
        run.fail(where, f"reference mismatch: got {got}, expected {ref}")


# --------------------------------------------------------------------------- set-up

def import_seconds() -> float:
    """coxjm's import time, measured inside a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def setup(run: Run, reps: int):
    """Imports plus generation and a checked JSON round trip of the input dataset."""
    rec, wl = run.rec, run.workload
    seed = derive_rep_seed(master_seed(run.seed, 0), 0) if wl.chunk else run.seed
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}_dataset.json"
    for _ in range(reps):
        t_import = import_seconds()
        mark = len(rec.spans)
        ds, _ = rec.call("simulate.gen_dataset", cj.gen_dataset, wl.sim(seed))
        rec.call("io.save_dataset_json", cjio.save_dataset_json, ds, path)
        loaded = rec.call("io.load_dataset_json", cjio.load_dataset_json, path)
        run.setups.append(t_import + rec.total(
            {"simulate.gen_dataset", "io.save_dataset_json", "io.load_dataset_json"}, mark))
        if repr(cjio.dataset_to_dict(loaded)) != repr(cjio.dataset_to_dict(ds)):
            run.fail("setup", "JSON round trip is not bit-exact")
    return loaded


def master_seed(seed: int, chunk: int) -> int:
    return seed * 1000 + chunk


# --------------------------------------------------------------------------- units

def fit_unit(run: Run, cycle: int, ds, traced: bool) -> None:
    """One pass: what `coxjm fit --method npml` computes, plus the LVCF comparator."""
    rec, cfg, where, key = run.rec, FIT_CONFIG, f"pass {cycle}", "pass"
    mark = len(rec.spans)
    with rec.span("pass") as unit:
        fit = rec.call("fit.em_fit", cj.em_fit, ds, config=cfg)
        atoms = rec.call("fit.estep_atoms", cj.estep_atoms, ds, fit.theta_hat, cfg.Q)
        report = rec.call("variance.variance_report", cj.variance_report,
                          ds, fit.theta_hat, atoms, fit)
        lvcf = rec.call("baseline.partial_lik_fit", cj.partial_lik_fit, ds, beta_box=cfg.beta_box)
    run.units.append({"key": key, "traced": traced, "wall": unit["dur"], "replications": 1})
    run.ops.append({"key": key, "traced": traced, "estimate": rec.total({"fit.em_fit"}, mark),
                    "report": rec.total(REPORT_CALLS, mark),
                    "iterations": fit.iterations, "n": ds.n, "K": ds.n_events,
                    "lvcf_iterations": lvcf.iterations})
    # Later passes repeat the first on the same input, so they must reproduce
    # its outputs exactly; the first pass gets every check.
    if repeated(run, key, where, repr((fit.theta_hat, fit.iterations, fit.loglik_trace, report, lvcf))):
        return
    vs, vf = variance_split(rec, ds, fit.theta_hat, atoms)
    check_report(run, where, report, vs, vf)
    check_npml(run, where, ds, fit, atoms)
    if not lvcf.converged:
        run.fail(where, "LVCF fit not converged")
    check_reference(run, where, fit, vs, vf)


def repeated(run: Run, key: str, where: str, outcome: str) -> bool:
    """True when `key` ran in an earlier cycle; its outcome must then be the same."""
    if key not in run.first:
        run.first[key] = outcome
        return False
    if outcome != run.first[key]:
        run.fail(where, "same input, different output than in cycle 0")
    return True


def study_unit(run: Run, cycle: int, chunk: int, traced: bool) -> None:
    """run_study on one chunk of replications, then a replay of each replication.

    Every cycle runs the same chunks: cycle 0 checks them, later cycles must
    reproduce cycle 0's outputs exactly.
    """
    rec, wl, key = run.rec, run.workload, f"chunk {chunk}"
    where, check = f"cycle {cycle} {key}", key not in run.first
    config = StudyConfig(sim=wl.sim(master_seed(run.seed, chunk)), fit=FIT_CONFIG,
                         replications=wl.chunk, estimators=("npml", "lvcf"), workers=1)
    mark = len(rec.spans)
    report = rec.call("study.run_study", run_study, config)
    wall = rec.total({"study.run_study"}, mark)
    if check and report.invalid:
        run.fail(where, "study report is invalid")
    rows = {(r["rep"], r["estimator"]): r for r in report.replication_rows}
    replayed, outcomes = 0.0, [repr((report.invalid, report.replication_rows))]
    for rep in range(wl.chunk):
        dur, outcome = replay(run, config, rep, rows, traced, f"{key} rep {rep}", f"{where} rep {rep}",
                              check, reference=(chunk == 0 and rep == 0))
        replayed += dur
        outcomes.append(outcome)
    run.units.append({"key": key, "traced": traced, "wall": wall, "replications": wl.chunk,
                      "overhead": wall - replayed})
    repeated(run, key, where, "\n".join(outcomes))


def replay(run: Run, config: StudyConfig, rep: int, rows: dict, traced: bool, key: str, where: str,
           check: bool, reference: bool) -> tuple[float, str]:
    """study._run_one's calls for one replication, checked against run_study's rows.

    Returns the replay's duration, which run_study's own overhead is measured
    against, and its outputs, which later cycles must reproduce.
    """
    rec, cfg = run.rec, config.fit
    mark = len(rec.spans)
    with rec.span(REPLAY_SPAN) as span:
        sim = replace(config.sim, seed=derive_rep_seed(config.sim.seed, rep))
        ds, _ = rec.call("simulate.gen_dataset", cj.gen_dataset, sim)
        fit = rec.call("fit.em_fit", cj.em_fit, ds, config=cfg)
        th = fit.theta_hat
        atoms = rec.call("fit.estep_atoms", cj.estep_atoms, ds, th, cfg.Q)
        vs = rec.call("variance.var_beta_simple", cj.var_beta_simple, ds, th, atoms)
        rec.call("variance.ci", cj.ci, fit, vs, config.ci_level)
        op = rec.call("variance.build_sigma_hat", cj.build_sigma_hat, ds, th, atoms)
        vf = rec.call("variance.var_estimate", cj.var_estimate, op, th.hazard, beta_probe(op.K))
        rec.call("variance.ci", cj.ci, fit, vf, config.ci_level)
        lvcf = rec.call("baseline.partial_lik_fit", cj.partial_lik_fit, ds, beta_box=cfg.beta_box)
    report = rec.call("variance.variance_report", cj.variance_report, ds, th, atoms, fit)
    run.ops.append({"key": key, "traced": traced, "estimate": rec.total({"fit.em_fit"}, mark),
                    "report": rec.total(REPORT_CALLS, mark),
                    "iterations": fit.iterations, "n": ds.n, "K": ds.n_events,
                    "lvcf_iterations": lvcf.iterations})
    outcome = repr((th, fit.iterations, fit.loglik_trace, vs, vf, report, lvcf))
    if not check:
        return span["dur"], outcome
    check_report(run, where, report, vs, vf)
    check_npml(run, where, ds, fit, atoms)
    npml, base = rows[(rep, "npml")], rows[(rep, "lvcf")]
    got = (npml["error"], npml["beta_hat"], npml["se_simple"], npml["se_full"], npml["converged"])
    want = (None, th.beta, math.sqrt(vs / ds.n), math.sqrt(vf / ds.n), int(fit.converged))
    if got != want:
        run.fail(where, f"run_study NPML row {got} differs from the replay {want}")
    if (base["error"], base["beta_hat"], base["converged"]) != (None, lvcf.beta_pl, 1) or not lvcf.converged:
        run.fail(where, f"LVCF row {base} (replay beta {lvcf.beta_pl!r}, converged {lvcf.converged})")
    if reference:
        check_reference(run, where, fit, vs, vf)
    return span["dur"], outcome


def lvcf_study(run: Run) -> None:
    """A one-replication LVCF-only study at the fit workload's size, for the study layer."""
    rec, wl = run.rec, run.workload
    config = StudyConfig(sim=wl.sim(master_seed(run.seed, 0)), fit=FIT_CONFIG,
                         replications=1, estimators=("lvcf",), workers=1)
    mark = len(rec.spans)
    report = rec.call("study.run_study", run_study, config)
    wall = rec.total({"study.run_study"}, mark)
    with rec.span(REPLAY_SPAN) as span:
        sim = replace(config.sim, seed=derive_rep_seed(config.sim.seed, 0))
        ds, _ = rec.call("simulate.gen_dataset", cj.gen_dataset, sim)
        lvcf = rec.call("baseline.partial_lik_fit", cj.partial_lik_fit, ds, beta_box=FIT_CONFIG.beta_box)
    row = report.replication_rows[0]
    if report.invalid or (row["error"], row["beta_hat"], row["converged"]) != (None, lvcf.beta_pl, 1):
        run.fail("lvcf study", f"row {row} differs from the replay beta {lvcf.beta_pl!r}")
    run.units.append({"key": "lvcf study", "traced": False, "wall": wall, "replications": 0,
                      "overhead": wall - span["dur"], "study": True})


# --------------------------------------------------------------------------- host speed

def yardstick() -> float:
    """Seconds taken by fixed work that does not use coxjm or the seed.

    It mixes the kinds of work coxjm's time goes to: interpreted Python,
    numpy calls on small arrays, passes over an array larger than L2, and
    LAPACK.  The large array's passes run in place, so the yardstick adds a
    fixed 8 MiB to `peak_rss_mb` and no allocation peak of its own.
    """
    t = time.perf_counter()
    counts: dict[int, float] = {}
    for i in range(320_000):
        counts[i % 977] = counts.get(i % 977, 0.0) + i * 0.5
    for i in range(800):
        y = np.exp(_YARD_SMALL * (0.001 * i))
        float(np.log1p(np.abs(y @ _YARD_SMALL[0])).sum())
        float(y.max(axis=0).mean())
    for i in range(24):
        np.multiply(_YARD_LARGE, 0.001 * i, out=_YARD_BUF)
        np.exp(_YARD_BUF, out=_YARD_BUF)
        np.multiply(_YARD_BUF, _YARD_LARGE, out=_YARD_BUF)
        float(_YARD_BUF.sum(axis=0).max())
    for k in range(4):
        np.linalg.svd(_YARD_SQUARE * (1.0 + 0.01 * k), compute_uv=False)
        np.linalg.cond(_YARD_SQUARE[:200, :200])
    return time.perf_counter() - t


def time_yardstick(run: Run, busy: float) -> None:
    """Time the yardstick for about YARDSTICK_SHARE of `busy` seconds, at least once."""
    reps = 1
    if run.yardsticks:
        reps = max(1, round(YARDSTICK_SHARE * busy / mean(run.yardsticks)))
    for _ in range(reps):
        run.yardsticks.append(yardstick())


def host_scale(run: Run) -> float:
    return YARDSTICK_REF_S / mean(run.yardsticks)


# --------------------------------------------------------------------------- runs and results

def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, setup_reps: int) -> Run:
    """Set up, then a closed loop with one caller: cycles back to back until
    `seconds` have passed.

    A cycle runs every unit of the workload once (a fit pass, or each study
    chunk), so each cycle repeats the same computations on the same inputs.
    Every call gets a span (two clock reads).  With tracing, every second cycle
    also runs under tracemalloc, whose cost is large on Python-heavy code, so
    those cycles give the allocation peaks and the trace's own overhead while
    per-layer times come from the cycles without it.  The yardstick runs
    after set-up and between units, never under tracemalloc.
    """
    run = Run(wl, seed)
    try:
        ds = setup(run, setup_reps)
    except Exception:
        run.fail("setup", traceback.format_exc())
    time_yardstick(run, 0.0)
    t0 = time.perf_counter()
    cycle = 0
    while not run.problems:
        traced = trace and cycle % 2 == 1
        t_cycle = time.perf_counter()
        for chunk in range(wl.chunks):
            t_unit = time.perf_counter()
            try:
                with run.rec.traced(traced):
                    if wl.chunk:
                        study_unit(run, cycle, chunk, traced)
                    else:
                        fit_unit(run, cycle, ds, traced)
            except Exception:
                run.fail(f"cycle {cycle} unit {chunk}", traceback.format_exc())
                break
            time_yardstick(run, time.perf_counter() - t_unit)
        cycle += 1
        now = time.perf_counter()
        # start another cycle only if at least half of it fits in `seconds`
        if cycle >= (2 if trace else 1) and now - t0 + (now - t_cycle) / 2 >= seconds:
            break
    if trace and not wl.chunk and not run.problems:
        try:
            lvcf_study(run)
        except Exception:
            run.fail("lvcf study", traceback.format_exc())
    return run


def per_input(records: list[dict], value: str) -> dict[str, float]:
    """Each input's median over its untraced repeats: key -> median of `value`.

    Every cycle repeats the same computations on the same inputs, so the
    repeats of one input differ only by the load on the machine.
    """
    samples: dict[str, list[float]] = {}
    for r in records:
        if not r["traced"]:
            samples.setdefault(r["key"], []).append(r[value])
    return {k: median(v) for k, v in samples.items()}


def end_to_end(run: Run, scale: float) -> dict:
    """Timings are each input's median over the run's repeats, summed or
    averaged over inputs, times `scale`."""
    walls = per_input(run.units, "wall")
    replications = {u["key"]: u["replications"] for u in run.units}
    wall = sum(walls.values()) * scale
    return {
        "setup_s": median(run.setups) * scale,
        "wall_s": wall,
        "time_to_estimate_s": mean(per_input(run.ops, "estimate").values()) * scale,
        "time_to_report_s": mean(per_input(run.ops, "report").values()) * scale,
        "replications_per_s": sum(replications[k] for k in walls) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, scale: float) -> dict:
    """Times (times `scale`) from the units without tracemalloc, allocation
    peaks from those with it."""
    spans = run.rec.spans
    ops = [o for o in run.ops if not o["traced"]]
    units = [u for u in run.units if not u.get("study")]
    studies = [u for u in run.units if not u["traced"] and "overhead" in u]

    def dur(name):
        return median(s["dur"] for s in spans if s["name"] == name and not s["traced"]) * scale

    def peak(name):
        return max(s["peak_mib"] for s in spans if s["name"] == name and s["traced"])

    def wall(traced):
        return median(u["wall"] for u in units if u["traced"] == traced)

    return {
        "fit.em_fit_s": dur("fit.em_fit"),
        "fit.em_s_per_iter": median(o["estimate"] / o["iterations"] for o in ops) * scale,
        "fit.em_fit_peak_mb": peak("fit.em_fit"),
        "fit.em_iterations": median(o["iterations"] for o in ops),
        "fit.estep_atoms_s": dur("fit.estep_atoms"),
        "fit.observed_loglik_s": dur("fit.observed_loglik"),
        "fit.lambda_update_s": dur("fit.lambda_update"),
        "fit.score_full_s": dur("fit.score_full"),
        "transition.weighted_mle_alpha_s": dur("transition.weighted_mle_alpha"),
        "variance.build_sigma_hat_s": dur("variance.build_sigma_hat"),
        "variance.var_estimate_s": dur("variance.var_estimate"),
        "variance.var_beta_simple_s": dur("variance.var_beta_simple"),
        "variance.variance_report_s": dur("variance.variance_report"),
        "variance.report_peak_mb": peak("variance.variance_report"),
        "variance.K": median(o["K"] for o in ops),
        "simulate.gen_dataset_s": dur("simulate.gen_dataset"),
        "baseline.partial_lik_fit_s": dur("baseline.partial_lik_fit"),
        "baseline.iterations": median(o["lvcf_iterations"] for o in ops),
        "io.save_dataset_json_s": dur("io.save_dataset_json"),
        "io.load_dataset_json_s": dur("io.load_dataset_json"),
        "study.run_study_s": median(u["wall"] for u in studies) * scale,
        "study.overhead_s": median(u["overhead"] for u in studies) * scale,
        "trace.overhead_frac": wall(True) / wall(False) - 1.0,
        # n*K float64 cells times the seven dense arrays of the fit workspace
        "fit.dense_nk_mb_computed": median(o["n"] * o["K"] * 8 * 7 for o in ops) / MiB,
        "host.yardstick_s": mean(run.yardsticks),  # not scaled: the host's own speed
    }


def metrics_for(run: Run, trace: bool, spec: dict) -> dict:
    """The metrics BENCHMARK.json lists for this mode, with its units."""
    values = per_layer(run, host_scale(run)) if trace else end_to_end(run, host_scale(run))
    listed = spec["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"metric names drifted from BENCHMARK.json: {sorted(values)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def cache_sizes() -> dict:
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"l{level}"] = size
    return out


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    sha = None  # benchmark checkouts need not be git repositories
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "coxjm").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "cpu_cache": cache_sizes(),
    }


def report(run: Run, trace: bool, spec: dict, env: dict) -> bool:
    """Print the summary lines and, last, the result object; True when correct."""
    metrics = {}
    if not run.problems:
        try:
            metrics = metrics_for(run, trace, spec)
        except Exception:
            run.fail("metrics", traceback.format_exc())
    attempted, failed = max(len(run.ops), len(run.failed), 1), len(run.failed)
    for p in run.problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    repeats = [sum(not u["traced"] for u in run.units if u["key"] == k)
               for k in {u["key"] for u in run.units}]
    print(f"operations {attempted} failed {failed} failed_fraction {failed / attempted:.3g} "
          f"units {len(run.units)} setups {len(run.setups)} "
          f"untraced repeats per input {min(repeats, default=0)}-{max(repeats, default=0)}")
    if run.yardsticks:
        print(f"host yardstick mean {mean(run.yardsticks):.4g} s over {len(run.yardsticks)} "
              f"timings; reported times are raw times x {host_scale(run):.4g}")
    if trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans_{run.workload.name}_seed{run.seed}.jsonl"
        with open(path, "w") as f:
            f.write(json.dumps({"env": env}) + "\n")
            for s in run.rec.spans:
                f.write(json.dumps(s) + "\n")
        print(f"spans written to {path.relative_to(ROOT)}")
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return correct


def smoke(spec: dict, seed: int) -> bool:
    """Every workload once at a tiny size, traced and untraced, with every check."""
    ok = True
    for name, wl in SMOKE.items():
        t0 = time.perf_counter()
        run = run_workload(wl, seed, 0.0, True, 1)
        for p in run.problems:
            print(f"CHECK FAILED {p}", file=sys.stderr)
        if not run.problems:
            try:
                metrics_for(run, False, spec)
                metrics_for(run, True, spec)
            except Exception:
                run.fail("metrics", traceback.format_exc())
                print(f"CHECK FAILED {run.problems[-1]}", file=sys.stderr)
        ok = ok and not run.problems
        print(f"smoke {name} n={wl.n} {'ok' if not run.problems else 'FAILED'} "
              f"{time.perf_counter() - t0:.1f}s")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at a tiny size and exit")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return 0 if smoke(spec, args.seed) else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(env))
    # the tiny version of the workload first: warms lazy imports, fails fast
    run = run_workload(SMOKE[args.workload], args.seed, 0.0, False, 1)
    if not run.problems:
        run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), SETUP_REPS)
    return 0 if report(run, bool(args.trace), spec, env) else 1


if __name__ == "__main__":
    sys.exit(main())
