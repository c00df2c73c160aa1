import json
import math
from dataclasses import replace

import numpy as np
import pytest

from coxjm import (
    AlphaBox,
    FitConfig,
    TransitionParams,
    ValidationError,
    build_sigma_hat,
    em_fit,
    estep_atoms,
    lambda_update,
    score_full,
    var_beta_simple,
    var_estimate,
    variance_report,
    weighted_mle_alpha,
)
from coxjm import fit as fit_mod
from coxjm import io as cio
from coxjm import variance as variance_mod
from coxjm.cli import main
from coxjm.simulate import SimConfig, gen_dataset
from coxjm.study import (
    REPORT_COLUMNS,
    StudyConfig,
    _run_one,
    config_hash,
    derive_rep_seed,
    load_report_csv,
    run_study,
    write_report_csv,
    write_report_json,
)
from coxjm.variance import beta_probe

ALPHA0 = TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25)


def _study(n=25, reps=3, seed=0, estimators=("npml", "lvcf")):
    sim = SimConfig(n=n, grid_step=0.25, tau=3.0, alpha0=ALPHA0, beta0=1.0,
                    lambda0=0.3, censor_rate=0.2, seed=seed)
    return StudyConfig(sim=sim, fit=FitConfig(), replications=reps, estimators=estimators)


def test_study_deterministic_csv(tmp_path):
    cfg = _study()
    r1 = run_study(cfg)
    r2 = run_study(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(r1, p1)
    write_report_csv(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    rows = load_report_csv(p1)
    assert {r["estimator"] for r in rows} == {"npml", "lvcf"}
    assert all(r["config_hash"] == config_hash(cfg) for r in rows)


def test_single_replication_equals_single_fit():
    cfg = _study(reps=1, estimators=("npml",))
    report = run_study(cfg)
    seed = derive_rep_seed(cfg.sim.seed, 0)
    ds, _ = gen_dataset(replace(cfg.sim, seed=seed))
    fit = em_fit(ds, config=cfg.fit)
    row = report.rows[0]
    assert row["mean_beta"] == pytest.approx(fit.theta_hat.beta, abs=1e-12)
    assert row["convergence_rate"] == 1.0
    assert math.isnan(row["emp_sd"])


def test_study_config_round_trip():
    cfg = _study()
    back = StudyConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert config_hash(back) == config_hash(cfg)


def test_mixed_hash_refused(tmp_path):
    cfg = _study()
    r = run_study(cfg)
    p = tmp_path / "r.csv"
    write_report_csv(r, p)
    lines = p.read_text().splitlines()
    tampered = lines + [lines[1].replace(config_hash(cfg), "deadbeefdeadbeef")]
    p2 = tmp_path / "bad.csv"
    p2.write_text("\n".join(tampered) + "\n")
    with pytest.raises(ValidationError):
        load_report_csv(p2)


def test_study_report_json(tmp_path):
    cfg = _study(reps=2, estimators=("npml",))
    r = run_study(cfg)
    p = tmp_path / "r.json"
    write_report_json(r, p)
    doc = json.loads(p.read_text())
    assert doc["config_hash"] == config_hash(cfg)
    assert len(doc["replications"]) == 2
    assert "wall_time_s" in doc


def test_workers_give_same_rows():
    # config_hash included: the worker count does not change what the study computes
    cfg = _study(reps=4, estimators=("npml",))
    assert run_study(cfg).rows == run_study(replace(cfg, workers=2)).rows


@pytest.mark.parametrize("field, value", [("replications", 2.5), ("workers", 1.5), ("replications", 0)])
def test_study_config_refuses_counts_it_cannot_honour(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        replace(_study(), **{field: value})


def test_cli_mc_study_and_compare(tmp_path, capsys):
    sim = _sim_dict = {
        "n": 20, "grid_step": 0.25, "tau": 3.0, "alpha0": ALPHA0.to_dict(),
        "beta0": 1.0, "lambda0": 0.3, "censor_rate": 0.2, "seed": 11, "truncate_at": None,
    }
    study = {"sim": sim, "replications": 2, "estimators": ["npml", "lvcf"],
             "ci_level": 0.95, "output_dir": None, "workers": 1}
    cfgp = tmp_path / "study.json"
    cfgp.write_text(json.dumps(study))
    out = tmp_path / "study_out"
    assert main(["mc-study", "--config", str(cfgp), "--out", str(out)]) == 0
    assert (out / "study_report.csv").exists()
    assert main(["compare", "--report", str(out / "study_report.csv"),
                 str(out / "study_report.csv")]) == 0
    text = capsys.readouterr().out
    assert "npml" in text and "lvcf" in text


@pytest.mark.parametrize("seed", range(4))
def test_study_rows_equal_public_calls(seed):
    # a replication takes both standard errors from the fit's own posterior; they are the
    # public calls' values on a fresh posterior at theta-hat, bit for bit
    cfg = _study(n=200, reps=1, seed=seed, estimators=("npml",))
    row = run_study(cfg).replication_rows[0]
    ds, _ = gen_dataset(replace(cfg.sim, seed=derive_rep_seed(seed, 0)))
    th = em_fit(ds, config=cfg.fit).theta_hat
    atoms = estep_atoms(ds, th, cfg.fit.Q)
    op = build_sigma_hat(ds, th, atoms)
    assert (row["error"], row["beta_hat"]) == (None, th.beta)
    assert row["se_simple"] == math.sqrt(var_beta_simple(ds, th, atoms) / ds.n)
    assert row["se_full"] == math.sqrt(var_estimate(op, th.hazard, beta_probe(op.K)) / ds.n)


def test_replication_builds_one_workspace_and_one_information(monkeypatch):
    # one workspace for the NPML fit, whose posterior carries it to both variances
    # through one operator build past those of the fit's Newton steps; the LVCF
    # comparator reads the same workspace, which the fit still holds
    from coxjm import study as study_mod

    counts = {"workspace": 0, "operator": 0}
    fits = []

    def recorded(*args, **kwargs):
        fits.append(fit_mod.em_fit(*args, **kwargs))
        return fits[-1]

    def counted(key, init):
        def init_and_count(self, *args, **kwargs):
            counts[key] += 1
            init(self, *args, **kwargs)
        return init_and_count

    monkeypatch.setattr(fit_mod._Workspace, "__init__", counted("workspace", fit_mod._Workspace.__init__))
    monkeypatch.setattr(variance_mod.DiscretizedOperator, "__init__",
                        counted("operator", variance_mod.DiscretizedOperator.__init__))
    monkeypatch.setattr(study_mod, "em_fit", recorded)
    rows = _run_one(_study(n=200, reps=1), 0)
    assert [(r["estimator"], r["error"]) for r in rows] == [("npml", None), ("lvcf", None)]
    assert fits[0].newton_steps > 0
    assert counts == {"workspace": 1, "operator": 1 + fits[0].newton_steps}


def test_posterior_of_another_dataset_refused(tmp_path):
    # a dataset with the same subjects, events and sizes but one measurement changed
    ds, _ = gen_dataset(_study(n=40).sim)
    fit = em_fit(ds)
    th, post = fit.theta_hat, fit.posterior
    other = replace(ds, values=ds.values + np.eye(1, ds.values.size)[0])
    calls = [lambda d: lambda_update(d, post, th.beta), lambda d: score_full(d, th, (None, 1.0, None), atoms=post),
             lambda d: weighted_mle_alpha(d, post),
             lambda d: var_beta_simple(d, th, post), lambda d: build_sigma_hat(d, th, post),
             lambda d: variance_report(d, th, post, fit)]
    for call in calls:
        with pytest.raises(ValidationError, match="different dataset"):
            call(other)
    # an equal dataset (here read back from JSON) is the same dataset
    cio.save_dataset_json(ds, tmp_path / "d.json")
    same = cio.load_dataset_json(tmp_path / "d.json")
    for call in calls:
        call(same)
    with pytest.raises(ValidationError, match="Posterior"):
        lambda_update(ds, [post], th.beta)


def test_study_rows_hold_the_active_components(tmp_path):
    # with a's lower bound active, se_full is the restricted report's; every row states its
    # updates, its undamped Newton steps (none for LVCF) and its warnings (LVCF: its flags),
    # in the JSON only
    cfg = replace(_study(n=200, reps=2), fit=FitConfig(alpha_box=AlphaBox(a=(0.05, 1.0))))
    report = run_study(cfg)
    for row in report.replication_rows:
        assert row["error"] is None and row["iterations"] >= 1
        if row["estimator"] == "lvcf":
            assert (row["newton_steps"], row["warnings"]) == (None, [])
            continue
        assert "held at a bound of the feasible set: a = 0.05" in row["warnings"]
        assert 1 <= row["newton_steps"] <= row["iterations"]
        ds, _ = gen_dataset(replace(cfg.sim, seed=row["seed"]))
        fit = em_fit(ds, config=cfg.fit)
        rep = variance_report(ds, fit.theta_hat, fit.posterior, fit)
        assert row["se_full"] == math.sqrt(rep["var_beta_full"] / ds.n)
    write_report_json(report, tmp_path / "r.json")
    write_report_csv(report, tmp_path / "r.csv")
    rows = json.loads((tmp_path / "r.json").read_text())["replications"]
    assert all({"iterations", "newton_steps", "warnings"} <= set(r) for r in rows)
    assert (tmp_path / "r.csv").read_text().splitlines()[0].split(",") == REPORT_COLUMNS
    assert all(r["warnings"] == [] for r in run_study(_study(n=200, reps=2)).replication_rows)


def test_study_se_full_is_nan_when_beta_is_held():
    # beta_box = 0 holds beta at 0: no full standard error, the closed form is kept
    cfg = replace(_study(n=200, reps=1, estimators=("npml",)), fit=FitConfig(beta_box=0.0))
    row = run_study(cfg).replication_rows[0]
    assert row["error"] is None and row["beta_hat"] == 0.0
    assert math.isnan(row["se_full"]) and row["cover_full"] is None
    assert math.isfinite(row["se_simple"])
