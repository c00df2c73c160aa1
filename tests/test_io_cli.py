import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coxjm import Dataset, FitConfig, TransitionParams, em_fit, observed_loglik
from coxjm import io as cio
from coxjm.cli import main
from coxjm.simulate import SimConfig, fullinfo_dataset, gen_dataset

ALPHA0 = TransitionParams(0.0, 1.0, 0.0, 0.7, 0.25)


def _sim_cfg_dict(n=25, seed=0, **kw):
    d = {"n": n, "grid_step": 0.25, "tau": 3.0, "alpha0": ALPHA0.to_dict(),
         "beta0": 1.0, "lambda0": 0.3, "censor_rate": 0.2, "seed": seed,
         "truncate_at": None}
    d.update(kw)
    return d


@pytest.fixture()
def dataset():
    ds, _ = gen_dataset(SimConfig.from_dict(_sim_cfg_dict()))
    return ds


def test_dataset_json_round_trip_bit_exact(dataset, tmp_path):
    p = tmp_path / "d.json"
    cio.save_dataset_json(dataset, p)
    back = cio.load_dataset_json(p)
    assert back == dataset
    for a, b in zip(back.subjects, dataset.subjects):
        assert all(x == y for x, y in zip(a.measurements, b.measurements))
        assert a.x == b.x
    # a second save is byte-identical
    p2 = tmp_path / "d2.json"
    cio.save_dataset_json(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_dataset_csv_round_trip(dataset, tmp_path):
    sp, mp = tmp_path / "subjects.csv", tmp_path / "measurements.csv"
    cio.save_dataset_csv(dataset, sp, mp)
    assert sp.read_text().splitlines()[0] == "id,x,delta"
    assert mp.read_text().splitlines()[0] == "id,measure_index,value"
    back = cio.load_dataset_csv(sp, mp, dataset.grid.times, dataset.tau)
    assert [s.x for s in back.subjects] == [s.x for s in dataset.subjects]
    assert [s.measurements for s in back.subjects] == [s.measurements for s in dataset.subjects]
    # ids come back as the type they were written with
    assert back == dataset
    named = Dataset(grid=dataset.grid, tau=dataset.tau, subjects=tuple(
        replace(s, id=sid) for s, sid in zip(dataset.subjects[:4], ("a7", "007", "-0", -3))))
    cio.save_dataset_csv(named, sp, mp)
    assert [s.id for s in cio.load_dataset_csv(sp, mp, named.grid.times, named.tau).subjects] == [
        "a7", "007", "-0", -3]


def test_truths_csv_round_trip(tmp_path):
    ds, truths = gen_dataset(SimConfig.from_dict(_sim_cfg_dict(seed=3)))
    p = tmp_path / "truths.csv"
    cio.save_truths_csv(truths, p)
    back = cio.load_truths_csv(p)
    assert [t.subject_id for t in back] == [t.subject_id for t in truths]
    for a, b in zip(back, truths):
        assert a.latent_z == b.latent_z
        assert a.event_time == b.event_time or (math.isinf(a.event_time) and math.isinf(b.event_time))


def test_json_dataset_with_csv_truths(tmp_path):
    # the files `coxjm simulate` writes work together: the JSON dataset and the
    # CSV truths give the full-information dataset, which fits
    ds, truths = gen_dataset(SimConfig.from_dict(_sim_cfg_dict(seed=4)))
    cio.save_dataset_json(ds, tmp_path / "dataset.json")
    cio.save_truths_csv(truths, tmp_path / "truths.csv")
    full = fullinfo_dataset(cio.load_dataset_json(tmp_path / "dataset.json"),
                            cio.load_truths_csv(tmp_path / "truths.csv"))
    assert full == fullinfo_dataset(ds, truths)
    assert em_fit(full).converged


def test_fit_json_round_trip_loglik(dataset, tmp_path):
    fit = em_fit(dataset)
    p = tmp_path / "fit.json"
    cio.save_fit_json(fit, p)
    doc = cio.load_fit_json(p)
    theta = cio.theta_from_fit_dict(doc)
    assert observed_loglik(dataset, theta) == pytest.approx(doc["loglik"], abs=1e-10)
    assert doc["method"] == "npml"
    assert doc["converged"] is True


def test_cli_simulate_fit_round_trip(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(_sim_cfg_dict(seed=5)))
    out1 = tmp_path / "sim_out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert (out1 / "dataset.json").exists()
    assert (out1 / "truths.csv").exists()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 5

    # determinism: identical bytes on a second run
    out2 = tmp_path / "sim_out2"
    main(["simulate", "--config", str(cfg), "--out", str(out2)])
    assert (out1 / "dataset.json").read_bytes() == (out2 / "dataset.json").read_bytes()
    assert (out1 / "truths.csv").read_bytes() == (out2 / "truths.csv").read_bytes()

    fit_out = tmp_path / "fit_out"
    assert main(["fit", "--data", str(out1 / "dataset.json"), "--method", "npml",
                 "--out", str(fit_out)]) == 0
    fit_doc = json.loads((fit_out / "fit.json").read_text())
    assert fit_doc["method"] == "npml"
    var_doc = json.loads((fit_out / "variance.json").read_text())
    assert var_doc["var_beta_simple"] > 0

    lv_out = tmp_path / "lv_out"
    assert main(["fit", "--data", str(out1 / "dataset.json"), "--method", "lvcf",
                 "--out", str(lv_out)]) == 0
    assert json.loads((lv_out / "fit.json").read_text())["method"] == "lvcf-cox"

    # debug atom dump
    da_out = tmp_path / "da_out"
    assert main(["fit", "--data", str(out1 / "dataset.json"), "--method", "npml",
                 "--dump-atoms", "--out", str(da_out)]) == 0
    lines = (da_out / "atoms.csv").read_text().splitlines()
    assert lines[0] == "id,node,weight"
    assert len(lines) > 1


def test_cli_validation_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(_sim_cfg_dict(n=0)))
    assert main(["simulate", "--config", str(bad_cfg), "--out", str(tmp_path / "o")]) == 2

    bad_grid = tmp_path / "bad_grid.json"
    bad_grid.write_text(json.dumps(_sim_cfg_dict(tau=1.1)))
    assert main(["simulate", "--config", str(bad_grid), "--out", str(tmp_path / "o")]) == 2


def test_cli_io_exit_code(tmp_path):
    assert main(["fit", "--data", str(tmp_path / "missing.json"), "--method", "npml",
                 "--out", str(tmp_path / "o")]) == 4


def test_cli_lvcf_with_frozen_beta_is_usage_error(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(_sim_cfg_dict(seed=6)))
    out = tmp_path / "sim_out"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    fcfg = tmp_path / "fit.json"
    fcfg.write_text(json.dumps({"beta_box": 0.0}))
    code = main(["fit", "--data", str(out / "dataset.json"), "--method", "lvcf",
                 "--config", str(fcfg), "--out", str(tmp_path / "f")])
    assert code == 2


def test_cli_nonconvergence_exit_code(tmp_path):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(_sim_cfg_dict(seed=7)))
    out = tmp_path / "sim_out"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    fcfg = tmp_path / "fit.json"
    fcfg.write_text(json.dumps({"max_iter": 1}))
    code = main(["fit", "--data", str(out / "dataset.json"), "--method", "npml",
                 "--config", str(fcfg), "--out", str(tmp_path / "f")])
    assert code == 3
    # partial output still written, flagged not converged
    doc = json.loads((tmp_path / "f" / "fit.json").read_text())
    assert doc["converged"] is False
