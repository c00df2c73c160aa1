import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import Subject, dataset_of, subjects_of

from coxjm import (
    FitConfig,
    MeasurementGrid,
    TransitionParams,
    ValidationError,
    em_fit,
    observed_loglik,
    partial_lik_fit,
)
from coxjm import io as cio
from coxjm.cli import main
from coxjm.simulate import SimConfig, SimTruth, fullinfo_dataset, gen_dataset

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
    assert repr(cio.dataset_to_dict(back)) == repr(cio.dataset_to_dict(dataset))
    # a second save is byte-identical
    p2 = tmp_path / "d2.json"
    cio.save_dataset_json(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def _odd_dataset():
    """Ids json must escape and floats at the edges of repr's forms, on a two-point grid."""
    grid = MeasurementGrid((0.0, 0.25))
    return dataset_of(grid, [
        Subject(id='a"b', x=5e-324, delta=1, measurements=(-0.0,)),
        Subject(id="é", x=1e-07, delta=0, measurements=(1e-07,)),
        Subject(id="x\ny", x=0.3, delta=1, measurements=(5e-324, 1.5e16)),
        Subject(id=-3, x=1.5e16, delta=0, measurements=(1.5e16, -0.0)),
        Subject(id=7, x=2.5, delta=1, measurements=(0.1, -0.2, 0.3)),  # full-information form
    ], 1.5e16)


@pytest.mark.parametrize("case", ["grid-0.25", "grid-0.02", "full-information", "odd", "empty"])
def test_dataset_json_is_the_json_module_layout(case, tmp_path):
    if case == "odd":
        ds = _odd_dataset()
    elif case == "empty":
        ds = dataset_of(MeasurementGrid((0.0, 0.5)), [], 1.0)
    else:
        step = 0.02 if case == "grid-0.02" else 0.25
        ds, truths = gen_dataset(SimConfig.from_dict(_sim_cfg_dict(n=40, seed=6, grid_step=step)))
        if case == "full-information":
            ds = fullinfo_dataset(ds, truths)
    p = tmp_path / "d.json"
    cio.save_dataset_json(ds, p)
    assert p.read_text() == json.dumps(cio.dataset_to_dict(ds), indent=1) + "\n"
    assert repr(cio.dataset_to_dict(cio.load_dataset_json(p))) == repr(cio.dataset_to_dict(ds))


def test_dataset_csv_round_trip(dataset, tmp_path):
    sp, mp = tmp_path / "subjects.csv", tmp_path / "measurements.csv"
    cio.save_dataset_csv(dataset, sp, mp)
    assert sp.read_text().splitlines()[0] == "id,x,delta"
    assert mp.read_text().splitlines()[0] == "id,measure_index,value"
    back = cio.load_dataset_csv(sp, mp, dataset.grid.times, dataset.tau)
    # ids come back as the type they were written with
    assert back == dataset
    named = dataset_of(dataset.grid, [replace(s, id=sid) for s, sid in
                                      zip(subjects_of(dataset)[:4], ("a7", "007", "-0", -3))], dataset.tau)
    cio.save_dataset_csv(named, sp, mp)
    assert cio.load_dataset_csv(sp, mp, named.grid.times, named.tau).ids == ("a7", "007", "-0", -3)


def test_truths_csv_round_trip(tmp_path):
    ds, truths = gen_dataset(SimConfig.from_dict(_sim_cfg_dict(seed=3)))
    p = tmp_path / "truths.csv"
    cio.save_truths_csv(truths, p)
    back = cio.load_truths_csv(p)
    assert back == truths and back.ids == ds.ids
    assert np.any(np.isinf(back.event_time))
    cio.save_truths_csv(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == p.read_bytes()


def test_truths_csv_layout(tmp_path):
    # one row per subject: its id, then each value's shortest round-trip repr
    truths = SimTruth(ids=(0, "a7"), latent_z=[0.1, -2.0], event_time=[math.inf, 1.5], censor_time=[3, 0.25])
    cio.save_truths_csv(truths, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == b"id,latent_z,T,C\r\n0,0.1,inf,3.0\r\na7,-2.0,1.5,0.25\r\n"
    assert cio.load_truths_csv(tmp_path / "t.csv") == truths
    # equality is exact, value by value
    assert truths != replace(truths, latent_z=[0.1, math.nextafter(-2.0, 0.0)])


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
    assert doc["quadrature"] == fit.quadrature.to_dict()
    assert doc["quadrature"]["order"] == 2 * FitConfig().Q
    assert doc["iterations"] == fit.iterations and doc["newton_steps"] == fit.newton_steps > 0


def test_cli_lvcf_fit_document(dataset, tmp_path):
    # the LVCF fit is written from the partial-likelihood fit itself, in the npml layout
    # with alpha null, and a theta cannot be read back from it
    cio.save_dataset_json(dataset, tmp_path / "d.json")
    assert main(["fit", "--data", str(tmp_path / "d.json"), "--method", "lvcf",
                 "--out", str(tmp_path / "lv")]) == 0
    text = (tmp_path / "lv" / "fit.json").read_text()
    doc = json.loads(text)
    bl = partial_lik_fit(dataset)
    assert doc == {
        "method": "lvcf-cox", "alpha": None, "beta": bl.beta_pl,
        "hazard": {"times": list(bl.breslow.times), "jumps": list(bl.breslow.jumps)},
        "loglik_trace": [bl.loglik], "loglik": bl.loglik, "converged": True,
        "score_norm": abs(bl.score) / dataset.n, "iterations": bl.iterations, "newton_steps": None,
        "n_subjects": dataset.n, "warnings": [], "quadrature": None,
    }
    assert list(doc) == list(cio.fit_to_dict(em_fit(dataset)))
    assert text == json.dumps(doc, indent=1) + "\n"
    with pytest.raises(ValidationError, match="lvcf-cox"):
        cio.theta_from_fit_dict(doc)


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
    assert fit_doc["converged"] and fit_doc["newton_steps"] > 0
    assert abs(var_doc["newton_beta_step"]) <= 1e-9 and abs(var_doc["newton_decrement"]) <= 1e-18

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


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_cli_simulate_refuses_a_bad_seed(seed, tmp_path, capsys):
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(_sim_cfg_dict(seed=seed)))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "seed must be" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["fit-config-key", "fit-config-removed-key", "study-sim-key", "subject-x",
                                  "subject-delta", "subject-measurements", "fit-config-value",
                                  "fit-config-var-floor", "invalid-json"])
def test_cli_malformed_document_exits_2_naming_the_key(case, dataset, tmp_path, capsys):
    data, doc = tmp_path / "d.json", tmp_path / "doc.json"
    cio.save_dataset_json(dataset, data)
    if case == "fit-config-key":
        doc.write_text(json.dumps({"max_iters": 5}))
        argv, named = ["fit", "--data", str(data), "--method", "npml", "--config", str(doc)], "max_iters"
    elif case == "fit-config-removed-key":
        # a key the fit config no longer has is refused, not ignored
        doc.write_text(json.dumps({"inner_cycles": 3}))
        argv, named = ["fit", "--data", str(data), "--method", "npml", "--config", str(doc)], "inner_cycles"
    elif case == "fit-config-value":
        # a fractional quadrature order is refused before the fit, naming the field
        doc.write_text(json.dumps({"Q": 20.5}))
        argv, named = ["fit", "--data", str(data), "--method", "npml", "--config", str(doc)], "Q must be an integer"
    elif case == "fit-config-var-floor":
        # a variance floor above the variance's box would put alpha outside its own box
        doc.write_text(json.dumps({"var_floor": 0.5, "alpha_box": {"ssq": [1e-8, 0.1]}}))
        argv = ["fit", "--data", str(data), "--method", "npml", "--config", str(doc)]
        named = "var_floor 0.5 exceeds alpha_box.ssq's upper bound 0.1"
    elif case == "study-sim-key":
        sim = _sim_cfg_dict()
        del sim["alpha0"]
        doc.write_text(json.dumps({"sim": sim, "replications": 2}))
        argv, named = ["mc-study", "--config", str(doc)], "alpha0"
    elif case == "subject-x":
        d = cio.dataset_to_dict(dataset)
        d["subjects"][3]["x"] = "abc"
        doc.write_text(json.dumps(d))
        argv, named = ["fit", "--data", str(doc), "--method", "lvcf"], "subject 3:"
    elif case == "subject-delta":
        # a delta that is not 0 or 1 is refused, not truncated to an event
        d = cio.dataset_to_dict(dataset)
        d["subjects"][3]["delta"] = 1.7
        doc.write_text(json.dumps(d))
        argv, named = ["fit", "--data", str(doc), "--method", "lvcf"], "subject 3: delta must be 0 or 1"
    elif case == "subject-measurements":
        d = cio.dataset_to_dict(dataset)
        d["subjects"][3]["measurements"] = 5
        doc.write_text(json.dumps(d))
        argv, named = ["fit", "--data", str(doc), "--method", "lvcf"], "subject 3: measurements must be a list"
    else:
        doc.write_text('{"n": 25,')
        argv, named = ["simulate", "--config", str(doc)], "doc.json"
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err


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
    # n = 200, seed 7: stopped after 4 updates the fit once stated `converged` as a
    # numpy.bool_, which json refused, so the command crashed with no fit.json
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps(_sim_cfg_dict(n=200, seed=7)))
    out = tmp_path / "sim_out"
    main(["simulate", "--config", str(cfg), "--out", str(out)])
    fcfg = tmp_path / "fit.json"
    for max_iter in (1, 4):
        fcfg.write_text(json.dumps({"max_iter": max_iter}))
        code = main(["fit", "--data", str(out / "dataset.json"), "--method", "npml",
                     "--config", str(fcfg), "--out", str(tmp_path / f"f{max_iter}")])
        assert code == 3
        # partial output still written, flagged not converged
        doc = json.loads((tmp_path / f"f{max_iter}" / "fit.json").read_text())
        assert doc["converged"] is False and doc["iterations"] == max_iter
