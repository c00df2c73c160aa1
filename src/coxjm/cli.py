"""Command-line entry point: simulate, fit, mc-study and compare.

Exit codes: 0 ok, 2 validation problem, 3 non-convergence or numerical
failure, 4 I/O problem.  COXJM_LOG controls log verbosity (DEBUG..ERROR).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import io as cio
from .baseline import partial_lik_fit
from .exceptions import CoxjmError, NonConvergenceError, ValidationError
from .fit import FitConfig, em_fit
from .simulate import SimConfig, gen_dataset
from .study import StudyConfig, config_hash, load_report_csv, run_study, write_report_csv, write_report_json
from .variance import variance_report

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4

log = logging.getLogger("coxjm")


def cmd_simulate(args) -> int:
    config = SimConfig.from_dict(cio.load_json(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset, truths = gen_dataset(config)
    cio.save_dataset_json(dataset, out / "dataset.json")
    cio.save_truths_csv(truths, out / "truths.csv")
    manifest = {
        "command": "simulate",
        "seed": config.seed,
        "config": config.to_dict(),
        "outputs": ["dataset.json", "truths.csv"],
    }
    cio.save_json(manifest, out / "manifest.json")
    log.info("wrote %s", out / "dataset.json")
    return EXIT_OK


def cmd_fit(args) -> int:
    dataset = cio.load_dataset_json(args.data)
    fit_cfg = FitConfig.from_dict(cio.load_json(args.config)) if args.config else FitConfig()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.method == "lvcf":
        if fit_cfg.beta_box == 0:
            raise ValidationError("beta frozen at 0 (beta_box=0) is not supported with method=lvcf")
        bl = partial_lik_fit(dataset, beta_box=fit_cfg.beta_box)
        cio.save_fit_json(cio.baseline_fit_to_dict(bl, dataset.n), out / "fit.json")
        if not bl.converged:
            raise NonConvergenceError("partial-likelihood fit did not converge")
        return EXIT_OK
    fit = em_fit(dataset, config=fit_cfg)
    cio.save_fit_json(fit, out / "fit.json")
    post = fit.posterior
    report = variance_report(dataset, fit.theta_hat, post, fit)
    cio.save_json(report, out / "variance.json")
    if args.dump_atoms:
        with open(out / "atoms.csv", "w") as f:
            f.write("id,node,weight\n")
            for i, sid in enumerate(post.ws.ids):
                q = 1 if post.ws.has_extra[i] else post.nodes.shape[1]  # a stored value is one atom
                for node, weight in zip(post.nodes[i, :q], post.weights[i, :q]):
                    f.write(f"{sid},{float(node)!r},{float(weight)!r}\n")
    if not fit.converged:
        raise NonConvergenceError(
            f"the fit did not converge in {fit.iterations} iterations ({fit.newton_steps} of them "
            f"Newton steps; score_norm={fit.score_norm:.3e})")
    return EXIT_OK


def cmd_mc_study(args) -> int:
    config = StudyConfig.from_dict(cio.load_json(args.config))
    out = Path(args.out) if args.out else Path(config.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    report = run_study(config)
    write_report_csv(report, out / "study_report.csv")
    write_report_json(report, out / "study_report.json")
    manifest = {
        "command": "mc-study",
        "config": config.to_dict(),
        "config_hash": config_hash(config),
        "outputs": ["study_report.csv", "study_report.json"],
        "invalid": report.invalid,
    }
    cio.save_json(manifest, out / "manifest.json")
    if report.invalid:
        raise NonConvergenceError("more than 10% of replications failed; study marked invalid")
    return EXIT_OK


def cmd_compare(args) -> int:
    paths = args.report
    reports = [load_report_csv(p) for p in paths]
    cols = ["estimator", "n", "mean_bias", "emp_sd", "rmse",
            "mean_se_simple", "mean_se_full", "coverage_simple", "coverage_full",
            "mean_sup_lambda_err", "convergence_rate", "config_hash"]
    widths = {c: max(len(c), 12) for c in cols}
    print(" | ".join(c.ljust(widths[c]) for c in cols))
    for path, rows in zip(paths, reports):
        print(f"-- {path}")
        for row in rows:
            cells = []
            for c in cols:
                v = row.get(c, "")
                try:
                    v = f"{float(v):.6g}"
                except (TypeError, ValueError):
                    v = str(v)
                cells.append(v.ljust(widths[c]))
            print(" | ".join(cells))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coxjm", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="generate a dataset from a simulation config")
    ps.add_argument("--config", required=True, help="SimConfig JSON file")
    ps.add_argument("--out", required=True, help="output directory")
    ps.set_defaults(func=cmd_simulate)

    pf = sub.add_parser("fit", help="fit one dataset")
    pf.add_argument("--data", required=True, help="dataset JSON file")
    pf.add_argument("--method", required=True, choices=["npml", "lvcf"])
    pf.add_argument("--config", help="FitConfig JSON file")
    pf.add_argument("--out", required=True, help="output directory")
    pf.add_argument("--dump-atoms", action="store_true",
                    help="also write per-subject posterior atoms as CSV (npml only)")
    pf.set_defaults(func=cmd_fit)

    pm = sub.add_parser("mc-study", help="run a Monte Carlo study")
    pm.add_argument("--config", required=True, help="StudyConfig JSON file")
    pm.add_argument("--out", help="output directory (defaults to config output_dir)")
    pm.set_defaults(func=cmd_mc_study)

    pc = sub.add_parser("compare", help="print study reports side by side")
    pc.add_argument("--report", nargs="+", required=True, help="report CSV files")
    pc.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("COXJM_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        log.error("validation: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NonConvergenceError, CoxjmError) as exc:
        log.error("fit: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        log.error("io: %s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
