"""Command-line interface.

Subcommands cover the full pipeline: cohort generation, training under
the local / central / federated paradigms, evaluation with bootstrap
confidence intervals, paradigm comparison, and the two socket-transport
roles (one coordinator and one process per participating site).

`train` runs each model, and `evaluate` each site's transforms and
predictions and then the statistics and score file of each (model, site)
cell, as a unit in long-lived forked worker processes, one per usable CPU;
the command's own process dispatches the units and writes the outputs.
The workers are forked at the first wait for a unit, so they inherit the
inputs of the units queued by then instead of unpickling them. Every
process gets one BLAS thread unless
``OPENBLAS_NUM_THREADS`` says otherwise (that is set before numpy loads),
and each worker caps its BLAS threads at its share of the CPUs whatever
that says.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import sys
from dataclasses import asdict
from pathlib import Path

# before the package's modules load numpy, and so OpenBLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import experiment as exp
from .cohort import OUTCOME_NAMES, cohort_from_csv, cohort_to_csv
from .federation import ALGORITHMS, FederationError, coordinate
from .model import load_checkpoint, param_shapes, save_checkpoint
from .units import UnitError, UnitPool, usable_cpus
from .wire import ChannelClosed, ProtocolError, connect_socket, serve_sockets

log = logging.getLogger("fedsurg")

MODEL_NAMES = ("central", *ALGORITHMS)


def _out(cfg: exp.ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    for sub in ("cohorts", "checkpoints", "history", "scores", "reports"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    return out


def _load_cohort(out: Path, name: str):
    path = out / "cohorts" / f"{name}.csv"
    if not path.exists():
        raise SystemExit(
            f"missing cohort file {path}; run `fedsurg generate` first")
    try:
        return cohort_from_csv(path)
    except ValueError as exc:
        raise SystemExit(f"unreadable cohort file {path}: {exc}; "
                         "run `fedsurg generate` again") from exc


def _load_cohorts(out: Path, names: list[str]):
    return {name: _load_cohort(out, name) for name in names}


def cmd_generate(cfg: exp.ExperimentConfig, args) -> int:
    out = _out(cfg)
    manifest = {"seed": cfg.seed, "sites": {}}
    for name, (cohort, report) in exp.generate_cohorts(cfg).items():
        cohort_to_csv(cohort, out / "cohorts" / f"{name}.csv")
        prev = cohort.prevalence()
        manifest["sites"][name] = {
            "role": cfg.site(name).role,
            "n_encounters": len(cohort),
            "prevalence": {o: prev[i] for i, o in enumerate(OUTCOME_NAMES)},
            "exclusions": asdict(report.exclusions),
            "intercepts": list(report.intercepts),
        }
        log.info("generated %s: %d encounters, prevalence %s",
                 name, len(cohort),
                 ", ".join(f"{o}={prev[i]:.3f}"
                           for i, o in enumerate(OUTCOME_NAMES)))
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
    print(f"wrote {len(manifest['sites'])} cohorts to {out / 'cohorts'}")
    return 0


def _save_single(out: Path, name: str, arch, result) -> None:
    save_checkpoint(out / "checkpoints" / f"{name}.ckpt",
                    result.best_params, arch)
    exp.write_history_csv(out / "history" / f"{name}.csv", result.history)
    log.info("%s: best round %d, mean val AUROC %.4f",
             name, result.best_round, result.best_score)


def cmd_train(cfg: exp.ExperimentConfig, args) -> int:
    out = _out(cfg)
    # no paradigm reads an external site
    sites = exp.prepare_sites(cfg, _load_cohorts(out, cfg.development_sites))
    paradigms = (("local", "central", "federated") if args.paradigm == "all"
                 else (args.paradigm,))
    algos = (() if "federated" not in paradigms
             else cfg.algorithms if args.algo == "all" else (args.algo,))
    results = {}
    # Every unit is submitted first, in the order the checkpoints are
    # written, so that the workers keep the CPUs busy; each paradigm then
    # waits for its own units. Nothing is written unless every unit succeeded.
    with UnitPool(usable_cpus()) as pool:
        if "local" in paradigms:
            for name in cfg.development_sites:
                pool.submit(f"local_{name}", exp.local_unit, cfg, sites[name])
        if "central" in paradigms:
            pool.submit("central", exp.central_unit, cfg, sites)
        for algo in algos:
            pool.submit(algo, exp.federated_unit, cfg, sites, algo)
        if "local" in paradigms:
            for name, result in exp.run_local_paradigm(cfg, sites).items():
                results[f"local_{name}"] = result
        if "central" in paradigms:
            results["central"], _ = exp.run_central_paradigm(cfg, sites)
        for algo in algos:
            results[algo] = exp.run_federated_paradigm(cfg, sites, algo)
    for name, result in results.items():
        _save_single(out, name, cfg.arch, result)
    log.info("trained %d models in worker processes, %d at once; "
             "largest worker peak RSS %.1f MB", len(results), pool.slots,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
    print(f"checkpoints written to {out / 'checkpoints'}")
    return 0


def _model_checkpoints(cfg: exp.ExperimentConfig, out: Path):
    found = {}
    names = [f"local_{n}" for n in cfg.development_sites] + list(MODEL_NAMES)
    for name in names:
        path = out / "checkpoints" / f"{name}.ckpt"
        if path.exists():
            try:
                found[name], _ = load_checkpoint(path, cfg.arch)
                if ({k: v.shape for k, v in found[name].items()}
                        != param_shapes(cfg.arch)):
                    raise ValueError(f"{path} does not hold the tensors of "
                                     "the config's architecture")
                # train writes no such file; its scores would all be NaN
                for tensor, value in found[name].items():
                    if not np.isfinite(value).all():
                        raise ValueError(f"{path}: tensor {tensor} holds a "
                                         "value that is not finite")
            except ValueError as exc:
                # every message names the file
                raise SystemExit(f"{exc}; run `fedsurg train` again") from exc
    if not found:
        raise SystemExit("no checkpoints found; run `fedsurg train` first")
    return found


def cmd_evaluate(cfg: exp.ExperimentConfig, args) -> int:
    out = _out(cfg)
    names = cfg.development_sites + cfg.external_sites
    sites = exp.prepare_sites(cfg, _load_cohorts(out, names))
    checkpoints = _model_checkpoints(cfg, out)
    central_pp = (exp.central_preprocessor(cfg, sites)
                  if "central" in checkpoints else None)
    units = []
    # The command only dispatches: each site's transforms and predictions
    # are one unit, `predict@<site>`, and each (model, site) cell is one
    # unit, submitted as soon as its site's probabilities are back, which
    # computes the cell's statistics and then writes its score file. The
    # prediction units are queued before the workers are forked, so the
    # workers inherit the sites and checkpoints rather than unpickle them.
    # The report is written once every cell has succeeded.
    with UnitPool(usable_cpus()) as pool:
        for site_name, sd in sorted(sites.items()):
            pool.submit(f"predict@{site_name}", exp.predict_unit, cfg, sd,
                        checkpoints, central_pp)
        for site_name, sd in sorted(sites.items()):
            predictions = pool.result(f"predict@{site_name}")
            for model_name, (probs, labels, val_probs,
                             val_labels) in predictions.items():
                unit = (model_name, site_name, probs, labels, val_probs,
                        val_labels, cfg.n_boot, cfg.seed,
                        out / "scores" / f"{model_name}__{site_name}.csv",
                        sd.test.encounter_id)
                pool.submit(f"{model_name}@{site_name}", exp.score_unit, *unit)
                units.append(unit)
        cells = {}
        for unit in units:
            cells[unit[:2]] = exp.evaluate_scores(*unit)
            log.info("evaluated %s on %s", *unit[:2])
    exp.write_report(out / "reports",
                     [c for key in sorted(cells) for c in cells[key]])
    print(f"report written to {out / 'reports' / 'report.json'}")
    return 0


def _cell_index(cells: list[dict]) -> dict:
    return {(c["model"], c["site"], c["outcome"]): c for c in cells}


def cmd_compare(cfg: exp.ExperimentConfig, args) -> int:
    out = Path(cfg.output_dir)
    report = out / "reports" / "report.json"
    if not report.exists():
        raise SystemExit(f"missing {report}; run `fedsurg evaluate` first")
    cells = _cell_index(exp.load_report(out / "reports"))
    models = sorted({m for m, _, _ in cells})
    verdicts = []

    def auroc(model, site, outcome):
        # a cell without a finite AUROC and CI (single-class test labels,
        # no usable resample) has no delta to report
        cell = cells.get((model, site, outcome))
        if cell is None or any(math.isnan(cell["auroc"][k])
                               for k in ("point", "ci_low", "ci_high")):
            return None
        return cell["auroc"]

    def overlap(a, b):
        return a["ci_low"] <= b["ci_high"] and b["ci_low"] <= a["ci_high"]

    local_models = [m for m in models if m.startswith("local_")]
    for site in cfg.development_sites + cfg.external_sites:
        for outcome in OUTCOME_NAMES:
            pairs = []
            if "scaffold" in models and "fedavg" in models:
                pairs.append(("scaffold", "fedavg"))
            if "scaffold" in models and "central" in models:
                pairs.append(("scaffold", "central"))
            foreign = [m for m in local_models if m != f"local_{site}"]
            for m in foreign:
                pairs.append(("scaffold", m))
            for a, b in pairs:
                ra, rb = auroc(a, site, outcome), auroc(b, site, outcome)
                if ra is None or rb is None:
                    continue
                verdicts.append({
                    "site": site, "outcome": outcome,
                    "model_a": a, "model_b": b,
                    "delta_auroc": ra["point"] - rb["point"],
                    "ci_overlap": overlap(ra, rb),
                })
    with exp.atomic_open(out / "reports" / "compare.json") as fh:
        json.dump(verdicts, fh, indent=1)
    for v in verdicts:
        mark = "~" if v["ci_overlap"] else ("+" if v["delta_auroc"] > 0 else "-")
        print(f"{mark} {v['site']:>12s} {v['outcome']:>9s} "
              f"{v['model_a']} vs {v['model_b']}: "
              f"dAUROC={v['delta_auroc']:+.4f}"
              f"{' (CIs overlap)' if v['ci_overlap'] else ''}")
    return 0


def cmd_serve_coordinator(cfg: exp.ExperimentConfig, args) -> int:
    out = _out(cfg)
    expected = cfg.development_sites
    log.info("coordinator listening on %s:%d for %d sites",
             cfg.host, cfg.port, len(expected))
    channels, _port = serve_sockets(cfg.host, cfg.port, len(expected))
    try:
        result = coordinate(cfg.arch, args.algo,
                            exp.federated_train_config(cfg, args.algo),
                            channels, expected)
    except FederationError as exc:
        # one line on stderr and exit code 1; no checkpoint is written
        raise SystemExit(f"federated run failed: {exc}") from exc
    finally:
        for chan in channels:
            chan.close()
    _save_single(out, f"{args.algo}_socket", cfg.arch, result)
    print(f"federated run complete: best round {result.best_round}, "
          f"mean val AUROC {result.best_score:.4f}")
    return 0


def cmd_serve_site(cfg: exp.ExperimentConfig, args) -> int:
    if args.site not in cfg.development_sites:
        raise SystemExit(f"{args.site!r} is not a development site")
    # a site reads only its own cohort, and fits it as `train` does
    sd = exp.site_data(cfg, args.site, _load_cohort(_out(cfg), args.site))
    worker = exp.site_worker(cfg, sd, args.algo)
    channel = connect_socket(cfg.host, cfg.port)
    try:
        worker.run(channel)
    finally:
        channel.close()
    log.info("site %s finished", args.site)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsurg",
        description="Federated surgical-complication risk modelling pipeline")
    parser.add_argument("--log-level", default="INFO",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"))
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment YAML")
        p.set_defaults(fn=fn)
        return p

    add("generate", cmd_generate, "synthesize per-site cohorts")
    p = add("train", cmd_train, "train models under one or all paradigms")
    p.add_argument("--paradigm", default="all",
                   choices=("local", "central", "federated", "all"))
    p.add_argument("--algo", default="all", choices=(*ALGORITHMS, "all"))
    add("evaluate", cmd_evaluate, "score checkpoints on every site's test split")
    add("compare", cmd_compare, "paradigm deltas from the evaluation report")
    p = add("serve-coordinator", cmd_serve_coordinator,
            "run the federation server over TCP")
    p.add_argument("--algo", default="fedavg", choices=ALGORITHMS)
    p = add("serve-site", cmd_serve_site, "run one site worker over TCP")
    p.add_argument("--site", required=True)
    p.add_argument("--algo", default="fedavg", choices=ALGORITHMS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        cfg = exp.load_config(args.config)
    except (OSError, exp.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.fn(cfg, args)
    except exp.ConfigError as exc:
        # a cohort on disk that does not fit the config
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnitError as exc:
        # a model that failed to train, or a cell that failed to score; no
        # checkpoint or history, or no report, is written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ChannelClosed, ProtocolError) as exc:
        # a socket peer that could not be reached, went away or sent a bad
        # frame (`serve-site`)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
