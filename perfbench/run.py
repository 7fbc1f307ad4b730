#!/usr/bin/env python3
"""Benchmark of the fedsurg study pipeline on three workloads.

    python3 perfbench/run.py --workload train-all --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The parent process writes the workload's
config (made from ``--seed``), times ``SETUPS`` set-ups, each in a fresh
interpreter, then runs the timed part in one more child process, so that
the child's peak RSS belongs to the timed part. No two children run at
once. The timed part repeats whole passes of the workload's CLI commands
until ``--seconds`` have gone by and at least ``MIN_PASSES`` have run, and
checks every pass's outputs with ``checks``. With ``--trace 1`` every
other pass runs with spans around the package's public functions
(``spans``) and the per-layer figures come from those passes; the set-ups
are traced too, and their cohort generation, CSV writing and training
figures are reported as ``setup.*``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUPS = 3
MIN_PASSES = 3
DEADLINE_S = 170.0
# set-up builds its cohorts with a tenth of generate_site's default
# Monte-Carlo calibration sample, so that three set-ups fit one run;
# cohort-build times the CLI's full-size generate
SETUP_MC_SAMPLES = 20_000

# BENCHMARK.json gates train-all and evaluate-report; cohort-build is run
# by hand (perfbench/README.md says why)
WORKLOADS = ("cohort-build", "train-all", "evaluate-report")

# the unit of work of ``items_per_s``, printed under its own name too
UNIT_NAMES = {
    "cohort-build": "encounters_per_s",
    "train-all": "train_samples_per_s",
    "evaluate-report": "resamples_per_s",
}

# Acceptance-config feature widths, architecture and the four prevalence
# profiles, with fewer patients, rounds and resamples. Sites keep the
# generator's default heterogeneity: under the acceptance config's shifts
# the intercept search cannot reach the rarest targets on about one seed
# in nine, and generate fails (see CHANGES.md).
SITES = (
    ("partner3", "development", (0.15, 0.06, 0.10, 0.02)),
    ("partner4", "development", (0.02, 0.01, 0.01, 0.001)),
    ("partner6", "development", (0.06, 0.02, 0.15, 0.01)),
    ("external", "external", (0.10, 0.04, 0.08, 0.015)),
)
N_PATIENTS = 1200
# evaluate-report trains in set-up only to have checkpoints to score, so
# one round of one epoch is enough; its bootstrap does the timed work
TRAIN = {
    "cohort-build": dict(rounds=3, local_epochs=2),
    "train-all": dict(rounds=3, local_epochs=2),
    "evaluate-report": dict(rounds=1, local_epochs=1),
}
N_BOOT = 10


def make_config(workload: str, seed: int, out_dir: Path) -> dict:
    train = TRAIN[workload]
    return {
        "seed": seed,
        "output_dir": str(out_dir),
        "features": {"n_continuous": 60, "n_binary": 30,
                     "hc_vocab_sizes": [120, 40, 12, 8, 10, 16, 6, 9, 24]},
        "arch": {"embed_dim": 16, "branch_hidden": 32, "merge_hidden": 64},
        "train": {"lr": 1.0, "local_epochs": train["local_epochs"],
                  "batch_size": 256, "rounds": train["rounds"],
                  "patience": train["rounds"], "mu": 0.01},
        "evaluate": {"n_boot": N_BOOT},
        "sites": [{"name": name, "role": role, "n_patients": N_PATIENTS,
                   "target_prevalence": list(prev)}
                  for name, role, prev in SITES],
    }


# --- parent -----------------------------------------------------------------

def run_child(role: str, args, log: Path, deadline: float) -> None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with open(log, "a") as fh:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        tail = log.read_text().splitlines()[-20:]
        raise RuntimeError(f"{role} child exited with {proc.returncode}:\n"
                           + "\n".join(tail))


def parent(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "fedsurg" / "__init__.py").is_file():
        print(f"error: no fedsurg package under {SRC}; run the benchmark from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data = work / "data"
    # JSON is YAML, so the parent needs nothing beyond the standard library
    (work / "config.yaml").write_text(
        json.dumps(make_config(args.workload, args.seed, data), indent=1))
    log = work / "children.log"
    setup_layers = work / "setup_layers.jsonl"

    setup_s = []
    try:
        for _ in range(SETUPS):
            shutil.rmtree(data, ignore_errors=True)
            start = time.perf_counter()
            run_child("setup", args, log, deadline)
            setup_s.append(time.perf_counter() - start)
        run_child("measure", args, log, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads((work / "result.json").read_text())
    if args.trace:
        # median per figure over the traced set-ups
        docs = [json.loads(line) for line in setup_layers.read_text().splitlines()]
        res["layers"].update({
            name: (statistics.median(d[name][0] for d in docs), docs[0][name][1])
            for name in docs[0]})

    walls = [p["wall"] for p in res["passes"] if not p["traced"]]
    units = [p["units"] for p in res["passes"] if not p["traced"]]
    items_per_s = statistics.median(u / w for u, w in zip(units, walls))
    m = res["machine"]
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"blas={m['blas']} blas_threads={m['blas_threads']}")
    print(f"workload {args.workload} seed {args.seed}: {SETUPS} set-ups, "
          f"{len(res['passes'])} passes ({sum(p['traced'] for p in res['passes'])} "
          f"traced), import {res['import_s']:.3f} s")
    print("pass wall s: " + " ".join(f"{w:.3f}" for w in walls))
    print(f"{UNIT_NAMES[args.workload]} = {items_per_s:.6g} 1/s "
          f"({units[0]} per pass)")
    for problem in res["problems"][:20]:
        print(f"problem: {problem}")
    print(f"operations: {res['attempted']} attempted, {res['failed']} failed")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


# --- children ---------------------------------------------------------------

def import_fedsurg() -> None:
    sys.path.insert(0, str(SRC))
    from fedsurg import cli  # noqa: F401  (imports every module on the CLI path)


# per-layer figures of one set-up, reported as setup.<name>
SETUP_LAYERS = {
    "generate_s": "cohort.generate_s",
    "calibrate_s": "cohort.calibrate_s",
    "to_csv_s": "cohort.to_csv_s",
    "train_s": "cli.train_s",
}


def child_setup(args) -> int:
    import_fedsurg()
    from fedsurg import cli, cohort, experiment as exp
    from spans import Patcher, Tracer, install, layer_metrics

    tracer, patcher = Tracer(), Patcher()
    if args.trace:
        install(tracer, patcher)
    start = time.perf_counter()
    try:
        code = build_inputs(args.workload, cli, cohort, exp)
    finally:
        patcher.restore()
    if args.trace:
        wall = time.perf_counter() - start
        layers = layer_metrics(tracer.spans, tracer.main_thread, 1, wall, wall)
        with open(OUT / args.workload / "setup_layers.jsonl", "a") as fh:
            fh.write(json.dumps({f"setup.{name}": layers[key]
                                 for name, key in SETUP_LAYERS.items()}) + "\n")
    return code


def build_inputs(workload: str, cli, cohort, exp) -> int:
    """What the timed part needs; module attributes are looked up at call
    time so that a traced set-up records them."""
    config = OUT / workload / "config.yaml"
    cfg = exp.load_config(config)
    if workload == "cohort-build":
        return 0          # needs nothing but its config: set-up is the import
    cohorts = Path(cfg.output_dir) / "cohorts"
    cohorts.mkdir(parents=True, exist_ok=True)
    truth = exp.ground_truth(cfg)
    for entry in cfg.sites:
        generated, _ = cohort.generate_site(entry.config, cfg.features, truth,
                                            cfg.seed, mc_samples=SETUP_MC_SAMPLES)
        cohort.cohort_to_csv(generated, cohorts / f"{entry.config.site_name}.csv")
    if workload == "evaluate-report":
        return cli.main(["--log-level", "WARNING", "train", "--config", str(config)])
    return 0


def machine_line() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = "unknown"
    try:
        import ctypes
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
        lib = ctypes.CDLL(libs[0])
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                threads = getattr(lib, name)()
                break
    except (OSError, IndexError):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')}-{blas.get('version')}",
            "blas_threads": threads}


def child_measure(args) -> int:
    start = time.perf_counter()
    import_fedsurg()
    import_s = time.perf_counter() - start
    import workloads
    from spans import Patcher, Tracer, install, layer_metrics

    config = OUT / args.workload / "config.yaml"
    workload = workloads.WORKLOAD_CLASSES[args.workload](config)
    tracer = Tracer()
    passes, problems = [], []
    attempted = failed = 0
    t0 = time.perf_counter()
    # With tracing, pass 0 warms up and is left out of the figures; the
    # rest alternate traced and untraced, two of each at least, so the
    # overhead compares passes run under the same conditions.
    min_passes = 5 if args.trace else MIN_PASSES
    while len(passes) < min_passes or time.perf_counter() - t0 < args.seconds:
        warmup = bool(args.trace) and not passes
        traced = bool(args.trace) and len(passes) % 2 == 1
        patcher = Patcher()
        workload.capture(patcher)
        if traced:
            install(tracer, patcher)
        error = None
        try:
            begin = time.perf_counter()
            workload.run_pass()
            wall = time.perf_counter() - begin
        except Exception as exc:  # counted: every operation of the pass fails
            error = f"{type(exc).__name__}: {exc}"
            wall = None
        finally:
            patcher.restore()
        outcome, units = workload.check(error)
        attempted += len(outcome)
        for op, found in outcome.items():
            if found:
                failed += 1
                problems += [f"pass {len(passes)} {op}: {p}" for p in found]
        passes.append({"wall": wall, "units": units, "traced": traced,
                       "warmup": warmup})

    good = [p for p in passes
            if not p["warmup"] and p["wall"] is not None and p["units"] > 0]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "passes": good,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_line(),
    }
    if args.trace:
        traced = [p["wall"] for p in good if p["traced"]]
        untraced = [p["wall"] for p in good if not p["traced"]]
        result["layers"] = layer_metrics(
            tracer.spans, tracer.main_thread, len(traced),
            statistics.median(traced), statistics.median(untraced))
    (OUT / args.workload / "result.json").write_text(json.dumps(result))
    return 0 if good else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.role == "setup":
        return child_setup(args)
    if args.role == "measure":
        return child_measure(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
