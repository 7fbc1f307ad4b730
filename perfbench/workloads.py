"""The three workloads: what one timed pass runs and how its outputs are
checked.

A pass goes through ``fedsurg.cli.main`` and the public module functions
it calls. ``capture`` wraps a few of those functions for the length of
one pass to keep the values the checks need (a generated cohort, a
training result's ``best_score``, the validation scores a threshold was
picked on); the wrappers only store references. ``check`` returns the
problems found per operation, and the units of work the pass carried.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks
from fedsurg import cli, cohort, experiment as exp
from fedsurg.cohort import OUTCOME_NAMES
from fedsurg.model import arch_fingerprint, load_checkpoint, predict

QUIET = ["--log-level", "WARNING"]


def cohort_columns(c) -> dict[str, np.ndarray]:
    """The cohort as one array per field; a missing category reads -1."""
    recs = c.records
    return {
        "patient_id": np.array([r.patient_id for r in recs]),
        "encounter_id": np.array([r.encounter_id for r in recs]),
        "admission_date": np.array([r.admission_date for r in recs], dtype=np.int64),
        "age": np.array([r.age for r in recs]),
        "esrd": np.array([r.esrd for r in recs]),
        "surgeon_id": np.array([r.surgeon_id for r in recs]),
        "n_surgeries": np.array([len(r.surgeries) for r in recs]),
        "surgeries": np.array([(s.procedure_code, s.work_units, s.surgery_date)
                               for r in recs for s in r.surgeries]),
        "continuous": np.stack([r.continuous for r in recs]),
        "binary": np.stack([r.binary for r in recs]),
        "categorical": np.array([[-1 if c is None else c for c in r.categorical]
                                 for r in recs]),
        "outcomes": np.stack([r.outcomes for r in recs]),
    }


def check_each(ops, check_op) -> dict[str, list[str]]:
    """Run ``check_op`` per operation; a check that raises fails its op."""
    outcome = {}
    for op in ops:
        try:
            outcome[op] = check_op(op)
        except Exception as exc:
            outcome[op] = [f"check raised {type(exc).__name__}: {exc}"]
    return outcome


class Workload:
    def __init__(self, config: Path):
        self.config = str(config)
        self.cfg = exp.load_config(config)
        self.out = Path(self.cfg.output_dir)
        self.seen: dict[str, list] = defaultdict(list)

    def capture(self, patcher) -> None:
        self.seen = defaultdict(list)
        for name in self.CAPTURED:
            patcher.wrap(exp, name, self._keeper(name))

    def _keeper(self, name):
        def make(fn):
            def kept(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.seen[name].append((args, result))
                return result
            return kept
        return make

    def cli(self, *argv) -> None:
        code = cli.main(QUIET + [argv[0], "--config", self.config, *argv[1:]])
        if code != 0:
            raise RuntimeError(f"fedsurg {argv[0]} exited with {code}")

    def check(self, error: str | None) -> tuple[dict[str, list[str]], int]:
        if error is not None:
            return {op: [error] for op in self.ops}, 0
        self.units = 0
        return check_each(self.ops, self.check_op), self.units


class CohortBuild(Workload):
    """generate, read the cohorts back, split/fit as train and evaluate do
    first, and transform every split with the local and shared scalers.
    One operation is one site."""

    CAPTURED = ("generate_cohorts",)

    def __init__(self, config):
        super().__init__(config)
        self.ops = [e.config.site_name for e in self.cfg.sites]

    def run_pass(self) -> None:
        self.cli("generate")
        # through the module, so that a traced pass sees the call
        self.read = {
            name: cohort.cohort_from_csv(self.out / "cohorts" / f"{name}.csv")
            for name in self.ops}
        self.sites = exp.prepare_sites(self.cfg, self.read)
        self.features = {
            name: [pp.transform(part) for pp in (sd.pp_local, sd.pp_fed)
                   for part in (sd.train, sd.val, sd.test)]
            for name, sd in self.sites.items()}

    def check_op(self, name: str) -> list[str]:
        (_, generated), = self.seen["generate_cohorts"]
        written = cohort_columns(generated[name][0])
        read = cohort_columns(self.read[name])
        sd = self.sites[name]
        problems = checks.check_roundtrip(written, read)
        problems += checks.check_split(
            read, tuple(cohort_columns(p) for p in (sd.train, sd.val, sd.test)))
        for batch in self.features[name]:
            problems += checks.check_features(batch.continuous, batch.high_card,
                                              self.cfg.features.hc_vocab_sizes)
        problems += checks.check_prevalence(
            read["outcomes"], self.cfg.site(name).config.target_prevalence)
        self.units += len(read["encounter_id"])
        return problems


def read_history(path: Path) -> list[tuple[float, ...]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    n = sum(1 for h in rows[0] if h.startswith("val_auroc_"))
    return [tuple(float(v) for v in row[1:1 + n]) for row in rows[1:]]


class TrainAll(Workload):
    """train --paradigm all on cohorts built in set-up. One operation is
    one trained model."""

    CAPTURED = ("prepare_sites", "run_local_paradigm", "run_central_paradigm",
                "run_federated_paradigm")

    def __init__(self, config):
        super().__init__(config)
        self.dev = self.cfg.development_sites
        self.ops = ([f"local_{s}" for s in self.dev] + ["central"]
                    + list(self.cfg.algorithms))

    def run_pass(self) -> None:
        self.cli("train", "--paradigm", "all")

    def _result(self, op: str):
        if op.startswith("local_"):
            (_, results), = self.seen["run_local_paradigm"]
            return results[op[len("local_"):]]
        if op == "central":
            (_, (result, _pp)), = self.seen["run_central_paradigm"]
            return result
        found = [r for args, r in self.seen["run_federated_paradigm"]
                 if args[2] == op]
        if len(found) != 1:
            raise LookupError(f"{len(found)} federated runs of {op}")
        return found[0]

    def _rescore(self, op: str, params: dict) -> tuple[float, ...]:
        """Validation AUROCs of the saved model, computed the way training
        scored it: local models on their site through its local scaler,
        the central model on the pooled validation rows, federated models
        per site at float32 (as the site received them) and then averaged
        over sites."""
        (_, sites), = self.seen["prepare_sites"]
        arch = self.cfg.arch
        if op.startswith("local_"):
            sd = sites[op[len("local_"):]]
            val = sd.pp_local.transform(sd.val)
            return checks.val_aurocs(predict(params, arch, val), val.labels)
        if op == "central":
            (_, (_result, pp)), = self.seen["run_central_paradigm"]
            val = exp.concat_batches([pp.transform(sites[n].val) for n in self.dev])
            return checks.val_aurocs(predict(params, arch, val), val.labels)
        at_f32 = {k: v.astype(np.float32).astype(np.float64)
                  for k, v in params.items()}
        per_site = []
        for n in self.dev:
            val = sites[n].pp_fed.transform(sites[n].val)
            per_site.append(checks.val_aurocs(predict(at_f32, arch, val), val.labels))
        return tuple(np.mean(per_site, axis=0))

    def check_op(self, op: str) -> list[str]:
        params, fingerprint = load_checkpoint(self.out / "checkpoints" / f"{op}.ckpt")
        problems = checks.check_params(params, fingerprint,
                                       arch_fingerprint(self.cfg.arch))
        history = read_history(self.out / "history" / f"{op}.csv")
        result = self._result(op)
        problems += checks.check_best(history, result.best_score, result.best_round)
        tol = checks.EXACT_TOL if op.startswith("local_") or op == "central" \
            else checks.F32_TOL
        problems += checks.check_rescore(history[result.best_round],
                                         self._rescore(op, params), tol)
        if op == "scaffold":
            problems += checks.check_control_gap(
                result.scaffold.server_control, result.scaffold.client_controls)
        (_, sites), = self.seen["prepare_sites"]
        names = [op[len("local_"):]] if op.startswith("local_") else self.dev
        rows = sum(len(sites[n].train) for n in names)
        self.units += rows * self.cfg.train.local_epochs * len(history)
        return problems


class EvaluateReport(Workload):
    """evaluate then compare on checkpoints trained in set-up. One
    operation is one model scored on one site."""

    CAPTURED = ("evaluate_scores",)

    def __init__(self, config):
        super().__init__(config)
        models = ([f"local_{s}" for s in self.cfg.development_sites]
                  + ["central"] + list(self.cfg.algorithms))
        sites = [e.config.site_name for e in self.cfg.sites]
        self.ops = [f"{m}@{s}" for m in models for s in sites]

    def run_pass(self) -> None:
        self.cli("evaluate")
        self.cli("compare")

    def check(self, error):
        if error is None:
            reports = self.out / "reports"
            try:
                report = json.loads((reports / "report.json").read_text())
                self.compare = json.loads((reports / "compare.json").read_text())
            except (OSError, ValueError) as exc:
                error = f"reading the reports: {type(exc).__name__}: {exc}"
            else:
                self.cells = {(c["model"], c["site"], c["outcome"]): c
                              for c in report}
                self.val = {(args[0], args[1]): (args[4], args[5])
                            for args, _ in self.seen["evaluate_scores"]}
        return super().check(error)

    def check_op(self, op: str) -> list[str]:
        model, site = op.split("@")
        _, scores, labels = exp.read_scores_csv(
            self.out / "scores" / f"{model}__{site}.csv")
        val_scores, val_labels = self.val[(model, site)]
        problems = []
        for k, outcome in enumerate(OUTCOME_NAMES):
            cell = self.cells[(model, site, outcome)]
            problems += checks.check_cell(cell, scores[:, k], labels[:, k],
                                          val_scores[:, k], val_labels[:, k])
            for name in ("auroc", "auprc"):
                if not np.isnan(cell[name]["point"]):
                    self.units += self.cfg.n_boot - cell[name]["n_skipped"]
        for entry in self.compare:
            if (entry["model_a"], entry["site"]) == (model, site):
                problems += checks.check_compare_entry(entry, self.cells)
        return problems


WORKLOAD_CLASSES = {
    "cohort-build": CohortBuild,
    "train-all": TrainAll,
    "evaluate-report": EvaluateReport,
}
