"""Experiment orchestration: configuration, the three learning paradigms,
evaluation and comparison reports.

The declarative config names 3 development and (optionally) external
validation sites, the feature budget, architecture widths and training
hyperparameters. Every random stream derives from the experiment seed,
so a full pipeline rerun reproduces each artifact byte for byte.
"""

from __future__ import annotations

import csv
import functools
import json
import zlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import metrics
from .cohort import (Cohort, FeatureSpec, GenerationReport, GroundTruthModel,
                     OUTCOME_NAMES, SiteConfig, _csv_field, atomic_open,
                     float_rows, generate_site, int_rows, make_ground_truth)
from .federation import (ALGORITHMS, RoundRecord, SiteWorker, TrainConfig,
                         TrainResult, run_federation_inprocess, run_rounds,
                         validation_auroc)
from .model import (ArchConfig, Batch, ModelParams, RiskNet, init_params,
                    local_train, predict)
from .preprocess import (FitError, Preprocessor, SplitError, chronological_split,
                         shared_scaler)


class ConfigError(ValueError):
    pass


@dataclass
class SiteEntry:
    config: SiteConfig
    role: str  # "development" | "external"

    def __post_init__(self):
        if self.role not in ("development", "external"):
            raise ConfigError(f"unknown site role {self.role!r}")


@dataclass
class ExperimentConfig:
    seed: int
    sites: list[SiteEntry]
    train: TrainConfig
    output_dir: str = "out"
    features: FeatureSpec = field(default_factory=FeatureSpec)
    embed_dim: int = 16
    branch_hidden: int = 32
    merge_hidden: int = 64
    signal_scale: float = 0.35
    algorithms: tuple[str, ...] = ("fedavg", "fedprox", "scaffold")
    n_boot: int = 1000
    fine_tune_epochs: int = 5
    fine_tune_embed_dim: int = 8
    host: str = "127.0.0.1"
    port: int = 9631

    def __post_init__(self):
        dev = {s.config.site_name for s in self.sites if s.role == "development"}
        ext = {s.config.site_name for s in self.sites if s.role == "external"}
        if dev & ext:
            raise ConfigError(f"sites in both roles: {sorted(dev & ext)}")
        if not dev:
            raise ConfigError("need at least one development site")
        names = [s.config.site_name for s in self.sites]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate site names")
        _checked("model architecture", lambda: self.arch)
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.n_boot < 0:
            raise ConfigError(f"evaluate: n_boot must be >= 0, got {self.n_boot}")
        if (isinstance(self.algorithms, str)
                or not set(self.algorithms) <= set(ALGORITHMS)
                or len(set(self.algorithms)) != len(self.algorithms)):
            raise ConfigError(f"algorithms: a list of {', '.join(ALGORITHMS)}, "
                              f"each at most once, got {self.algorithms!r}")

    @property
    def development_sites(self) -> list[str]:
        return sorted(s.config.site_name for s in self.sites
                      if s.role == "development")

    @property
    def external_sites(self) -> list[str]:
        return sorted(s.config.site_name for s in self.sites
                      if s.role == "external")

    def site(self, name: str) -> SiteEntry:
        for s in self.sites:
            if s.config.site_name == name:
                return s
        raise ConfigError(f"unknown site {name!r}")

    @property
    def arch(self) -> ArchConfig:
        return ArchConfig(
            n_continuous=self.features.n_continuous,
            n_binary=self.features.n_binary,
            high_card_specs=tuple((v, self.embed_dim)
                                  for v in self.features.hc_vocab_sizes),
            branch_hidden=self.branch_hidden,
            merge_hidden=self.merge_hidden,
            n_outcomes=len(OUTCOME_NAMES),
        )


# libyaml's parser when PyYAML was built with it: the same documents, parsed
# several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path) -> ExperimentConfig:
    """The config in YAML file ``path``; a file that is not valid YAML is a
    ConfigError naming it."""
    with open(path, "rb") as fh:
        try:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            if mark is not None and exc.problem:
                detail = (f"{exc.problem} at line {mark.line + 1}, "
                          f"column {mark.column + 1}")
            else:
                detail = " ".join(str(exc).split())  # on one line
            raise ConfigError(f"{path}: not valid YAML: {detail}") from exc
    return config_from_dict(doc)


# YAML section -> (prefix of its ExperimentConfig fields, its keys)
_SECTIONS = {"arch": ("", ("embed_dim", "branch_hidden", "merge_hidden")),
             "evaluate": ("", ("n_boot",)),
             "fine_tune": ("fine_tune_", ("epochs", "embed_dim")),
             "transport": ("", ("host", "port"))}
_TOP_LEVEL = ("seed", "output_dir", "signal_scale", "algorithms")


def _known(doc, allowed, where: str) -> dict:
    """``doc`` with its lists as tuples, once every key is in ``allowed``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _checked(where: str, make, *args, **kw):
    """``make(*args, **kw)``, with a value its checks reject reported as a
    ConfigError naming the section."""
    try:
        return make(*args, **kw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Defaults are those of the config dataclasses; every section, and the
    top level, rejects a key it does not know."""
    doc = _known(doc, {"features", "train", "sites", *_TOP_LEVEL, *_SECTIONS},
                 "the experiment config")
    try:
        kw = {k: doc[k] for k in _TOP_LEVEL if k in doc}
        kw["seed"] = _checked("seed", int, doc["seed"])
        for section, (prefix, keys) in _SECTIONS.items():
            sub = _known(doc.get(section, {}), keys, section)
            kw.update((prefix + k, v) for k, v in sub.items())
        features = _known(doc.get("features", {}), _field_names(FeatureSpec),
                          "features")
        # every stream's seed is the experiment seed, so train takes none
        train = _known(doc.get("train", {}), _field_names(TrainConfig) - {"seed"},
                       "train")
        site_keys = _field_names(SiteConfig) - {"site_name"} | {"name", "role"}
        sites = []
        for i, entry in enumerate(doc["sites"]):
            entry = _known(entry, site_keys, f"sites[{i}]")
            role = entry.pop("role", "development")
            entry["site_name"] = entry.pop("name")
            sites.append(SiteEntry(_checked(f"sites[{i}]", SiteConfig, **entry),
                                   role))
        return ExperimentConfig(
            features=FeatureSpec(**features),
            train=_checked("train", TrainConfig, seed=kw["seed"], **train),
            sites=sites, **kw)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed experiment config: {exc}") from exc


# --- data preparation -----------------------------------------------------

def ground_truth(cfg: ExperimentConfig) -> GroundTruthModel:
    return make_ground_truth(cfg.features, cfg.seed, cfg.signal_scale)


def generate_cohorts(cfg: ExperimentConfig
                     ) -> dict[str, tuple[Cohort, GenerationReport]]:
    truth = ground_truth(cfg)
    return {
        entry.config.site_name: generate_site(
            entry.config, cfg.features, truth, cfg.seed)
        for entry in cfg.sites
    }


@dataclass
class SiteData:
    name: str
    train: Cohort
    val: Cohort
    test: Cohort
    pp_local: Preprocessor
    pp_fed: Preprocessor | None = None


def site_data(cfg: ExperimentConfig, name: str, cohort: Cohort) -> SiteData:
    """Site ``name``'s chronological split and its one preprocessor fit,
    on the train part; ``pp_fed`` is left for ``prepare_sites``. A cohort
    whose feature widths are not the config's, or that cannot be split or
    fitted, is a ConfigError naming the site."""
    spec = cfg.features
    for kind, held, want in (
            ("continuous", cohort.continuous.shape[1], spec.n_continuous),
            ("binary", cohort.binary.shape[1], spec.n_binary),
            ("categorical", cohort.categorical.shape[1], len(spec.hc_vocab_sizes))):
        if held != want:
            raise ConfigError(f"site {name!r}: its cohort has {held} {kind} "
                              f"features where the config has {want}; "
                              "run `fedsurg generate` again")
    try:
        train, val, test = chronological_split(cohort)
        fit = Preprocessor(spec.hc_vocab_sizes,
                           cfg.site(name).config.surgeon_vocab_size).fit(train)
    except (SplitError, FitError) as exc:
        raise ConfigError(f"site {name!r}: {exc}") from exc
    return SiteData(name, train, val, test, fit)


def prepare_sites(cfg: ExperimentConfig, cohorts: dict[str, Cohort]
                  ) -> dict[str, SiteData]:
    """Split each site of ``cohorts`` (every development site, and any
    other) chronologically and fit its preprocessor once: ``pp_local`` is
    the fit, ``pp_fed`` that fit rescaled to the shared range of the
    development sites, as the federation protocol builds it."""
    sites = {n: site_data(cfg, n, c) for n, c in cohorts.items()}
    shared = shared_scaler([sites[n].pp_local.scaler_stats()
                            for n in cfg.development_sites])
    for sd in sites.values():
        sd.pp_fed = sd.pp_local.rescaled(*shared)
    return sites


def concat_batches(batches: list[Batch]) -> Batch:
    return Batch(
        continuous=np.concatenate([b.continuous for b in batches]),
        binary=np.concatenate([b.binary for b in batches]),
        high_card=np.concatenate([b.high_card for b in batches], axis=1),
        labels=np.concatenate([b.labels for b in batches]),
        surgeon=(np.concatenate([b.surgeon for b in batches])
                 if batches[0].surgeon is not None else None),
    )


def central_preprocessor(cfg: ExperimentConfig, sites: dict[str, SiteData]
                         ) -> Preprocessor:
    pooled = Cohort.concat("pooled", [sites[n].train
                                      for n in cfg.development_sites])
    max_surgeon = max(cfg.site(n).config.surgeon_vocab_size
                      for n in cfg.development_sites)
    return Preprocessor(cfg.features.hc_vocab_sizes, max_surgeon).fit(pooled)


# --- single-model training (local and central paradigms) ------------------

def _names_rng(seed: int, names: tuple[str, ...]) -> np.random.Generator:
    return np.random.default_rng(
        [seed] + [zlib.crc32(n.encode()) for n in sorted(names)])


class TrainingError(RuntimeError):
    pass


def train_single(arch: ArchConfig, train_fm: Batch, val_fm: Batch,
                 cfg: TrainConfig, names: tuple[str, ...]) -> TrainResult:
    """One epoch per round of ``run_rounds``, each scored on ``val_fm``.

    The RNG stream is keyed by (seed, participating site names), so
    central training on a single site is bit-identical to local training
    on that site. An epoch that ends with a parameter that is not finite
    is a TrainingError naming the sites.
    """
    rng = _names_rng(cfg.seed, names)
    label = "+".join(sorted(names))
    net = RiskNet(arch)

    def one_epoch(t: int, params: ModelParams):
        rep = local_train(params, net, train_fm, cfg, rng)
        if not all(np.isfinite(v).all() for v in rep.params.values()):
            raise TrainingError(f"training on {label} left parameters that "
                                f"are not finite after epoch {t}")
        val = validation_auroc(predict(rep.params, arch, val_fm), val_fm.labels)
        return rep.params, val, {label: rep.mean_loss}, rep.params

    return run_rounds(init_params(arch, cfg.seed), cfg, one_epoch)


# Each model is one unit: its transforms and training, which `train`
# submits to its pool; an in-process caller calls the unit directly.

def _quiet_float_errors(unit):
    """``unit`` with numpy's overflow and invalid-value warnings off: a
    step that overflows leaves parameters that are not finite, and the
    unit's finite check reports that as its one error."""
    @functools.wraps(unit)
    def quiet(*args):
        with np.errstate(over="ignore", invalid="ignore"):
            return unit(*args)
    return quiet


@_quiet_float_errors
def local_unit(cfg: ExperimentConfig, sd: SiteData) -> TrainResult:
    return train_single(cfg.arch, sd.pp_local.transform(sd.train),
                        sd.pp_local.transform(sd.val), cfg.train, (sd.name,))


@_quiet_float_errors
def central_unit(cfg: ExperimentConfig, sites: dict[str, SiteData]
                 ) -> tuple[TrainResult, Preprocessor]:
    """The central model and the pooled fit it was trained through."""
    pp = central_preprocessor(cfg, sites)
    names = tuple(cfg.development_sites)
    train_fm = concat_batches([pp.transform(sites[n].train) for n in names])
    val_fm = concat_batches([pp.transform(sites[n].val) for n in names])
    return train_single(cfg.arch, train_fm, val_fm, cfg.train, names), pp


@_quiet_float_errors
def federated_unit(cfg: ExperimentConfig, sites: dict[str, SiteData],
                   algo: str) -> TrainResult:
    workers = {name: site_worker(cfg, sites[name], algo)
               for name in cfg.development_sites}
    return run_federation_inprocess(cfg.arch, algo,
                                    federated_train_config(cfg, algo), workers)


# `train` reads its units' results from its ``units.UnitPool`` through
# these calls, which perfbench captures; hence the arguments left unread.

def run_local_paradigm(cfg: ExperimentConfig, sites: dict[str, SiteData],
                       pool) -> dict[str, TrainResult]:
    return {name: pool.result(f"local_{name}")
            for name in cfg.development_sites}


def run_central_paradigm(cfg: ExperimentConfig, sites: dict[str, SiteData],
                         pool) -> tuple[TrainResult, Preprocessor]:
    return pool.result("central")


def federated_train_config(cfg: ExperimentConfig, algo: str) -> TrainConfig:
    # The proximal term only applies to FedProx; other algorithms run mu=0.
    return cfg.train if algo == "fedprox" else replace(cfg.train, mu=0.0)


def site_worker(cfg: ExperimentConfig, sd: SiteData, algo: str) -> SiteWorker:
    """The federation client of development site ``sd``, with its fit."""
    return SiteWorker(sd.name, sd.train, sd.val, cfg.arch, algo,
                      federated_train_config(cfg, algo), sd.pp_local)


def run_federated_paradigm(cfg: ExperimentConfig, sites: dict[str, SiteData],
                           algo: str, pool) -> TrainResult:
    return pool.result(algo)


# --- evaluation -----------------------------------------------------------

def predict_unit(cfg: ExperimentConfig, sd: SiteData,
                 checkpoints: dict[str, ModelParams],
                 central_pp: Preprocessor | None
                 ) -> dict[str, tuple[np.ndarray, np.ndarray,
                                      np.ndarray, np.ndarray]]:
    """Each model's ``(probs, labels, val_probs, val_labels)`` on site
    ``sd``'s test and validation splits, by model name in sorted order.

    Each model scores through the preprocessor it was trained with,
    rebuilt from the cohorts as `train` fits it: the scored site's local
    fit for local models, ``central_pp`` (the pooled fit of the
    development sites) for central, the shared scaler for federated
    models. Each split is transformed once per preprocessor."""
    features = {}
    predictions = {}
    for model_name, params in sorted(checkpoints.items()):
        pp = (sd.pp_local if model_name.startswith("local_")
              else central_pp if model_name == "central" else sd.pp_fed)
        if pp not in features:
            features[pp] = (pp.transform(sd.test), pp.transform(sd.val))
        test_fm, val_fm = features[pp]
        predictions[model_name] = (predict(params, cfg.arch, test_fm),
                                   test_fm.labels,
                                   predict(params, cfg.arch, val_fm),
                                   val_fm.labels)
    return predictions


@dataclass
class EvalCell:
    model: str
    site: str
    outcome: str
    n_total: int
    n_positives: int
    threshold: float | None
    auroc: metrics.BootstrapResult
    auprc: metrics.BootstrapResult
    sensitivity: float | None = None
    specificity: float | None = None
    ppv: float | None = None
    npv: float | None = None

    def to_dict(self) -> dict:
        doc = {
            "model": self.model, "site": self.site, "outcome": self.outcome,
            "n_total": self.n_total, "n_positives": self.n_positives,
            "threshold": self.threshold,
            "sensitivity": self.sensitivity, "specificity": self.specificity,
            "ppv": self.ppv, "npv": self.npv,
        }
        for metric_name in ("auroc", "auprc"):
            r = getattr(self, metric_name)
            doc[metric_name] = {"point": r.point, "ci_low": r.ci_low,
                                "ci_high": r.ci_high, "n_skipped": r.n_skipped}
        return doc


def evaluate_scores(model: str, site: str, probs: np.ndarray,
                    labels: np.ndarray, val_probs: np.ndarray | None,
                    val_labels: np.ndarray | None, n_boot: int, seed: int,
                    scores_path: Path | None = None,
                    encounter_ids: np.ndarray | None = None,
                    pool=None) -> str | list[EvalCell]:
    """Submit this cell's ``score_unit`` to ``pool`` as ``<model>@<site>``
    and return that name; its result is the cell's ``EvalCell`` list.
    Without a pool, that list (perfbench's cell check calls it so)."""
    if pool is None:
        return score_unit(model, site, probs, labels, val_probs, val_labels,
                          n_boot, seed, scores_path, encounter_ids)
    name = f"{model}@{site}"
    pool.submit(name, score_unit, model, site, probs, labels, val_probs,
                val_labels, n_boot, seed, scores_path, encounter_ids)
    return name


def score_unit(model: str, site: str, probs: np.ndarray, labels: np.ndarray,
               val_probs: np.ndarray | None, val_labels: np.ndarray | None,
               n_boot: int, seed: int, scores_path: Path | None = None,
               encounter_ids: np.ndarray | None = None) -> list[EvalCell]:
    """Per-outcome metrics with bootstrap CIs, the eight bootstraps of
    the four outcomes in one ``metrics.bootstrap_cis`` call; threshold
    picked on the validation split (Youden) and applied to the test
    split. With ``scores_path``, the score file of ``encounter_ids`` is
    written once the cells are computed."""
    cell_seeds = [zlib.crc32(f"{model}|{site}|{outcome}".encode()) ^ seed
                  for outcome in OUTCOME_NAMES]
    boots = metrics.bootstrap_cis(
        [(probs[:, k], labels[:, k],
          ((metrics.auroc, cell_seed), (metrics.auprc, cell_seed + 1)))
         for k, cell_seed in enumerate(cell_seeds)], n_boot)
    cells = []
    for k, outcome in enumerate(OUTCOME_NAMES):
        y = labels[:, k]
        s = probs[:, k]
        n_pos = int(y.sum())
        if isinstance(boots[k], metrics.DegenerateLabelsError):
            nan = metrics.BootstrapResult(float("nan"), float("nan"), float("nan"))
            cells.append(EvalCell(model, site, outcome, len(y), n_pos, None,
                                  nan, nan))
            continue
        boot_auroc, boot_auprc = boots[k]
        threshold = None
        thr = None
        if val_probs is not None:
            try:
                threshold = metrics.pick_threshold(val_probs[:, k], val_labels[:, k])
                thr = metrics.confusion_at_threshold(s, y, threshold)
            except metrics.DegenerateLabelsError:
                pass
        cells.append(EvalCell(
            model, site, outcome, len(y), n_pos, threshold,
            boot_auroc, boot_auprc,
            sensitivity=thr.sensitivity if thr else None,
            specificity=thr.specificity if thr else None,
            ppv=thr.ppv if thr else None,
            npv=thr.npv if thr else None,
        ))
    if scores_path is not None:
        write_scores_csv(scores_path, encounter_ids, probs, labels)
    return cells


# --- artifact io ----------------------------------------------------------

def write_history_csv(path, history: list[RoundRecord]) -> None:
    """One row per round, through ``atomic_open``."""
    clients = sorted(history[0].train_loss) if history else []
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round"] + [f"val_auroc_{o}" for o in OUTCOME_NAMES]
                        + [f"train_loss_{c}" for c in clients])
        for rec in history:
            writer.writerow([rec.round] + [repr(v) for v in rec.val_auroc]
                            + [repr(rec.train_loss[c]) for c in clients])


def write_scores_csv(path, encounter_ids, probs: np.ndarray,
                     labels: np.ndarray) -> None:
    """One row per encounter: its id, ``repr`` of each score as a float64
    (NaN as ``nan``, through ``float_rows``) and ``str`` of each label as
    an int64, the text ``csv.writer`` writes for them with ``\\r\\n`` line
    ends. Written in one call, through ``atomic_open``."""
    header = ",".join(["encounter_id"]
                      + [f"score_{o}" for o in OUTCOME_NAMES]
                      + [f"label_{o}" for o in OUTCOME_NAMES])
    rows = map(",".join, zip(map(_csv_field, encounter_ids),
                             float_rows(probs, "nan"),
                             int_rows(labels)))
    with atomic_open(path, newline="") as fh:
        fh.write("\r\n".join([header, *rows, ""]))


def read_scores_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        ids, probs, labels = [], [], []
        for row in reader:
            ids.append(row[0])
            probs.append([float(v) for v in row[1:5]])
            labels.append([float(v) for v in row[5:9]])
    return ids, np.array(probs), np.array(labels)


def write_report(out_dir: Path, cells: list[EvalCell]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_open(out_dir / "report.json") as fh:
        json.dump([c.to_dict() for c in cells], fh, indent=1)
    with atomic_open(out_dir / "report.csv", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "site", "outcome", "n_total", "n_positives",
                         "auroc", "auroc_lo", "auroc_hi",
                         "auprc", "auprc_lo", "auprc_hi",
                         "threshold", "sensitivity", "specificity", "ppv", "npv"])
        for c in cells:
            writer.writerow([
                c.model, c.site, c.outcome, c.n_total, c.n_positives,
                c.auroc.point, c.auroc.ci_low, c.auroc.ci_high,
                c.auprc.point, c.auprc.ci_low, c.auprc.ci_high,
                c.threshold, c.sensitivity, c.specificity, c.ppv, c.npv])


def load_report(out_dir: Path) -> list[dict]:
    with open(Path(out_dir) / "report.json") as fh:
        return json.load(fh)
