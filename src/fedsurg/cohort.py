"""Deterministic synthetic multi-site cohort generator, held as columns.

A Cohort is one struct of arrays, row i of every field being encounter i;
a missing value is NaN in the continuous and -1 in the categorical matrix.

Each site draws features under its own covariate shift, labels come from
a shared latent linear model (plus a small per-site coefficient
perturbation and a per-surgeon effect), and per-outcome intercepts are
calibrated by bisection against a Monte-Carlo sample so empirical
prevalences hit their configured targets. The raw stream also contains
under-18, ESRD and surgery-free encounters so the exclusion pipeline has
work to do.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import math
import os
import zlib
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from itertools import islice
from pathlib import Path

import numpy as np
import orjson
from scipy.special import expit

OUTCOME_NAMES = ("icu", "mv", "aki", "mortality")
_EPOCH = datetime.date(1970, 1, 1)


class CalibrationError(RuntimeError):
    """Target prevalence unreachable within the intercept search bracket."""


# One row of a Cohort, as ``Cohort.records`` shows it: dates are days since
# the epoch, continuous holds nan and categorical None for a missing value,
# surgeries holds the index surgery alone and outcomes are icu, mv, aki,
# mortality as 0/1.
Surgery = namedtuple("Surgery", "procedure_code work_units surgery_date")
EncounterRecord = namedtuple(
    "EncounterRecord", "patient_id encounter_id admission_date age esrd "
    "surgeries surgeon_id continuous binary categorical outcomes")


@dataclass(eq=False)
class Cohort:
    site_name: str
    patient_id: np.ndarray       # str
    encounter_id: np.ndarray     # str
    admission_date: np.ndarray   # int64, days since epoch
    age: np.ndarray              # float64
    esrd: np.ndarray             # bool
    surgeon_id: np.ndarray       # int64
    procedure_code: np.ndarray   # int64, index surgery
    work_units: np.ndarray       # float64, index surgery
    surgery_date: np.ndarray     # int64, index surgery, days since epoch
    continuous: np.ndarray       # n x n_cont float64, nan for missing
    binary: np.ndarray           # n x n_bin int8
    categorical: np.ndarray      # n x n_cat int64, -1 for missing
    outcomes: np.ndarray         # n x 4 int8: icu, mv, aki, mortality

    def __len__(self):
        return len(self.patient_id)

    def take(self, idx) -> "Cohort":
        return Cohort(self.site_name, *(getattr(self, f)[idx] for f in _COLUMNS))

    @classmethod
    def concat(cls, site_name: str, parts: list["Cohort"]) -> "Cohort":
        return cls(site_name, *(np.concatenate([getattr(p, f) for p in parts])
                                for f in _COLUMNS))

    def prevalence(self) -> np.ndarray:
        if not len(self):
            return np.zeros(len(OUTCOME_NAMES))
        return self.outcomes.mean(axis=0)

    @property
    def records(self) -> tuple[EncounterRecord, ...]:
        """Row view of a copy of the columns, built on each access."""
        c = self.take(np.arange(len(self)))
        surgeries = [(Surgery(*s),) for s in zip(
            c.procedure_code.tolist(), c.work_units.tolist(),
            c.surgery_date.tolist())]
        cats = [tuple(None if v < 0 else v for v in row)
                for row in c.categorical.tolist()]
        return tuple(map(
            EncounterRecord, c.patient_id.tolist(), c.encounter_id.tolist(),
            c.admission_date.tolist(), c.age.tolist(), c.esrd.tolist(),
            surgeries, c.surgeon_id.tolist(), c.continuous, c.binary, cats,
            c.outcomes))


# the per-encounter fields of a Cohort, in CSV column order
_COLUMNS = tuple(f.name for f in fields(Cohort))[1:]


@dataclass(frozen=True)
class FeatureSpec:
    """Feature budget shared by every site in an experiment."""

    n_continuous: int = 60
    n_binary: int = 30
    hc_vocab_sizes: tuple[int, ...] = (120, 40, 12, 8, 10, 16, 6, 9, 24)


@dataclass
class GroundTruthModel:
    """Latent label mechanism shared by the federation."""

    coef: np.ndarray          # n_outcomes x (n_continuous + n_binary)
    binary_probs: np.ndarray  # marginal probability of each binary feature


def make_ground_truth(spec: FeatureSpec, seed: int, signal_scale: float = 0.35
                      ) -> GroundTruthModel:
    rng = np.random.default_rng([seed, 0xC0EF])
    n_feat = spec.n_continuous + spec.n_binary
    coef = rng.normal(0.0, signal_scale, size=(len(OUTCOME_NAMES), n_feat))
    binary_probs = rng.uniform(0.05, 0.5, size=spec.n_binary)
    return GroundTruthModel(coef=coef, binary_probs=binary_probs)


@dataclass
class SiteConfig:
    site_name: str
    n_patients: int
    target_prevalence: tuple[float, float, float, float]
    encounters_mean: float = 1.3
    covariate_shift: float = 0.5    # std of per-feature mean offsets
    scale_shift: float = 0.15       # std of per-feature log-scale offsets
    concept_shift: float = 0.08     # std of per-site coefficient perturbation
    surgeon_vocab_size: int = 50
    surgeon_effect: float = 0.3
    missing_rate: float = 0.05
    date_range: tuple[int, int] = (15340, 19480)  # 2012-01 .. 2023-04
    esrd_rate: float = 0.01
    no_surgery_rate: float = 0.02

    def __post_init__(self):
        if self.n_patients < 1:
            raise ValueError("n_patients must be >= 1")
        if not all(0.0 < p < 1.0 for p in self.target_prevalence):
            raise ValueError("target prevalences must lie in (0, 1)")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing rate must lie in [0, 1)")


@dataclass
class ExclusionReport:
    n_input: int
    n_under_18: int
    n_esrd: int
    n_no_surgery: int
    n_retained: int


@dataclass
class GenerationReport:
    intercepts: tuple[float, ...]
    exclusions: ExclusionReport


def _site_key(name: str) -> int:
    return zlib.crc32(name.encode())


@dataclass
class _SiteLatents:
    """Per-site distribution parameters, a pure function of the site name."""

    offsets: np.ndarray
    scales: np.ndarray
    coef: np.ndarray
    surgeon_effects: np.ndarray


def _site_latents(cfg: SiteConfig, spec: FeatureSpec,
                  truth: GroundTruthModel) -> _SiteLatents:
    srng = np.random.default_rng([_site_key(cfg.site_name), 0x517E])
    offsets = srng.normal(0.0, cfg.covariate_shift, spec.n_continuous)
    scales = np.exp(srng.normal(0.0, cfg.scale_shift, spec.n_continuous))
    coef = truth.coef + srng.normal(0.0, cfg.concept_shift, truth.coef.shape)
    surgeon_effects = srng.normal(0.0, cfg.surgeon_effect, cfg.surgeon_vocab_size)
    return _SiteLatents(offsets, scales, coef, surgeon_effects)


def _draw_features(n: int, cfg: SiteConfig, spec: FeatureSpec,
                   truth: GroundTruthModel, lat: _SiteLatents,
                   rng: np.random.Generator):
    cont = rng.normal(0.0, 1.0, (n, spec.n_continuous)) * lat.scales + lat.offsets
    binary = (rng.random((n, spec.n_binary)) < truth.binary_probs).astype(np.int8)
    surgeons = rng.integers(0, cfg.surgeon_vocab_size, size=n)
    return cont, binary, surgeons


def _scores(cont, binary, surgeons, lat: _SiteLatents) -> np.ndarray:
    x = np.concatenate([cont, binary.astype(np.float64)], axis=1)
    return x @ lat.coef.T + lat.surgeon_effects[surgeons][:, None]


# how often calibrate_intercept may double a bracket that misses the target
_BRACKET_DOUBLINGS = 6


def calibrate_intercept(target: float, scores: np.ndarray,
                        bracket: tuple[float, float] = (-20.0, 20.0)) -> float:
    """Bisect for the intercept b with mean(sigmoid(scores + b)) == target.

    ``scores`` is a Monte-Carlo sample from the site's score distribution;
    the mean is monotone in b, so bisection converges whenever the bracket
    straddles the target. A bracket that does not is doubled, at most
    ``_BRACKET_DOUBLINGS`` times, before giving up.
    """
    if not 0.0 < target < 1.0:
        raise CalibrationError(f"target {target} outside (0, 1)")

    def mean(b: float) -> float:
        return expit(scores + b).mean()

    lo, hi = bracket
    for _ in range(_BRACKET_DOUBLINGS + 1):
        if mean(lo) <= target <= mean(hi):
            break
        lo, hi = 2.0 * lo, 2.0 * hi
    else:
        raise CalibrationError(f"target prevalence {target} not bracketed by "
                               f"intercepts {bracket} doubled "
                               f"{_BRACKET_DOUBLINGS} times")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        # once mid equals the end it replaces, no later step changes anything
        if mean(mid) < target:
            lo, stalled = mid, mid == lo
        else:
            hi, stalled = mid, mid == hi
        if stalled:
            break
    return 0.5 * (lo + hi)


def select_index_surgeries(encounter: np.ndarray, procedure_code: np.ndarray,
                           work_units: np.ndarray, surgery_date: np.ndarray,
                           n_encounters: int) -> np.ndarray:
    """Per encounter, the position of its surgery with maximal work units
    (-1 for an encounter without surgeries).

    Ties break to the earliest surgery date, then the lowest procedure
    code, so selection is deterministic.
    """
    order = np.lexsort((procedure_code, surgery_date, -work_units, encounter))
    _, first_of_block = np.unique(encounter[order], return_index=True)
    first = order[first_of_block]
    chosen = np.full(n_encounters, -1, dtype=np.int64)
    chosen[encounter[first]] = first
    return chosen


def inject_missingness(cohort: Cohort, rate: float, seed: int) -> Cohort:
    """Blank each continuous/categorical value independently with ``rate``.

    Labels, demographics and the surgery record are never blanked. One
    uniform draw per cell, row by row: continuous cells, then categorical.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("missing rate must lie in [0, 1)")
    if rate == 0.0:
        return cohort
    rng = np.random.default_rng([seed, _site_key(cohort.site_name), 0x3355])
    n_cont = cohort.continuous.shape[1]
    blank = rng.random((len(cohort), n_cont + cohort.categorical.shape[1])) < rate
    return replace(
        cohort,
        continuous=np.where(blank[:, :n_cont], np.nan, cohort.continuous),
        categorical=np.where(blank[:, n_cont:], -1, cohort.categorical))


def generate_site(cfg: SiteConfig, spec: FeatureSpec, truth: GroundTruthModel,
                  seed: int, mc_samples: int = 200_000
                  ) -> tuple[Cohort, GenerationReport]:
    """Generate one site's post-exclusion cohort, deterministic in the seed."""
    rng = np.random.default_rng([seed, _site_key(cfg.site_name)])
    lat = _site_latents(cfg, spec, truth)

    # raw encounter stream with excludable records mixed in: one entry per
    # encounter (patient, visit number, admission, age draw, flags) and one
    # per surgery (encounter, code, work units, date), in draw order
    patient, visit, admission, age_draw, esrd, surgical = [], [], [], [], [], []
    s_enc, s_code, s_units, s_date = [], [], [], []
    lo, hi = cfg.date_range
    extra_encounters = max(cfg.encounters_mean - 1.0, 0.0)
    code_hi = spec.hc_vocab_sizes[0] - 1
    for p in range(cfg.n_patients):
        base = rng.normal(57.0, 18.0)
        n_enc = 1 + int(rng.poisson(extra_encounters))
        for e, adm in enumerate(np.sort(rng.integers(lo, hi, size=n_enc)).tolist()):
            has_surgery = not rng.random() < cfg.no_surgery_rate
            if has_surgery:
                for _ in range(1 + int(rng.poisson(0.5))):
                    s_enc.append(len(admission))
                    s_code.append(int(rng.integers(0, code_hi)))
                    s_units.append(rng.gamma(2.0, 10.0))
                    s_date.append(adm + int(rng.integers(0, 5)))
            patient.append(p)
            visit.append(e)
            admission.append(adm)
            age_draw.append(base)
            surgical.append(has_surgery)
            esrd.append(rng.random() < cfg.esrd_rate)

    age = np.round(np.clip(np.array(age_draw), 0.0, 100.0) + 0.1 * np.array(visit), 2)
    # exclusions, each encounter counted under the first rule that drops it
    adult, esrd, surgical = age >= 18.0, np.array(esrd), np.array(surgical)
    kept = adult & ~esrd & surgical
    excluded = ExclusionReport(
        len(age), int((~adult).sum()), int((adult & esrd).sum()),
        int((adult & ~esrd & ~surgical).sum()), int(kept.sum()))
    s_code = np.array(s_code, dtype=np.int64)
    s_units = np.round(np.array(s_units, dtype=np.float64), 3)
    s_date = np.array(s_date, dtype=np.int64)
    index = select_index_surgeries(np.array(s_enc, dtype=np.int64), s_code,
                                   s_units, s_date, len(admission))[kept]
    rows = np.flatnonzero(kept).tolist()
    pids = [f"{cfg.site_name}-p{patient[i]:07d}" for i in rows]
    n = len(rows)

    # features and labels for retained encounters
    cont, binary, surgeons = _draw_features(n, cfg, spec, truth, lat, rng)
    cont = np.round(cont, 6)
    scores = _scores(cont, binary, surgeons, lat)

    mc_rng = np.random.default_rng([seed, _site_key(cfg.site_name), 0xCA11])
    mc_cont, mc_bin, mc_surg = _draw_features(mc_samples, cfg, spec, truth, lat, mc_rng)
    mc_scores = _scores(mc_cont, mc_bin, mc_surg, lat)
    intercepts = np.array([
        calibrate_intercept(cfg.target_prevalence[k], mc_scores[:, k])
        for k in range(len(OUTCOME_NAMES))
    ])

    labels = (rng.random(scores.shape) < expit(scores + intercepts)).astype(np.int8)

    categorical = np.column_stack(
        [rng.integers(0, v - 1, size=n) for v in spec.hc_vocab_sizes])
    categorical[:, 0] = s_code[index]  # first code is the index surgery

    cohort = Cohort(
        site_name=cfg.site_name,
        patient_id=np.array(pids, dtype=str),
        encounter_id=np.array([f"{pid}-e{visit[i]}" for pid, i in zip(pids, rows)],
                              dtype=str),
        admission_date=np.array(admission, dtype=np.int64)[kept],
        age=age[kept],
        esrd=esrd[kept],
        surgeon_id=surgeons,
        procedure_code=s_code[index],
        work_units=s_units[index],
        surgery_date=s_date[index],
        continuous=cont,
        binary=binary,
        categorical=categorical,
        outcomes=labels,
    )
    cohort = inject_missingness(cohort, cfg.missing_rate, seed)
    report = GenerationReport(
        intercepts=tuple(float(b) for b in intercepts),
        exclusions=excluded,
    )
    return cohort, report


# --- CSV text -------------------------------------------------------------
#
# The writers format numbers a block at a time: orjson writes a whole numpy
# array in one call, and for a float64 it writes what repr writes, the
# shortest digit string that reads back as the same double, wherever both
# write it without an exponent.

@contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """``path`` opened for writing, through ``<path>.partial``, which is
    renamed into place only once everything is written: a write that
    fails, or a process killed mid-write, leaves no file cut short at
    ``path``. A failed write removes its ``.partial`` file; a killed
    process may leave it."""
    partial = Path(f"{path}.partial")
    try:
        with open(partial, mode, newline=newline) as fh:
            yield fh
        # ext4 starts writing a file back at once when it is renamed over
        # another; renamed into a free name, it stays in the page cache
        Path(path).unlink(missing_ok=True)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _csv_field(text: str) -> str:
    """``text`` as a field of ``csv.writer``'s default dialect: quoted, with
    its quotes doubled, when it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_text(block: np.ndarray) -> str:
    """orjson's text of the 2-D ``block``."""
    return orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode("ascii")


def _json_rows(text: str) -> list[str]:
    """The rows of ``_json_text``'s text of a block, each the text of its
    cells joined by commas."""
    return [] if text == "[]" else text[2:-2].split("],[")


def _block(values, dtype) -> np.ndarray:
    """``values`` as a C-contiguous 2-D array of ``dtype``; a 1-D array is
    one column."""
    block = np.ascontiguousarray(values, dtype=dtype)
    return block.reshape(-1, 1) if block.ndim == 1 else block


def int_rows(block) -> list[str]:
    """Each row of the integer ``block`` (a 1-D block is one column) as
    ``str`` of its values as int64, joined by commas."""
    return _json_rows(_json_text(_block(block, np.int64)))


def float_rows(block, nan_text: str) -> list[str]:
    """Each row of ``block`` as float64 (a 1-D block is one column) as
    ``repr`` of its values joined by commas, a NaN written as ``nan_text``.

    The rows are orjson's text of the block, NaN's ``null`` replaced. A row
    is rebuilt value by value where orjson's text may differ from repr's:
    when it holds an infinity (orjson writes ``null``), a zero or integral
    value, or a magnitude outside [1e-4, 1e16), where repr writes an
    exponent, or when orjson's text of it holds one.
    """
    block = _block(block, np.float64)
    nan = np.isnan(block)
    size = np.abs(block)
    plain = nan | ((size >= 1e-4) & (size < 1e16) & (np.floor(block) != block))
    rebuild = ~plain.all(axis=1)
    text = _json_text(block)
    if "e" in text:
        rebuild |= np.array(["e" in row for row in _json_rows(text)])
    if nan.any():
        text = text.replace("null", nan_text)
    rows = _json_rows(text)
    for i in np.flatnonzero(rebuild).tolist():
        rows[i] = ",".join([nan_text if math.isnan(v) else repr(v)
                            for v in block[i].tolist()])
    return rows


# --- CSV round trip -------------------------------------------------------
#
# cohort_to_csv writes the CSV, then ``<path>.columns``: a columnar copy of
# what parsing that CSV returns. It is a sequence of np.save records, the
# SHA-256 of the CSV's bytes first, then the columns in _COLUMNS order.
# cohort_from_csv returns the copy while its digest matches the CSV and
# every record is whole and well formed, and parses the CSV otherwise.

def _iso(days: int) -> str:
    return (_EPOCH + datetime.timedelta(days=int(days))).isoformat()

def _days(iso: str) -> int:
    return (datetime.date.fromisoformat(iso) - _EPOCH).days


_BASE_COLUMNS = list(_COLUMNS[:9])  # one CSV column each
# each column's dtype as the CSV parse returns it; "U" is str at the width
# of the column's longest value
_DTYPES = dict(patient_id="U", encounter_id="U", admission_date=np.int64,
               age=np.float64, esrd=bool, surgeon_id=np.int64,
               procedure_code=np.int64, work_units=np.float64,
               surgery_date=np.int64, continuous=np.float64, binary=np.int8,
               categorical=np.int64, outcomes=np.int8)
_DATES = ("admission_date", "surgery_date")
# what an empty cell reads as, in the blocks where a value may be missing
_EMPTY = {"continuous": "nan", "categorical": "-1"}


def _copy_path(path) -> str:
    return f"{os.fspath(path)}.columns"


def _block_widths(header: list[str]) -> list[int]:
    """Widths of the continuous, binary, categorical and outcome blocks."""
    widths = [sum(h.startswith(prefix) for h in header)
              for prefix in ("cont_", "bin_", "cat_")]
    return widths + [len(header) - len(_BASE_COLUMNS) - sum(widths)]


def _as_parsed(name: str, col: np.ndarray) -> np.ndarray:
    """``col`` as parsing the CSV that cohort_to_csv writes of it returns it."""
    dtype = _DTYPES[name]
    if dtype == "U":
        return np.array(col.tolist(), dtype=str)
    if name == "esrd":
        col = col.astype(np.int8)   # written as int8, so it wraps
    col = col.astype(dtype)
    if col.dtype.kind == "f":       # a NaN is written as "nan" or left empty
        col = np.where(np.isnan(col), np.nan, col)
    elif name == "categorical":     # a negative category is left empty
        col = np.where(col < 0, -1, col)
    return np.ascontiguousarray(col)


def cohort_to_csv(cohort: Cohort, path) -> None:
    """One row per encounter, as ``csv.writer`` writes it: ids quoted
    where it quotes them, dates in ISO form, ``repr`` of each float and
    ``str`` of each integer (``float_rows`` and ``int_rows``), an empty
    cell for a missing continuous value or category, labels as 0/1
    columns. The CSV and then its columnar copy are each written through
    ``atomic_open``, so a crash leaves no CSV cut short, and at worst a
    copy whose digest no longer matches."""
    n_cont, n_bin, n_cat = (cohort.continuous.shape[1], cohort.binary.shape[1],
                            cohort.categorical.shape[1])
    header = (_BASE_COLUMNS
              + [f"cont_{i:02d}" for i in range(n_cont)]
              + [f"bin_{i:02d}" for i in range(n_bin)]
              + [f"cat_{i}" for i in range(n_cat)]
              + list(OUTCOME_NAMES))
    days = np.concatenate([cohort.admission_date, cohort.surgery_date]).tolist()
    iso = {day: _iso(day) for day in set(days)}
    # every negative category reads -1, the only "-" in the block's text
    missing = cohort.categorical < 0
    categorical = int_rows(np.where(missing, -1, cohort.categorical))
    if missing.any():
        categorical = [row.replace("-1", "") for row in categorical]
    columns = [
        map(_csv_field, cohort.patient_id.tolist()),
        map(_csv_field, cohort.encounter_id.tolist()),
        [iso[day] for day in cohort.admission_date.tolist()],
        float_rows(cohort.age, "nan"),
        int_rows(np.column_stack([cohort.esrd.astype(np.int8),
                                  cohort.surgeon_id, cohort.procedure_code])),
        float_rows(cohort.work_units, "nan"),
        [iso[day] for day in cohort.surgery_date.tolist()],
        *(rows for rows, width in (
            (float_rows(cohort.continuous, ""), n_cont),
            (int_rows(cohort.binary), n_bin), (categorical, n_cat),
            (int_rows(cohort.outcomes), cohort.outcomes.shape[1])) if width)]
    data = "\r\n".join([",".join(header), *map(",".join, zip(*columns)), ""]
                        ).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(data)
    with atomic_open(_copy_path(path), "wb") as fh:
        np.save(fh, np.frombuffer(hashlib.sha256(data).digest(), dtype=np.uint8),
                allow_pickle=False)
        for name in _COLUMNS:
            np.save(fh, _as_parsed(name, getattr(cohort, name)), allow_pickle=False)


def _parse(cells: list[str], dtype, empty: str = "") -> np.ndarray:
    """CSV cells as one flat array, an empty cell read as ``empty``. numpy's
    C parser takes the integers; float() is the faster float parser."""
    cells = map({"": empty}.get, cells, cells)
    if np.dtype(dtype).kind == "f":
        return np.fromiter(map(float, cells), dtype=dtype)
    return np.fromstring(",".join(cells), dtype=np.int64, sep=",").astype(dtype)


def _cohort_from_rows(header: list[str], rows: list[list[str]]) -> Cohort:
    table = np.array(rows, dtype=object).reshape(len(rows), len(header))
    n = len(table)
    edges = [*range(len(_BASE_COLUMNS)), *np.cumsum(
        [len(_BASE_COLUMNS), *_block_widths(header)]).tolist()]

    def column(name, lo, hi):
        dtype = _DTYPES[name]
        if dtype == "U":
            return table[:, lo].astype(str)
        if name in _DATES:
            col = table[:, lo].tolist()
            days = {s: _days(s) for s in set(col)}
            return np.fromiter(map(days.__getitem__, col), dtype=dtype, count=n)
        block = _parse(table[:, lo:hi].ravel().tolist(), dtype,
                       _EMPTY.get(name, "")).reshape(n, hi - lo)
        return block if lo >= len(_BASE_COLUMNS) else block[:, 0]

    return Cohort("", *map(column, _COLUMNS, edges, edges[1:]))


# rows converted at a time: bounds the cell strings alive at once
_CSV_CHUNK = 256


def _parse_csv(path) -> Cohort:
    parts = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("an empty file, with no header row")
        while True:
            rows = list(islice(reader, _CSV_CHUNK))
            if any(len(row) != len(header) for row in rows):
                raise ValueError(f"a row without {len(header)} cells")
            parts.append(_cohort_from_rows(header, rows))
            if len(rows) < _CSV_CHUNK:
                break
    return Cohort.concat("", parts)


def _load_record(fh, size: int) -> np.ndarray:
    """The next np.save record of ``fh``, read only once its header is well
    formed and the file holds all the data that header declares."""
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not a version 1.0 .npy record")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    count = math.prod(shape)
    if (fortran_order or dtype.hasobject or min(shape, default=0) < 0
            or fh.tell() + count * dtype.itemsize > size):
        raise ValueError("not a C-ordered record held whole by the file")
    return np.fromfile(fh, dtype=dtype, count=count).reshape(shape)


def _read_copy(path, csv_bytes: bytes) -> list[np.ndarray] | None:
    """The columns of the copy at ``path`` when it was written with the CSV
    whose bytes are ``csv_bytes`` and holds what the parse would return;
    None when it is missing, stale, cut short or malformed."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            digest = _load_record(fh, size)
            if digest.tobytes() != hashlib.sha256(csv_bytes).digest():
                return None
            columns = [_load_record(fh, size) for _ in _COLUMNS]
            if fh.tell() != size:
                return None
    except (OSError, ValueError):
        return None
    # the header line, sliced without copying the rest of the CSV
    end = csv_bytes.find(b"\n")
    line = csv_bytes if end < 0 else csv_bytes[:end]
    header = next(csv.reader([line.decode("utf-8")]))
    for name, col in zip(_COLUMNS, columns):
        dtype = _DTYPES[name]
        if dtype == "U" and col.dtype.kind == "U":
            # as wide as the longest value, as the parse makes it; <U1 at least
            dtype = (np.str_, np.char.str_len(col).max(initial=1))
        if col.dtype != np.dtype(dtype) or col.ndim != (
                1 if name in _BASE_COLUMNS else 2):
            return None
    if (len({len(col) for col in columns}) != 1
            or [col.shape[1] for col in columns[len(_BASE_COLUMNS):]]
            != _block_widths(header)):
        return None
    return columns


def cohort_from_csv(path, site_name: str | None = None) -> Cohort:
    """The cohort in the CSV at ``path``: its columnar copy while that is
    current and well formed, else the parsed CSV. A CSV that does not
    parse raises ValueError."""
    with open(path, "rb") as fh:
        columns = _read_copy(_copy_path(path), fh.read())
    cohort = Cohort("", *columns) if columns is not None else _parse_csv(path)
    if site_name is None:
        site_name = cohort.patient_id[0].rsplit("-p", 1)[0] if len(cohort) else ""
    cohort.site_name = site_name
    return cohort
