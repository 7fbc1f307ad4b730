"""Output checks of the benchmark workloads.

Each check either recomputes a result apart from fedsurg (pairwise-count
AUROC, tie-block average precision, Youden's J, confusion counts, the
SCAFFOLD control mean) or tests a property the method must have (a
lossless CSV round trip, a patient-disjoint chronological split, scaled
features in [0, 1], prevalence inside a binomial band). None compares
against a stored copy of earlier output. Every check returns a list of
problems, empty when the output is correct, and takes plain numbers,
arrays and dicts so that the tests can hand it a planted error.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom

EXACT_TOL = 1e-12
# val_auroc crosses the wire as a float32; an AUROC lies in [0, 1], so one
# rounding moves it by at most half a float32 epsilon
F32_TOL = float(np.finfo(np.float32).eps)
GAP_TOL = 1e-12
# two-sided tail of the binomial prevalence band; small enough that about
# one site-outcome in ten million is flagged on correct output
BAND_TAIL = 1e-7


# --- independent statistics -------------------------------------------------

def pairwise_auroc(scores, labels) -> float | None:
    """Share of (positive, negative) pairs ordered correctly, ties counted
    half, by counting pairs; None when one class is absent."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    pos = s[y]
    neg = np.sort(s[~y])
    if pos.size == 0 or neg.size == 0:
        return None
    below = np.searchsorted(neg, pos, side="left")
    upto = np.searchsorted(neg, pos, side="right")
    wins = int(below.sum())
    ties = int((upto - below).sum())
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def tie_block_ap(scores, labels) -> float | None:
    """Average precision with tied scores taken as one block; None without
    positives."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    n_pos = int(y.sum())
    if n_pos == 0:
        return None
    _, block = np.unique(-s, return_inverse=True)   # block 0 = highest score
    tp_block = np.bincount(block, weights=y)
    n_block = np.bincount(block)
    precision = np.cumsum(tp_block) / np.cumsum(n_block)
    return float(np.sum((tp_block / n_pos) * precision))


def confusion(scores, labels, threshold: float) -> dict:
    """Sensitivity, specificity, PPV and NPV for "positive iff score >=
    threshold"; PPV / NPV are None when nothing is predicted that way."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    pred = s >= threshold
    tp = int((pred & y).sum())
    fp = int((pred & ~y).sum())
    fn = int((~pred & y).sum())
    tn = int((~pred & ~y).sum())
    return {
        "sensitivity": tp / (tp + fn),
        "specificity": tn / (tn + fp),
        "ppv": tp / (tp + fp) if tp + fp else None,
        "npv": tn / (tn + fn) if tn + fn else None,
    }


def youden(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Every observed score as a threshold, with its Youden's J."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    thresholds = np.unique(s)
    pos = np.sort(s[y])
    neg = np.sort(s[~y])
    tp = pos.size - np.searchsorted(pos, thresholds, side="left")
    tn = np.searchsorted(neg, thresholds, side="left")
    return thresholds, tp / pos.size + tn / neg.size - 1.0


def single_class(labels) -> bool:
    y = np.asarray(labels).astype(bool)
    return bool(y.all() or not y.any())


def _differ(a, b, tol: float) -> bool:
    if a is None or b is None:
        return (a is None) != (b is None)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) != math.isnan(b)
    return abs(a - b) > tol


# --- cohort-build -----------------------------------------------------------

def check_roundtrip(written: dict, read: dict) -> list[str]:
    """Every column of the cohort read back equals the generated one."""
    problems = []
    if written.keys() != read.keys():
        return [f"columns differ: {sorted(written.keys() ^ read.keys())}"]
    for name in written:
        a, b = np.asarray(written[name]), np.asarray(read[name])
        same = a.shape == b.shape and (
            np.array_equal(a, b, equal_nan=True) if a.dtype.kind == "f"
            else np.array_equal(a, b))
        if not same:
            problems.append(f"column {name} changed in the CSV round trip")
    return problems


def check_split(cohort: dict, parts: tuple[dict, dict, dict]) -> list[str]:
    """Train/val/test partition the encounters, no patient spans two parts,
    and parts follow each other by (first admission date, patient id)."""
    problems = []
    ids = np.concatenate([p["encounter_id"] for p in parts])
    if len(ids) != len(cohort["encounter_id"]) or \
            set(ids.tolist()) != set(np.asarray(cohort["encounter_id"]).tolist()):
        problems.append("splits do not partition the cohort's encounters")
    keys = []
    for part, label in zip(parts, ("train", "val", "test")):
        if len(part["encounter_id"]) == 0:
            problems.append(f"{label} split is empty")
            keys.append({})
            continue
        first: dict[str, int] = {}
        for pid, day in zip(part["patient_id"].tolist(),
                            part["admission_date"].tolist()):
            first[pid] = min(day, first.get(pid, day))
        keys.append({pid: (day, pid) for pid, day in first.items()})
    for i in range(3):
        for j in range(i + 1, 3):
            if keys[i].keys() & keys[j].keys():
                problems.append(f"a patient is in splits {i} and {j}")
    for i in range(2):
        if keys[i] and keys[i + 1] and \
                max(keys[i].values()) >= min(keys[i + 1].values()):
            problems.append(f"split {i + 1} does not start after split {i}")
    return problems


def check_features(continuous, high_card, vocab_sizes) -> list[str]:
    """Scaled continuous values are finite and in [0, 1]; every category
    index lies in [0, vocabulary size)."""
    problems = []
    cont = np.asarray(continuous, dtype=np.float64)
    if not np.isfinite(cont).all():
        problems.append("non-finite continuous value")
    elif cont.size and (cont.min() < 0.0 or cont.max() > 1.0):
        problems.append("continuous value outside [0, 1]")
    if len(high_card) != len(vocab_sizes):
        problems.append("wrong number of categorical columns")
    for j, (col, vocab) in enumerate(zip(high_card, vocab_sizes)):
        col = np.asarray(col)
        if col.dtype.kind not in "iu":
            problems.append(f"categorical column {j} is not integer")
        elif col.size and (col.min() < 0 or col.max() >= vocab):
            problems.append(f"categorical column {j} index outside [0, {vocab})")
    return problems


def prevalence_band(n: int, target: float) -> tuple[int, int]:
    """Positive counts outside [lo, hi] have binomial probability below
    BAND_TAIL on each side."""
    return int(binom.ppf(BAND_TAIL, n, target)), int(binom.isf(BAND_TAIL, n, target))


def check_prevalence(outcomes, targets) -> list[str]:
    y = np.asarray(outcomes)
    problems = []
    for k, target in enumerate(targets):
        lo, hi = prevalence_band(len(y), target)
        pos = int(y[:, k].sum())
        if not lo <= pos <= hi:
            problems.append(f"outcome {k}: {pos} positives of {len(y)}, "
                            f"binomial band for {target} is [{lo}, {hi}]")
    return problems


# --- train-all --------------------------------------------------------------

def check_params(params: dict, fingerprint: str, expected: str) -> list[str]:
    problems = []
    if fingerprint != expected:
        problems.append(f"checkpoint fingerprint {fingerprint} != {expected}")
    if not params:
        problems.append("checkpoint holds no tensors")
    bad = [k for k, v in params.items() if not np.isfinite(v).all()]
    if bad:
        problems.append(f"non-finite parameters in {bad}")
    return problems


def check_best(history: list[tuple[float, ...]], best_score: float,
               best_round: int) -> list[str]:
    """best_score is the largest per-round mean of the history rows, and
    best_round the first round reaching it."""
    if not history:
        return ["empty history"]
    means = [float(np.mean(row)) for row in history]
    top = max(means)
    problems = []
    if _differ(best_score, top, EXACT_TOL):
        problems.append(f"best_score {best_score!r} != max mean_val {top!r}")
    if best_round != means.index(top):
        problems.append(f"best_round {best_round} != first best {means.index(top)}")
    return problems


def val_aurocs(probs, labels) -> tuple[float, ...]:
    """Per-outcome pairwise AUROC, 0.5 where validation is single-class
    (the rule training applies to its validation scores)."""
    out = []
    for k in range(np.asarray(labels).shape[1]):
        a = pairwise_auroc(probs[:, k], labels[:, k])
        out.append(0.5 if a is None else a)
    return tuple(out)


def check_rescore(history_row, rescored, tol: float) -> list[str]:
    if len(history_row) != len(rescored):
        return ["history row and rescore differ in length"]
    return [f"outcome {k}: history {h!r}, rescored {r!r}"
            for k, (h, r) in enumerate(zip(history_row, rescored))
            if _differ(h, r, tol)]


def control_gap(server: dict, clients: dict[str, dict]) -> float:
    """max |c - mean_i c_i| over all parameters."""
    gap = 0.0
    for k in server:
        mean = np.mean([c[k] for c in clients.values()], axis=0)
        gap = max(gap, float(np.abs(server[k] - mean).max()))
    return gap


def check_control_gap(server: dict, clients: dict[str, dict]) -> list[str]:
    gap = control_gap(server, clients)
    return [] if gap <= GAP_TOL else [f"SCAFFOLD control gap {gap!r} > {GAP_TOL}"]


# --- evaluate-report --------------------------------------------------------

def check_cell(cell: dict, scores, labels, val_scores, val_labels) -> list[str]:
    """One report cell against the test scores it was computed from and the
    validation scores its threshold was picked on."""
    problems = []
    y = np.asarray(labels)
    where = f"{cell['model']}/{cell['site']}/{cell['outcome']}"
    if cell["n_total"] != len(y) or cell["n_positives"] != int(y.sum()):
        problems.append(f"{where}: counts disagree with the scores file")
    degenerate = single_class(y)
    for name, recompute in (("auroc", pairwise_auroc), ("auprc", tie_block_ap)):
        r = cell[name]
        if math.isnan(r["point"]) != degenerate:
            problems.append(f"{where}: {name} is NaN iff test labels are "
                            f"single-class, but NaN={math.isnan(r['point'])}")
            continue
        if degenerate:
            continue
        ref = recompute(scores, y)
        if _differ(r["point"], ref, EXACT_TOL):
            problems.append(f"{where}: {name} {r['point']!r} != {ref!r}")
        if not 0.0 <= r["ci_low"] <= r["ci_high"] <= 1.0:
            problems.append(f"{where}: {name} CI [{r['ci_low']}, {r['ci_high']}]")
    if degenerate:
        return problems
    thr = cell["threshold"]
    if single_class(val_labels):
        if thr is not None:
            problems.append(f"{where}: threshold set on single-class validation")
        return problems
    if thr is None:
        return problems + [f"{where}: no threshold"]
    thresholds, j = youden(val_scores, val_labels)
    hit = np.flatnonzero(thresholds == thr)
    if hit.size == 0:
        problems.append(f"{where}: threshold {thr!r} is not a validation score")
    elif j[hit[0]] < j.max() - EXACT_TOL:
        problems.append(f"{where}: threshold J {j[hit[0]]!r} < max J {j.max()!r}")
    for name, ref in confusion(scores, y, thr).items():
        if _differ(cell[name], ref, EXACT_TOL):
            problems.append(f"{where}: {name} {cell[name]!r} != {ref!r}")
    return problems


def check_compare_entry(entry: dict, cells: dict) -> list[str]:
    """A compare.json delta is the difference of the two report points."""
    key_a = (entry["model_a"], entry["site"], entry["outcome"])
    key_b = (entry["model_b"], entry["site"], entry["outcome"])
    if key_a not in cells or key_b not in cells:
        return [f"compare entry {key_a} vs {key_b} has no report cell"]
    delta = cells[key_a]["auroc"]["point"] - cells[key_b]["auroc"]["point"]
    if _differ(entry["delta_auroc"], delta, EXACT_TOL):
        return [f"compare {key_a} vs {key_b}: delta {entry['delta_auroc']!r} "
                f"!= {delta!r}"]
    return []
