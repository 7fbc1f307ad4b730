"""Evaluation statistics: discrimination metrics, threshold metrics,
percentile-bootstrap confidence intervals, Mann-Whitney U and chi-square
tests with Bonferroni adjustment.

AUROC is rank-based (ties as half-concordant); AUPRC is average precision
with tied scores processed as one block (step integration, no trapezoids).

The kernels sort once and work on tie blocks (runs of equal sorted values;
each NaN is a block of its own) with cumulative sums, O(n log n) as in Sun
& Xu's rank AUROC (IEEE SPL 2014). Every float comes from the same IEEE
operations, in the same order, as a block-by-block loop: midranks are
``(first + last) / 2.0 + 1.0``, average precision is a left-to-right
``cumsum`` (never the pairwise ``np.sum``) and Youden's J uses exact
integer counts. Results are bit-identical to those loops.

The bootstrap of AUROC and AUPRC sorts the sample once and scores each
resample from how often it drew each element (the count form of the
nonparametric bootstrap, Efron & Tibshirani 1993), reduced over the
sample's tie blocks: exact integer rank sums for AUROC, and for average
precision the same per-block terms, in the same order, as scoring the
resample itself. Its intervals are bit-identical to resampling and
re-sorting.

Three shortcuts cut fixed costs per call and keep every bit:
``_percentiles`` writes numpy's linear percentile out over the sorted
values (numpy still takes a list with a NaN); each resample's RNG is
seeded from a uint32 array of (seed, index), the words
``default_rng([seed, index])`` derives below 2**32; and the Youden scan
of ``pick_threshold`` visits only the strict running maxima of J.
"""

from __future__ import annotations

import inspect
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, ndtr


class DegenerateLabelsError(ValueError):
    """Metric needs both classes (or at least one positive) present."""


def _block_ends(sorted_values: np.ndarray) -> np.ndarray:
    """Index of the last element of every tie block of a sorted array."""
    changes = sorted_values[1:] != sorted_values[:-1]
    return np.flatnonzero(np.append(changes, True))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values receiving their average rank."""
    order = np.argsort(values, kind="mergesort")
    ends = _block_ends(values[order])
    starts = np.concatenate(([0], ends + 1))[:-1]
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def auroc(scores, labels) -> float:
    """Concordant-pair fraction via rank sums, ties counted half."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("AUROC needs both classes")
    ranks = _midranks(s)
    u = ranks[y].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auprc(scores, labels) -> float:
    """Average precision over descending unique score thresholds."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise DegenerateLabelsError("AUPRC needs at least one positive")
    order = np.argsort(-s, kind="mergesort")
    ends = _block_ends(s[order])
    tp = np.cumsum(y[order])[ends]          # positives at or above each block
    block_tp = np.diff(tp, prepend=0)
    # blocks without a positive add exactly 0.0 to the running sum
    return float(np.cumsum((block_tp / n_pos) * (tp / (ends + 1)))[-1])


@dataclass(frozen=True)
class ThresholdMetrics:
    sensitivity: float
    specificity: float
    ppv: float | None  # None when the denominator is empty
    npv: float | None


def confusion_at_threshold(scores, labels, threshold: float) -> ThresholdMetrics:
    """Predict positive iff score >= threshold."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    pred = s >= threshold
    tp = int((pred & y).sum())
    fp = int((pred & ~y).sum())
    fn = int((~pred & y).sum())
    tn = int((~pred & ~y).sum())
    if tp + fn == 0 or tn + fp == 0:
        raise DegenerateLabelsError("confusion metrics need both classes")
    return ThresholdMetrics(
        sensitivity=tp / (tp + fn),
        specificity=tn / (tn + fp),
        ppv=tp / (tp + fp) if (tp + fp) else None,
        npv=tn / (tn + fn) if (tn + fn) else None,
    )


def pick_threshold(scores, labels) -> float:
    """Youden's J maximizer over observed scores; ties -> lowest threshold."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=bool)
    if y.all() or not y.any():
        raise DegenerateLabelsError("threshold selection needs both classes")
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    thresholds, inverse = np.unique(s, return_inverse=True)
    scored = ~np.isnan(s)                   # NaN is never >= a threshold
    pos = np.bincount(inverse[y & scored], minlength=len(thresholds))
    neg = np.bincount(inverse[~y & scored], minlength=len(thresholds))
    tp = np.cumsum(pos[::-1])[::-1]         # positives with s >= t
    fp = np.cumsum(neg[::-1])[::-1]
    return _first_best(thresholds, tp / n_pos + (n_neg - fp) / n_neg - 1.0)


def _first_best(thresholds: np.ndarray, j: np.ndarray) -> float | None:
    """The threshold a left-to-right scan keeps when it moves only to a J
    more than 1e-15 above the J it holds (``j`` holds no NaN).

    A J no larger than some J before it is at most the held J + 1e-15 by
    then, so the scan visits only the strict running maxima of ``j``.
    """
    peak = np.maximum.accumulate(j)
    rising = np.flatnonzero(np.concatenate(([True], peak[1:] > peak[:-1])))
    best_t, best_j = None, -np.inf
    for t, jt in zip(thresholds[rising].tolist(), j[rising].tolist()):
        if jt > best_j + 1e-15:
            best_t, best_j = t, jt
    return best_t


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    ci_low: float
    ci_high: float
    n_skipped: int = 0


def _auroc_by_counts(neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``auroc`` of each resample (row) from its negatives and positives
    drawn in each tie block (column, by ascending score)."""
    drawn = neg + pos
    before = np.cumsum(drawn, axis=1) - drawn
    n_pos = pos.sum(axis=1)
    n_neg = neg.sum(axis=1)
    # a block's midrank is before + (drawn + 1) / 2: twice the positives'
    # rank sum is an exact integer, as the float rank sum of ``auroc`` is
    rank_sum2 = (pos * (2 * before + drawn + 1)).sum(axis=1)
    u = rank_sum2 / 2.0 - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _auprc_by_counts(neg: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``auprc`` of each resample from the same per-block counts."""
    pos, drawn = pos[:, ::-1], (neg + pos)[:, ::-1]   # by descending score
    cum_pos = np.cumsum(pos, axis=1)
    # cum_drawn is 0 above the first block with a drawn row; read as 1 it
    # makes those blocks' terms 0 / n_pos * (0 / 1) = 0.0, not NaN
    cum_drawn = np.maximum(np.cumsum(drawn, axis=1), 1)
    n_pos = cum_pos[:, -1:]
    # blocks with no drawn positive add exactly 0.0 to the running sum
    return np.cumsum((pos / n_pos) * (cum_pos / cum_drawn), axis=1)[:, -1]


# metric -> (its score of resamples from per-block counts, whether a
# resample needs a negative as well as a positive)
_COUNTED = {auroc: (_auroc_by_counts, True), auprc: (_auprc_by_counts, False)}

# accepted resamples scored together by a counted metric draw at most this
# many elements in all, so memory stays flat whatever n and n_boot are
_DRAWS_PER_BATCH = 1 << 14


def _scored_per_resample(metric, s, y):
    """(usable, score) that call ``metric`` on every resample."""
    def usable(idx):
        try:
            return float(metric(s[idx], y[idx]))
        except DegenerateLabelsError:
            return None
    return usable, list


def _scored_by_counts(by_counts, needs_negative: bool, s, y):
    """(usable, score) of a counted metric. ``usable`` keeps a draw's
    element keys (2 * tie block + label) when its class counts are ones the
    metric accepts; ``score`` takes a batch of kept draws to their values."""
    tied, block = np.unique(s, return_inverse=True)
    n_blocks = len(tied)
    keys = 2 * block + y.astype(bool)

    def usable(idx):
        drawn = keys[idx]
        n_pos = np.count_nonzero(drawn & 1)
        ok = n_pos > 0 and (n_pos < len(drawn) or not needs_negative)
        return drawn if ok else None

    def score(batch):
        if not batch:
            return []
        rows = len(batch)
        # one bincount over the batch: row r counts into bins from 2·n_blocks·r
        drawn = np.stack(batch) + 2 * n_blocks * np.arange(rows)[:, None]
        counts = np.bincount(drawn.ravel(), minlength=rows * 2 * n_blocks
                             ).reshape(rows, n_blocks, 2)
        return by_counts(counts[..., 0], counts[..., 1]).tolist()

    return usable, score


def _percentiles(values: list[float], qs: list[float]) -> list[float]:
    """``np.percentile(values, qs)`` (linear method) as Python floats.

    Without NaN values or a percentile outside [0, 100], numpy's index,
    weight and two-sided interpolation (its ``_lerp``) are written out over
    the sorted list, the same IEEE operations in the same order, so each
    bit agrees; numpy's fixed cost per call is what this saves. A zero's
    sign can differ when the values hold both 0.0 and -0.0, which numpy's
    partition leaves in no set order.
    """
    if any(map(math.isnan, values)) or not all(0 <= q <= 100 for q in qs):
        return np.percentile(values, qs).tolist()
    ordered = sorted(values)
    last = len(ordered) - 1
    out = []
    for q in qs:
        virtual = last * (q / 100)
        lo = math.floor(virtual)
        if virtual >= last:
            # numpy's index past the end: the last value at both ends,
            # weighted by the virtual index less the index -1
            lo, t = last, virtual + 1
        else:
            t = virtual - lo
        a, b = ordered[lo], ordered[min(lo + 1, last)]
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


def _resample_rng(seed: int, i: int) -> np.random.Generator:
    """``default_rng([seed, i])``. Below 2**32 each int is one seed word, so
    a uint32 array gives the same stream without converting the list (a
    resample index ``i`` is always below 2**32)."""
    if 0 <= seed < 1 << 32:
        return np.random.default_rng(np.array((seed, i), dtype=np.uint32))
    return np.random.default_rng([seed, i])


def bootstrap_ci(scores, labels, metric, n_boot: int = 1000, alpha: float = 0.05,
                 seed: int = 0) -> BootstrapResult:
    """Percentile bootstrap over paired (score, label) resamples.

    Each resample draws its RNG from (seed, resample index) so results do
    not depend on execution order. Resamples on which the metric is
    degenerate are redrawn up to 10 times, then skipped (count reported).

    ``auroc`` and ``auprc`` (or a ``functools.wraps`` wrapper of them) score
    resamples from their draw counts over the sample's tie blocks, sorted
    once; ``metric`` itself computes only the point estimate. Any other
    metric, and any sample with a NaN score (its NaN copies rank in draw
    order, which counts do not record), is called on every resample.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    point = float(metric(s, y))
    n = len(s)
    counted = _COUNTED.get(inspect.unwrap(metric))
    if counted is None or np.isnan(s).any():
        usable, score = _scored_per_resample(metric, s, y)
    else:
        usable, score = _scored_by_counts(*counted, s, y)
    per_batch = max(1, _DRAWS_PER_BATCH // max(n, 1))
    values, batch = [], []
    skipped = 0
    for i in range(n_boot):
        rng = _resample_rng(seed, i)
        for _ in range(10):
            kept = usable(rng.integers(0, n, size=n))
            if kept is not None:
                batch.append(kept)
                break
        else:
            skipped += 1
        if len(batch) == per_batch:
            values += score(batch)
            batch = []
    values += score(batch)
    if not values:
        # n_boot == 0, or no resample was usable: no interval to report
        return BootstrapResult(point, math.nan, math.nan, skipped)
    lo, hi = _percentiles(values, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return BootstrapResult(point, lo, hi, skipped)


def _u_statistic(ranks_a: np.ndarray, n_a: int) -> float:
    return float(ranks_a.sum() - n_a * (n_a + 1) / 2.0)


# the largest exact case: two samples of 7
_MAX_EXACT_PERMUTATIONS = math.comb(14, 7)


def mann_whitney_u(a, b) -> tuple[float, float]:
    """U statistic (pairs where a exceeds b, ties half) and two-sided p.

    Exact permutation enumeration when there are at most C(14, 7) = 3,432
    ways to pick sample a from the pooled ranks; otherwise the normal
    approximation with tie-corrected variance and continuity correction.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both samples must be non-empty")
    n_a, n_b = len(a), len(b)
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    u = _u_statistic(ranks[:n_a], n_a)
    mean_u = n_a * n_b / 2.0

    if math.comb(n_a + n_b, n_a) <= _MAX_EXACT_PERMUTATIONS:
        observed = abs(u - mean_u)
        hits = total = 0
        for combo in itertools.combinations(range(n_a + n_b), n_a):
            u_perm = _u_statistic(ranks[list(combo)], n_a)
            total += 1
            if abs(u_perm - mean_u) >= observed - 1e-9:
                hits += 1
        return u, hits / total

    n = n_a + n_b
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts ** 3 - counts)).sum()) / (n * (n - 1))
    var_u = n_a * n_b / 12.0 * ((n + 1) - tie_term)
    if var_u <= 0:
        return u, 1.0
    z = (abs(u - mean_u) - 0.5) / math.sqrt(var_u)
    p = 2.0 * float(ndtr(-max(z, 0.0)))
    return u, min(1.0, p)


def chi_square(table) -> tuple[float, float]:
    """Pearson chi-square on an R x C contingency table."""
    obs = np.asarray(table, dtype=np.float64)
    if obs.ndim != 2 or obs.shape[0] < 2 or obs.shape[1] < 2:
        raise ValueError("table must be at least 2x2")
    row = obs.sum(axis=1)
    col = obs.sum(axis=0)
    if (row <= 0).any() or (col <= 0).any():
        raise ValueError("zero row or column margin")
    expected = np.outer(row, col) / obs.sum()
    stat = float(((obs - expected) ** 2 / expected).sum())
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    # survival function of chi-square = regularized upper incomplete gamma
    p = float(gammaincc(dof / 2.0, stat / 2.0))
    return stat, p


def bonferroni(p_values, m: int | None = None) -> list[float]:
    ps = list(p_values)
    m = len(ps) if m is None else m
    if any(p < 0 or p > 1 for p in ps):
        raise ValueError("p values must be in [0, 1]")
    return [min(1.0, p * m) for p in ps]

