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

The bootstrap of AUROC and AUPRC numbers the sample's tie blocks once and
scores each resample from how often it drew each element (the count form
of the nonparametric bootstrap, Efron & Tibshirani 1993), reduced over the
tie blocks: exact integer rank sums for AUROC, and for average precision
the same per-block terms, in the same order, as scoring the resample
itself. The point estimate is the count row of the sample itself. Its
intervals are bit-identical to resampling and re-sorting.
``bootstrap_cis`` runs many such jobs in one call (an evaluation cell's
two metrics on four outcomes), numbering each sample's blocks once for
all of its metrics.

Three shortcuts cut fixed costs per call and keep every bit:
``_percentiles`` writes numpy's linear percentile out over the sorted
values (numpy still takes a list with a NaN); the resample streams
``default_rng([seed, index])`` of all of a call's jobs are seeded in one
pass (``_pcg64_states``: SeedSequence's hash over uint32 arrays, then
PCG64's seeding in Python ints, the state numpy derives for seeds below
2**32) and drawn through one reused Generator; and the Youden scan of
``pick_threshold`` visits only the strict running maxima of J.
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
    """(usable, score, whole) that call ``metric`` on every resample;
    ``whole`` is the point estimate, ``metric`` of the sample itself."""
    def usable(idx):
        try:
            return float(metric(s[idx], y[idx]))
        except DegenerateLabelsError:
            return None
    return usable, list, float(metric(s, y))


def _scored_by_counts(by_counts, needs_negative: bool, n_blocks: int,
                      keys: np.ndarray):
    """(usable, score, whole) of a counted metric over a sample's element
    keys (2 * tie block + label). ``usable`` keeps a draw's keys when its
    class counts are ones the metric accepts; ``score`` takes a batch of
    kept draws to their values; ``whole``, the keys of the sample itself,
    scores to the point estimate, the metric's value bit for bit."""
    def kept(drawn):
        n_pos = np.count_nonzero(drawn & 1)
        ok = n_pos > 0 and (n_pos < len(drawn) or not needs_negative)
        return drawn if ok else None

    def score(batch):
        rows = len(batch)
        # one bincount over the batch: row r counts into bins from 2·n_blocks·r
        drawn = np.stack(batch) + 2 * n_blocks * np.arange(rows)[:, None]
        counts = np.bincount(drawn.ravel(), minlength=rows * 2 * n_blocks
                             ).reshape(rows, n_blocks, 2)
        return by_counts(counts[..., 0], counts[..., 1]).tolist()

    if kept(keys) is None:
        raise DegenerateLabelsError("the metric needs both classes"
                                    if needs_negative else
                                    "the metric needs a positive")
    return (lambda idx: kept(keys[idx])), score, keys


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


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.uint32, ...]:
    """The first ``n + 1`` values of a SeedSequence hash constant, which is
    multiplied by ``mult`` (mod 2**32) at each use, as uint32 scalars."""
    values = [init]
    for _ in range(n):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return tuple(map(np.uint32, values))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) as its 16
# hashes of a pool of four words and its 8 draws from the pool meet them,
# and the multiplier of PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h)
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_DRAW_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK_128 = (1 << 128) - 1


def _pcg64_states(seeds: np.ndarray, index: np.ndarray) -> list[dict]:
    """The ``bit_generator.state`` of ``default_rng([seed, i])`` for each
    pair of uint32 ``seeds`` and ``index``. Below 2**32 each int is one
    entropy word, so SeedSequence's hash (a pool of four words mixed, then
    eight words drawn from it) runs over whole uint32 arrays; PCG64's two
    seeding steps run in Python ints."""
    hashes = iter(range(16))

    def hashmix(value):
        k = next(hashes)
        value = (value ^ _POOL_HASH[k]) * _POOL_HASH[k + 1]
        return value ^ (value >> _XSHIFT)

    zero = np.zeros_like(seeds)
    pool = [hashmix(seeds), hashmix(index), hashmix(zero), hashmix(zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = pool[dst] * _MIX_MULT_L - hashmix(pool[src]) * _MIX_MULT_R
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
    draws = np.array(_DRAW_HASH, dtype=np.uint32)[:, None]
    words = (np.stack(pool)[[0, 1, 2, 3, 0, 1, 2, 3]] ^ draws[:-1]) * draws[1:]
    words = (words ^ (words >> _XSHIFT)).astype(np.uint64)
    # little-endian pairs of words: the seed's two halves, then the stream's
    halves = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    # PCG64 seeding: inc is the stream's halves shifted in over a 1, and the
    # state steps once from 0, adds the seed's halves, then steps again
    states = []
    for seed_hi, seed_lo, seq_hi, seq_lo in zip(*halves):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK_128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK_128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _resample_streams(seeds: list[int], n_boot: int) -> list[list | None]:
    """For each seed, the bit generator state of ``default_rng([seed, i])``
    for each resample index ``i`` below ``n_boot``, all computed in one pass;
    None for a seed outside [0, 2**32), which is more than one word."""
    n_boot = max(n_boot, 0)
    inside = [seed for seed in seeds if 0 <= seed < 1 << 32]
    states = _pcg64_states(
        np.repeat(np.array(inside, dtype=np.uint32), n_boot),
        np.tile(np.arange(n_boot, dtype=np.uint32), len(inside)))
    chunks = iter([states[k * n_boot:(k + 1) * n_boot]
                   for k in range(len(inside))])
    return [next(chunks) if 0 <= seed < 1 << 32 else None for seed in seeds]


def _bootstrap_job(usable, score, whole, n: int, seed: int, streams,
                   generator: np.random.Generator, n_boot: int,
                   alpha: float) -> BootstrapResult:
    """One metric's bootstrap: resample ``i`` draws from
    ``default_rng([seed, i])``, set into ``generator`` from ``streams`` when
    they are given."""
    per_batch = max(1, _DRAWS_PER_BATCH // max(n, 1))
    values, batch = [], [whole]     # the sample itself scores to the point
    skipped = 0
    for i in range(n_boot):
        if len(batch) == per_batch:
            values += score(batch)
            batch = []
        if streams is None:
            rng = np.random.default_rng([seed, i])
        else:
            generator.bit_generator.state = streams[i]
            rng = generator
        for _ in range(10):
            kept = usable(rng.integers(0, n, size=n))
            if kept is not None:
                batch.append(kept)
                break
        else:
            skipped += 1
    values += score(batch)
    point = values.pop(0)
    if not values:
        # n_boot == 0, or no resample was usable: no interval to report
        return BootstrapResult(point, math.nan, math.nan, skipped)
    lo, hi = _percentiles(values, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return BootstrapResult(point, lo, hi, skipped)


def bootstrap_cis(samples, n_boot: int = 1000, alpha: float = 0.05
                  ) -> list[list[BootstrapResult] | DegenerateLabelsError]:
    """Percentile bootstraps of several metrics on several samples.

    ``samples`` holds ``(scores, labels, jobs)``, ``jobs`` a sequence of
    ``(metric, seed)``. Each job's resample ``i`` draws from
    ``default_rng([seed, i])``, so results do not depend on execution
    order; a resample on which the metric is degenerate is redrawn up to
    10 times, then skipped (count reported). Returns, for each sample, a
    ``BootstrapResult`` per job; or, when the point estimate of one of its
    jobs is degenerate, that ``DegenerateLabelsError``, and none of the
    sample's jobs is resampled.

    ``auroc`` and ``auprc`` (or a ``functools.wraps`` wrapper of them) are
    scored from draw counts over the sample's tie blocks, numbered once per
    sample, the point estimate included; they are not called. Any other
    metric, and any sample with a NaN score (its NaN copies rank in draw
    order, which counts do not record), is called on the sample and on
    every resample. Every job's streams are seeded in one pass and drawn
    through one Generator.
    """
    prepared = []
    for scores, labels, jobs in samples:
        s = np.asarray(scores, dtype=np.float64)
        y = np.asarray(labels)
        has_nan = bool(np.isnan(s).any())
        keys = None
        scorers = []
        try:
            for metric, _ in jobs:
                counted = None if has_nan else _COUNTED.get(inspect.unwrap(metric))
                if counted is None:
                    scorers.append(_scored_per_resample(metric, s, y))
                    continue
                if keys is None:
                    tied, block = np.unique(s, return_inverse=True)
                    keys = 2 * block + y.astype(bool)
                scorers.append(_scored_by_counts(*counted, len(tied), keys))
        except DegenerateLabelsError as exc:
            prepared.append(exc)
            continue
        prepared.append([(scorer, len(s), seed)
                         for scorer, (_, seed) in zip(scorers, jobs)])
    seeds = [seed for jobs in prepared if isinstance(jobs, list)
             for _, _, seed in jobs]
    streams = iter(_resample_streams(seeds, n_boot))
    generator = np.random.Generator(np.random.PCG64(0))
    return [jobs if isinstance(jobs, DegenerateLabelsError) else
            [_bootstrap_job(*scorer, n, seed, next(streams), generator,
                            n_boot, alpha)
             for scorer, n, seed in jobs]
            for jobs in prepared]


def bootstrap_ci(scores, labels, metric, n_boot: int = 1000, alpha: float = 0.05,
                 seed: int = 0) -> BootstrapResult:
    """Percentile bootstrap of ``metric`` over paired (score, label)
    resamples: ``bootstrap_cis`` of one job, which raises
    ``DegenerateLabelsError`` when the point estimate is degenerate."""
    (result,) = bootstrap_cis([(scores, labels, [(metric, seed)])], n_boot, alpha)
    if isinstance(result, DegenerateLabelsError):
        raise result
    return result[0]


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

