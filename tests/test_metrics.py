"""Metric implementations against brute-force oracles.

The oracles count pairs and enumerate thresholds directly, with no rank
arithmetic, so they share no code path with the implementations.
"""

import functools
import math
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from fedsurg import experiment, metrics


def _cases(n_cases=1000, max_n=50, seed=20260826):
    rng = np.random.default_rng(seed)
    for i in range(n_cases):
        n = int(rng.integers(2, max_n + 1))
        # coarse grid scores to force plenty of ties
        scores = rng.choice(np.linspace(0, 1, 7), size=n)
        labels = rng.integers(0, 2, n).astype(float)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        yield i, scores, labels


def _auroc_oracle(scores, labels):
    # [DERIVED] explicit positive/negative pair counting; ties score half
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def _auprc_oracle(scores, labels):
    # [DERIVED] average precision summed over descending unique thresholds
    n_pos = labels.sum()
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        pred = scores >= t
        tp = float((pred & (labels == 1)).sum())
        precision = tp / pred.sum()
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def test_auroc_matches_pair_counting_oracle():
    for i, scores, labels in _cases():
        got = metrics.auroc(scores, labels)
        want = _auroc_oracle(scores, labels)
        assert abs(got - want) < 1e-12, f"case {i}"


def test_auprc_matches_threshold_enumeration_oracle():
    for i, scores, labels in _cases():
        got = metrics.auprc(scores, labels)
        want = _auprc_oracle(scores, labels)
        assert abs(got - want) < 1e-12, f"case {i}"


def test_auroc_perfect_and_inverted():
    assert metrics.auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert metrics.auroc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    assert metrics.auroc([0.5, 0.5], [0, 1]) == 0.5


def test_degenerate_labels_raise():
    with pytest.raises(metrics.DegenerateLabelsError):
        metrics.auroc([0.1, 0.2], [1, 1])
    with pytest.raises(metrics.DegenerateLabelsError):
        metrics.auprc([0.1, 0.2], [0, 0])
    with pytest.raises(metrics.DegenerateLabelsError):
        metrics.pick_threshold([0.1, 0.2], [1, 1])


def test_confusion_at_threshold_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        s = rng.choice(np.linspace(0, 1, 5), size=n)
        y = rng.integers(0, 2, n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        t = float(rng.choice(s))
        m = metrics.confusion_at_threshold(s, y, t)
        pred = s >= t
        tp = ((pred == 1) & (y == 1)).sum()
        tn = ((pred == 0) & (y == 0)).sum()
        assert m.sensitivity == pytest.approx(tp / y.sum(), abs=1e-12)
        assert m.specificity == pytest.approx(tn / (n - y.sum()), abs=1e-12)
        if pred.sum():
            assert m.ppv == pytest.approx(tp / pred.sum(), abs=1e-12)
        else:
            assert m.ppv is None


def test_pick_threshold_maximizes_youden_lowest_tie():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(4, 30))
        s = rng.choice(np.linspace(0, 1, 4), size=n)
        y = rng.integers(0, 2, n)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        t = metrics.pick_threshold(s, y)
        # [DERIVED] exhaustive search over observed scores
        best = max(
            (metrics.confusion_at_threshold(s, y, c).sensitivity
             + metrics.confusion_at_threshold(s, y, c).specificity - 1.0, -c)
            for c in np.unique(s))
        got_m = metrics.confusion_at_threshold(s, y, t)
        got_j = got_m.sensitivity + got_m.specificity - 1.0
        assert got_j == pytest.approx(best[0], abs=1e-12)
        assert t == pytest.approx(-best[1], abs=0)  # lowest among ties


# --- exact equality with block-by-block loops -----------------------------
#
# The vectorised kernels promise the same bits as a loop over tie blocks,
# not just agreement within a tolerance; these oracles are those loops.

def _midranks_loop(values):
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    sv = values[order]
    i = 0
    while i < len(sv):
        j = i
        while j + 1 < len(sv) and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _auprc_loop(scores, labels):
    y = np.asarray(labels, dtype=bool)
    n_pos = int(y.sum())
    order = np.argsort(-scores, kind="mergesort")
    s, y = scores[order], y[order]
    ap = 0.0
    tp = i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and s[j + 1] == s[i]:
            j += 1
        block_tp = int(y[i:j + 1].sum())
        tp += block_tp
        if block_tp:
            ap += (block_tp / n_pos) * (tp / (j + 1))
        i = j + 1
    return ap


def _pick_threshold_scan(scores, labels):
    best_t, best_j = None, -np.inf
    for t in np.unique(scores):
        m = metrics.confusion_at_threshold(scores, labels, t)
        j = m.sensitivity + m.specificity - 1.0
        if j > best_j + 1e-15:
            best_t, best_j = float(t), j
    return best_t


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _assert_bitwise(scores, labels):
    assert _bits(metrics._midranks(scores)) == _bits(_midranks_loop(scores))
    if labels.any():
        assert _bits(metrics.auprc(scores, labels)) == _bits(
            _auprc_loop(scores, labels))
    if labels.any() and not labels.all():
        ranks = _midranks_loop(scores)
        n_pos = int(labels.sum())
        u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
        assert _bits(metrics.auroc(scores, labels)) == _bits(
            u / (n_pos * (len(labels) - n_pos)))
        assert _bits(metrics.pick_threshold(scores, labels)) == _bits(
            _pick_threshold_scan(scores, labels))


@st.composite
def _scored_samples(draw):
    n = draw(st.integers(2, 2000) | st.integers(2, 40))
    kind = draw(st.sampled_from(["equal", "grid7", "float32", "nan"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "equal":
        scores = np.full(n, 0.25)
    elif kind == "grid7":
        scores = rng.choice(np.linspace(0, 1, 7), size=n)
    else:
        scores = rng.uniform(0, 1, n).astype(np.float32).astype(np.float64)
        if kind == "nan":
            scores[rng.uniform(0, 1, n) < 0.1] = np.nan
    if draw(st.booleans()):
        labels = np.zeros(n, dtype=bool)
        labels[rng.integers(n)] = True          # a single positive
    else:
        labels = rng.uniform(0, 1, n) < draw(st.sampled_from([0.02, 0.3, 0.7]))
    return scores, labels


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_scored_samples())
def test_kernels_equal_tie_block_loops_bitwise(sample):
    _assert_bitwise(*sample)


def test_kernels_equal_loops_on_edge_cases():
    _assert_bitwise(np.array([0.3, 0.7]), np.array([False, True]))
    _assert_bitwise(np.array([0.7, 0.3]), np.array([False, True]))
    _assert_bitwise(np.array([0.5, 0.5]), np.array([True, False]))
    _assert_bitwise(np.full(50, 0.1), np.arange(50) % 3 == 0)
    _assert_bitwise(np.array([np.nan, 0.2, np.nan, 0.2, 0.9]),
                    np.array([True, False, False, True, False]))
    _assert_bitwise(np.full(4, np.nan), np.array([True, False, True, False]))
    assert len(metrics._midranks(np.array([]))) == 0
    # J ties at 0.2 and 0.4; the lowest threshold wins
    tied = np.array([0.1, 0.2, 0.3, 0.4]), np.array([False, True, False, True])
    _assert_bitwise(*tied)
    assert metrics.pick_threshold(*tied) == 0.2


# --- Mann-Whitney ---------------------------------------------------------

def _mw_exact_oracle(a, b):
    # [DERIVED] independent full enumeration over group assignments
    import itertools
    pooled = np.concatenate([a, b])
    n_a = len(a)

    def u_of(group_idx):
        sel = pooled[list(group_idx)]
        rest = np.delete(pooled, list(group_idx))
        u = 0.0
        for x in sel:
            for v in rest:
                u += 1.0 if x > v else (0.5 if x == v else 0.0)
        return u

    observed = u_of(range(n_a))
    m = n_a * (len(pooled) - n_a) / 2.0
    hits = total = 0
    for combo in itertools.combinations(range(len(pooled)), n_a):
        total += 1
        if abs(u_of(combo) - m) >= abs(observed - m) - 1e-9:
            hits += 1
    return observed, hits / total


def test_mann_whitney_exact_small_samples():
    rng = np.random.default_rng(2)
    for trial in range(30):
        n_a = int(rng.integers(2, 6))
        n_b = int(rng.integers(2, 8))
        a = rng.choice([0.0, 0.5, 1.0, 2.0], size=n_a)
        b = rng.choice([0.0, 0.5, 1.0, 2.0], size=n_b)
        u, p = metrics.mann_whitney_u(a, b)
        u_want, p_want = _mw_exact_oracle(a, b)
        assert u == pytest.approx(u_want, abs=1e-12), f"trial {trial}"
        assert p == pytest.approx(p_want, abs=1e-12), f"trial {trial}"


def test_mann_whitney_exact_matches_scipy_without_ties():
    rng = np.random.default_rng(3)
    a = rng.normal(0, 1, 5)
    b = rng.normal(0.5, 1, 7)
    u, p = metrics.mann_whitney_u(a, b)
    ref = stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
    assert u == pytest.approx(float(ref.statistic), abs=1e-12)
    assert p == pytest.approx(float(ref.pvalue), abs=1e-12)


def test_mann_whitney_normal_approx_matches_scipy():
    rng = np.random.default_rng(4)
    a = rng.choice(np.linspace(0, 1, 9), size=40)
    b = rng.choice(np.linspace(0.1, 1.1, 9), size=55)
    u, p = metrics.mann_whitney_u(a, b)
    ref = stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
    assert u == pytest.approx(float(ref.statistic), abs=1e-9)
    assert p == pytest.approx(float(ref.pvalue), rel=1e-9)


def test_mann_whitney_large_unbalanced_uses_normal_approx():
    # C(45, 5) = 1.2 million orderings: enumerating them took seconds
    rng = np.random.default_rng(6)
    a = rng.normal(0.3, 1, 5)
    b = rng.normal(0, 1, 40)
    start = time.perf_counter()
    u, p = metrics.mann_whitney_u(a, b)
    assert time.perf_counter() - start < 1.0
    ref = stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
    assert u == pytest.approx(float(ref.statistic), abs=1e-9)
    assert p == pytest.approx(float(ref.pvalue), abs=1e-9)


def test_mann_whitney_empty_raises():
    with pytest.raises(ValueError):
        metrics.mann_whitney_u([], [1.0])


# --- chi-square -----------------------------------------------------------

def test_chi_square_hand_value():
    # [DERIVED] margins 30/30 and 30/30; expected 15 everywhere;
    # stat = 4 * 25/15 = 20/3
    stat, p = metrics.chi_square([[10, 20], [20, 10]])
    assert stat == pytest.approx(20.0 / 3.0, abs=1e-10)
    assert stat == pytest.approx(6.6667, abs=1e-4)
    ref = stats.chi2_contingency([[10, 20], [20, 10]], correction=False)
    assert p == pytest.approx(float(ref.pvalue), rel=1e-12)


def test_chi_square_matches_scipy_random_tables():
    rng = np.random.default_rng(6)
    for _ in range(100):
        r, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        table = rng.integers(1, 60, (r, c))
        stat, p = metrics.chi_square(table)
        ref = stats.chi2_contingency(table, correction=False)
        assert stat == pytest.approx(float(ref.statistic), rel=1e-12)
        assert p == pytest.approx(float(ref.pvalue), rel=1e-10, abs=1e-300)


def test_chi_square_rejects_bad_tables():
    with pytest.raises(ValueError):
        metrics.chi_square([[1, 2, 3]])
    with pytest.raises(ValueError):
        metrics.chi_square([[0, 0], [1, 2]])


def test_bonferroni():
    assert metrics.bonferroni([0.01, 0.2, 0.5]) == pytest.approx(
        [0.03, 0.6, 1.0], abs=1e-15)
    assert metrics.bonferroni([0.02], m=10) == [0.2]
    with pytest.raises(ValueError):
        metrics.bonferroni([1.5])


# --- bootstrap ------------------------------------------------------------

def test_bootstrap_point_estimate_and_determinism():
    rng = np.random.default_rng(9)
    s = rng.uniform(0, 1, 200)
    y = (rng.uniform(0, 1, 200) < s).astype(float)
    r1 = metrics.bootstrap_ci(s, y, metrics.auroc, n_boot=100, seed=42)
    r2 = metrics.bootstrap_ci(s, y, metrics.auroc, n_boot=100, seed=42)
    assert r1 == r2
    assert r1.point == pytest.approx(metrics.auroc(s, y), abs=0)
    assert r1.ci_low <= r1.point <= r1.ci_high
    r3 = metrics.bootstrap_ci(s, y, metrics.auroc, n_boot=100, seed=43)
    assert r3 != r1


def test_bootstrap_redraws_degenerate_resamples():
    # one positive in a tiny sample: many resamples are all-negative
    s = np.array([0.9, 0.1, 0.2, 0.15])
    y = np.array([1.0, 0.0, 0.0, 0.0])
    r = metrics.bootstrap_ci(s, y, metrics.auroc, n_boot=200, seed=0)
    assert np.isfinite(r.ci_low) and np.isfinite(r.ci_high)
    assert 0 <= r.n_skipped < 200


def _bootstrap_loop(scores, labels, metric, n_boot, seed, alpha=0.05):
    """The bootstrap that sorts every resample: ``metric`` is called on each
    one. Returns (point, ci_low, ci_high, n_skipped)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    point = float(metric(s, y))
    values, skipped = [], 0
    for i in range(n_boot):
        rng = np.random.default_rng([seed, i])
        for _ in range(10):
            idx = rng.integers(0, len(s), size=len(s))
            try:
                values.append(float(metric(s[idx], y[idx])))
                break
            except metrics.DegenerateLabelsError:
                continue
        else:
            skipped += 1
    if not values:
        return point, math.nan, math.nan, skipped
    lo, hi = np.percentile(values, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return point, float(lo), float(hi), skipped


def _call_counting(metric):
    """``metric`` behind a ``functools.wraps`` wrapper that counts calls."""
    @functools.wraps(metric)
    def counting(scores, labels):
        counting.calls += 1
        return metric(scores, labels)
    counting.calls = 0
    return counting


def _assert_bootstrap_bitwise(scores, labels, n_boot, seed):
    """``bootstrap_ci`` of AUROC and AUPRC equals the resample-and-sort loop
    bit for bit; without a NaN score, neither the point estimate nor any
    resample calls the metric."""
    for metric in (metrics.auroc, metrics.auprc):
        try:
            want = _bootstrap_loop(scores, labels, metric, n_boot, seed)
        except metrics.DegenerateLabelsError:
            with pytest.raises(metrics.DegenerateLabelsError):
                metrics.bootstrap_ci(scores, labels, metric, n_boot, seed=seed)
            continue
        counting = _call_counting(metric)
        r = metrics.bootstrap_ci(scores, labels, counting, n_boot, seed=seed)
        assert _bits([r.point, r.ci_low, r.ci_high]) == _bits(want[:3])
        assert r.n_skipped == want[3]
        if not np.isnan(scores).any():
            assert counting.calls == 0          # scored from counts


@st.composite
def _bootstrap_samples(draw):
    n = draw(st.integers(2, 3000) | st.integers(2, 40))
    kind = draw(st.sampled_from(["uniform", "grid7", "float32", "2dp", "nan"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.uniform(0, 1, n)
    if kind == "grid7":
        scores = rng.choice(np.linspace(0, 1, 7), size=n)
    elif kind == "float32":
        scores = u.astype(np.float32).astype(np.float64)
    elif kind == "2dp":
        scores = np.round(u, 2)
    elif kind == "nan":
        scores = np.where(rng.uniform(0, 1, n) < 0.1, np.nan, np.round(u, 1))
    else:
        scores = u
    if draw(st.booleans()):
        labels = np.zeros(n)
        labels[rng.integers(n)] = 1.0           # a single positive
    else:
        labels = (rng.uniform(0, 1, n)
                  < draw(st.sampled_from([0.0, 0.01, 0.3, 1.0]))).astype(float)
    n_boot = draw(st.sampled_from([0, 1, 9, 40]))
    return scores, labels, n_boot, draw(st.integers(0, 2**32))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_bootstrap_samples())
def test_counted_bootstrap_equals_resample_loop_bitwise(sample):
    _assert_bootstrap_bitwise(*sample)


def test_counted_bootstrap_equals_resample_loop_on_edge_cases():
    rng = np.random.default_rng(21)
    # more resamples than one scoring batch holds
    n = 200
    s = np.round(rng.uniform(0, 1, n), 2)
    y = (rng.uniform(0, 1, n) < 0.1).astype(np.int8)
    _assert_bootstrap_bitwise(s, y, metrics._DRAWS_PER_BATCH // n + 3, 5)
    # two rows, one positive: most draws are single-class and redrawn
    _assert_bootstrap_bitwise(np.array([0.2, 0.7]), np.array([0.0, 1.0]), 50, 1)
    _assert_bootstrap_bitwise(np.array([0.4, 0.4]), np.array([1, 0]), 20, 2)
    # every score tied; -0.0 and 0.0 are one tie block
    _assert_bootstrap_bitwise(np.array([0.0, -0.0, 0.0, -0.0, 0.0]),
                              np.array([1, 0, 0, 1, 0]), 30, 3)
    _assert_bootstrap_bitwise(np.full(4, np.nan), np.array([1, 0, 1, 0]), 10, 4)


def _cell_sample(rng, n):
    """Scores and labels of four outcomes a cell can meet: tied scores;
    one positive in ``n`` (most draws redrawn); NaN scores (scored per
    resample); no positive (a degenerate AUROC point)."""
    u = rng.uniform(0, 1, (n, 4))
    probs = np.column_stack([np.round(u[:, 0], 1), u[:, 1],
                             np.where(u[:, 3] < 0.1, np.nan, u[:, 2]), u[:, 3]])
    single = np.zeros(n)
    single[rng.integers(n)] = 1.0
    labels = np.column_stack([u[:, 0] < 0.4, single, u[:, 2] < 0.5,
                              np.zeros(n)]).astype(float)
    return probs, labels


@pytest.mark.parametrize("n_boot", [0, 1, 13, 40])
def test_cell_bootstraps_equal_the_resample_loop(n_boot):
    """``score_unit``'s one engine call per cell gives each outcome's AUROC
    and AUPRC the bits of two separate resample-and-sort loops, seeded
    with the cell seed and the cell seed + 1."""
    rng = np.random.default_rng(40 + n_boot)
    probs, labels = _cell_sample(rng, 37)
    cells = experiment.score_unit("m", "s", probs, labels, None, None,
                                  n_boot, seed=77)
    for k, cell in enumerate(cells):
        s, y = probs[:, k], labels[:, k]
        cell_seed = zlib.crc32(f"m|s|{cell.outcome}".encode()) ^ 77
        if not 0 < y.sum() < len(y):
            with pytest.raises(metrics.DegenerateLabelsError):
                _bootstrap_loop(s, y, metrics.auroc, n_boot, cell_seed)
            for r in (cell.auroc, cell.auprc):
                assert np.isnan([r.point, r.ci_low, r.ci_high]).all()
                assert r.n_skipped == 0
            continue
        for r, metric, seed in ((cell.auroc, metrics.auroc, cell_seed),
                                (cell.auprc, metrics.auprc, cell_seed + 1)):
            want = _bootstrap_loop(s, y, metric, n_boot, seed)
            assert _bits([r.point, r.ci_low, r.ci_high]) == _bits(want[:3])
            assert r.n_skipped == want[3]


@st.composite
def _engine_calls(draw):
    """Up to three samples with one n_boot, each with up to three jobs of
    AUROC, AUPRC or a metric the engine calls on every resample."""
    samples = [draw(_bootstrap_samples()) for _ in range(draw(st.integers(1, 3)))]
    n_boot = samples[0][2]
    plain_auroc = lambda s, y: metrics.auroc(s, y)      # not counted
    metric = st.sampled_from([metrics.auroc, metrics.auprc, plain_auroc])
    seed = st.integers(0, 2**32 - 1) | st.just(2**32) | st.integers(0, 9)
    return [(s, y, draw(st.lists(st.tuples(metric, seed), min_size=1,
                                 max_size=3)))
            for s, y, _, _ in samples], n_boot


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_engine_calls())
def test_engine_equals_the_resample_loop_per_job(call):
    """Every job of a ``bootstrap_cis`` call gets the bits of its own
    resample-and-sort loop, or its sample the error of a degenerate point."""
    samples, n_boot = call
    for (s, y, jobs), got in zip(samples, metrics.bootstrap_cis(samples, n_boot)):
        try:
            wants = [_bootstrap_loop(s, y, metric, n_boot, seed)
                     for metric, seed in jobs]
        except metrics.DegenerateLabelsError:
            assert isinstance(got, metrics.DegenerateLabelsError)
            continue
        assert len(got) == len(jobs)
        for r, want in zip(got, wants):
            assert _bits([r.point, r.ci_low, r.ci_high]) == _bits(want[:3])
            assert r.n_skipped == want[3]


def _distinct_only(metric):
    """``metric`` that rejects any sample with a repeated score: it accepts
    distinct point-estimate scores and, in practice, no resample of them."""
    def wrapped(scores, labels):
        if len(np.unique(scores)) < len(scores):
            raise metrics.DegenerateLabelsError("repeated score")
        return metric(scores, labels)
    return wrapped


def test_bootstrap_without_usable_resamples_has_no_interval():
    rng = np.random.default_rng(12)
    s = rng.uniform(0, 1, 60)
    y = np.arange(60) % 2
    r = metrics.bootstrap_ci(s, y, _distinct_only(metrics.auroc), n_boot=25)
    assert r.point == metrics.auroc(s, y)
    assert np.isnan(r.ci_low) and np.isnan(r.ci_high)
    assert r.n_skipped == 25
    r = metrics.bootstrap_ci(s, y, metrics.auroc, n_boot=0)
    assert r.point == metrics.auroc(s, y)
    assert np.isnan(r.ci_low) and np.isnan(r.ci_high) and r.n_skipped == 0


def test_evaluate_scores_without_usable_resamples(monkeypatch):
    monkeypatch.setattr(metrics, "auroc", _distinct_only(metrics.auroc))
    monkeypatch.setattr(metrics, "auprc", _distinct_only(metrics.auprc))
    rng = np.random.default_rng(2)
    probs = rng.uniform(0, 1, (80, 4))
    labels = (rng.uniform(0, 1, (80, 4)) < probs).astype(float)
    cells = experiment.evaluate_scores("m", "s", probs, labels, probs, labels,
                                       n_boot=5, seed=0)
    for c in cells:
        for r in (c.auroc, c.auprc):
            assert np.isfinite(r.point)
            assert np.isnan(r.ci_low) and np.isnan(r.ci_high)
            assert r.n_skipped == 5
        assert c.threshold is not None


# --- fixed-cost shortcuts against the code they replaced ------------------
#
# Each oracle below is the code a shortcut replaced; the shortcut must give
# the same bits on every input.

def _first_best_loop(thresholds, j):
    best_t, best_j = None, -np.inf
    for t, jt in zip(thresholds.tolist(), j.tolist()):
        if jt > best_j + 1e-15:
            best_t, best_j = t, jt
    return best_t


@st.composite
def _near_tied_j(draw):
    """J vectors whose values sit on a few levels, each level spread over
    steps of about 2.2e-16, so runs of values within 1e-15 of each other
    (and chains of such steps longer than 1e-15) are common."""
    n = draw(st.integers(1, 60))
    levels = draw(st.lists(st.sampled_from([-1.0, -0.25, 0.0, 1 / 3, 0.5, 0.75]),
                           min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    j = np.array(levels) + np.array(steps) * 2.2e-16
    return np.arange(n) / 8.0, j


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_near_tied_j())
def test_threshold_scan_over_running_maxima_equals_full_scan(sample):
    thresholds, j = sample
    assert _bits(metrics._first_best(thresholds, j)) == _bits(
        _first_best_loop(thresholds, j))


def test_threshold_scan_keeps_the_first_of_a_chain_of_near_ties():
    # each step is under 1e-15, their sum is not: the scan moves at 1.2e-15
    j = np.array([0.0, 0.6e-15, 1.2e-15, 1.8e-15, 1.7e-15])
    assert metrics._first_best(np.arange(5.0), j) == 2.0
    assert _first_best_loop(np.arange(5.0), j) == 2.0
    # a later J above the first by less than 1e-15 does not move it
    assert metrics._first_best(np.arange(3.0), np.array([0.5, 0.5 + 9e-16, 0.1])) == 0.0


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(2, 80), st.integers(0, 2**32 - 1),
       st.sampled_from([3, 6, 12, 1000]))
def test_pick_threshold_equals_full_scan(n, seed, grid):
    # few positives and negatives with common factors make J values that
    # are equal in exact arithmetic but differ in their last bits
    rng = np.random.default_rng(seed)
    scores = np.round(rng.uniform(0, 1, n) * grid) / grid
    labels = rng.uniform(0, 1, n) < rng.uniform(0.1, 0.9)
    labels[:2] = [True, False]
    assert _bits(metrics.pick_threshold(scores, labels)) == _bits(
        _pick_threshold_scan(scores, labels))


_EDGE_PERCENTILES = [0.0, 2.5, 25.0, 50.0, 75.0, 97.5, 100.0]


@st.composite
def _percentile_inputs(draw):
    """Value lists with ties, infinities and now and then a NaN (the
    shortcut then hands them to numpy), and percentiles in [0, 100]."""
    value = (st.sampled_from([0.0, 0.25, 0.5, 1.0, np.inf, -np.inf])
             | st.floats(allow_nan=False))
    # 0.0 + v turns -0.0 into 0.0: numpy orders 0.0 and -0.0 arbitrarily
    values = [0.0 + v for v in draw(st.lists(value, min_size=1, max_size=59))]
    if draw(st.integers(0, 9)) == 0:
        values.insert(draw(st.integers(0, len(values))), math.nan)
    qs = draw(st.lists(st.sampled_from(_EDGE_PERCENTILES) | st.floats(0, 100),
                       min_size=1, max_size=4))
    return values, qs


@settings(derandomize=True, deadline=None, max_examples=600)
@given(_percentile_inputs())
def test_percentiles_equal_numpy_bitwise(sample):
    values, qs = sample
    assert _bits(metrics._percentiles(values, qs)) == _bits(
        np.percentile(values, qs))


def test_percentiles_on_small_samples_and_any_alpha():
    for values in ([0.7], [0.2, 0.2], [0.1, 0.9], [0.3, 0.1, 0.3, 0.2],
                   [1.0, 1.0, 0.5, np.inf], [np.nan, 0.5], [-np.inf, 0.5, np.inf],
                   # one zero, or all zeros of one sign, leave no order to
                   # choose; numpy's index past the end keeps a lone -0.0
                   [-0.0], [-0.0, -0.0, -0.0], [np.inf]):
        for alpha in (0.0, 1e-17, 0.05, 0.1, 0.5, 0.9, 1.0):
            qs = [100 * alpha / 2, 100 * (1 - alpha / 2)]
            assert _bits(metrics._percentiles(values, qs)) == _bits(
                np.percentile(values, qs))
    for bad in ([-1.0], [100.5], [np.nan]):
        with pytest.raises(ValueError):
            np.percentile([0.5, 0.6], bad)
        with pytest.raises(ValueError):
            metrics._percentiles([0.5, 0.6], bad)


def _rng_bits(rng):
    return rng.bit_generator.state["state"], rng.integers(0, 2**62, 4).tolist()


def _seeded(state):
    """A generator set to ``state``, one of ``_pcg64_states``'s."""
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = state
    return rng


def _resample_rng(seed, i):
    """The generator the bootstrap draws resample ``i`` of ``seed`` from:
    one set to the seeding pass's state, or ``default_rng([seed, i])`` for
    a seed the pass gives none (one of two words or more)."""
    (states,) = metrics._resample_streams([seed], 1)
    if states is None:
        return np.random.default_rng([seed, i])
    (state,) = metrics._pcg64_states(np.array([seed], dtype=np.uint32),
                                     np.array([i], dtype=np.uint32))
    return _seeded(state)


_SEED_EDGES = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 123456789, 2**64 + 3]
_INDEX_EDGES = [0, 1, 9, 999, 2**32 - 1]


@pytest.mark.parametrize("seed", _SEED_EDGES)
@pytest.mark.parametrize("i", _INDEX_EDGES)
def test_resample_rng_equals_the_list_seed(seed, i):
    assert _rng_bits(_resample_rng(seed, i)) == _rng_bits(
        np.random.default_rng([seed, i]))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 2**70), st.integers(0, 2**32 - 1))
def test_resample_rng_equals_the_list_seed_anywhere(seed, i):
    assert _rng_bits(_resample_rng(seed, i)) == _rng_bits(
        np.random.default_rng([seed, i]))


def test_seeding_pass_over_many_streams_equals_the_list_seed():
    """One pass over every (seed, i) of the edges below 2**32 gives the state
    of each ``default_rng([seed, i])``; ``_resample_streams`` gives each
    seed's first ``n_boot`` states, and none to a seed of two words."""
    inside = [(seed, i) for seed in _SEED_EDGES if seed < 2**32
              for i in _INDEX_EDGES]
    seeds, index = np.array(inside, dtype=np.uint32).T
    for (seed, i), state in zip(inside, metrics._pcg64_states(seeds, index)):
        assert state == np.random.default_rng([seed, i]).bit_generator.state
    streams = metrics._resample_streams(_SEED_EDGES, 3)
    for seed, states in zip(_SEED_EDGES, streams):
        assert (states is None) == (seed >= 2**32)
        for i, state in enumerate(states or []):
            assert state == np.random.default_rng([seed, i]).bit_generator.state
    assert metrics._resample_streams([5, 2**40], 0) == [[], None]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(1, 700), st.integers(1, 12))
def test_one_reused_generator_draws_each_stream_exactly(seed, n, k):
    """The streams of ``seed`` set one after another into one generator, as
    the bootstrap sets them, draw what ``default_rng([seed, i])`` draws over
    three consecutive draws: odd sizes leave a buffered half word that the
    next draw of a stream uses and the next stream must not."""
    (states,) = metrics._resample_streams([seed], k)
    reused = np.random.Generator(np.random.PCG64(0))
    for i, state in enumerate(states):
        reused.bit_generator.state = state
        fresh = np.random.default_rng([seed, i])
        for _ in range(3):
            assert reused.integers(0, n, size=n).tolist() == fresh.integers(
                0, n, size=n).tolist()


def test_bootstrap_with_cell_seed_at_two_to_the_32():
    """``evaluate_scores`` seeds AUPRC with its cell seed + 1, which is 2**32
    when the cell seed is 2**32 - 1: that seed is two words, not one."""
    rng = np.random.default_rng(30)
    probs = rng.uniform(0, 1, (60, 4))
    labels = (rng.uniform(0, 1, (60, 4)) < probs).astype(float)
    # zlib.crc32(...) ^ seed is the cell seed of the first outcome
    crc = zlib.crc32(b"m|s|icu")
    seed = crc ^ (2**32 - 1)
    cell = experiment.evaluate_scores("m", "s", probs, labels, None, None,
                                      n_boot=12, seed=seed)[0]
    for r, metric, cell_seed in ((cell.auroc, metrics.auroc, 2**32 - 1),
                                 (cell.auprc, metrics.auprc, 2**32)):
        want = _bootstrap_loop(probs[:, 0], labels[:, 0], metric, 12, cell_seed)
        assert _bits([r.point, r.ci_low, r.ci_high]) == _bits(want[:3])
        assert r.n_skipped == want[3]
