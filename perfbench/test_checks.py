"""Each output check passes on correct output and fails on a planted error.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from fedsurg import experiment as exp, metrics  # noqa: E402


def _scores(n=300, seed=0, ties=True):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.3).astype(float)
    s = rng.random(n) + 0.4 * y
    if ties:
        s = np.round(s, 1)          # many tied scores
    return s, y


# --- independent statistics ---------------------------------------------------

def test_pairwise_auroc_counts_pairs():
    s, y = _scores(60)
    pos, neg = s[y == 1], s[y == 0]
    brute = np.mean([(p > q) + 0.5 * (p == q) for p in pos for q in neg])
    assert checks.pairwise_auroc(s, y) == pytest.approx(brute, abs=1e-15)
    assert checks.pairwise_auroc(s, np.zeros_like(y)) is None


def test_tie_block_ap_on_a_hand_example():
    # blocks by score: {0.9: +}, {0.5: +, -}, {0.1: -}
    s = np.array([0.9, 0.5, 0.5, 0.1])
    y = np.array([1, 1, 0, 0])
    assert checks.tie_block_ap(s, y) == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3))
    assert checks.tie_block_ap(s, np.zeros(4)) is None


def test_youden_agrees_with_a_direct_sweep():
    s, y = _scores(80, seed=3)
    thresholds, j = checks.youden(s, y)
    for t, jt in zip(thresholds, j):
        c = checks.confusion(s, y, t)
        assert jt == pytest.approx(c["sensitivity"] + c["specificity"] - 1.0)


# --- cohort-build -------------------------------------------------------------

def _cohort():
    rng = np.random.default_rng(1)
    pids = np.repeat([f"s-p{i:07d}" for i in range(12)], 2)
    first = np.repeat(np.arange(12) * 10, 2)
    return {
        "patient_id": pids,
        "encounter_id": np.array([f"{p}-e{k % 2}" for k, p in enumerate(pids)]),
        "admission_date": first + np.tile([0, 3], 12),
        "continuous": np.where(rng.random((24, 3)) < 0.1, np.nan,
                               rng.normal(size=(24, 3))),
        "outcomes": (rng.random((24, 4)) < 0.2).astype(np.int8),
    }


def _take(cols, idx):
    return {k: v[idx] for k, v in cols.items()}


def _parts(cols):
    return _take(cols, slice(0, 14)), _take(cols, slice(14, 18)), \
        _take(cols, slice(18, 24))


def test_roundtrip_catches_a_changed_value():
    cols = _cohort()
    assert checks.check_roundtrip(cols, {k: v.copy() for k, v in cols.items()}) == []
    bad = {k: v.copy() for k, v in cols.items()}
    bad["continuous"][np.isnan(bad["continuous"])] = 0.0    # missing -> 0
    assert checks.check_roundtrip(cols, bad)
    bad = {k: v.copy() for k, v in cols.items()}
    i = np.flatnonzero(np.isfinite(bad["continuous"]))[0]
    bad["continuous"].flat[i] = np.float32(bad["continuous"].flat[i])  # precision loss
    assert cols["continuous"].flat[i] != bad["continuous"].flat[i]
    assert checks.check_roundtrip(cols, bad)


def test_split_check_passes_a_chronological_patient_split():
    cols = _cohort()
    assert checks.check_split(cols, _parts(cols)) == []


def test_split_check_catches_a_patient_in_two_splits():
    cols = _cohort()
    # cut between the two encounters of patient 6
    parts = _take(cols, slice(0, 13)), _take(cols, slice(13, 18)), \
        _take(cols, slice(18, 24))
    assert any("patient" in p for p in checks.check_split(cols, parts))


def test_split_check_catches_order_and_loss():
    cols = _cohort()
    train, val, test = _parts(cols)
    assert checks.check_split(cols, (val, train, test))            # out of order
    assert checks.check_split(cols, (_take(train, slice(0, 12)), val, test))


def test_feature_check_catches_range_nan_and_index():
    cont = np.random.default_rng(0).random((10, 4))
    cats = [np.arange(10) % 5, np.zeros(10, dtype=np.int64)]
    assert checks.check_features(cont, cats, (5, 2)) == []
    high = cont.copy()
    high[3, 1] = 1.5
    assert checks.check_features(high, cats, (5, 2))
    nan = cont.copy()
    nan[0, 0] = np.nan
    assert checks.check_features(nan, cats, (5, 2))
    assert checks.check_features(cont, [cats[0] + 1, cats[1]], (5, 2))


def test_prevalence_band():
    n, targets = 4000, (0.15, 0.001)
    y = np.zeros((n, 2), dtype=np.int8)
    y[:600, 0] = 1
    y[:4, 1] = 1
    assert checks.check_prevalence(y, targets) == []
    y[:800, 0] = 1                                   # 20% against 15%
    assert checks.check_prevalence(y, targets)
    lo, hi = checks.prevalence_band(n, 0.001)
    assert lo <= 4 <= hi < 30


# --- train-all ----------------------------------------------------------------

def test_params_check():
    params = {"w": np.ones((2, 2)), "b": np.zeros(2)}
    assert checks.check_params(params, "abc", "abc") == []
    assert checks.check_params(params, "abd", "abc")
    params["w"][0, 1] = np.inf
    assert checks.check_params(params, "abc", "abc")


def test_best_check():
    history = [(0.6, 0.5, 0.5, 0.5), (0.7, 0.6, 0.6, 0.5), (0.7, 0.6, 0.5, 0.5)]
    best = float(np.mean(history[1]))
    assert checks.check_best(history, best, 1) == []
    assert checks.check_best(history, best - 1e-9, 1)
    assert checks.check_best(history, best, 2)


def test_rescore_check_and_float32_tolerance():
    s, y = _scores(200, seed=5, ties=False)
    probs = np.column_stack([s, s[::-1]])
    labels = np.column_stack([y, y])
    rescored = checks.val_aurocs(probs, labels)
    history = tuple(float(np.float32(metrics.auroc(probs[:, k], labels[:, k])))
                    for k in range(2))
    assert checks.check_rescore(history, rescored, checks.F32_TOL) == []
    shifted = (history[0] + 1.0 / 2000, history[1])           # one pair flipped
    assert checks.check_rescore(shifted, rescored, checks.F32_TOL)
    assert checks.val_aurocs(probs, np.zeros_like(labels)) == (0.5, 0.5)


def test_control_gap_check():
    rng = np.random.default_rng(2)
    clients = {c: {"w": rng.normal(size=(3, 2))} for c in "abc"}
    server = {"w": sum(c["w"] for c in clients.values()) / 3}
    assert checks.check_control_gap(server, clients) == []
    server["w"] = server["w"] + 1e-9
    assert checks.check_control_gap(server, clients)


# --- evaluate-report ----------------------------------------------------------

def _cell():
    s, y = _scores(400, seed=7)
    vs, vy = _scores(150, seed=8)
    cells = exp.evaluate_scores("m", "site", np.column_stack([s] * 4),
                                np.column_stack([y] * 4), np.column_stack([vs] * 4),
                                np.column_stack([vy] * 4), n_boot=20, seed=1)
    return cells[0].to_dict(), s, y, vs, vy


def test_cell_check_passes_the_program_output():
    cell, s, y, vs, vy = _cell()
    assert checks.check_cell(cell, s, y, vs, vy) == []


@pytest.mark.parametrize("plant", [
    lambda c: c["auroc"].update(point=c["auroc"]["point"] + 1e-9),
    lambda c: c["auprc"].update(point=c["auprc"]["point"] - 1e-9),
    lambda c: c["auroc"].update(point=math.nan),
    lambda c: c["auprc"].update(ci_low=c["auprc"]["ci_high"] + 1e-6),
    lambda c: c["auroc"].update(ci_high=1.01),
    lambda c: c.update(sensitivity=c["sensitivity"] + 1e-9),
    lambda c: c.update(npv=None),
    lambda c: c.update(n_positives=c["n_positives"] + 1),
])
def test_cell_check_catches_a_wrong_field(plant):
    cell, s, y, vs, vy = _cell()
    plant(cell)
    assert checks.check_cell(cell, s, y, vs, vy)


def test_cell_check_catches_a_threshold_that_is_not_youden_best():
    cell, s, y, vs, vy = _cell()
    thresholds, j = checks.youden(vs, vy)
    worse = float(thresholds[np.argmin(j)])
    cell.update(threshold=worse, **checks.confusion(s, y, worse))
    assert any("max J" in p for p in checks.check_cell(cell, s, y, vs, vy))


def test_cell_check_wants_nan_exactly_on_single_class_labels():
    cell, s, y, vs, vy = _cell()
    zeros = np.zeros_like(y)
    cell["n_positives"] = 0
    assert checks.check_cell(cell, s, zeros, vs, vy)   # real numbers, no positives
    for name in ("auroc", "auprc"):
        cell[name] = {"point": math.nan, "ci_low": math.nan, "ci_high": math.nan,
                      "n_skipped": 0}
    assert checks.check_cell(cell, s, zeros, vs, vy) == []


def test_compare_entry_check():
    cells = {("a", "s", "icu"): {"auroc": {"point": 0.8}},
             ("b", "s", "icu"): {"auroc": {"point": 0.7}}}
    entry = {"model_a": "a", "model_b": "b", "site": "s", "outcome": "icu",
             "delta_auroc": 0.8 - 0.7}
    assert checks.check_compare_entry(entry, cells) == []
    assert checks.check_compare_entry(dict(entry, delta_auroc=0.1001), cells)
    assert checks.check_compare_entry(dict(entry, model_b="c"), cells)


# --- spans --------------------------------------------------------------------

def test_patcher_wraps_every_binding_and_restores_them():
    from fedsurg import model, federation, experiment
    original = model.predict
    patcher = spans.Patcher()
    tracer = spans.Tracer()
    assert patcher.wrap(model, "predict", tracer.wrapper("model.predict"))
    assert federation.predict is model.predict is experiment.predict
    assert model.predict is not original
    assert not patcher.wrap(model, "no_such_function", tracer.wrapper("x"))
    patcher.restore()
    assert federation.predict is model.predict is experiment.predict is original


def _span(i, name, start, end, parent=None, thread=0):
    return spans.Span(i, name, start, end, parent, thread, 0, False)


def test_self_time_subtracts_direct_children():
    recorded = [_span(0, "a", 0.0, 10.0), _span(1, "b", 1.0, 4.0, parent=0),
                _span(2, "c", 2.0, 3.0, parent=1), _span(3, "b", 5.0, 6.0, parent=0)]
    own = spans.self_times(recorded)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_federation_split_adds_up_to_the_wall():
    main, w1, w2 = 0, 1, 2
    recorded = [
        _span(0, "federation.run", 0.0, 10.0, thread=main),
        _span(1, "model.local_train", 1.0, 4.0, thread=w1),
        _span(2, "model.local_train", 2.0, 5.0, thread=w2),
        _span(3, "wire.encode", 5.0, 5.5, thread=w1),
        _span(4, "federation.aggregate", 6.0, 7.0, parent=0, thread=main),
        _span(5, "wire.decode", 6.5, 7.5, parent=0, thread=main),
    ]
    split = spans.federation_split(recorded, main)
    assert split["site"] == 4.0 and split["site_busy"] == 6.0
    assert split["aggregate"] == 1.0 and split["wire"] == 1.0
    assert split["unaccounted"] == 4.0
    assert split["site"] + split["aggregate"] + split["wire"] + \
        split["unaccounted"] == split["wall"]
