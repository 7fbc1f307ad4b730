"""Chronological split properties and the fit/transform preprocessor."""

import numpy as np
import pytest

from fedsurg import cohort as C
from fedsurg import preprocess as P


SPEC = C.FeatureSpec(n_continuous=6, n_binary=3, hc_vocab_sizes=(12, 5))


def _cohort(n_patients=600, seed=3, site_name="siteP", **kw):
    cfg = C.SiteConfig(site_name=site_name, n_patients=n_patients,
                       target_prevalence=(0.15, 0.06, 0.10, 0.02), **kw)
    truth = C.make_ground_truth(SPEC, seed)
    return C.generate_site(cfg, SPEC, truth, seed, mc_samples=10_000)[0]


@pytest.fixture(scope="module")
def cohort():
    return _cohort()


def test_split_fractions_within_tolerance(cohort):
    train, val, test = P.chronological_split(cohort)
    n = len(cohort)
    assert len(train) + len(val) + len(test) == n
    assert abs(len(train) / n - 0.60) < 0.02
    assert abs(len(val) / n - 0.10) < 0.02
    assert abs(len(test) / n - 0.30) < 0.02


def test_split_groups_patients(cohort):
    parts = P.chronological_split(cohort)
    owner: dict[str, int] = {}
    for i, part in enumerate(parts):
        for pid in part.patient_id.tolist():
            assert owner.setdefault(pid, i) == i


def test_split_is_chronological_by_first_admission(cohort):
    train, val, test = P.chronological_split(cohort)

    def first_dates(part):
        firsts: dict[str, int] = {}
        for pid, day in zip(part.patient_id.tolist(),
                            part.admission_date.tolist()):
            firsts[pid] = min(firsts.get(pid, day), day)
        return firsts.values()

    assert max(first_dates(train)) <= min(first_dates(val))
    assert max(first_dates(val)) <= min(first_dates(test))


def test_split_rejects_tiny_cohorts():
    c = _cohort()
    with pytest.raises(P.SplitError):
        P.chronological_split(c.take([0]))
    with pytest.raises(P.SplitError):
        P.chronological_split(c.take([]))


def test_fit_percentile_and_median_oracle(cohort):
    pp = P.Preprocessor(SPEC.hc_vocab_sizes).fit(cohort)
    cont = cohort.continuous
    assert tuple(pp.continuous) == P.CONTINUOUS_FIELDS
    for k in P.CONTINUOUS_FIELDS:
        assert pp.continuous[k].dtype == np.float64
        assert pp.continuous[k].shape == (SPEC.n_continuous,)
    for i in range(SPEC.n_continuous):
        s = {k: v[i] for k, v in pp.continuous.items()}
        col = cont[:, i]
        col = col[~np.isnan(col)]
        lo, hi = np.percentile(col, [1.0, 99.0])
        assert s["clip_low"] == pytest.approx(lo, abs=1e-12)
        assert s["clip_high"] == pytest.approx(hi, abs=1e-12)
        clipped = np.clip(col, lo, hi)
        assert s["median"] == pytest.approx(float(np.median(clipped)), abs=1e-12)
        assert s["scale_min"] == pytest.approx(float(clipped.min()), abs=1e-12)
        assert s["scale_max"] == pytest.approx(float(clipped.max()), abs=1e-12)


def test_transform_output_ranges(cohort):
    pp = P.Preprocessor(SPEC.hc_vocab_sizes, surgeon_vocab_size=50).fit(cohort)
    fm = pp.transform(cohort)
    assert fm.continuous.shape == (len(cohort), SPEC.n_continuous)
    assert np.all((fm.continuous >= 0.0) & (fm.continuous <= 1.0))
    assert not np.isnan(fm.continuous).any()
    assert set(np.unique(fm.binary)) <= {0.0, 1.0}
    for j, idx in enumerate(fm.high_card):
        assert idx.min() >= 0 and idx.max() < SPEC.hc_vocab_sizes[j]
    assert fm.surgeon.max() <= 50
    assert np.array_equal(fm.labels, cohort.outcomes.astype(np.float64))


def test_transform_imputes_median():
    cohort = _cohort(missing_rate=0.0)
    pp = P.Preprocessor(SPEC.hc_vocab_sizes).fit(cohort)
    holed = cohort.take([0])
    holed.continuous[0, 2] = np.nan
    assert not np.isnan(cohort.continuous[0, 2])
    fm = pp.transform(holed)
    s = {k: v[2] for k, v in pp.continuous.items()}
    want = (s["median"] - s["scale_min"]) / (s["scale_max"] - s["scale_min"])
    assert fm.continuous[0, 2] == pytest.approx(want, abs=1e-12)


def test_category_mapping_code_plus_one_and_unseen_zero(cohort):
    pp = P.Preprocessor(SPEC.hc_vocab_sizes).fit(cohort)
    fm = pp.transform(cohort)
    for j in range(len(SPEC.hc_vocab_sizes)):
        for r, code in enumerate(cohort.categorical[:, j].tolist()):
            if code == -1 or code not in pp.cat_seen[j]:
                assert fm.high_card[j][r] == 0
            else:
                assert fm.high_card[j][r] == code + 1


def test_unfitted_preprocessor_raises(cohort):
    pp = P.Preprocessor(SPEC.hc_vocab_sizes)
    with pytest.raises(P.FitError):
        pp.transform(cohort)
    with pytest.raises(P.FitError):
        pp.scaler_stats()
    with pytest.raises(P.FitError):
        pp.fit(cohort.take([]))


def _fit_state(pp):
    """Everything a fit holds, with each array as its bytes."""
    return (pp.hc_vocab_sizes, pp.surgeon_vocab_size,
            {k: v.tobytes() for k, v in pp.continuous.items()},
            [sorted(s) for s in pp.cat_seen], sorted(pp.surgeon_seen))


def test_rescaled_changes_scaling_only(cohort):
    pp1 = P.Preprocessor(SPEC.hc_vocab_sizes).fit(cohort)
    mins, maxs = pp1.scaler_stats()
    before = _fit_state(pp1)
    pp2 = pp1.rescaled(mins - 1.0, maxs + 1.0)
    assert _fit_state(pp1) == before  # the fit itself is unchanged
    m2, x2 = pp2.scaler_stats()
    assert np.array_equal(m2, mins - 1.0) and np.array_equal(x2, maxs + 1.0)
    for k in ("clip_low", "clip_high", "median"):
        assert np.array_equal(pp1.continuous[k], pp2.continuous[k])
    assert (pp2.cat_seen, pp2.surgeon_seen) == (pp1.cat_seen, pp1.surgeon_seen)
    fm1 = pp1.transform(cohort)
    fm2 = pp2.transform(cohort)
    assert not np.allclose(fm1.continuous, fm2.continuous)


def test_rescaled_rejects_a_range_of_the_wrong_width(cohort):
    pp = P.Preprocessor(SPEC.hc_vocab_sizes).fit(cohort)
    mins, maxs = pp.scaler_stats()
    for bad in ((mins[:-1], maxs), (mins, maxs[:-1]),
                (np.append(mins, 0.0), np.append(maxs, 1.0))):
        with pytest.raises(P.FitError, match="6 continuous features"):
            pp.rescaled(*bad)
    with pytest.raises(P.FitError, match="not fitted"):
        P.Preprocessor(SPEC.hc_vocab_sizes).rescaled(mins, maxs)


def test_shared_scaler_envelope_oracle():
    a = (np.array([0.0, -1.0]), np.array([1.0, 2.0]))
    b = (np.array([-0.5, 0.1]), np.array([0.5, 3.0]))
    mins, maxs = P.shared_scaler([a, b])
    assert np.array_equal(mins, [-0.5, -1.0])
    assert np.array_equal(maxs, [1.0, 3.0])
    # each site's range is rounded to float32 before the envelope
    mins, maxs = P.shared_scaler([b])
    assert mins[1] == float(np.float32(0.1)) != 0.1
    with pytest.raises(ValueError):
        P.shared_scaler([a, (np.zeros(3), np.ones(3))])
    with pytest.raises(ValueError):
        P.shared_scaler([])


def test_shared_scaler_equals_pooled_minmax():
    """Envelope of per-site clipped min/max == pooled min/max when clip
    bounds do not bite (hard bounds trick: clip at +/- inf is impossible,
    so use identical percentiles by pooling the same data)."""
    a, b = _cohort(seed=5), _cohort(n_patients=500, seed=5, site_name="siteQ")
    ppa = P.Preprocessor(SPEC.hc_vocab_sizes).fit(a)
    ppb = P.Preprocessor(SPEC.hc_vocab_sizes).fit(b)
    mins, maxs = P.shared_scaler([ppa.scaler_stats(), ppb.scaler_stats()])
    # oracle: clipped columns pooled, then min/max
    for i in range(SPEC.n_continuous):
        cols = []
        for pp, c in ((ppa, a), (ppb, b)):
            col = c.continuous[:, i]
            col = col[~np.isnan(col)]
            s = pp.continuous
            cols.append(np.clip(col, s["clip_low"][i], s["clip_high"][i]))
        pooled = np.concatenate(cols)
        # float32 rounding is monotone, so it commutes with min and max
        assert mins[i] == np.float32(pooled.min())
        assert maxs[i] == np.float32(pooled.max())


def _split_oracle(cohort, fractions=(0.60, 0.10, 0.30)):
    """Encounter ids of train/val/test, patient group by patient group."""
    by_patient: dict[str, list] = {}
    for rec in cohort.records:
        by_patient.setdefault(rec.patient_id, []).append(rec)
    ordered = sorted(by_patient.items(),
                     key=lambda kv: (min(r.admission_date for r in kv[1]), kv[0]))
    cum = np.cumsum([len(recs) for _, recs in ordered])
    n_pat, total = len(ordered), cum[-1]
    t_cand = np.arange(1, n_pat - 1)
    t = int(t_cand[np.argmin(np.abs(cum[t_cand - 1] - fractions[0] * total))])
    v_cand = np.arange(t + 1, n_pat)
    v = int(v_cand[np.argmin(np.abs(
        cum[v_cand - 1] - (fractions[0] + fractions[1]) * total))])

    def collect(items):
        return [r.encounter_id for _, rs in items
                for r in sorted(rs, key=lambda r: (r.admission_date, r.encounter_id))]

    return collect(ordered[:t]), collect(ordered[t:v]), collect(ordered[v:])


def _fit_oracle(train, hc_vocab_sizes, override=None):
    """Column-by-column percentile clip, median and min/max, and the seen
    category and surgeon sets, from the rows."""
    cont = np.stack([r.continuous for r in train.records])
    stats = []
    for i in range(cont.shape[1]):
        col = cont[:, i]
        col = col[~np.isnan(col)]
        col = col + 0.0   # every zero +0.0
        if col.size == 0:
            raise P.FitError(f"cont_{i:02d}")
        lo, hi = np.percentile(col, [1.0, 99.0])
        clipped = np.clip(col, lo, hi)
        if override is not None:
            smin, smax = float(override[0][i]), float(override[1][i])
        else:
            smin, smax = float(clipped.min()), float(clipped.max())
        stats.append((float(lo), float(hi), float(np.median(clipped)), smin, smax))
    cat_seen = [set() for _ in hc_vocab_sizes]
    surgeon_seen = set()
    for rec in train.records:
        for j, code in enumerate(rec.categorical):
            if code is not None:
                cat_seen[j].add(code)
        surgeon_seen.add(rec.surgeon_id)
    return stats, cat_seen, surgeon_seen


def _transform_oracle(cohort, stats, cat_seen, surgeon_seen, hc_vocab_sizes,
                      surgeon_vocab_size):
    records = cohort.records
    cont = np.stack([r.continuous for r in records])
    out = np.empty_like(cont)
    for i, (lo, hi, median, smin, smax) in enumerate(stats):
        col = cont[:, i].copy()
        col[np.isnan(col)] = median
        col = np.clip(col, lo, hi)
        span = smax - smin
        out[:, i] = 0.0 if span <= 0 else np.clip((col - smin) / span, 0.0, 1.0)
    high_card = []
    for j, vocab in enumerate(hc_vocab_sizes):
        idx = np.zeros(len(records), dtype=np.int64)
        for r, rec in enumerate(records):
            code = rec.categorical[j]
            if code is not None and code in cat_seen[j] and code + 1 < vocab:
                idx[r] = code + 1
        high_card.append(idx)
    surgeon = np.array([r.surgeon_id + 1 if r.surgeon_id in surgeon_seen
                        and r.surgeon_id < surgeon_vocab_size else 0
                        for r in records], dtype=np.int64)
    return out, high_card, surgeon


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _fit_bits(pp) -> bytes:
    """The continuous fit as (column, statistic) float64 bytes, the layout
    of ``_fit_oracle``'s stats."""
    return _bits(np.column_stack([pp.continuous[k] for k in P.CONTINUOUS_FIELDS]))


def _assert_matches_oracles(train, others, hc_vocab_sizes, surgeon_vocab_size,
                            override=None):
    pp = P.Preprocessor(hc_vocab_sizes, surgeon_vocab_size).fit(train)
    if override is not None:
        pp = pp.rescaled(*override)
    stats, cat_seen, surgeon_seen = _fit_oracle(train, hc_vocab_sizes, override)
    assert _fit_bits(pp) == _bits(stats)
    assert pp.cat_seen == cat_seen and pp.surgeon_seen == surgeon_seen
    for part in [train, *others]:
        fm = pp.transform(part)
        cont, high_card, surgeon = _transform_oracle(
            part, stats, cat_seen, surgeon_seen, hc_vocab_sizes,
            surgeon_vocab_size)
        assert fm.continuous.tobytes() == cont.tobytes()
        for got, want in zip(fm.high_card, high_card, strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(fm.surgeon, surgeon)
        assert np.array_equal(fm.binary, part.binary.astype(np.float64))
        assert np.array_equal(fm.labels, part.outcomes.astype(np.float64))


def test_split_matches_record_oracle():
    # few dates, so first admissions and admissions within a patient tie;
    # rows shuffled, so ties must break on the patient and encounter ids
    for seed, n_patients in ((3, 600), (4, 40), (5, 7)):
        cohort = _cohort(n_patients=n_patients, seed=seed,
                         encounters_mean=12.0, date_range=(15340, 15350))
        rng = np.random.default_rng(seed)
        cohort = cohort.take(rng.permutation(len(cohort)))
        parts = P.chronological_split(cohort)
        want = _split_oracle(cohort)
        for part, ids in zip(parts, want, strict=True):
            assert part.encounter_id.tolist() == ids
            assert part.site_name == cohort.site_name


def test_fit_transform_match_record_oracle():
    # NaN-holed columns, ties from a coarse grid, tiny cohorts
    cohort = _cohort(missing_rate=0.3)
    train, val, test = P.chronological_split(cohort)
    _assert_matches_oracles(train, [val, test], SPEC.hc_vocab_sizes, 50)
    coarse = _cohort(missing_rate=0.0)
    coarse.continuous[:] = np.round(coarse.continuous, 0)
    # zeros of both signs reach the lerp, the median and the min/max
    zeros = np.flatnonzero(coarse.continuous == 0.0)
    coarse.continuous.flat[zeros[::2]] = -0.0
    coarse.continuous[1::3, 1] = np.nan   # m = 1 at n = 2
    for n in (1, 2, 3, 4, 101, len(coarse)):
        _assert_matches_oracles(coarse.take(np.arange(n)), [coarse],
                                SPEC.hc_vocab_sizes, 50)
    # with mixed zeros too, the stats do not depend on the row order
    shuffled = coarse.take(np.random.default_rng(0).permutation(len(coarse)))
    fits = [P.Preprocessor(SPEC.hc_vocab_sizes).fit(c) for c in (coarse, shuffled)]
    assert _fit_bits(fits[0]) == _fit_bits(fits[1])
    # a degenerate (zero-span) column, and a scaler override
    flat = train.take(np.arange(len(train)))
    flat.continuous[:, 3] = 0.25
    _assert_matches_oracles(flat, [test], SPEC.hc_vocab_sizes, 50)
    mins, maxs = P.Preprocessor(SPEC.hc_vocab_sizes).fit(train).scaler_stats()
    _assert_matches_oracles(train, [test], SPEC.hc_vocab_sizes, 50,
                            override=(mins - 0.25, maxs.astype(np.float32)))


def test_transform_unseen_codes_and_surgeons_match_oracle():
    cohort = _cohort(missing_rate=0.1)
    train, val, test = P.chronological_split(cohort)
    # train sees only even codes and surgeons below 20
    train.categorical[train.categorical % 2 == 1] = -1
    train.surgeon_id[:] = train.surgeon_id % 20
    # foreign codes: the last in-vocab code (code + 1 == vocab), codes past
    # the vocabulary, surgeons past the surgeon vocabulary
    test.categorical[::3, 0] = SPEC.hc_vocab_sizes[0] - 1
    test.categorical[1::3, 1] = 999
    test.surgeon_id[::4] = 60
    _assert_matches_oracles(train, [val, test], SPEC.hc_vocab_sizes, 50)
    _assert_matches_oracles(train, [test], SPEC.hc_vocab_sizes, 10)


def test_fit_all_missing_column_raises():
    cohort = _cohort()
    holed = cohort.take(np.arange(len(cohort)))
    holed.continuous[:, 4] = np.nan
    with pytest.raises(P.FitError, match="cont_04"):
        P.Preprocessor(SPEC.hc_vocab_sizes).fit(holed)
    with pytest.raises(P.FitError, match="cont_04"):
        _fit_oracle(holed, SPEC.hc_vocab_sizes)
