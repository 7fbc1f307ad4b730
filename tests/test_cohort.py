"""Synthetic cohort generation: determinism, exclusions, prevalence
calibration, the CSV round trip and the columnar layout checked against a
record-by-record oracle."""

import csv
import hashlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from fedsurg import cohort as C


SPEC = C.FeatureSpec(n_continuous=8, n_binary=4, hc_vocab_sizes=(15, 6, 4))


def _cfg(**kw):
    base = dict(site_name="siteA", n_patients=400,
                target_prevalence=(0.15, 0.06, 0.10, 0.02))
    base.update(kw)
    return C.SiteConfig(**base)


def _gen(**kw):
    truth = C.make_ground_truth(SPEC, 11)
    return C.generate_site(_cfg(**kw), SPEC, truth, 11, mc_samples=20_000)


def assert_cohorts_identical(a: C.Cohort, b: C.Cohort):
    """Every column equal in dtype kind, shape and value (NaN == NaN)."""
    assert a.site_name == b.site_name
    for name in C._COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype.kind == y.dtype.kind, name
        assert x.shape == y.shape, name
        assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), name


def test_generation_is_deterministic():
    c1, r1 = _gen()
    c2, r2 = _gen()
    assert r1 == r2
    assert_cohorts_identical(c1, c2)


def test_different_sites_differ():
    truth = C.make_ground_truth(SPEC, 11)
    a, _ = C.generate_site(_cfg(), SPEC, truth, 11, mc_samples=5_000)
    b, _ = C.generate_site(_cfg(site_name="siteB"), SPEC, truth, 11,
                           mc_samples=5_000)
    # covariate shift moves the per-feature means between sites
    assert np.max(np.abs(np.nanmean(a.continuous, 0)
                         - np.nanmean(b.continuous, 0))) > 0.1


def test_exclusions_applied_and_counted():
    cohort, report = _gen(esrd_rate=0.2, no_surgery_rate=0.2)
    ex = report.exclusions
    assert ex.n_input == ex.n_under_18 + ex.n_esrd + ex.n_no_surgery + ex.n_retained
    assert ex.n_esrd > 0 and ex.n_no_surgery > 0 and ex.n_under_18 > 0
    assert ex.n_retained == len(cohort)
    assert (cohort.age >= 18.0).all()
    assert not cohort.esrd.any()
    # every retained encounter carries its one index surgery
    assert (cohort.procedure_code >= 0).all()
    assert (cohort.surgery_date >= cohort.admission_date).all()
    assert (cohort.surgery_date < cohort.admission_date + 5).all()


def test_index_surgery_selection_rules():
    # encounter 0: max work units wins, then the earlier date, then the
    # lower code; encounter 1 has no surgery; encounter 2 has one
    enc = np.array([0, 0, 0, 0, 2])
    code = np.array([5, 3, 9, 1, 7])
    units = np.array([10.0, 22.0, 22.0, 22.0, 1.0])
    date = np.array([100, 120, 110, 110, 50])
    chosen = C.select_index_surgeries(enc, code, units, date, 3)
    assert chosen.tolist() == [3, -1, 4]

    # against the per-encounter rule min(-units, date, code) on random ties
    rng = np.random.default_rng(5)
    n_enc, n_surg = 60, 200
    enc = np.sort(rng.integers(0, n_enc, n_surg))
    code = rng.integers(0, 4, n_surg)
    units = rng.choice([1.5, 2.0, 7.25], n_surg)
    date = rng.integers(0, 3, n_surg)
    chosen = C.select_index_surgeries(enc, code, units, date, n_enc)
    for e in range(n_enc):
        mine = np.flatnonzero(enc == e)
        if not mine.size:
            assert chosen[e] == -1
            continue
        want = min(mine, key=lambda s: (-units[s], date[s], code[s]))
        assert (units[chosen[e]], date[chosen[e]], code[chosen[e]]) == (
            units[want], date[want], code[want])


def _bisect_oracle(target, scores, lo=-20.0, hi=20.0):
    """The fixed-bracket, fixed-100-step bisection."""
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if expit(scores + mid).mean() < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_calibrate_intercept_oracle():
    rng = np.random.default_rng(0)
    scores = rng.normal(0.0, 2.0, 50_000)
    for target in (0.02, 0.10, 0.30):
        b = C.calibrate_intercept(target, scores)
        assert expit(scores + b).mean() == pytest.approx(target, abs=1e-9)
        # stopping once the bisection stalls leaves the intercept unchanged
        assert b == _bisect_oracle(target, scores)
    with pytest.raises(C.CalibrationError):
        C.calibrate_intercept(0.5, scores, bracket=(-30.0, -20.0))
    with pytest.raises(C.CalibrationError):
        C.calibrate_intercept(1.5, scores)


def test_calibrate_intercept_widens_bracket_for_rare_targets():
    # the acceptance config's heterogeneity at seed 24 pushes partner4's
    # scores so high that 0.1% mortality needs an intercept below -20
    spec = C.FeatureSpec()
    truth = C.make_ground_truth(spec, 24)
    cfg = C.SiteConfig(site_name="partner4", n_patients=1200,
                       target_prevalence=(0.02, 0.01, 0.01, 0.001),
                       covariate_shift=1.5, concept_shift=0.15,
                       scale_shift=0.3, surgeon_effect=0.5)
    _, report = C.generate_site(cfg, spec, truth, 24, mc_samples=20_000)
    assert report.intercepts[3] < -20.0
    scores = np.random.default_rng(1).normal(30.0, 1.0, 20_000)
    b = C.calibrate_intercept(0.01, scores)
    assert expit(scores + b).mean() == pytest.approx(0.01, abs=1e-9)


def test_prevalence_near_target():
    cohort, _ = _gen(n_patients=3000)
    prev = cohort.prevalence()
    # finite-sample band, looser than the acceptance gate at n=50k
    for k, target in enumerate((0.15, 0.06, 0.10, 0.02)):
        assert abs(prev[k] - target) < 0.03, C.OUTCOME_NAMES[k]


def test_missingness_blanks_features_only():
    cohort, _ = _gen(missing_rate=0.3)
    n_nan = int(np.isnan(cohort.continuous).sum())
    assert 0.2 < n_nan / cohort.continuous.size < 0.4
    assert (cohort.categorical == -1).sum() > 0
    assert set(np.unique(cohort.outcomes)) <= {0, 1}
    assert set(np.unique(cohort.binary)) <= {0, 1}
    # the surgery record is never blanked
    assert (cohort.procedure_code >= 0).all()


def test_first_category_is_procedure_code():
    cohort, _ = _gen(missing_rate=0.0)
    assert np.array_equal(cohort.categorical[:, 0], cohort.procedure_code)
    for j, vocab in enumerate(SPEC.hc_vocab_sizes):
        assert (cohort.categorical[:, j] >= 0).all()
        assert (cohort.categorical[:, j] < vocab).all()


def test_encounters_sorted_within_patient():
    cohort, _ = _gen()
    by_patient: dict[str, list[int]] = {}
    for pid, day in zip(cohort.patient_id.tolist(), cohort.admission_date.tolist()):
        by_patient.setdefault(pid, []).append(day)
    assert any(len(v) > 1 for v in by_patient.values())
    for dates in by_patient.values():
        assert dates == sorted(dates)


def _copy_then_parse(monkeypatch, path, **kw):
    """The cohort at ``path`` read from its columnar copy with the parser
    made to fail, then parsed with the copy unlinked."""
    copy = Path(C._copy_path(path))
    assert copy.exists()
    with monkeypatch.context() as m:
        m.setattr(C, "_parse_csv", _no_parse)
        yield C.cohort_from_csv(path, **kw)
    copy.unlink()
    yield C.cohort_from_csv(path, **kw)


def _no_parse(path):
    raise AssertionError(f"{path} was parsed although its copy is current")


def test_csv_roundtrip_lossless(tmp_path, monkeypatch):
    cohort, _ = _gen(n_patients=300, missing_rate=0.2)
    assert len(cohort) > C._CSV_CHUNK   # read back in more than one chunk
    assert np.isnan(cohort.continuous).any() and (cohort.categorical < 0).any()
    path = tmp_path / "c.csv"
    C.cohort_to_csv(cohort, path)
    for back in _copy_then_parse(monkeypatch, path):
        assert_cohorts_identical(cohort, back)
        # floats come back bit for bit
        for name in ("age", "work_units", "continuous"):
            assert getattr(back, name).tobytes() == getattr(cohort, name).tobytes()
        C.cohort_to_csv(back, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_csv_roundtrip_of_empty_and_quoted_cohorts(tmp_path, monkeypatch):
    cohort, _ = _gen(n_patients=40, missing_rate=0.2)
    empty = cohort.take([])
    C.cohort_to_csv(empty, tmp_path / "empty.csv")
    for back in _copy_then_parse(monkeypatch, tmp_path / "empty.csv",
                                 site_name="siteA"):
        assert_cohorts_identical(empty, back)
    # a comma, a quote or a newline in the site name makes the writer quote
    # the ids; the other line breaks of str.splitlines it leaves unquoted
    for prefix in ('si,"te-', "line\nbreak\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029-"):
        odd = C.Cohort.concat(prefix + "siteA", [cohort])
        odd.patient_id = np.char.add(prefix, odd.patient_id)
        odd.encounter_id = np.char.add(prefix, odd.encounter_id)
        C.cohort_to_csv(odd, tmp_path / "odd.csv")
        assert '"' in (tmp_path / "odd.csv").read_text(encoding="utf-8")
        for back in _copy_then_parse(monkeypatch, tmp_path / "odd.csv"):
            assert_cohorts_identical(odd, back)
    # a row cut short is an error, not a shifted column, also while the
    # CSV's columnar copy is in place
    C.cohort_to_csv(cohort, tmp_path / "plain.csv")
    for name in ("odd.csv", "plain.csv"):
        text = (tmp_path / name).read_text(encoding="utf-8").rstrip()
        (tmp_path / "cut.csv").write_text(text[:text.rindex(",")] + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="cells"):
            C.cohort_from_csv(tmp_path / "cut.csv")
    plain = tmp_path / "plain.csv"
    plain.write_bytes(plain.read_bytes().rstrip()[:-2] + b"\r\n")
    with pytest.raises(ValueError, match="cells"):
        C.cohort_from_csv(plain)


def assert_cohorts_bitwise(a: C.Cohort, b: C.Cohort):
    """Every column equal in dtype (string width included), shape and bytes."""
    assert a.site_name == b.site_name
    for name in C._COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\x00"), max_size=6)
_FLOATS = st.floats() | st.sampled_from([0.0, -0.0, np.nan, -np.nan])


@st.composite
def _odd_cohorts(draw):
    """Cohorts with the values a CSV writes differently from how it holds
    them: NaN of either sign, -0.0, negative categories, int64 labels and
    flags that wrap to int8, ids to quote; random missingness on top, and
    maybe a subset taken so that the ids are narrower than their dtype."""
    n = draw(st.integers(0, 12))
    n_cont, n_bin, n_cat = draw(st.tuples(*[st.integers(0, 3)] * 3))

    def column(elements, dtype, width=None):
        size = n if width is None else n * width
        values = draw(st.lists(elements, min_size=size, max_size=size))
        col = np.array(values, dtype=dtype)
        return col if width is None else col.reshape(n, width)

    site = draw(_TEXT)
    ids = st.builds(lambda s: site + "-p" + s, _TEXT)
    days = st.integers(-1000, 40_000)
    ints = st.integers(-2**40, 2**40)
    width = len(C.OUTCOME_NAMES)
    esrd = (column(st.sampled_from([0, 1, 2, -1, 256]), np.int64)
            if draw(st.booleans()) else column(st.booleans(), bool))
    binary = (column(st.integers(-300, 300), np.int64, n_bin)
              if draw(st.booleans()) else column(st.integers(-128, 127), np.int8, n_bin))
    outcomes = (column(st.integers(-300, 300), np.int64, width)
                if draw(st.booleans()) else column(st.integers(0, 1), np.int8, width))
    cohort = C.Cohort(
        site, column(ids, str), column(ids, str), column(days, np.int64),
        column(_FLOATS, np.float64), esrd, column(ints, np.int64),
        column(ints, np.int64), column(_FLOATS, np.float64),
        column(days, np.int64), column(_FLOATS, np.float64, n_cont), binary,
        column(st.integers(-7, 20), np.int64, n_cat), outcomes)
    rate = draw(st.sampled_from([0.0, 0.3, 0.9]))
    cohort = C.inject_missingness(cohort, rate, draw(st.integers(0, 9)))
    if draw(st.booleans()):
        cohort = cohort.take(draw(st.lists(st.integers(0, max(n - 1, 0)),
                                           max_size=n)) if n else [])
    return cohort


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_odd_cohorts())
def test_columnar_copy_reads_as_the_parse_bitwise(cohort):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.csv"
        C.cohort_to_csv(cohort, path)
        assert C._read_copy(C._copy_path(path), path.read_bytes()) is not None
        columnar = C.cohort_from_csv(path)
        Path(C._copy_path(path)).unlink()
        assert_cohorts_bitwise(columnar, C.cohort_from_csv(path))


def test_columnar_copy_edge_cases_read_as_the_parse(tmp_path, monkeypatch):
    cohort, _ = _gen(n_patients=40, missing_rate=0.2)
    cohort.age[:4] = [-0.0, -np.nan, np.nan, np.inf]
    cohort.continuous[0, :2] = [-0.0, -np.nan]
    cohort.categorical[1, 0] = -7
    # quoted ids, one longer than the rest, and int64 flags and labels
    wide = C.Cohort.concat('si,"te', [cohort])
    wide.patient_id = np.char.add('si,"te-', np.char.add(
        wide.patient_id, ["x" * 9] + [""] * (len(wide) - 1)))
    wide.binary = cohort.binary.astype(np.int64) + 256
    wide.esrd = np.arange(len(cohort)) * 128
    narrow = wide.take(np.arange(1, 9))
    assert narrow.patient_id.dtype.itemsize > 4 * max(map(len, narrow.patient_id.tolist()))
    cases = {"empty": cohort.take([]), "generated": cohort, "wide": wide,
             "a subset of the wide ids": narrow}
    for what, case in cases.items():
        path = tmp_path / "c.csv"
        C.cohort_to_csv(case, path)
        columnar, parsed = _copy_then_parse(monkeypatch, path, site_name=what)
        assert_cohorts_bitwise(columnar, parsed)
    assert parsed.binary.max() < 128 and set(parsed.esrd.tolist()) == {False, True}


def _npy(*arrays) -> bytes:
    buf = io.BytesIO()
    for a in arrays:
        np.save(buf, a)
    return buf.getvalue()


def test_stale_or_damaged_copy_reads_as_the_parse(tmp_path):
    cohort, _ = _gen(n_patients=60, missing_rate=0.2)
    path = tmp_path / "c.csv"
    C.cohort_to_csv(cohort, path)
    copy = Path(C._copy_path(path))
    whole = copy.read_bytes()
    copy.unlink()
    parsed = C.cohort_from_csv(path)          # the copy missing
    digest = np.frombuffer(hashlib.sha256(path.read_bytes()).digest(), np.uint8)
    cols = [getattr(parsed, name) for name in C._COLUMNS]
    base = len(C._BASE_COLUMNS)
    damaged = {
        "empty": b"",
        "garbage": bytes(range(256)) * 64,
        "cut in the digest": whole[:100],
        "cut in a column": whole[:len(whole) // 2],
        "one byte short": whole[:-1],
        "a byte past the end": whole + b"\0",
        "stale": _npy(np.zeros(32, np.uint8), *cols),
        "a column missing": _npy(digest, *cols[:-1]),
        "a wrong dtype": _npy(digest, *cols[:3], cols[3].astype(np.float32), *cols[4:]),
        "numbers for ids": _npy(digest, np.arange(len(parsed)), *cols[1:]),
        "a wider string": _npy(digest, cols[0].astype("U99"), *cols[1:]),
        "a byte-swapped string": _npy(digest, cols[0].astype(">U99"), *cols[1:]),
        "a wrong ndim": _npy(digest, *cols[:-1], cols[-1].ravel()),
        "a pickled column": _npy(digest, cols[0].astype(object), *cols[1:]),
        "Fortran order": _npy(digest, *cols[:base], np.asfortranarray(cols[base]),
                              *cols[base + 1:]),
        "rows disagree": _npy(digest, cols[0][:-1], *cols[1:]),
        "widths differ": _npy(digest, *cols[:base], cols[base][:, 1:],
                              np.hstack([cols[base + 1], cols[base + 1][:, :1]]),
                              *cols[base + 2:]),
        "a negative dim": _npy(digest, *cols).replace(
            b"(%d,), }" % len(parsed), b"(-%d,),}" % len(parsed), 1),
    }
    assert damaged["a negative dim"] != _npy(digest, *cols)
    for what, data in damaged.items():
        copy.write_bytes(data)
        assert C._read_copy(copy, path.read_bytes()) is None, what
        assert_cohorts_bitwise(C.cohort_from_csv(path), parsed)
    copy.write_bytes(whole)
    assert C._read_copy(copy, path.read_bytes()) is not None


def test_csv_edited_after_writing_reads_as_edited(tmp_path):
    cohort, _ = _gen(n_patients=40, missing_rate=0.2)
    path = tmp_path / "c.csv"
    C.cohort_to_csv(cohort, path)
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[1].split(b",")
    assert cells[3] == repr(float(cohort.age[0])).encode()
    cells[3] = b"99.5"
    lines[1] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    back = C.cohort_from_csv(path)
    assert back.age[0] == 99.5
    assert np.array_equal(back.age[1:], cohort.age[1:])
    Path(C._copy_path(path)).unlink()
    assert_cohorts_bitwise(back, C.cohort_from_csv(path))


def test_missing_csv_is_an_error_even_with_its_copy(tmp_path):
    cohort, _ = _gen(n_patients=20)
    path = tmp_path / "c.csv"
    C.cohort_to_csv(cohort, path)
    path.unlink()
    assert Path(C._copy_path(path)).exists()
    with pytest.raises(FileNotFoundError):
        C.cohort_from_csv(path)


def test_csv_writes_one_row_per_encounter(tmp_path):
    cohort, _ = _gen(n_patients=30, missing_rate=0.3)
    path = tmp_path / "c.csv"
    C.cohort_to_csv(cohort, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert len(lines) == len(cohort) + 1
    assert header[:3] == ["patient_id", "encounter_id", "admission_date"]
    assert header[-4:] == list(C.OUTCOME_NAMES)
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == cohort.patient_id[i]
        assert cells[3] == repr(float(cohort.age[i]))
        cont = cells[9:9 + SPEC.n_continuous]
        for v, cell in zip(cohort.continuous[i].tolist(), cont):
            assert cell == ("" if np.isnan(v) else repr(v))
        cats = cells[9 + SPEC.n_continuous + SPEC.n_binary:-4]
        assert cats == ["" if c < 0 else str(c) for c in cohort.categorical[i]]


# --- the bulk number text, against repr and the csv.writer writer ------------

def _repr_rows(block, nan_text):
    block = np.asarray(block, dtype=np.float64)
    return [",".join(nan_text if math.isnan(v) else repr(v) for v in row)
            for row in (block[:, None] if block.ndim == 1 else block).tolist()]


# where repr's notation turns to exponents, and values either side of it
_BOUNDS = [1e-4, 1e16, 1e-5, 1e15, 1e17, 1e22, 5e-324, 2.2250738585072014e-308]
_EDGE_FLOATS = st.sampled_from(
    [v for b in _BOUNDS for v in (b, np.nextafter(b, 0.0), np.nextafter(b, np.inf),
                                  -b, -np.nextafter(b, 0.0))]
    + [0.0, -0.0, 1.0, -3.0, 2.0**53, 2.0**53 + 2, 0.5, np.nan, np.inf, -np.inf])


@st.composite
def _float_blocks(draw):
    n, m = draw(st.integers(0, 6)), draw(st.integers(0, 5))
    values = st.floats() | _EDGE_FLOATS | st.floats(1e-5, 1e-3) | st.floats(
        1e15, 1e17) | st.floats(-1e-300, 1e-300) | st.floats(0.0, 1.0)
    block = np.array(draw(st.lists(values, min_size=n * m, max_size=n * m)),
                     dtype=np.float64).reshape(n, m)
    layout = draw(st.sampled_from(["C", "Fortran", "column", "float32"]))
    if layout == "Fortran":
        return np.asfortranarray(block)
    if layout == "column":
        return block[:, 0] if m else block.reshape(-1)
    if layout == "float32":
        with np.errstate(over="ignore"):
            return block.astype(np.float32)
    return block


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_float_blocks(), st.sampled_from(["nan", ""]))
def test_float_rows_are_repr_text(block, nan_text):
    assert C.float_rows(block, nan_text) == _repr_rows(block, nan_text)


def test_float_rows_are_repr_text_in_bulk():
    """Distributions the writers see, and magnitudes across the range of
    float64: every value's text is repr's."""
    rng = np.random.default_rng(22)
    n = 20_000
    magnitudes = 10.0 ** rng.uniform(-320, 20, n) * rng.choice([-1.0, 1.0], n)
    for block in (rng.uniform(0, 1, (n, 4)),
                  1 / (1 + np.exp(-rng.normal(0, 8, (n, 4)))),
                  magnitudes.reshape(-1, 4), rng.normal(0, 1e3, (n, 4)),
                  np.round(rng.normal(0, 2, (n, 4)), 6)):
        block[rng.random(block.shape) < 0.05] = np.nan
        assert C.float_rows(block, "") == _repr_rows(block, "")


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=24),
       st.sampled_from([1, 2, 3]))
def test_int_rows_are_str_text(values, width):
    block = np.array(values[:len(values) // width * width],
                     dtype=np.int64).reshape(-1, width)
    assert C.int_rows(block) == [",".join(map(str, row)) for row in block.tolist()]
    assert C.int_rows(block.astype(np.int8)) == [
        ",".join(map(str, row)) for row in block.astype(np.int8).tolist()]


def _reference_cohort_to_csv(cohort, path):
    """The CSV and columnar copy as written row by row through csv.writer,
    each value formatted by it."""
    n_cont, n_bin, n_cat = (cohort.continuous.shape[1], cohort.binary.shape[1],
                            cohort.categorical.shape[1])
    header = (C._BASE_COLUMNS
              + [f"cont_{i:02d}" for i in range(n_cont)]
              + [f"bin_{i:02d}" for i in range(n_bin)]
              + [f"cat_{i}" for i in range(n_cat)]
              + list(C.OUTCOME_NAMES))
    b, c, d = len(C._BASE_COLUMNS) + np.cumsum([n_cont, n_bin, n_cat])
    days = np.concatenate([cohort.admission_date, cohort.surgery_date]).tolist()
    iso = {day: C._iso(day) for day in set(days)}
    table = np.empty((len(cohort), len(header)), dtype=object)
    for j, col in enumerate((
            cohort.patient_id, cohort.encounter_id,
            [iso[day] for day in cohort.admission_date.tolist()], cohort.age,
            cohort.esrd.astype(np.int8), cohort.surgeon_id, cohort.procedure_code,
            cohort.work_units, [iso[day] for day in cohort.surgery_date.tolist()])):
        table[:, j] = col
    table[:, len(C._BASE_COLUMNS):b] = cohort.continuous
    table[:, len(C._BASE_COLUMNS):b][np.isnan(cohort.continuous)] = None
    table[:, b:c] = cohort.binary
    table[:, c:d] = cohort.categorical
    table[:, c:d][cohort.categorical < 0] = None
    table[:, d:] = cohort.outcomes
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table.tolist())
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).digest()
    with open(C._copy_path(path), "wb") as fh:
        np.save(fh, np.frombuffer(digest, dtype=np.uint8), allow_pickle=False)
        for name in C._COLUMNS:
            np.save(fh, C._as_parsed(name, getattr(cohort, name)), allow_pickle=False)


def _assert_written_as_reference(cohort, tmp):
    C.cohort_to_csv(cohort, Path(tmp) / "bulk.csv")
    _reference_cohort_to_csv(cohort, Path(tmp) / "rows.csv")
    for suffix in ("", ".columns"):
        assert ((Path(tmp) / f"bulk.csv{suffix}").read_bytes()
                == (Path(tmp) / f"rows.csv{suffix}").read_bytes()), suffix


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_odd_cohorts())
def test_cohort_csv_bytes_equal_the_csv_writer_reference(cohort):
    with tempfile.TemporaryDirectory() as tmp:
        _assert_written_as_reference(cohort, tmp)


def test_generated_cohort_bytes_equal_the_csv_writer_reference(tmp_path):
    cohort, _ = _gen(n_patients=300, missing_rate=0.2)
    assert np.isnan(cohort.continuous).any() and (cohort.categorical < 0).any()
    quoted = C.Cohort.concat('si,"te', [cohort])
    quoted.patient_id = np.char.add('si,"te-', quoted.patient_id)
    for case in (cohort, quoted, cohort.take([])):
        _assert_written_as_reference(case, tmp_path)


class _HalfWrites:
    """A file whose first write stops half way, on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failing", ["csv", "copy"])
def test_a_failed_cohort_write_leaves_no_csv_cut_short(tmp_path, monkeypatch,
                                                       failing):
    old, _ = _gen(n_patients=30, missing_rate=0.2)
    new, _ = _gen(n_patients=40, missing_rate=0.2)
    path = tmp_path / "site.csv"

    def planted(file, mode="r", *args, **kw):
        fh = open(file, mode, *args, **kw)
        is_copy = ".columns" in str(file)
        return (_HalfWrites(fh) if "w" in mode and is_copy == (failing == "copy")
                else fh)

    if failing == "csv":
        # a first write fails: neither file is left at its final path
        with monkeypatch.context() as m:
            m.setattr(C, "open", planted, raising=False)
            with pytest.raises(OSError, match="No space left"):
                C.cohort_to_csv(new, path)
        assert list(tmp_path.iterdir()) == []
    # over an earlier write, the CSV is whole, old or new, and its copy is
    # current or missed
    C.cohort_to_csv(old, path)
    with monkeypatch.context() as m:
        m.setattr(C, "open", planted, raising=False)
        with pytest.raises(OSError, match="No space left"):
            C.cohort_to_csv(new, path)
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".partial")]
    written = new if failing == "copy" else old
    assert_cohorts_identical(C.cohort_from_csv(path, site_name="siteA"), written)
    Path(C._copy_path(path)).unlink(missing_ok=True)
    assert_cohorts_identical(C.cohort_from_csv(path, site_name="siteA"), written)


def test_header_only_csv_without_a_line_end_reads_from_its_copy(tmp_path,
                                                                monkeypatch):
    empty = _gen(n_patients=20)[0].take([])
    path = tmp_path / "c.csv"
    C.cohort_to_csv(empty, path)
    columns = C._read_copy(C._copy_path(path), path.read_bytes())
    # the header alone, its line end dropped, with a copy current for it
    path.write_bytes(path.read_bytes().rstrip(b"\r\n"))
    assert b"\n" not in path.read_bytes()
    digest = np.frombuffer(hashlib.sha256(path.read_bytes()).digest(), np.uint8)
    Path(C._copy_path(path)).write_bytes(_npy(digest, *columns))
    assert C._read_copy(C._copy_path(path), path.read_bytes()) is not None
    columnar, parsed = _copy_then_parse(monkeypatch, path, site_name="siteA")
    assert_cohorts_bitwise(columnar, parsed)
    assert_cohorts_identical(columnar, empty)


def test_records_view_matches_columns():
    cohort, _ = _gen(n_patients=60, missing_rate=0.3)
    records = cohort.records
    assert len(records) == len(cohort)
    for i, rec in enumerate(records):
        assert rec.patient_id == cohort.patient_id[i]
        assert rec.encounter_id == cohort.encounter_id[i]
        assert rec.admission_date == cohort.admission_date[i]
        assert rec.age == cohort.age[i]
        assert rec.esrd == cohort.esrd[i]
        assert rec.surgeon_id == cohort.surgeon_id[i]
        assert rec.surgeries == (C.Surgery(int(cohort.procedure_code[i]),
                                           float(cohort.work_units[i]),
                                           int(cohort.surgery_date[i])),)
        assert np.array_equal(rec.continuous, cohort.continuous[i], equal_nan=True)
        assert np.array_equal(rec.binary, cohort.binary[i])
        assert rec.categorical == tuple(None if c < 0 else int(c)
                                        for c in cohort.categorical[i])
        assert np.array_equal(rec.outcomes, cohort.outcomes[i])
    # rows view a copy: writing into one never reaches the cohort
    before = cohort.continuous.copy()
    records[0].continuous[:] = 1.0
    assert np.array_equal(cohort.continuous, before, equal_nan=True)


def test_take_and_concat():
    cohort, _ = _gen(n_patients=50)
    idx = np.array([4, 0, 2])
    part = cohort.take(idx)
    assert len(part) == 3 and part.site_name == cohort.site_name
    assert part.encounter_id.tolist() == cohort.encounter_id[idx].tolist()
    assert np.array_equal(part.continuous, cohort.continuous[idx], equal_nan=True)
    both = C.Cohort.concat("pooled", [part, cohort])
    assert both.site_name == "pooled" and len(both) == 3 + len(cohort)
    assert np.array_equal(both.outcomes[3:], cohort.outcomes)


def test_site_config_validation():
    with pytest.raises(ValueError):
        _cfg(target_prevalence=(0.0, 0.1, 0.1, 0.1))
    with pytest.raises(ValueError):
        _cfg(missing_rate=1.0)


# --- the record-by-record generator, as an oracle ---------------------------

def _generate_oracle(cfg, spec, truth, seed, mc_samples):
    """One dict per retained encounter, built encounter by encounter with
    scalar draws in the generator's documented order."""
    rng = np.random.default_rng([seed, C._site_key(cfg.site_name)])
    lat = C._site_latents(cfg, spec, truth)
    raw = []
    lo, hi = cfg.date_range
    for p in range(cfg.n_patients):
        pid = f"{cfg.site_name}-p{p:07d}"
        age_base = float(np.clip(rng.normal(57.0, 18.0), 0.0, 100.0))
        n_enc = 1 + int(rng.poisson(max(cfg.encounters_mean - 1.0, 0.0)))
        dates = np.sort(rng.integers(lo, hi, size=n_enc))
        for e, adm in enumerate(dates):
            surgeries = []
            if not rng.random() < cfg.no_surgery_rate:
                for _ in range(1 + int(rng.poisson(0.5))):
                    code = int(rng.integers(0, spec.hc_vocab_sizes[0] - 1))
                    units = float(np.round(rng.gamma(2.0, 10.0), 3))
                    surgeries.append((code, units, int(adm + rng.integers(0, 5))))
            raw.append(dict(
                patient_id=pid, encounter_id=f"{pid}-e{e}",
                admission_date=int(adm),
                age=float(np.round(age_base + 0.1 * e, 2)),
                esrd=bool(rng.random() < cfg.esrd_rate), surgeries=surgeries))
    kept = [r for r in raw if r["age"] >= 18.0 and not r["esrd"] and r["surgeries"]]
    n = len(kept)
    cont, binary, surgeons = C._draw_features(n, cfg, spec, truth, lat, rng)
    cont = np.round(cont, 6)
    scores = C._scores(cont, binary, surgeons, lat)
    mc_rng = np.random.default_rng([seed, C._site_key(cfg.site_name), 0xCA11])
    mc = C._draw_features(mc_samples, cfg, spec, truth, lat, mc_rng)
    mc_scores = C._scores(*mc, lat)
    intercepts = np.array([C.calibrate_intercept(cfg.target_prevalence[k],
                                                 mc_scores[:, k])
                           for k in range(4)])
    labels = (rng.random(scores.shape) < expit(scores + intercepts)).astype(np.int8)
    cats = np.column_stack([rng.integers(0, v - 1, size=n)
                            for v in spec.hc_vocab_sizes])
    miss = np.random.default_rng([seed, C._site_key(cfg.site_name), 0x3355])
    for i, rec in enumerate(kept):
        code, units, day = min(rec["surgeries"],
                               key=lambda s: (-s[1], s[2], s[0]))
        row_cats = [int(c) for c in cats[i]]
        row_cats[0] = code
        row_cont = cont[i].copy()
        row_cont[miss.random(row_cont.shape) < cfg.missing_rate] = np.nan
        row_cats = [-1 if miss.random() < cfg.missing_rate else c for c in row_cats]
        rec.update(procedure_code=code, work_units=units, surgery_date=day,
                   surgeon_id=int(surgeons[i]), continuous=row_cont,
                   binary=binary[i], categorical=row_cats, outcomes=labels[i])
    return kept


def test_generation_matches_record_oracle():
    cfg = _cfg(n_patients=300, missing_rate=0.2, esrd_rate=0.1,
               no_surgery_rate=0.1, encounters_mean=1.8)
    truth = C.make_ground_truth(SPEC, 11)
    cohort, report = C.generate_site(cfg, SPEC, truth, 11, mc_samples=5_000)
    want = _generate_oracle(cfg, SPEC, truth, 11, 5_000)
    assert len(cohort) == len(want) == report.exclusions.n_retained
    for name in C._COLUMNS:
        got = getattr(cohort, name)
        expected = np.array([rec[name] for rec in want], dtype=got.dtype)
        assert got.tobytes() == expected.tobytes(), name
