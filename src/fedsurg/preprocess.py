"""Site-local preprocessing and the chronological split protocol.

The Preprocessor follows the fit/transform idiom: percentile clipping,
median imputation and min-max scaling are learned from the training
cohort only. A fit is five float64 arrays (``CONTINUOUS_FIELDS``) and the
codes seen. In federated mode a site's fit is ``rescaled`` to the range
``shared_scaler`` builds from per-site (min, max) summaries; clip bounds,
medians and category maps stay site-local.

All of it works on whole columns: the split orders rows with ``lexsort``,
and ``fit`` reads every percentile and median off one column-wise sort with
numpy's own interpolation, bit-identical to ``np.percentile``/``np.median``
of the column with every zero read as +0.0. (For a column holding both
-0.0 and +0.0, numpy's own result can take either sign: it depends on how
its partition orders the two zeros.)
"""

from __future__ import annotations

import copy

import numpy as np

from .cohort import Cohort
from .model import Batch
from .wire import quantize32

# the continuous fit, one float64 array each
CONTINUOUS_FIELDS = ("clip_low", "clip_high", "median", "scale_min", "scale_max")


class SplitError(ValueError):
    pass


class FitError(ValueError):
    pass


# the encounter shares of train and of train + val (60 / 10 / 30)
TRAIN_FRACTION = 0.60
TRAIN_VAL_FRACTION = 0.70


def chronological_split(cohort: Cohort) -> tuple[Cohort, Cohort, Cohort]:
    """Patient-grouped chronological split by first admission date.

    All of a patient's encounters land in one cohort; cut points are the
    patient boundaries whose cumulative encounter fractions are closest
    to the two fractions above. Patients are ordered by (first admission,
    patient id), and each patient's encounters by (admission, encounter id).
    """
    if not len(cohort):
        raise SplitError("cannot split an empty cohort")
    patients, patient_of, counts = np.unique(
        cohort.patient_id, return_inverse=True, return_counts=True)
    n_pat = len(patients)
    if n_pat < 3:
        raise SplitError("need at least 3 patients to split")
    first = np.full(n_pat, np.iinfo(np.int64).max)
    np.minimum.at(first, patient_of, cohort.admission_date)
    ordered = np.lexsort((patients, first))
    rank = np.empty(n_pat, dtype=np.int64)
    rank[ordered] = np.arange(n_pat)
    rows = np.lexsort((cohort.encounter_id, cohort.admission_date,
                       rank[patient_of]))
    cum = np.cumsum(counts[ordered])
    total = cum[-1]

    t_candidates = np.arange(1, n_pat - 1)
    t_idx = int(t_candidates[np.argmin(np.abs(cum[t_candidates - 1] - TRAIN_FRACTION * total))])
    v_candidates = np.arange(t_idx + 1, n_pat)
    v_idx = int(v_candidates[np.argmin(np.abs(cum[v_candidates - 1] - TRAIN_VAL_FRACTION * total))])
    t_cut, v_cut = cum[t_idx - 1], cum[v_idx - 1]
    return (cohort.take(rows[:t_cut]), cohort.take(rows[t_cut:v_cut]),
            cohort.take(rows[v_cut:]))


def _sorted_quantile(x: np.ndarray, m: np.ndarray, q: float) -> np.ndarray:
    """numpy's ``linear`` quantile ``q`` of the first ``m[j]`` values of
    each column j of ``x``, whose columns are sorted ascending: the same
    virtual index, neighbours and lerp, so the same bits."""
    virtual = (m - 1) * q
    below = np.floor(virtual)
    # at the last value numpy takes it twice, with weight virtual + 1
    top = virtual >= m - 1
    gamma = np.where(top, virtual + 1, virtual - below)
    cols = np.arange(x.shape[1])
    a = x[np.where(top, m - 1, below.astype(np.int64)), cols]
    b = x[np.where(top, m - 1, below.astype(np.int64) + 1), cols]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def _lookup(codes: np.ndarray, seen: set[int], size: int) -> np.ndarray:
    """Index ``code + 1`` for a code seen at fit time with ``code + 1 <
    size``; 0 for the rest and for missing (negative) codes."""
    known = np.zeros(max(size - 1, 0), dtype=bool)
    known[[c for c in seen if 0 <= c < size - 1]] = True
    hit = (codes >= 0) & (codes < size - 1)
    hit[hit] = known[codes[hit]]
    return np.where(hit, codes + 1, 0)


class Preprocessor:
    """Per-site feature preprocessor (fit on train, then transform).

    Categorical codes map to ``code + 1`` when observed at fit time
    (index 0 is reserved for missing/unseen), so index semantics agree
    across sites that share a code universe.
    """

    def __init__(self, hc_vocab_sizes: tuple[int, ...],
                 surgeon_vocab_size: int = 0):
        self.hc_vocab_sizes = tuple(hc_vocab_sizes)
        self.surgeon_vocab_size = surgeon_vocab_size
        # CONTINUOUS_FIELDS -> one value per column
        self.continuous: dict[str, np.ndarray] | None = None
        self.cat_seen: list[set[int]] | None = None
        self.surgeon_seen: set[int] = set()

    def _stats(self) -> tuple[np.ndarray, ...]:
        """The continuous fit in ``CONTINUOUS_FIELDS`` order."""
        if self.continuous is None:
            raise FitError("preprocessor not fitted")
        return tuple(self.continuous[k] for k in CONTINUOUS_FIELDS)

    def fit(self, train: Cohort) -> "Preprocessor":
        """Per continuous column, the 1st/99th percentile clip bounds, the
        median of the clipped values and their (min, max), all from one
        sort of the training matrix (NaN sorts last)."""
        if not len(train):
            raise FitError("cannot fit on an empty cohort")
        # + 0.0 turns -0.0 into +0.0, so no statistic depends on zero order
        x = np.sort(train.continuous, axis=0) + 0.0
        m = np.count_nonzero(~np.isnan(x), axis=0)
        if (m == 0).any():
            i = int(np.argmax(m == 0))
            raise FitError(f"continuous feature cont_{i:02d} entirely missing in train")
        clip_low = _sorted_quantile(x, m, 0.01)
        clip_high = _sorted_quantile(x, m, 0.99)
        cols = np.arange(x.shape[1])

        def clipped(k):
            return np.clip(x[k, cols], clip_low, clip_high)

        # np.median: the mean of the middle one or two values, a sum that
        # starts from 0.0
        mid_lo, mid_hi = clipped((m - 1) // 2), clipped(m // 2)
        median = np.where(m % 2 == 1, 0.0 + mid_lo, (0.0 + mid_lo + mid_hi) / 2.0)
        self.continuous = dict(zip(CONTINUOUS_FIELDS, (
            clip_low, clip_high, median, clipped(0), clipped(m - 1))))
        self.cat_seen = [set(np.unique(col[col >= 0]).tolist())
                         for col in train.categorical.T[:len(self.hc_vocab_sizes)]]
        self.surgeon_seen = set(np.unique(train.surgeon_id).tolist())
        return self

    def scaler_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-feature (min, max) of the clipped training data (copies)."""
        *_, smin, smax = self._stats()
        return smin.copy(), smax.copy()

    def rescaled(self, mins, maxs) -> "Preprocessor":
        """A copy of this fit that scales to the range ``(mins, maxs)``;
        clip bounds, medians and seen codes stay this fit's."""
        n = len(self._stats()[0])
        mins, maxs = (np.array(v, dtype=np.float64) for v in (mins, maxs))
        if mins.shape != (n,) or maxs.shape != (n,):
            raise FitError(f"scaler range of shapes {mins.shape} and "
                           f"{maxs.shape} for a fit of {n} continuous features")
        out = copy.copy(self)
        out.continuous = {**self.continuous, "scale_min": mins, "scale_max": maxs}
        return out

    def transform(self, cohort: Cohort) -> Batch:
        low, high, median, smin, smax = self._stats()
        x = cohort.continuous
        x = np.clip(np.where(np.isnan(x), median, x), low, high)
        span = smax - smin
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.clip((x - smin) / span, 0.0, 1.0)
        out[:, span <= 0] = 0.0
        high_card = np.empty((len(self.hc_vocab_sizes), len(cohort)), dtype=np.intp)
        for j, (seen, vocab) in enumerate(zip(self.cat_seen, self.hc_vocab_sizes)):
            high_card[j] = _lookup(cohort.categorical[:, j], seen, vocab)
        return Batch(
            continuous=out,
            binary=cohort.binary.astype(np.float64),
            high_card=high_card,
            labels=cohort.outcomes.astype(np.float64),
            surgeon=_lookup(cohort.surgeon_id, self.surgeon_seen,
                            self.surgeon_vocab_size + 1),
        )


def shared_scaler(per_site: list[tuple[np.ndarray, np.ndarray]]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The federation's one min-max range: the envelope (min of mins, max
    of maxes) of the per-site ranges, each rounded to float32 as the wire
    carries it. A range that has crossed the wire already is unchanged by
    the rounding, so the coordinator and ``prepare_sites`` agree bit for bit."""
    quantized = [quantize32({"mins": m, "maxs": x}) for m, x in per_site]
    if len({q[k].shape for q in quantized for k in q}) != 1:
        raise ValueError("need ranges of one width from at least one site")
    return (np.min([q["mins"] for q in quantized], axis=0),
            np.max([q["maxs"] for q in quantized], axis=0))
