"""Spans around the public functions of fedsurg, recorded from outside it.

``Patcher`` swaps a function for a wrapper in the module or class that
defines it and in every other ``fedsurg`` module that holds the same
function object (``from .model import predict`` makes one binding per
importer), and puts the originals back on ``restore``. ``Tracer`` makes
the wrappers: each call records a span (name, start, end, parent span,
thread, a count, whether it raised). ``layer_metrics`` turns the spans of
the traced passes into the per-layer figures of the benchmark.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


class Patcher:
    """Replace attributes of fedsurg modules and classes, then undo it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make_wrapper) -> bool:
        """Replace ``owner.attr`` by ``make_wrapper(original)``.

        For a module-level function every other fedsurg module binding the
        same object is patched too. Returns False when the attribute does
        not exist, so a later refactor of the package only loses a span.
        """
        original = vars(owner).get(attr)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        holders = [owner]
        if not isinstance(owner, type):
            holders += [m for name, m in list(sys.modules.items())
                        if m is not None and m is not owner
                        and (name == "fedsurg" or name.startswith("fedsurg."))]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
                    self._undo.append((holder, name, original))
        return True

    def restore(self) -> None:
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None   # enclosing span on the same thread
    thread: int
    count: int           # rows, bytes, encounters or rounds, per span name
    error: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from every thread; parents come from a per-thread stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.main_thread = threading.get_ident()
        self._ids = itertools.count()
        self._local = threading.local()

    def wrapper(self, name: str, count=None):
        """Wrapper factory for ``Patcher.wrap``; ``count(args, result)``
        gives the span's count when the call returns."""
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack = self._local.__dict__.setdefault("stack", [])
                sid = next(self._ids)
                parent = stack[-1] if stack else None
                stack.append(sid)
                result = None
                error = True
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                    error = False
                    return result
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    n = count(args, result) if count is not None and not error else 0
                    self.spans.append(Span(sid, name, start, end, parent,
                                           threading.get_ident(), n, error))
            return traced
        return make


def _rows(arg_index):
    return lambda args, result: len(args[arg_index])


# (owner module, class or None, attribute, span name, count)
TRACED = (
    ("fedsurg.cli", None, "cmd_generate", "cli.generate", None),
    ("fedsurg.cli", None, "cmd_train", "cli.train", None),
    ("fedsurg.cli", None, "cmd_evaluate", "cli.evaluate", None),
    ("fedsurg.cli", None, "cmd_compare", "cli.compare", None),
    ("fedsurg.cli", None, "_load_cohorts", "cli.load_cohorts", None),
    ("fedsurg.cohort", None, "generate_site", "cohort.generate", None),
    ("fedsurg.cohort", None, "calibrate_intercept", "cohort.calibrate", None),
    ("fedsurg.cohort", None, "cohort_to_csv", "cohort.to_csv", None),
    ("fedsurg.cohort", None, "cohort_from_csv", "cohort.from_csv",
     lambda args, result: len(result)),
    ("fedsurg.preprocess", None, "chronological_split", "preprocess.split", None),
    ("fedsurg.preprocess", "Preprocessor", "fit", "preprocess.fit", None),
    ("fedsurg.preprocess", "Preprocessor", "transform", "preprocess.transform",
     _rows(1)),
    ("fedsurg.model", None, "local_train", "model.local_train", None),
    ("fedsurg.model", None, "predict", "model.predict", _rows(2)),
    ("fedsurg.model", None, "save_checkpoint", "model.checkpoint", None),
    ("fedsurg.model", None, "load_checkpoint", "model.checkpoint", None),
    ("fedsurg.autodiff", "Tape", "gradients", "autodiff.backward", None),
    ("fedsurg.autodiff", None, "sgd_step", "autodiff.update", None),
    ("fedsurg.federation", None, "run_federation_inprocess", "federation.run",
     lambda args, result: len(result.history)),
    ("fedsurg.federation", None, "fedavg_aggregate", "federation.aggregate", None),
    ("fedsurg.federation", None, "scaffold_server_update", "federation.aggregate",
     None),
    ("fedsurg.wire", None, "encode_frame", "wire.encode",
     lambda args, result: len(result)),
    ("fedsurg.wire", None, "decode_frame", "wire.decode", None),
    ("fedsurg.metrics", None, "auroc", "metrics.auroc", None),
    ("fedsurg.metrics", None, "auprc", "metrics.auprc", None),
    ("fedsurg.metrics", None, "pick_threshold", "metrics.pick_threshold", None),
    ("fedsurg.metrics", None, "bootstrap_ci", "metrics.bootstrap", None),
    ("fedsurg.experiment", None, "load_config", "experiment.io", None),
    ("fedsurg.experiment", None, "prepare_sites", "experiment.prepare_sites", None),
    ("fedsurg.experiment", None, "run_local_paradigm", "experiment.paradigm", None),
    ("fedsurg.experiment", None, "run_central_paradigm", "experiment.paradigm",
     None),
    ("fedsurg.experiment", None, "train_single", "experiment.train_single", None),
    ("fedsurg.experiment", None, "run_federated_paradigm", "experiment.federated",
     None),
    ("fedsurg.experiment", None, "evaluate_scores", "experiment.evaluate_scores",
     None),
    ("fedsurg.experiment", None, "write_history_csv", "experiment.io", None),
    ("fedsurg.experiment", None, "write_scores_csv", "experiment.io", None),
    ("fedsurg.experiment", None, "write_report", "experiment.io", None),
    ("fedsurg.experiment", None, "load_report", "experiment.io", None),
)


def install(tracer: Tracer, patcher: Patcher) -> None:
    for module, cls, attr, name, count in TRACED:
        owner = sys.modules[module]
        if cls is not None:
            owner = getattr(owner, cls)
        patcher.wrap(owner, attr, tracer.wrapper(name, count))


# --- per-layer figures ----------------------------------------------------

def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _length(intervals) -> float:
    return sum(hi - lo for lo, hi in _union(intervals))


def federation_split(spans: list[Span], main_thread: int) -> dict[str, float]:
    """Split the wall time of every in-process federated run into site
    compute, aggregation, wire and unaccounted time.

    Site compute is the time during which at least one site-worker thread
    is inside a traced call other than the wire; aggregation is the time
    the coordinator aggregates while no site computes; wire is encode or
    decode time (any thread) outside both; the rest is unaccounted. The
    four parts add up to the runs' wall time. ``site_busy`` sums the site
    spans over threads, so busy / compute is the mean overlap of sites.
    """
    out = dict(wall=0.0, site=0.0, site_busy=0.0, aggregate=0.0, wire=0.0,
               unaccounted=0.0)
    for run in (s for s in spans if s.name == "federation.run"):
        inside = [s for s in spans if s.start >= run.start and s.end <= run.end]
        site = [(s.start, s.end) for s in inside
                if s.thread != main_thread and s.parent is None
                and not s.name.startswith("wire.")]
        agg = [(s.start, s.end) for s in inside if s.name == "federation.aggregate"]
        wire = [(s.start, s.end) for s in inside if s.name.startswith("wire.")]
        site_len = _length(site)
        site_agg = _length(site + agg)
        covered = _length(site + agg + wire)
        out["wall"] += run.duration
        out["site"] += site_len
        out["site_busy"] += sum(hi - lo for lo, hi in site)
        out["aggregate"] += site_agg - site_len
        out["wire"] += covered - site_agg
        out["unaccounted"] += run.duration - covered
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus direct children; children share the parent's thread,
    so they run one after another and their durations simply add up."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}


def layer_metrics(spans: list[Span], main_thread: int, n_passes: int,
                  traced_wall: float, untraced_wall: float) -> dict[str, tuple]:
    """Per-pass per-layer figures as {name: (value, unit)}.

    ``traced_wall`` and ``untraced_wall`` are median pass wall times of the
    traced and untraced passes of the same run.
    """
    own = self_times(spans)
    total = defaultdict(float)
    self_ = defaultdict(float)
    calls = defaultdict(int)
    count = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        self_[s.name] += own[s.id]
        calls[s.name] += 1
        count[s.name] += s.count

    by_id = {s.id: s for s in spans}
    drawn = accepted = 0
    for s in spans:
        if s.name in ("metrics.auroc", "metrics.auprc") and s.parent is not None \
                and by_id[s.parent].name == "metrics.bootstrap":
            drawn += 1
            accepted += not s.error
    # the first metric call of each bootstrap is the point estimate
    n_boot_calls = calls["metrics.bootstrap"]
    drawn -= n_boot_calls
    accepted -= n_boot_calls

    fed = federation_split(spans, main_thread)
    layer_self = sum(own[s.id] for s in spans
                     if s.thread == main_thread and not s.name.startswith("cli."))
    steps = calls["autodiff.update"]
    rounds = count["federation.run"]

    def per_pass(x):
        return x / n_passes

    def ratio(a, b):
        return a / b if b else 0.0

    s, c = "s", "count"
    return {
        "cli.generate_s": (per_pass(total["cli.generate"]), s),
        "cli.train_s": (per_pass(total["cli.train"]), s),
        "cli.evaluate_s": (per_pass(total["cli.evaluate"]), s),
        "cli.compare_s": (per_pass(total["cli.compare"]), s),
        "cli.load_cohorts_s": (per_pass(total["cli.load_cohorts"]), s),
        "cohort.generate_s": (per_pass(self_["cohort.generate"]), s),
        "cohort.calibrate_s": (per_pass(self_["cohort.calibrate"]), s),
        "cohort.to_csv_s": (per_pass(self_["cohort.to_csv"]), s),
        "cohort.from_csv_s": (per_pass(self_["cohort.from_csv"]), s),
        "cohort.encounters": (per_pass(count["cohort.from_csv"]), c),
        "preprocess.split_s": (per_pass(self_["preprocess.split"]), s),
        "preprocess.fit_s": (per_pass(self_["preprocess.fit"]), s),
        "preprocess.transform_s": (per_pass(self_["preprocess.transform"]), s),
        "preprocess.transform_rows": (per_pass(count["preprocess.transform"]), c),
        "model.local_train_s": (per_pass(total["model.local_train"]), s),
        "model.sgd_steps": (per_pass(steps), c),
        "model.step_s": (ratio(total["model.local_train"], steps), s),
        "model.forward_s": (per_pass(self_["model.local_train"]), s),
        "model.predict_s": (per_pass(self_["model.predict"]), s),
        "model.predict_rows": (per_pass(count["model.predict"]), c),
        "model.checkpoint_s": (per_pass(self_["model.checkpoint"]), s),
        "autodiff.backward_s": (per_pass(self_["autodiff.backward"]), s),
        "autodiff.update_s": (per_pass(self_["autodiff.update"]), s),
        "federation.rounds": (per_pass(rounds), c),
        "federation.round_s": (ratio(fed["wall"], rounds), s),
        "federation.site_compute_s": (per_pass(fed["site"]), s),
        "federation.site_busy_s": (per_pass(fed["site_busy"]), s),
        "federation.aggregate_s": (per_pass(fed["aggregate"]), s),
        "federation.wire_s": (per_pass(fed["wire"]), s),
        "federation.unaccounted_s": (per_pass(fed["unaccounted"]), s),
        "wire.frames": (per_pass(calls["wire.encode"]), c),
        "wire.bytes": (per_pass(count["wire.encode"]), "B"),
        "wire.encode_s": (per_pass(self_["wire.encode"]), s),
        "wire.decode_s": (per_pass(self_["wire.decode"]), s),
        "metrics.auroc_calls": (per_pass(calls["metrics.auroc"]), c),
        "metrics.auroc_s": (per_pass(self_["metrics.auroc"]), s),
        "metrics.auprc_s": (per_pass(self_["metrics.auprc"]), s),
        "metrics.pick_threshold_s": (per_pass(self_["metrics.pick_threshold"]), s),
        "metrics.bootstrap_s": (per_pass(self_["metrics.bootstrap"]), s),
        "metrics.resamples_drawn": (per_pass(drawn), c),
        "metrics.resample_yield": (ratio(accepted, drawn), "ratio"),
        "experiment.prepare_sites_s": (per_pass(self_["experiment.prepare_sites"]), s),
        "experiment.paradigm_s": (per_pass(self_["experiment.paradigm"]), s),
        "experiment.train_single_s": (per_pass(self_["experiment.train_single"]), s),
        "experiment.federated_s": (per_pass(self_["experiment.federated"]), s),
        "experiment.evaluate_scores_s": (
            per_pass(self_["experiment.evaluate_scores"]), s),
        "experiment.io_s": (per_pass(self_["experiment.io"]), s),
        "trace.layer_share": (ratio(per_pass(layer_self), traced_wall), "ratio"),
        "trace.overhead_s": (traced_wall - untraced_wall, s),
    }
