"""Experiment configuration and paradigm plumbing."""

import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from fedsurg import experiment as E
from fedsurg.cohort import OUTCOME_NAMES
from fedsurg.federation import RoundRecord
from fedsurg.preprocess import shared_scaler
from fedsurg.wire import GlobalScaler, RoundAck, decode_frame, encode_frame
from conftest import params_digest


def _doc(**kw):
    doc = {
        "seed": 3,
        "output_dir": "out",
        "features": {"n_continuous": 6, "n_binary": 3,
                     "hc_vocab_sizes": [10, 5]},
        "arch": {"embed_dim": 3, "branch_hidden": 5, "merge_hidden": 7},
        "train": {"rounds": 2, "batch_size": 64},
        "sites": [
            {"name": "a", "role": "development", "n_patients": 150,
             "target_prevalence": [0.2, 0.1, 0.15, 0.05],
             "surgeon_vocab_size": 8},
            {"name": "b", "role": "development", "n_patients": 120,
             "target_prevalence": [0.1, 0.05, 0.2, 0.02],
             "surgeon_vocab_size": 8},
            {"name": "x", "role": "external", "n_patients": 100,
             "target_prevalence": [0.15, 0.08, 0.1, 0.03],
             "surgeon_vocab_size": 8},
        ],
    }
    doc.update(kw)
    return doc


@pytest.fixture(scope="module")
def cfg():
    return E.config_from_dict(_doc())


def test_config_parses_and_derives_arch(cfg):
    assert cfg.development_sites == ["a", "b"]
    assert cfg.external_sites == ["x"]
    assert cfg.arch.n_continuous == 6
    assert cfg.arch.high_card_specs == ((10, 3), (5, 3))
    assert cfg.train.rounds == 2
    assert cfg.train.seed == cfg.seed  # defaults to the experiment seed


def test_config_rejects_bad_shapes():
    with pytest.raises(E.ConfigError):
        E.config_from_dict({"seed": 1, "sites": []})
    doc = _doc()
    doc["sites"][1]["name"] = "a"
    with pytest.raises(E.ConfigError):
        E.config_from_dict(doc)
    doc = _doc()
    doc["sites"][0]["role"] = "observer"
    with pytest.raises(E.ConfigError):
        E.config_from_dict(doc)
    doc = _doc()
    for s in doc["sites"]:
        s["role"] = "external"
    with pytest.raises(E.ConfigError):
        E.config_from_dict(doc)


@pytest.mark.parametrize("path", [
    ("sead",), ("features", "n_cont"), ("arch", "embed_dims"),
    ("train", "lrr"), ("evaluate", "n_bot"), ("fine_tune", "epoch"),
    ("transport", "hots"), ("sites", 0, "colour"),
    # every random stream takes the top-level seed
    ("train", "seed"),
], ids=lambda path: ".".join(map(str, path)))
def test_config_rejects_unknown_keys(path):
    doc = _doc(evaluate={}, fine_tune={}, transport={})
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = 1
    with pytest.raises(E.ConfigError, match=path[-1]):
        E.config_from_dict(doc)


def test_config_defaults_are_the_dataclass_defaults():
    doc = _doc()
    for key in ("output_dir", "features", "arch", "train"):
        del doc[key]
    cfg = E.config_from_dict(doc)
    assert cfg.output_dir == "out"
    assert cfg.features == E.FeatureSpec()
    assert cfg.train == E.TrainConfig(seed=cfg.seed)
    assert (cfg.embed_dim, cfg.n_boot, cfg.port) == (16, 1000, 9631)


def test_load_config_yaml(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(_doc()))
    cfg = E.load_config(path)
    assert cfg.development_sites == ["a", "b"]


ROOT = Path(__file__).resolve().parent.parent


def _benchmark_config() -> str:
    """The benchmark's config, as ``perfbench/run.py`` writes it (JSON)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return json.dumps(run.make_config("evaluate-report", 3, Path("data")),
                      indent=1)


# scalars whose YAML 1.1 type a parser could get wrong
EDGE_SCALARS = """\
exponent_without_dot: 1e6
big: 1.0e+300
not_a_number: .nan
infinite: -.inf
hex: 0x10
octal: 010
date: 2026-10-20
stamp: 2026-10-20 09:15:23
truth: yes
falsity: Off
nothing: ~
quoted: "1.5"
list: [1, 2.5, 'x', null]
"""


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="PyYAML was built without libyaml")
@pytest.mark.parametrize("source", [
    *sorted(p.name for p in (ROOT / "configs").glob("*.yaml")),
    "benchmark", "edge scalars"])
def test_the_c_and_python_yaml_loaders_parse_configs_alike(source):
    text = {"benchmark": _benchmark_config,
            "edge scalars": lambda: EDGE_SCALARS}.get(
        source, lambda: (ROOT / "configs" / source).read_text())()
    fast = yaml.load(text, Loader=yaml.CSafeLoader)
    slow = yaml.load(text, Loader=yaml.SafeLoader)
    # repr tells 1e6 the string from 1e6 the float, and prints NaN alike
    assert repr(fast) == repr(slow)
    assert fast


def test_load_config_parses_as_the_python_loader(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(_benchmark_config())
    slow = yaml.load(path.read_text(), Loader=yaml.SafeLoader)
    assert E.load_config(path) == E.config_from_dict(slow)


@pytest.fixture(scope="module")
def prepared(cfg):
    cohorts = {n: c for n, (c, _) in E.generate_cohorts(cfg).items()}
    return cohorts, E.prepare_sites(cfg, cohorts)


def test_prepare_sites_shared_scaler_envelope(cfg, prepared):
    _, sites = prepared
    dev_stats = [sites[n].pp_local.scaler_stats() for n in cfg.development_sites]
    gmins, gmaxs = shared_scaler(dev_stats)
    for n in ("a", "b", "x"):
        m, x = sites[n].pp_fed.scaler_stats()
        assert np.array_equal(m, gmins) and np.array_equal(x, gmaxs)
    # the shared scaler is exactly representable in float32
    assert np.array_equal(gmins, gmins.astype(np.float32).astype(np.float64))


def test_federated_training_and_evaluation_share_one_preprocessor(cfg, prepared):
    """Each site worker trains through the very features ``prepare_sites``
    scores federated models through: its own fit, rescaled to the range
    the coordinator builds from what the workers sent."""
    _, sites = prepared

    def wire(msg):
        return decode_frame(encode_frame(msg))[0]

    workers = {n: E.site_worker(cfg, sites[n], "fedavg")
               for n in cfg.development_sites}
    for worker in workers.values():
        worker.hello()
    stats = [wire(workers[n].handle(RoundAck(0))) for n in cfg.development_sites]
    scaler = wire(GlobalScaler(*shared_scaler([(s.mins, s.maxs) for s in stats])))
    for name, worker in workers.items():
        assert worker.fit is sites[name].pp_local
        assert worker.handle(scaler) is None
        pp_fed = sites[name].pp_fed
        for got, part in ((worker._train_fm, sites[name].train),
                          (worker._val_fm, sites[name].val)):
            want = pp_fed.transform(part)
            for field in ("continuous", "binary", "labels", "surgeon"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            for g, w in zip(got.high_card, want.high_card, strict=True):
                assert g.tobytes() == w.tobytes()


def test_central_on_single_site_equals_local(cfg, prepared):
    """With one development site, the central paradigm is bit-identical
    to local training on that site (same RNG key, same pooled data)."""
    doc = _doc()
    doc["sites"] = [doc["sites"][0]]
    solo = E.config_from_dict(doc)
    cohorts = {n: c for n, (c, _) in E.generate_cohorts(solo).items()}
    sites = E.prepare_sites(solo, cohorts)
    local = E.local_unit(solo, sites["a"])
    central, _pp = E.central_unit(solo, sites)
    assert local.history == central.history
    assert params_digest(local.best_params) == params_digest(central.best_params)


def test_federated_paradigm_runs(cfg, prepared):
    _, sites = prepared
    result = E.federated_unit(cfg, sites, "fedavg")
    assert len(result.history) <= cfg.train.rounds
    assert set(result.history[0].train_loss) == {"a", "b"}


def test_concat_batches(cfg, prepared):
    _, sites = prepared
    fms = [sites[n].pp_fed.transform(sites[n].train) for n in ("a", "b")]
    pooled = E.concat_batches(fms)
    assert len(pooled) == len(fms[0]) + len(fms[1])
    assert np.array_equal(pooled.continuous[: len(fms[0])], fms[0].continuous)
    assert np.array_equal(pooled.labels[: len(fms[0])], fms[0].labels)
    assert np.array_equal(pooled.labels[len(fms[0]):], fms[1].labels)


def test_history_csv_roundtrip(tmp_path):
    history = [
        RoundRecord(0, (0.5, 0.6, 0.7, 0.8), {"a": 0.9, "b": 1.1}, 0.65),
        RoundRecord(1, (0.55, 0.61, 0.72, 0.81), {"a": 0.8, "b": 1.0}, 0.6725),
    ]
    path = tmp_path / "h.csv"
    E.write_history_csv(path, history)
    import csv
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["round", "val_auroc_icu", "val_auroc_mv",
                       "val_auroc_aki", "val_auroc_mortality",
                       "train_loss_a", "train_loss_b"]
    assert [float(v) for v in rows[1][1:5]] == [0.5, 0.6, 0.7, 0.8]
    assert float(rows[2][5]) == 0.8


def test_a_failed_history_write_leaves_no_csv_cut_short(tmp_path, monkeypatch):
    history = [RoundRecord(t, (0.5, 0.6, 0.7, 0.8), {"a": 0.9}, 0.65)
               for t in range(4)]
    path = tmp_path / "h.csv"
    writer = csv.writer

    class HalfWritten:
        """csv.writer whose third row fails, once two are written."""

        def __init__(self, fh):
            self.fh, self.rows, self.inner = fh, 0, writer(fh)

        def writerow(self, row):
            self.rows += 1
            if self.rows == 3:
                self.fh.flush()
                raise OSError(28, "No space left on device")
            self.inner.writerow(row)

    for earlier in (False, True):
        if earlier:
            E.write_history_csv(path, history[:1])
        before = path.read_bytes() if earlier else None
        with monkeypatch.context() as m:
            m.setattr(E.csv, "writer", HalfWritten)
            with pytest.raises(OSError, match="No space left"):
                E.write_history_csv(path, history)
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".partial")]
        if earlier:
            assert path.read_bytes() == before
        else:
            assert list(tmp_path.iterdir()) == []


def test_scores_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    probs = rng.uniform(0, 1, (5, 4))
    labels = rng.integers(0, 2, (5, 4)).astype(float)
    ids = [f"enc{i}" for i in range(5)]
    path = tmp_path / "s.csv"
    E.write_scores_csv(path, ids, probs, labels)
    back_ids, back_probs, back_labels = E.read_scores_csv(path)
    assert back_ids == ids
    assert np.array_equal(back_probs, probs)  # repr round trip is lossless
    assert np.array_equal(back_labels, labels)


def _failing_field(text):
    raise OSError(28, "No space left on device")


class _Unwritable:
    """A cell that cannot be written, as a write that fails mid-way."""

    def to_dict(self):
        raise OSError(28, "No space left on device")


class _NoFields:
    """A cell that report.json takes and report.csv cannot."""

    def to_dict(self):
        return {}


@pytest.mark.parametrize("target", ["scores", "report.json", "report.csv"])
def test_a_failed_write_leaves_no_file_at_the_final_path(tmp_path, monkeypatch,
                                                         target):
    rng = np.random.default_rng(0)
    probs = rng.uniform(0, 1, (5, 4))
    labels = rng.integers(0, 2, (5, 4)).astype(float)
    if target == "scores":
        # the header is written, then the first row fails
        monkeypatch.setattr(E, "_csv_field", _failing_field)
        path = tmp_path / "m__s.csv"
        with pytest.raises(OSError, match="No space left"):
            E.write_scores_csv(path, [f"enc{i}" for i in range(5)], probs,
                               labels)
    else:
        cell = E.score_unit("m", "s", probs, labels, None, None,
                            n_boot=5, seed=0)[0]
        bad = _Unwritable() if target == "report.json" else _NoFields()
        path = tmp_path / target
        with pytest.raises((OSError, AttributeError)):
            E.write_report(tmp_path, [cell, bad])
    assert not path.exists()
    assert not any(p.name.endswith(".partial") for p in tmp_path.iterdir())


def _write_scores_by_row(path, encounter_ids, probs, labels):
    # one writerow per encounter, each score formatted by repr(float(v))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["encounter_id"]
                        + [f"score_{o}" for o in OUTCOME_NAMES]
                        + [f"label_{o}" for o in OUTCOME_NAMES])
        for i, enc in enumerate(encounter_ids):
            writer.writerow([enc] + [repr(float(v)) for v in probs[i]]
                            + [int(v) for v in labels[i]])


def test_scores_csv_bytes_equal_row_by_row_writer(tmp_path):
    rng = np.random.default_rng(4)
    n = 50
    probs = rng.uniform(0, 1, (n, 4))
    probs[:6, 0] = [1e-05, 0.0, 1.0, 2.5e-300, 0.1 + 0.2, 1 - 1e-16]
    probs[:, 3] = probs[:, 3].astype(np.float32)
    labels = rng.integers(0, 2, (n, 4)).astype(np.int8)
    ids = np.array([f"p{i}-e{i % 3}" for i in range(n)])
    for p, y in ((probs, labels), (probs.astype(np.float32), labels),
                 (probs, labels.astype(float))):
        E.write_scores_csv(tmp_path / "bulk.csv", ids, p, y)
        _write_scores_by_row(tmp_path / "rows.csv", ids, p, y)
        bulk = (tmp_path / "bulk.csv").read_bytes()
        assert bulk == (tmp_path / "rows.csv").read_bytes()
    assert b"\r\np0-e0,1e-05," in bulk


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.text(st.characters(blacklist_categories=("Cs",)))
                | st.sampled_from(['a,b', 'say "hi"', '"', ',', 'cr\rlf\n',
                                   '\n', ' lead', '']),
                min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_scores_csv_bytes_equal_csv_writer(tmp_path_factory, ids, seed):
    """Any id, quoted or not as csv.writer quotes it, and any score,
    NaN and infinities included."""
    rng = np.random.default_rng(seed)
    n = len(ids)
    probs = rng.choice([0.0, 1.0, 1e-300, 0.1 + 0.2, np.nan, np.inf, -np.inf,
                        rng.uniform()], size=(n, 4))
    labels = rng.integers(0, 2, (n, 4))
    tmp = tmp_path_factory.mktemp("scores")
    E.write_scores_csv(tmp / "bulk.csv", ids, probs, labels)
    _write_scores_by_row(tmp / "rows.csv", ids, probs, labels)
    assert (tmp / "bulk.csv").read_bytes() == (tmp / "rows.csv").read_bytes()


def _reference_write_scores_csv(path, encounter_ids, probs, labels):
    """The score file as formatted a column at a time by repr and str."""
    fields = ([list(map(repr, c))
               for c in np.asarray(probs, dtype=np.float64).T.tolist()]
              + [list(map(str, c))
                 for c in np.asarray(labels).astype(np.int64).T.tolist()])
    header = ",".join(["encounter_id"]
                      + [f"score_{o}" for o in OUTCOME_NAMES]
                      + [f"label_{o}" for o in OUTCOME_NAMES])
    rows = map(",".join, zip(map(E._csv_field, encounter_ids), *fields))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([header, *rows, ""]))


@pytest.mark.parametrize("nan_rate", [0.0, 0.05, 0.5, 1.0])
def test_scores_csv_bytes_equal_the_column_writer(tmp_path, nan_rate):
    rng = np.random.default_rng(22)
    n = 445
    probs = 1 / (1 + np.exp(-rng.normal(0, 8, (n, 4))))
    probs[rng.random((n, 4)) < nan_rate] = np.nan
    probs[:3, 1] = [1e-05, 1.0, 0.0]
    labels = rng.integers(0, 2, (n, 4))
    ids = np.array([f"si,te-p{i:07d}-e{i % 3}" if i % 7 == 0 else f"p{i}-e0"
                    for i in range(n)])
    for p, y in ((probs, labels), (probs.astype(np.float32), labels.astype(float)),
                 (probs[:0], labels[:0])):
        E.write_scores_csv(tmp_path / "bulk.csv", ids, p, y)
        _reference_write_scores_csv(tmp_path / "ref.csv", ids, p, y)
        assert ((tmp_path / "bulk.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())


def test_scores_csv_quotes_ids_as_csv_writer_does(tmp_path):
    ids = ["si,te-e1", 'q"uote-e2', "line\nbreak-e3", "plain-e4"]
    probs, labels = np.full((4, 4), 0.5), np.ones((4, 4))
    E.write_scores_csv(tmp_path / "s.csv", ids, probs, labels)
    text = (tmp_path / "s.csv").read_bytes()
    assert b'\r\n"si,te-e1",0.5,' in text
    assert b'\r\n"q""uote-e2",0.5,' in text
    assert b'\r\n"line\nbreak-e3",0.5,' in text
    assert b"\r\nplain-e4,0.5," in text
    assert E.read_scores_csv(tmp_path / "s.csv")[0] == ids


def test_evaluate_scores_cells(cfg):
    rng = np.random.default_rng(1)
    n = 300
    probs = rng.uniform(0, 1, (n, 4))
    labels = (rng.uniform(0, 1, (n, 4)) < probs).astype(float)
    cells = E.score_unit("m", "s", probs, labels, probs, labels,
                         n_boot=30, seed=0)
    assert [c.outcome for c in cells] == ["icu", "mv", "aki", "mortality"]
    for c in cells:
        assert c.auroc.ci_low <= c.auroc.point <= c.auroc.ci_high
        assert c.auroc.point > 0.7  # labels were drawn from the scores
        assert c.threshold is not None and c.sensitivity is not None
        doc = c.to_dict()
        assert doc["auroc"]["point"] == c.auroc.point
