"""End-to-end CLI pipeline on a miniature experiment."""

import json
import shutil

import numpy as np
import pytest
import yaml

from fedsurg import cli
from fedsurg import experiment as exp
from fedsurg.cohort import cohort_from_csv
from fedsurg.model import load_checkpoint, predict
from fedsurg.preprocess import Preprocessor, chronological_split
from fedsurg.wire import Hello, Shutdown


def _config(tmp_path):
    doc = {
        "seed": 9,
        "output_dir": str(tmp_path / "out"),
        "features": {"n_continuous": 6, "n_binary": 3,
                     "hc_vocab_sizes": [10, 5]},
        "arch": {"embed_dim": 3, "branch_hidden": 5, "merge_hidden": 7},
        "train": {"rounds": 2, "batch_size": 64, "patience": 2},
        "evaluate": {"n_boot": 10},
        "sites": [
            {"name": "a", "role": "development", "n_patients": 150,
             "target_prevalence": [0.2, 0.1, 0.15, 0.05]},
            {"name": "b", "role": "development", "n_patients": 120,
             "target_prevalence": [0.1, 0.05, 0.2, 0.02]},
            {"name": "x", "role": "external", "n_patients": 100,
             "target_prevalence": [0.15, 0.08, 0.1, 0.03]},
        ],
    }
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path, tmp_path / "out"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg_path, out = _config(tmp_path)
    assert cli.main(["generate", "--config", str(cfg_path)]) == 0
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    assert cli.main(["evaluate", "--config", str(cfg_path)]) == 0
    assert cli.main(["compare", "--config", str(cfg_path)]) == 0
    return cfg_path, out


def test_generate_artifacts(pipeline):
    _, out = pipeline
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["sites"]) == {"a", "b", "x"}
    for name, entry in manifest["sites"].items():
        assert (out / "cohorts" / f"{name}.csv").exists()
        assert entry["n_encounters"] > 0
        assert set(entry["prevalence"]) == {"icu", "mv", "aki", "mortality"}
        ex = entry["exclusions"]
        assert ex["n_retained"] == entry["n_encounters"]


def test_train_artifacts(pipeline):
    _, out = pipeline
    for name in ("local_a", "local_b", "central", "fedavg", "fedprox",
                 "scaffold"):
        assert (out / "checkpoints" / f"{name}.ckpt").exists(), name
        assert (out / "history" / f"{name}.csv").exists(), name
    assert (out / "checkpoints" / "central_preprocessor.json").exists()


def test_evaluate_artifacts(pipeline):
    _, out = pipeline
    report = json.loads((out / "reports" / "report.json").read_text())
    models = {c["model"] for c in report}
    assert models == {"local_a", "local_b", "central", "fedavg", "fedprox",
                      "scaffold"}
    sites = {c["site"] for c in report}
    assert sites == {"a", "b", "x"}
    assert len(report) == len(models) * len(sites) * 4
    assert (out / "scores" / "fedavg__x.csv").exists()
    assert (out / "reports" / "report.csv").exists()


def test_central_is_scored_through_its_saved_preprocessor(pipeline):
    cfg_path, out = pipeline
    arch = exp.load_config(cfg_path).arch
    pp = Preprocessor.from_json(
        (out / "checkpoints" / "central_preprocessor.json").read_text())
    params, _ = load_checkpoint(out / "checkpoints" / "central.ckpt", arch)
    for site in ("a", "b", "x"):
        _, _, test = chronological_split(
            cohort_from_csv(out / "cohorts" / f"{site}.csv"))
        fm = pp.transform(test)
        ids, scores, labels = exp.read_scores_csv(
            out / "scores" / f"central__{site}.csv")
        assert ids == test.encounter_id.tolist()
        assert np.array_equal(labels, fm.labels)
        assert np.array_equal(scores, predict(params, arch, fm))


def test_evaluate_needs_the_central_preprocessor(pipeline, tmp_path):
    _, trained = pipeline
    cfg_path, out = _config(tmp_path)
    shutil.copytree(trained, out)
    (out / "checkpoints" / "central_preprocessor.json").unlink()
    with pytest.raises(SystemExit, match="central_preprocessor.json"):
        cli.main(["evaluate", "--config", str(cfg_path)])


def _json_edit(edit):
    """``edit`` applied to the parsed text, as new JSON text."""
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return apply


@pytest.mark.parametrize("edit", [
    lambda text: '{"format_version": 1}',
    lambda text: text[:len(text) // 2],
    lambda text: text.replace('"median"', '"mid"', 1),
    lambda text: text.replace('"hard_bounds": {}', '"hard_bounds": {"0": [0, 1]}'),
    _json_edit(lambda doc: doc.update(hc_vocab_sizes=[10, 6])),
    _json_edit(lambda doc: doc["continuous"].pop()),
], ids=["only-the-version", "truncated", "missing-field", "hard-bounds",
        "other-vocab-sizes", "other-continuous-width"])
def test_evaluate_with_a_bad_central_preprocessor_exits(pipeline, tmp_path, edit):
    _, trained = pipeline
    cfg_path, out = _config(tmp_path)
    shutil.copytree(trained, out)
    path = out / "checkpoints" / "central_preprocessor.json"
    path.write_text(edit(path.read_text()))
    with pytest.raises(SystemExit, match=r"central_preprocessor\.json: .*; "
                                         r"run `fedsurg train` again"):
        cli.main(["evaluate", "--config", str(cfg_path)])


def test_train_fits_each_site_once(tmp_path, monkeypatch):
    cfg_path, out = _config(tmp_path)
    assert cli.main(["generate", "--config", str(cfg_path)]) == 0
    sites = exp.prepare_sites(exp.load_config(cfg_path), {
        n: cohort_from_csv(out / "cohorts" / f"{n}.csv") for n in "abx"})
    fitted = []
    fit = Preprocessor.fit

    def counting(self, train):
        fitted.append(len(train))
        return fit(self, train)

    monkeypatch.setattr(Preprocessor, "fit", counting)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    # one fit per site (a, b, x) and one of the pooled central train split;
    # the three federated runs reuse the development sites' fits
    assert fitted == [len(sites[n].train) for n in "abx"] + [
        len(sites["a"].train) + len(sites["b"].train)]


def test_compare_artifacts(pipeline):
    _, out = pipeline
    verdicts = json.loads((out / "reports" / "compare.json").read_text())
    assert verdicts
    pairings = {(v["model_a"], v["model_b"]) for v in verdicts}
    assert ("scaffold", "fedavg") in pairings
    assert ("scaffold", "central") in pairings
    for v in verdicts:
        assert isinstance(v["ci_overlap"], bool)


def test_compare_skips_cells_without_finite_auroc(tmp_path, capsys):
    cfg_path, out = _config(tmp_path)
    nan = float("nan")

    def cell(model, point, ci_low, ci_high):
        return {"model": model, "site": "a", "outcome": "icu",
                "auroc": {"point": point, "ci_low": ci_low, "ci_high": ci_high,
                          "n_skipped": 0}}

    (out / "reports").mkdir(parents=True)
    # report.json keeps NaN for single-class and no-resample cells
    (out / "reports" / "report.json").write_text(json.dumps([
        cell("scaffold", 0.8, 0.7, 0.9),
        cell("fedavg", nan, nan, nan),       # single-class test labels
        cell("central", 0.75, nan, nan),     # no usable resample
        cell("local_b", 0.6, 0.5, 0.7),
    ]))
    assert cli.main(["compare", "--config", str(cfg_path)]) == 0

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    verdicts = json.loads((out / "reports" / "compare.json").read_text(),
                          parse_constant=reject)
    pairs = {(v["model_a"], v["model_b"]) for v in verdicts}
    assert pairs == {("scaffold", "local_b")}
    assert "nan" not in capsys.readouterr().out


def test_single_paradigm_flags(pipeline, tmp_path):
    cfg_path, out = pipeline
    assert cli.main(["train", "--config", str(cfg_path),
                     "--paradigm", "federated", "--algo", "fedavg"]) == 0


def test_bad_config_exits_nonzero(tmp_path):
    missing = tmp_path / "missing.yaml"
    assert cli.main(["generate", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"seed": 1, "sites": []}))
    assert cli.main(["generate", "--config", str(bad)]) == 2


@pytest.mark.parametrize("path,value,where", [
    (("sites", 0, "target_prevalence"), [0.1, 0.1, 0.1, 1.5], "sites[0]"),
    (("sites", 0, "n_patients"), -5, "sites[0]"),
    (("train", "lr"), -1, "train"),
    (("arch", "embed_dim"), 0, "model architecture"),
    (("seed",), "abc", "seed"),
    (("evaluate", "n_boot"), -1, "evaluate"),
    (("seed",), -3, "seed"),
    (("algorithms",), ["fedavg", "fedavgg"], "algorithms"),
    (("algorithms",), ["scaffold", "fedavg", "scaffold"], "algorithms"),
    (("algorithms",), "fedavg", "algorithms"),
], ids=["prevalence", "n_patients", "lr", "embed_dim", "seed", "n_boot",
        "negative-seed", "unknown-algorithm", "repeated-algorithm",
        "algorithms-not-a-list"])
def test_out_of_range_config_value_exits_2(tmp_path, capsys, path, value,
                                           where):
    cfg_path, out = _config(tmp_path)
    doc = yaml.safe_load(cfg_path.read_text())
    *parents, key = path
    part = doc
    for step in parents:
        part = part[step]
    part[key] = value
    cfg_path.write_text(yaml.safe_dump(doc))
    assert cli.main(["generate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ")
    assert not out.exists()


def test_compare_before_evaluate_exits(tmp_path):
    cfg_path, _ = _config(tmp_path)
    with pytest.raises(SystemExit,
                       match=r"reports/report\.json; run `fedsurg evaluate` first"):
        cli.main(["compare", "--config", str(cfg_path)])


def test_train_without_cohorts_errors(tmp_path):
    cfg_path, _ = _config(tmp_path)
    with pytest.raises(SystemExit):
        cli.main(["train", "--config", str(cfg_path)])


def test_generate_writes_the_same_columnar_copies(tmp_path):
    copies = []
    for run in ("one", "two"):
        (tmp_path / run).mkdir()
        cfg_path, out = _config(tmp_path / run)
        assert cli.main(["generate", "--config", str(cfg_path)]) == 0
        copies.append({p.name: p.read_bytes()
                       for p in (out / "cohorts").glob("*.columns")})
    assert sorted(copies[0]) == ["a.csv.columns", "b.csv.columns", "x.csv.columns"]
    assert copies[0] == copies[1]


def test_missing_cohort_csv_exits_even_with_its_copy(tmp_path):
    cfg_path, out = _config(tmp_path)
    assert cli.main(["generate", "--config", str(cfg_path)]) == 0
    (out / "cohorts" / "a.csv").unlink()
    assert (out / "cohorts" / "a.csv.columns").exists()
    with pytest.raises(SystemExit, match="missing cohort file"):
        cli.main(["train", "--config", str(cfg_path)])


class _ShutdownChannel:
    """A coordinator that ends the session as soon as the site says Hello."""

    def __init__(self):
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)

    def recv(self):
        return Shutdown()

    def close(self):
        pass


def test_serve_site_reads_only_its_own_cohort(tmp_path, monkeypatch):
    cfg_path, out = _config(tmp_path)
    assert cli.main(["generate", "--config", str(cfg_path)]) == 0
    for other in ("b", "x"):
        (out / "cohorts" / f"{other}.csv").unlink()
    channel = _ShutdownChannel()
    monkeypatch.setattr(cli, "connect_socket", lambda host, port: channel)
    assert cli.main(["serve-site", "--config", str(cfg_path),
                     "--site", "a"]) == 0
    assert [type(m) for m in channel.sent] == [Hello]
    assert channel.sent[0].client_id == "a"


def test_serve_coordinator_failure_is_one_line_and_no_checkpoint(tmp_path,
                                                                 monkeypatch):
    from fedsurg.federation import FederationError
    cfg_path, out = _config(tmp_path)
    channel = _ShutdownChannel()
    closed = []
    channel.close = lambda: closed.append(True)
    monkeypatch.setattr(cli, "serve_sockets",
                        lambda host, port, n: ([channel], port))

    def failing(*args):
        raise FederationError("client 'b' sent scaler bounds that are not finite")
    monkeypatch.setattr(cli, "coordinate", failing)
    with pytest.raises(SystemExit) as info:
        cli.main(["serve-coordinator", "--config", str(cfg_path)])
    # SystemExit prints its message as the only line on stderr
    assert info.value.code == ("federated run failed: client 'b' sent scaler "
                               "bounds that are not finite")
    assert closed == [True]
    assert not list((out / "checkpoints").iterdir())
    assert not list((out / "history").iterdir())
