"""End-to-end CLI pipeline on a miniature experiment."""

import dataclasses
import functools
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
import yaml

from fedsurg import cli, wire
from fedsurg import experiment as exp
from fedsurg.cohort import cohort_from_csv
from fedsurg.federation import SiteWorker
from fedsurg.model import init_params, load_checkpoint, predict, save_checkpoint
from fedsurg.preprocess import Preprocessor
from fedsurg.wire import Hello, Shutdown
from conftest import params_digest


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


def _set(cfg_path, path, value):
    """Set the config key at ``path`` (section names and list indices)."""
    doc = yaml.safe_load(cfg_path.read_text())
    *parents, key = path
    part = doc
    for step in parents:
        part = part[step]
    part[key] = value
    cfg_path.write_text(yaml.safe_dump(doc))


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
    # the central model's pooled fit is rebuilt from the cohorts, not saved
    assert sorted(p.name for p in (out / "checkpoints").iterdir()) == sorted(
        f"{name}.ckpt" for name in ("local_a", "local_b", "central", "fedavg",
                                    "fedprox", "scaffold"))


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


def test_central_is_scored_through_the_pooled_fit(pipeline):
    cfg_path, out = pipeline
    cfg = exp.load_config(cfg_path)
    sites = exp.prepare_sites(cfg, {
        n: cohort_from_csv(out / "cohorts" / f"{n}.csv") for n in "abx"})
    # the pooled fit of the development sites, as `train` fits it
    pp = exp.central_preprocessor(cfg, sites)
    params, _ = load_checkpoint(out / "checkpoints" / "central.ckpt", cfg.arch)
    for site in ("a", "b", "x"):
        test = sites[site].test
        fm = pp.transform(test)
        ids, scores, labels = exp.read_scores_csv(
            out / "scores" / f"central__{site}.csv")
        assert ids == test.encounter_id.tolist()
        assert np.array_equal(labels, fm.labels)
        assert np.array_equal(scores, predict(params, cfg.arch, fm))


def _old_central_preprocessor(cfg_path, out):
    """The format-1 ``central_preprocessor.json`` an older ``train`` wrote."""
    cfg = exp.load_config(cfg_path)
    sites = exp.prepare_sites(cfg, {
        n: cohort_from_csv(out / "cohorts" / f"{n}.csv") for n in "abx"})
    pp = exp.central_preprocessor(cfg, sites)
    fields = ("clip_low", "clip_high", "median", "scale_min", "scale_max")
    columns = zip(*(pp.continuous[k].tolist() for k in fields))
    return json.dumps({
        "format_version": 1,
        "hc_vocab_sizes": list(pp.hc_vocab_sizes),
        "surgeon_vocab_size": pp.surgeon_vocab_size,
        "hard_bounds": {},
        "continuous": [dict(zip(fields, c)) for c in columns],
        "cat_seen": [sorted(s) for s in pp.cat_seen],
        "surgeon_seen": sorted(pp.surgeon_seen),
    }, indent=1)


def _json_edit(edit):
    """``edit`` applied to the parsed text, as new JSON text."""
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return apply


@pytest.mark.parametrize("edit", [
    None,
    lambda text: '{"format_version": 1}',
    lambda text: text[:len(text) // 2],
    lambda text: text.replace('"median"', '"mid"', 1),
    lambda text: text.replace('"hard_bounds": {}', '"hard_bounds": {"0": [0, 1]}'),
    _json_edit(lambda doc: doc.update(hc_vocab_sizes=[10, 6])),
    _json_edit(lambda doc: doc["continuous"].pop()),
], ids=["deleted", "only-the-version", "truncated", "missing-field",
        "hard-bounds", "other-vocab-sizes", "other-continuous-width"])
def test_evaluate_does_not_read_the_central_preprocessor(pipeline, tmp_path,
                                                         edit):
    trained_cfg, trained = pipeline
    cfg_path, out = _config(tmp_path)
    shutil.copytree(trained, out,
                    ignore=shutil.ignore_patterns("scores", "reports"))
    # train writes no such file; an older train did, and evaluate must
    # rebuild the pooled fit whatever the file holds
    path = out / "checkpoints" / "central_preprocessor.json"
    assert not path.exists()
    if edit is not None:
        path.write_text(edit(_old_central_preprocessor(trained_cfg, trained)))
    assert cli.main(["evaluate", "--config", str(cfg_path)]) == 0
    assert cli.main(["compare", "--config", str(cfg_path)]) == 0
    for sub in ("scores", "reports"):
        written = sorted(p.name for p in (out / sub).iterdir())
        assert written == sorted(p.name for p in (trained / sub).iterdir())
        for name in written:
            assert ((out / sub / name).read_bytes()
                    == (trained / sub / name).read_bytes()), name


def _truncated(path, arch):
    path.write_bytes(path.read_bytes()[:100])


def _other_architecture(path, arch):
    other = dataclasses.replace(arch, merge_hidden=arch.merge_hidden + 1)
    save_checkpoint(path, init_params(other, 0), other)


def _transposed_tensor(path, arch):
    params, _ = load_checkpoint(path, arch)
    params["cont.W"] = params["cont.W"].T
    save_checkpoint(path, params, arch)


def _nan_in_a_tensor(path, arch):
    params, _ = load_checkpoint(path, arch)
    params["merge.b"][0] = np.nan
    save_checkpoint(path, params, arch)


@pytest.mark.parametrize("damage", [
    _truncated, _other_architecture, _transposed_tensor, _nan_in_a_tensor],
    ids=["truncated", "other-architecture", "transposed-tensor",
         "nan-in-a-tensor"])
def test_bad_checkpoint_stops_evaluate_with_one_line(pipeline, tmp_path,
                                                     damage):
    trained_cfg, trained = pipeline
    cfg_path, out = _config(tmp_path)
    shutil.copytree(trained, out,
                    ignore=shutil.ignore_patterns("scores", "reports"))
    path = out / "checkpoints" / "fedavg.ckpt"
    damage(path, exp.load_config(trained_cfg).arch)
    with pytest.raises(SystemExit) as info:
        cli.main(["evaluate", "--config", str(cfg_path)])
    message = info.value.code
    assert isinstance(message, str) and "\n" not in message
    assert str(path) in message
    assert message.endswith("; run `fedsurg train` again")
    if damage is _nan_in_a_tensor:
        assert "merge.b" in message
    assert not list((out / "scores").iterdir())


def _cut_last_row(lines):
    # the file ends right after the last row's last comma
    lines[-1] = lines[-1][:lines[-1].rindex(",") + 1]


def _empty_cell(column):
    def apply(lines):
        header = lines[0].split(",")
        row = lines[5].split(",")
        row[header.index(column)] = ""
        lines[5] = ",".join(row)
    return apply


@pytest.mark.parametrize("command", [
    ["train"], ["evaluate"], ["serve-site", "--site", "a"]],
    ids=["train", "evaluate", "serve-site"])
@pytest.mark.parametrize("damage", [
    _cut_last_row, _empty_cell("age"), _empty_cell("icu"), list.clear],
    ids=["cut-row", "empty-age", "empty-outcome", "empty-file"])
def test_malformed_cohort_csv_stops_with_one_line(pipeline, tmp_path, damage,
                                                  command):
    _, trained = pipeline
    cfg_path, out = _config(tmp_path)
    shutil.copytree(trained / "cohorts", out / "cohorts")
    path = out / "cohorts" / "a.csv"
    lines = path.read_text().splitlines()
    damage(lines)
    path.write_text("".join(f"{line}\n" for line in lines))
    with pytest.raises(SystemExit) as info:
        cli.main([*command, "--config", str(cfg_path)])
    message = info.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"unreadable cohort file {path}: ")
    assert message.endswith("; run `fedsurg generate` again")


def _no_connection(host, port):
    raise AssertionError("serve-site connected before checking its cohort")


@pytest.mark.parametrize("command", [
    ["train"], ["evaluate"], ["serve-site", "--site", "a"]],
    ids=["train", "evaluate", "serve-site"])
@pytest.mark.parametrize("key,value,held,kind", [
    ("n_continuous", 5, 6, "continuous"),
    ("n_binary", 4, 3, "binary"),
    ("hc_vocab_sizes", [10], 2, "categorical"),
], ids=["continuous", "binary", "categorical"])
def test_cohort_of_other_feature_widths_exits_2(pipeline, tmp_path, capsys,
                                                monkeypatch, command, key,
                                                value, held, kind):
    _, trained = pipeline
    cfg_path, out = _config(tmp_path)
    shutil.copytree(trained / "cohorts", out / "cohorts")
    _set(cfg_path, ("features", key), value)
    want = len(value) if isinstance(value, list) else value
    monkeypatch.setattr(cli, "connect_socket", _no_connection)
    capsys.readouterr()
    assert cli.main([*command, "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: site 'a': its cohort has {held} {kind} features where the "
        f"config has {want}; run `fedsurg generate` again\n")
    for sub in ("checkpoints", "history", "scores"):
        assert not list((out / sub).iterdir()), sub


def test_site_too_small_to_split_exits_2(tmp_path, capsys):
    cfg_path, out = _config(tmp_path)
    _set(cfg_path, ("sites", 2, "n_patients"), 2)
    assert cli.main(["generate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    # the external site x: no paradigm of `train` reads it, evaluate does
    assert cli.main(["evaluate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "error: site 'x': need at least 3 patients to split\n")
    assert not list((out / "scores").iterdir())


def test_train_fits_each_site_once(tmp_path, monkeypatch):
    cfg_path, out = _config(tmp_path)
    assert cli.main(["generate", "--config", str(cfg_path)]) == 0
    sites = exp.prepare_sites(exp.load_config(cfg_path), {
        n: cohort_from_csv(out / "cohorts" / f"{n}.csv") for n in "abx"})
    # each fit appends a line to one file, so that the fits of the worker
    # processes `train` forks are counted with those of this process
    log = tmp_path / "fits"
    fit = Preprocessor.fit

    def counting(self, train):
        with open(log, "a") as fh:
            fh.write(f"{len(train)}\n")
        return fit(self, train)

    monkeypatch.setattr(Preprocessor, "fit", counting)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    fitted = [int(n) for n in log.read_text().split()]
    # one fit per development site (a, b), none of the external site x, and
    # one of the pooled central train split; the three federated runs reuse
    # the development sites' fits
    assert fitted == [len(sites[n].train) for n in "ab"] + [
        len(sites["a"].train) + len(sites["b"].train)]


def test_train_does_not_read_the_external_cohort(pipeline, tmp_path):
    _, trained = pipeline
    cfg_path, out = _config(tmp_path)
    shutil.copytree(trained / "cohorts", out / "cohorts",
                    ignore=shutil.ignore_patterns("x.csv*"))
    assert not (out / "cohorts" / "x.csv").exists()
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    for sub in ("checkpoints", "history"):
        written = sorted(p.name for p in (out / sub).iterdir())
        assert written == sorted(p.name for p in (trained / sub).iterdir())
        for name in written:
            assert ((out / sub / name).read_bytes()
                    == (trained / sub / name).read_bytes()), name


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
    _set(cfg_path, path, value)
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


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_serve_site_without_a_coordinator_is_one_line(pipeline, tmp_path,
                                                      capsys, monkeypatch):
    # no coordinator listening once ended in a ChannelClosed traceback
    _, trained = pipeline
    cfg_path, out = _config(tmp_path)
    shutil.copytree(trained / "cohorts", out / "cohorts")
    port = _free_port()
    _set(cfg_path, ("transport",), {"host": "127.0.0.1", "port": port})
    monkeypatch.setattr(cli, "connect_socket", functools.partial(
        wire.connect_socket, retries=3, delay=0.01))
    capsys.readouterr()
    assert cli.main(["serve-site", "--config", str(cfg_path),
                     "--site", "a"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: could not connect to 127.0.0.1:{port}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


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


# --- `train` runs each model as a unit in a forked worker process ------------

def _assert_reaped(pids):
    assert pids
    for pid in pids:
        # no such child any more: it has ended and been waited for
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _assert_wrote_no_model(out):
    for sub in ("checkpoints", "history"):
        assert not list((out / sub).iterdir()), sub


def test_train_unit_failure_is_one_line(pipeline, tmp_path, capsys,
                                        monkeypatch, forked):
    # ClientFailure(client_id, cause) cannot be rebuilt by pickle from its
    # args, so the failure crosses from the worker as text
    _, trained = pipeline
    cfg_path, out = _config(tmp_path)
    shutil.copytree(trained / "cohorts", out / "cohorts")

    def failing(self, msg):
        raise ValueError("no gradient today")

    monkeypatch.setattr(SiteWorker, "_local_round", failing)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg_path)]) == 1
    # each federated unit fails; the first in checkpoint order is reported
    assert capsys.readouterr().err == (
        "error: fedavg: ClientFailure: client 'a' failed: no gradient today\n")
    _assert_wrote_no_model(out)
    _assert_reaped(forked)


def _exits_without_result(*args):
    os._exit(3)


def _killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("unit,end", [
    (_exits_without_result, "exited with code 3"),
    (_killed, "was killed by SIGKILL"),
], ids=["exit", "signal"])
def test_train_worker_that_dies_is_one_line(pipeline, tmp_path, capsys,
                                            monkeypatch, forked, unit, end):
    _, trained = pipeline
    cfg_path, out = _config(tmp_path)
    shutil.copytree(trained / "cohorts", out / "cohorts")
    monkeypatch.setattr(exp, "central_unit", unit)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: central: WorkerDied: the worker process {end} and sent no "
        "result\n")
    _assert_wrote_no_model(out)
    _assert_reaped(forked)


def test_train_with_non_finite_weights_writes_no_checkpoint(tmp_path, capsys,
                                                           forked):
    # lr 1e300 on one 80-patient site once wrote local and central
    # checkpoints of non-finite tensors, then ended in a traceback
    cfg_path, out = _config(tmp_path)
    _set(cfg_path, ("train", "lr"), 1.0e+300)
    _set(cfg_path, ("sites",), [{"name": "s0", "role": "development",
                                 "n_patients": 80,
                                 "target_prevalence": [0.2, 0.1, 0.15, 0.05]}])
    assert cli.main(["generate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "error: local_s0: TrainingError: training on s0 left parameters that "
        "are not finite after epoch 1\n")
    assert not list(out.rglob("*.ckpt"))
    _assert_wrote_no_model(out)
    _assert_reaped(forked)


@pytest.mark.parametrize("argv", [
    ["--paradigm", "local"], ["--paradigm", "federated", "--algo", "fedavg"]],
    ids=["local", "fedavg"])
def test_training_overflow_is_one_stderr_line(tmp_path, argv):
    # numpy's overflow and invalid-value warnings, each with its source
    # line, once came before the error line; they are written in the worker
    # processes, so only the command's own stderr shows them
    cfg_path, out = _config(tmp_path)
    _set(cfg_path, ("train", "lr"), 1.0e+300)
    assert cli.main(["generate", "--config", str(cfg_path)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "fedsurg.cli", "--log-level", "WARNING",
         "train", "--config", str(cfg_path), *argv],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert not list(out.rglob("*.ckpt"))


def _trained_results(cfg_path, monkeypatch, slots):
    """What `train` gets back from each paradigm with ``slots`` workers."""
    seen = {}
    monkeypatch.setattr(cli, "usable_cpus", lambda: slots)
    for name in ("run_local_paradigm", "run_central_paradigm",
                 "run_federated_paradigm"):
        def kept(*args, _fn=getattr(exp, name), _name=name):
            seen[_name, *args[2:]] = result = _fn(*args)
            return result
        monkeypatch.setattr(exp, name, kept)
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    monkeypatch.undo()
    return seen


def _summary(result):
    scaffold = result.scaffold
    return (params_digest(result.best_params), result.history,
            result.best_round,
            scaffold and params_digest(scaffold.server_control),
            scaffold and {c: params_digest(p)
                          for c, p in scaffold.client_controls.items()})


def test_train_results_do_not_depend_on_worker_slots(pipeline, tmp_path,
                                                     monkeypatch):
    _, trained = pipeline
    cfg_path, out = _config(tmp_path)
    shutil.copytree(trained / "cohorts", out / "cohorts")
    one = _trained_results(cfg_path, monkeypatch, 1)
    two = _trained_results(cfg_path, monkeypatch, 2)
    assert sorted(one) == sorted(two) == sorted(
        [("run_local_paradigm",), ("run_central_paradigm",)]
        + [("run_federated_paradigm", a) for a in exp.ALGORITHMS])
    for key in one:
        a, b = one[key], two[key]
        if key == ("run_local_paradigm",):
            assert a.keys() == b.keys() == {"a", "b"}
            a, b = [a[n] for n in "ab"], [b[n] for n in "ab"]
        elif key == ("run_central_paradigm",):
            assert ([s.tobytes() for s in a[1].scaler_stats()]
                    == [s.tobytes() for s in b[1].scaler_stats()])
            a, b = [a[0]], [b[0]]
        else:
            a, b = [a], [b]
        assert [_summary(r) for r in a] == [_summary(r) for r in b], key
    assert one["run_federated_paradigm", "scaffold"].scaffold is not None


# --- `evaluate` scores each (model, site) cell as a unit ------------------

def _trained_copy(trained, tmp_path):
    """A config whose output directory holds the pipeline's cohorts and
    checkpoints, and nothing evaluate writes."""
    tmp_path.mkdir(exist_ok=True)
    cfg_path, out = _config(tmp_path)
    for sub in ("cohorts", "checkpoints"):
        shutil.copytree(trained / sub, out / sub)
    return cfg_path, out


def _tree(path):
    return {p.relative_to(path): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def test_evaluate_cell_failure_is_one_line(pipeline, tmp_path, capsys,
                                           monkeypatch, forked):
    _, trained = pipeline
    cfg_path, out = _trained_copy(trained, tmp_path)
    bootstrap_cis = exp.metrics.bootstrap_cis
    planted = zlib.crc32(b"fedavg|b|icu") ^ 9  # the cell seed of one cell

    def failing(samples, *args, **kw):
        if any(seed == planted for *_, jobs in samples for _, seed in jobs):
            raise ValueError("planted")
        return bootstrap_cis(samples, *args, **kw)

    monkeypatch.setattr(exp.metrics, "bootstrap_cis", failing)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: fedavg@b: ValueError: planted\n"
    assert not (out / "reports" / "report.json").exists()
    assert not (out / "scores" / "fedavg__b.csv").exists()
    _assert_reaped(forked)


def test_evaluate_prediction_failure_is_one_line(pipeline, tmp_path, capsys,
                                                 monkeypatch, forked):
    _, trained = pipeline
    cfg_path, out = _trained_copy(trained, tmp_path)
    predict_unit = exp.predict_unit

    def failing(cfg, sd, *args):
        if sd.name == "a":  # the first site, so no cell was submitted
            raise ValueError("planted")
        return predict_unit(cfg, sd, *args)

    monkeypatch.setattr(exp, "predict_unit", failing)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "error: predict@a: ValueError: planted\n"
    assert not list((out / "reports").iterdir())
    assert not list((out / "scores").iterdir())
    _assert_reaped(forked)


def test_evaluate_score_file_write_failure_leaves_no_score_file(
        pipeline, tmp_path, capsys, monkeypatch, forked):
    _, trained = pipeline
    cfg_path, out = _trained_copy(trained, tmp_path)

    def failing(text):
        raise OSError(28, "No space left on device")

    # every cell fails after writing its header; the first is reported
    monkeypatch.setattr(exp, "_csv_field", failing)
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        "error: central@a: OSError: [Errno 28] No space left on device\n")
    assert not list((out / "scores").iterdir())
    assert not (out / "reports" / "report.json").exists()
    _assert_reaped(forked)


def test_compare_write_failure_leaves_no_compare_json(pipeline, tmp_path,
                                                      monkeypatch):
    _, trained = pipeline
    cfg_path, out = _trained_copy(trained, tmp_path)
    shutil.copytree(trained / "reports", out / "reports")
    (out / "reports" / "compare.json").unlink()

    def failing(obj, fh, **kw):
        fh.write("[")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(json, "dump", failing)
    with pytest.raises(OSError, match="No space left"):
        cli.main(["compare", "--config", str(cfg_path)])
    assert sorted(p.name for p in (out / "reports").iterdir()) == [
        "report.csv", "report.json"]


@pytest.mark.parametrize("text", [b"seed: [1, 2\n", b"seed: 1\n  x: 2\n",
                                  b"a: 1\n\tb: 2\n", b"seed: \x80\n"],
                         ids=["unclosed", "indent", "tab", "not-utf8"])
def test_config_that_is_not_yaml_exits_2_with_one_line(tmp_path, capsys,
                                                       text):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(text)
    assert cli.main(["compare", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid YAML: ")
    assert err.count("\n") == 1


def test_evaluate_outputs_do_not_depend_on_worker_slots(pipeline, tmp_path,
                                                        monkeypatch):
    _, trained = pipeline
    outs = []
    for slots in (1, 2):
        cfg_path, out = _trained_copy(trained, tmp_path / f"slots{slots}")
        monkeypatch.setattr(cli, "usable_cpus", lambda: slots)
        assert cli.main(["evaluate", "--config", str(cfg_path)]) == 0
        outs.append(out)
    one, two = ({sub: _tree(out / sub) for sub in ("scores", "reports")}
                for out in outs)
    assert len(one["scores"]) == 3 * 6
    assert one == two
    assert one["reports"] == {p: b for p, b in _tree(trained / "reports").items()
                              if p.name.startswith("report.")}
