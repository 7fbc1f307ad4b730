"""Aggregation oracles, SCAFFOLD invariants and the in-process
federation loop."""

import threading

import numpy as np
import pytest

from fedsurg import cohort as C
from fedsurg import federation as F
from fedsurg import model as M
from fedsurg.preprocess import Preprocessor, chronological_split, shared_scaler
from fedsurg.wire import (ChannelClosed, ClientUpdate, GlobalModel,
                          GlobalScaler, Hello, ProtocolError, RoundAck,
                          ScalerStats, quantize32)
from conftest import SMALL_ARCH, federate_traced, params_digest, random_batch


def _params(seed):
    return M.init_params(SMALL_ARCH, seed)


def _update(cid, seed, n, **kw):
    return ClientUpdate(cid, 0, _params(seed), n, 4, **kw)


def test_fedavg_aggregate_weighted_mean_oracle():
    updates = [_update("a", 1, 100), _update("b", 2, 300), _update("c", 3, 600)]
    got = F.fedavg_aggregate(updates)
    for k in got:
        want = (100 * updates[0].params[k] + 300 * updates[1].params[k]
                + 600 * updates[2].params[k]) / 1000.0
        assert np.allclose(got[k], want, atol=1e-15)


def test_fedavg_aggregate_is_order_invariant():
    updates = [_update("a", 1, 10), _update("b", 2, 20), _update("c", 3, 5)]
    g1 = F.fedavg_aggregate(updates)
    g2 = F.fedavg_aggregate(updates[::-1])
    assert params_digest(g1) == params_digest(g2)


def test_scaffold_client_finalize_oracle():
    # [DERIVED] Option II: c_i+ = c_i - c + (x - y) / (K * lr)
    c_i, c, x, y = _params(1), _params(2), _params(3), _params(4)
    out = F.scaffold_client_finalize(c_i, c, x, y, steps=5, lr=0.1)
    for k in out:
        want = c_i[k] - c[k] + (x[k] - y[k]) / (5 * 0.1)
        assert np.allclose(out[k], want, atol=1e-12)


def test_scaffold_server_update_oracle_and_control_mean():
    x = _params(0)
    state = F.ScaffoldState.zeros(x, ["a", "b", "c"])
    updates = []
    deltas = {}
    for i, (cid, n) in enumerate([("a", 10), ("b", 20), ("c", 30)]):
        delta = {k: np.full_like(v, 0.01 * (i + 1)) for k, v in x.items()}
        deltas[cid] = delta
        updates.append(ClientUpdate(cid, 0, _params(i + 1), n, 4,
                                    control_delta=delta))
    new_x = F.scaffold_server_update(state, x, updates, server_lr=0.7)
    for k in x:
        drift = np.mean([u.params[k] - x[k] for u in updates], axis=0)
        assert np.allclose(new_x[k], x[k] + 0.7 * drift, atol=1e-12)
        mean_delta = np.mean([deltas[c][k] for c in deltas], axis=0)
        assert np.allclose(state.server_control[k], mean_delta, atol=1e-12)
    # invariant: server control equals the mean of client controls
    assert state.control_gap() < 1e-12


def test_scaffold_control_mean_invariant_over_rounds():
    x = _params(0)
    state = F.ScaffoldState.zeros(x, ["a", "b"])
    rng = np.random.default_rng(3)
    for t in range(5):
        updates = []
        for cid, n in [("a", 10), ("b", 14)]:
            delta = {k: rng.normal(0, 0.1, v.shape) for k, v in x.items()}
            updates.append(ClientUpdate(cid, t, _params(t + 1), n, 4,
                                        control_delta=delta))
        x = F.scaffold_server_update(state, x, updates, server_lr=1.0)
        assert state.control_gap() < 1e-12


def test_scaffold_server_requires_full_participation():
    x = _params(0)
    state = F.ScaffoldState.zeros(x, ["a", "b"])
    only_a = [ClientUpdate("a", 0, _params(1), 10, 4,
                           control_delta={k: np.zeros_like(v)
                                          for k, v in x.items()})]
    with pytest.raises(F.FederationError):
        F.scaffold_server_update(state, x, only_a, server_lr=1.0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        F.TrainConfig(lr=-1.0)
    with pytest.raises(ValueError):
        F.TrainConfig(rounds=0)


# --- the round loop ---------------------------------------------------------

def _scripted(scores):
    """A round that scores the parameters it gets with scores[t] on every
    outcome, and hands on w + 1."""
    calls = []

    def one_round(t, params):
        calls.append(t)
        nxt = {"w": params["w"] + 1.0}
        return params, (scores[t],) * 4, {"site": float(t)}, nxt

    return one_round, calls


def _run(scores, patience):
    one_round, calls = _scripted(scores)
    cfg = F.TrainConfig(rounds=len(scores), patience=patience)
    result = F.run_rounds({"w": np.zeros(1)}, cfg, one_round)
    return result, calls


def test_run_rounds_tie_keeps_the_first_best():
    result, _ = _run([0.5, 0.75, 0.75, 0.625], patience=5)
    assert (result.best_round, result.best_score) == (1, 0.75)
    assert result.best_params["w"][0] == 1.0  # the scored, not the next params
    assert [h.mean_val for h in result.history] == [0.5, 0.75, 0.75, 0.625]
    assert result.history[2].val_auroc == (0.75,) * 4
    assert result.history[2].train_loss == {"site": 2.0}


def test_run_rounds_strict_improvement_resets_patience():
    # without the reset at round 2 the loop would stop after round 2
    result, calls = _run([0.5, 0.25, 0.625, 0.25, 0.25, 0.875], patience=2)
    assert calls == [0, 1, 2, 3, 4]
    assert result.best_round == 2


def test_run_rounds_stops_after_exactly_patience_flat_rounds():
    result, calls = _run([0.75, 0.25, 0.75, 0.5, 0.875, 0.875], patience=3)
    assert calls == [0, 1, 2, 3]
    assert len(result.history) == 4
    assert result.best_round == 0
    result, calls = _run([0.75, 0.25, 0.75], patience=3)
    assert calls == [0, 1, 2]  # rounds run out first


def test_run_rounds_final_params_are_the_last_next_params():
    result, calls = _run([0.5, 0.25, 0.125], patience=2)
    assert calls == [0, 1, 2]
    assert result.final_params["w"][0] == 3.0
    assert result.best_params["w"][0] == 0.0
    assert result.scaffold is None


def test_run_rounds_never_selects_a_nan_score():
    result, calls = _run([float("nan")] * 3, patience=2)
    assert calls == [0, 1]
    assert (result.best_round, result.best_score) == (-1, -np.inf)
    assert result.best_params["w"][0] == 0.0


# --- end-to-end in-process runs -------------------------------------------

SPEC = C.FeatureSpec(n_continuous=SMALL_ARCH.n_continuous,
                     n_binary=SMALL_ARCH.n_binary,
                     hc_vocab_sizes=tuple(v for v, _ in SMALL_ARCH.high_card_specs))


def _site(name, n=160, seed=5):
    cfg = C.SiteConfig(site_name=name, n_patients=n,
                       target_prevalence=(0.2, 0.1, 0.15, 0.05),
                       surgeon_vocab_size=10)
    truth = C.make_ground_truth(SPEC, seed)
    cohort, _ = C.generate_site(cfg, SPEC, truth, seed, mc_samples=5_000)
    train, val, _ = chronological_split(cohort)
    return train, val


def _worker(name, train, val, algo, cfg):
    """Site ``name``'s worker, handed its fit as ``prepare_sites`` makes it."""
    return F.SiteWorker(name, train, val, SMALL_ARCH, algo, cfg,
                        Preprocessor(SPEC.hc_vocab_sizes, 10).fit(train))


def _workers(algo, cfg, names=("a", "b")):
    return {name: _worker(name, *_site(name), algo, cfg) for name in names}


def _cfg(**kw):
    base = dict(lr=0.1, local_epochs=1, batch_size=64, rounds=3, seed=1)
    base.update(kw)
    return F.TrainConfig(**base)


def test_inprocess_run_shape_and_determinism():
    cfg = _cfg()
    r1 = F.run_federation_inprocess(SMALL_ARCH, "fedavg", cfg, _workers("fedavg", cfg))
    r2 = F.run_federation_inprocess(SMALL_ARCH, "fedavg", cfg, _workers("fedavg", cfg))
    assert len(r1.history) <= cfg.rounds
    assert [h.round for h in r1.history] == list(range(len(r1.history)))
    assert set(r1.history[0].train_loss) == {"a", "b"}
    assert 0 <= r1.best_round < cfg.rounds
    assert params_digest(r1.best_params) == params_digest(r2.best_params)
    assert r1.history == r2.history


def test_fedprox_mu_zero_matches_fedavg_bitwise():
    cfg = _cfg(mu=0.0, rounds=4)
    ravg = F.run_federation_inprocess(SMALL_ARCH, "fedavg", cfg,
                                      _workers("fedavg", cfg))
    rprox = F.run_federation_inprocess(SMALL_ARCH, "fedprox", cfg,
                                       _workers("fedprox", cfg))
    assert ravg.history == rprox.history
    assert params_digest(ravg.final_params) == params_digest(rprox.final_params)


def test_fedprox_mu_positive_differs():
    cfg0 = _cfg(rounds=2)
    cfg1 = _cfg(rounds=2, mu=0.5)
    r0 = F.run_federation_inprocess(SMALL_ARCH, "fedprox", cfg0,
                                    _workers("fedprox", cfg0))
    r1 = F.run_federation_inprocess(SMALL_ARCH, "fedprox", cfg1,
                                    _workers("fedprox", cfg1))
    assert params_digest(r0.final_params) != params_digest(r1.final_params)


def test_scaffold_inprocess_control_invariant():
    cfg = _cfg(rounds=3)
    r = F.run_federation_inprocess(SMALL_ARCH, "scaffold", cfg,
                                   _workers("scaffold", cfg))
    assert r.scaffold is not None
    assert r.scaffold.control_gap() < 1e-12


def test_single_client_federated_equals_quantized_sgd():
    """One site federated with FedAvg collapses to plain minibatch SGD
    with the transport's float32 quantization at each round boundary."""
    cfg = _cfg(rounds=3)
    train, val = _site("solo")
    workers = {"solo": _worker("solo", train, val, "fedavg", cfg)}
    _, trace = federate_traced(SMALL_ARCH, "fedavg", cfg, workers)
    assert len(trace) == cfg.rounds

    # [DERIVED] oracle: same preprocessing, same RNG stream, same steps
    vocabs = tuple(v for v, _ in SMALL_ARCH.high_card_specs)
    local_pp = Preprocessor(vocabs, 10).fit(train)
    fm = local_pp.rescaled(*shared_scaler([local_pp.scaler_stats()])).transform(train)
    params = M.init_params(SMALL_ARCH, cfg.seed)
    for t in range(cfg.rounds):
        xq = quantize32(params)
        rep = M.local_train(xq, M.RiskNet(SMALL_ARCH), fm, cfg,
                            F.client_rng(cfg.seed, "solo", t))
        params = quantize32(rep.params)
        diff = max(np.abs(trace[t][k] - params[k]).max() for k in params)
        assert diff < 1e-9, f"round {t}: {diff}"


def test_scaler_range_of_the_wrong_width_names_the_site():
    import dataclasses
    cfg = _cfg(rounds=1)
    workers = _workers("fedavg", cfg)
    train, val = _site("short")
    short = dataclasses.replace(train, continuous=train.continuous[:, :-1])
    workers["short"] = _worker("short", short, val, "fedavg", cfg)
    with pytest.raises(F.FederationError, match="'short'.* 4 mins") as err:
        F.run_federation_inprocess(SMALL_ARCH, "fedavg", cfg, workers)
    assert not isinstance(err.value, F.ClientFailure)


class _Tampering(F.LoopbackChannel):
    """A loopback link whose site's replies of one type are changed by
    ``tamper`` before the coordinator reads them."""

    def __init__(self, worker, kind, tamper):
        super().__init__(worker)
        self.kind, self.tamper = kind, tamper

    def recv(self):
        msg = super().recv()
        if isinstance(msg, self.kind):
            self.tamper(msg)
        return msg


def _set_first(name, value):
    def tamper(msg):
        getattr(msg, name)[0] = value
    return tamper


@pytest.mark.parametrize("field, value", [("mins", np.nan), ("maxs", np.inf),
                                          ("mins", -np.inf)])
def test_non_finite_scaler_range_names_the_site(field, value):
    cfg = _cfg(rounds=2)
    workers = _workers("fedavg", cfg)
    channels = [F.LoopbackChannel(workers["a"]),
                _Tampering(workers["b"], ScalerStats, _set_first(field, value))]
    with pytest.raises(F.FederationError,
                       match="'b' sent scaler bounds that are not finite"):
        F.coordinate(SMALL_ARCH, "fedavg", cfg, channels, ["a", "b"])
    # no site got a GlobalScaler, so none trained
    assert workers["a"]._expect is GlobalScaler


def test_scaler_range_with_min_above_max_names_the_site():
    cfg = _cfg(rounds=2)
    workers = _workers("fedavg", cfg)

    def swap(msg):
        msg.mins[0], msg.maxs[0] = msg.maxs[0] + 1.0, msg.mins[0]
    channels = [_Tampering(workers["a"], ScalerStats, swap),
                F.LoopbackChannel(workers["b"])]
    with pytest.raises(F.FederationError, match="'a' sent a scaler range with "
                                                "a min above its max"):
        F.coordinate(SMALL_ARCH, "fedavg", cfg, channels, ["a", "b"])


@pytest.mark.parametrize("algo", ["fedavg", "scaffold"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_client_update_names_the_site(algo, value):
    cfg = _cfg(rounds=2)
    workers = _workers(algo, cfg)

    def poison(msg):
        next(iter(msg.params.values())).flat[0] = value
    channels = [F.LoopbackChannel(workers["a"]),
                _Tampering(workers["b"], ClientUpdate, poison)]
    with pytest.raises(F.FederationError,
                       match="'b' sent round 0 parameters that are not finite"):
        F.coordinate(SMALL_ARCH, algo, cfg, channels, ["a", "b"])


def test_non_finite_control_delta_names_the_site():
    cfg = _cfg(rounds=2)
    workers = _workers("scaffold", cfg)

    def poison(msg):
        next(iter(msg.control_delta.values())).flat[0] = np.nan
    channels = [_Tampering(workers["a"], ClientUpdate, poison),
                F.LoopbackChannel(workers["b"])]
    with pytest.raises(F.FederationError,
                       match="'a' sent round 0 parameters that are not finite"):
        F.coordinate(SMALL_ARCH, "scaffold", cfg, channels, ["a", "b"])


def _setter(field, value):
    def tamper(msg):
        setattr(msg, field, value(msg))
    return tamper


def _set_param(name, value):
    def tamper(msg):
        msg.params[name] = value(msg.params[name])
    return tamper


def _drop_param(name):
    def tamper(msg):
        del msg.params[name]
    return tamper


# each once reached the aggregate or the model selection, or ended in a
# bare ValueError or TypeError; the tensor layout was checked, between the
# updates only, by the aggregators
@pytest.mark.parametrize("algo, tamper, message", [
    ("fedavg", _set_param("merge.b", lambda b: b[:1]),
     r"'b' sent round 0 parameters with tensor 'merge.b' of shape \(1,\) "
     r"where the architecture has \(8,\)"),
    ("fedavg", _set_param("merge.W", lambda w: w.T.copy()),
     r"'b' sent round 0 parameters with tensor 'merge.W' of shape \(8, 18\) "
     r"where the architecture has \(18, 8\)"),
    ("fedavg", _drop_param("merge.W"),
     r"'b' sent round 0 parameters with tensor 'merge.W' of shape None"),
    ("scaffold", _setter("control_delta", lambda msg: None),
     "'b' sent round 0 no control delta"),
    ("fedavg", _setter("client_id", lambda msg: "a"),
     "'b' sent round 0 an update under client id 'a'"),
    ("fedavg", _setter("val_auroc", lambda msg: (np.nan, *msg.val_auroc[1:])),
     r"'b' sent round 0 validation AUROCs \(nan, "),
    ("fedavg", _setter("val_auroc", lambda msg: msg.val_auroc[:1]),
     "'b' sent round 0 validation AUROCs .* where 4 finite ones are due"),
    ("fedavg", _setter("n_samples", lambda msg: 0),
     "'b' sent round 0 an update of 0 samples"),
    ("fedavg", _setter("n_samples", lambda msg: -10**6),
     "'b' sent round 0 an update of -1000000 samples"),
], ids=["short-bias", "transposed-weight", "missing-tensor",
        "no-control-delta", "other-client-id", "nan-val-auroc",
        "one-val-auroc", "zero-samples", "negative-samples"])
def test_bad_client_update_names_the_site(algo, tamper, message):
    cfg = _cfg(rounds=2)
    workers = _workers(algo, cfg)
    channels = [F.LoopbackChannel(workers["a"]),
                _Tampering(workers["b"], ClientUpdate, tamper)]
    with pytest.raises(F.FederationError, match=message) as info:
        F.coordinate(SMALL_ARCH, algo, cfg, channels, ["a", "b"])
    assert not isinstance(info.value, F.ClientFailure)


def test_handshake_rejects_unknown_client():
    cfg = _cfg(rounds=1)
    workers = _workers("fedavg", cfg, names=("a", "intruder"))
    with pytest.raises((F.HandshakeError, F.ClientFailure)):
        F.run_federation_inprocess(SMALL_ARCH, "fedavg", cfg, {
            "a": workers["a"], "b": workers["intruder"]})


def test_handshake_rejects_wrong_architecture():
    import dataclasses
    cfg = _cfg(rounds=1)
    other = dataclasses.replace(SMALL_ARCH, merge_hidden=SMALL_ARCH.merge_hidden + 1)
    train, val = _site("a")
    workers = {"a": _worker("a", train, val, "fedavg", cfg)}
    with pytest.raises((F.HandshakeError, F.ClientFailure)):
        F.run_federation_inprocess(other, "fedavg", cfg, workers)


def test_client_rng_streams_are_keyed():
    a = F.client_rng(1, "siteA", 0).random(3)
    b = F.client_rng(1, "siteA", 0).random(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, F.client_rng(1, "siteB", 0).random(3))
    assert not np.array_equal(a, F.client_rng(1, "siteA", 1).random(3))
    assert not np.array_equal(a, F.client_rng(2, "siteA", 0).random(3))


def test_inprocess_sites_run_on_the_calling_thread(monkeypatch):
    callers = []
    handle = F.SiteWorker.handle

    def spy(self, msg):
        callers.append(threading.get_ident())
        return handle(self, msg)

    monkeypatch.setattr(F.SiteWorker, "handle", spy)
    cfg = _cfg(rounds=2)
    F.run_federation_inprocess(SMALL_ARCH, "scaffold", cfg,
                               _workers("scaffold", cfg))
    # per site: RoundAck, GlobalScaler, two GlobalModels, Shutdown
    assert callers == [threading.get_ident()] * 10


def test_worker_failure_mid_round_names_the_site(monkeypatch):
    local_train = F.local_train
    calls = []

    def failing(*args, **kw):
        calls.append(None)
        if len(calls) == 4:  # sites train in sorted order: "b" in round 1
            raise MemoryError("out of memory")
        return local_train(*args, **kw)

    monkeypatch.setattr(F, "local_train", failing)
    cfg = _cfg(rounds=3)
    with pytest.raises(F.ClientFailure) as info:
        F.run_federation_inprocess(SMALL_ARCH, "fedavg", cfg,
                                   _workers("fedavg", cfg))
    assert info.value.client_id == "b"
    assert isinstance(info.value.cause, MemoryError)
    assert "'b'" in str(info.value)


def test_worker_rejects_model_before_scaler():
    cfg = _cfg(rounds=1)
    worker = _workers("fedavg", cfg, names=("a",))["a"]
    with pytest.raises(F.FederationError):
        worker.handle(RoundAck(0))  # no session opened by hello()
    worker.hello()
    stats = worker.handle(RoundAck(0))
    assert isinstance(stats, ScalerStats)
    with pytest.raises(F.FederationError):
        worker.handle(GlobalModel(0, M.init_params(SMALL_ARCH, 0)))
    assert worker.handle(GlobalScaler(stats.mins, stats.maxs)) is None


class _StatsEverywhere:
    """A site that answers every RoundAck and GlobalModel with ScalerStats."""

    def __init__(self, name):
        n = SMALL_ARCH.n_continuous
        self.stats = ScalerStats(np.zeros(n), np.ones(n))
        self.replies = [Hello(name, M.arch_fingerprint(SMALL_ARCH))]

    def send(self, msg):
        if isinstance(msg, (RoundAck, GlobalModel)):
            self.replies.append(self.stats)

    def recv(self):
        return self.replies.pop(0)


def test_coordinate_names_a_site_out_of_protocol():
    cfg = _cfg(rounds=2)
    worker = _workers("fedavg", cfg, names=("a",))["a"]
    channels = [F.LoopbackChannel(worker), _StatsEverywhere("b")]
    with pytest.raises(F.FederationError, match="'b'") as info:
        F.coordinate(SMALL_ARCH, "fedavg", cfg, channels, ["a", "b"])
    assert not isinstance(info.value, F.ClientFailure)
    assert "ScalerStats" in str(info.value)
    assert "ClientUpdate" in str(info.value)


class _GarbledAfterHello:
    """A site whose every frame after Hello fails to decode."""

    def __init__(self, name):
        self.replies = [Hello(name, M.arch_fingerprint(SMALL_ARCH))]

    def send(self, msg):
        pass

    def recv(self):
        if self.replies:
            return self.replies.pop(0)
        raise ProtocolError("payload truncated")


def test_coordinate_names_a_site_that_sends_a_bad_frame():
    cfg = _cfg(rounds=2)
    worker = _workers("fedavg", cfg, names=("a",))["a"]
    channels = [F.LoopbackChannel(worker), _GarbledAfterHello("b")]
    with pytest.raises(F.ClientFailure, match="'b'") as info:
        F.coordinate(SMALL_ARCH, "fedavg", cfg, channels, ["a", "b"])
    assert info.value.client_id == "b"
    assert isinstance(info.value.cause, ProtocolError)


class _FailsAtOnce:
    """A channel whose first frame cannot be read."""

    def __init__(self, exc):
        self.exc = exc

    def send(self, msg):
        pass

    def recv(self):
        raise self.exc


@pytest.mark.parametrize("exc", [ProtocolError("bad magic"),
                                 ChannelClosed("peer closed"),
                                 ConnectionResetError("reset")],
                         ids=["protocol", "closed", "os"])
def test_bad_frame_during_handshake_is_a_handshake_error(exc):
    cfg = _cfg(rounds=2)
    worker = _workers("fedavg", cfg, names=("a",))["a"]
    channels = [F.LoopbackChannel(worker), _FailsAtOnce(exc)]
    with pytest.raises(F.HandshakeError, match="channel 1 of 2") as info:
        F.coordinate(SMALL_ARCH, "fedavg", cfg, channels, ["a", "b"])
    assert info.value.__cause__ is exc
    assert type(exc).__name__ in str(info.value)
