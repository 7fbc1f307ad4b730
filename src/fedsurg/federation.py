"""Federated round orchestration: FedAvg, FedProx and SCAFFOLD.

The coordinator and site workers speak only wire messages. A site worker
is a state machine that answers one message at a time, so the same
coordinator drives it either in process, one site after another through
the frame codec on the calling thread, or over TCP sockets (one process
per site). Full participation every round; aggregation iterates clients
in sorted id order so results are independent of arrival order.

``run_rounds`` is the model-selection loop of every paradigm: local and
central training run it over epochs, the coordinator over rounds.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import metrics
from .cohort import Cohort
from .model import (ArchConfig, ModelParams, RiskNet, arch_fingerprint,
                    init_params, local_train, predict)
from .preprocess import Preprocessor, shared_scaler
from .wire import (ChannelClosed, ClientUpdate, GlobalModel, GlobalScaler,
                   Hello, Message, ProtocolError, RoundAck, ScalerStats,
                   Shutdown, decode_frame, encode_frame)

ALGORITHMS = ("fedavg", "fedprox", "scaffold")


class FederationError(RuntimeError):
    pass


class HandshakeError(FederationError):
    pass


class ClientFailure(FederationError):
    def __init__(self, client_id: str, cause: Exception):
        super().__init__(f"client {client_id!r} failed: {cause}")
        self.client_id = client_id
        self.cause = cause


@dataclass
class TrainConfig:
    lr: float = 0.1
    local_epochs: int = 1
    batch_size: int = 256
    rounds: int = 50
    server_lr: float = 1.0
    mu: float = 0.0
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0 or self.server_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.mu < 0:
            raise ValueError("mu must be non-negative")
        if self.rounds < 1 or self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("rounds, local_epochs and batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def zeros_like_params(params: ModelParams) -> ModelParams:
    return {k: np.zeros_like(v) for k, v in params.items()}


def _check_layouts(updates: list[ClientUpdate]) -> None:
    keys = list(updates[0].params.keys())
    for u in updates[1:]:
        if list(u.params.keys()) != keys:
            raise FederationError(
                f"parameter layout mismatch from client {u.client_id!r}")


def fedavg_aggregate(updates: list[ClientUpdate]) -> ModelParams:
    """Sample-size weighted elementwise average of client weights."""
    if not updates:
        raise FederationError("no updates to aggregate")
    _check_layouts(updates)
    ordered = sorted(updates, key=lambda u: u.client_id)
    total = sum(u.n_samples for u in ordered)
    out = zeros_like_params(ordered[0].params)
    for u in ordered:
        w = u.n_samples / total
        for k in out:
            out[k] = out[k] + w * u.params[k]
    return out


def scaffold_client_finalize(c_i: ModelParams, c: ModelParams,
                             x_global: ModelParams, y_local: ModelParams,
                             steps: int, lr: float) -> ModelParams:
    """Gradient-free control refresh: c_i - c + (x - y) / (K * lr)."""
    if steps < 1:
        raise FederationError("control update needs at least one local step")
    inv = 1.0 / (steps * lr)
    return {k: c_i[k] - c[k] + (x_global[k] - y_local[k]) * inv for k in c_i}


@dataclass
class ScaffoldState:
    server_control: ModelParams
    client_controls: dict[str, ModelParams]

    @classmethod
    def zeros(cls, template: ModelParams, client_ids) -> "ScaffoldState":
        return cls(zeros_like_params(template),
                   {cid: zeros_like_params(template) for cid in sorted(client_ids)})

    def control_gap(self) -> float:
        """max |c - mean_i(c_i)| over all parameters."""
        gap = 0.0
        n = len(self.client_controls)
        for k in self.server_control:
            mean = sum(ctrl[k] for ctrl in self.client_controls.values()) / n
            gap = max(gap, float(np.abs(self.server_control[k] - mean).max()))
        return gap


def scaffold_server_update(state: ScaffoldState, x: ModelParams,
                           updates: list[ClientUpdate],
                           server_lr: float) -> ModelParams:
    """x + eta_g * mean(y_i - x); controls advance by the mean client delta.

    Requires full participation: every registered client must report.
    """
    present = {u.client_id for u in updates}
    registered = set(state.client_controls)
    if present != registered:
        raise FederationError(
            f"participation error: missing {sorted(registered - present)}, "
            f"unknown {sorted(present - registered)}")
    _check_layouts(updates)
    ordered = sorted(updates, key=lambda u: u.client_id)
    n = len(ordered)
    new_x = dict(x)
    for k in x:
        drift = sum(u.params[k] - x[k] for u in ordered) / n
        new_x[k] = x[k] + server_lr * drift
    for k in state.server_control:
        mean_delta = sum(u.control_delta[k] for u in ordered) / n
        state.server_control[k] = state.server_control[k] + mean_delta
    for u in ordered:
        ctrl = state.client_controls[u.client_id]
        state.client_controls[u.client_id] = {
            k: ctrl[k] + u.control_delta[k] for k in ctrl}
    return new_x


# --- round loop -----------------------------------------------------------

@dataclass
class RoundRecord:
    round: int
    val_auroc: tuple[float, ...]        # per outcome, mean over clients
    train_loss: dict[str, float]        # per client
    mean_val: float


@dataclass
class TrainResult:
    best_params: ModelParams
    best_round: int
    best_score: float
    final_params: ModelParams
    history: list[RoundRecord]
    scaffold: ScaffoldState | None = None


def run_rounds(params: ModelParams, cfg: TrainConfig, one_round) -> TrainResult:
    """Validation-score model selection with patience, the one rule of
    every paradigm: keep the first parameters with the highest mean
    validation AUROC, replaced only by a strict improvement, and stop once
    ``cfg.patience`` rounds in a row have not improved on the best.

    ``one_round(t, params)`` returns the parameters it scored, their
    per-outcome validation AUROC, the train loss per participant and the
    parameters the next round starts from."""
    history: list[RoundRecord] = []
    best_params, best_round, best_score = dict(params), -1, -np.inf
    since_best = 0
    for t in range(cfg.rounds):
        scored, val, losses, params = one_round(t, params)
        val = tuple(float(v) for v in val)
        mean_val = float(np.mean(val))
        history.append(RoundRecord(t, val, losses, mean_val))
        if mean_val > best_score:
            best_params, best_round, best_score = dict(scored), t, mean_val
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return TrainResult(best_params, best_round, best_score, params, history)


# --- coordinator ----------------------------------------------------------

def _handshake(channels: list, arch: ArchConfig, expected: list[str]
               ) -> dict[str, object]:
    fingerprint = arch_fingerprint(arch)
    by_id: dict[str, object] = {}
    for pos, chan in enumerate(channels):
        # no Hello has named the site on this channel yet, so name its position
        try:
            msg = chan.recv()
        except (ChannelClosed, OSError, ProtocolError) as exc:
            raise HandshakeError(
                f"channel {pos} of {len(channels)} failed before its Hello: "
                f"{type(exc).__name__}: {exc}") from exc
        if not isinstance(msg, Hello):
            raise HandshakeError(f"expected Hello, got {type(msg).__name__}")
        if msg.arch_fingerprint != fingerprint:
            chan.send(Shutdown())
            raise HandshakeError(
                f"client {msg.client_id!r} has architecture fingerprint "
                f"{msg.arch_fingerprint}, federation uses {fingerprint}")
        if msg.client_id in by_id:
            chan.send(Shutdown())
            raise HandshakeError(f"duplicate client id {msg.client_id!r}")
        if msg.client_id not in expected:
            chan.send(Shutdown())
            raise HandshakeError(f"unknown client id {msg.client_id!r}")
        by_id[msg.client_id] = chan
        chan.send(RoundAck(0))
    missing = set(expected) - set(by_id)
    if missing:
        raise HandshakeError(f"clients never connected: {sorted(missing)}")
    return by_id


def _receive(chan, cid: str, want: type, round_: int | None = None):
    """The next message from site ``cid``, which must be a ``want`` (of
    round ``round_``, if given)."""
    try:
        msg = chan.recv()
    except (ChannelClosed, OSError, ProtocolError) as exc:
        raise ClientFailure(cid, exc) from exc
    if not isinstance(msg, want) or (round_ is not None and msg.round != round_):
        at = "" if round_ is None else f" at round {round_}"
        raise FederationError(
            f"client {cid!r} replied {type(msg).__name__} out of protocol"
            f"{at}, expected {want.__name__}")
    return msg


def _require_finite(cid: str, what: str, arrays) -> None:
    """FederationError naming site ``cid`` when any of ``arrays`` holds a
    NaN or an infinity, which would reach every site through the shared
    scaler or the aggregate."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise FederationError(f"client {cid!r} sent {what} that are not finite")


def coordinate(arch: ArchConfig, algo: str, cfg: TrainConfig, channels: list,
               expected: list[str]) -> TrainResult:
    """Server side of one federated training run: handshake, the shared
    scaler, then rounds of local training and aggregation until
    ``run_rounds`` stops; every site gets Shutdown at the end."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}")
    expected = sorted(expected)
    by_id = _handshake(channels, arch, expected)
    stats = [_receive(by_id[cid], cid, ScalerStats) for cid in expected]
    for cid, s in zip(expected, stats):
        if {len(s.mins), len(s.maxs)} != {arch.n_continuous}:
            raise FederationError(
                f"client {cid!r} sent a scaler range of {len(s.mins)} mins and "
                f"{len(s.maxs)} maxs for {arch.n_continuous} continuous features")
        _require_finite(cid, "scaler bounds", (s.mins, s.maxs))
        if (s.mins > s.maxs).any():
            raise FederationError(
                f"client {cid!r} sent a scaler range with a min above its max")
    gmins, gmaxs = shared_scaler([(s.mins, s.maxs) for s in stats])
    for cid in expected:
        by_id[cid].send(GlobalScaler(gmins, gmaxs))

    params = init_params(arch, cfg.seed)
    scaffold = (ScaffoldState.zeros(params, expected)
                if algo == "scaffold" else None)

    def one_round(t: int, params: ModelParams):
        control = scaffold.server_control if scaffold else None
        for cid in expected:
            by_id[cid].send(GlobalModel(t, params, control))
        updates = [_receive(by_id[cid], cid, ClientUpdate, t)
                   for cid in expected]
        for cid, u in zip(expected, updates):
            _require_finite(cid, f"round {t} parameters",
                            [*u.params.values(),
                             *(u.control_delta or {}).values()])
        val = np.mean([u.val_auroc for u in updates], axis=0)
        losses = {u.client_id: float(u.train_loss) for u in updates}
        if scaffold:
            nxt = scaffold_server_update(scaffold, params, updates, cfg.server_lr)
        else:
            nxt = fedavg_aggregate(updates)
        # the clients scored the model they were sent, not the aggregate
        return params, val, losses, nxt

    result = run_rounds(params, cfg, one_round)
    for cid in expected:
        by_id[cid].send(Shutdown())
    result.scaffold = scaffold
    return result


# --- site worker ----------------------------------------------------------

def client_rng(seed: int, client_id: str, round_index: int) -> np.random.Generator:
    """Per-(seed, client, round) RNG stream, independent of scheduling."""
    return np.random.default_rng([seed, zlib.crc32(client_id.encode()), round_index])


def validation_auroc(probs: np.ndarray, labels: np.ndarray
                     ) -> tuple[float, ...]:
    """Per-outcome AUROC for model selection; 0.5 for an outcome whose
    labels are single-class."""
    out = []
    for k in range(labels.shape[1]):
        try:
            out.append(metrics.auroc(probs[:, k], labels[:, k]))
        except metrics.DegenerateLabelsError:
            out.append(0.5)
    return tuple(out)


class SiteWorker:
    """Client side: local preprocessing, local training, control variates.

    ``fit`` is the site's preprocessor fit on ``train``. A state machine
    over the protocol: ``hello`` opens a session, then ``handle`` takes
    each coordinator message in turn and returns the reply, if any. A
    message out of protocol order raises FederationError.
    """

    def __init__(self, site_name: str, train: Cohort, val: Cohort,
                 arch: ArchConfig, algo: str, cfg: TrainConfig,
                 fit: Preprocessor):
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
        self.site_name = site_name
        self.train = train
        self.val = val
        self.arch = arch
        self.net = RiskNet(arch)
        self.algo = algo
        self.cfg = cfg
        self.fit = fit
        # the message type the protocol allows next; None outside a session
        self._expect: type | None = None
        self._c_i: ModelParams | None = None  # SCAFFOLD client control

    def hello(self) -> Hello:
        self._expect = RoundAck
        self._c_i = None
        return Hello(self.site_name, arch_fingerprint(self.arch))

    def handle(self, msg: Message) -> Message | None:
        if isinstance(msg, Shutdown):
            self._expect = None
            return None
        if self._expect is None or not isinstance(msg, self._expect):
            want = self._expect.__name__ if self._expect else "no message"
            raise FederationError(
                f"site {self.site_name!r} expected {want}, "
                f"got {type(msg).__name__}")
        if isinstance(msg, RoundAck):
            self._expect = GlobalScaler
            return ScalerStats(*self.fit.scaler_stats())
        if isinstance(msg, GlobalScaler):
            pp = self.fit.rescaled(msg.mins, msg.maxs)
            self._train_fm = pp.transform(self.train)
            self._val_fm = pp.transform(self.val)
            self._expect = GlobalModel
            return None
        return self._local_round(msg)

    def run(self, channel) -> None:
        """Answer the coordinator over ``channel`` until it sends Shutdown."""
        channel.send(self.hello())
        while not isinstance(msg := channel.recv(), Shutdown):
            reply = self.handle(msg)
            if reply is not None:
                channel.send(reply)

    def _local_round(self, msg: GlobalModel) -> ClientUpdate:
        x = msg.params
        val_scores = validation_auroc(predict(x, self.arch, self._val_fm),
                                      self._val_fm.labels)
        rng = client_rng(self.cfg.seed, self.site_name, msg.round)
        control_delta = None
        if self.algo == "scaffold":
            c_i = self._c_i if self._c_i is not None else zeros_like_params(x)
            c = msg.server_control
            offset = {k: c[k] - c_i[k] for k in c}
            rep = local_train(x, self.net, self._train_fm, self.cfg, rng,
                              grad_offset=offset)
            c_new = scaffold_client_finalize(
                c_i, c, x, rep.params, rep.steps_taken, self.cfg.lr)
            control_delta = {k: c_new[k] - c_i[k] for k in c_i}
            self._c_i = c_new
        elif self.algo == "fedprox":
            rep = local_train(x, self.net, self._train_fm, self.cfg, rng,
                              prox=(self.cfg.mu, x))
        else:
            rep = local_train(x, self.net, self._train_fm, self.cfg, rng)
        return ClientUpdate(
            self.site_name, msg.round, rep.params, rep.n_samples,
            rep.steps_taken, control_delta, val_scores, rep.mean_loss)


class LoopbackChannel:
    """The coordinator's end of an in-process link to one site worker.

    Messages cross as frame bytes in both directions, so the float32
    quantization is exactly that of a socket. ``send`` runs the worker's
    handler on the calling thread and queues its reply for ``recv``.
    """

    def __init__(self, worker: SiteWorker):
        self.worker = worker
        self._replies = [encode_frame(worker.hello())]

    def send(self, msg: Message) -> None:
        msg, _ = decode_frame(encode_frame(msg))
        try:
            reply = self.worker.handle(msg)
            if reply is not None:
                self._replies.append(encode_frame(reply))
        except Exception as exc:
            raise ClientFailure(self.worker.site_name, exc) from exc

    def recv(self) -> Message:
        if not self._replies:
            raise FederationError(
                f"site {self.worker.site_name!r} has no reply to receive")
        msg, _ = decode_frame(self._replies.pop(0))
        return msg


def run_federation_inprocess(arch: ArchConfig, algo: str, cfg: TrainConfig,
                             workers: dict[str, SiteWorker]) -> TrainResult:
    """The coordinator and every site worker, in sorted site order, on the
    calling thread."""
    channels = [LoopbackChannel(workers[cid]) for cid in sorted(workers)]
    return coordinate(arch, algo, cfg, channels, sorted(workers))
