import hashlib
import os

import numpy as np
import pytest

import fedsurg.autodiff as ad
from fedsurg import federation as F
from fedsurg.model import ArchConfig, Batch, ModelParams, param_shapes
from fedsurg.wire import GlobalModel


SMALL_ARCH = ArchConfig(
    n_continuous=5,
    n_binary=3,
    high_card_specs=((7, 3), (4, 2)),
    branch_hidden=6,
    merge_hidden=8,
    n_outcomes=4,
)


@pytest.fixture
def small_arch() -> ArchConfig:
    return SMALL_ARCH


def random_batch(arch: ArchConfig, n: int, seed: int,
                 surgeon_vocab: int = 0) -> Batch:
    rng = np.random.default_rng(seed)
    return Batch(
        continuous=rng.uniform(0, 1, (n, arch.n_continuous)),
        binary=rng.integers(0, 2, (n, arch.n_binary)).astype(float),
        high_card=np.array([rng.integers(0, v, n) for v, _ in arch.high_card_specs],
                           dtype=np.intp).reshape(len(arch.high_card_specs), n),
        labels=rng.integers(0, 2, (n, arch.n_outcomes)).astype(float),
        surgeon=rng.integers(0, surgeon_vocab + 1, n) if surgeon_vocab else None,
    )


@pytest.fixture
def batch_factory():
    return random_batch


def flatten_params(params: ModelParams) -> np.ndarray:
    return np.concatenate([params[k].ravel() for k in params])


def unflatten_params(flat: np.ndarray, arch: ArchConfig) -> ModelParams:
    shapes = param_shapes(arch)
    expected = sum(int(np.prod(s)) for s in shapes.values())
    if flat.size != expected:
        raise ValueError(f"flat vector has {flat.size} values, layout needs {expected}")
    out: ModelParams = {}
    pos = 0
    for name, shape in shapes.items():
        size = int(np.prod(shape))
        out[name] = flat[pos:pos + size].reshape(shape).copy()
        pos += size
    return out


def params_digest(params: ModelParams) -> str:
    """Content hash of a parameter set (names, shapes and exact bytes)."""
    h = hashlib.sha256()
    for name in params:
        h.update(name.encode())
        h.update(str(params[name].shape).encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()


# --- the risk network on the autodiff tape: the oracle of model.RiskNet ----

def merge_activation_from_nodes(tape: ad.Tape, nodes: dict[str, ad.Node],
                                arch: ArchConfig, batch: Batch) -> ad.Node:
    """Shared representation consumed by all four heads."""
    x_cont = tape.leaf(batch.continuous)
    x_bin = tape.leaf(batch.binary)
    branches = [
        ad.relu(tape, ad.linear(tape, x_cont, nodes["cont.W"], nodes["cont.b"])),
        ad.relu(tape, ad.linear(tape, x_bin, nodes["bin.W"], nodes["bin.b"])),
    ]
    if arch.high_card_specs:
        tables = [nodes[f"emb{i}.table"] for i in range(len(arch.high_card_specs))]
        stacked = ad.embeddings(tape, tables, batch.high_card)
        branches.append(ad.relu(tape, ad.linear(
            tape, stacked, nodes["embproj.W"], nodes["embproj.b"])))
    return ad.relu(tape, ad.linear(
        tape, ad.concat(tape, branches), nodes["merge.W"], nodes["merge.b"]))


def tape_forward(params: ModelParams, arch: ArchConfig, batch: Batch,
                 tape: ad.Tape | None = None, trainable: bool = False) -> ad.Node:
    """The four heads' probabilities, B x 4, as a node of ``tape``."""
    tape = tape if tape is not None else ad.Tape()
    nodes = {k: tape.leaf(v, name=k, trainable=trainable) for k, v in params.items()}
    merged = merge_activation_from_nodes(tape, nodes, arch, batch)
    return ad.concat(tape, [ad.sigmoid(tape, ad.linear(
        tape, merged, nodes[f"head{k}.W"], nodes[f"head{k}.b"]))
        for k in range(arch.n_outcomes)])


def tape_loss_and_grads(params: ModelParams, arch: ArchConfig,
                        batch: Batch) -> tuple[float, dict[str, np.ndarray]]:
    tape = ad.Tape()
    loss = ad.bce_loss(tape, tape_forward(params, arch, batch, tape, True),
                       batch.labels)
    return float(loss.value), tape.gradients(loss)


def tape_local_train(params: ModelParams, arch: ArchConfig, data: Batch, cfg,
                     rng: np.random.Generator, prox=None, grad_offset=None
                     ) -> tuple[ModelParams, int, float]:
    """``model.local_train`` as it was written over the tape: a fresh
    dictionary of parameters per step. Returns the parameters, the steps
    taken and the mean loss."""
    current = dict(params)
    losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            batch = data.take(order[start:start + cfg.batch_size])
            loss, grads = tape_loss_and_grads(current, arch, batch)
            if prox is not None and prox[0] != 0.0:
                mu, anchor = prox
                grads = {k: grads[k] + mu * (current[k] - anchor[k]) for k in grads}
            if grad_offset is not None:
                grads = {k: grads[k] + grad_offset[k] for k in grads}
            current = {k: current[k] - cfg.lr * grads[k] for k in current}
            losses.append(loss)
    return current, len(losses), float(np.mean(losses))


def loss_on(params: ModelParams, arch: ArchConfig, data: Batch) -> float:
    tape = ad.Tape()
    probs = tape_forward(params, arch, data, tape=tape)
    return float(ad.bce_loss(tape, probs, data.labels).value)


class RecordingChannel(F.LoopbackChannel):
    """A loopback link that keeps the parameters of every GlobalModel the
    coordinator sends, as the coordinator holds them (before the wire's
    float32 rounding)."""

    def __init__(self, worker):
        super().__init__(worker)
        self.sent = []

    def send(self, msg):
        if isinstance(msg, GlobalModel):
            self.sent.append(msg.params)
        super().send(msg)


def federate_traced(arch, algo, cfg, workers):
    """``run_federation_inprocess`` plus the parameters each round ended
    with: the model sent at the next round, and the final parameters after
    the last round."""
    channels = [RecordingChannel(workers[cid]) for cid in sorted(workers)]
    result = F.coordinate(arch, algo, cfg, channels, sorted(workers))
    trace = channels[0].sent[1:] + [result.final_params]
    assert len(trace) == len(result.history)
    return result, trace


@pytest.fixture
def forked(monkeypatch):
    """The pids of the worker processes forked while the test runs."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids
