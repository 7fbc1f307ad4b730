import os

import numpy as np
import pytest

import fedsurg.autodiff as ad
from fedsurg import federation as F
from fedsurg.model import ArchConfig, Batch, ModelParams, forward, param_shapes
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


def loss_on(params: ModelParams, arch: ArchConfig, data: Batch) -> float:
    tape = ad.Tape()
    probs = forward(params, arch, data, tape=tape)
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
