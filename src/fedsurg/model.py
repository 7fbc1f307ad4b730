"""Multi-branch multi-task risk network.

Three type-specific branches (continuous, binary, high-cardinality via
embeddings) merge into a shared layer that feeds four sigmoid outcome
heads. Parameters live in an ordered dict of named float64 arrays whose
layout is a pure function of the architecture config.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad

ModelParams = dict[str, np.ndarray]


@dataclass(frozen=True)
class ArchConfig:
    n_continuous: int
    n_binary: int
    high_card_specs: tuple[tuple[int, int], ...]  # (vocab_size, embed_dim) per feature
    branch_hidden: int = 32
    merge_hidden: int = 64
    n_outcomes: int = 4

    def __post_init__(self):
        if self.n_continuous < 1 or self.n_binary < 1:
            raise ValueError("need at least one continuous and one binary feature")
        if self.branch_hidden < 1 or self.merge_hidden < 1 or self.n_outcomes < 1:
            raise ValueError("all widths must be >= 1")
        for vocab, dim in self.high_card_specs:
            if vocab < 2:
                raise ValueError("vocab size must be >= 2 (categories plus 'missing')")
            if dim < 1:
                raise ValueError("embedding dim must be >= 1")


@dataclass
class Batch:
    """Model-ready tensors for a slice of encounters. ``high_card`` is one
    integer matrix, row j holding each encounter's index into table j."""

    continuous: np.ndarray            # B x n_continuous, values in [0, 1]
    binary: np.ndarray                # B x n_binary, values in {0, 1}
    high_card: np.ndarray             # n_high_card x B, integer indices
    labels: np.ndarray                # B x 4, values in {0, 1}
    surgeon: np.ndarray | None = None  # personalization feature, not a model input

    def __post_init__(self):
        n = self.continuous.shape[0]
        rows = (self.binary.shape[0], self.labels.shape[0], self.high_card.shape[-1])
        if self.high_card.ndim != 2 or any(r != n for r in rows):
            raise ValueError("batch shapes disagree")

    def __len__(self):
        return self.continuous.shape[0]

    def take(self, idx: np.ndarray | slice) -> "Batch":
        """The rows ``idx`` selects; a slice gives views, not copies."""
        return Batch(
            continuous=self.continuous[idx],
            binary=self.binary[idx],
            high_card=self.high_card[:, idx],
            labels=self.labels[idx],
            surgeon=None if self.surgeon is None else self.surgeon[idx],
        )


def param_shapes(arch: ArchConfig) -> dict[str, tuple[int, ...]]:
    """Ordered layout of the parameter set, derived only from arch."""
    h, m = arch.branch_hidden, arch.merge_hidden
    shapes: dict[str, tuple[int, ...]] = {
        "cont.W": (arch.n_continuous, h),
        "cont.b": (h,),
        "bin.W": (arch.n_binary, h),
        "bin.b": (h,),
    }
    total_embed = 0
    for i, (vocab, dim) in enumerate(arch.high_card_specs):
        shapes[f"emb{i}.table"] = (vocab, dim)
        total_embed += dim
    n_branches = 2
    if arch.high_card_specs:
        shapes["embproj.W"] = (total_embed, h)
        shapes["embproj.b"] = (h,)
        n_branches = 3
    shapes["merge.W"] = (n_branches * h, m)
    shapes["merge.b"] = (m,)
    for k in range(arch.n_outcomes):
        shapes[f"head{k}.W"] = (m, 1)
        shapes[f"head{k}.b"] = (1,)
    return shapes


def arch_fingerprint(arch: ArchConfig) -> str:
    text = ";".join(f"{k}:{v}" for k, v in param_shapes(arch).items())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def glorot_bound(shape: tuple[int, ...]) -> float:
    fan_in, fan_out = (shape[0], shape[1]) if len(shape) == 2 else (shape[0], shape[0])
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_params(arch: ArchConfig, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    params: ModelParams = {}
    for name, shape in param_shapes(arch).items():
        if name.endswith(".b"):
            params[name] = np.zeros(shape)
        else:
            a = glorot_bound(shape)
            params[name] = rng.uniform(-a, a, size=shape)
    return params


def _build_leaves(tape: ad.Tape, params: ModelParams, trainable: bool) -> dict[str, ad.Node]:
    return {k: tape.leaf(v, name=k, trainable=trainable) for k, v in params.items()}


Graph = Callable[[ad.Tape, dict[str, ad.Node], Batch], ad.Node]


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


def outcome_heads(tape: ad.Tape, nodes: dict[str, ad.Node], x: ad.Node,
                  n_outcomes: int, prefix: str = "head") -> ad.Node:
    """One linear -> sigmoid head per outcome on ``x``, the columns side by
    side; head k reads ``<prefix>k.W`` and ``<prefix>k.b``."""
    return ad.concat(tape, [ad.sigmoid(tape, ad.linear(
        tape, x, nodes[f"{prefix}{k}.W"], nodes[f"{prefix}{k}.b"]))
        for k in range(n_outcomes)])


def network(arch: ArchConfig) -> Graph:
    """The risk network of ``arch`` as a graph over its parameter set."""
    def graph(tape: ad.Tape, nodes: dict[str, ad.Node], batch: Batch) -> ad.Node:
        merged = merge_activation_from_nodes(tape, nodes, arch, batch)
        return outcome_heads(tape, nodes, merged, arch.n_outcomes)
    return graph


def forward(params: ModelParams, arch: ArchConfig, batch: Batch,
            tape: ad.Tape | None = None, trainable: bool = False) -> ad.Node:
    tape = tape if tape is not None else ad.Tape()
    return network(arch)(tape, _build_leaves(tape, params, trainable), batch)


def predict(params: ModelParams, arch: ArchConfig, data: Batch,
            batch_size: int = 4096) -> np.ndarray:
    """Risk probabilities, B x n_outcomes. Chunks are views of ``data``;
    no leaf is trainable, so the tape runs no backward work."""
    chunks = [forward(params, arch, data.take(slice(i, i + batch_size))).value
              for i in range(0, len(data), batch_size)]
    return np.concatenate(chunks, axis=0)


def params_digest(params: ModelParams) -> str:
    """Content hash of a parameter set (names, shapes and exact bytes)."""
    h = hashlib.sha256()
    for name in params:
        h.update(name.encode())
        h.update(str(params[name].shape).encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()


_CKPT_MAGIC = b"FSCK"
_CKPT_VERSION = 1


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    raw = name.encode()
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<B", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<I", d))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


class CheckpointFormatError(ValueError):
    """A checkpoint or delta file that is not, or no longer, whole."""


def _read_exact(fh, n: int) -> bytes:
    # checked against the file size first, so a corrupt length allocates nothing
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CheckpointFormatError(
            f"{fh.name}: truncated file (wanted {n} bytes at offset "
            f"{fh.tell()}, {left} left)")
    return fh.read(n)


def _unpack(fh, fmt: str) -> int:
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))[0]


def _read_name(fh, what: str) -> str:
    raw = _read_exact(fh, _unpack(fh, "<H"))
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(
            f"{fh.name}: {what} at offset {fh.tell() - len(raw)} "
            "is not UTF-8") from exc


def _read_tensor(fh) -> tuple[str, np.ndarray]:
    name = _read_name(fh, "tensor name")
    shape = tuple(_unpack(fh, "<I") for _ in range(_unpack(fh, "<B")))
    arr = np.frombuffer(_read_exact(fh, 8 * math.prod(shape)), dtype="<f8")
    return name, arr.reshape(shape).copy()


def save_checkpoint(path, params: ModelParams, arch: ArchConfig) -> None:
    """Versioned binary checkpoint: header + named little-endian f64 tensors."""
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", _CKPT_VERSION))
        fp = arch_fingerprint(arch).encode()
        fh.write(struct.pack("<H", len(fp)))
        fh.write(fp)
        fh.write(struct.pack("<I", len(params)))
        for name, arr in params.items():
            _write_tensor(fh, name, arr)


def load_checkpoint(path, arch: ArchConfig | None = None) -> tuple[ModelParams, str]:
    """Returns (params, arch fingerprint); validates against arch if given.
    A file that is not a whole checkpoint raises CheckpointFormatError."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != _CKPT_MAGIC:
            raise CheckpointFormatError(f"{path} is not a model checkpoint")
        version = _unpack(fh, "<I")
        if version != _CKPT_VERSION:
            raise CheckpointFormatError(
                f"{path}: unsupported checkpoint version {version}")
        fingerprint = _read_name(fh, "architecture fingerprint")
        if arch is not None and fingerprint != arch_fingerprint(arch):
            raise ValueError("checkpoint was written for a different architecture")
        count = _unpack(fh, "<I")
        params = dict(_read_tensor(fh) for _ in range(count))
    return params, fingerprint


@dataclass
class TrainStepReport:
    params: ModelParams
    n_samples: int
    steps_taken: int
    mean_loss: float


def local_train(params: ModelParams, graph: Graph, data: Batch, cfg,
                rng: np.random.Generator,
                prox: tuple[float, ModelParams] | None = None,
                grad_offset: ModelParams | None = None) -> TrainStepReport:
    """Minibatch SGD for cfg.local_epochs over the dataset.

    Each step runs ``graph`` (``network(arch)`` for the risk network) on
    ``params`` as trainable leaves and the minibatch, and descends the mean
    BCE of its output; anything else the graph reads stays fixed.
    ``prox`` adds mu * (w - anchor) to each gradient (FedProx).
    ``grad_offset`` adds a fixed parameter-shaped correction to each
    gradient (SCAFFOLD passes c - c_i).
    """
    n = len(data)
    if n == 0:
        raise ValueError("local_train on an empty dataset")
    if prox is not None and prox[1].keys() != params.keys():
        raise ad.KeyMismatchError("prox anchor layout differs from params")
    current = dict(params)
    steps = 0
    losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = data.take(order[start:start + cfg.batch_size])
            tape = ad.Tape()
            nodes = _build_leaves(tape, current, trainable=True)
            loss = ad.bce_loss(tape, graph(tape, nodes, batch), batch.labels)
            grads = tape.gradients(loss)
            if prox is not None and prox[0] != 0.0:
                mu, anchor = prox
                grads = {k: grads[k] + mu * (current[k] - anchor[k]) for k in grads}
            if grad_offset is not None:
                grads = {k: grads[k] + grad_offset[k] for k in grads}
            current = ad.sgd_step(current, grads, cfg.lr)
            steps += 1
            losses.append(float(loss.value))
    return TrainStepReport(current, n, steps, float(np.mean(losses)))
