"""Per-site fine-tuning of a federated model with a surgeon-identity
embedding.

The federated backbone is frozen. New output heads consume the merge
activation concatenated with a surgeon embedding; they are warm-started
by copying the old head weights into the merge slice and zeroing the
surgeon slice, so before any training the personalized model reproduces
the global model's predictions exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import (ArchConfig, Batch, CheckpointFormatError, ModelParams,
                    _build_leaves, _read_exact, _read_tensor, _unpack,
                    _write_tensor, glorot_bound, merge_activation_from_nodes,
                    params_digest)


@dataclass
class PersonalizedModel:
    backbone: ModelParams          # frozen; bit-identical to the input model
    arch: ArchConfig
    surgeon_table: np.ndarray      # (vocab + 1) x dim; row 0 = unknown surgeon
    heads: ModelParams             # phead{k}.W / phead{k}.b over concat slice


def _head_forward(tape: ad.Tape, pm_nodes: dict[str, ad.Node],
                  table: ad.Node, arch: ArchConfig, merged: ad.Node,
                  surgeon_idx: np.ndarray) -> ad.Node:
    emb = ad.embeddings(tape, [table], [surgeon_idx])
    combined = ad.concat(tape, [merged, emb])
    heads = [ad.sigmoid(tape, ad.linear(
        tape, combined, pm_nodes[f"phead{k}.W"], pm_nodes[f"phead{k}.b"]))
        for k in range(arch.n_outcomes)]
    return ad.concat(tape, heads)


def _forward(pm: PersonalizedModel, batch: Batch, trainable: bool
             ) -> tuple[ad.Tape, ad.Node]:
    if batch.surgeon is None:
        raise ValueError("batch carries no surgeon ids")
    tape = ad.Tape()
    backbone_nodes = _build_leaves(tape, pm.backbone, trainable=False)
    merged = merge_activation_from_nodes(tape, backbone_nodes, pm.arch, batch)
    table = tape.leaf(pm.surgeon_table, name="surgeon.table", trainable=trainable)
    head_nodes = {k: tape.leaf(v, name=k, trainable=trainable)
                  for k, v in pm.heads.items()}
    probs = _head_forward(tape, head_nodes, table, pm.arch, merged, batch.surgeon)
    return tape, probs


def warm_start(global_params: ModelParams, arch: ArchConfig,
               surgeon_vocab_size: int, embed_dim: int = 8,
               seed: int = 0) -> PersonalizedModel:
    """Personalized model whose predictions equal the global model's."""
    rng = np.random.default_rng([seed, 0x5E_ED])
    rows = surgeon_vocab_size + 1
    a = glorot_bound((rows, embed_dim))
    table = rng.uniform(-a, a, size=(rows, embed_dim))
    heads: ModelParams = {}
    m = arch.merge_hidden
    for k in range(arch.n_outcomes):
        w = np.zeros((m + embed_dim, 1))
        w[:m] = global_params[f"head{k}.W"]
        heads[f"phead{k}.W"] = w
        heads[f"phead{k}.b"] = global_params[f"head{k}.b"].copy()
    return PersonalizedModel(dict(global_params), arch, table, heads)


def predict_personalized(pm: PersonalizedModel, batch: Batch) -> np.ndarray:
    _, probs = _forward(pm, batch, trainable=False)
    return probs.value


def personalized_loss(pm: PersonalizedModel, data: Batch) -> float:
    tape, probs = _forward(pm, data, trainable=False)
    return float(ad.bce_loss(tape, probs, data.labels).value)


def fine_tune(global_params: ModelParams, arch: ArchConfig, train: Batch,
              cfg, seed: int, surgeon_vocab_size: int, embed_dim: int = 8,
              epochs: int = 5) -> PersonalizedModel:
    """Train surgeon table and new heads by minibatch SGD; backbone frozen."""
    if train.surgeon is None:
        raise ValueError("training data carries no surgeon ids")
    pm = warm_start(global_params, arch, surgeon_vocab_size, embed_dim, seed)
    backbone_hash = params_digest(pm.backbone)
    rng = np.random.default_rng([seed, 0xF17E])
    n = len(train)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = train.take(order[start:start + cfg.batch_size])
            tape, probs = _forward(pm, batch, trainable=True)
            loss = ad.bce_loss(tape, probs, batch.labels)
            grads = tape.gradients(loss)
            pm.surgeon_table = pm.surgeon_table - cfg.lr * grads["surgeon.table"]
            pm.heads = {k: pm.heads[k] - cfg.lr * grads[k] for k in pm.heads}
    assert params_digest(pm.backbone) == backbone_hash  # freeze contract
    return pm


# --- personalization delta file ------------------------------------------

_DELTA_MAGIC = b"FSPD"


def save_delta(path, pm: PersonalizedModel) -> None:
    """Everything beyond the backbone checkpoint: table + new heads."""
    with open(path, "wb") as fh:
        fh.write(_DELTA_MAGIC)
        fh.write(struct.pack("<I", 1 + len(pm.heads)))
        _write_tensor(fh, "surgeon.table", pm.surgeon_table)
        for name, arr in pm.heads.items():
            _write_tensor(fh, name, arr)


def load_delta(path, backbone: ModelParams, arch: ArchConfig) -> PersonalizedModel:
    """A file that is not a whole delta raises CheckpointFormatError."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != _DELTA_MAGIC:
            raise CheckpointFormatError(f"{path} is not a personalization delta")
        count = _unpack(fh, "<I")
        tensors = dict(_read_tensor(fh) for _ in range(count))
    table = tensors.pop("surgeon.table", None)
    if table is None or table.ndim != 2:
        raise CheckpointFormatError(f"{path} has no 2-D surgeon.table")
    width = arch.merge_hidden + table.shape[1]
    want = {name: shape for k in range(arch.n_outcomes)
            for name, shape in ((f"phead{k}.W", (width, 1)),
                                (f"phead{k}.b", (1,)))}
    got = {name: arr.shape for name, arr in tensors.items()}
    if got != want:
        raise CheckpointFormatError(
            f"{path} holds heads {got}; the model needs {want}")
    return PersonalizedModel(dict(backbone), arch, table, tensors)
