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
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .model import (ArchConfig, Batch, CheckpointFormatError, Graph, ModelParams,
                    _build_leaves, _read_exact, _read_tensor, _unpack,
                    _write_tensor, glorot_bound, local_train,
                    merge_activation_from_nodes, outcome_heads)


@dataclass
class PersonalizedModel:
    backbone: ModelParams          # frozen; bit-identical to the input model
    arch: ArchConfig
    surgeon_table: np.ndarray      # (vocab + 1) x dim; row 0 = unknown surgeon
    heads: ModelParams             # phead{k}.W / phead{k}.b over concat slice

    def trained(self) -> ModelParams:
        """The parameters fine-tuning trains: the table, then the heads."""
        return {"surgeon.table": self.surgeon_table, **self.heads}


def _graph(backbone: ModelParams, arch: ArchConfig) -> Graph:
    """The personalized network over ``PersonalizedModel.trained`` leaves;
    ``backbone`` enters every tape as frozen leaves."""
    def graph(tape: ad.Tape, nodes: dict[str, ad.Node], batch: Batch) -> ad.Node:
        if batch.surgeon is None:
            raise ValueError("batch carries no surgeon ids")
        frozen = _build_leaves(tape, backbone, trainable=False)
        merged = merge_activation_from_nodes(tape, frozen, arch, batch)
        emb = ad.embeddings(tape, [nodes["surgeon.table"]], batch.surgeon[None])
        return outcome_heads(tape, nodes, ad.concat(tape, [merged, emb]),
                             arch.n_outcomes, prefix="phead")
    return graph


def _forward(pm: PersonalizedModel, batch: Batch) -> tuple[ad.Tape, ad.Node]:
    tape = ad.Tape()
    nodes = _build_leaves(tape, pm.trained(), trainable=False)
    return tape, _graph(pm.backbone, pm.arch)(tape, nodes, batch)


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
    return _forward(pm, batch)[1].value


def personalized_loss(pm: PersonalizedModel, data: Batch) -> float:
    tape, probs = _forward(pm, data)
    return float(ad.bce_loss(tape, probs, data.labels).value)


def fine_tune(global_params: ModelParams, arch: ArchConfig, train: Batch,
              cfg, seed: int, surgeon_vocab_size: int, embed_dim: int = 8,
              epochs: int = 5) -> PersonalizedModel:
    """Train the surgeon table and new heads for ``epochs`` epochs of
    ``local_train``; the backbone is frozen."""
    pm = warm_start(global_params, arch, surgeon_vocab_size, embed_dim, seed)
    rep = local_train(pm.trained(), _graph(pm.backbone, arch), train,
                      replace(cfg, local_epochs=epochs),
                      np.random.default_rng([seed, 0xF17E]))
    table = rep.params.pop("surgeon.table")
    return PersonalizedModel(pm.backbone, arch, table, rep.params)


# --- personalization delta file ------------------------------------------

_DELTA_MAGIC = b"FSPD"


def save_delta(path, pm: PersonalizedModel) -> None:
    """Everything beyond the backbone checkpoint: table + new heads."""
    with open(path, "wb") as fh:
        fh.write(_DELTA_MAGIC)
        fh.write(struct.pack("<I", 1 + len(pm.heads)))
        for name, arr in pm.trained().items():
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
