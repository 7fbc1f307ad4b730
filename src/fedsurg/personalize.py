"""Per-site fine-tuning of a federated model with a surgeon-identity
embedding.

The federated backbone is frozen. New output heads consume the merge
activation concatenated with a surgeon embedding; they are warm-started
by copying the old head weights into the merge slice and zeroing the
surgeon slice, so before any training the personalized model reproduces
the global model's predictions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .model import (ArchConfig, Batch, CheckpointFormatError, ModelParams, RiskNet,
                    Step, glorot_bound, load_checkpoint, local_train, save_checkpoint)


@dataclass
class PersonalizedModel:
    backbone: ModelParams          # frozen; bit-identical to the input model
    arch: ArchConfig
    surgeon_table: np.ndarray      # (vocab + 1) x dim; row 0 = unknown surgeon
    heads: ModelParams             # phead{k}.W / phead{k}.b over concat slice

    def trained(self) -> ModelParams:
        """The parameters fine-tuning trains: the table, then the heads."""
        return {"surgeon.table": self.surgeon_table, **self.heads}


def _probs(tape: ad.Tape, nodes: dict[str, ad.Node], net: RiskNet,
           backbone: ModelParams, batch: Batch) -> ad.Node:
    """The personalized heads over ``PersonalizedModel.trained`` leaves:
    each reads the frozen backbone's merge activation, from ``net``,
    beside the surgeon embedding."""
    if batch.surgeon is None:
        raise ValueError("batch carries no surgeon ids")
    merged = tape.leaf(net.merge_activation(backbone, batch).merged)
    emb = ad.embeddings(tape, [nodes["surgeon.table"]], batch.surgeon[None])
    x = ad.concat(tape, [merged, emb])
    return ad.concat(tape, [ad.sigmoid(tape, ad.linear(
        tape, x, nodes[f"phead{k}.W"], nodes[f"phead{k}.b"]))
        for k in range(net.arch.n_outcomes)])


def _step(backbone: ModelParams, arch: ArchConfig) -> Step:
    """The ``local_train`` step of fine-tuning, through the tape."""
    net = RiskNet(arch)

    def step(params: ModelParams, grads: ModelParams, data: Batch,
             rows: np.ndarray) -> float:
        batch = data.take(rows)
        tape = ad.Tape()
        nodes = {k: tape.leaf(v, name=k, trainable=True) for k, v in params.items()}
        loss = ad.bce_loss(tape, _probs(tape, nodes, net, backbone, batch),
                           batch.labels)
        for k, g in tape.gradients(loss).items():
            grads[k][...] = g
        return float(loss.value)
    return step


def _forward(pm: PersonalizedModel, batch: Batch) -> tuple[ad.Tape, ad.Node]:
    tape = ad.Tape()
    nodes = {k: tape.leaf(v, name=k) for k, v in pm.trained().items()}
    return tape, _probs(tape, nodes, RiskNet(pm.arch), pm.backbone, batch)


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
    rep = local_train(pm.trained(), _step(pm.backbone, arch), train,
                      replace(cfg, local_epochs=epochs),
                      np.random.default_rng([seed, 0xF17E]))
    table = rep.params.pop("surgeon.table")
    return PersonalizedModel(pm.backbone, arch, table, rep.params)


# --- personalization delta file ------------------------------------------
#
# A delta is a checkpoint file (``model.save_checkpoint``) of the trained
# tensors, stamped with the backbone's architecture.

def save_delta(path, pm: PersonalizedModel) -> None:
    """Everything beyond the backbone checkpoint: table + new heads."""
    save_checkpoint(path, pm.trained(), pm.arch)


def load_delta(path, backbone: ModelParams, arch: ArchConfig) -> PersonalizedModel:
    """A file that is not a whole delta raises CheckpointFormatError, and a
    delta for a backbone of another architecture ValueError."""
    tensors, _ = load_checkpoint(path, arch)
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
