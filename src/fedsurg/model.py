"""Multi-branch multi-task risk network.

Three type-specific branches (continuous, binary, high-cardinality via
embeddings) merge into a shared layer that feeds four sigmoid outcome
heads. Parameters live in an ordered dict of named float64 arrays whose
layout is a pure function of the architecture config. ``RiskNet`` runs
the network forward, and backward as ``local_train``'s step.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .cohort import atomic_open

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


class _Activations:
    """The forward pass's arrays for a batch of ``n`` rows. ``pre[i]`` is
    branch i's linear output (continuous, binary, embeddings), ``cat``
    the branches' relus side by side, ``z`` the heads' linear outputs as
    rows and ``prob`` their sigmoids as columns."""

    def __init__(self, arch: ArchConfig, n: int):
        h, n_branches = arch.branch_hidden, 3 if arch.high_card_specs else 2
        self.emb = np.empty((n, sum(d for _, d in arch.high_card_specs)))
        self.pre = np.empty((n_branches, n, h))
        self.cat = np.empty((n, n_branches * h))
        self.pre_merge = np.empty((n, arch.merge_hidden))
        self.merged = np.empty((n, arch.merge_hidden))
        self.z = np.empty((arch.n_outcomes, n))
        self.prob = np.empty((n, arch.n_outcomes))


class _Scratch:
    """A training step's inputs and backward arrays for ``n`` rows."""

    def __init__(self, arch: ArchConfig, n: int):
        h, m, k = arch.branch_hidden, arch.merge_hidden, arch.n_outcomes
        self.inputs = (np.empty((n, arch.n_continuous)),
                       np.empty((n, arch.n_binary)))
        self.labels = np.empty((n, k))
        self.out = tuple(np.empty((n, k)) for _ in range(4))
        self.inside = (np.empty((n, k), dtype=bool), np.empty((n, k), dtype=bool))
        self.gz = np.empty((k, n))
        self.gz_tmp = np.empty((k, n))
        self.d_merged = np.empty((n, m))
        self.d_tmp = np.empty((n, m))
        self.mask_merge = np.empty((n, m), dtype=bool)
        self.g_merge = np.empty((n, m))
        self.d_cat = np.empty((n, (3 if arch.high_card_specs else 2) * h))
        self.mask_branch = np.empty((n, h), dtype=bool)
        self.g_branch = np.empty((n, h))
        self.d_emb = np.empty((n, sum(d for _, d in arch.high_card_specs)))


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    np.matmul(x, w, out=out)
    np.add(out, b, out=out)


class RiskNet:
    """The risk network of ``arch``, written out as numpy calls: the
    forward pass, and as a ``local_train`` step the mean BCE of a
    minibatch and its gradient.

    They are the calls a reverse-mode tape (``fedsurg.autodiff``) makes
    for this network, in its order and on its operand layouts, so their
    bits are the tape's. Each matmul sees the operands the tape's does;
    the heads' outer products, elementwise here, add into the merge
    activation's gradient last head first, as the tape adds them; and
    elementwise work the tape does per head is done for all heads at
    once. A step's arrays are kept per batch size and filled through
    ``out=``.
    """

    def __init__(self, arch: ArchConfig):
        self.arch = arch
        self.tables = [(f"emb{t}.table", spec)
                       for t, spec in enumerate(arch.high_card_specs)]
        self.branches = ["cont", "bin"] + (["embproj"] if self.tables else [])
        self.heads = [(f"head{k}.W", f"head{k}.b") for k in range(arch.n_outcomes)]
        self._buffers: dict[int, tuple[_Activations, _Scratch]] = {}

    def _rows(self, high_card) -> np.ndarray:
        if not self.tables:
            return np.empty((0, 0), dtype=np.intp)
        return ad.embedding_rows(high_card, [v for _, (v, _) in self.tables])

    def _merge(self, params: ModelParams, acts: _Activations,
               inputs: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> None:
        h = self.arch.branch_hidden
        xs = list(inputs)
        if self.tables:
            col = 0
            for (name, (_, d)), r in zip(self.tables, rows):
                acts.emb[:, col:col + d] = params[name][r]
                col += d
            xs.append(acts.emb)
        for i, (name, x) in enumerate(zip(self.branches, xs)):
            _linear(x, params[f"{name}.W"], params[f"{name}.b"], acts.pre[i])
            np.maximum(acts.pre[i], 0.0, out=acts.cat[:, i * h:(i + 1) * h])
        _linear(acts.cat, params["merge.W"], params["merge.b"], acts.pre_merge)
        np.maximum(acts.pre_merge, 0.0, out=acts.merged)

    def _heads(self, params: ModelParams, acts: _Activations) -> None:
        for (w, b), z in zip(self.heads, acts.z):
            _linear(acts.merged, params[w], params[b], z.reshape(-1, 1))
        expit(acts.z.T, out=acts.prob)

    def merge_activation(self, params: ModelParams, batch: Batch) -> _Activations:
        """The activations of ``batch`` up to the merge activation, the
        representation every head reads, in arrays of their own."""
        acts = _Activations(self.arch, len(batch))
        inputs = (np.asarray(batch.continuous, dtype=np.float64),
                  np.asarray(batch.binary, dtype=np.float64))
        self._merge(params, acts, inputs, self._rows(batch.high_card))
        return acts

    def forward(self, params: ModelParams, batch: Batch) -> _Activations:
        """All the activations of ``batch``, in arrays of their own."""
        acts = self.merge_activation(params, batch)
        self._heads(params, acts)
        return acts

    def __call__(self, params: ModelParams, grads: ModelParams, data: Batch,
                 rows: np.ndarray) -> float:
        """The ``local_train`` step: the mean BCE of ``data``'s rows
        ``rows``, with the gradient of each parameter written over its
        array in ``grads``."""
        n = len(rows)
        if n not in self._buffers:
            self._buffers[n] = (_Activations(self.arch, n), _Scratch(self.arch, n))
        acts, s = self._buffers[n]
        for x, into in zip((data.continuous, data.binary, data.labels),
                           (*s.inputs, s.labels)):
            np.take(x, rows, axis=0, out=into, mode="clip")
        emb_rows = self._rows(data.high_card[:, rows])
        self._merge(params, acts, s.inputs, emb_rows)
        self._heads(params, acts)

        # the mean BCE, on probabilities clamped to [eps, 1 - eps]
        p, y, eps = acts.prob, s.labels, ad.BCE_EPS
        clamped, a, b, c = s.out
        np.clip(p, eps, 1.0 - eps, out=clamped)
        np.log(clamped, out=a)
        np.multiply(y, a, out=a)
        np.subtract(1.0, y, out=b)
        np.negative(clamped, out=c)
        np.log1p(c, out=c)
        np.multiply(b, c, out=c)
        np.add(a, c, out=a)
        np.negative(a, out=a)
        loss = float(a.mean())

        # its gradient as to p, 0 where the clamp holds p
        np.subtract(clamped, y, out=a)
        np.subtract(1.0, clamped, out=b)
        np.multiply(clamped, b, out=b)
        np.divide(a, b, out=a)
        np.divide(a, y.size, out=a)
        inside, below = s.inside
        np.greater(p, eps, out=inside)
        np.less(p, 1.0 - eps, out=below)
        np.logical_and(inside, below, out=inside)
        np.multiply(a, inside, out=a)
        # through the heads' sigmoids, one row per head
        np.multiply(a.T, p.T, out=s.gz)
        np.subtract(1.0, p.T, out=s.gz_tmp)
        np.multiply(s.gz, s.gz_tmp, out=s.gz)

        last = len(self.heads) - 1
        for k in range(last, -1, -1):
            w, b = self.heads[k]
            g = s.gz[k].reshape(-1, 1)
            np.multiply(g, params[w].T, out=s.d_merged if k == last else s.d_tmp)
            if k != last:
                np.add(s.d_merged, s.d_tmp, out=s.d_merged)
            np.matmul(acts.merged.T, g, out=grads[w])
            np.sum(g, axis=0, out=grads[b])

        np.greater(acts.pre_merge, 0.0, out=s.mask_merge)
        np.multiply(s.d_merged, s.mask_merge, out=s.g_merge)
        np.matmul(s.g_merge, params["merge.W"].T, out=s.d_cat)
        np.matmul(acts.cat.T, s.g_merge, out=grads["merge.W"])
        np.sum(s.g_merge, axis=0, out=grads["merge.b"])

        h = self.arch.branch_hidden
        for i, (name, x) in enumerate(zip(self.branches, (*s.inputs, acts.emb))):
            np.greater(acts.pre[i], 0.0, out=s.mask_branch)
            np.multiply(s.d_cat[:, i * h:(i + 1) * h], s.mask_branch, out=s.g_branch)
            np.matmul(x.T, s.g_branch, out=grads[f"{name}.W"])
            np.sum(s.g_branch, axis=0, out=grads[f"{name}.b"])
        if self.tables:
            # g_branch holds the embedding branch's gradient, the last one
            np.matmul(s.g_branch, params["embproj.W"].T, out=s.d_emb)
            flat = ad.embedding_grads(emb_rows, [spec for _, spec in self.tables],
                                      s.d_emb)
            start = 0
            for name, (vocab, d) in self.tables:
                grads[name][...] = flat[start:start + vocab * d].reshape(vocab, d)
                start += vocab * d
        return loss


def predict(params: ModelParams, arch: ArchConfig, data: Batch,
            batch_size: int = 4096) -> np.ndarray:
    """Risk probabilities, B x n_outcomes, through ``RiskNet.forward`` on
    chunks of ``batch_size`` rows; the chunks are views of ``data``."""
    if not len(data):
        raise ValueError("predict on an empty dataset")
    net = RiskNet(arch)
    out = np.empty((len(data), arch.n_outcomes))
    for i in range(0, len(data), batch_size):
        out[i:i + batch_size] = net.forward(
            params, data.take(slice(i, i + batch_size))).prob
    return out


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
    """Versioned binary checkpoint: header + named little-endian f64 tensors,
    written through ``atomic_open``."""
    with atomic_open(path, "wb") as fh:
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
            raise ValueError(f"{path} was written for a different architecture")
        count = _unpack(fh, "<I")
        params = dict(_read_tensor(fh) for _ in range(count))
    return params, fingerprint


@dataclass
class TrainStepReport:
    params: ModelParams
    n_samples: int
    steps_taken: int
    mean_loss: float


Step = Callable[[ModelParams, ModelParams, Batch, np.ndarray], float]


def _flat(params: ModelParams, keys) -> np.ndarray:
    return np.concatenate([np.ravel(params[k]) for k in keys], dtype=np.float64)


def _views(flat: np.ndarray, params: ModelParams) -> ModelParams:
    """Arrays shaped as ``params``'s, in its order, as views of ``flat``."""
    out, start = {}, 0
    for k, v in params.items():
        out[k] = flat[start:start + v.size].reshape(v.shape)
        start += v.size
    return out


def local_train(params: ModelParams, step: Step, data: Batch, cfg,
                rng: np.random.Generator,
                prox: tuple[float, ModelParams] | None = None,
                grad_offset: ModelParams | None = None) -> TrainStepReport:
    """Minibatch SGD for cfg.local_epochs over the dataset.

    ``step(params, grads, data, rows)`` returns the mean BCE of ``data``'s
    rows ``rows`` at ``params``, and writes its gradient over each array
    of ``grads``: a ``RiskNet`` for the risk network. The parameters and
    their gradients are views of one flat buffer each, so every update is
    one array op. ``prox`` adds mu * (w - anchor) to the gradient
    (FedProx). ``grad_offset`` adds a fixed parameter-shaped correction to
    it (SCAFFOLD passes c - c_i).
    """
    n = len(data)
    if n == 0:
        raise ValueError("local_train on an empty dataset")
    if prox is not None and prox[1].keys() != params.keys():
        raise ad.KeyMismatchError("prox anchor layout differs from params")
    weights = _flat(params, params)
    current = _views(weights, params)
    grad = np.zeros_like(weights)   # a parameter the step does not reach keeps 0
    grads = _views(grad, params)
    scratch = np.empty_like(weights)
    mu = 0.0 if prox is None else prox[0]
    anchor = _flat(prox[1], params) if mu != 0.0 else None
    offset = _flat(grad_offset, params) if grad_offset is not None else None
    losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            losses.append(step(current, grads, data,
                               order[start:start + cfg.batch_size]))
            if anchor is not None:
                np.subtract(weights, anchor, out=scratch)
                np.multiply(mu, scratch, out=scratch)
                np.add(grad, scratch, out=grad)
            if offset is not None:
                np.add(grad, offset, out=grad)
            np.multiply(cfg.lr, grad, out=scratch)
            np.subtract(weights, scratch, out=weights)
    return TrainStepReport(current, n, len(losses), float(np.mean(losses)))
