"""Minimal dense tensor core with reverse-mode automatic differentiation.

Everything is float64 and numpy-backed. A Tape records primitive ops in
execution order; one backward pass over the tape yields a gradient for
every leaf marked trainable. Only nodes that lead to a trainable leaf
need a gradient, so a tape without trainable leaves (``predict``) never
runs a backward. The op set is exactly what the risk network needs:
linear layers, one gather over all embedding tables, relu/sigmoid,
concatenation and binary cross-entropy.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

BCE_EPS = 1e-7


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class GraphError(RuntimeError):
    """Tape misuse: non-scalar backward root, foreign node, etc."""


class KeyMismatchError(KeyError):
    """Parameter and gradient dictionaries are keyed differently."""


class Node:
    """One recorded value on a tape.

    ``backward`` maps the upstream gradient to a tuple of gradients, one
    per parent, in parent order; an entry may be ``None`` for a parent
    that needs no gradient. ``None`` for leaves and for nodes that need no
    gradient themselves: ``requires_grad`` holds when the node is a
    trainable leaf or depends on one.
    """

    __slots__ = ("value", "parents", "backward", "name", "trainable", "index",
                 "requires_grad")

    def __init__(self, value, parents, backward, name, trainable, index):
        self.value = value
        self.parents = parents
        self.name = name
        self.trainable = trainable
        self.index = index
        self.requires_grad = trainable or any(p.requires_grad for p in parents)
        self.backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        kind = "leaf" if not self.parents else "op"
        return f"Node({kind}, shape={self.value.shape}, name={self.name!r})"


class Tape:
    """Ordered record of primitive ops; rebuilt per batch."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.trainable_leaves: list[Node] = []

    def leaf(self, value, name: str | None = None, trainable: bool = False) -> Node:
        if trainable and name is None:
            raise GraphError("trainable leaf without a name")
        arr = np.asarray(value, dtype=np.float64)
        node = Node(arr, (), None, name, trainable, len(self.nodes))
        self.nodes.append(node)
        if trainable:
            self.trainable_leaves.append(node)
        return node

    def _record(self, value: np.ndarray, parents: tuple[Node, ...],
                backward: Callable) -> Node:
        node = Node(value, parents, backward, None, False, len(self.nodes))
        self.nodes.append(node)
        return node

    def gradients(self, root: Node) -> dict[str, np.ndarray]:
        """Backpropagate from a scalar root.

        Returns gradients keyed by leaf name for every trainable leaf on
        the tape (zeros for trainable leaves the root does not depend on).
        Non-trainable leaves get no entry.
        """
        if root.value.ndim != 0 and root.value.size != 1:
            raise GraphError(f"backward root must be scalar, got shape {root.value.shape}")
        if root.index >= len(self.nodes) or self.nodes[root.index] is not root:
            raise GraphError("root node does not belong to this tape")

        adjoint: dict[int, np.ndarray] = {root.index: np.ones_like(root.value)}
        for node in reversed(self.nodes[: root.index + 1]):
            if node.backward is None:
                continue
            grad = adjoint.pop(node.index, None)
            if grad is None:
                continue
            for parent, pgrad in zip(node.parents, node.backward(grad)):
                if pgrad is None or not parent.requires_grad:
                    continue
                acc = adjoint.get(parent.index)
                adjoint[parent.index] = pgrad if acc is None else acc + pgrad

        out: dict[str, np.ndarray] = {}
        for node in self.trainable_leaves:
            grad = adjoint.get(node.index)
            out[node.name] = np.zeros_like(node.value) if grad is None else grad
        return out


def linear(tape: Tape, x: Node, w: Node, b: Node) -> Node:
    """x @ w + b for a 2-D batch."""
    if x.value.ndim != 2 or w.value.ndim != 2:
        raise ShapeError("linear expects 2-D input and weight")
    if x.value.shape[1] != w.value.shape[0]:
        raise ShapeError(
            f"inner dimensions disagree: {x.value.shape} @ {w.value.shape}")
    if b.value.shape != (w.value.shape[1],):
        raise ShapeError(f"bias shape {b.value.shape} != ({w.value.shape[1]},)")
    out = x.value @ w.value + b.value

    def backward(g):
        return (g @ w.value.T if x.requires_grad else None,
                x.value.T @ g if w.requires_grad else None,
                g.sum(axis=0) if b.requires_grad else None)

    return tape._record(out, (x, w, b), backward)


def relu(tape: Tape, x: Node) -> Node:
    out = np.maximum(x.value, 0.0)

    def backward(g):
        return (g * (x.value > 0.0),)

    return tape._record(out, (x,), backward)


def sigmoid(tape: Tape, x: Node) -> Node:
    out = expit(x.value)

    def backward(g):
        return (g * out * (1.0 - out),)

    return tape._record(out, (x,), backward)


def embeddings(tape: Tape, tables: Sequence[Node], indices) -> Node:
    """Row gather from each table, the rows concatenated along axis 1.

    ``indices`` is one integer matrix of shape (len(tables), B): row t
    holds the batch's indices into table t.

    Backward is one ``np.bincount`` over all tables flattened end to end:
    the gradient entry of row b in column d of table t adds into flat bin
    ``offset_t + idx_t[b] * D_t + d``. bincount adds in input order,
    starting from 0.0, so each bin sums its rows in increasing b, exactly
    as ``np.add.at`` scatters them.
    """
    try:
        rows = np.asarray(indices)
    except ValueError as exc:  # a ragged nesting
        raise ShapeError(f"embedding indices are not one matrix: {exc}") from exc
    if not tables or rows.ndim != 2 or rows.shape[0] != len(tables):
        raise ShapeError(f"{len(tables)} embedding tables for an index array "
                         f"of shape {rows.shape}")
    if not np.issubdtype(rows.dtype, np.integer):
        raise ShapeError("embedding indices must be integers")
    rows = rows.astype(np.intp, copy=False)
    vocab = np.array([t.value.shape[0] for t in tables])[:, None]
    outside = (rows < 0) | (rows >= vocab)
    if outside.any():
        t, b = np.argwhere(outside)[0]
        raise IndexError(
            f"embedding index {rows[t, b]} outside vocabulary [0, {vocab[t, 0]}) "
            "(vocabulary mismatch between sites?)")
    dims = [t.value.shape[1] for t in tables]
    # filled in place: faster than np.concatenate over the gathered blocks
    out = np.empty((rows.shape[1], sum(dims)))
    col = 0
    for t, r, d in zip(tables, rows, dims):
        out[:, col:col + d] = t.value[r]
        col += d

    def backward(g):
        sizes = [t.value.size for t in tables]
        starts = np.cumsum([0] + sizes[:-1])
        # one row of bins per output column, so the weights are g transposed;
        # within a bin the batch rows still come in increasing b
        row_bins = rows * np.array(dims)[:, None] + starts[:, None]
        within = np.concatenate([np.arange(d) for d in dims])
        bins = np.repeat(row_bins, dims, axis=0) + within[:, None]
        flat = np.bincount(bins.ravel(), weights=g.T.ravel(),
                           minlength=sum(sizes))
        return tuple(flat[s:s + n].reshape(t.value.shape)
                     for s, n, t in zip(starts, sizes, tables))

    return tape._record(out, tuple(tables), backward)


def concat(tape: Tape, parts: Sequence[Node], axis: int = 1) -> Node:
    if not parts:
        raise ShapeError("concat of nothing")
    out = np.concatenate([p.value for p in parts], axis=axis)

    def backward(g):
        splits = np.cumsum([p.value.shape[axis] for p in parts])[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return tape._record(out, tuple(parts), backward)


def bce_loss(tape: Tape, p: Node, y: np.ndarray) -> Node:
    """Mean binary cross-entropy; p is clamped to [eps, 1-eps] before the log."""
    y = np.asarray(y, dtype=np.float64)
    if p.value.shape != y.shape:
        raise ShapeError(f"prediction shape {p.value.shape} != label shape {y.shape}")
    clamped = np.clip(p.value, BCE_EPS, 1.0 - BCE_EPS)
    losses = -(y * np.log(clamped) + (1.0 - y) * np.log1p(-clamped))
    out = np.asarray(losses.mean())

    def backward(g):
        inside = (p.value > BCE_EPS) & (p.value < 1.0 - BCE_EPS)
        d = (clamped - y) / (clamped * (1.0 - clamped)) / y.size
        return (g * d * inside,)

    return tape._record(out, (p,), backward)


def sgd_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lr: float) -> dict[str, np.ndarray]:
    """One plain gradient step: w <- w - lr * g, for every key."""
    if params.keys() != grads.keys():
        missing = set(params) ^ set(grads)
        raise KeyMismatchError(f"params/grads key mismatch: {sorted(missing)}")
    return {k: params[k] - lr * grads[k] for k in params}
