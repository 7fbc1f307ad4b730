"""Gradient correctness against a central finite-difference oracle.

The oracle treats the whole network as a black-box scalar function of
each trainable leaf and perturbs one coordinate at a time.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedsurg.autodiff as ad


def _graph_loss(params: dict[str, np.ndarray], x: np.ndarray,
                idx: tuple[np.ndarray, ...], y: np.ndarray
                ) -> tuple[ad.Tape, ad.Node]:
    """A composite graph exercising every op: linear, relu, embeddings
    over two tables, concat, sigmoid and the clamped BCE loss."""
    tape = ad.Tape()
    nodes = {k: tape.leaf(v, name=k, trainable=True) for k, v in params.items()}
    xn = tape.leaf(x)
    h1 = ad.relu(tape, ad.linear(tape, xn, nodes["W1"], nodes["b1"]))
    emb = ad.embeddings(tape, [nodes["T"], nodes["U"]], idx)
    h = ad.concat(tape, [h1, emb])
    p = ad.sigmoid(tape, ad.linear(tape, h, nodes["W2"], nodes["b2"]))
    return tape, ad.bce_loss(tape, p, y)


def _make_case(seed: int):
    rng = np.random.default_rng(seed)
    n, d, hid, k = 6, 4, 5, 2
    (vocab_t, dim_t), (vocab_u, dim_u) = (9, 3), (4, 2)
    params = {
        "W1": rng.normal(0, 0.5, (d, hid)),
        "b1": rng.normal(0, 0.1, hid),
        "T": rng.normal(0, 0.5, (vocab_t, dim_t)),
        "U": rng.normal(0, 0.5, (vocab_u, dim_u)),
        "W2": rng.normal(0, 0.5, (hid + dim_t + dim_u, k)),
        "b2": rng.normal(0, 0.1, k),
    }
    x = rng.normal(0, 1, (n, d))
    # the first index of each column repeats, so rows get summed gradients
    idx = tuple(np.r_[i[0], i[:-1]]
                for i in (rng.integers(0, vocab_t, n), rng.integers(0, vocab_u, n)))
    y = rng.integers(0, 2, (n, k)).astype(float)
    return params, x, idx, y


def _fd_gradient(params, name, x, idx, y, h=1e-5):
    """[DERIVED] central finite differences, coordinate by coordinate."""
    base = {k: v.copy() for k, v in params.items()}
    grad = np.zeros_like(base[name])
    it = np.nditer(grad, flags=["multi_index"])
    for _ in it:
        mi = it.multi_index
        for sign, store in ((+1, "plus"), (-1, "minus")):
            base[name][mi] = params[name][mi] + sign * h
            _, loss = _graph_loss(base, x, idx, y)
            if sign > 0:
                plus = float(loss.value)
            else:
                minus = float(loss.value)
        base[name][mi] = params[name][mi]
        grad[mi] = (plus - minus) / (2 * h)
    return grad


@pytest.mark.parametrize("seed", range(20))
def test_gradients_match_finite_differences(seed):
    params, x, idx, y = _make_case(seed)
    tape, loss = _graph_loss(params, x, idx, y)
    grads = tape.gradients(loss)
    assert set(grads) == set(params)
    for name in params:
        fd = _fd_gradient(params, name, x, idx, y)
        denom = max(np.linalg.norm(fd), 1e-8)
        rel = np.linalg.norm(grads[name] - fd) / denom
        assert rel < 1e-4, f"{name}: rel err {rel:.2e}"


def test_unused_trainable_leaf_gets_zero_gradient():
    tape = ad.Tape()
    used = tape.leaf(np.array([2.0]), name="used", trainable=True)
    unused = tape.leaf(np.array([3.0]), name="unused", trainable=True)
    loss = ad.sigmoid(tape, used)
    loss = ad.bce_loss(tape, loss, np.array([1.0]))
    grads = tape.gradients(loss)
    assert "unused" in grads
    assert np.all(grads["unused"] == 0.0)
    assert grads["unused"].shape == unused.value.shape


def test_gradients_rejects_non_scalar_root():
    tape = ad.Tape()
    leaf = tape.leaf(np.ones((2, 2)), name="w", trainable=True)
    out = ad.relu(tape, leaf)
    with pytest.raises(ad.GraphError):
        tape.gradients(out)


def test_gradients_rejects_foreign_node():
    tape_a = ad.Tape()
    tape_b = ad.Tape()
    leaf = tape_a.leaf(np.array([1.0]), name="w", trainable=True)
    loss = ad.bce_loss(tape_a, ad.sigmoid(tape_a, leaf), np.array([1.0]))
    tape_b.leaf(np.array([1.0]), name="w", trainable=True)
    with pytest.raises(ad.GraphError):
        tape_b.gradients(loss)


def test_linear_shape_validation():
    tape = ad.Tape()
    x = tape.leaf(np.ones((3, 4)))
    w = tape.leaf(np.ones((5, 2)), name="w", trainable=True)
    b = tape.leaf(np.zeros(2), name="b", trainable=True)
    with pytest.raises(ad.ShapeError):
        ad.linear(tape, x, w, b)


def test_embedding_rejects_out_of_vocab_index():
    tape = ad.Tape()
    table = tape.leaf(np.ones((4, 2)), name="t", trainable=True)
    other = tape.leaf(np.ones((9, 3)), name="u", trainable=True)
    message = re.escape("embedding index 4 outside vocabulary [0, 4) "
                        "(vocabulary mismatch between sites?)")
    for idx in ([np.array([8, 8]), np.array([0, 4])], np.array([[8, 8], [0, 4]])):
        with pytest.raises(IndexError, match=message):
            ad.embeddings(tape, [other, table], idx)


@pytest.mark.parametrize("bad", [
    np.array([0, 1]),
    [[0, 1], [0]],
    np.zeros((3, 2), dtype=int),
    np.zeros((1, 2), dtype=int),
    np.zeros((2, 2)),
], ids=["vector", "ragged", "more-rows", "fewer-rows", "float"])
def test_embeddings_reject_what_is_not_an_index_matrix(bad):
    tape = ad.Tape()
    tables = [tape.leaf(np.ones((4, 2)), name=n, trainable=True) for n in "tu"]
    with pytest.raises(ad.ShapeError):
        ad.embeddings(tape, tables, bad)


@pytest.mark.parametrize("bad", [np.zeros((2, 1), dtype=int),
                                 np.array([0.0, 1.0]),
                                 np.array([0, 1, 2])],
                         ids=["not-flat", "not-integer", "length"])
def test_embeddings_shape_checks(bad):
    tape = ad.Tape()
    tables = [tape.leaf(np.ones((4, 2)), name=n, trainable=True) for n in "tu"]
    with pytest.raises(ad.ShapeError):
        ad.embeddings(tape, tables, [np.array([0, 1]), bad])
    with pytest.raises(ad.ShapeError):
        ad.embeddings(tape, tables, [np.array([0, 1])])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)),
                min_size=1, max_size=4),
       st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_embeddings_gradient_is_add_at_bit_for_bit(specs, n, seed):
    """[DERIVED] the gradient of each table is np.add.at of its slice of
    the upstream gradient, rows never drawn included."""
    rng = np.random.default_rng(seed)
    tables = [rng.normal(size=spec) for spec in specs]
    idx = np.array([rng.integers(0, vocab, n) for vocab, _ in specs])
    upstream = rng.normal(size=(n, sum(d for _, d in specs)))
    tape = ad.Tape()
    leaves = [tape.leaf(t, name=f"t{i}", trainable=True)
              for i, t in enumerate(tables)]
    out = ad.embeddings(tape, leaves, idx)
    assert out.value.tobytes() == np.concatenate(
        [t[i] for t, i in zip(tables, idx)], axis=1).tobytes()
    got = out.backward(upstream)
    cols = np.cumsum([0] + [d for _, d in specs])
    for t, i, g, a, b in zip(tables, idx, got, cols[:-1], cols[1:]):
        want = np.zeros_like(t)
        np.add.at(want, i, upstream[:, a:b])
        assert g.shape == t.shape and g.tobytes() == want.tobytes()


def test_input_leaves_get_no_gradient():
    tape = ad.Tape()
    x = tape.leaf(np.ones((3, 2)))
    w = tape.leaf(np.full((2, 4), 0.5), name="w", trainable=True)
    b = tape.leaf(np.zeros(4), name="b", trainable=True)
    unreached = tape.leaf(np.ones((2, 2)), name="unreached", trainable=True)
    h = ad.linear(tape, x, w, b)
    assert not x.requires_grad and h.requires_grad
    dx, dw, db = h.backward(np.ones((3, 4)))
    assert dx is None and dw is not None and db is not None
    loss = ad.bce_loss(tape, ad.sigmoid(tape, h), np.ones((3, 4)))
    grads = tape.gradients(loss)
    assert set(grads) == {"w", "b", "unreached"}
    assert grads["unreached"].shape == (2, 2)
    assert np.all(grads["unreached"] == 0.0)


def test_tape_without_trainable_leaves_records_no_backward():
    tape = ad.Tape()
    x = tape.leaf(np.ones((3, 2)))
    w = tape.leaf(np.ones((2, 1)), name="w")
    b = tape.leaf(np.zeros(1), name="b")
    t = tape.leaf(np.ones((5, 2)), name="t")
    h = ad.concat(tape, [ad.linear(tape, x, w, b),
                         ad.embeddings(tape, [t], [np.array([0, 4, 4])])])
    loss = ad.bce_loss(tape, ad.sigmoid(tape, ad.relu(tape, h)), np.ones((3, 3)))
    assert not any(node.requires_grad for node in tape.nodes)
    assert all(node.backward is None for node in tape.nodes)
    assert tape.gradients(loss) == {}


def test_bce_loss_is_clamped_at_extreme_probabilities():
    tape = ad.Tape()
    p = tape.leaf(np.array([[0.0, 1.0]]), name="p", trainable=True)
    loss = ad.bce_loss(tape, p, np.array([[1.0, 0.0]]))
    assert np.isfinite(loss.value)
    grads = tape.gradients(loss)
    assert np.all(np.isfinite(grads["p"]))


def test_bce_loss_value_oracle():
    # [DERIVED] elementwise mean of -(y log p + (1-y) log(1-p))
    rng = np.random.default_rng(3)
    p = rng.uniform(0.05, 0.95, (5, 3))
    y = rng.integers(0, 2, (5, 3)).astype(float)
    tape = ad.Tape()
    loss = ad.bce_loss(tape, tape.leaf(p, name="p", trainable=True), y)
    expect = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
    assert loss.value == pytest.approx(expect, abs=1e-12)


def test_sgd_step_key_mismatch():
    params = {"a": np.zeros(2)}
    with pytest.raises(ad.KeyMismatchError):
        ad.sgd_step(params, {"b": np.zeros(2)}, 0.1)


def test_sgd_step_oracle():
    params = {"a": np.array([1.0, 2.0])}
    grads = {"a": np.array([0.5, -1.0])}
    out = ad.sgd_step(params, grads, 0.1)
    assert np.allclose(out["a"], [0.95, 2.1], atol=1e-15)
    assert np.all(params["a"] == [1.0, 2.0])  # input untouched
