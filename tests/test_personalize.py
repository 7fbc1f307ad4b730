"""Surgeon-identity fine-tuning: warm-start equivalence, backbone
freeze and the delta artifact."""

import re
import struct

import numpy as np
import pytest

import fedsurg.autodiff as ad
from fedsurg import model as M
from fedsurg import personalize as P
from fedsurg.federation import TrainConfig
from conftest import SMALL_ARCH, random_batch


VOCAB = 12


def _setup(n=48, seed=3):
    params = M.init_params(SMALL_ARCH, 1)
    batch = random_batch(SMALL_ARCH, n, seed, surgeon_vocab=VOCAB)
    return params, batch


def test_warm_start_reproduces_global_predictions():
    params, batch = _setup()
    pm = P.warm_start(params, SMALL_ARCH, VOCAB)
    personalized = P.predict_personalized(pm, batch)
    global_probs = M.predict(params, SMALL_ARCH, batch)
    assert np.max(np.abs(personalized - global_probs)) < 1e-12


def test_warm_start_surgeon_slice_zero_merge_slice_copied():
    params, _ = _setup()
    pm = P.warm_start(params, SMALL_ARCH, VOCAB, embed_dim=8)
    m = SMALL_ARCH.merge_hidden
    for k in range(SMALL_ARCH.n_outcomes):
        w = pm.heads[f"phead{k}.W"]
        assert w.shape == (m + 8, 1)
        assert np.array_equal(w[:m], params[f"head{k}.W"])
        assert np.all(w[m:] == 0.0)
        assert np.array_equal(pm.heads[f"phead{k}.b"], params[f"head{k}.b"])
    assert pm.surgeon_table.shape == (VOCAB + 1, 8)
    assert np.any(pm.surgeon_table != 0.0)  # random init, ready to learn


def test_fine_tune_freezes_backbone_and_reduces_loss():
    params, batch = _setup(n=96)
    cfg = TrainConfig(lr=0.05, batch_size=32)
    before = P.personalized_loss(P.warm_start(params, SMALL_ARCH, VOCAB), batch)
    pm = P.fine_tune(params, SMALL_ARCH, batch, cfg, seed=0,
                     surgeon_vocab_size=VOCAB, epochs=4)
    assert M.params_digest(pm.backbone) == M.params_digest(params)
    after = P.personalized_loss(pm, batch)
    assert after <= before


def test_fine_tune_moves_only_table_and_heads():
    params, batch = _setup(n=64)
    cfg = TrainConfig(lr=0.05, batch_size=64)
    pm0 = P.warm_start(params, SMALL_ARCH, VOCAB, seed=0)
    # the surgeon slice of each head starts at zero, so the table only
    # receives gradient from the second step onward
    pm = P.fine_tune(params, SMALL_ARCH, batch, cfg, seed=0,
                     surgeon_vocab_size=VOCAB, epochs=2)
    assert not np.array_equal(pm.surgeon_table, pm0.surgeon_table)
    assert any(not np.array_equal(pm.heads[k], pm0.heads[k]) for k in pm.heads)


def _reference_fine_tune(params, arch, train, cfg, seed, vocab, epochs):
    """[DERIVED] fine-tuning as its own minibatch loop over a hand-built
    graph: frozen backbone, surgeon embedding beside the merge activation,
    one linear -> sigmoid head per outcome."""
    pm = P.warm_start(params, arch, vocab, seed=seed)
    table, heads = pm.surgeon_table, dict(pm.heads)
    rng = np.random.default_rng([seed, 0xF17E])
    for _ in range(epochs):
        order = rng.permutation(len(train))
        for start in range(0, len(train), cfg.batch_size):
            batch = train.take(order[start:start + cfg.batch_size])
            tape = ad.Tape()
            backbone = {k: tape.leaf(v, name=k) for k, v in params.items()}
            merged = M.merge_activation_from_nodes(tape, backbone, arch, batch)
            t = tape.leaf(table, name="surgeon.table", trainable=True)
            h = {k: tape.leaf(v, name=k, trainable=True) for k, v in heads.items()}
            combined = ad.concat(tape, [merged, ad.embeddings(
                tape, [t], batch.surgeon[None])])
            probs = ad.concat(tape, [ad.sigmoid(tape, ad.linear(
                tape, combined, h[f"phead{k}.W"], h[f"phead{k}.b"]))
                for k in range(arch.n_outcomes)])
            grads = tape.gradients(ad.bce_loss(tape, probs, batch.labels))
            table = table - cfg.lr * grads["surgeon.table"]
            heads = {k: heads[k] - cfg.lr * grads[k] for k in heads}
    return table, heads


def test_fine_tune_equals_its_reference_loop_bit_for_bit():
    # 70 rows in batches of 16: four full batches and a partial one of 6
    params, batch = _setup(n=70, seed=5)
    cfg = TrainConfig(lr=0.05, batch_size=16)
    pm = P.fine_tune(params, SMALL_ARCH, batch, cfg, seed=4,
                     surgeon_vocab_size=VOCAB, epochs=3)
    table, heads = _reference_fine_tune(params, SMALL_ARCH, batch, cfg, 4,
                                        VOCAB, 3)
    assert pm.surgeon_table.tobytes() == table.tobytes()
    assert list(pm.heads) == list(heads)
    for k in heads:
        assert pm.heads[k].tobytes() == heads[k].tobytes(), k


def test_fine_tune_is_deterministic():
    params, batch = _setup(n=64)
    cfg = TrainConfig(lr=0.05, batch_size=32)
    pm1 = P.fine_tune(params, SMALL_ARCH, batch, cfg, seed=7,
                      surgeon_vocab_size=VOCAB, epochs=2)
    pm2 = P.fine_tune(params, SMALL_ARCH, batch, cfg, seed=7,
                      surgeon_vocab_size=VOCAB, epochs=2)
    assert np.array_equal(pm1.surgeon_table, pm2.surgeon_table)
    for k in pm1.heads:
        assert np.array_equal(pm1.heads[k], pm2.heads[k])


def test_unknown_surgeon_uses_row_zero():
    params, batch = _setup()
    pm = P.warm_start(params, SMALL_ARCH, VOCAB)
    b0 = batch.take(np.arange(len(batch)))
    b0.surgeon[:] = 0  # index 0 = unknown/unseen surgeon
    probs = P.predict_personalized(pm, b0)
    assert probs.shape == (len(batch), SMALL_ARCH.n_outcomes)
    assert np.all(np.isfinite(probs))


def test_predict_requires_surgeon_ids():
    params, batch = _setup()
    pm = P.warm_start(params, SMALL_ARCH, VOCAB)
    import dataclasses
    no_surgeon = dataclasses.replace(batch, surgeon=None)
    with pytest.raises(ValueError):
        P.predict_personalized(pm, no_surgeon)


def test_delta_roundtrip(tmp_path):
    params, batch = _setup(n=64)
    cfg = TrainConfig(lr=0.05, batch_size=32)
    pm = P.fine_tune(params, SMALL_ARCH, batch, cfg, seed=2,
                     surgeon_vocab_size=VOCAB, epochs=2)
    path = tmp_path / "site.delta"
    P.save_delta(path, pm)
    back = P.load_delta(path, params, SMALL_ARCH)
    assert np.array_equal(back.surgeon_table, pm.surgeon_table)
    assert np.array_equal(
        P.predict_personalized(back, batch), P.predict_personalized(pm, batch))
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.delta"
        bad.write_bytes(b"NOPE" + b"\x00" * 8)
        P.load_delta(bad, params, SMALL_ARCH)


def test_truncated_delta_raises_format_error(tmp_path):
    params, _ = _setup()
    path = tmp_path / "site.delta"
    P.save_delta(path, P.warm_start(params, SMALL_ARCH, VOCAB))
    raw = path.read_bytes()
    cut = tmp_path / "cut.delta"
    # every offset in the header and the first tensor's header, then a stride
    for size in [*range(64), *range(64, len(raw), 37), len(raw) - 1]:
        cut.write_bytes(raw[:size])
        with pytest.raises(M.CheckpointFormatError, match="truncated") as info:
            P.load_delta(cut, params, SMALL_ARCH)
        assert re.search(re.escape(str(cut)), str(info.value))


def test_delta_name_that_is_not_utf8_is_a_format_error(tmp_path):
    params, _ = _setup()
    path = tmp_path / "site.delta"
    P.save_delta(path, P.warm_start(params, SMALL_ARCH, VOCAB))
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"phead0.W")] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(M.CheckpointFormatError, match="not UTF-8") as info:
        P.load_delta(path, params, SMALL_ARCH)
    assert str(path) in str(info.value)


def _without(name):
    return lambda tensors: tensors.pop(name)


def _narrow_head(tensors):
    tensors["phead0.W"] = np.zeros((3, 1))


@pytest.mark.parametrize("damage", [
    _without("surgeon.table"), _without("phead3.b"), _narrow_head,
], ids=["no-table", "missing-head", "head-shape"])
def test_delta_whose_tensors_do_not_fit_the_model(tmp_path, damage):
    params, _ = _setup()
    pm = P.warm_start(params, SMALL_ARCH, VOCAB)
    tensors = {"surgeon.table": pm.surgeon_table, **pm.heads}
    damage(tensors)
    path = tmp_path / "site.delta"
    with open(path, "wb") as fh:
        fh.write(P._DELTA_MAGIC)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            M._write_tensor(fh, name, arr)
    with pytest.raises(M.CheckpointFormatError) as info:
        P.load_delta(path, params, SMALL_ARCH)
    assert str(path) in str(info.value)
