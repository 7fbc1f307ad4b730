"""Network construction, a pure-numpy forward oracle, parameter
serialization and the local training step."""

import hashlib
import re
import struct

import numpy as np
import pytest
from scipy.special import expit

from fedsurg import model as M
from fedsurg.federation import TrainConfig
from conftest import flatten_params, loss_on, random_batch, unflatten_params


def _numpy_forward(params, arch, batch):
    """[DERIVED] forward pass written directly in numpy."""
    def lin(x, name):
        return x @ params[f"{name}.W"] + params[f"{name}.b"]

    h_cont = np.maximum(lin(batch.continuous, "cont"), 0)
    h_bin = np.maximum(lin(batch.binary, "bin"), 0)
    embeds = np.concatenate(
        [params[f"emb{i}.table"][batch.high_card[i]]
         for i in range(len(arch.high_card_specs))], axis=1)
    h_emb = np.maximum(lin(embeds, "embproj"), 0)
    merged = np.maximum(
        lin(np.concatenate([h_cont, h_bin, h_emb], axis=1), "merge"), 0)
    return np.concatenate(
        [expit(lin(merged, f"head{k}")) for k in range(arch.n_outcomes)],
        axis=1)


def test_forward_matches_numpy_oracle(small_arch):
    params = M.init_params(small_arch, 1)
    batch = random_batch(small_arch, 17, 2)
    got = M.forward(params, small_arch, batch).value
    want = _numpy_forward(params, small_arch, batch)
    assert got.shape == (17, small_arch.n_outcomes)
    assert np.allclose(got, want, atol=1e-14)
    assert np.all((got > 0) & (got < 1))


def test_predict_chunking_is_transparent(small_arch):
    params = M.init_params(small_arch, 1)
    batch = random_batch(small_arch, 23, 3)
    full = M.predict(params, small_arch, batch)
    chunked = M.predict(params, small_arch, batch, batch_size=5)
    assert np.array_equal(full, chunked)


def test_init_params_glorot_bounds_and_zero_biases(small_arch):
    params = M.init_params(small_arch, 0)
    for name, shape in M.param_shapes(small_arch).items():
        assert params[name].shape == shape
        if name.endswith(".b"):
            assert np.all(params[name] == 0.0)
        else:
            a = M.glorot_bound(shape)
            assert np.all(np.abs(params[name]) <= a)
            # the draw actually spreads over the interval
            assert params[name].std() > a / 10


def test_init_params_deterministic(small_arch):
    p1 = M.init_params(small_arch, 5)
    p2 = M.init_params(small_arch, 5)
    p3 = M.init_params(small_arch, 6)
    assert M.params_digest(p1) == M.params_digest(p2)
    assert M.params_digest(p1) != M.params_digest(p3)


def test_flatten_unflatten_roundtrip(small_arch):
    params = M.init_params(small_arch, 7)
    flat = flatten_params(params)
    back = unflatten_params(flat, small_arch)
    assert list(back) == list(params)
    for k in params:
        assert np.array_equal(back[k], params[k])
    with pytest.raises(ValueError):
        unflatten_params(flat[:-1], small_arch)


def test_arch_fingerprint_sensitivity(small_arch):
    import dataclasses
    other = dataclasses.replace(small_arch, merge_hidden=small_arch.merge_hidden + 1)
    assert M.arch_fingerprint(small_arch) != M.arch_fingerprint(other)
    assert M.arch_fingerprint(small_arch) == M.arch_fingerprint(small_arch)


def test_checkpoint_roundtrip(tmp_path, small_arch):
    params = M.init_params(small_arch, 9)
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, params, small_arch)
    loaded, fp = M.load_checkpoint(path, small_arch)
    assert fp == M.arch_fingerprint(small_arch)
    assert M.params_digest(loaded) == M.params_digest(params)


def test_checkpoint_rejects_wrong_arch(tmp_path, small_arch):
    import dataclasses
    params = M.init_params(small_arch, 9)
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, params, small_arch)
    other = dataclasses.replace(small_arch, branch_hidden=small_arch.branch_hidden + 1)
    with pytest.raises(ValueError):
        M.load_checkpoint(path, other)


def test_truncated_checkpoint_raises_format_error(tmp_path, small_arch):
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, M.init_params(small_arch, 9), small_arch)
    raw = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    # every offset in the header and the first tensor's header, then a stride
    for size in [*range(64), *range(64, len(raw), 37), len(raw) - 1]:
        cut.write_bytes(raw[:size])
        with pytest.raises(M.CheckpointFormatError, match=re.escape(str(cut))):
            M.load_checkpoint(cut, small_arch)
    assert issubclass(M.CheckpointFormatError, ValueError)
    # a corrupt shape asking for 8 * (2**32 - 1)**4 bytes fails at once
    huge = (raw[:raw.index(b"FSCK") + 8] + struct.pack("<H", 2) + b"fp"
            + struct.pack("<I", 1) + struct.pack("<H", 1) + b"w"
            + struct.pack("<B", 4) + struct.pack("<I", 2**32 - 1) * 4)
    cut.write_bytes(huge + b"\0" * 64)
    with pytest.raises(M.CheckpointFormatError, match="truncated"):
        M.load_checkpoint(cut)


@pytest.mark.parametrize("name", [None, b"cont.W"], ids=["fingerprint", "tensor"])
def test_checkpoint_name_that_is_not_utf8_is_a_format_error(tmp_path, small_arch,
                                                            name):
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, M.init_params(small_arch, 9), small_arch)
    raw = bytearray(path.read_bytes())
    at = 4 + 4 + 2 if name is None else raw.index(name)
    raw[at] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(M.CheckpointFormatError, match="not UTF-8") as info:
        M.load_checkpoint(path)
    assert str(path) in str(info.value)


def test_multitask_loss_equals_elementwise_bce(small_arch):
    params = M.init_params(small_arch, 4)
    batch = random_batch(small_arch, 11, 5)
    loss = loss_on(params, small_arch, batch)
    p = M.predict(params, small_arch, batch)
    y = batch.labels
    want = float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))
    assert loss == pytest.approx(want, abs=1e-12)


def _cfg(**kw):
    base = dict(lr=0.1, local_epochs=1, batch_size=8, rounds=1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_local_train_reduces_loss(small_arch):
    params = M.init_params(small_arch, 0)
    data = random_batch(small_arch, 64, 1)
    before = loss_on(params, small_arch, data)
    rng = np.random.default_rng(0)
    rep = M.local_train(params, M.network(small_arch), data, _cfg(local_epochs=5), rng)
    assert rep.steps_taken == 5 * 8
    assert rep.n_samples == 64
    assert loss_on(rep.params, small_arch, data) < before


def test_local_train_prox_mu_zero_is_bitwise_identity(small_arch):
    params = M.init_params(small_arch, 0)
    data = random_batch(small_arch, 32, 1)
    plain = M.local_train(params, M.network(small_arch), data, _cfg(),
                          np.random.default_rng(3))
    prox0 = M.local_train(params, M.network(small_arch), data, _cfg(),
                          np.random.default_rng(3), prox=(0.0, params))
    assert M.params_digest(plain.params) == M.params_digest(prox0.params)


def test_local_train_prox_pulls_toward_anchor(small_arch):
    params = M.init_params(small_arch, 0)
    data = random_batch(small_arch, 32, 1)
    free = M.local_train(params, M.network(small_arch), data, _cfg(local_epochs=3),
                         np.random.default_rng(3))
    tight = M.local_train(params, M.network(small_arch), data, _cfg(local_epochs=3),
                          np.random.default_rng(3), prox=(5.0, params))
    d_free = np.linalg.norm(flatten_params(free.params) - flatten_params(params))
    d_tight = np.linalg.norm(flatten_params(tight.params) - flatten_params(params))
    assert d_tight < d_free


def test_local_train_grad_offset_oracle(small_arch):
    # one full-batch step: w' = w - lr * (g + offset)
    params = M.init_params(small_arch, 0)
    data = random_batch(small_arch, 16, 1)
    cfg = _cfg(batch_size=16)
    offset = {k: np.full_like(v, 0.01) for k, v in params.items()}
    plain = M.local_train(params, M.network(small_arch), data, cfg,
                          np.random.default_rng(2))
    shifted = M.local_train(params, M.network(small_arch), data, cfg,
                            np.random.default_rng(2), grad_offset=offset)
    for k in params:
        assert np.allclose(shifted.params[k],
                           plain.params[k] - cfg.lr * offset[k], atol=1e-12)


def test_local_train_and_predict_golden(small_arch):
    """Pins the exact bytes of a short training run and of predict, so a
    faster step cannot change a checkpoint unnoticed."""
    rep = M.local_train(M.init_params(small_arch, 5), M.network(small_arch),
                        random_batch(small_arch, 50, 6),
                        _cfg(local_epochs=2, batch_size=8),
                        np.random.default_rng(7))
    assert rep.steps_taken == 14
    assert M.params_digest(rep.params) == (
        "82ca2037efa47c21a5b895ffa1311fd37d7a5f06ded3fd2ff7aab1309e6511a9")
    probs = M.predict(rep.params, small_arch, random_batch(small_arch, 23, 8),
                      batch_size=10)
    assert hashlib.sha256(probs.tobytes()).hexdigest() == (
        "fc39cddc8075dfe7d7f67301045ff9d1ec296125469ac346506a638f517a25c3")


def test_local_train_rejects_empty_data(small_arch):
    params = M.init_params(small_arch, 0)
    data = random_batch(small_arch, 4, 1).take(np.array([], dtype=int))
    with pytest.raises(ValueError):
        M.local_train(params, M.network(small_arch), data, _cfg(), np.random.default_rng(0))


def test_shared_backbone_heads_differ(small_arch):
    # all heads consume the same merge activation but have their own weights
    params = M.init_params(small_arch, 0)
    batch = random_batch(small_arch, 8, 2)
    probs = M.predict(params, small_arch, batch)
    cols = [probs[:, k] for k in range(small_arch.n_outcomes)]
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            assert not np.allclose(cols[i], cols[j])
