"""Network construction, a pure-numpy forward oracle, the kernel against
the tape, parameter serialization and the local training step."""

import ctypes
import hashlib
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit

import fedsurg.autodiff as ad
from fedsurg import model as M
from fedsurg.federation import TrainConfig
from conftest import (flatten_params, loss_on, params_digest, random_batch,
                      tape_forward, tape_local_train, tape_loss_and_grads,
                      unflatten_params)


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
    got = M.RiskNet(small_arch).forward(params, batch).prob
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
    assert params_digest(p1) == params_digest(p2)
    assert params_digest(p1) != params_digest(p3)


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
    assert params_digest(loaded) == params_digest(params)


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


@pytest.mark.parametrize("kind", ["checkpoint", "delta"])
def test_a_failed_checkpoint_write_leaves_no_file_cut_short(tmp_path, monkeypatch,
                                                            small_arch, kind):
    from fedsurg import personalize as P

    def save(seed):
        params = M.init_params(small_arch, seed)
        if kind == "checkpoint":
            M.save_checkpoint(path, params, small_arch)
        else:
            P.save_delta(path, P.warm_start(params, small_arch, 5, seed=seed))

    write = M._write_tensor
    written = []

    def half_written(fh, name, arr):
        # the fourth tensor fails once the first three are on their way out
        if len(written) == 3:
            fh.flush()
            raise OSError(28, "No space left on device")
        written.append(name)
        write(fh, name, arr)

    path = tmp_path / f"m.{kind}"
    for earlier in (None, 1):
        if earlier is not None:
            save(earlier)
        before = path.read_bytes() if earlier is not None else None
        written.clear()
        with monkeypatch.context() as m:
            m.setattr(M, "_write_tensor", half_written)
            with pytest.raises(OSError, match="No space left"):
                save(2)
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".partial")]
        if earlier is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert path.read_bytes() == before


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
    rep = M.local_train(params, M.RiskNet(small_arch), data, _cfg(local_epochs=5), rng)
    assert rep.steps_taken == 5 * 8
    assert rep.n_samples == 64
    assert loss_on(rep.params, small_arch, data) < before


def test_local_train_prox_mu_zero_is_bitwise_identity(small_arch):
    params = M.init_params(small_arch, 0)
    data = random_batch(small_arch, 32, 1)
    plain = M.local_train(params, M.RiskNet(small_arch), data, _cfg(),
                          np.random.default_rng(3))
    prox0 = M.local_train(params, M.RiskNet(small_arch), data, _cfg(),
                          np.random.default_rng(3), prox=(0.0, params))
    assert params_digest(plain.params) == params_digest(prox0.params)


def test_local_train_prox_pulls_toward_anchor(small_arch):
    params = M.init_params(small_arch, 0)
    data = random_batch(small_arch, 32, 1)
    free = M.local_train(params, M.RiskNet(small_arch), data, _cfg(local_epochs=3),
                         np.random.default_rng(3))
    tight = M.local_train(params, M.RiskNet(small_arch), data, _cfg(local_epochs=3),
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
    plain = M.local_train(params, M.RiskNet(small_arch), data, cfg,
                          np.random.default_rng(2))
    shifted = M.local_train(params, M.RiskNet(small_arch), data, cfg,
                            np.random.default_rng(2), grad_offset=offset)
    for k in params:
        assert np.allclose(shifted.params[k],
                           plain.params[k] - cfg.lr * offset[k], atol=1e-12)


def _openblas_core() -> str | None:
    """The core type of the OpenBLAS bundled with numpy, as it reports it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(path)),
                           "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


# OpenBLAS's kernels for each core type round their sums their own way
GOLDEN_PARAMS = {
    "SkylakeX": "82ca2037efa47c21a5b895ffa1311fd37d7a5f06ded3fd2ff7aab1309e6511a9",
    "Haswell": "7cb695097b3ac302afd0b6252f72b4ed7414317001bbb2c98279c0b6d2f3472a",
}


def test_local_train_and_predict_golden(small_arch):
    """Pins the exact bytes of a short training run and of predict, so a
    faster step cannot change a checkpoint unnoticed. The parameters'
    digest is pinned per OpenBLAS core type."""
    rep = M.local_train(M.init_params(small_arch, 5), M.RiskNet(small_arch),
                        random_batch(small_arch, 50, 6),
                        _cfg(local_epochs=2, batch_size=8),
                        np.random.default_rng(7))
    assert rep.steps_taken == 14
    core, digest = _openblas_core(), params_digest(rep.params)
    assert core in GOLDEN_PARAMS, (
        f"no golden digest for the OpenBLAS core {core!r}; this run's "
        f"parameters digest to {digest}")
    assert digest == GOLDEN_PARAMS[core], core
    probs = M.predict(rep.params, small_arch, random_batch(small_arch, 23, 8),
                      batch_size=10)
    assert hashlib.sha256(probs.tobytes()).hexdigest() == (
        "fc39cddc8075dfe7d7f67301045ff9d1ec296125469ac346506a638f517a25c3")


def test_local_train_rejects_empty_data(small_arch):
    params = M.init_params(small_arch, 0)
    data = random_batch(small_arch, 4, 1).take(np.array([], dtype=int))
    with pytest.raises(ValueError, match="local_train on an empty dataset"):
        M.local_train(params, M.RiskNet(small_arch), data, _cfg(),
                      np.random.default_rng(0))


def test_local_train_rejects_a_prox_anchor_of_another_layout(small_arch):
    params = M.init_params(small_arch, 0)
    anchor = {k: v for k, v in params.items() if k != "merge.b"}
    with pytest.raises(ad.KeyMismatchError, match="prox anchor layout differs"):
        M.local_train(params, M.RiskNet(small_arch), random_batch(small_arch, 8, 1),
                      _cfg(), np.random.default_rng(0), prox=(0.1, anchor))


@pytest.mark.parametrize("bad", [7, -1], ids=["past-the-end", "negative"])
def test_out_of_vocabulary_index_raises_the_tapes_error(small_arch, bad):
    params = M.init_params(small_arch, 0)
    data = random_batch(small_arch, 20, 3)
    data.high_card[0, 11] = bad     # table 0 holds 7 rows
    with pytest.raises(IndexError) as want:
        tape_forward(params, small_arch, data)
    assert f"embedding index {bad} outside vocabulary [0, 7)" in str(want.value)
    with pytest.raises(IndexError) as trained:
        M.local_train(params, M.RiskNet(small_arch), data, _cfg(),
                      np.random.default_rng(0))
    with pytest.raises(IndexError) as predicted:
        M.predict(params, small_arch, data, batch_size=8)
    assert str(trained.value) == str(predicted.value) == str(want.value)


@st.composite
def _archs(draw):
    return M.ArchConfig(
        n_continuous=draw(st.integers(1, 5)), n_binary=draw(st.integers(1, 4)),
        high_card_specs=tuple(draw(st.lists(
            st.tuples(st.integers(2, 9), st.integers(1, 3)), max_size=3))),
        branch_hidden=draw(st.integers(1, 7)), merge_hidden=draw(st.integers(1, 9)),
        n_outcomes=draw(st.integers(1, 4)))


def _drawn_params(arch, seed, scale):
    rng = np.random.default_rng([seed, 1])
    return {k: rng.normal(0.0, scale, shape)
            for k, shape in M.param_shapes(arch).items()}


@settings(derandomize=True, deadline=None, max_examples=120)
@given(arch=_archs(), n=st.integers(1, 40), batch_size=st.integers(1, 16),
       epochs=st.integers(1, 2), mu=st.sampled_from([0.0, 0.3]),
       offset=st.booleans(), scale=st.sampled_from([0.5, 6.0]),
       seed=st.integers(0, 2**32 - 1))
@example(arch=M.ArchConfig(4, 2, ((5, 2), (3, 3))), n=1, batch_size=4, epochs=2,
         mu=0.0, offset=False, scale=0.5, seed=1).via("a batch of one row")
@example(arch=M.ArchConfig(3, 2, ((6, 2),)), n=23, batch_size=8, epochs=2,
         mu=0.3, offset=True, scale=0.5, seed=2).via("partial batch, FedProx, SCAFFOLD")
@example(arch=M.ArchConfig(3, 2, ()), n=9, batch_size=4, epochs=1,
         mu=0.3, offset=False, scale=6.0, seed=3).via("no embeddings, clamped p")
def test_kernel_is_the_tape_bit_for_bit(arch, n, batch_size, epochs, mu, offset,
                                        scale, seed):
    """The kernel's loss, gradients and whole local_train run equal the
    tape's byte for byte (the tape network lives in conftest)."""
    params = _drawn_params(arch, seed, scale)
    data = random_batch(arch, n, seed % 2**16)
    rows = np.random.default_rng(seed).permutation(n)[:batch_size]
    want_loss, want = tape_loss_and_grads(params, arch, data.take(rows))
    got = {k: np.full_like(v, np.nan) for k, v in params.items()}
    loss = M.RiskNet(arch)(params, got, data, rows)
    assert struct.pack("<d", loss) == struct.pack("<d", want_loss)
    assert list(got) == list(want)
    for k in want:
        assert got[k].tobytes() == want[k].tobytes(), k

    cfg = _cfg(local_epochs=epochs, batch_size=batch_size, lr=0.05)
    anchor = _drawn_params(arch, seed + 1, scale)
    shift = _drawn_params(arch, seed + 2, 0.01) if offset else None
    rep = M.local_train(params, M.RiskNet(arch), data, cfg,
                        np.random.default_rng(seed), prox=(mu, anchor),
                        grad_offset=shift)
    want_params, steps, mean_loss = tape_local_train(
        params, arch, data, cfg, np.random.default_rng(seed), prox=(mu, anchor),
        grad_offset=shift)
    assert rep.steps_taken == steps
    assert struct.pack("<d", rep.mean_loss) == struct.pack("<d", mean_loss)
    assert params_digest(rep.params) == params_digest(want_params)
    # predict's chunks are views of the data, not gathered copies
    chunks = [tape_forward(rep.params, arch, data.take(slice(i, i + 7))).value
              for i in range(0, n, 7)]
    assert M.predict(rep.params, arch, data, batch_size=7).tobytes() == (
        np.concatenate(chunks).tobytes())


def test_shared_backbone_heads_differ(small_arch):
    # all heads consume the same merge activation but have their own weights
    params = M.init_params(small_arch, 0)
    batch = random_batch(small_arch, 8, 2)
    probs = M.predict(params, small_arch, batch)
    cols = [probs[:, k] for k in range(small_arch.n_outcomes)]
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            assert not np.allclose(cols[i], cols[j])
