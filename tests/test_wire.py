"""Frame protocol: round trips, the frozen golden frame, malformed
input handling (named cases and a fuzz) and both transports."""

import socket
import struct
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsurg import wire as W


def _params(seed=0):
    rng = np.random.default_rng(seed)
    return {"a.W": rng.normal(0, 1, (3, 2)), "a.b": rng.normal(0, 1, 2),
            "t": rng.normal(0, 1, (4, 3))}


def messages_equal(a, b) -> bool:
    """Structural equality, arrays compared exactly."""
    if type(a) is not type(b):
        return False

    def eq(x, y):
        if isinstance(x, np.ndarray):
            return isinstance(y, np.ndarray) and x.shape == y.shape and bool((x == y).all())
        if isinstance(x, dict):
            return isinstance(y, dict) and x.keys() == y.keys() and \
                all(eq(x[k], y[k]) for k in x)
        return x == y

    return all(eq(getattr(a, f), getattr(b, f)) for f in vars(a))


ALL_MESSAGES = [
    W.Hello("site-a", "abcd" * 4),
    W.ScalerStats(np.array([0.0, -1.5]), np.array([1.0, 2.5])),
    W.GlobalScaler(np.array([0.25]), np.array([0.75])),
    W.GlobalModel(3, _params(1)),
    W.GlobalModel(4, _params(2), server_control=_params(3)),
    W.ClientUpdate("site-b", 5, _params(4), 128, 10),
    W.ClientUpdate("site-c", 6, _params(5), 64, 8, control_delta=_params(6),
                   val_auroc=(0.5, 0.625, 0.75, 0.875), train_loss=0.25),
    W.RoundAck(9),
    W.Shutdown(),
]


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_roundtrip_quantizes_to_float32(msg):
    frame = W.encode_frame(msg)
    back, consumed = W.decode_frame(frame)
    assert consumed == len(frame)
    # round trip is exact after one float32 quantization of every tensor
    want = msg
    for f in vars(msg) if not isinstance(msg, (W.Hello, W.RoundAck, W.Shutdown)) else []:
        v = getattr(msg, f)
        if isinstance(v, np.ndarray):
            object.__setattr__(want, f, W.quantize32({"x": v})["x"])
        elif isinstance(v, dict):
            object.__setattr__(want, f, W.quantize32(v))
        elif isinstance(v, tuple) and v and isinstance(v[0], float):
            object.__setattr__(want, f, tuple(
                float(np.float32(x)) for x in v))
        elif isinstance(v, float):
            object.__setattr__(want, f, float(np.float32(v)))
    assert messages_equal(back, want)
    # a second trip is bitwise stable
    again, _ = W.decode_frame(W.encode_frame(back))
    assert messages_equal(again, back)


def test_golden_round_ack_frame():
    # [DERIVED] frozen byte layout: magic, version, type 6, length,
    # little-endian int64 payload, CRC32 of the payload
    frame = W.encode_frame(W.RoundAck(7))
    assert frame == bytes.fromhex(
        "4644524b010608000000070000000000000070d6e76f")
    payload = struct.pack("<q", 7)
    assert frame == (b"FDRK" + bytes([1, 6]) + struct.pack("<I", 8)
                     + payload + struct.pack("<I", zlib.crc32(payload)))


def test_truncated_input_asks_for_more():
    frame = W.encode_frame(W.GlobalModel(1, _params()))
    for cut in (0, 3, W.HEADER_LEN - 1, W.HEADER_LEN + 5, len(frame) - 1):
        assert W.decode_frame(frame[:cut]) == (None, 0)


def test_two_frames_back_to_back():
    f1 = W.encode_frame(W.RoundAck(1))
    f2 = W.encode_frame(W.Shutdown())
    msg, used = W.decode_frame(f1 + f2)
    assert isinstance(msg, W.RoundAck) and used == len(f1)
    msg2, used2 = W.decode_frame((f1 + f2)[used:])
    assert isinstance(msg2, W.Shutdown) and used2 == len(f2)


def test_corrupted_payload_raises():
    frame = bytearray(W.encode_frame(W.ClientUpdate("s", 1, _params(), 8, 1)))
    frame[W.HEADER_LEN + 3] ^= 0xFF
    with pytest.raises(W.CorruptionError):
        W.decode_frame(bytes(frame))


def test_bad_magic_version_and_type():
    frame = W.encode_frame(W.RoundAck(1))
    with pytest.raises(W.ProtocolError, match="magic"):
        W.decode_frame(b"XXXX" + frame[4:])
    with pytest.raises(W.ProtocolError, match="version"):
        W.decode_frame(frame[:4] + bytes([99]) + frame[5:])
    bad_type = frame[:5] + bytes([42]) + frame[6:]
    with pytest.raises(W.ProtocolError, match="type"):
        W.decode_frame(bad_type)


def _frame(msg_type: int, payload: bytes) -> bytes:
    """A frame with a valid header and CRC around any payload."""
    return (W.MAGIC + bytes([W.VERSION, msg_type])
            + struct.pack("<I", len(payload)) + payload
            + struct.pack("<I", zlib.crc32(payload)))


def test_non_utf8_string_is_a_protocol_error():
    payload = struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<H", 0)
    with pytest.raises(W.ProtocolError, match="UTF-8"):
        W.decode_frame(_frame(1, payload))


@pytest.mark.parametrize("size,dims", [(6, (2, 2)), (1, (1,) * 65)],
                         ids=["product", "ndim"])
def test_tensor_dims_must_hold_its_declared_size(size, dims):
    # ScalerStats whose first tensor has dims that numpy cannot give it
    bad = (struct.pack(f"<BI{len(dims)}I", len(dims), size, *dims)
           + bytes(4 * size))
    good = struct.pack("<BII", 1, 1, 1) + bytes(4)
    with pytest.raises(W.ProtocolError, match="dims"):
        W.decode_frame(_frame(2, bad + good))


def test_bytes_after_the_last_field_are_a_protocol_error():
    with pytest.raises(W.ProtocolError, match="after the last field"):
        W.decode_frame(_frame(6, struct.pack("<q", 7) + b"junk"))


def test_optional_field_flag_is_zero_or_one():
    payload = W.encode_frame(W.GlobalModel(1, {}))[W.HEADER_LEN:-4]
    assert payload[-1] == 0
    with pytest.raises(W.ProtocolError, match="flag"):
        W.decode_frame(_frame(4, payload[:-1] + b"\x02"))


def _decodes_or_raises_protocol_error(buf: bytes) -> None:
    try:
        msg, used = W.decode_frame(buf)
    except W.ProtocolError:
        return
    if msg is None:
        assert used == 0
    else:
        assert type(msg) in W.Message.__args__ and 0 < used <= len(buf)


@settings(max_examples=300, deadline=None)
@given(buf=st.binary(max_size=64), msg_type=st.integers(0, 255),
       framed=st.booleans())
def test_decode_frame_fuzz_random_bytes(buf, msg_type, framed):
    _decodes_or_raises_protocol_error(_frame(msg_type, buf) if framed else buf)


@st.composite
def _mutated_payloads(draw):
    """A valid message's payload after a few random edits."""
    frame = W.encode_frame(draw(st.sampled_from(ALL_MESSAGES)))
    payload = bytearray(frame[W.HEADER_LEN:-4])
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(payload)))
        edit = draw(st.sampled_from(("flip", "insert", "delete", "cut")))
        if edit == "flip" and at < len(payload):
            payload[at] ^= draw(st.integers(1, 255))
        elif edit == "insert":
            payload[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif edit == "delete":
            del payload[at:at + draw(st.integers(1, 8))]
        elif edit == "cut":
            del payload[at:]
    return frame[5], bytes(payload)


@settings(max_examples=500, deadline=None)
@given(case=_mutated_payloads())
def test_decode_frame_fuzz_mutated_payloads(case):
    msg_type, payload = case
    _decodes_or_raises_protocol_error(_frame(msg_type, payload))


@settings(max_examples=50, deadline=None)
@given(
    client=st.text(min_size=0, max_size=20),
    rnd=st.integers(0, 2**40),
    n=st.integers(0, 2**40),
    shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                    min_size=0, max_size=3),
    data=st.data(),
)
def test_client_update_roundtrip_property(client, rnd, n, shapes, data):
    params = {}
    for i, shape in enumerate(shapes):
        vals = data.draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, width=32),
            min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        params[f"p{i}"] = np.array(vals).reshape(shape)
    msg = W.ClientUpdate(client, rnd, params, n, n % 97)
    back, _ = W.decode_frame(W.encode_frame(msg))
    assert back.client_id == client and back.round == rnd
    assert back.n_samples == n and back.steps == n % 97
    for k in params:
        assert np.array_equal(back.params[k], params[k])  # width-32 floats


def test_frame_carries_no_raw_feature_rows():
    """Model messages contain parameter tensors only: total payload size
    is explained by the declared tensors plus fixed-size framing."""
    params = _params()
    frame = W.encode_frame(W.GlobalModel(0, params))
    tensor_bytes = sum(4 * v.size for v in params.values())
    name_bytes = sum(2 + len(k) for k in params)
    header = W.HEADER_LEN + 4  # + crc
    per_tensor = sum(1 + 4 + 4 * v.ndim for v in params.values())
    expected = header + 8 + 2 + 1 + name_bytes + per_tensor + tensor_bytes
    assert len(frame) == expected


def test_socket_channel_reassembles_chunks():
    left, right = socket.socketpair()
    chan = W.SocketChannel(right)
    frame = W.encode_frame(W.ClientUpdate("s", 2, _params(3), 100, 7))
    frame += W.encode_frame(W.RoundAck(2))

    def drip():
        for i in range(0, len(frame), 13):
            left.sendall(frame[i:i + 13])
        left.close()

    th = threading.Thread(target=drip)
    th.start()
    msg1 = chan.recv()
    msg2 = chan.recv()
    th.join()
    assert isinstance(msg1, W.ClientUpdate) and msg1.round == 2
    assert isinstance(msg2, W.RoundAck)
    with pytest.raises(W.ChannelClosed):
        chan.recv()
    chan.close()


class _ScriptedSocket:
    """A socket whose recv returns the given chunks, then end of stream."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def settimeout(self, timeout):
        pass

    def recv(self, n):
        return self.chunks.pop(0) if self.chunks else b""


def test_socket_channel_buffers_exact_chunk_boundaries():
    f1 = W.encode_frame(W.RoundAck(1))
    f2 = W.encode_frame(W.Hello("s", "fp"))
    f3 = W.encode_frame(W.GlobalModel(3, _params(7)))
    # two frames in one chunk, then one frame split across three chunks
    chan = W.SocketChannel(_ScriptedSocket(
        [f1 + f2, f3[:5], f3[5:40], f3[40:]]))
    assert chan.recv() == W.RoundAck(1)
    assert chan.recv() == W.Hello("s", "fp")
    assert messages_equal(chan.recv(),
                          W.GlobalModel(3, W.quantize32(_params(7))))
    with pytest.raises(W.ChannelClosed):
        chan.recv()


def test_oversized_frame_rejected(monkeypatch):
    monkeypatch.setattr(W, "MAX_PAYLOAD", 64)
    with pytest.raises(W.FrameSizeError):
        W.encode_frame(W.GlobalModel(0, {"x": np.zeros(100)}))
    # a header alone may not make the reader wait for 4 GiB
    header = W.MAGIC + bytes([W.VERSION, 7]) + struct.pack("<I", 2**32 - 1)
    with pytest.raises(W.FrameSizeError):
        W.decode_frame(header)
