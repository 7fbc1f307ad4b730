"""Binary message protocol and transports for the federation.

Frame layout (little-endian): magic ``FDRK`` | version (1 byte) |
msg_type (1 byte) | payload_len (u32) | payload | crc32(payload) (u32).
Tensors travel as a shape header plus 32-bit floats; the float32
round-trip is therefore part of the protocol in *both* transports, which
is what makes in-process and socket runs bit-identical. No message
variant can carry patient rows: only parameters and summary statistics
cross the wire.
"""

from __future__ import annotations

import socket
import struct
import time
import zlib
from dataclasses import dataclass

import numpy as np

MAGIC = b"FDRK"
VERSION = 1
MAX_PAYLOAD = 2**31


class ProtocolError(RuntimeError):
    """Bad magic, unknown message type, or malformed payload."""


class CorruptionError(ProtocolError):
    """Checksum mismatch."""


class FrameSizeError(ProtocolError):
    pass


# --- message variants -----------------------------------------------------

@dataclass(frozen=True)
class Hello:
    client_id: str
    arch_fingerprint: str


@dataclass(eq=False)
class ScalerStats:
    mins: np.ndarray
    maxs: np.ndarray


@dataclass(eq=False)
class GlobalScaler:
    mins: np.ndarray
    maxs: np.ndarray


@dataclass(eq=False)
class GlobalModel:
    round: int
    params: dict[str, np.ndarray]
    server_control: dict[str, np.ndarray] | None = None


@dataclass(eq=False)
class ClientUpdate:
    client_id: str
    round: int
    params: dict[str, np.ndarray]
    n_samples: int
    steps: int
    control_delta: dict[str, np.ndarray] | None = None
    val_auroc: tuple[float, ...] = ()
    train_loss: float = 0.0


@dataclass(frozen=True)
class RoundAck:
    round: int


@dataclass(frozen=True)
class Shutdown:
    pass


_MSG_TYPES = {
    Hello: 1, ScalerStats: 2, GlobalScaler: 3, GlobalModel: 4,
    ClientUpdate: 5, RoundAck: 6, Shutdown: 7,
}
_TYPE_MSGS = {v: k for k, v in _MSG_TYPES.items()}

Message = Hello | ScalerStats | GlobalScaler | GlobalModel | ClientUpdate | RoundAck | Shutdown


def quantize32(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The float32 round-trip the transport applies to every tensor."""
    return {k: v.astype(np.float32).astype(np.float64) for k, v in params.items()}


# --- payload packing ------------------------------------------------------

def _pack_str(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<H", len(raw)) + raw


def _pack_vec(v: np.ndarray) -> bytes:
    data = np.ascontiguousarray(v, dtype="<f4")
    return struct.pack("<BI", data.ndim, data.size) + \
        b"".join(struct.pack("<I", d) for d in data.shape) + data.tobytes()


def _pack_tensors(params: dict[str, np.ndarray]) -> bytes:
    parts = [struct.pack("<H", len(params))]
    for name, arr in params.items():
        parts.append(_pack_str(name))
        parts.append(_pack_vec(arr))
    return b"".join(parts)


def _pack_opt_tensors(params: dict[str, np.ndarray] | None) -> bytes:
    if params is None:
        return b"\x00"
    return b"\x01" + _pack_tensors(params)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ProtocolError("payload truncated")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def f32(self) -> float:
        return struct.unpack("<f", self.take(4))[0]

    def string(self) -> str:
        return self.take(self.u16()).decode()

    def vec(self) -> np.ndarray:
        ndim = self.u8()
        size = self.u32()
        shape = tuple(self.u32() for _ in range(ndim))
        arr = np.frombuffer(self.take(4 * size), dtype="<f4").reshape(shape)
        return arr.astype(np.float64)

    def tensors(self) -> dict[str, np.ndarray]:
        return {self.string(): self.vec() for _ in range(self.u16())}

    def opt_tensors(self) -> dict[str, np.ndarray] | None:
        return self.tensors() if self.u8() else None


def _encode_payload(msg: Message) -> bytes:
    if isinstance(msg, Hello):
        return _pack_str(msg.client_id) + _pack_str(msg.arch_fingerprint)
    if isinstance(msg, (ScalerStats, GlobalScaler)):
        return _pack_vec(np.asarray(msg.mins)) + _pack_vec(np.asarray(msg.maxs))
    if isinstance(msg, GlobalModel):
        return (struct.pack("<q", msg.round) + _pack_tensors(msg.params)
                + _pack_opt_tensors(msg.server_control))
    if isinstance(msg, ClientUpdate):
        return (_pack_str(msg.client_id) + struct.pack("<q", msg.round)
                + _pack_tensors(msg.params)
                + struct.pack("<qq", msg.n_samples, msg.steps)
                + _pack_opt_tensors(msg.control_delta)
                + struct.pack("<B", len(msg.val_auroc))
                + b"".join(struct.pack("<f", v) for v in msg.val_auroc)
                + struct.pack("<f", msg.train_loss))
    if isinstance(msg, RoundAck):
        return struct.pack("<q", msg.round)
    if isinstance(msg, Shutdown):
        return b""
    raise ProtocolError(f"unknown message {type(msg).__name__}")


def _decode_payload(msg_type: int, payload: bytes) -> Message:
    r = _Reader(payload)
    cls = _TYPE_MSGS.get(msg_type)
    if cls is None:
        raise ProtocolError(f"unknown message type {msg_type}")
    if cls is Hello:
        return Hello(r.string(), r.string())
    if cls is ScalerStats:
        return ScalerStats(r.vec(), r.vec())
    if cls is GlobalScaler:
        return GlobalScaler(r.vec(), r.vec())
    if cls is GlobalModel:
        return GlobalModel(r.i64(), r.tensors(), r.opt_tensors())
    if cls is ClientUpdate:
        client_id = r.string()
        rnd = r.i64()
        params = r.tensors()
        n_samples = r.i64()
        steps = r.i64()
        control = r.opt_tensors()
        val = tuple(r.f32() for _ in range(r.u8()))
        loss = r.f32()
        return ClientUpdate(client_id, rnd, params, n_samples, steps,
                            control, val, loss)
    if cls is RoundAck:
        return RoundAck(r.i64())
    return Shutdown()


def encode_frame(msg: Message) -> bytes:
    payload = _encode_payload(msg)
    if len(payload) >= MAX_PAYLOAD:
        raise FrameSizeError(f"payload of {len(payload)} bytes exceeds limit")
    return (MAGIC + bytes([VERSION, _MSG_TYPES[type(msg)]])
            + struct.pack("<I", len(payload)) + payload
            + struct.pack("<I", zlib.crc32(payload)))


HEADER_LEN = len(MAGIC) + 2 + 4


def decode_frame(buf: bytes) -> tuple[Message | None, int]:
    """Parse one frame from the head of ``buf``.

    Returns (message, bytes consumed), or (None, 0) when more bytes are
    needed. Raises ProtocolError / CorruptionError on malformed input and
    FrameSizeError when the header declares MAX_PAYLOAD bytes or more.
    """
    if len(buf) < HEADER_LEN:
        return None, 0
    if buf[:4] != MAGIC:
        raise ProtocolError(f"bad magic {buf[:4]!r}")
    if buf[4] != VERSION:
        raise ProtocolError(f"unsupported protocol version {buf[4]}")
    msg_type = buf[5]
    (payload_len,) = struct.unpack("<I", buf[6:10])
    if payload_len >= MAX_PAYLOAD:
        raise FrameSizeError(f"header declares {payload_len} payload bytes")
    total = HEADER_LEN + payload_len + 4
    if len(buf) < total:
        return None, 0
    payload = buf[HEADER_LEN:HEADER_LEN + payload_len]
    (crc,) = struct.unpack("<I", buf[total - 4:total])
    if crc != zlib.crc32(payload):
        raise CorruptionError("payload checksum mismatch")
    return _decode_payload(msg_type, payload), total


def messages_equal(a: Message, b: Message) -> bool:
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


# --- transports -----------------------------------------------------------

class ChannelClosed(RuntimeError):
    pass


class SocketChannel:
    """Framed messages over a connected TCP socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = b""

    def send(self, msg: Message) -> None:
        self._sock.sendall(encode_frame(msg))

    def recv(self, timeout: float | None = 300.0) -> Message:
        self._sock.settimeout(timeout)
        while True:
            msg, consumed = decode_frame(self._buf)
            if msg is not None:
                self._buf = self._buf[consumed:]
                return msg
            chunk = self._sock.recv(1 << 16)
            if not chunk:
                raise ChannelClosed("socket closed by peer")
            self._buf += chunk

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


def serve_sockets(host: str, port: int, n_clients: int,
                  timeout: float = 300.0) -> tuple[list[SocketChannel], int]:
    """Accept exactly n_clients connections; returns channels and bound port."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    bound_port = srv.getsockname()[1]
    srv.listen(n_clients)
    srv.settimeout(timeout)
    channels = []
    try:
        for _ in range(n_clients):
            conn, _addr = srv.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            channels.append(SocketChannel(conn))
    finally:
        srv.close()
    return channels, bound_port


def connect_socket(host: str, port: int, retries: int = 100,
                   delay: float = 0.1) -> SocketChannel:
    last: Exception | None = None
    for _ in range(retries):
        try:
            sock = socket.create_connection((host, port), timeout=30.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return SocketChannel(sock)
        except OSError as exc:
            last = exc
            time.sleep(delay)
    raise ChannelClosed(f"could not connect to {host}:{port}: {last}")
