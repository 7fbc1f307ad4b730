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

import math
import socket
import struct
import time
import zlib
from dataclasses import dataclass, fields

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


Message = Hello | ScalerStats | GlobalScaler | GlobalModel | ClientUpdate | RoundAck | Shutdown


def quantize32(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The float32 round-trip the transport applies to every tensor."""
    return {k: v.astype(np.float32).astype(np.float64) for k, v in params.items()}


# --- payload schema -------------------------------------------------------

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

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _scalar(fmt: str):
    return (lambda v: struct.pack(fmt, v)), (lambda r: r.unpack(fmt)[0])


def _pack_str(s: str) -> bytes:
    raw = s.encode()
    return struct.pack("<H", len(raw)) + raw


def _read_str(r: _Reader) -> str:
    raw = r.take(r.unpack("<H")[0])
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"string is not UTF-8: {exc}") from exc


def _pack_vec(v: np.ndarray) -> bytes:
    data = np.ascontiguousarray(v, dtype="<f4")
    return (struct.pack(f"<BI{data.ndim}I", data.ndim, data.size, *data.shape)
            + data.tobytes())


def _read_vec(r: _Reader) -> np.ndarray:
    ndim, size = r.unpack("<BI")
    shape = r.unpack(f"<{ndim}I")
    # numpy 1.x holds at most 32 dims; the model's tensors have at most 2
    if ndim > 32 or math.prod(shape) != size:
        raise ProtocolError(f"tensor dims {shape} do not hold {size} values")
    return np.frombuffer(r.take(4 * size), dtype="<f4").reshape(shape) \
        .astype(np.float64)


def _pack_tensors(params: dict[str, np.ndarray]) -> bytes:
    return struct.pack("<H", len(params)) + b"".join(
        _pack_str(name) + _pack_vec(arr) for name, arr in params.items())


def _read_tensors(r: _Reader) -> dict[str, np.ndarray]:
    return {_read_str(r): _read_vec(r) for _ in range(r.unpack("<H")[0])}


def _pack_opt_tensors(params: dict[str, np.ndarray] | None) -> bytes:
    return b"\x00" if params is None else b"\x01" + _pack_tensors(params)


def _read_opt_tensors(r: _Reader) -> dict[str, np.ndarray] | None:
    (present,) = r.unpack("<B")
    if present > 1:
        raise ProtocolError(f"optional-field flag {present}")
    return _read_tensors(r) if present else None


def _pack_f32s(values: tuple[float, ...]) -> bytes:
    return struct.pack(f"<B{len(values)}f", len(values), *values)


def _read_f32s(r: _Reader) -> tuple[float, ...]:
    return r.unpack(f"<{r.unpack('<B')[0]}f")


# one (pack, read) pair per field kind
_STR = (_pack_str, _read_str)
_I64 = _scalar("<q")
_F32 = _scalar("<f")
_VEC = (_pack_vec, _read_vec)
_TENSORS = (_pack_tensors, _read_tensors)
_OPT_TENSORS = (_pack_opt_tensors, _read_opt_tensors)
_F32S = (_pack_f32s, _read_f32s)

# message class -> (type code, field codecs in dataclass field order): the
# payload is the fields' encodings back to back, with nothing after them
_SCHEMA = {
    Hello: (1, (_STR, _STR)),
    ScalerStats: (2, (_VEC, _VEC)),
    GlobalScaler: (3, (_VEC, _VEC)),
    GlobalModel: (4, (_I64, _TENSORS, _OPT_TENSORS)),
    ClientUpdate: (5, (_STR, _I64, _TENSORS, _I64, _I64, _OPT_TENSORS, _F32S,
                       _F32)),
    RoundAck: (6, (_I64,)),
    Shutdown: (7, ()),
}
_BY_CODE = {code: (cls, codecs) for cls, (code, codecs) in _SCHEMA.items()}


def encode_frame(msg: Message) -> bytes:
    if type(msg) not in _SCHEMA:
        raise ProtocolError(f"unknown message {type(msg).__name__}")
    code, codecs = _SCHEMA[type(msg)]
    payload = b"".join(
        pack(getattr(msg, f.name))
        for (pack, _), f in zip(codecs, fields(msg), strict=True))
    if len(payload) >= MAX_PAYLOAD:
        raise FrameSizeError(f"payload of {len(payload)} bytes exceeds limit")
    return (MAGIC + bytes([VERSION, code]) + struct.pack("<I", len(payload))
            + payload + struct.pack("<I", zlib.crc32(payload)))


HEADER_LEN = len(MAGIC) + 2 + 4


def decode_frame(buf: bytes) -> tuple[Message | None, int]:
    """Parse one frame from the head of ``buf``.

    Returns (message, bytes consumed), or (None, 0) when more bytes are
    needed. Raises ProtocolError / CorruptionError on any malformed input
    and FrameSizeError when the header declares MAX_PAYLOAD bytes or more.
    """
    if len(buf) < HEADER_LEN:
        return None, 0
    if buf[:4] != MAGIC:
        raise ProtocolError(f"bad magic {bytes(buf[:4])!r}")
    if buf[4] != VERSION:
        raise ProtocolError(f"unsupported protocol version {buf[4]}")
    if buf[5] not in _BY_CODE:
        raise ProtocolError(f"unknown message type {buf[5]}")
    cls, codecs = _BY_CODE[buf[5]]
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
    r = _Reader(payload)
    msg = cls(*(read(r) for _, read in codecs))
    if r.pos != payload_len:
        raise ProtocolError(
            f"{payload_len - r.pos} bytes after the last field of {cls.__name__}")
    return msg, total


# --- transports -----------------------------------------------------------

class ChannelClosed(RuntimeError):
    pass


class SocketChannel:
    """Framed messages over a connected TCP socket."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = bytearray()

    def send(self, msg: Message) -> None:
        self._sock.sendall(encode_frame(msg))

    def recv(self, timeout: float | None = 300.0) -> Message:
        self._sock.settimeout(timeout)
        while True:
            msg, consumed = decode_frame(self._buf)
            if msg is not None:
                del self._buf[:consumed]
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
