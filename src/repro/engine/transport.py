"""The distributed campaign wire format: length-prefixed JSON frames.

A campaign's coordinator and its workers speak a deliberately tiny
protocol over one TCP connection per worker. Every message is a
*frame*: a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one object. The object's ``"type"`` field
names the frame; everything else is the payload — and the payloads are
the engine's existing :mod:`repro.engine.serialize` encodings
*verbatim* (a ``result`` frame carries exactly the JSON a worker
process would hand the local pool, which is exactly the JSON the
checkpoint journal stores), so the wire introduces no third encoding
that could drift from the journal's.

Frame types, in conversation order::

    hello       worker -> coordinator: wire version + worker label
    context     coordinator -> worker: every kernel's CampaignContext
                (the ``context_to_json`` payloads), installed once
    grant       coordinator -> worker: one chain job to run
    result      worker -> coordinator: the finished job's payload (or
                an ``error`` object when the chain itself raised)
    heartbeat   worker -> coordinator while idle: liveness signal
    bye         either direction: graceful goodbye

The framing is self-delimiting, so the failure modes are crisp: a
length prefix promising more than :data:`MAX_FRAME` bytes, a body that
is not a JSON object, or a connection that ends mid-frame are all
:class:`~repro.errors.TransportError` — the coordinator answers any of
them by dropping that connection, which surfaces the worker's in-flight
jobs as :class:`~repro.errors.WorkerCrashError` and lets the recovery
layer (:mod:`repro.engine.sweep`) re-grant them. A connection that
ends *between* frames is a clean EOF, not an error.

Nothing here depends on the executor: the codec is pure bytes <-> JSON
so the truncation fuzz (``tests/engine/test_wire.py``) can torture
every byte boundary of a frame without sockets.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.engine.serialize import Json
from repro.errors import EngineError, TransportError

#: Version of the frame vocabulary, carried in ``hello``/``context``. A
#: coordinator and worker disagreeing on it must not exchange jobs, so
#: the coordinator refuses such a worker at hello.
WIRE_VERSION = 1

HELLO = "hello"
CONTEXT = "context"
GRANT = "grant"
RESULT = "result"
HEARTBEAT = "heartbeat"
BYE = "bye"

FRAME_TYPES = frozenset({HELLO, CONTEXT, GRANT, RESULT, HEARTBEAT, BYE})

#: Fields every frame of a type must carry, beyond ``type`` itself.
_REQUIRED: dict[str, tuple[str, ...]] = {
    HELLO: ("wire", "worker"),
    CONTEXT: ("wire", "contexts"),
    GRANT: ("kernel", "job"),
    RESULT: ("kernel",),       # plus exactly one of payload / error
    HEARTBEAT: (),
    BYE: (),
}

_PREFIX = struct.Struct("!I")

#: Upper bound on one frame's body. Contexts carry whole testcase
#: suites, so the bound is generous — its job is to reject a garbage
#: length prefix (four random bytes read as up to 4 GiB) immediately
#: instead of waiting forever for bytes that will never come.
MAX_FRAME = 64 * 1024 * 1024


def frame_problem(frame: object) -> str | None:
    """Why a decoded frame is structurally unusable, or None if fine.

    The receiving side's gate, symmetric with
    :func:`repro.engine.jobs.payload_problem`: a frame that fails here
    is protocol corruption and costs the sender its connection.
    """
    if not isinstance(frame, dict):
        return f"frame is {type(frame).__name__}, not an object"
    kind = frame.get("type")
    if kind not in FRAME_TYPES:
        return f"unknown frame type {kind!r}"
    missing = [name for name in _REQUIRED[kind] if name not in frame]
    if missing:
        return f"{kind} frame missing fields: {', '.join(missing)}"
    if kind == RESULT and ("payload" in frame) == ("error" in frame):
        return "result frame needs exactly one of payload/error"
    return None


def encode_frame(frame: Json) -> bytes:
    """One frame as wire bytes (length prefix + UTF-8 JSON body)."""
    problem = frame_problem(frame)
    if problem is not None:
        raise TransportError(f"refusing to send corrupt frame: "
                             f"{problem}")
    body = json.dumps(frame, sort_keys=True).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise TransportError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME}-byte frame limit")
    return _PREFIX.pack(len(body)) + body


def decode_frame(data: bytes) -> Json:
    """Decode exactly one whole frame (the codec's test seam)."""
    buffer = FrameBuffer()
    buffer.feed(data)
    frames = list(buffer.frames())
    if len(frames) != 1 or buffer.pending:
        raise TransportError(
            f"expected exactly one whole frame, got {len(frames)} "
            f"with {buffer.pending} bytes left over")
    return frames[0]


class FrameBuffer:
    """Reassembles frames from a stream of arbitrary byte chunks.

    The coordinator feeds every chunk a worker socket yields into one
    of these and drains whole frames out; a frame split across reads
    simply waits for its missing bytes. Corruption — an oversized
    length prefix, a non-JSON body, a structurally invalid frame — is
    raised at the first byte that proves it.
    """

    def __init__(self) -> None:
        self._data = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet drained as whole frames."""
        return len(self._data)

    def feed(self, chunk: bytes) -> None:
        self._data.extend(chunk)

    def frames(self):
        """Yield every whole frame currently buffered."""
        while len(self._data) >= _PREFIX.size:
            (length,) = _PREFIX.unpack_from(self._data)
            if length > MAX_FRAME:
                raise TransportError(
                    f"frame length prefix {length} exceeds the "
                    f"{MAX_FRAME}-byte frame limit")
            if len(self._data) < _PREFIX.size + length:
                return
            body = bytes(self._data[_PREFIX.size:_PREFIX.size + length])
            del self._data[:_PREFIX.size + length]
            try:
                frame = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise TransportError(
                    "frame body is not valid JSON") from None
            problem = frame_problem(frame)
            if problem is not None:
                raise TransportError(f"corrupt frame: {problem}")
            yield frame


def send_frame(sock: socket.socket, frame: Json) -> None:
    """Encode and send one frame; socket errors become transport
    errors so callers see one failure taxonomy."""
    try:
        sock.sendall(encode_frame(frame))
    except OSError as exc:
        raise TransportError(f"connection lost sending "
                             f"{frame.get('type')}: {exc}") from None


def recv_frame(sock: socket.socket,
               timeout: float | None = None) -> Json | None:
    """Receive exactly one frame, blocking (the worker side's read).

    Returns None on a clean EOF at a frame boundary (the coordinator
    hung up between frames); raises :class:`TransportError` when the
    stream ends mid-frame — a torn frame must never be half-trusted.
    Raises :class:`socket.timeout` (``TimeoutError``) when ``timeout``
    elapses before the first byte; the worker loop uses that beat to
    send heartbeats.
    """
    sock.settimeout(timeout)
    prefix = _recv_exactly(sock, _PREFIX.size, allow_eof=True)
    if prefix is None:
        return None
    (length,) = _PREFIX.unpack(prefix)
    if length > MAX_FRAME:
        raise TransportError(
            f"frame length prefix {length} exceeds the "
            f"{MAX_FRAME}-byte frame limit")
    body = _recv_exactly(sock, length, allow_eof=False)
    assert body is not None
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise TransportError("frame body is not valid JSON") from None
    problem = frame_problem(frame)
    if problem is not None:
        raise TransportError(f"corrupt frame: {problem}")
    return frame


def _recv_exactly(sock: socket.socket, count: int,
                  *, allow_eof: bool) -> bytes | None:
    """Read exactly ``count`` bytes, or None on EOF before byte one."""
    data = bytearray()
    while len(data) < count:
        try:
            chunk = sock.recv(count - len(data))
        except socket.timeout:
            if not data:
                raise           # between frames: the heartbeat beat
            raise TransportError(
                "connection timed out mid-frame") from None
        except OSError as exc:
            raise TransportError(f"connection lost: {exc}") from None
        if not chunk:
            if not data and allow_eof:
                return None
            raise TransportError(
                f"connection closed mid-frame ({len(data)} of "
                f"{count} bytes)")
        data.extend(chunk)
    return bytes(data)


def parse_endpoint(text: str) -> tuple[str, int]:
    """Parse the ``HOST:PORT`` grammar of ``--connect``.

    A malformed endpoint is a usage error (exit code 2), not a
    transport failure: nothing was attempted on any network.
    """
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise EngineError(
            f"bad endpoint {text!r} (expected HOST:PORT)")
    try:
        port = int(port_text)
    except ValueError:
        raise EngineError(
            f"bad endpoint port {port_text!r} in {text!r}") from None
    if not 0 <= port <= 65535:
        raise EngineError(f"endpoint port {port} out of range")
    return host, port

