"""The wire format: length-prefixed JSON frames over a stream socket.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON encoding a single object (in the spirit of
TACCJM-style cluster submission: small structured control messages, no
pickling, nothing executable on the wire).  The framing makes message
boundaries explicit, so a reader either gets a whole message or knows
the stream died mid-frame (:class:`ProtocolError`) — a half-written
frame is never silently parsed.

Message vocabulary (all plain dicts with a ``type`` field):

==============  =========================  ==============================
direction       type                       payload
==============  =========================  ==============================
worker -> coord ``hello``                  name, host, cpu_count, version
coord -> worker ``welcome`` / ``reject``   reason (reject only)
worker -> coord ``next``                   (asks for one config; long-poll)
coord -> worker ``run``                    tid, key, attempt, config dict
coord -> worker ``wait``                   (keepalive only: ask again now)
coord -> worker ``shutdown``               (campaign over, disconnect)
worker -> coord ``heartbeat``              tid (still computing)
worker -> coord ``result``                 tid, key, result dict
worker -> coord ``failed``                 tid, key, error string
worker -> coord ``bye``                    (clean disconnect)
==============  =========================  ==============================

The conversation is strictly worker-driven: every coordinator message
is a response to ``hello`` or ``next``; ``heartbeat``/``result``/
``failed``/``bye`` expect no reply.  That keeps both ends free of
send/recv interleaving hazards with one socket and no extra threads.

``next`` is a long-poll.  The coordinator holds the request until it
can answer ``run`` (a ticket became pending — dispatched or requeued)
or ``shutdown`` (it is stopping); a request still parked after
``coordinator.PARK_S`` is answered ``wait``, which carries no delay —
the worker asks again at once — and exists only so that neither end
ever waits on a silent socket for longer than its reply timeout.
Every ``next`` gets exactly one reply.  Both ends set ``TCP_NODELAY``:
a worker's ``result`` is followed at once by its ``next``, and under
Nagle's algorithm the second small frame would wait (~40 ms on Linux)
for the first one's delayed ACK.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any

#: 4-byte unsigned big-endian payload length.
HEADER = struct.Struct("!I")

#: Frames above this are a protocol violation, not a big result — a
#: traced 64-rank result is a few MiB; 64 MiB means a corrupt length.
MAX_FRAME = 64 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The stream violated the framing contract (torn frame, oversized
    length, undecodable payload, or a non-object message)."""


def send_msg(sock: socket.socket, obj: dict[str, Any]) -> None:
    """Write one framed message (blocking, whole frame or exception)."""
    payload = json.dumps(obj, sort_keys=True).encode()
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(MAX_FRAME is {MAX_FRAME})"
        )
    sock.sendall(HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on EOF before the first byte,
    :class:`ProtocolError` on EOF mid-read (a torn frame)."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({got}/{n} bytes read)"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> dict[str, Any] | None:
    """Read one framed message.

    Returns ``None`` on a clean EOF at a frame boundary (the peer hung
    up between messages).  Raises :class:`ProtocolError` for a torn
    frame, an oversized length prefix, undecodable JSON, or a message
    that is not a JSON object.  A socket timeout configured by the
    caller propagates as :class:`TimeoutError`.
    """
    header = _recv_exact(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME ({MAX_FRAME}); "
            "stream is corrupt or not speaking this protocol"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ProtocolError(
            f"connection closed between header and {length}-byte payload"
        )
    try:
        obj = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def parse_endpoint(spec: str) -> tuple[str, int]:
    """``"HOST:PORT"`` -> ``(host, port)`` with validation.

    Accepts a bare ``HOST:PORT`` or the full scheduler spec
    ``distrib:HOST:PORT`` (the CLI and the executor seam share this).
    """
    text = spec.strip()
    head, _, rest = text.partition(":")
    if head.strip().lower() == "distrib":
        text = rest
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"bad distrib endpoint {spec!r}: expected HOST:PORT "
            "(e.g. 127.0.0.1:7713)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad port in distrib endpoint {spec!r}: {port_text!r}"
        ) from None
    if not (0 <= port <= 65535):
        raise ValueError(
            f"port out of range in distrib endpoint {spec!r}: {port}"
        )
    return host.strip(), port
