"""Length-prefixed frames: the serving stack's wire format.

A frame is a ``!I`` (big-endian ``uint32``) byte count followed by that
many payload bytes; :class:`~repro.serving.server.QueryServer` and
:class:`~repro.serving.client.QueryClient` put one pickled tuple in each.
Connection failures surface as :class:`TransportBrokenError`, and a
listener that cannot be set up at all as :class:`TransportSetupError`.
"""

from __future__ import annotations

import socket as socket_mod
import struct


class TransportBrokenError(RuntimeError):
    """A transport connection failed mid-run (peer death, timeout, EOF)."""


class TransportSetupError(RuntimeError):
    """The transport could not be set up at all (e.g. an unbindable listener)."""


_LEN = struct.Struct("!I")


def _send_frame(sock, payload: bytes) -> int:
    """Send one ``!I``-length-prefixed frame; returns the bytes on the wire."""
    try:
        sock.sendall(_LEN.pack(len(payload)) + payload)
    except (OSError, ValueError) as exc:
        raise TransportBrokenError(
            f"transport connection lost while sending: {exc}"
        ) from None
    return _LEN.size + len(payload)


def _recv_exact(sock, nbytes: int) -> bytes:
    buf = bytearray()
    while len(buf) < nbytes:
        try:
            chunk = sock.recv(nbytes - len(buf))
        except socket_mod.timeout:
            raise TransportBrokenError(
                "timed out waiting for a transport frame"
            ) from None
        except OSError as exc:
            raise TransportBrokenError(
                f"transport connection lost: {exc}"
            ) from None
        if not chunk:
            raise TransportBrokenError("transport connection closed mid-stream")
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock) -> bytes:
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    return _recv_exact(sock, length)
