"""`QueryClient`: a blocking client for :class:`~repro.serving.server.QueryServer`.

One TCP connection, one pickled length-prefixed request frame per call,
one reply frame back.  ``("err", message)`` replies raise
:class:`QueryRejectedError`; transport failures surface as
:class:`~repro.serving.frames.TransportBrokenError`.
"""

from __future__ import annotations

import pickle
import socket as socket_mod
from typing import List, Sequence, Tuple

from repro.serving.frames import (
    TransportBrokenError,
    _recv_frame,
    _send_frame,
)


class QueryRejectedError(RuntimeError):
    """The server answered ``("err", message)`` — an application refusal
    (unknown graph/vertex, malformed request), not a transport failure."""


class QueryClient:
    """Blocking request/reply client for one server address."""

    def __init__(self, address: Tuple[str, int], timeout: float = 10.0) -> None:
        self.address = tuple(address)
        self._sock = socket_mod.create_connection(self.address, timeout=timeout)
        self._sock.settimeout(timeout)

    def _call(self, request):
        _send_frame(
            self._sock, pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
        )
        reply = pickle.loads(_recv_frame(self._sock))
        if not isinstance(reply, tuple) or len(reply) != 2:
            raise TransportBrokenError(f"malformed server reply: {reply!r}")
        status, value = reply
        if status == "ok":
            return value
        raise QueryRejectedError(str(value))

    # ------------------------------------------------------------------ #
    def ping(self) -> str:
        return self._call(("ping",))

    def graphs(self) -> List[str]:
        return self._call(("graphs",))

    def point(self, name: str, u, v) -> float:
        """One distance; coalesced server-side with concurrent points."""
        return self._call(("point", name, u, v))

    def query(self, name: str, us: Sequence, vs: Sequence) -> List[float]:
        """A client-side batch: one frame, one kernel call, one reply."""
        return self._call(("query", name, list(us), list(vs)))

    def server_stats(self) -> dict:
        return self._call(("stats",))

    def shutdown(self) -> str:
        return self._call(("shutdown",))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "QueryClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
