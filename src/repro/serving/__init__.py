"""Distance-query serving: packed label store, query server, client.

The serving stack answers the paper's payoff workload — ``dist(u, v)``
from precomputed labels — at traffic scale:

* :class:`~repro.serving.store.LabelStore` precomputes and memory-maps a
  corpus of :class:`~repro.labeling.packed.PackedLabeling` files
  (zero-copy across server processes);
* :class:`~repro.serving.server.QueryServer` serves point and batched
  queries over localhost TCP, answering each request in the tick that
  reads it;
* :class:`~repro.serving.server.ServerPool` runs N worker processes over
  one store; :class:`~repro.serving.client.QueryClient` talks to any of
  them.

See ``docs/serving.md`` for the file format, the serve loop and the
when-to-use table.
"""

from repro.serving.client import QueryClient, QueryRejectedError
from repro.serving.server import QueryServer, ServerPool
from repro.serving.store import LabelStore, seeded_corpus

__all__ = [
    "LabelStore",
    "QueryClient",
    "QueryRejectedError",
    "QueryServer",
    "ServerPool",
    "seeded_corpus",
]
