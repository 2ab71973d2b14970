"""Messages and bandwidth accounting for the CONGEST simulator.

A CONGEST message carries O(log n) bits.  We model this as a small tuple of
*words*, where a word is an integer/float of magnitude polynomial in n (and
therefore representable in O(log n) bits).  The simulator enforces a
configurable per-message word budget — protocols that try to stuff large
payloads into one round raise :class:`~repro.errors.BandwidthExceededError`.

Two payload representations coexist:

* **Free-form payloads** — arbitrary small Python objects, sized by the
  recursive :func:`payload_size_words`.  This is what hand-written
  :class:`~repro.congest.node.NodeAlgorithm` protocols use.
* **Packed payloads** — a :class:`PayloadSchema` declares a fixed-shape typed
  payload (an optional constant tag plus named scalar fields, e.g.
  Bellman-Ford's ``("dist", float64)``).  A whole round's traffic is then a
  set of preallocated numpy arrays keyed by dense arc/edge id, and
  ``payload_size_words`` of every message is the O(1) constant
  :attr:`PayloadSchema.size_words` instead of a per-message recursive walk.
  The vectorized engine tier (:mod:`repro.congest.kernels`) is built on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

NodeId = Hashable

#: Default number of O(log n)-bit words allowed per message.  The CONGEST
#: model allows messages of O(log n) bits; a handful of words (ids, distances,
#: small tags) is the standard interpretation used by the algorithms here.
DEFAULT_WORDS_PER_MESSAGE = 8


#: Item types (exact, not subclasses) that :func:`payload_size_words` counts
#: as one word inside a container without a call per item.
_FLAT_ITEM_TYPES = frozenset((type(None), bool, int, float))


def _string_words(text: str) -> int:
    # Strings of length ≤ 16 chars (identifiers, tags) count as one word.
    return max(1, (len(text) + 15) // 16)


def payload_size_words(payload: Any) -> int:
    """Return the size of ``payload`` in O(log n)-bit words.

    Scalars (ints, floats, bools, short strings, ``None``) count as one word;
    tuples/lists/dicts count the sum of their elements plus one word of
    framing.  This is intentionally coarse — the goal is to catch protocols
    that cheat by shipping whole subgraphs in a single message, not to model
    an exact wire format.

    Inside a tuple, list, set or frozenset, plain ``None``, ``bool``,
    ``int``, ``float`` and ``str`` items (Bellman-Ford's ``("dist", d)``)
    are sized without a recursive call; only the other items (containers,
    subclasses such as numpy's ``float64``, unknown objects) recurse.
    """
    if payload is None or isinstance(payload, (bool, int, float)):
        return 1
    if isinstance(payload, str):
        return _string_words(payload)
    if isinstance(payload, (tuple, list, set, frozenset)):
        words = 1
        for x in payload:
            kind = type(x)
            if kind in _FLAT_ITEM_TYPES:
                words += 1
            elif kind is str:
                words += _string_words(x)
            else:
                words += payload_size_words(x)
        return words
    if isinstance(payload, dict):
        return 1 + sum(
            payload_size_words(k) + payload_size_words(v) for k, v in payload.items()
        )
    # Unknown objects count as a conservative fixed size.
    return 4


@dataclass(frozen=True)
class Message:
    """A single protocol message in flight.

    On the synchronous tiers a message lives for exactly one round and the
    timing fields stay ``None``.  The event-driven asynchronous tier
    (:mod:`repro.congest.scheduler`) stamps ``sent_time`` / ``delivery_time``
    with the virtual times at which the message departed and arrived — the
    delivery-time-aware inbox contract: protocols *may read* the stamps (for
    instrumentation), but must not let their outputs depend on them, since
    outputs are required to be schedule-invariant (see
    :class:`~repro.congest.node.NodeAlgorithm`).
    """

    sender: NodeId
    receiver: NodeId
    payload: Any
    sent_time: Optional[int] = None
    delivery_time: Optional[int] = None

    def size_words(self) -> int:
        return payload_size_words(self.payload)


class PayloadSchema:
    """Declaration of a fixed-shape typed payload for whole-round packing.

    A schema names the scalar fields a protocol ships per message (plus an
    optional constant string tag, the common ``("tag", value, ...)`` idiom of
    the scalar protocols).  Packed payloads round-trip to the exact tuples the
    scalar protocol sends — ``pack(3.0)`` for a schema with tag ``"dist"``
    yields ``("dist", 3.0)`` — so the two representations are bit-for-bit
    interchangeable in the accounting.

    Parameters
    ----------
    fields:
        ``(name, numpy dtype string)`` pairs, e.g. ``(("dist", "f8"),)``.
        One preallocated array per field holds a round's traffic in the
        vectorized tier.
    tag:
        Optional constant leading tag included in every unpacked tuple.

    Attributes
    ----------
    size_words:
        The O(1) size of every message of this schema, computed once from a
        zero-valued sample via :func:`payload_size_words` so packed and
        free-form accounting can never diverge.
    """

    __slots__ = ("fields", "tag", "size_words", "_zero")

    def __init__(self, fields: Tuple[Tuple[str, str], ...], tag: Optional[str] = None) -> None:
        self.fields: Tuple[Tuple[str, str], ...] = tuple((str(n), str(d)) for n, d in fields)
        self.tag = tag
        self._zero = tuple(0 for _ in self.fields)
        self.size_words = payload_size_words(self.pack(*self._zero))

    def field_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def pack(self, *values: Any) -> Tuple[Any, ...]:
        """Return the scalar-protocol tuple for one message's field values."""
        if len(values) != len(self.fields):
            raise ValueError(
                f"schema has {len(self.fields)} fields, got {len(values)} values"
            )
        if self.tag is None:
            return tuple(values)
        return (self.tag,) + tuple(values)

    def unpack(self, payload: Any) -> Tuple[Any, ...]:
        """Return the field values of a scalar-protocol payload tuple."""
        if not isinstance(payload, tuple):
            raise ValueError(f"packed payloads are tuples, got {type(payload)!r}")
        body = payload
        if self.tag is not None:
            if not payload or payload[0] != self.tag:
                raise ValueError(f"payload {payload!r} does not carry tag {self.tag!r}")
            body = payload[1:]
        if len(body) != len(self.fields):
            raise ValueError(
                f"payload {payload!r} does not match schema fields {self.field_names()}"
            )
        return tuple(body)

    def alloc(self, num_slots: int) -> Dict[str, Any]:
        """Preallocate one numpy array per field for ``num_slots`` messages.

        This is the round buffer of the vectorized tier: one slot per dense
        CSR arc, reused across rounds (no per-message allocation).
        """
        import numpy as np

        return {name: np.zeros(num_slots, dtype=dtype) for name, dtype in self.fields}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PayloadSchema(tag={self.tag!r}, fields={self.fields!r}, "
            f"size_words={self.size_words})"
        )
