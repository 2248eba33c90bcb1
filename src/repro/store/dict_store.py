"""Hash-table store backend: ``dict[Canon, int]`` (the paper's §4.2 pick).

This is the representation the project has always used, factored behind
the :class:`~repro.store.base.SummaryStore` protocol.  It stays the
default because it has zero translation cost on lookups — the canon
tuple *is* the key — at the price of Python tuple/str object overhead
per stored pattern, which :meth:`DictStore.byte_size` now reports
honestly instead of assuming an 8-byte-per-count C layout.
"""

from __future__ import annotations

import sys
from typing import Iterator

from .. import obs
from ..resilience import corrupt_bytes
from ..trees.canonical import Canon, canon_decoder, encode_canon
from .base import SummaryStore
from .errors import TruncatedPayload, UnsupportedVersion
from .integrity import payload_checksum, verify_checksum

__all__ = ["DictStore"]

#: Version stamp embedded in persisted payloads.  The dict backend
#: gained payloads in the checksummed era, so 2 is its first version
#: (matching the array backend's numbering).
PAYLOAD_VERSION = 2

#: Fault-injection site for the encoded entry stream.
_CORRUPTION_SITE = "store.dict_payload"


def _deep_canon_bytes(key: Canon, seen: set[object]) -> int:
    """Footprint of one canon tuple, skipping labels already counted.

    Canon nodes are nested tuples over label strings.  Every tuple of
    the key is counted, even one it shares with another key: mined and
    loaded keys share sub-tuples to different extents, and the figure
    must not depend on how a summary was made.  Label strings recur
    across the patterns of one document, so each distinct label (and
    the empty child tuple) is counted once.
    """
    total = 0
    stack: list[object] = [key]
    while stack:
        obj = stack.pop()
        if isinstance(obj, tuple) and obj:
            total += sys.getsizeof(obj)
            stack.extend(obj)
        elif obj not in seen:
            seen.add(obj)
            total += sys.getsizeof(obj)
    return total


class DictStore(SummaryStore):
    """Insertion-ordered hash table over canonical tuple keys."""

    backend = "dict"

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: dict[Canon, int] = {}

    def add(self, key: Canon, count: int) -> None:
        self._counts[key] = count

    def get(self, key: Canon) -> int | None:
        found = self._counts.get(key)
        if obs.enabled:
            obs.registry.counter(
                "store_lookups_total",
                "Store-backend key probes by backend and outcome.",
                labels=("backend", "outcome"),
            ).inc(backend="dict", outcome="hit" if found is not None else "miss")
        return found

    def __contains__(self, key: Canon) -> bool:
        return key in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def items(self) -> Iterator[tuple[Canon, int]]:
        return iter(self._counts.items())

    def byte_size(self) -> int:
        """Footprint: the table, every key's tuples, labels and counts."""
        seen: set[object] = set()
        total = sys.getsizeof(self._counts)
        for key, count in self._counts.items():
            total += _deep_canon_bytes(key, seen)
            total += sys.getsizeof(count)
        return total

    def merge(self, other: SummaryStore) -> "DictStore":
        """Monoid combine: counts add, neither operand is touched.

        ``self``'s keys keep their insertion order; keys only ``other``
        holds follow in ``other``'s order, so merging with the empty
        store on either side reproduces this store byte for byte.
        """
        self._merge_handshake(other)
        assert isinstance(other, DictStore)
        merged = DictStore()
        counts = dict(self._counts)
        for key, count in other._counts.items():
            counts[key] = counts.get(key, 0) + count
        merged._counts = counts
        if obs.enabled:
            obs.registry.counter(
                "store_merges_total",
                "Monoid store merges by backend.",
                labels=("backend",),
            ).inc(backend="dict")
        return merged

    def __getstate__(self) -> dict[Canon, int]:
        return self._counts

    def __setstate__(self, state: dict[Canon, int]) -> None:
        self._counts = state

    # -- persistence ----------------------------------------------------

    def to_payload(self) -> dict[str, object]:
        """Versioned, checksummed payload (for embedding callers).

        Entries are encoded in insertion order as ``count\\tkey`` lines,
        so a round trip reproduces the store bit-identically — count
        values *and* dict order.
        """
        data = "\n".join(
            f"{count}\t{encode_canon(key)}"
            for key, count in self._counts.items()
        ).encode("utf-8")
        return {
            "payload_version": PAYLOAD_VERSION,
            "data": data,
            "crc32": payload_checksum([data]),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, object]) -> "DictStore":
        """Rebuild a store from :meth:`to_payload` output.

        Raises :class:`~repro.store.errors.UnsupportedVersion`,
        :class:`~repro.store.errors.TruncatedPayload`, or
        :class:`~repro.store.errors.ChecksumMismatch` — never a bare
        ``ValueError`` or a decode crash.
        """
        version = payload.get("payload_version")
        if version != PAYLOAD_VERSION:
            raise UnsupportedVersion(
                f"unsupported DictStore payload version {version!r} "
                f"(this build reads version {PAYLOAD_VERSION})"
            )
        data = payload.get("data")
        if not isinstance(data, bytes):
            raise TruncatedPayload(
                "DictStore payload is missing its 'data' byte string"
            )
        data = corrupt_bytes(_CORRUPTION_SITE, data)
        verify_checksum([data], payload.get("crc32"), "DictStore")
        store = cls()
        if not data:
            return store
        decode = canon_decoder()
        try:
            for line in data.decode("utf-8").split("\n"):
                count_str, key = line.split("\t", 1)
                store.add(decode(key), int(count_str))
        except (ValueError, KeyError, IndexError) as exc:
            raise TruncatedPayload(
                f"DictStore payload entry stream is malformed: {exc}"
            ) from exc
        return store

