"""The summary-store protocol: pluggable count storage for the lattice.

The paper's §4.2 storage discussion settles on a hash table keyed by
canonical encodings.  :class:`SummaryStore` abstracts that choice so the
:class:`~repro.core.lattice.LatticeSummary` facade can sit on either of
two representations with identical semantics:

* :class:`~repro.store.dict_store.DictStore` — today's
  ``dict[Canon, int]``, insertion-ordered, the default;
* :class:`~repro.store.array_store.ArrayStore` — interned dense ids
  indexing an ``array``-backed count vector, compact and picklable.

Both backends answer ``get``/``__contains__``/``items`` identically —
bit-identical estimates are an acceptance gate, not an aspiration — and
``items()`` iterates in insertion order on both, so two builds that add
the same patterns in the same order compare equal byte for byte.

Stores form a **commutative monoid** under :meth:`SummaryStore.merge`:
counts add, the empty store is the identity, and the operation is pure
(neither operand is touched).  Commutativity and associativity hold on
the count *mapping*; the result's insertion order is deterministic but
argument-sensitive — ``self``'s keys first in ``self``'s order, then
``other``'s new keys in ``other``'s order — which makes both
``merge(a, empty)`` and ``merge(empty, a)`` reproduce ``a`` byte for
byte.  Streaming deltas, :meth:`LatticeSummary.merge
<repro.core.lattice.LatticeSummary.merge>`, and the ``repro merge`` CLI
are all built on this one operation.

Store internals (``_counts`` and friends) are private to this package;
the ``store-internals`` lint rule rejects direct access from anywhere
else in the tree.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Iterable, Iterator, Mapping, TypeVar

from ..trees.canonical import Canon
from .errors import MergeError

__all__ = ["SummaryStore"]

_S = TypeVar("_S", bound="SummaryStore")


class SummaryStore(ABC):
    """Abstract pattern-count storage keyed by canonical encodings.

    Implementations must preserve **insertion order** in :meth:`items`
    (mining feeds patterns in deterministic order and the parallel
    subsystem's bit-identity contract compares that order) and must
    treat ``get`` misses as ``None`` — zero-vs-unknown semantics live in
    the :class:`~repro.core.lattice.LatticeSummary` facade, not here.
    """

    #: Registry name of the backend (``"dict"`` / ``"array"``).
    backend: ClassVar[str] = ""

    @abstractmethod
    def add(self, key: Canon, count: int) -> None:
        """Insert or overwrite the count stored for ``key``."""

    @abstractmethod
    def get(self, key: Canon) -> int | None:
        """Stored count of ``key``, or ``None`` when absent."""

    @abstractmethod
    def __contains__(self, key: Canon) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def items(self) -> Iterator[tuple[Canon, int]]:
        """All ``(canon, count)`` pairs in insertion order."""

    @abstractmethod
    def byte_size(self) -> int:
        """Actual in-memory footprint of the backend, in bytes."""

    @abstractmethod
    def merge(self: _S, other: "SummaryStore") -> _S:
        """Pure monoid combine: a **new** store with counts added.

        Laws every backend upholds (property-tested in
        ``tests/test_store_merge.py``):

        * *commutative* and *associative* on the count mapping;
        * the empty store is the *identity* — ``a.merge(empty)`` and
          ``empty.merge(a)`` both reproduce ``a`` byte for byte
          (payloads included);
        * *pure* — neither operand is mutated (the ``store-merge-purity``
          lint rule machine-checks the implementations).

        Result order: ``self``'s keys in ``self``'s insertion order,
        then ``other``'s unseen keys in ``other``'s order.  Raises
        :class:`~repro.store.errors.MergeError` when the compatibility
        handshake fails (non-store operand or backend mismatch).
        """

    def _merge_handshake(self, other: "SummaryStore") -> None:
        """Shared compatibility check run before any merge work.

        Backends must match exactly: merging never converts
        representations behind the caller's back (use
        :func:`~repro.store.coerce_store` to pick one first), and a
        subclass with different storage parameters must override this
        to extend the handshake.
        """
        if not isinstance(other, SummaryStore):
            raise MergeError(
                f"cannot merge a summary store with {type(other).__name__!r}"
            )
        if other.backend != self.backend or type(other) is not type(self):
            raise MergeError(
                f"cannot merge {self.backend!r} store with "
                f"{other.backend!r} store; convert one side with "
                "coerce_store(...) first"
            )

    @classmethod
    def from_counts(
        cls: type[_S],
        counts: Mapping[Canon, int] | Iterable[tuple[Canon, int]],
    ) -> _S:
        """Build a store of this backend from ``(canon, count)`` pairs."""
        store = cls()
        pairs = counts.items() if isinstance(counts, Mapping) else counts
        for key, count in pairs:
            store.add(key, count)
        return store

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(patterns={len(self)}, "
            f"bytes={self.byte_size()})"
        )
