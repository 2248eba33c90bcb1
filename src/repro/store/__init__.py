"""Pluggable summary-count storage (trees → **store** → core layering).

See ``docs/architecture.md`` for where this layer sits.  The package
exposes the :class:`SummaryStore` protocol, its two backends, and a
small registry used by :class:`~repro.core.lattice.LatticeSummary` and
the CLI's ``--store {dict,array}`` flag.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..trees.canonical import Canon
from .array_store import ArrayStore
from .base import SummaryStore
from .dict_store import DictStore
from .errors import (
    ChecksumMismatch,
    MergeError,
    StoreError,
    StorePayloadError,
    TruncatedPayload,
    UnknownBackendError,
    UnsupportedVersion,
)

__all__ = [
    "SummaryStore",
    "DictStore",
    "ArrayStore",
    "STORE_BACKENDS",
    "make_store",
    "coerce_store",
    "StoreError",
    "StorePayloadError",
    "TruncatedPayload",
    "ChecksumMismatch",
    "UnsupportedVersion",
    "UnknownBackendError",
    "MergeError",
]

#: Backend-name -> store class registry (CLI choices mirror the keys).
STORE_BACKENDS: dict[str, type[SummaryStore]] = {
    DictStore.backend: DictStore,
    ArrayStore.backend: ArrayStore,
}


def make_store(backend: str) -> SummaryStore:
    """Instantiate an empty store for ``backend`` (``"dict"``/``"array"``)."""
    try:
        store_cls = STORE_BACKENDS[backend]
    except KeyError:
        raise UnknownBackendError(
            f"unknown summary store backend {backend!r}; "
            f"choose from {sorted(STORE_BACKENDS)}"
        ) from None
    return store_cls()


def coerce_store(
    counts: SummaryStore | Mapping[Canon, int] | Iterable[tuple[Canon, int]],
    backend: str | None = None,
) -> SummaryStore:
    """Normalise counts into a store.

    A :class:`SummaryStore` passes through unchanged when its backend
    matches (or no backend was requested); anything else is streamed,
    in order, into a fresh store of the requested backend (default
    ``"dict"``).
    """
    if isinstance(counts, SummaryStore):
        if backend is None or counts.backend == backend:
            return counts
        target = make_store(backend)
        for key, count in counts.items():
            target.add(key, count)
        return target
    store = make_store(backend if backend is not None else DictStore.backend)
    pairs = counts.items() if isinstance(counts, Mapping) else counts
    for key, count in pairs:
        store.add(key, count)
    return store
