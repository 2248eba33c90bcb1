"""The lattice summary: TreeLattice's statistics structure (paper §3, §4).

A ``k``-lattice stores the selectivity (exact match count) of occurring
subtree patterns of size ``<= k``, keyed by canonical encoding in a hash
table — the storage layout the paper settled on after finding prefix
trees too pointer-chasing-heavy (§4.2).

Since the store refactor (``docs/architecture.md``) this class is a thin
facade over a pluggable :class:`~repro.store.SummaryStore`: the default
``dict`` backend keeps the historical tuple-keyed hash table, while the
``array`` backend interns patterns to dense ids over packed codes.  The
public surface (``get``/``count``/``__contains__``/``patterns``/
``save``/``load``) is backend-agnostic and estimates are bit-identical
across backends.

Zero semantics matter: a *complete* level contains every occurring
pattern of that size, so a lookup miss at a complete level certifies a
selectivity of exactly 0.  δ-derivable pruning (:mod:`repro.core.pruning`)
removes patterns from levels ≥ 3, making those levels incomplete; the
estimators then fall back to decomposition instead of reporting 0.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .. import obs
from ..mining.freqt import MiningResult, mine_lattice
from ..store import ArrayStore, SummaryStore, coerce_store, make_store
from ..store.errors import MergeError, TruncatedPayload, UnsupportedVersion
from ..trees.canonical import (
    Canon,
    canon_decoder,
    canon_size,
    encode_canon,
)
from ..trees.labeled_tree import LabeledTree
from ..trees.matching import DocumentIndex
from ..trees.twig import TwigQuery

__all__ = ["LatticeSummary", "build_lattice", "FORMAT_VERSION"]

#: On-disk summary format version.  Version 1 files (no ``v=`` header
#: field) predate the store layer and still load; version 2 adds the
#: explicit version field and the binary array-backend container.
FORMAT_VERSION = 2

#: Magic prefix of the binary (array-backend) summary container.
_ARRAY_MAGIC = b"#treelattice-bin\x00"


class LatticeSummary:
    """Occurrence statistics of small twigs, keyed by canonical encoding."""

    __slots__ = ("level", "_store", "complete_sizes", "construction_seconds")

    def __init__(
        self,
        level: int,
        counts: Mapping[Canon, int] | SummaryStore,
        *,
        complete_sizes: Iterable[int] | None = None,
        construction_seconds: float = 0.0,
        store: str | None = None,
    ) -> None:
        if level < 2:
            raise ValueError("a lattice summary needs level >= 2")
        self.level = level
        if isinstance(counts, SummaryStore):
            self._store = coerce_store(counts, store)
        else:
            # Copy-on-construct, like the dict copy this replaces.
            self._store = coerce_store(dict(counts).items(), store or "dict")
        if complete_sizes is None:
            complete_sizes = range(1, level + 1)
        self.complete_sizes = frozenset(complete_sizes)
        self.construction_seconds = construction_seconds

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        document: LabeledTree | DocumentIndex,
        level: int,
        *,
        store: str = "dict",
    ) -> "LatticeSummary":
        """Mine a document and build its complete ``level``-lattice.

        ``store`` picks the count backend (``"dict"``/``"array"``); the
        resulting summary is bit-identical across backends (see
        ``docs/architecture.md``).
        """
        sink = make_store(store)
        start = time.perf_counter()
        # Mining streams each level straight into the sink, so the array
        # backend interns ids as patterns are discovered instead of
        # materialising a tuple-keyed dict first.
        mined = mine_lattice(document, level, sink=sink)
        elapsed = time.perf_counter() - start
        summary = cls(
            mined.max_size,
            sink,
            complete_sizes=cls._complete_sizes_of(mined),
            construction_seconds=elapsed,
        )
        if obs.enabled:
            obs.registry.timer(
                "lattice_build_seconds", "Full summary construction wall time."
            ).observe(elapsed)
            obs.registry.gauge(
                "summary_store_bytes",
                "Actual summary footprint per store backend (last build wins).",
                labels=("backend",),
            ).set(summary.byte_size(), backend=summary.backend)
            obs.event(
                "lattice_build",
                level=level,
                patterns=summary.num_patterns,
                backend=summary.backend,
                seconds=round(elapsed, 6),
            )
        return summary

    @classmethod
    def from_mining(
        cls,
        mined: MiningResult,
        construction_seconds: float = 0.0,
        *,
        store: str = "dict",
    ) -> "LatticeSummary":
        """Wrap a :class:`~repro.mining.MiningResult` as a summary."""
        sink = make_store(store)
        for level_patterns in mined.levels.values():
            for key, count in level_patterns.items():
                sink.add(key, count)
        return cls(
            mined.max_size,
            sink,
            complete_sizes=cls._complete_sizes_of(mined),
            construction_seconds=construction_seconds,
        )

    @staticmethod
    def _complete_sizes_of(mined: MiningResult) -> list[int]:
        # A level is complete unless the frontier of some *earlier*
        # level was sampled (a level listed in capped_levels was
        # itself fully enumerated; only its successors are partial).
        return [
            size
            for size in mined.levels
            if all(s >= size for s in mined.capped_levels)
        ]

    # ------------------------------------------------------------------
    # Store access
    # ------------------------------------------------------------------

    @property
    def store(self) -> SummaryStore:
        """The count store behind this summary (treat as read-only)."""
        return self._store

    @property
    def backend(self) -> str:
        """Name of the store backend (``"dict"`` / ``"array"``)."""
        return self._store.backend

    def to_store(self, backend: str) -> "LatticeSummary":
        """This summary's contents re-housed on another store backend."""
        if backend == self._store.backend:
            return self
        return LatticeSummary(
            self.level,
            coerce_store(self._store, backend),
            complete_sizes=self.complete_sizes,
            construction_seconds=self.construction_seconds,
        )

    def merge(self, other: "LatticeSummary") -> "LatticeSummary":
        """Combine two summaries of the same level: counts add.

        The corpus-level monoid behind ``repro merge``: merging the
        summaries of two documents yields the summary of their union
        (each pattern's selectivity is a sum over documents).  Both
        summaries must be built at the same lattice level —
        :class:`~repro.store.MergeError` otherwise — and ``other`` is
        converted to this summary's backend first, so the underlying
        store handshake always sees matching representations.  A level
        only stays *complete* when it is complete on both sides;
        construction times add.
        """
        if not isinstance(other, LatticeSummary):
            raise MergeError(
                f"cannot merge a summary with {type(other).__name__!r}"
            )
        if other.level != self.level:
            raise MergeError(
                f"cannot merge a level-{self.level} summary with a "
                f"level-{other.level} summary; rebuild one side first"
            )
        merged = self._store.merge(other.to_store(self.backend)._store)
        return LatticeSummary(
            self.level,
            merged,
            complete_sizes=set(self.complete_sizes) & set(other.complete_sizes),
            construction_seconds=(
                self.construction_seconds + other.construction_seconds
            ),
        )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, pattern: Canon | LabeledTree | TwigQuery) -> int | None:
        """Stored count of ``pattern``, or ``None`` when not stored.

        ``None`` means "not in the table"; whether that certifies a zero
        depends on :meth:`is_complete_at` for the pattern's size.
        """
        key = self._to_canon(pattern)
        got = self._store.get(key)
        if obs.enabled:
            obs.registry.counter(
                "lattice_gets_total",
                "Raw hash-table probes against the summary.",
                labels=("stored",),
            ).inc(stored="yes" if got is not None else "no")
        return got

    def count(self, pattern: Canon | LabeledTree | TwigQuery) -> int:
        """Count of ``pattern``; a miss at a complete level is 0.

        Raises :class:`KeyError` when the pattern is absent from an
        incomplete level, because the summary genuinely does not know its
        count — estimators must decompose instead.
        """
        key = self._to_canon(pattern)
        got = self._store.get(key)
        if got is not None:
            return got
        if self.is_complete_at(canon_size(key)):
            return 0
        raise KeyError(
            f"pattern {encode_canon(key)} pruned from an incomplete level"
        )

    def __contains__(self, pattern: Canon | LabeledTree | TwigQuery) -> bool:
        return self._to_canon(pattern) in self._store

    def is_complete_at(self, size: int) -> bool:
        """True when the summary stores *every* occurring pattern of ``size``."""
        return size in self.complete_sizes

    @staticmethod
    def _to_canon(pattern: Canon | LabeledTree | TwigQuery) -> Canon:
        if isinstance(pattern, TwigQuery):
            return pattern.canonical()
        if isinstance(pattern, LabeledTree):
            from ..trees.canonical import canon

            return canon(pattern)
        return pattern

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_patterns(self) -> int:
        return len(self._store)

    def patterns(self) -> Iterator[tuple[Canon, int]]:
        """All stored ``(canon, count)`` pairs, in insertion order."""
        return iter(self._store.items())

    def patterns_of_size(self, size: int) -> dict[Canon, int]:
        return {
            c: n for c, n in self._store.items() if canon_size(c) == size
        }

    def level_sizes(self) -> dict[int, int]:
        """``size -> number of stored patterns`` histogram."""
        hist: dict[int, int] = {}
        for c, _ in self._store.items():
            s = canon_size(c)
            hist[s] = hist.get(s, 0) + 1
        return dict(sorted(hist.items()))

    def byte_size(self) -> int:
        """Actual in-memory footprint of the backing store, in bytes.

        Backend-dependent by design: the ``dict`` backend pays Python
        tuple/str overhead per pattern, the ``array`` backend packed
        codes plus an 8-byte count slot.  This replaces the old flat
        "encoded key + 8 bytes" heuristic so that byte budgets and the
        paper's "memory utilization" comparisons reflect reality.
        """
        return self._store.byte_size()

    def replace_counts(
        self, counts: Mapping[Canon, int], complete_sizes: Iterable[int]
    ) -> "LatticeSummary":
        """Derive a new summary (same level, same backend, new contents)."""
        return LatticeSummary(
            self.level,
            counts,
            complete_sizes=complete_sizes,
            construction_seconds=self.construction_seconds,
            store=self._store.backend,
        )

    def __repr__(self) -> str:
        return (
            f"LatticeSummary(level={self.level}, patterns={self.num_patterns}, "
            f"backend={self.backend!r}, bytes={self.byte_size()})"
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the summary.

        The ``dict`` backend writes the line-oriented text dump (header,
        then ``count\\tkey``); the ``array`` backend writes a compact
        binary container embedding the intern tables.  Both formats
        carry an explicit format-version field and round-trip
        ``complete_sizes``, so δ-pruned summaries survive the trip.
        """
        if isinstance(self._store, ArrayStore):
            payload = {
                "version": FORMAT_VERSION,
                "level": self.level,
                "complete": sorted(self.complete_sizes),
                "store": self._store.to_payload(),
            }
            Path(path).write_bytes(
                _ARRAY_MAGIC + pickle.dumps(payload, protocol=4)
            )
            return
        complete = ",".join(map(str, sorted(self.complete_sizes)))
        lines = [
            f"#treelattice v={FORMAT_VERSION} level={self.level} "
            f"complete={complete}"
        ]
        # Each key is encoded once; distinct keys encode distinctly, so
        # sorting the pairs never compares two counts.
        for encoded, count in sorted(
            (encode_canon(c), count) for c, count in self._store.items()
        ):
            lines.append(f"{count}\t{encoded}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "LatticeSummary":
        """Read a summary produced by :meth:`save` (either container)."""
        raw = Path(path).read_bytes()
        if raw.startswith(_ARRAY_MAGIC):
            return cls._load_binary(path, raw[len(_ARRAY_MAGIC):])
        try:
            text = raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise TruncatedPayload(
                f"{path}: not a TreeLattice summary file"
            ) from exc
        if not text or not text[0].startswith("#treelattice"):
            raise TruncatedPayload(f"{path}: not a TreeLattice summary file")
        header = dict(
            item.split("=", 1) for item in text[0].split()[1:] if "=" in item
        )
        version = int(header.get("v", 1))
        if version > FORMAT_VERSION:
            raise UnsupportedVersion(
                f"{path}: summary format version {version} is newer than "
                f"this build supports (reads <= {FORMAT_VERSION})"
            )
        level = int(header["level"])
        complete = [int(s) for s in header.get("complete", "").split(",") if s]
        decode = canon_decoder()
        counts: dict[Canon, int] = {}
        for line in text[1:]:
            if not line.strip():
                continue
            count_str, key = line.split("\t", 1)
            counts[decode(key)] = int(count_str)
        return cls(level, counts, complete_sizes=complete)

    @classmethod
    def _load_binary(cls, path: str | Path, body: bytes) -> "LatticeSummary":
        try:
            payload = pickle.loads(body)
        except Exception as exc:  # pickle raises a zoo of error types
            raise TruncatedPayload(
                f"{path}: corrupt binary summary container: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise TruncatedPayload(
                f"{path}: binary summary container holds "
                f"{type(payload).__name__}, not a payload mapping"
            )
        version = payload.get("version")
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(
                f"{path}: unsupported summary format version {version!r} "
                f"(this build reads version {FORMAT_VERSION})"
            )
        try:
            store_payload = payload["store"]
            level = int(payload["level"])
            complete = [int(s) for s in payload["complete"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise TruncatedPayload(
                f"{path}: binary summary container is incomplete: {exc}"
            ) from exc
        store = ArrayStore.from_payload(store_payload)
        return cls(level, store, complete_sizes=complete)


def build_lattice(
    document: LabeledTree | DocumentIndex,
    level: int = 4,
    *,
    store: str = "dict",
) -> LatticeSummary:
    """Convenience wrapper: mine ``document`` into a ``level``-lattice."""
    return LatticeSummary.build(document, level, store=store)
