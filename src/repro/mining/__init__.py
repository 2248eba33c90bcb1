"""Frequent subtree mining: the level-wise lattice enumeration engine.

One construction path builds every summary: the whole-document
level-wise miner (:func:`mine_lattice`), in one process.
:func:`anchored_counts` runs the
same enumeration restricted to matches rooted at given nodes; streaming
maintenance uses it for the spanning-match delta of an update.  All of
them count through one primitive, the occurrence-map counter of
:mod:`repro.mining.occurrences`.
"""

from .freqt import (
    MiningResult,
    anchored_counts,
    mine_lattice,
    pattern_counts_by_level,
)

__all__ = [
    "MiningResult",
    "mine_lattice",
    "anchored_counts",
    "pattern_counts_by_level",
]
