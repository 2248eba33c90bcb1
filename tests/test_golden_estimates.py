"""Golden estimates: every estimator's output pinned bit for bit.

The table ``golden_estimates.json`` holds, for 40 seeded twigs of 4-7
nodes over xmark ``-n 20 --seed 1`` summarised at k = 3, the plain,
voting and fix-sized estimates (and the Markov estimate of each path
twig) as ``float.hex`` strings.  Each is checked per query on one
estimator and as one ``estimate_batch`` on a fresh estimator, so a
change to the decomposition, the memo, the plan compiler or the miner
that moves any value by one ulp fails here.

Mixed batches (a third of the twigs compiled one by one, then the
whole set batched forwards and backwards) must return the same fresh
per-query values.

The table was written by the code it pins.  Regenerate it only for a
change that is meant to move estimates::

    PYTHONPATH=src python tests/test_golden_estimates.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import (
    DocumentIndex,
    FixedDecompositionEstimator,
    LatticeSummary,
    MarkovPathEstimator,
    RecursiveDecompositionEstimator,
    generate_dataset,
    positive_workloads,
)
from repro.trees.canonical import canon_children, decode_canon, encode_canon

TABLE = Path(__file__).with_name("golden_estimates.json")

ESTIMATORS = {
    "recursive": lambda lattice: RecursiveDecompositionEstimator(lattice),
    "voting": lambda lattice: RecursiveDecompositionEstimator(lattice, voting=True),
    "fixed": lambda lattice: FixedDecompositionEstimator(lattice),
}


def _is_path(key) -> bool:
    while canon_children(key):
        if len(canon_children(key)) > 1:
            return False
        key = canon_children(key)[0]
    return True


def _setup():
    index = DocumentIndex(generate_dataset("xmark", 20, seed=1))
    lattice = LatticeSummary.build(index, 3)
    workloads = positive_workloads(index, range(4, 8), per_level=10, seed=1)
    twigs = [query for size in sorted(workloads) for query in workloads[size].queries]
    return lattice, twigs


def _compute_table(lattice, twigs) -> list[dict[str, str | None]]:
    markov = MarkovPathEstimator(lattice)
    per_name = {
        name: make(lattice) for name, make in ESTIMATORS.items()
    }
    rows = []
    for query in twigs:
        key = query.canonical()
        row: dict[str, str | None] = {"pattern": encode_canon(key)}
        for name, estimator in per_name.items():
            row[name] = estimator.estimate(key).hex()
        row["markov"] = markov.estimate(key).hex() if _is_path(key) else None
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def golden():
    lattice, twigs = _setup()
    return lattice, twigs, json.loads(TABLE.read_text(encoding="utf-8"))


def test_twigs_are_the_pinned_ones(golden):
    _lattice, twigs, table = golden
    assert [encode_canon(q.canonical()) for q in twigs] == [
        row["pattern"] for row in table
    ]


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_per_query_estimates_are_bit_identical(golden, name):
    lattice, _twigs, table = golden
    estimator = ESTIMATORS[name](lattice)
    got = [estimator.estimate(decode_canon(row["pattern"])).hex() for row in table]
    assert got == [row[name] for row in table]


@pytest.mark.parametrize("name", sorted(ESTIMATORS))
def test_batch_estimates_are_bit_identical(golden, name):
    lattice, _twigs, table = golden
    keys = [decode_canon(row["pattern"]) for row in table]
    got = [value.hex() for value in ESTIMATORS[name](lattice).estimate_batch(keys)]
    assert got == [row[name] for row in table]


@pytest.mark.parametrize("voting", [False, True])
@pytest.mark.parametrize("shared_cache", [False, True])
@pytest.mark.parametrize("backend", [None, "auto"])
def test_mixed_batches_return_fresh_per_query_values(
    golden, voting, shared_cache, backend
):
    # Shapes compiled before a batch replay without feeding its memo;
    # the batch's new shapes recompute what they share with them.
    lattice, _twigs, table = golden
    name = "voting" if voting else "recursive"
    keys = [decode_canon(row["pattern"]) for row in table]
    fresh = {key: row[name] for key, row in zip(keys, table)}
    estimator = RecursiveDecompositionEstimator(
        lattice, voting=voting, shared_cache=shared_cache
    )
    assert [estimator.estimate(key).hex() for key in keys[::3]] == [
        fresh[key] for key in keys[::3]
    ]
    for batch in (keys, keys[::-1]):
        got = estimator.estimate_batch(batch, backend=backend)
        assert [value.hex() for value in got] == [fresh[key] for key in batch]


def test_markov_path_estimates_are_bit_identical(golden):
    lattice, _twigs, table = golden
    paths = [row for row in table if row["markov"] is not None]
    assert paths
    estimator = MarkovPathEstimator(lattice)
    got = [estimator.estimate(decode_canon(row["pattern"])).hex() for row in paths]
    assert got == [row["markov"] for row in paths]


if __name__ == "__main__":
    TABLE.write_text(
        json.dumps(_compute_table(*_setup()), indent=1) + "\n", encoding="utf-8"
    )
