"""Online summary maintenance, error bands, and estimate explanations.

Exercises the three extensions beyond the paper's evaluated scope (all
flagged as future work in its §6):

1. **Streaming maintenance** — keep the lattice exact while new
   records stream into the document, without rebuilding;
2. **Empirical error bands** — turn point estimates into calibrated
   intervals (and read the document's independence-friendliness off the
   band width);
3. **Explanations** — print the decomposition derivation of an estimate.

Run:  python examples/online_maintenance.py
"""

from repro import (
    ErrorProfile,
    LabeledTree,
    RecursiveDecompositionEstimator,
    StreamingSummary,
    TwigQuery,
    count_matches,
    explain,
    generate_nasa,
)


def make_record(seed: int) -> LabeledTree:
    """A fresh dataset record, varying with the seed."""
    authors = [("author", ["lastName", "firstName"])] * (1 + seed % 3)
    return LabeledTree.from_nested(
        ("dataset", ["title", *authors, ("date", ["year", "month"]), "identifier"])
    )


def main() -> None:
    print("initial document ...")
    document = generate_nasa(60, seed=5)
    print(f"  {document.size} nodes")

    print("building the streaming-maintained 3-lattice ...")
    # max_pending=0 compacts after every insert, so each snapshot is exact.
    maintained = StreamingSummary(document, 3, max_pending=0)
    print(f"  {maintained.summary().num_patterns} patterns")

    query = TwigQuery.parse("dataset(author(lastName),date(year))")
    print()
    print(f"tracking query: {query!r}")
    print(f"  {'records appended':>17} {'estimate':>9} {'true':>6}")
    for step in range(6):
        summary = maintained.summary()
        estimator = RecursiveDecompositionEstimator(summary, voting=True)
        estimate = estimator.estimate(query)
        true = count_matches(query.tree, maintained.document)
        print(f"  {maintained.updates:>17} {estimate:9.1f} {true:6d}")
        maintained.insert(make_record(step))

    # 2. Error bands from the calibrated profile.
    print()
    print("calibrating the empirical error profile ...")
    summary = maintained.summary()
    profile = ErrorProfile(summary, coverage=0.9, voting=True)
    print(f"  {profile!r}")
    big_query = TwigQuery.parse(
        "datasets(dataset(title,author(lastName),date(year)))"
    )
    interval = profile.predict(big_query)
    true = count_matches(big_query.tree, maintained.document)
    print(f"  size-{big_query.size} query: estimate {interval.estimate:.1f} "
          f"in [{interval.low:.1f}, {interval.high:.1f}] "
          f"({interval.steps} decomposition steps); true = {true}")

    # 3. Explain where the number came from.
    print()
    print("decomposition trace:")
    trace = explain(summary, big_query)
    print(trace.render())
    print(f"\n{len(trace.lookups())} summary lookups feed this estimate.")


if __name__ == "__main__":
    main()
