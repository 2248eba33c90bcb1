"""Unit tests for the lattice summary."""

import pytest

from repro import LabeledTree, LatticeSummary, TwigQuery, count_matches
from repro.mining import mine_lattice
from repro.trees.canonical import canon_from_nested


class TestBuild:
    def test_counts_match_exact(self, figure1_doc, figure1_lattice):
        for pattern, count in figure1_lattice.patterns():
            assert count == count_matches(pattern, figure1_doc)

    def test_complete_at_all_levels(self, figure1_lattice):
        for size in range(1, 5):
            assert figure1_lattice.is_complete_at(size)
        assert not figure1_lattice.is_complete_at(5)

    def test_construction_time_recorded(self, figure1_lattice):
        assert figure1_lattice.construction_seconds > 0

    def test_level_too_small_rejected(self):
        with pytest.raises(ValueError):
            LatticeSummary(1, {})

    def test_from_mining_with_caps(self, small_nasa):
        mined = mine_lattice(small_nasa, 4, extend_cap=10)
        summary = LatticeSummary.from_mining(mined)
        # Levels after the first capped frontier are incomplete.
        first_capped = min(mined.capped_levels)
        for size in range(1, first_capped + 1):
            assert summary.is_complete_at(size)
        for size in range(first_capped + 1, 5):
            assert not summary.is_complete_at(size)


class TestLookup:
    def test_get_accepts_all_query_forms(self, figure1_lattice):
        expected = 2
        assert figure1_lattice.get(TwigQuery.parse("laptop(brand,price)")) == expected
        assert (
            figure1_lattice.get(LabeledTree.from_nested(("laptop", ["brand", "price"])))
            == expected
        )
        assert (
            figure1_lattice.get(canon_from_nested(("laptop", ["brand", "price"])))
            == expected
        )

    def test_get_missing_returns_none(self, figure1_lattice):
        assert figure1_lattice.get(LabeledTree("tablet")) is None

    def test_count_zero_at_complete_level(self, figure1_lattice):
        assert figure1_lattice.count(LabeledTree("tablet")) == 0
        assert figure1_lattice.count(LabeledTree.path(["laptops", "brand"])) == 0

    def test_count_raises_on_pruned_level(self, figure1_lattice):
        kept = {
            c: n
            for c, n in figure1_lattice.patterns()
            if c != canon_from_nested(("laptop", ["brand", "price"]))
        }
        pruned = figure1_lattice.replace_counts(kept, complete_sizes=(1, 2))
        with pytest.raises(KeyError):
            pruned.count(canon_from_nested(("laptop", ["brand", "price"])))

    def test_contains(self, figure1_lattice):
        assert LabeledTree("laptop") in figure1_lattice
        assert LabeledTree("tablet") not in figure1_lattice


class TestIntrospection:
    def test_level_sizes_sum_to_num_patterns(self, figure1_lattice):
        assert sum(figure1_lattice.level_sizes().values()) == (
            figure1_lattice.num_patterns
        )

    def test_patterns_of_size(self, figure1_lattice):
        level2 = figure1_lattice.patterns_of_size(2)
        assert all(len(c[1]) >= 0 for c in level2)
        assert canon_from_nested(("laptop", ["brand"])) in level2

    def test_byte_size_grows_with_patterns(self, figure1_lattice):
        smaller = figure1_lattice.replace_counts(
            dict(list(figure1_lattice.patterns())[:5]), complete_sizes=(1,)
        )
        assert smaller.byte_size() < figure1_lattice.byte_size()
        assert figure1_lattice.byte_size() > 0

    def test_repr(self, figure1_lattice):
        text = repr(figure1_lattice)
        assert "level=4" in text


class TestPersistence:
    def test_save_load_roundtrip(self, figure1_lattice, tmp_path):
        path = tmp_path / "summary.tsv"
        figure1_lattice.save(path)
        loaded = LatticeSummary.load(path)
        assert loaded.level == figure1_lattice.level
        assert loaded.complete_sizes == figure1_lattice.complete_sizes
        assert dict(loaded.patterns()) == dict(figure1_lattice.patterns())

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a summary\n")
        with pytest.raises(ValueError):
            LatticeSummary.load(path)

    def test_loaded_byte_size_equals_mined(self, small_nasa_lattice, tmp_path):
        # Loading shares sub-tuples and labels differently from mining;
        # the footprint figure depends on the content alone.
        path = tmp_path / "summary.tsv"
        small_nasa_lattice.save(path)
        loaded = LatticeSummary.load(path)
        assert loaded.byte_size() == small_nasa_lattice.byte_size()

    def test_load_too_deep_fails_typed(self, tmp_path):
        # Two sibling chains deeper than tuple comparison can recurse:
        # the load fails as TreeBuildError, never with a RecursionError.
        from repro import TreeBuildError

        chain = "a(" * 3000 + "{}" + ")" * 3000
        path = tmp_path / "deep.tsv"
        path.write_text(
            "#treelattice v=1 level=3 complete=\n"
            f"1\tr({chain.format('b')},{chain.format('c')})\n"
        )
        try:
            loaded = LatticeSummary.load(path)
        except TreeBuildError:
            return  # this interpreter cannot order the siblings
        assert loaded.num_patterns == 1

    def test_load_skips_blank_lines(self, figure1_lattice, tmp_path):
        path = tmp_path / "summary.tsv"
        figure1_lattice.save(path)
        path.write_text(path.read_text() + "\n\n")
        loaded = LatticeSummary.load(path)
        assert loaded.num_patterns == figure1_lattice.num_patterns


class TestBuildLattice:
    def test_convenience_wrapper(self, figure1_doc):
        from repro import build_lattice

        lattice = build_lattice(figure1_doc, level=3)
        assert lattice.level == 3
        assert lattice.get(LabeledTree.path(["laptop", "brand"])) == 2
