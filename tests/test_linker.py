"""Alias table and iterative disambiguation."""

import random

import pytest

from pelt.linker import (Anchor, Candidate, Document, Page, PageGraph,
                         build_alias_table, link_document_rows, link_iterate,
                         load_page_graph, normalize_alias)


def toy_graph_path():
    import importlib.resources as res
    return str(res.files("pelt").joinpath("data/toy_graph.txt"))


@pytest.fixture(scope="module")
def toy():
    return load_page_graph(toy_graph_path())


def mini_graph():
    pages = {
        "A": Page("A", "Alpha Station", frozenset({"alpha station", "alpha"})),
        "B": Page("B", "Beta Dome", frozenset({"beta dome", "b"})),
        "C": Page("C", "Gamma Ridge", frozenset({"gamma ridge", "b"})),
        "D": Page("D", "Delta Flats", frozenset({"delta flats", "delta"})),
    }
    edges = [("A", "B", "hyperlink"), ("B", "D", "relation"), ("A", "C", "hyperlink")]
    return PageGraph(pages, edges, [])


class TestAliasTable:
    def test_title_only_page(self):
        table = build_alias_table({"X": Page("X", "Lone Title",
                                             frozenset({"lone title"}))})
        assert table == {"lone title": {"X"}}

    def test_shared_alias_maps_to_both(self):
        table = build_alias_table(mini_graph().pages)
        assert table["b"] == {"B", "C"}

    def test_normalization_collapses_case_and_whitespace(self):
        assert normalize_alias("COVID-19") == normalize_alias("covid-19")
        assert normalize_alias("  beta   DOME ") == "beta dome"


class TestLinkSimple:
    """One round of link_iterate's normalized alias match against the
    anchor's neighbors: a unique, an ambiguous and an unknown name."""

    def test_unique(self):
        doc = Document("d", (Anchor("B", "beta"),), (Candidate(0, " ALPHA "),))
        result = link_iterate(doc, mini_graph())
        assert result.assigned == {Candidate(0, " ALPHA "): ("A", 1)}

    def test_ambiguous(self):
        doc = Document("d", (Anchor("A", "alpha"),), (Candidate(0, "B"),))
        result = link_iterate(doc, mini_graph())
        assert build_alias_table(mini_graph().pages)["b"] <= result.trace[0].expanded
        assert result.assigned == {} and result.unresolved == [Candidate(0, "B")]

    def test_none(self):
        doc = Document("d", (Anchor("A", "alpha"),), (Candidate(0, "omega"),))
        result = link_iterate(doc, mini_graph())
        assert result.assigned == {} and result.unresolved == [Candidate(0, "omega")]


class TestLinkIterate:
    def test_single_round_neighbor_match(self):
        graph = mini_graph()
        doc = Document("d", (Anchor("A", "alpha"),), (Candidate(0, "delta"),))
        # round 1: neighbors of A are {B, C}; "delta" matches nothing yet ->
        # unresolved forever since nothing was assigned
        result = link_iterate(doc, graph)
        assert result.unresolved == [Candidate(0, "delta")]

        doc2 = Document("d2", (Anchor("B", "beta"),), (Candidate(0, "delta"),))
        result2 = link_iterate(doc2, graph)
        assert result2.assigned[Candidate(0, "delta")] == ("D", 1)

    def test_persistently_ambiguous_candidate_unresolved(self):
        graph = mini_graph()
        doc = Document("d", (Anchor("A", "alpha"),), (Candidate(0, "b"),))
        result = link_iterate(doc, graph)
        assert result.unresolved == [Candidate(0, "b")]
        assert result.trace[0].expanded == frozenset({"B", "C"})

    def test_no_anchors_all_unresolved(self):
        graph = mini_graph()
        doc = Document("d", (), (Candidate(0, "alpha"), Candidate(1, "delta")))
        result = link_iterate(doc, graph)
        assert len(result.unresolved) == 2
        assert len(result.trace) == 1

    def test_termination_bound(self, toy):
        for doc in toy.docs:
            result = link_iterate(doc, toy)
            assert len(result.trace) <= len(doc.candidates) + 1

    def test_assignments_never_revoked(self, toy):
        for doc in toy.docs:
            result = link_iterate(doc, toy)
            seen = {}
            for rnd, trace in enumerate(result.trace, 1):
                for cand, pid in trace.assigned.items():
                    assert cand not in seen
                    seen[cand] = (pid, rnd)
            assert seen == result.assigned

    def test_candidate_order_invariance(self, toy):
        rng = random.Random(0)
        for doc in toy.docs:
            base = link_iterate(doc, toy)
            for _ in range(3):
                shuffled = list(doc.candidates)
                rng.shuffle(shuffled)
                other = link_iterate(Document(doc.doc_id, doc.anchors,
                                              tuple(shuffled)), toy)
                assert other.assigned == base.assigned
                assert set(other.unresolved) == set(base.unresolved)

    def test_assigned_pages_reachable_within_round_edges(self, toy):
        for doc in toy.docs:
            result = link_iterate(doc, toy)
            frontier = {a.page_id for a in doc.anchors}
            depth = {p: 0 for p in frontier}
            queue = sorted(frontier)
            while queue:
                nxt = []
                for p in queue:
                    for q in toy.neighbors.get(p, ()):
                        if q not in depth:
                            depth[q] = depth[p] + 1
                            nxt.append(q)
                queue = sorted(nxt)
            for cand, (pid, rnd) in result.assigned.items():
                assert depth.get(pid, 10 ** 9) <= rnd


class TestToyGraphGroundTruth:
    # hand-traced expectations for the bundled 20-page graph
    EXPECTED = {
        "d01": {"mercury": ("p01", 1), "venus": ("p04", 1), "jupiter": ("p09", 1),
                "nasa": None},
        "d02": {"mercury": ("p02", 1), "amalgam": ("p20", 1), "quicksilver": None},
        "d03": {"venus": ("p05", 1), "jupiter": ("p10", 1), "apollo": ("p15", 1),
                "rome": ("p08", 1), "temple": ("p18", 2)},
        "d04": {"apollo": None, "luna": None},
        "d05": {"apollo": ("p14", 1), "moon": ("p16", 1), "orbit": ("p19", 2)},
    }

    def test_twenty_pages_five_ambiguous_aliases(self, toy):
        assert len(toy.pages) == 20
        ambiguous = {alias for alias, pages in build_alias_table(toy.pages).items()
                     if len(pages) > 1}
        assert len(ambiguous) == 5

    def test_hand_trace_matches(self, toy):
        for doc in toy.docs:
            expected = self.EXPECTED[doc.doc_id]
            result = link_iterate(doc, toy)
            got = {c.text: result.assigned.get(c) for c in doc.candidates}
            assert got == expected, doc.doc_id

    def test_tsv_rows(self, toy):
        doc = next(d for d in toy.docs if d.doc_id == "d03")
        rows = link_document_rows(doc, toy)
        assert "d03\ttemple\tp18\t2" in rows
