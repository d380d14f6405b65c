import json

import pytest

from chibound.constructions import OMEGA5_VERTEX_NAMES, extremal_omega5
from chibound.corpus import iter_all_graphs
from chibound.graphs import (bits, complete_graph, from_edges, join, mask_of,
                             parse_graph6)
from chibound.patterns import is_class_member
from chibound.structure import (FAILS, HOLDS, VACUOUS, DecompositionError,
                                NotInClassError, all_partitioning_pairs,
                                check_lemma1, choose_partitioning_pair,
                                decompose)


def cycle_graph(k):
    return from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def name_index(name):
    return OMEGA5_VERTEX_NAMES.index(name)


class TestChoosePair:
    def test_complete_graph_has_none(self):
        assert choose_partitioning_pair(complete_graph(5)) is None

    def test_c5(self):
        assert choose_partitioning_pair(cycle_graph(5)) == (0, 2)

    def test_omega5_graph(self):
        # v is non-adjacent exactly to w and the c vertices; w is the
        # lowest-index non-neighbor.
        g = extremal_omega5()
        assert choose_partitioning_pair(g) == (name_index("v"), name_index("w"))

    def test_universal_max_degree_vertex(self):
        # Wheel: the hub has maximum degree but no non-neighbor, so no
        # partitioning pair exists even though the graph is not complete.
        w6 = join(complete_graph(1), cycle_graph(5))
        assert choose_partitioning_pair(w6) is None
        assert all_partitioning_pairs(w6) == []


class TestDecompose:
    def test_c5(self):
        d = decompose(cycle_graph(5), 0, 2)
        assert (d.A, d.B, d.C) == (1 << 1, 1 << 4, 1 << 3)
        assert d.D == 1 << 1 and d.Y == 0 and d.X == 1 << 1 and d.Yp == 0

    def test_omega5_graph(self):
        g = extremal_omega5()
        d = decompose(g, name_index("v"), name_index("w"))
        ys = mask_of(name_index(s) for s in ("y1", "y2", "y3", "y1p", "y2p", "y3p"))
        bs = mask_of(name_index(s) for s in ("b1", "b2", "b3", "b4"))
        cs = mask_of(name_index(s) for s in ("c1", "c2", "c3", "c4"))
        assert (d.A, d.B, d.C) == (ys, bs, cs)
        # The y part is K6 minus the perfect matching yi-yi', so |D| = 3
        # and the lexicographically smallest choice is {y1, y2, y3}.
        assert d.D == mask_of(name_index(s) for s in ("y1", "y2", "y3"))
        assert d.Y == mask_of(name_index(s) for s in ("y1p", "y2p", "y3p"))
        assert d.X == 0 and d.Yp == d.D
        for y, missed in d.missmap:
            assert len(list(bits(missed))) == 1

    def test_join_of_pentagons_set_arithmetic(self):
        # Outside the class, so only the raw set split is checked, against
        # an independent derivation over explicit neighbor sets.
        g = join(cycle_graph(5), cycle_graph(5))
        v, w = 0, 2
        nbr = {u: {x for x in range(10) if g.has_edge(u, x)} for u in range(10)}
        expect_a = nbr[v] & nbr[w]
        expect_b = nbr[v] - nbr[w] - {w}
        expect_c = nbr[w] - nbr[v] - {v}
        d = decompose(g, v, w, check_class=False)
        assert set(bits(d.A)) == expect_a == {1, 5, 6, 7, 8, 9}
        assert set(bits(d.B)) == expect_b == {4}
        assert set(bits(d.C)) == expect_c == {3}
        assert set(bits(d.D)) == {1, 5, 6}

    def test_requires_non_edge(self):
        with pytest.raises(DecompositionError):
            decompose(cycle_graph(5), 0, 1)

    def test_refuses_non_member(self):
        with pytest.raises(NotInClassError):
            decompose(cycle_graph(6), 0, 2)

    def test_deterministic(self):
        g = extremal_omega5()
        assert decompose(g, 0, 1) == decompose(g, 0, 1)

    def test_json_field_names(self):
        d = decompose(cycle_graph(5), 0, 2)
        assert list(d.to_json_dict()) == ["v", "w", "X", "Y", "Yp", "B", "C",
                                          "missmap"]


class TestLemma1:
    def test_omega5_graph(self):
        g = extremal_omega5()
        d = decompose(g, 0, 1)
        report = check_lemma1(g, d)
        status = {name: v.status for name, v in report.properties}
        assert status["1.1"] == HOLDS
        assert status["1.2"] == HOLDS
        assert status["1.3"] == HOLDS
        assert status["1.5"] == HOLDS
        assert status["1.7"] == HOLDS
        assert status["1.6"] == VACUOUS  # |M2| = 3 < 4
        assert not report.has_failure
        assert report.missmap_injective

    def test_c5_vacuous_parts(self):
        g = cycle_graph(5)
        report = check_lemma1(g, decompose(g, 0, 2))
        status = {name: v.status for name, v in report.properties}
        assert status["1.1"] == HOLDS  # all parts singletons
        assert status["1.2"] == VACUOUS  # M2 empty

    def test_mismatched_decomposition(self):
        d = decompose(cycle_graph(5), 0, 2)
        with pytest.raises(DecompositionError):
            check_lemma1(complete_graph(7), d)

    def test_exhaustive_small(self):
        # Every member on up to 6 vertices, every partitioning pair: no
        # property may fail, and the stated reading of 1.4 must agree.
        # On every graph, member or not, the chosen pair is the first of
        # all partitioning pairs.
        for n in range(7):
            for g in iter_all_graphs(n):
                pairs = all_partitioning_pairs(g)
                assert choose_partitioning_pair(g) == (pairs or [None])[0]
                if not is_class_member(g):
                    continue
                for v, w in pairs:
                    report = check_lemma1(g, decompose(g, v, w, check_class=False))
                    assert not report.has_failure
                    v14 = report.verdict("1.4")
                    assert not v14.note.endswith(FAILS)

    # Non-members on which each property fails somewhere; the full report
    # JSON (status, witness, note) is pinned.  Property 1.6 is vacuous on
    # every graph with n <= 7, so its failures need 14 vertices.  On
    # MIXED14 the absent cross pairs are (9, 2) and (9, 11), and the 1.6
    # witness is the last of them.
    DENSE14 = "Mubz^r}V~{zn\\z{n_"
    MIXED14 = "Mu]~^hzVZ~x|uv\\~_"
    FAILING = {
        ("IZuvyra^G", 0, 1): ({
            "1.1": {"status": "fails", "witness": [7, 9],
                    "note": "non-edge inside M4"},
            "1.2": {"status": "fails", "witness": [4, 2, 8],
                    "note": "M2 vertex must miss exactly one M1 vertex"},
            "1.3": {"status": "fails", "witness": [2, 4, 3]},
            "1.4": {"status": "holds", "note": "stated M1+M2 reading: holds"},
            "1.5": {"status": "holds"},
            "1.6": {"status": "vacuous"},
            "1.7": {"status": "fails", "witness": [5, 3, 9, 4]},
        }, True),
        (DENSE14, 0, 6): ({
            "1.1": {"status": "fails", "witness": [2, 4],
                    "note": "non-edge inside M2"},
            "1.2": {"status": "holds"},
            "1.3": {"status": "fails", "witness": [1, 2, 7]},
            "1.4": {"status": "fails", "witness": [3, 7],
                    "note": "stated M1+M2 reading: fails"},
            "1.5": {"status": "fails", "witness": [7, 9]},
            "1.6": {"status": "vacuous"},
            "1.7": {"status": "fails", "witness": [7, 9, 12, 5]},
        }, False),
        (DENSE14, 6, 11): ({
            "1.1": {"status": "fails", "witness": [4, 12],
                    "note": "non-edge inside M2"},
            "1.2": {"status": "holds"},
            "1.3": {"status": "fails", "witness": [1, 4, 0]},
            "1.4": {"status": "holds", "note": "stated M1+M2 reading: holds"},
            "1.5": {"status": "fails", "witness": [2, 7]},
            "1.6": {"status": "fails", "witness": [2, 3],
                    "note": "mixed cross adjacency"},
            "1.7": {"status": "fails", "witness": [2, 0, 7, 1]},
        }, True),
        (MIXED14, 3, 6): ({
            "1.1": {"status": "fails", "witness": [0, 13],
                    "note": "non-edge inside M2"},
            "1.2": {"status": "fails", "witness": [0, 4, 8, 10],
                    "note": "M2 vertex must miss exactly one M1 vertex"},
            "1.3": {"status": "fails", "witness": [4, 0, 2]},
            "1.4": {"status": "holds", "note": "stated M1+M2 reading: holds"},
            "1.5": {"status": "holds"},
            "1.6": {"status": "fails", "witness": [9, 11],
                    "note": "mixed cross adjacency"},
            "1.7": {"status": "fails", "witness": [7, 2, 11, 4]},
        }, False),
    }

    @pytest.mark.parametrize("line, v, w", sorted(FAILING))
    def test_failing_verdicts_pinned(self, line, v, w):
        g = parse_graph6(line)
        assert not is_class_member(g)
        report = check_lemma1(g, decompose(g, v, w, check_class=False))
        properties, injective = self.FAILING[line, v, w]
        assert json.dumps(report.to_json_dict()) == json.dumps(
            {"properties": properties, "missmap_injective": injective})

    def test_partition_covers_every_non_edge(self):
        # The five-way split covers V for every non-edge, not just
        # maximum-degree pairs.
        for n in range(2, 6):
            for g in iter_all_graphs(n):
                if not is_class_member(g):
                    continue
                for v in range(n):
                    for w in range(v + 1, n):
                        if not g.has_edge(v, w):
                            d = decompose(g, v, w, check_class=False)
                            parts = [1 << v, 1 << w, d.A, d.B, d.C]
                            assert sum(parts) == g.full_mask  # disjoint cover
