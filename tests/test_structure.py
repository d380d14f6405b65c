import json
import random
import re

import pytest

from chibound.constructions import (OMEGA5_VERTEX_NAMES, cycle, extremal_omega5,
                                    extremal_witnesses)
from chibound.corpus import explicit_population, iter_all_graphs, run_verification
from chibound.graphs import (bits, complement, complete_graph, empty_graph,
                             from_edges, join, mask_of, parse_graph6)
from chibound.invariants import (bound_f, chi_via_matching, chromatic_exact,
                                 clique_number)
from chibound.patterns import complement_oracle_check, is_class_member
from chibound.structure import (FAILS, HOLDS, PROPERTY_NAMES, VACUOUS,
                                Decomposition, DecompositionError,
                                NotInClassError, all_partitioning_pairs,
                                check_lemma1, choose_partitioning_pair,
                                decompose)
from oracles import (all_partitioning_pairs_listed, check_lemma1_pairwise,
                     decompose_fields, triangle_free_complement)


def name_index(name):
    return OMEGA5_VERTEX_NAMES.index(name)


class TestChoosePair:
    def test_complete_graph_has_none(self):
        assert choose_partitioning_pair(complete_graph(5)) is None

    def test_c5(self):
        assert choose_partitioning_pair(cycle(5)) == (0, 2)

    def test_omega5_graph(self):
        # v is non-adjacent exactly to w and the c vertices; w is the
        # lowest-index non-neighbor.
        g = extremal_omega5()
        assert choose_partitioning_pair(g) == (name_index("v"), name_index("w"))

    def test_universal_max_degree_vertex(self):
        # Wheel: the hub has maximum degree but no non-neighbor, so no
        # partitioning pair exists even though the graph is not complete.
        w6 = join(complete_graph(1), cycle(5))
        assert choose_partitioning_pair(w6) is None
        assert all_partitioning_pairs(w6) == []


class TestDecompose:
    def test_c5(self):
        d = decompose(cycle(5), 0, 2)
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
        g = join(cycle(5), cycle(5))
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
            decompose(cycle(5), 0, 1)

    def test_refuses_non_member(self):
        with pytest.raises(NotInClassError, match=re.escape(
                "graph is not in the class: ThreeK1 on (0, 2, 4)")):
            decompose(cycle(6), 0, 2)
        pattern = join(empty_graph(2), from_edges(3, [(0, 1)]))
        with pytest.raises(NotInClassError, match=re.escape(
                "graph is not in the class: TwoK1JoinK2K1 on (0, 1, 2, 3, 4)")):
            decompose(pattern, 0, 1)

    def test_deterministic(self):
        g = extremal_omega5()
        assert decompose(g, 0, 1) == decompose(g, 0, 1)

    def test_json_field_names(self):
        d = decompose(cycle(5), 0, 2)
        assert list(d.to_json_dict()) == ["v", "w", "X", "Y", "Yp", "B", "C",
                                          "missmap"]


class TestLemma1:
    def test_omega5_graph(self):
        g = extremal_omega5()
        d = decompose(g, 0, 1)
        report = check_lemma1(g, d)
        status = {name: v["status"] for name, v in report["properties"].items()}
        assert status["1.1"] == HOLDS
        assert status["1.2"] == HOLDS
        assert status["1.3"] == HOLDS
        assert status["1.5"] == HOLDS
        assert status["1.7"] == HOLDS
        assert status["1.6"] == VACUOUS  # |M2| = 3 < 4
        assert FAILS not in status.values()
        assert report["missmap_injective"]

    def test_c5_vacuous_parts(self):
        g = cycle(5)
        report = check_lemma1(g, decompose(g, 0, 2))
        status = {name: v["status"] for name, v in report["properties"].items()}
        assert status["1.1"] == HOLDS  # all parts singletons
        assert status["1.2"] == VACUOUS  # M2 empty

    def test_mismatched_decomposition(self):
        d = decompose(cycle(5), 0, 2)
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
                    verdicts = report["properties"]
                    assert all(x["status"] != FAILS for x in verdicts.values())
                    assert not verdicts["1.4"].get("note", "").endswith(FAILS)

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
        assert json.dumps(report) == json.dumps(
            {"properties": properties, "missmap_injective": injective})

    # 1.6 needs |M1| >= |M2| >= 4.  The class member F_6 (TestFamilyF6)
    # reaches it with every M3-M4 pair present; these decompositions, built
    # by hand, add the case with none present and a failure: v = 0, w = 1,
    # M1 = {2..5}, M2 = {6..9}, M3 = {10, 11}, M4 = {12, 13}.
    @pytest.mark.parametrize("cross, verdict", [
        ([], {"status": "holds"}),
        ([(10, 12), (10, 13), (11, 12), (11, 13)], {"status": "holds"}),
        ([(10, 12)], {"status": "fails", "witness": [11, 13],
                      "note": "mixed cross adjacency"}),
    ])
    def test_property_1_6_on_built_decomposition(self, cross, verdict):
        m1, m2, m3, m4 = range(2, 6), range(6, 10), (10, 11), (12, 13)
        g = from_edges(14, [(0, u) for u in (*m1, *m2, *m3)]
                       + [(1, u) for u in (*m1, *m2, *m4)] + cross)
        d = Decomposition(v=0, w=1, A=mask_of([*m1, *m2]), B=mask_of(m3),
                          C=mask_of(m4), D=mask_of(m1), X=mask_of(m1),
                          Y=mask_of(m2), Yp=0, missmap=())
        assert check_lemma1(g, d)["properties"]["1.6"] == verdict
        assert json.dumps(check_lemma1(g, d)) == json.dumps(check_lemma1_pairwise(g, d))

    # 1.4's note reads every pair, not only those up to the witness: here
    # v = 0, w = 1, M1 = {2, 3, 4}, M2 = {5, 6, 7}, Y' = {2}, M3 = {8, 9, 10},
    # so |M2| - 2 = 1 common neighbour is needed.  The first pair (8, 9)
    # shares only 3, which Y + Y' leaves out, and the later (8, 10) shares
    # nothing, so the stated reading fails too.
    def test_property_1_4_note_reads_past_the_witness(self):
        a, b = range(2, 8), (8, 9, 10)
        g = from_edges(11, [(0, u) for u in (*a, *b)] + [(1, u) for u in a]
                       + [(8, 3), (9, 3), (9, 10)])
        d = Decomposition(v=0, w=1, A=mask_of(a), B=mask_of(b), C=0,
                          D=0b11100, X=0b11000, Y=0b11100000, Yp=0b100, missmap=())
        verdict = {"status": "fails", "witness": [8, 9],
                   "note": "stated M1+M2 reading: fails"}
        assert check_lemma1(g, d)["properties"]["1.4"] == verdict
        assert json.dumps(check_lemma1(g, d)) == json.dumps(check_lemma1_pairwise(g, d))

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


# F_6, ROADMAP item 3's family at m = 6: the complement of K_{6,6} on
# a_i = i and b_i = 6 + i, with a_i b_i subdivided by x_i = 12 + i for i < 5.
F6 = "P~~{ACbCwV_^^^nnzz~^^||{"
F6_PAIRS = [(12, 0), (12, 6), (13, 1), (13, 7), (14, 2), (14, 8),
            (15, 3), (15, 9), (16, 4), (16, 10)]


class TestFamilyF6:
    """A class member on which property 1.6 holds at every partitioning pair."""

    def test_graph(self):
        g = parse_graph6(F6)
        h = [(a, 6 + b) for a in range(6) for b in range(6) if a != b or a == 5]
        h += [(12 + i, i) for i in range(5)] + [(12 + i, 6 + i) for i in range(5)]
        assert g == complement(from_edges(17, h))
        assert is_class_member(g) and complement_oracle_check(g)
        assert clique_number(g) == 6
        assert chi_via_matching(g)[0] == chromatic_exact(g)[0] == bound_f(6) == 9
        assert all_partitioning_pairs(g) == F6_PAIRS

    @pytest.mark.parametrize("v, w", F6_PAIRS)
    def test_lemma1_at_every_pair(self, v, w):
        g = parse_graph6(F6)
        d = decompose(g, v, w)
        report = check_lemma1(g, d)
        assert {name: x["status"] for name, x in report["properties"].items()} == {
            "1.1": HOLDS, "1.2": HOLDS, "1.3": HOLDS, "1.4": HOLDS,
            "1.5": HOLDS, "1.6": HOLDS, "1.7": VACUOUS}
        assert json.dumps(report) == json.dumps(check_lemma1_pairwise(g, d))

    def test_campaign_tallies(self):
        report = run_verification(explicit_population([parse_graph6(F6)]),
                                  ("bound", "lemma1", "lemma2", "oracle")).to_json_dict()
        assert report["lemma1"]["pairs_checked"] == 10
        assert report["lemma1"]["properties"]["1.6"] == {HOLDS: 10, VACUOUS: 0, FAILS: 0}
        assert report["oracle"] == {"checked": 1, "disagreements": 0}
        assert report["violations"] == []


def same_as_references(g, v, w) -> tuple[dict, Decomposition]:
    """decompose and check_lemma1 at (v, w) against their references; the
    report JSON must match byte for byte, key order included."""
    d = decompose(g, v, w, check_class=False)
    assert tuple(d) == decompose_fields(g, v, w)
    report = check_lemma1(g, d)
    assert json.dumps(report) == json.dumps(check_lemma1_pairwise(g, d))
    return report, d


class TestLemma1AgainstReference:
    """The one-pass properties against the pairwise versions they replaced."""

    def test_triangle_free_complements(self):
        # Every non-edge of 300 sampler-style members and non-members with
        # n = 8..16: these reach failures that no campaign reaches, and
        # |Y| = 3, where 1.4 and 1.5 count for real.
        rng = random.Random(15)
        seen = set()
        pairs = 0
        for _ in range(300):
            g = triangle_free_complement(rng.randint(8, 16), rng)
            assert all_partitioning_pairs(g) == all_partitioning_pairs_listed(g)
            for v in range(g.n):
                for w in range(g.n):
                    if v != w and not g.has_edge(v, w):
                        report, d = same_as_references(g, v, w)
                        pairs += 1
                        seen.add(("|Y|", d.Y.bit_count()))
                        seen.update((name, x["status"])
                                    for name, x in report["properties"].items())
        assert pairs > 8000
        for name in ("1.1", "1.2", "1.3", "1.4", "1.5", "1.7"):
            assert (name, FAILS) in seen
        f6 = parse_graph6(F6)  # the first member on which 1.6 holds
        for v, w in F6_PAIRS:
            report, _ = same_as_references(f6, v, w)
            seen.update((name, x["status"]) for name, x in report["properties"].items())
        assert {(name, HOLDS) for name in PROPERTY_NAMES} <= seen
        assert ("|Y|", 3) in seen

    def test_extremal_witnesses(self):
        pairs = [(g, v, w) for g in extremal_witnesses()
                 for v, w in all_partitioning_pairs(g)]
        assert len(pairs) == 36
        for g, v, w in pairs:
            assert all_partitioning_pairs(g) == all_partitioning_pairs_listed(g)
            same_as_references(g, v, w)

    def test_every_member_up_to_6(self):
        for n in range(7):
            for g in iter_all_graphs(n):
                assert all_partitioning_pairs(g) == all_partitioning_pairs_listed(g)
                if is_class_member(g):
                    for v, w in all_partitioning_pairs(g):
                        same_as_references(g, v, w)
