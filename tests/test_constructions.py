import pytest

from chibound import constructions
from chibound.constructions import (EXTREMAL_GRAPH6, ConstructionError, cycle,
                                    extremal_omega5, extremal_witnesses,
                                    ramsey_13, wheel6)
from chibound.graphs import (complete_graph, induced_subgraph, parse_graph6,
                             serialize_graph6, triangle_free_complement_rows)
from chibound.invariants import (bound_f, chi_via_matching, chromatic_exact,
                                 clique_number)
from chibound.patterns import (check_membership, complement_oracle_check,
                               is_class_member)

# Locked after the first verified construction (degree, omega, chi and
# membership all re-checked below and in the acceptance suite).
OMEGA5_GOLDEN_GRAPH6 = "O^~^^mwbkjs^Pv[ZlUyxv"


class TestBuildingBlocks:
    def test_triangle(self):
        assert cycle(3) == complete_graph(3)

    def test_c5(self):
        g = cycle(5)
        assert clique_number(g) == 2
        assert chi_via_matching(g)[0] == 3
        assert is_class_member(g)

    def test_c6_excluded(self):
        assert not is_class_member(cycle(6))

    def test_cycle_validation(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_wheel(self):
        g = wheel6()
        assert (g.n, g.edge_count()) == (6, 10)
        assert clique_number(g) == 3
        assert chi_via_matching(g)[0] == 4
        assert is_class_member(g)


class TestExtremalWitnesses:
    @pytest.mark.parametrize("omega", range(1, 8))
    def test_tight_member(self, omega):
        g = extremal_witnesses()[omega - 1]
        assert serialize_graph6(g) == EXTREMAL_GRAPH6[omega - 1]
        assert clique_number(g) == omega
        assert chi_via_matching(g)[0] == bound_f(omega)
        assert check_membership(g) is None

    def test_pentagon_and_wheel(self):
        assert EXTREMAL_GRAPH6[1] == serialize_graph6(cycle(5))
        assert EXTREMAL_GRAPH6[2] == serialize_graph6(wheel6())

    @pytest.mark.parametrize("omega, universal", [(3, 1), (6, 1), (7, 2)])
    def test_universal_vertices_over_lower_entry(self, omega, universal):
        # Without its universal vertices the entry is the tight member
        # `universal` omegas lower: C5 under the wheel, the n = 15 omega = 5
        # graph under the omega = 6 and 7 entries.
        g = parse_graph6(EXTREMAL_GRAPH6[omega - 1])
        apexes = [v for v in range(g.n) if g.degree(v) == g.n - 1]
        assert len(apexes) == universal
        rest = g.full_mask & ~sum(1 << v for v in apexes)
        assert serialize_graph6(induced_subgraph(g, rest)) == \
            EXTREMAL_GRAPH6[omega - 1 - universal]

    def test_omega5_graph_less_any_vertex_stays_tight(self):
        g = extremal_omega5()
        for v in range(g.n):
            h = induced_subgraph(g, g.full_mask & ~(1 << v))
            assert (h.n, clique_number(h), chi_via_matching(h)[0]) == (15, 5, 8)


class TestOmega5Graph:
    def test_golden_graph6(self):
        assert serialize_graph6(extremal_omega5()) == OMEGA5_GOLDEN_GRAPH6

    def test_ten_regular(self):
        g = extremal_omega5()
        assert all(g.degree(v) == 10 for v in range(16))

    def test_invariants(self):
        g = extremal_omega5()
        assert clique_number(g) == 5
        assert chi_via_matching(g)[0] == 8 == bound_f(5)
        assert is_class_member(g)

    def test_five_non_neighbors_each(self):
        from chibound.constructions import OMEGA5_VERTEX_NAMES
        g = extremal_omega5()
        idx = {name: i for i, name in enumerate(OMEGA5_VERTEX_NAMES)}
        for v in range(16):
            assert 16 - 1 - g.degree(v) == 5
        b1_non = {u for u in range(16)
                  if u != idx["b1"] and not g.has_edge(idx["b1"], u)}
        assert b1_non == {idx[s] for s in ("w", "c1", "y1p", "y2p", "y3p")}

    def test_one_sided_table_entry_rejected(self, monkeypatch):
        # v lists b1 in place of w, but b1 does not list v back.
        table = dict(constructions._OMEGA5_NON_ADJACENCY,
                     v=("b1", "c1", "c2", "c3", "c4"))
        monkeypatch.setattr(constructions, "_OMEGA5_NON_ADJACENCY", table)
        with pytest.raises(ConstructionError):
            extremal_omega5()


class TestRamsey13:
    def test_graph6(self):
        g = ramsey_13()
        assert serialize_graph6(g) == r"LUxtuxmluv\m\m"
        assert serialize_graph6(g) not in EXTREMAL_GRAPH6

    def test_circulant_complement(self):
        # Vertex i misses exactly i +- 1 and i +- 5 (mod 13).
        g = ramsey_13()
        for i in range(13):
            missed = {u for u in range(13) if u != i and not g.has_edge(i, u)}
            assert missed == {(i + d) % 13 for d in (1, -1, 5, -5)}

    def test_outside_the_class_above_the_bound(self):
        g = ramsey_13()
        assert triangle_free_complement_rows(g) is not None
        w = check_membership(g)
        assert (w.kind, w.vertices) == ("TwoK1JoinK2K1", (0, 1, 3, 4, 11))
        assert w.roles == (0, 1, 4, 11, 3)  # u1, u2, a, b, c
        assert not is_class_member(g) and not complement_oracle_check(g)
        assert clique_number(g) == 4
        assert chromatic_exact(g)[0] == chi_via_matching(g)[0] == 7 > bound_f(4)

    def test_accepting_decider_rejected(self, monkeypatch):
        monkeypatch.setattr(constructions, "complement_oracle_check", lambda g: True)
        with pytest.raises(ConstructionError, match="accepted"):
            ramsey_13()
