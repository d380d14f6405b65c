import pytest
from hypothesis import given, settings, strategies as st

from chibound.graphs import (Graph, GraphFormatError, complement,
                             complete_graph, connected_components,
                             disjoint_union, empty_graph, from_edges,
                             induced_subgraph, join, parse_dimacs,
                             parse_graph6, relabel, serialize_graph6)
from oracles import random_graph

import random


class TestGraph6:
    def test_star_fixture(self):
        # Hand-decoded: header 'D' is n=5; bytes '?','{' carry the
        # upper-triangle bits 000000 111100 -> edges 04,14,24,34.
        g = parse_graph6("D?{")
        assert g.n == 5
        assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
        assert serialize_graph6(g) == "D?{"

    def test_single_vertex(self):
        g = parse_graph6("@")
        assert (g.n, g.edge_count()) == (1, 0)
        assert serialize_graph6(complete_graph(1)) == "@"

    def test_duw_roundtrip(self):
        # 'U'=22=010110, 'W'=24=011000: edges 02,03,13,14,24 (a 5-cycle).
        g = parse_graph6("DUW")
        assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
        assert serialize_graph6(g) == "DUW"

    def test_empty_two_vertices(self):
        assert serialize_graph6(empty_graph(2)) == "A?"
        assert parse_graph6("A?").n == 2

    def test_header_prefix_stripped(self):
        assert parse_graph6(">>graph6<<A_").edge_count() == 1

    def test_extended_header(self):
        g = empty_graph(63)
        line = serialize_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line).n == 63

    @pytest.mark.parametrize("bad", [
        "",            # empty
        "D?",          # truncated body
        "D?{{",        # trailing garbage
        "D?\x1f",      # byte below 63
        "~~~???",      # >2^18 vertex form
    ])
    def test_malformed(self, bad):
        with pytest.raises(GraphFormatError):
            parse_graph6(bad)

    def test_kernel_limit(self):
        with pytest.raises(GraphFormatError, match="kernel"):
            parse_graph6("~?B?" + "?" * 100)

    def test_nonzero_padding_rejected(self):
        # n=2 has one data bit; '~' = 111111 sets padding bits.
        with pytest.raises(GraphFormatError, match="padding"):
            parse_graph6("A~")

    def test_non_ascii_rejected_not_replaced(self):
        # 'é' must not be read as '?', which would make this a 5-vertex graph.
        with pytest.raises(GraphFormatError,
                           match="^invalid graph6 byte at offset 1$"):
            parse_graph6("DéW")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.randoms(use_true_random=False))
    def test_roundtrip_random(self, n, rng):
        g = random_graph(n, 0.5, rng)
        assert parse_graph6(serialize_graph6(g)) == g


class TestCombinators:
    def test_complement_k5(self):
        assert complement(complete_graph(5)) == empty_graph(5)

    def test_complement_c5_is_c5(self):
        c5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        h = complement(c5)
        assert h.edge_count() == 5
        assert all(h.degree(v) == 2 for v in range(5))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10), st.randoms(use_true_random=False))
    def test_complement_involution(self, n, rng):
        g = random_graph(n, 0.4, rng)
        assert complement(complement(g)) == g

    def test_join_wheel(self):
        c5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        w = join(complete_graph(1), c5)
        assert (w.n, w.edge_count()) == (6, 10)
        assert w.degree(0) == 5

    def test_join_two_pentagons(self):
        c5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        g = join(c5, c5)
        assert (g.n, g.edge_count()) == (10, 35)

    def test_join_forbidden_pattern(self):
        k2k1 = from_edges(3, [(0, 1)])
        p = join(empty_graph(2), k2k1)
        assert (p.n, p.edge_count()) == (5, 7)

    def test_join_size_overflow(self):
        with pytest.raises(ValueError):
            join(empty_graph(40), empty_graph(30))

    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_join_associative_up_to_relabeling(self, rng):
        a = random_graph(4, 0.5, rng)
        b = random_graph(3, 0.5, rng)
        c = random_graph(5, 0.5, rng)
        left = join(join(a, b), c)
        right = join(a, join(b, c))
        assert left.edge_count() == right.edge_count()
        assert sorted(left.degree(v) for v in range(left.n)) == \
               sorted(right.degree(v) for v in range(right.n))

    def test_induced_identity(self):
        g = from_edges(5, [(0, 1), (2, 3)])
        assert induced_subgraph(g, g.full_mask) == g

    def test_induced_triangle_from_k5(self):
        sub = induced_subgraph(complete_graph(5), 0b10101)
        assert sub == complete_graph(3)

    def test_induced_path_from_c5(self):
        c5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        p = induced_subgraph(c5, 0b00111)  # three consecutive vertices
        assert p.edge_count() == 2
        assert sorted(p.degree(v) for v in range(3)) == [1, 1, 2]

    def test_induced_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(complete_graph(3), 0b1111)

    def test_components(self):
        c5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert connected_components(c5) == [0b11111]
        assert connected_components(empty_graph(3)) == [1, 2, 4]
        g = disjoint_union(complete_graph(3), complete_graph(2))
        assert connected_components(g) == [0b00111, 0b11000]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10), st.randoms(use_true_random=False))
    def test_degree_sum(self, n, rng):
        g = random_graph(n, 0.5, rng)
        assert sum(g.degree(v) for v in range(n)) == 2 * g.edge_count()

    def test_check_invariants_accepts_valid(self):
        random_graph(8, 0.5, random.Random(1)).check_invariants()

    def test_check_invariants_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00)).check_invariants()


class TestDimacs:
    def test_basic(self):
        g = parse_dimacs("c a comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
        assert g.n == 4
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_missing_header(self):
        with pytest.raises(GraphFormatError):
            parse_dimacs("e 1 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_dimacs("p edge 3 5\ne 1 2\n")

    def test_out_of_range(self):
        with pytest.raises(GraphFormatError):
            parse_dimacs("p edge 3 1\ne 1 9\n")

    @pytest.mark.parametrize("text, field", [
        ("c header next\np edge x 1\n", "x"),
        ("p edge 3 1\ne 1 z\n", "z"),
    ])
    def test_non_integer_field_located(self, text, field):
        with pytest.raises(GraphFormatError, match=f"'{field}' at line 2$"):
            parse_dimacs(text)
