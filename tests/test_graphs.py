import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from chibound.graphs import (Graph, GraphFormatError, bits, complement,
                             complete_graph, connected_components,
                             disjoint_union, empty_graph, from_edges,
                             induced_subgraph, is_connected, join, parse_dimacs,
                             parse_graph6, relabel, serialize_graph6,
                             triangle_free_complement_rows)
from chibound.corpus import graph_from_edge_mask, iter_all_graphs, sample_class
from oracles import (bf_independent_triple, bits_generator,
                     parse_graph6_bitwise, random_graph,
                     triangle_free_complement)

import random


class TestBits:
    def test_every_16_bit_mask_matches_reference(self):
        for mask in range(1 << 16):
            assert bits(mask) == tuple(bits_generator(mask)), mask

    def test_seeded_64_bit_masks_match_reference(self):
        rng = random.Random(64)
        masks = [rng.getrandbits(64) for _ in range(5000)]
        masks += [(1 << 64) - 1, 1 << 63, 1 << 8, 0xFF00FF00FF00FF00]
        for mask in masks:
            assert bits(mask) == tuple(bits_generator(mask)), mask

    def test_returns_a_tuple(self):
        assert bits(0) == ()
        assert bits(0b1010_0000_0001) == (0, 9, 11)

    @pytest.mark.parametrize("mask", [-4, -1, 1 << 64, (1 << 64) + 1])
    def test_rejects_masks_outside_64_bits(self, mask):
        with pytest.raises(ValueError, match="outside"):
            bits(mask)


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
        ">>graph6<<",  # header only
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

    def test_matches_bitwise_reference(self):
        # Random graphs on 0..64 vertices (n >= 63 takes the extended
        # header), then one-byte corruptions of each line: the column
        # decoder gives the reference's graph or its exact error message.
        rng = random.Random(6)
        corrupt_bytes = [chr(c) for c in range(32, 128)] + ["\xe9"]
        texts = []
        for n in range(65):
            for _ in range(3):
                line = serialize_graph6(random_graph(n, rng.random(), rng))
                texts += [line, ">>graph6<<" + line]
                for off in [len(line) - 1] + [rng.randrange(len(line))
                                              for _ in range(5)]:
                    texts.append(line[:off] + rng.choice(corrupt_bytes)
                                 + line[off + 1:])
        errors = []
        for text in texts:
            got = _parse_outcome(parse_graph6, text)
            assert got == _parse_outcome(parse_graph6_bitwise, text), text
            if isinstance(got, str):
                errors.append(got)
        assert any("padding" in e for e in errors)
        assert any("invalid graph6 byte" in e for e in errors)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 12), st.randoms(use_true_random=False))
    def test_roundtrip_random(self, n, rng):
        g = random_graph(n, 0.5, rng)
        assert parse_graph6(serialize_graph6(g)) == g


def _parse_outcome(parse, text):
    """The parsed graph, or the message of the GraphFormatError raised."""
    try:
        return parse(text)
    except GraphFormatError as exc:
        return str(exc)


def _parses_or_rejects(parse, text):
    try:
        g = parse(text)
    except GraphFormatError:
        return
    g.check_invariants()


_graph6_like = st.builds(lambda head, body: head + body,
                         st.sampled_from(["", ">>graph6<<", "~"]),
                         st.text(st.characters(min_codepoint=32, max_codepoint=127)))
_dimacs_line = st.builds(lambda kind, fields: " ".join([kind, *fields]),
                         st.sampled_from(["p edge", "p col", "p", "e", "c", "x"]),
                         st.lists(st.one_of(st.integers(-1, 70).map(str),
                                            st.text(max_size=3)), max_size=4))


class TestParserFuzz:
    """Any text parses to a valid graph or raises GraphFormatError."""

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.text(), _graph6_like))
    @example(">>graph6<<")
    def test_graph6(self, text):
        _parses_or_rejects(parse_graph6, text)

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.text(), st.lists(_dimacs_line, max_size=8).map("\n".join)))
    def test_dimacs(self, text):
        _parses_or_rejects(parse_dimacs, text)


def built_graphs():
    """One graph from each builder, the graph6 codec, from_edges, the
    sampler, keyword construction and dataclasses.replace."""
    c5 = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    pairs = [(u, v) for v in range(1, 7) for u in range(v)]
    return [("from_edges", c5),
            ("from_edges, no edges", from_edges(0, [])),
            ("graph_from_edge_mask", graph_from_edge_mask(7, 0x1B873, pairs)),
            ("complement", complement(c5)),
            ("parse_graph6", parse_graph6("Dhc")),
            ("parse_graph6, 64 vertices", parse_graph6(serialize_graph6(
                random_graph(64, 0.5, random.Random(3))))),
            ("keywords", Graph(n=5, adj=c5.adj)),
            ("dataclasses.replace", dataclasses.replace(c5, adj=complement(c5).adj)),
            ("sample_class", next(sample_class(9, 1, 0)))]


class TestGraphValue:
    """A Graph is an immutable value however it was built."""

    @pytest.mark.parametrize("how, g", built_graphs())
    def test_frozen(self, how, g):
        for field, value in (("n", 3), ("adj", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(g, field, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(g, field)
        assert not hasattr(g, "__dict__")

    @pytest.mark.parametrize("how, g", built_graphs())
    def test_equals_the_public_constructor(self, how, g):
        public = Graph(g.n, tuple(list(g.adj)))
        assert type(g) is Graph
        assert g == public and hash(g) == hash(public)
        assert repr(g) == repr(public) == f"Graph(n={g.n}, adj={g.adj!r})"

    @pytest.mark.parametrize("how, g", built_graphs())
    def test_pickle_round_trip(self, how, g):
        # Pool workers receive and return graphs this way.
        back = pickle.loads(pickle.dumps(g))
        assert type(back) is Graph and back == g and hash(back) == hash(g)
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.n = 3


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

    def test_connected_iff_one_component(self):
        # is_connected sweeps from vertex 0 alone; the reference is the
        # component list, on every graph with n <= 6 and on sparse graphs.
        for n in range(7):
            for g in iter_all_graphs(n):
                assert is_connected(g) == (len(connected_components(g)) <= 1)
        rng = random.Random(15)
        for _ in range(300):
            g = random_graph(rng.randint(7, 64), rng.uniform(0.01, 0.2), rng)
            assert is_connected(g) == (len(connected_components(g)) <= 1)

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


class TestTriangleFreeComplementRows:
    """The one complement builder of the membership oracle and the matching
    chi engine: None exactly when g has an independent triple (brute force),
    else the rows of complement(g)."""

    @staticmethod
    def same_as_reference(g):
        rows = triangle_free_complement_rows(g)
        if bf_independent_triple(g) is not None:
            assert rows is None
        else:
            assert rows == list(complement(g).adj)

    def test_every_graph_up_to_6(self):
        for n in range(7):
            for g in iter_all_graphs(n):
                self.same_as_reference(g)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 64), st.floats(0.5, 1.0), st.booleans(),
           st.randoms(use_true_random=False))
    def test_up_to_64_vertices(self, n, p, triangle_free, rng):
        # Complements of maximal triangle-free graphs always give rows;
        # dense G(n, p) give both outcomes, the triple often late.
        if triangle_free:
            g = triangle_free_complement(n, rng)
        else:
            g = random_graph(n, p, rng)
        self.same_as_reference(g)


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

    @pytest.mark.parametrize("edge, message", [
        ("e 1 9", "edge out of range at line 2"),
        ("e 0 2", "edge out of range at line 2"),
        ("e 4 4", "edge out of range at line 2"),
        ("e 1 1", "loop at line 2"),
    ])
    def test_bad_edge_located(self, edge, message):
        with pytest.raises(GraphFormatError, match=f"^{message}$"):
            parse_dimacs(f"p edge 3 1\n{edge}\n")

    @pytest.mark.parametrize("text, field", [
        ("c header next\np edge x 1\n", "x"),
        ("p edge 3 1\ne 1 z\n", "z"),
    ])
    def test_non_integer_field_located(self, text, field):
        with pytest.raises(GraphFormatError, match=f"'{field}' at line 2$"):
            parse_dimacs(text)
