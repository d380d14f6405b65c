import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

from chibound.graphs import (complement, complete_graph, empty_graph,
                             from_edges, induced_subgraph, join, parse_graph6,
                             relabel, serialize_graph6,
                             triangle_free_complement_rows)
from chibound.patterns import (THREE_K1, TWO_K1_JOIN_K2_K1, PatternWitness,
                               _has_induced_k2_p3, check_membership,
                               complement_oracle_check, is_class_member,
                               witness_is_valid)
from chibound.constructions import cycle
from chibound.corpus import graph_from_edge_mask, iter_all_graphs
from oracles import (bf_first_5pattern_roles, bf_has_5pattern,
                     bf_independent_triple, complement_oracle_of_graph,
                     complement_oracle_rows_first, first_5pattern_edge_first,
                     first_exclusion_witness, first_pair_scan_stop,
                     has_induced_k2_p3_bits, is_class_member_closed_list,
                     petersen, random_graph, triangle_free_complement)
from streams import (backtrack_stream, bound_stream, dense_stream,
                     large_stream, pinned_stream, witness_stream)


def pattern_graph():
    return join(empty_graph(2), from_edges(3, [(0, 1)]))


def excluded_by_brute_force(g) -> bool:
    return bf_independent_triple(g) is not None or bf_has_5pattern(g)


class TestFind3K1:
    """The 3K1 witnesses of check_membership."""

    def test_triangle(self):
        assert check_membership(complete_graph(3)) is None

    def test_c6_alternating(self):
        # The pair (0, 2) stops the scan at its common non-neighbour 4.
        assert check_membership(cycle(6)) == PatternWitness(THREE_K1, (0, 2, 4))

    def test_petersen(self):
        g = petersen()
        w = check_membership(g)
        assert w.kind == THREE_K1 and witness_is_valid(g, w)
        assert bf_independent_triple(g) is not None

    def test_triple_at_a_common_neighbour(self):
        # The pair (0, 1) has no common non-neighbour; its common neighbour
        # 2 misses 3 and 4, which are not adjacent either.
        assert check_membership(join(empty_graph(2), empty_graph(3))) == \
            PatternWitness(THREE_K1, (2, 3, 4))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9), st.randoms(use_true_random=False))
    def test_agrees_with_brute_force(self, n, rng):
        g = random_graph(n, 0.55, rng)
        w = check_membership(g)
        assert (w is not None) == excluded_by_brute_force(g)
        if w is not None:
            assert witness_is_valid(g, w)


class TestFind5Pattern:
    """The 5-pattern witnesses of check_membership."""

    def test_pattern_itself(self):
        assert check_membership(pattern_graph()) == PatternWitness(
            TWO_K1_JOIN_K2_K1, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))

    def test_c5_absent(self):
        assert check_membership(cycle(5)) is None

    def test_wheel_absent_brute_force(self):
        w6 = join(complete_graph(1), cycle(5))
        assert check_membership(w6) is None
        assert not bf_has_5pattern(w6)

    def test_join_of_pentagons_contains_pattern(self):
        # Established computationally: the pattern embeds across the join
        # (independent pair from one factor, edge plus far vertex from the
        # other), so this graph is outside the class.
        g = join(cycle(5), cycle(5))
        w = check_membership(g)
        assert w.kind == TWO_K1_JOIN_K2_K1 and witness_is_valid(g, w)
        assert bf_has_5pattern(g)

    def test_graph_with_a_3K1_named_by_a_5_pattern(self):
        # The scan stops at the pair (0, 1), whose common neighbour 4 misses
        # the edge 23, before any pair with a common non-neighbour: the
        # lexicographically smallest triple is (2, 4, 5).
        g = parse_graph6("E^q?")
        assert bf_independent_triple(g) == (2, 4, 5)
        assert first_pair_scan_stop(g) == (0, 1, 4)
        assert check_membership(g) == PatternWitness(
            TWO_K1_JOIN_K2_K1, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(5, 8), st.randoms(use_true_random=False))
    def test_agrees_with_brute_force(self, n, rng):
        g = random_graph(n, 0.6, rng)
        w = check_membership(g)
        assert (w is not None) == excluded_by_brute_force(g)
        if w is not None:
            assert witness_is_valid(g, w)


def same_witness_as_reference(g) -> bool:
    """check_membership names the witness where the naive pair scan stopped
    (kind, vertices and roles), and the witness re-checks."""
    w = check_membership(g)
    return w == first_exclusion_witness(g) and (w is None or witness_is_valid(g, w))


def roles(w):
    return w.roles if w is not None else None


class TestRolesAgainstReference:
    def test_every_graph_up_to_6(self):
        # The stops at a common non-neighbour, and the 5-patterns and the
        # 3K1s named at a common neighbour c.
        shapes = collections.Counter()
        for n in range(7):
            for g in iter_all_graphs(n):
                assert same_witness_as_reference(g), serialize_graph6(g)
                w = check_membership(g)
                assert (w is None) == complement_oracle_check(g)
                if w is not None:
                    shapes[first_pair_scan_stop(g)[2] < 0, w.kind] += 1
        assert shapes == {(True, THREE_K1): 26762,
                          (False, TWO_K1_JOIN_K2_K1): 2097,
                          (False, THREE_K1): 445}

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 16), st.floats(0.2, 0.95),
           st.randoms(use_true_random=False))
    def test_random_graphs(self, n, p, rng):
        assert same_witness_as_reference(random_graph(n, p, rng))

    def test_every_stream_line(self):
        lines = [line for stream in (pinned_stream, dense_stream, witness_stream,
                                     backtrack_stream, large_stream, bound_stream)
                 for line in stream().split()]
        assert len(lines) == 475
        for line in lines:
            assert same_witness_as_reference(parse_graph6(line)), line

    # Without a 3K1 any two vertices that c misses are adjacent, so the
    # witness is always the 5-pattern: the first under the scan key
    # (u1, u2, c, a, b) of every 5-pattern the graph holds.

    def test_sampler_candidates(self):
        # No 3K1, many 5-patterns: n from 8 to 16, where 46 of the 90 are
        # rejects (none below n = 10).
        rejects = 0
        for seed in range(90):
            g = triangle_free_complement(8 + seed % 9, random.Random(seed))
            assert roles(check_membership(g)) == first_5pattern_edge_first(g), seed
            rejects += not is_class_member(g)
        assert rejects == 46

    def test_3K1_free_graphs_up_to_6(self):
        # 1,665 of the 6,229 labeled 3K1-free graphs on 0..6 vertices are
        # excluded.
        graphs = rejects = 0
        for n in range(7):
            for g in iter_all_graphs(n):
                if triangle_free_complement_rows(g) is None:
                    continue
                w = check_membership(g)
                assert roles(w) == bf_first_5pattern_roles(g), serialize_graph6(g)
                graphs += 1
                rejects += w is not None
        assert (graphs, rejects) == (6229, 1665)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(5, 9), st.randoms(use_true_random=False))
    def test_witness_is_brute_force_minimum(self, n, rng):
        g = triangle_free_complement(n, rng)
        assert roles(check_membership(g)) == bf_first_5pattern_roles(g)

    def test_witness_sits_where_the_decider_stopped(self):
        # No 3K1 in either group, so the pair scan stops at the first pair
        # and c where c misses two common neighbours, and the 5-pattern
        # check_membership names sits at that pair and c.
        graphs = [triangle_free_complement(8 + seed % 9, random.Random(seed))
                  for seed in range(90)]
        graphs += [parse_graph6(line) for line in witness_stream().split()]
        rejects = 0
        for g in graphs:
            stop = first_pair_scan_stop(g)
            assert (stop is None) == is_class_member(g)
            if stop is not None:
                u1, u2, a, b, c = check_membership(g).roles
                assert (u1, u2, c) == stop, serialize_graph6(g)
                rejects += 1
        assert rejects == 46 + 128


def same_verdicts_as_references(g) -> bool:
    """Both deciders agree with the versions they replaced."""
    oracle = complement_oracle_check(g)
    return (is_class_member(g) == is_class_member_closed_list(g)
            and oracle == complement_oracle_of_graph(g)
            and oracle == complement_oracle_rows_first(g))


class TestDecidersAgainstReferences:
    def test_every_graph_up_to_6(self):
        for n in range(7):
            for g in iter_all_graphs(n):
                assert same_verdicts_as_references(g), serialize_graph6(g)

    def test_every_61st_graph_on_7_vertices(self):
        pairs = [(u, v) for v in range(1, 7) for u in range(v)]
        members = 0
        for mask in range(0, 1 << 21, 61):
            g = graph_from_edge_mask(7, mask, pairs)
            assert same_verdicts_as_references(g), mask
            members += is_class_member(g)
        assert members > 500

    @settings(max_examples=200, deadline=None)
    @given(st.integers(8, 24), st.floats(0.3, 0.95),
           st.randoms(use_true_random=False))
    def test_random_graphs(self, n, p, rng):
        assert same_verdicts_as_references(random_graph(n, p, rng))

    def test_sampler_candidates(self):
        # A triangle-free complement passes the row-by-row triangle test, so
        # these verdicts come from the K2 + P3 search on the finished rows;
        # above n = 8 it decides both ways.
        verdicts = {n: set() for n in range(8, 17)}
        for seed in range(360):
            n = 8 + seed % 9
            g = triangle_free_complement(n, random.Random(seed))
            assert same_verdicts_as_references(g), seed
            verdicts[n].add(complement_oracle_check(g))
        assert all(v == {False, True} for n, v in verdicts.items() if n > 8)


def random_triangle_free_rows(n: int, p: float, rng: random.Random) -> list[int]:
    """Rows of a triangle-free graph: the pairs in random order, each kept
    with probability p when its ends have no common neighbour yet."""
    h = [0] * n
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if rng.random() < p and not h[u] & h[v]:
            h[u] |= 1 << v
            h[v] |= 1 << u
    return h


class TestK2P3Search:
    """_has_induced_k2_p3, which the complement oracle and the sampler
    share, against the version it replaced."""

    def test_every_triangle_free_graph_up_to_6(self):
        # The triangle-free complements of all labeled graphs are all the
        # labeled triangle-free graphs; 1,665 of the 6,229 hold a K2 + P3,
        # as many as there are 3K1-free non-members.
        graphs = found = 0
        for n in range(7):
            full = (1 << n) - 1
            for g in iter_all_graphs(n):
                h = triangle_free_complement_rows(g)
                if h is None:
                    continue
                got = _has_induced_k2_p3(h, full)
                assert got == has_induced_k2_p3_bits(h, full), serialize_graph6(g)
                graphs += 1
                found += got
        assert (graphs, found) == (6229, 1665)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 16), st.floats(0.2, 1.0), st.randoms(use_true_random=False))
    def test_random_triangle_free_graphs(self, n, p, rng):
        h = random_triangle_free_rows(n, p, rng)
        full = (1 << n) - 1
        assert _has_induced_k2_p3(h, full) == has_induced_k2_p3_bits(h, full)

    @pytest.mark.parametrize("n", range(8, 15))
    def test_sampler_candidates(self, n):
        # The sampler's filter: a candidate is the complement of the rows it
        # grew, and it is a member exactly when they hold no K2 + P3.  At
        # n = 8 every candidate is a member; above it, both verdicts occur.
        rng = random.Random(n)
        full = (1 << n) - 1
        members = 0
        for _ in range(500):
            g = triangle_free_complement(n, rng)
            h = list(complement(g).adj)
            got = _has_induced_k2_p3(h, full)
            assert got == has_induced_k2_p3_bits(h, full), serialize_graph6(g)
            assert (not got) == is_class_member(g), serialize_graph6(g)
            members += not got
        assert members == 500 if n == 8 else 0 < members < 500


# pattern_graph()'s edges: u1 = 0 and u2 = 1 joined to the edge ab = 23 and to c = 4.
PATTERN_EDGES = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]


class TestWitnessIsValid:
    """The rejections of the finder-independent witness re-check."""

    def test_valid_witnesses_accepted(self):
        assert from_edges(5, PATTERN_EDGES) == pattern_graph()
        assert witness_is_valid(empty_graph(3), PatternWitness(THREE_K1, (0, 1, 2)))
        assert witness_is_valid(pattern_graph(), PatternWitness(
            TWO_K1_JOIN_K2_K1, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)))

    @pytest.mark.parametrize("g, w", [
        # a repeated vertex
        (empty_graph(3), PatternWitness(THREE_K1, (0, 0, 1))),
        # a vertex out of range, either side
        (empty_graph(3), PatternWitness(THREE_K1, (0, 1, 3))),
        (empty_graph(3), PatternWitness(THREE_K1, (-1, 0, 1))),
        # an unknown kind
        (empty_graph(3), PatternWitness("FourK1", (0, 1, 2))),
        # a 3K1 of the wrong size, or with an edge
        (empty_graph(4), PatternWitness(THREE_K1, (0, 1))),
        (empty_graph(4), PatternWitness(THREE_K1, (0, 1, 2, 3))),
        (from_edges(3, [(1, 2)]), PatternWitness(THREE_K1, (0, 1, 2))),
        # a 5-pattern on four vertices (u1 repeated as u2), without roles,
        # or with roles other than its vertices
        (pattern_graph(), PatternWitness(
            TWO_K1_JOIN_K2_K1, (0, 2, 3, 4), (0, 0, 2, 3, 4))),
        (pattern_graph(), PatternWitness(TWO_K1_JOIN_K2_K1, (0, 1, 2, 3, 4))),
        # (vertex 5 is a twin of 4, so either witness alone would be valid)
        (from_edges(6, [*PATTERN_EDGES, (0, 5), (1, 5)]), PatternWitness(
            TWO_K1_JOIN_K2_K1, (0, 1, 2, 3, 4), (0, 1, 2, 3, 5))),
        # a 5-pattern missing the induced edge u1a, or with the extra u1u2
        (from_edges(5, PATTERN_EDGES[1:]),
         PatternWitness(TWO_K1_JOIN_K2_K1, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))),
        (from_edges(5, [*PATTERN_EDGES, (0, 1)]),
         PatternWitness(TWO_K1_JOIN_K2_K1, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))),
    ])
    def test_rejected(self, g, w):
        assert not witness_is_valid(g, w)


class TestMembership:
    @pytest.mark.parametrize("n", [1, 3, 7, 20, 64])
    def test_complete_graphs_are_members(self, n):
        assert is_class_member(complete_graph(n))
        assert check_membership(complete_graph(n)) is None

    def test_c6_excluded_with_triple(self):
        assert check_membership(cycle(6)) == PatternWitness(THREE_K1, (0, 2, 4))

    def test_pattern_graph_excluded(self):
        assert check_membership(pattern_graph()) == PatternWitness(
            TWO_K1_JOIN_K2_K1, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))

    def test_oracle_exhaustive_small(self):
        for n in range(0, 7):
            for g in iter_all_graphs(n):
                assert is_class_member(g) == complement_oracle_check(g)
                assert is_class_member(g) == (check_membership(g) is None)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(8, 14), st.randoms(use_true_random=False))
    def test_oracle_random_larger(self, n, rng):
        g = random_graph(n, rng.choice([0.5, 0.7, 0.85]), rng)
        assert is_class_member(g) == complement_oracle_check(g)
        assert is_class_member(g) == (check_membership(g) is None)

    def test_sampler_candidates(self):
        # No 3K1 here, so only is_class_member's common-neighbourhood
        # counting step can exclude these; from n = 11 on, most are
        # excluded by a 5-pattern.
        verdicts = []
        for seed in range(360):
            g = triangle_free_complement(8 + seed % 9, random.Random(seed))
            member = is_class_member(g)
            assert member == (check_membership(g) is None), seed
            assert member == complement_oracle_check(g), seed
            verdicts.append(member)
        assert min(verdicts.count(True), verdicts.count(False)) > 100

    def test_oracle_uses_no_direct_decider(self, monkeypatch):
        import chibound.patterns as pat

        def forbidden(g):
            raise AssertionError("the complement oracle called a direct decider")
        for name in ("is_class_member", "check_membership", "_pair_scan_stop"):
            monkeypatch.setattr(pat, name, forbidden)
        verdicts = [pat.complement_oracle_check(g) for g in iter_all_graphs(5)]
        assert verdicts.count(True) == 358

    def test_complement_of_c5_is_member(self):
        assert complement_oracle_check(cycle(5))
        assert is_class_member(complement(cycle(5)))

    def test_complement_of_c6_excluded(self):
        assert not complement_oracle_check(cycle(6))

    @settings(max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_hereditary_closure(self, rng):
        g = random_graph(10, 0.8, rng)
        if not is_class_member(g):
            return
        mask = g.full_mask
        while mask:
            drop = rng.choice([v for v in range(g.n) if mask >> v & 1])
            mask &= ~(1 << drop)
            assert is_class_member(induced_subgraph(g, mask))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 9), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, n, rng):
        g = random_graph(n, 0.6, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        assert is_class_member(g) == is_class_member(relabel(g, perm))
