import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from chibound.corpus import iter_all_graphs
from chibound.graphs import (bits, complete_graph, empty_graph, from_edges,
                             induced_subgraph, join, parse_graph6,
                             triangle_free_complement_rows)
from chibound.invariants import (ExactLimitError, IndependentTripleError,
                                 bound_f, chi_via_matching, chromatic_exact,
                                 clique_number, compute_invariants, max_clique,
                                 max_matching)
from chibound.constructions import cycle, extremal_omega5
from oracles import (bf_chromatic, bf_lex_first_max_clique, bf_max_clique,
                     bf_max_matching, chi_via_complement_graph,
                     chromatic_exact_clique_first, chromatic_exact_tuple_keyed,
                     has_augmenting_path, max_clique_by_reconstruction,
                     max_matching_unstopped, mc_expand_prefixes, petersen,
                     random_graph, triangle_free_complement)
from streams import backtrack_stream, dense_stream

# Random graphs for the reference cross-checks: n <= 24, p from 0.2 to 0.95.
_dense_graphs = st.builds(
    lambda n, p, rng: random_graph(n, p, rng),
    st.integers(0, 24), st.floats(0.2, 0.95), st.randoms(use_true_random=False))


class TestMaxClique:
    def test_k5(self):
        size, clique = max_clique(complete_graph(5))
        assert size == 5 and clique == 0b11111

    def test_join_of_pentagons(self):
        assert clique_number(join(cycle(5), cycle(5))) == 4

    def test_omega5_table_graph(self):
        assert clique_number(extremal_omega5()) == 5

    def test_witness_is_lex_smallest(self):
        # Two maximum triangles; {0,1,2} beats {3,4,5}.
        g = from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        size, clique = max_clique(g)
        assert size == 3 and clique == 0b000111
        size, clique = max_clique(g, within=0b111110)
        assert size == 3 and clique == 0b111000

    def test_rejects_vertex_set_outside_graph(self):
        # The same error as induced_subgraph gives for these masks.
        for within in (0b100011, 1 << 5, -1):
            with pytest.raises(ValueError, match="not contained in the graph"):
                max_clique(cycle(5), within)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 9), st.randoms(use_true_random=False))
    def test_against_brute_force(self, n, rng):
        g = random_graph(n, 0.6, rng)
        size, clique = max_clique(g)
        assert size == bf_max_clique(g)
        members = list(bits(clique))
        assert len(members) == size
        sub = induced_subgraph(g, clique)
        assert sub.edge_count() == size * (size - 1) // 2


class TestMaxCliqueAgainstReferences:
    """The one ordered search against the per-vertex reconstruction it
    replaced, and against brute force."""

    def test_every_graph_up_to_5_under_every_mask(self):
        for n in range(6):
            for g in iter_all_graphs(n):
                for within in range(1 << n):
                    want = max_clique_by_reconstruction(g, within)
                    assert max_clique(g, within) == want
                    assert bf_lex_first_max_clique(g, within) == want

    def test_every_graph_on_6(self):
        for g in iter_all_graphs(6):
            assert max_clique(g) == max_clique_by_reconstruction(g)

    @settings(max_examples=150, deadline=None)
    @given(_dense_graphs, st.randoms(use_true_random=False))
    def test_random_graphs_and_masks(self, g, rng):
        within = rng.getrandbits(g.n)
        assert max_clique(g) == max_clique_by_reconstruction(g)
        assert max_clique(g, within) == max_clique_by_reconstruction(g, within)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 9), st.floats(0.2, 0.95),
           st.randoms(use_true_random=False))
    def test_lex_first_against_brute_force(self, n, p, rng):
        g = random_graph(n, p, rng)
        within = rng.getrandbits(n)
        assert max_clique(g) == bf_lex_first_max_clique(g)
        assert max_clique(g, within) == bf_lex_first_max_clique(g, within)


    def test_clique_within_is_its_own_answer(self):
        # A clique mask must be its own answer, the brute-force one.  Every
        # graph with n <= 5 meets every clique mask in the test above; here
        # every graph on 6 vertices, with its maximum clique and that clique
        # less its lowest vertex.
        for g in iter_all_graphs(6):
            _, clique = max_clique_by_reconstruction(g)
            for within in (clique, clique & (clique - 1)):
                assert max_clique(g, within) == (within.bit_count(), within)
                assert max_clique(g, within) == bf_lex_first_max_clique(g, within)

    @settings(max_examples=150, deadline=None)
    @given(_dense_graphs, st.randoms(use_true_random=False))
    def test_random_clique_within(self, g, rng):
        clique = 0
        for v in rng.sample(range(g.n), g.n):
            if all(g.has_edge(v, u) for u in bits(clique)):
                clique |= 1 << v
        assert max_clique(g, clique) == (clique.bit_count(), clique)
        assert max_clique(g, clique) == bf_lex_first_max_clique(g, clique)
        assert max_clique(g, clique) == max_clique_by_reconstruction(g, clique)

    # Class-like graphs above the n <= 24 of _dense_graphs: complements of
    # maximal triangle-free graphs, and the n = 23 witness with omega = 8.
    @pytest.mark.parametrize("g", [
        *(triangle_free_complement(n, random.Random(s))
          for n in (25, 32, 40) for s in range(3)),
        parse_graph6("V~~~~|~Nw~`~D~E~bnw|~fv~^n~^GNnCNz`F~WH~|?n_"),
    ])
    def test_large_class_like_graphs(self, g):
        within = random.Random(g.n).getrandbits(g.n)
        assert max_clique(g) == max_clique_by_reconstruction(g)
        assert max_clique(g, within) == max_clique_by_reconstruction(g, within)
        assert clique_number(g) == mc_expand_prefixes(g.adj, 0, g.full_mask, 0)

    def test_clique_number_every_graph_up_to_6(self):
        for n in range(7):
            for g in iter_all_graphs(n):
                assert clique_number(g) == mc_expand_prefixes(g.adj, 0, g.full_mask, 0)

    @settings(max_examples=150, deadline=None)
    @given(_dense_graphs)
    def test_clique_number_random_graphs(self, g):
        assert clique_number(g) == mc_expand_prefixes(g.adj, 0, g.full_mask, 0)


def same_as_references(g):
    """(chi, colouring) equal to the clique-first reference's, and chi equal
    to that of the engine with a separate greedy pass it replaced."""
    got = chromatic_exact(g)
    assert got == chromatic_exact_clique_first(g)
    assert got[0] == chromatic_exact_tuple_keyed(g)[0]


class TestChromaticExactAgainstReference:
    def test_every_graph_up_to_6(self):
        for n in range(7):
            for g in iter_all_graphs(n):
                same_as_references(g)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 16), st.floats(0.3, 0.95),
           st.randoms(use_true_random=False))
    def test_random_graphs(self, n, p, rng):
        same_as_references(random_graph(n, p, rng))

    def test_dense_stream(self):
        for line in dense_stream().split():
            same_as_references(parse_graph6(line))

    def test_backtrack_stream(self):
        for line in backtrack_stream().split():
            same_as_references(parse_graph6(line))


class TestChromaticExact:
    def test_c5(self):
        chi, coloring = chromatic_exact(cycle(5))
        assert chi == 3

    def test_join_of_pentagons(self):
        chi, _ = chromatic_exact(join(cycle(5), cycle(5)))
        assert chi == 6

    def test_omega5_table_graph(self):
        chi, coloring = chromatic_exact(extremal_omega5())
        assert chi == 8
        assert len(set(coloring)) == 8

    def test_limit(self):
        with pytest.raises(ExactLimitError, match="chi_via_matching"):
            chromatic_exact(empty_graph(25))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 7), st.randoms(use_true_random=False))
    def test_against_brute_force(self, n, rng):
        g = random_graph(n, 0.5, rng)
        chi, coloring = chromatic_exact(g)
        assert chi == bf_chromatic(g)
        assert len(set(coloring)) == chi
        for u, v in g.edges():
            assert coloring[u] != coloring[v]


class TestMaxMatching:
    def test_c5(self):
        assert max_matching(cycle(5))[0] == 2

    def test_k4_perfect(self):
        assert max_matching(complete_graph(4))[0] == 2

    def test_petersen(self):
        g = petersen()
        size, edges = max_matching(g)
        assert size == 5
        assert bf_max_matching(g) == 5

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 9), st.randoms(use_true_random=False))
    def test_against_brute_force(self, n, rng):
        g = random_graph(n, 0.45, rng)
        size, edges = max_matching(g)
        assert size == bf_max_matching(g)
        used = set()
        for u, v in edges:
            assert g.has_edge(u, v)
            assert u not in used and v not in used
            used.update((u, v))
        assert not has_augmenting_path(g, set(edges))


class TestMatchingAgainstReference:
    """The matching that stops at n // 2 edges, and the matching engine on
    the complement's rows, against the versions they replaced."""

    @staticmethod
    def same_chi(g):
        try:
            want = chi_via_complement_graph(g)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                chi_via_matching(g)
            return
        assert chi_via_matching(g) == want

    def test_every_graph_up_to_6(self):
        for n in range(7):
            for g in iter_all_graphs(n):
                assert max_matching(g) == max_matching_unstopped(g)
                self.same_chi(g)

    @settings(max_examples=200, deadline=None)
    @given(_dense_graphs)
    def test_random_graphs(self, g):
        assert max_matching(g) == max_matching_unstopped(g)
        self.same_chi(g)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 64), st.randoms(use_true_random=False))
    def test_triangle_free_complements(self, n, rng):
        # No independent triple, so the matching engine always answers, also
        # above DEFAULT_EXACT_LIMIT, where it alone gives chi.
        g = triangle_free_complement(n, rng)
        assert max_matching(g) == max_matching_unstopped(g)
        self.same_chi(g)


class TestChiViaMatching:
    def test_complete(self):
        for n in (1, 4, 9):
            assert chi_via_matching(complete_graph(n))[0] == n

    def test_c5(self):
        chi, coloring = chi_via_matching(cycle(5))
        assert chi == 3
        for u, v in cycle(5).edges():
            assert coloring[u] != coloring[v]

    def test_join_of_pentagons(self):
        assert chi_via_matching(join(cycle(5), cycle(5)))[0] == 6

    def test_refuses_independent_triple(self):
        assert issubclass(IndependentTripleError, ValueError)
        with pytest.raises(IndependentTripleError, match="independent triple"):
            chi_via_matching(cycle(6))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7), st.randoms(use_true_random=False))
    def test_matches_exact_engine(self, n, rng):
        g = random_graph(n, 0.75, rng)
        if triangle_free_complement_rows(g) is None:
            return
        chi, coloring = chi_via_matching(g)
        assert chi == chromatic_exact(g)[0]
        assert len(set(coloring)) == chi
        for u, v in g.edges():
            assert coloring[u] != coloring[v]


class TestBoundFunction:
    @pytest.mark.parametrize("omega,expected", [
        (1, 1), (2, 3), (3, 4), (4, 6), (5, 8), (6, 9), (7, 10), (10, 15),
    ])
    def test_values(self, omega, expected):
        assert bound_f(omega) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bound_f(0)


class TestReports:
    def test_sanity_bounds(self):
        import random
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(rng.randint(1, 9), 0.5, rng)
            r = compute_invariants(g)
            assert r["omega"] <= r["chi"] <= r["delta"] + 1

    def test_json_field_names(self):
        d = compute_invariants(cycle(5))
        assert list(d) == ["n", "omega", "chi", "delta", "bound", "tight",
                           "clique", "coloring"]
        assert json.dumps(d)  # serializable

    def test_omega5_report(self):
        r = compute_invariants(extremal_omega5())
        assert (r["n"], r["omega"], r["chi"], r["delta"], r["bound"], r["tight"]) == \
               (16, 5, 8, 10, 8, True)

    def test_one_clique_search_per_report(self, monkeypatch):
        # The exact engine reuses compute_invariants' clique: with a 3K1 in
        # the graph, "auto" takes that engine.
        import chibound.invariants as inv
        calls = []
        real = inv.max_clique
        monkeypatch.setattr(inv, "max_clique",
                            lambda g, *a: calls.append(g) or real(g, *a))
        g = cycle(7)
        assert compute_invariants(g)["chi"] == 3
        assert len(calls) == 1

    def test_given_clique_changes_nothing(self):
        import random
        rng = random.Random(11)
        for _ in range(200):
            g = random_graph(rng.randint(0, 9), rng.choice([0.3, 0.5, 0.7]), rng)
            assert chromatic_exact(g, max_clique(g)) == chromatic_exact(g)

    def test_auto_engine_is_matching_iff_no_triple(self):
        # "auto" tries the matching engine first and falls back to the exact
        # one on its IndependentTripleError: the same report as choosing by
        # whether the complement is triangle-free beforehand.
        for n in range(7):
            for g in iter_all_graphs(n):
                rows = triangle_free_complement_rows(g)
                engine = "matching" if rows is not None else "exact"
                assert compute_invariants(g) == compute_invariants(g, engine=engine)

    def test_auto_engine_calls(self, monkeypatch):
        import chibound.invariants as inv
        calls = []
        for name in ("chi_via_matching", "chromatic_exact"):
            real = getattr(inv, name)
            monkeypatch.setattr(inv, name, lambda g, *a, real=real, name=name:
                                calls.append(name) or real(g, *a))
        compute_invariants(cycle(5))
        assert calls == ["chi_via_matching"]
        calls.clear()
        compute_invariants(cycle(6))
        assert calls == ["chi_via_matching", "chromatic_exact"]

    def test_forced_engines_agree(self):
        g = cycle(5)
        assert compute_invariants(g, engine="exact")["chi"] == \
               compute_invariants(g, engine="matching")["chi"] == 3
