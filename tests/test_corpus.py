import json
import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
import threading
import zlib
from pathlib import Path

import pytest

import chibound
from chibound import corpus
from chibound.constructions import cycle, extremal_omega5, wheel6
from chibound.corpus import (VALID_CHECKS, CorpusReport, Population, enumerate_class,
                             exhaustive_population, explicit_population,
                             graph_from_edge_mask, iter_all_graphs,
                             run_verification, sample_class,
                             sample_population, validate_checks)
from chibound.graphs import complete_graph, empty_graph, from_edges, join, serialize_graph6
from chibound.invariants import clique_number
from chibound.structure import all_partitioning_pairs
from chibound.patterns import (check_membership, complement_oracle_check,
                               is_class_member)
from oracles import graph_from_pair_mask, triangle_free_complement

# Locked regression fixture from the first verified run.
SAMPLE_N10_SEED42_OMEGA_HIST = {4: 54, 5: 798, 6: 142, 7: 6}


class TestEnumerate:
    def test_n1(self):
        assert [g.n for g in enumerate_class(1)] == [1]

    def test_n3_count_cross_oracle(self):
        members = list(enumerate_class(3))
        oracle_count = sum(
            1 for g in iter_all_graphs(3) if complement_oracle_check(g))
        assert len(members) == oracle_count == 7

    def test_n5_specific_graphs(self):
        lines = {serialize_graph6(g) for g in enumerate_class(5)}
        assert serialize_graph6(complete_graph(5)) in lines
        assert serialize_graph6(cycle(5)) in lines
        pattern = join(empty_graph(2), from_edges(3, [(0, 1)]))
        assert serialize_graph6(pattern) not in lines

    def test_counts_small(self):
        # Frozen labeled member counts; the n<=6 values are re-derived by
        # the complement oracle in the acceptance suite.
        assert [sum(1 for _ in enumerate_class(n)) for n in range(1, 7)] == \
               [1, 2, 7, 41, 358, 4154]

    def test_limit(self):
        with pytest.raises(ValueError):
            list(enumerate_class(8))
        with pytest.raises(ValueError, match=r"0 <= n <= 7, got n=-1$"):
            next(iter_all_graphs(-1))


def pair_list(n):
    return [(u, v) for v in range(1, n) for u in range(v)]


class TestGraphFromEdgeMask:
    """The table-driven builder against from_edges."""

    def test_every_mask_up_to_n5(self):
        for n in range(6):
            pairs = pair_list(n)
            for mask in range(1 << len(pairs)):
                assert graph_from_edge_mask(n, mask, pairs) == \
                    graph_from_pair_mask(n, mask, pairs), (n, mask)

    def test_seeded_n7_masks_with_permuted_pairs(self):
        rng = random.Random(7)
        masks = [rng.getrandbits(21) for _ in range(2000)] + [0, (1 << 21) - 1]
        pairs = pair_list(7)
        copy = pair_list(7)
        permuted = pairs[:]
        rng.shuffle(permuted)
        # Interleaved, so tables kept for one list are asked for another.
        for mask in masks:
            for ps in (pairs, permuted, copy):
                assert graph_from_edge_mask(7, mask, ps) == \
                    graph_from_pair_mask(7, mask, ps), (mask, ps)
        # An in-place edit of the list just used changes its graphs.
        graph_from_edge_mask(7, 0, pairs)
        rng.shuffle(pairs)
        for mask in masks:
            assert graph_from_edge_mask(7, mask, pairs) == \
                graph_from_pair_mask(7, mask, pairs), mask

    def test_same_pairs_other_n(self):
        pairs = pair_list(4)
        for n in (4, 6, 4, 8):
            for mask in range(1 << len(pairs)):
                assert graph_from_edge_mask(n, mask, pairs) == \
                    graph_from_pair_mask(n, mask, pairs), (n, mask)
        pairs = pair_list(5)
        graph_from_edge_mask(5, 0, pairs)
        with pytest.raises(ValueError, match="not an edge of K4"):
            graph_from_edge_mask(4, 0, pairs)

    def test_tables_built_once_per_contents(self, monkeypatch):
        built = []
        real = corpus._edge_tables
        monkeypatch.setattr(corpus, "_edge_tables",
                            lambda n, pairs: built.append(n) or real(n, pairs))
        graph_from_edge_mask(4, 0, pair_list(4))
        for _ in range(2):
            assert sum(1 for _ in iter_all_graphs(5)) == 1024
        graph_from_edge_mask(5, 7, tuple(pair_list(5)))  # equal, a fresh tuple
        assert built == [4, 5]
        # A list never equals a tuple, so the first list builds them again;
        # an equal fresh list keeps them, and an in-place edit rebuilds them.
        pairs = pair_list(5)
        graph_from_edge_mask(5, 7, pairs)
        graph_from_edge_mask(5, 7, pair_list(5))
        assert built == [4, 5, 5]
        random.Random(1).shuffle(pairs)
        assert pairs != pair_list(5)
        assert graph_from_edge_mask(5, 7, pairs) == graph_from_pair_mask(5, 7, pairs)
        assert built == [4, 5, 5, 5]

    @pytest.mark.parametrize("n, mask, pairs, message", [
        (3, 8, pair_list(3), "outside"),
        (3, -1, pair_list(3), "outside"),
        (3, 1, [(0, 3)], "not an edge of K3"),
        (3, 1, [(1, 1)], "not an edge of K3"),
        (9, 0, pair_list(9), "0 <= n <= 8, got n=9"),
    ])
    def test_bad_input_rejected(self, n, mask, pairs, message):
        with pytest.raises(ValueError, match=message):
            graph_from_edge_mask(n, mask, pairs)


class TestSample:
    def test_determinism(self):
        a = [serialize_graph6(g) for g in sample_class(9, 50, 123)]
        b = [serialize_graph6(g) for g in sample_class(9, 50, 123)]
        assert a == b

    def test_seeds_differ(self):
        a = [serialize_graph6(g) for g in sample_class(9, 50, 1)]
        b = [serialize_graph6(g) for g in sample_class(9, 50, 2)]
        assert a != b

    def test_all_members(self):
        for g in sample_class(11, 100, 7):
            assert g.n == 11
            assert is_class_member(g)

    def test_n10_histogram_fixture(self):
        hist = {}
        for g in sample_class(10, 1000, 42):
            om = clique_number(g)
            hist[om] = hist.get(om, 0) + 1
        assert hist == SAMPLE_N10_SEED42_OMEGA_HIST

    @pytest.mark.parametrize("n", range(8, 15))
    @pytest.mark.parametrize("seed", [0, 42, 2026])
    def test_stream_matches_stdlib_shuffle(self, n, seed):
        # The sampler inlines random.shuffle; the stdlib call plus the
        # witness search is the reference for every sampled stream.
        rng = random.Random(seed)
        expected = []
        while len(expected) < 200:
            g = triangle_free_complement(n, rng)
            if check_membership(g) is None:
                expected.append(g)
        assert list(sample_class(n, 200, seed)) == expected

    def test_gives_up_on_a_rejecting_window(self, monkeypatch):
        monkeypatch.setattr(corpus, "GIVE_UP_WINDOW", 10)
        monkeypatch.setattr(corpus, "is_class_member", lambda g: False)
        with pytest.raises(RuntimeError) as exc:
            list(sample_class(8, 5, 1))
        assert str(exc.value) == ("sampler giving up at n=8: 0 acceptances in "
                                  "the last 10 attempts (0/5 members emitted so far)")

    def test_range_validation(self):
        with pytest.raises(ValueError):
            next(sample_class(7, 1, 0))
        with pytest.raises(ValueError):
            next(sample_class(15, 1, 0))


class TestPopulationSizes:
    @pytest.mark.parametrize("n", [-1, 0, 8])
    def test_exhaustive_n_outside_range(self, n):
        with pytest.raises(ValueError, match=rf"1 <= n <= 7, got n={n}$"):
            exhaustive_population(n)

    def test_negative_sample_count(self):
        with pytest.raises(ValueError, match=r"count must be >= 0, got -5$"):
            sample_population(9, -5, 1)

    def test_sample_n_outside_range(self):
        with pytest.raises(ValueError, match=r"8 <= n <= 14, got n=7$"):
            sample_population(7, 10, 1)

    def test_negative_seed(self):
        # random.Random(-5) would draw the seed-5 stream under "seed": -5.
        for build in (sample_population, lambda *a: next(sample_class(*a))):
            with pytest.raises(ValueError, match=r"seed must be >= 0, got -5$"):
                build(10, 20, -5)


class TestRunVerification:
    def test_exhaustive_bound_and_oracle(self):
        report = run_verification(exhaustive_population(5),
                                  checks=("bound", "oracle"))
        assert report.graphs == 1024
        assert report.members == 358
        assert report.oracle == {"checked": 1024, "disagreements": 0}
        assert report.violations == []

    def test_exhaustive_lemma_checks(self):
        report = run_verification(exhaustive_population(5),
                                  checks=("lemma1", "lemma2"))
        assert report.violations == []
        assert report.lemma1["pairs_checked"] > 0
        for counts in report.lemma1["properties"].values():
            assert counts["fails"] == 0

    def test_omega5_population_tight(self):
        report = run_verification(explicit_population([extremal_omega5()]),
                                  checks=("bound",))
        assert report.members == 1
        assert report.omega_histogram[5] == {
            "count": 1, "max_chi": 8, "bound": 8, "violations": 0}
        assert report.violations == []

    def test_unknown_check(self):
        for check in ("nope", "lemma2_scope"):
            with pytest.raises(ValueError):
                run_verification(exhaustive_population(3), checks=(check,))

    def test_checks_validated_in_order_without_repeats(self):
        assert validate_checks(["oracle", "bound", "oracle"]) == ("oracle", "bound")
        with pytest.raises(ValueError, match="unknown check 'bogus'"):
            validate_checks(["bound", "bogus"])

    def test_no_checks_rejected(self):
        with pytest.raises(ValueError, match="no checks given") as exc:
            run_verification(exhaustive_population(3), checks=())
        assert str(VALID_CHECKS) in str(exc.value)

    def test_report_json_shape(self):
        report = run_verification(exhaustive_population(4),
                                  checks=("bound", "oracle"))
        d = json.loads(report.to_json())
        assert d["population"] == {"mode": "exhaustive", "n": 4}
        assert set(d) == {"population", "checks", "graphs", "members",
                          "disconnected_members", "omega_histogram",
                          "oracle", "violations"}

    def test_population_blocks(self):
        # Key order is part of the byte-identical report.
        sample = run_verification(sample_population(9, 200, 5)).to_json()
        assert list(json.loads(sample)["population"].items()) == [
            ("mode", "sample"), ("n", 9), ("count", 200), ("seed", 5)]
        explicit = explicit_population([complete_graph(3), cycle(5)])
        d = json.loads(run_verification(explicit).to_json())
        assert list(d["population"].items()) == [
            ("mode", "explicit"), ("n", 5), ("count", 2)]

    def test_population_runs_twice(self):
        pop = explicit_population([complete_graph(3), cycle(5), extremal_omega5()])
        first = run_verification(pop, checks=VALID_CHECKS).to_json()
        assert json.loads(first)["graphs"] == 3
        assert run_verification(pop, checks=VALID_CHECKS).to_json() == first

    def test_jobs_do_not_change_report(self, monkeypatch):
        monkeypatch.setattr(corpus, "CHUNK_SIZE", 64)
        pop = sample_population(9, 200, 5)
        seq = run_verification(pop, checks=("bound",), jobs=1)
        par = run_verification(pop, checks=("bound",), jobs=3)
        assert seq.to_json() == par.to_json()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs, monkeypatch):
        def no_stream(n):
            raise AssertionError("stream started before jobs was checked")
        monkeypatch.setattr(corpus, "iter_all_graphs", no_stream)
        with pytest.raises(ValueError, match=rf"^jobs must be >= 1, got {jobs}$"):
            run_verification(exhaustive_population(3), jobs=jobs)

    def test_chunking_does_not_change_all_checks_report(self, monkeypatch):
        # 256 and 1024 divide the 1,024 graphs, so the last chunk is full.
        checks = ("bound", "lemma1", "lemma2", "oracle")
        pop = exhaustive_population(5)
        reference = run_verification(pop, checks=checks)
        assert reference.lemma1["pairs_checked"] > 0
        assert reference.lemma2["checked"] > 0
        assert len(reference.omega_histogram) == 4
        for jobs in (1, 2):
            for chunk_size in (1, 7, 256, 1024, 4096):
                monkeypatch.setattr(corpus, "CHUNK_SIZE", chunk_size)
                report = run_verification(pop, checks=checks, jobs=jobs)
                assert report.to_json() == reference.to_json(), (jobs, chunk_size)

    def test_merge_rule(self):
        def chunk(omega_row, violation):
            report = CorpusReport({"mode": "explicit", "n": 3}, ("bound", "oracle"))
            report.graphs = report.members = 1
            report.omega_histogram[2] = dict(omega_row, bound=3)
            report.oracle["checked"] = 1
            report.violations.append(violation)
            return report

        total = chunk({"count": 2, "max_chi": 3, "violations": 0}, {"check": "a"})
        total.merge(chunk({"count": 1, "max_chi": 2, "violations": 1}, {"check": "b"}))
        assert (total.graphs, total.members) == (2, 2)
        assert total.omega_histogram == {
            2: {"count": 3, "max_chi": 3, "bound": 3, "violations": 1}}
        assert total.oracle == {"checked": 2, "disagreements": 0}
        assert total.violations == [{"check": "a"}, {"check": "b"}]

    def test_every_violation_recorded_in_order(self, monkeypatch):
        # Each check's second opinion is patched to disagree, so every
        # violation path records; C5 has ten partitioning pairs and omega 2,
        # W6 none and omega 3.
        monkeypatch.setattr(corpus, "complement_oracle_check", lambda g: False)
        monkeypatch.setattr(corpus, "chi_via_matching", lambda g: (99, ()))
        monkeypatch.setattr(corpus, "chromatic_exact", lambda g: (98, ()))
        monkeypatch.setattr(corpus, "_crosscheck_selected", lambda g: True)
        monkeypatch.setattr(corpus, "check_lemma1", lambda g, dec: {
            "properties": {"1.6": {"status": "fails", "witness": [5, 6]}}})

        def records(line, bound):
            return [
                {"check": "oracle", "graph6": line,
                 "detail": "direct=True, complement oracle=False"},
                {"check": "bound", "graph6": line, "detail": f"chi=99 exceeds {bound}"},
                {"check": "engine", "graph6": line,
                 "detail": "matching chi=99, exact chi=98"},
            ]

        c5_pairs = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 0), (2, 4), (3, 0),
                    (3, 1), (4, 1), (4, 2)]
        expected = records("Dhc", "f(2)=3") + [
            {"check": "lemma1", "graph6": "Dhc",
             "detail": f"property 1.6 fails at pair ({v},{w}), witness [5, 6]"}
            for v, w in c5_pairs
        ] + records("E|fG", "f(3)=4") + [
            {"check": "lemma2", "graph6": "E|fG", "detail": "chi=99"}]
        pop = explicit_population([cycle(5), wheel6()])
        for chunk_size in (corpus.CHUNK_SIZE, 1):
            monkeypatch.setattr(corpus, "CHUNK_SIZE", chunk_size)
            report = run_verification(pop, checks=VALID_CHECKS)
            assert report.violations == expected, chunk_size
            assert report.oracle == {"checked": 2, "disagreements": 2}
            assert [row["violations"] for row in report.omega_histogram.values()] == [1, 1]

    def test_empty_graphs_on_zero_and_one_vertex(self):
        # The 0-vertex graph has omega = 0, where f is undefined; its row
        # records bound 0, as the invariants report does.
        report = run_verification(explicit_population([empty_graph(0), empty_graph(1)]),
                                  checks=VALID_CHECKS)
        assert report.members == 2
        d = json.loads(report.to_json())
        assert d["omega_histogram"] == {
            "0": {"count": 1, "max_chi": 0, "bound": 0, "violations": 0},
            "1": {"count": 1, "max_chi": 1, "bound": 1, "violations": 0}}
        assert d["violations"] == []

    def test_disconnected_members_flagged(self):
        # Two disjoint triangles: complement is bipartite, so this is a
        # class member despite being disconnected.
        from chibound.graphs import disjoint_union
        g = disjoint_union(complete_graph(3), complete_graph(3))
        assert is_class_member(g)
        report = run_verification(explicit_population([g]), checks=("bound",))
        assert report.disconnected_members == 1
        assert report.violations == []


class TestTracedGlobals:
    """perfbench/tracer.py measures a layer by wrapping its function where
    chibound.corpus looks it up; a call that bypasses that global goes
    unmeasured without failing anything else."""

    @staticmethod
    def count_calls(monkeypatch, names) -> dict:
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _real=getattr(corpus, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(corpus, name, counted)
        return calls

    def test_every_graph_reaches_the_patched_globals(self, monkeypatch):
        calls = self.count_calls(monkeypatch, ("graph_from_edge_mask", "is_class_member",
                                               "complement_oracle_check"))
        report = run_verification(exhaustive_population(4), checks=VALID_CHECKS)
        assert (report.graphs, report.members) == (64, 41)
        assert calls == {"graph_from_edge_mask": 64, "is_class_member": 64,
                         "complement_oracle_check": 64}

    def test_every_member_reaches_the_patched_globals(self, monkeypatch):
        # One call per member, or per partitioning pair, and the exact engine
        # once per member of the crc32 1% selection.
        selected = sum(zlib.crc32(serialize_graph6(g).encode()) % 100 == 0
                       for g in enumerate_class(5))
        pairs = sum(len(all_partitioning_pairs(g)) for g in enumerate_class(5))
        calls = self.count_calls(monkeypatch, (
            "is_connected", "clique_number", "chi_via_matching", "chromatic_exact",
            "serialize_graph6", "all_partitioning_pairs", "decompose", "check_lemma1"))
        report = run_verification(exhaustive_population(5), checks=VALID_CHECKS)
        members = report.members
        assert (report.graphs, members, report.violations) == (1024, 358, [])
        assert report.lemma1["pairs_checked"] == pairs > 0
        assert selected > 0
        assert calls == {"is_connected": members, "clique_number": members,
                         "chi_via_matching": members, "chromatic_exact": selected,
                         "serialize_graph6": members, "all_partitioning_pairs": members,
                         "decompose": pairs, "check_lemma1": pairs}


class TestPool:
    """run_verification at jobs > 1: the parent pulls the stream and keeps a
    bounded window of chunks in flight."""

    def test_stream_runs_on_the_main_thread(self):
        threads = set()

        def stream():
            for g in iter_all_graphs(4):
                threads.add(threading.current_thread())
                yield g

        report = run_verification(Population(dict, stream), jobs=2)
        assert report.graphs == 64
        assert threads == {threading.main_thread()}

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_graphs_in_flight_bounded(self, monkeypatch, jobs):
        monkeypatch.setattr(corpus, "CHUNK_SIZE", 1)
        merged = 0
        real_merge = CorpusReport.merge

        def merge(self, part):
            nonlocal merged
            real_merge(self, part)
            merged += part.graphs

        monkeypatch.setattr(CorpusReport, "merge", merge)
        graphs = list(iter_all_graphs(5))[:100]
        ahead = []

        def stream():
            for pulled, g in enumerate(graphs, 1):
                ahead.append(pulled - merged)
                yield g

        report = run_verification(Population(dict, stream), jobs=jobs)
        assert (report.graphs, merged) == (100, 100)
        # The window fills, so the workers have work while the parent pulls.
        assert 2 * jobs <= max(ahead) <= (2 * jobs + 1) * corpus.CHUNK_SIZE

    def test_stream_error_surfaces_and_stops_the_pool(self, monkeypatch):
        # Every window falls short of the rate, so the sampler gives up after
        # 600 members: 37 chunks have gone to the workers by then.
        monkeypatch.setattr(corpus, "CHUNK_SIZE", 16)
        monkeypatch.setattr(corpus, "GIVE_UP_WINDOW", 600)
        monkeypatch.setattr(corpus, "GIVE_UP_RATE", 2)
        with pytest.raises(RuntimeError) as exc:
            run_verification(sample_population(8, 10**6, 1), jobs=2)
        assert str(exc.value) == (
            "sampler giving up at n=8: 600 acceptances in the last 600 "
            "attempts (600/1000000 members emitted so far)")
        assert multiprocessing.active_children() == []

    def test_worker_error_surfaces_and_stops_the_pool(self, monkeypatch):
        monkeypatch.setattr(corpus, "CHUNK_SIZE", 4)

        def stream():
            yield from iter_all_graphs(4)
            yield None  # not a graph: the worker that checks it raises
            yield from iter_all_graphs(4)

        with pytest.raises(AttributeError) as exc:
            run_verification(Population(dict, stream), jobs=2)
        assert isinstance(exc.value.__cause__, multiprocessing.pool.RemoteTraceback)
        assert multiprocessing.active_children() == []

    def test_spawned_workers_give_the_pinned_bytes(self):
        # Workers that import chibound afresh: spawn is macOS's default, and
        # forkserver is Linux's from Python 3.14.  The digest is the one
        # test_cli.py pins for "corpus sample 12 300 7" with all four checks.
        script = textwrap.dedent("""\
            import hashlib, multiprocessing
            from chibound.corpus import run_verification, sample_population
            multiprocessing.set_start_method("spawn")
            report = run_verification(sample_population(12, 300, 7),
                                      ("bound", "lemma1", "lemma2", "oracle"), jobs=2)
            print(hashlib.sha256((report.to_json() + "\\n").encode()).hexdigest())
            """)
        env = {**os.environ, "PYTHONPATH": str(Path(chibound.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "9311ae237c191cddf064c57db70401b48ec84b046f4065f1fca6ac0e2b888142\n")
