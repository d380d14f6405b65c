"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The exhaustive and
sampled campaign fixtures are shared across criteria and computed once per
session; the whole suite is sized for minutes of single-core runtime.
"""
import pytest

from chibound.constructions import extremal_omega5, extremal_witnesses
from chibound.corpus import (enumerate_class, exhaustive_population,
                             run_verification, sample_class,
                             sample_population)
from chibound.graphs import (parse_graph6, serialize_graph6,
                             triangle_free_complement_rows)
from chibound.invariants import (bound_f, chi_via_matching, chromatic_exact,
                                 clique_number)
from chibound.patterns import complement_oracle_check, is_class_member

EXHAUSTIVE_MAX_N = 7
SAMPLE_COUNT = 100_000
SAMPLE_SEED = 42
SAMPLE_RANGE = range(8, 15)
# Labeled graphs on 1..7 vertices without an independent triple.
TRIPLE_FREE_GRAPHS_UP_TO_7 = 139_729
# Partitioning pairs of the members on 1..7 vertices: 9,040 for n <= 6 and
# 107,352 at n = 7.
PARTITIONING_PAIRS_UP_TO_7 = 116_392
# Connected omega = 3 members on 1..7 vertices: 2,146 for n <= 6 and 6,930
# at n = 7.
LEMMA2_SCOPE_UP_TO_7 = 9_076


def announce(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{description}]: {status}{suffix}")
    assert ok, f"criterion {num} ({description}) failed: {detail}"


class EngineComparingPopulation:
    """exhaustive_population(n) whose stream also compares the two chi
    engines on every graph it yields that has no independent triple, so the
    campaign's single enumeration serves criterion 2 as well."""

    def __init__(self, n: int):
        self.population = exhaustive_population(n)
        self.engine_checked = 0
        self.engine_disagreements = 0

    def descriptor(self) -> dict:
        return self.population.descriptor()

    def stream(self):
        for g in self.population.stream():
            if triangle_free_complement_rows(g) is not None:
                self.engine_checked += 1
                if chromatic_exact(g)[0] != chi_via_matching(g)[0]:
                    self.engine_disagreements += 1
            yield g


@pytest.fixture(scope="session")
def exhaustive_populations():
    return {n: EngineComparingPopulation(n)
            for n in range(1, EXHAUSTIVE_MAX_N + 1)}


@pytest.fixture(scope="session")
def exhaustive_reports(exhaustive_populations):
    checks = ("bound", "lemma1", "lemma2", "oracle")
    return {n: run_verification(population, checks=checks)
            for n, population in exhaustive_populations.items()}


@pytest.fixture(scope="session")
def sample_reports():
    checks = ("bound", "lemma2")
    return {n: run_verification(
                sample_population(n, SAMPLE_COUNT, SAMPLE_SEED), checks=checks)
            for n in SAMPLE_RANGE}


def test_criterion_1_oracle_equivalence(exhaustive_reports):
    disagreements = 0
    checked = 0
    for n, report in exhaustive_reports.items():
        expected = 1 << (n * (n - 1) // 2)
        assert report.oracle["checked"] == expected == report.graphs
        checked += report.oracle["checked"]
        disagreements += report.oracle["disagreements"]
    announce(1, "membership oracle equivalence, exhaustive n <= 7",
             disagreements == 0,
             f"{checked} graphs, {disagreements} disagreements")


def test_criterion_2_chi_engine_equivalence(exhaustive_populations,
                                            exhaustive_reports):
    # Requesting exhaustive_reports runs the campaigns that fill the tallies.
    checked = sum(p.engine_checked for p in exhaustive_populations.values())
    disagreements = sum(p.engine_disagreements
                        for p in exhaustive_populations.values())
    assert checked == TRIPLE_FREE_GRAPHS_UP_TO_7
    announce(2, "chi engines agree on triple-free graphs, n <= 7",
             disagreements == 0,
             f"{checked} graphs, {disagreements} disagreements")


def test_criterion_3_chromatic_bound(exhaustive_reports, sample_reports):
    bad = []
    members = 0
    for report in list(exhaustive_reports.values()) + list(sample_reports.values()):
        members += report.members
        bad.extend(v for v in report.violations
                   if v["check"] in ("bound", "engine"))
    for n, report in sample_reports.items():
        assert report.members == SAMPLE_COUNT
    announce(3, "chi <= f(omega) over exhaustive n <= 7 and 7x100k samples",
             not bad, f"{members} members, {len(bad)} violations")


def test_criterion_4_lemma1_suite(exhaustive_reports):
    fails = 0
    pairs = 0
    for report in exhaustive_reports.values():
        report_pairs = report.lemma1["pairs_checked"]
        pairs += report_pairs
        for counts in report.lemma1["properties"].values():
            assert sum(counts.values()) == report_pairs
            fails += counts["fails"]
    assert pairs == PARTITIONING_PAIRS_UP_TO_7
    announce(4, "structural properties 1.1-1.7 over all partitioning pairs",
             fails == 0, f"{pairs} pairs, {fails} property failures")


def test_criterion_5_extremal_tightness():
    problems = []
    for omega, g in enumerate(extremal_witnesses(), start=1):
        f = bound_f(omega)
        got = (is_class_member(g), complement_oracle_check(g), clique_number(g),
               chi_via_matching(g)[0], chromatic_exact(g)[0])
        if got != (True, True, omega, f, f):
            problems.append(f"omega={omega} -> {got}")
    g = extremal_omega5()
    regular = all(g.degree(v) == 10 for v in range(g.n))
    got = (g.n, clique_number(g), chi_via_matching(g)[0])
    if not regular or got != (16, 5, 8):
        problems.append(f"omega5 -> {got}, 10-regular={regular}")
    announce(5, "in-class members with chi = f(omega) for omega = 1..7",
             not problems, "; ".join(problems))


def test_criterion_6_low_clique_scope(exhaustive_reports, sample_reports):
    bad = []
    checked = 0
    for report in list(exhaustive_reports.values()) + list(sample_reports.values()):
        if report.lemma2:
            checked += report.lemma2["checked"]
        bad.extend(v for v in report.violations if v["check"] == "lemma2")
    exhaustive = sum(r.lemma2["checked"] for r in exhaustive_reports.values())
    assert exhaustive == LEMMA2_SCOPE_UP_TO_7
    announce(6, "connected members with omega=3 have delta<=5, n<=8, chi<=4",
             not bad, f"{checked} members in scope, {len(bad)} violations")


def test_criterion_7_format_fidelity():
    checked = 0
    bad = 0
    generators = extremal_witnesses() + [extremal_omega5()]
    for g in generators:
        checked += 1
        if parse_graph6(serialize_graph6(g)) != g:
            bad += 1
    for n in range(1, EXHAUSTIVE_MAX_N + 1):
        for g in enumerate_class(n):
            checked += 1
            if parse_graph6(serialize_graph6(g)) != g:
                bad += 1
    for g in sample_class(12, 2000, SAMPLE_SEED):
        checked += 1
        if parse_graph6(serialize_graph6(g)) != g:
            bad += 1
    announce(7, "graph6 parse/serialize is the identity on corpus graphs",
             bad == 0, f"{checked} graphs, {bad} mismatches")


def test_criterion_8_worker_determinism():
    pop = sample_population(10, 1000, SAMPLE_SEED)
    seq = run_verification(pop, checks=("bound",), jobs=1)
    par = run_verification(pop, checks=("bound",), jobs=8)
    announce(8, "corpus reports byte-identical across worker counts",
             seq.to_json() == par.to_json())
