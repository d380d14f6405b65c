"""Population generation and verification campaigns.

Populations are exhaustive labeled enumerations (n <= 7), seeded samples
(8 <= n <= 14, triangle-free complements filtered by the full membership
test), or explicit graph lists.  ``run_verification`` maps the requested
checks over a population and reduces to a CorpusReport whose violation
list the theorems predict to be empty.  The reduction is deterministic:
chunk results are merged in stream order, so worker count never changes a
reported value.
"""
from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Graph, complement, is_connected, serialize_graph6
from .invariants import (DEFAULT_EXACT_LIMIT, bound_f, chi_via_matching,
                         chromatic_exact, clique_number)
from .patterns import complement_oracle_check, is_class_member
from .structure import (FAILS, HOLDS, PROPERTY_NAMES, VACUOUS,
                        all_partitioning_pairs, check_lemma1, decompose)

VALID_CHECKS = ("bound", "lemma1", "lemma2", "oracle")
ENUMERATION_LIMIT = 7
SAMPLE_MIN_N = 8
SAMPLE_MAX_N = 14
GIVE_UP_WINDOW = 20000
GIVE_UP_RATE = 0.001


def _check_sample_size(n: int, count: int) -> None:
    if not SAMPLE_MIN_N <= n <= SAMPLE_MAX_N:
        raise ValueError(f"sampling supports {SAMPLE_MIN_N} <= n <= "
                         f"{SAMPLE_MAX_N}, got n={n}")
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")


def _pair_bits(n: int) -> list[tuple[int, int]]:
    return [(u, v) for v in range(1, n) for u in range(v)]


def graph_from_edge_mask(n: int, mask: int, pairs: list[tuple[int, int]]) -> Graph:
    adj = [0] * n
    while mask:
        low = mask & -mask
        u, v = pairs[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        mask ^= low
    return Graph(n, tuple(adj))


def iter_all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, ascending edge-bitmask order."""
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"exhaustive enumeration supports 0 <= n <= "
                         f"{ENUMERATION_LIMIT}, got n={n}")
    pairs = _pair_bits(n)
    for mask in range(1 << len(pairs)):
        yield graph_from_edge_mask(n, mask, pairs)


def enumerate_class(n: int) -> Iterator[Graph]:
    """Every labeled class member on n vertices, exactly once."""
    for g in iter_all_graphs(n):
        if is_class_member(g):
            yield g


def sample_class(n: int, count: int, seed: int) -> Iterator[Graph]:
    """Seeded stream of class members on n vertices.

    Candidates are complements of greedily grown random triangle-free
    graphs (so they never contain an independent triple), then
    rejection-filtered on the full membership test.  Deterministic per
    seed; gives up if the sustained rejection rate exceeds 99.9%.
    """
    _check_sample_size(n, count)
    rng = random.Random(seed)
    base_pairs = _pair_bits(n)
    emitted = 0
    attempts = 0
    window_accepts = 0
    while emitted < count:
        pairs = base_pairs[:]
        rng.shuffle(pairs)
        comp = [0] * n
        for u, v in pairs:
            if not comp[u] & comp[v]:  # no common neighbor: stays triangle-free
                comp[u] |= 1 << v
                comp[v] |= 1 << u
        g = complement(Graph(n, tuple(comp)))
        attempts += 1
        if is_class_member(g):
            emitted += 1
            window_accepts += 1
            yield g
        if attempts % GIVE_UP_WINDOW == 0:
            if window_accepts / GIVE_UP_WINDOW < GIVE_UP_RATE:
                raise RuntimeError(
                    f"sampler giving up at n={n}: {window_accepts} acceptances "
                    f"in the last {GIVE_UP_WINDOW} attempts "
                    f"({emitted}/{count} members emitted so far)")
            window_accepts = 0


# ---------------------------------------------------------------------------
# Populations

@dataclass(frozen=True)
class Population:
    mode: str  # "exhaustive" | "sample" | "explicit"
    n: int
    count: int = 0
    seed: int = 0
    graphs: tuple[Graph, ...] = ()

    def descriptor(self) -> dict:
        d: dict = {"mode": self.mode, "n": self.n}
        if self.mode == "sample":
            d["count"] = self.count
            d["seed"] = self.seed
        if self.mode == "explicit":
            d["count"] = len(self.graphs)
        return d

    def stream(self) -> Iterator[Graph]:
        """Graphs the checks run over; all labeled graphs in exhaustive mode
        (the oracle check wants non-members too), members otherwise."""
        if self.mode == "exhaustive":
            return iter_all_graphs(self.n)
        if self.mode == "sample":
            return sample_class(self.n, self.count, self.seed)
        return iter(self.graphs)


def exhaustive_population(n: int) -> Population:
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"exhaustive campaigns support 1 <= n <= "
                         f"{ENUMERATION_LIMIT}, got n={n}")
    return Population("exhaustive", n)


def sample_population(n: int, count: int, seed: int) -> Population:
    _check_sample_size(n, count)
    return Population("sample", n, count=count, seed=seed)


def explicit_population(graphs: Iterable[Graph]) -> Population:
    gs = tuple(graphs)
    return Population("explicit", max((g.n for g in gs), default=0), graphs=gs)


# ---------------------------------------------------------------------------
# The campaign report, its per-graph checks and the deterministic reduction.

class CorpusReport:
    """Tallies and violation certificates of a campaign, or of one chunk.

    Each chunk worker fills a fresh report and the parent merges the chunk
    reports in stream order.  Merge rule: counts add, an omega row's
    ``max_chi`` takes the maximum, its ``bound`` is fixed by omega, and
    violations append in chunk order.  So worker count and chunk size never
    change a reported value.
    """

    def __init__(self, population: dict, checks: tuple[str, ...]):
        self.population = population
        self.checks = checks
        self.graphs = 0
        self.members = 0
        self.disconnected_members = 0
        self.omega_histogram: dict = {}
        self.violations: list = []
        self.oracle = ({"checked": 0, "disagreements": 0}
                       if "oracle" in checks else None)
        self.lemma1 = ({"pairs_checked": 0,
                        "properties": {p: {HOLDS: 0, VACUOUS: 0, FAILS: 0}
                                       for p in PROPERTY_NAMES}}
                       if "lemma1" in checks else None)
        self.lemma2 = {"checked": 0} if "lemma2" in checks else None

    def add_violation(self, check: str, g: Graph, detail: str) -> None:
        self.violations.append({"check": check, "graph6": serialize_graph6(g),
                                "detail": detail})

    @property
    def has_violations(self) -> bool:
        return bool(self.violations)

    def merge(self, part: CorpusReport) -> None:
        """Fold in the report of the chunk that follows this one."""
        self.graphs += part.graphs
        self.members += part.members
        self.disconnected_members += part.disconnected_members
        for mine, theirs in ((self.omega_histogram, part.omega_histogram),
                             (self.oracle, part.oracle),
                             (self.lemma1, part.lemma1),
                             (self.lemma2, part.lemma2)):
            if mine is not None:
                _add_counts(mine, theirs)
        self.violations += part.violations

    def to_json_dict(self) -> dict:
        d: dict = {
            "population": self.population,
            "checks": list(self.checks),
            "graphs": self.graphs,
            "members": self.members,
            "disconnected_members": self.disconnected_members,
            "omega_histogram": {
                str(k): self.omega_histogram[k] for k in sorted(self.omega_histogram)
            },
        }
        if self.oracle is not None:
            d["oracle"] = self.oracle
        if self.lemma1 is not None:
            d["lemma1"] = self.lemma1
        if self.lemma2 is not None:
            d["lemma2"] = self.lemma2
        d["violations"] = self.violations
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _add_counts(total: dict, part: dict) -> None:
    """The merge rule on nested count blocks; keys new to total are taken over."""
    for key, value in part.items():
        if key not in total:
            total[key] = value
        elif isinstance(value, dict):
            _add_counts(total[key], value)
        elif key == "max_chi":
            total[key] = max(total[key], value)
        elif key != "bound":
            total[key] += value


def _check_graph(g: Graph, report: CorpusReport) -> None:
    checks = report.checks
    report.graphs += 1
    member = is_class_member(g)
    if "oracle" in checks:
        report.oracle["checked"] += 1
        if complement_oracle_check(g) != member:
            report.oracle["disagreements"] += 1
            report.add_violation(
                "oracle", g, f"direct={member}, complement oracle={not member}")
    if not member:
        return
    report.members += 1
    connected = is_connected(g)
    if not connected:
        report.disconnected_members += 1

    need_invariants = "bound" in checks or "lemma2" in checks
    if need_invariants:
        omega = clique_number(g)
        chi, _ = chi_via_matching(g)
    if "bound" in checks:
        bound = bound_f(omega)
        hist = report.omega_histogram.setdefault(
            omega, {"count": 0, "max_chi": 0, "bound": bound, "violations": 0})
        hist["count"] += 1
        hist["max_chi"] = max(hist["max_chi"], chi)
        if chi > bound:
            hist["violations"] += 1
            report.add_violation("bound", g,
                                 f"chi={chi} exceeds f({omega})={bound}")
        # Cross-check the matching engine on a deterministic 1% subsample.
        if g.n <= DEFAULT_EXACT_LIMIT and _crosscheck_selected(g):
            exact_chi, _ = chromatic_exact(g)
            if exact_chi != chi:
                report.add_violation(
                    "engine", g, f"matching chi={chi}, exact chi={exact_chi}")
    if "lemma2" in checks and connected and omega == 3:
        report.lemma2["checked"] += 1
        problems = []
        if g.max_degree() > 5:
            problems.append(f"delta={g.max_degree()}")
        if g.n > 8:
            problems.append(f"n={g.n}")
        if chi > 4:
            problems.append(f"chi={chi}")
        if problems:
            report.add_violation("lemma2", g, ", ".join(problems))
    if "lemma1" in checks:
        for v, w in all_partitioning_pairs(g):
            report.lemma1["pairs_checked"] += 1
            dec = decompose(g, v, w, check_class=False)
            for name, verdict in check_lemma1(g, dec).properties:
                report.lemma1["properties"][name][verdict.status] += 1
                if verdict.status == FAILS:
                    report.add_violation(
                        "lemma1", g, f"property {name} fails at pair ({v},{w}), "
                                     f"witness {list(verdict.witness)}")


def _crosscheck_selected(g: Graph) -> bool:
    # Deterministic, worker- and run-independent 1% selection.
    return zlib.crc32(serialize_graph6(g).encode()) % 100 == 0


def _run_chunk(args: tuple[tuple[Graph, ...], dict, tuple[str, ...]]) -> CorpusReport:
    graphs, population, checks = args
    report = CorpusReport(population, checks)
    for g in graphs:
        _check_graph(g, report)
    return report


def _chunked(stream: Iterator[Graph], size: int) -> Iterator[tuple[Graph, ...]]:
    chunk = []
    for g in stream:
        chunk.append(g)
        if len(chunk) == size:
            yield tuple(chunk)
            chunk = []
    if chunk:
        yield tuple(chunk)


def run_verification(population: Population,
                     checks: Iterable[str] = ("bound",),
                     jobs: int = 1,
                     chunk_size: int = 4096) -> CorpusReport:
    checks_t = tuple(dict.fromkeys(checks))
    for c in checks_t:
        if c not in VALID_CHECKS:
            raise ValueError(f"unknown check {c!r}; valid: {VALID_CHECKS}")
    descriptor = population.descriptor()
    total = CorpusReport(descriptor, checks_t)
    tasks = ((chunk, descriptor, checks_t)
             for chunk in _chunked(population.stream(), chunk_size))
    if jobs <= 1:
        for task in tasks:
            total.merge(_run_chunk(task))
    else:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            for part in pool.imap(_run_chunk, tasks):
                total.merge(part)
    return total
