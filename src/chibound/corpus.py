"""Population generation and verification campaigns.

Populations are exhaustive labeled enumerations (n <= 7), seeded samples
(8 <= n <= 14, complements of maximal triangle-free graphs, kept when the
grown graph has no induced K2 + P3), or explicit graph lists.
``run_verification`` maps the requested checks over a population and
reduces to a CorpusReport whose violation list the theorems predict to be
empty.  The reduction is deterministic: chunk results are merged in stream
order, so worker count never changes a reported value.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import json
import random
import zlib
from dataclasses import dataclass
from itertools import islice
from operator import xor
from typing import Callable, Iterable, Iterator, Sequence

from .graphs import (Graph, _row_tables, is_connected, serialize_graph6,
                     upper_pairs)
from .invariants import (DEFAULT_EXACT_LIMIT, bound_f, chi_via_matching,
                         chromatic_exact, clique_number)
from .patterns import (_has_induced_k2_p3, complement_oracle_check,
                       is_class_member)
from .structure import (FAILS, HOLDS, PROPERTY_NAMES, VACUOUS,
                        all_partitioning_pairs, check_lemma1, decompose)

VALID_CHECKS = ("bound", "lemma1", "lemma2", "oracle")
_BLOCKS = ("oracle", "lemma1", "lemma2")  # the report's check blocks, JSON order
ENUMERATION_LIMIT = 7
SAMPLE_MIN_N = 8
SAMPLE_MAX_N = 14
GIVE_UP_WINDOW = 20000
GIVE_UP_RATE = 0.001
CHUNK_SIZE = 256  # graphs per worker task


def _check_sample_size(n: int, count: int, seed: int) -> None:
    if not SAMPLE_MIN_N <= n <= SAMPLE_MAX_N:
        raise ValueError(f"sampling supports {SAMPLE_MIN_N} <= n <= "
                         f"{SAMPLE_MAX_N}, got n={n}")
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    if seed < 0:  # random.Random(-s) seeds exactly like random.Random(s)
        raise ValueError(f"seed must be >= 0, got {seed}")


# (n, a copy of pairs, the width-8 row tables of upper_pairs(n)) of the
# last call: a caller may edit its list in place, so every call compares its
# pairs with the copy, unless they are the copy itself (a tuple is its own
# copy: iter_all_graphs passes the cached upper_pairs(n)).
_edge_memo: tuple = (None, (), None)


def graph_from_edge_mask(n: int, mask: int, pairs: Sequence[tuple[int, int]]) -> Graph:
    """The graph on n <= 32 vertices with the edges pairs[i] for the set
    bits i of mask.  Raises ValueError unless pairs lists upper_pairs(n),
    the graph6 order."""
    global _edge_memo
    memo_n, memo_pairs, decoder = _edge_memo
    if n != memo_n or (pairs is not memo_pairs and pairs != memo_pairs):
        if tuple(pairs) != upper_pairs(n):
            raise ValueError(f"edge mask pairs must be upper_pairs({n}), the graph6 order")
        decoder = _row_tables(n, 8)
        _edge_memo = (n, pairs[:], decoder)
    if not 0 <= mask < 1 << len(pairs):
        raise ValueError(f"edge mask {mask} outside [0, 2**{len(pairs)})")
    tables, unpack, size = decoder
    packed = 0
    for table in tables:
        packed |= table[mask & 255]
        mask >>= 8
    return Graph(n, unpack(packed.to_bytes(size, "little")))


def iter_all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, ascending edge-bitmask order."""
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"exhaustive enumeration supports 0 <= n <= "
                         f"{ENUMERATION_LIMIT}, got n={n}")
    pairs = upper_pairs(n)
    for mask in range(1 << len(pairs)):
        yield graph_from_edge_mask(n, mask, pairs)


def enumerate_class(n: int) -> Iterator[Graph]:
    """Every labeled class member on n vertices, exactly once."""
    for g in iter_all_graphs(n):
        if is_class_member(g):
            yield g


def sample_class(n: int, count: int, seed: int) -> Iterator[Graph]:
    """Seeded stream of class members on n vertices.

    Candidates are complements of greedily grown random maximal
    triangle-free graphs H, so they never contain an independent triple,
    and a candidate is a member exactly when H has no induced K2 + P3 (the
    5-pattern's complement).  The complement oracle's search decides that on
    H's rows, and only a kept candidate is built as a Graph; a campaign
    decides it again with is_class_member.  Deterministic per seed; gives
    up if the sustained rejection rate exceeds 99.9%.
    """
    _check_sample_size(n, count, seed)
    getrandbits = random.Random(seed).getrandbits
    base_pairs = list(upper_pairs(n))
    # random.shuffle's Fisher-Yates on getrandbits, inlined: the same draws,
    # so the same stream as rng.shuffle(pairs) for a seed.
    swaps = [(i, (i + 1).bit_length()) for i in range(len(base_pairs) - 1, 0, -1)]
    full = (1 << n) - 1
    rows = [full ^ 1 << v for v in range(n)]  # K_n's rows
    bit = [1 << v for v in range(n)]
    zeros = [0] * n
    emitted = 0
    attempts = 0
    window_accepts = 0
    while emitted < count:
        pairs = base_pairs[:]
        for i, width in swaps:
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            pairs[i], pairs[j] = pairs[j], pairs[i]
        comp = zeros[:]
        for u, v in pairs:
            if comp[u] & comp[v]:  # a common neighbor: uv would close a triangle
                continue
            comp[u] |= bit[v]
            comp[v] |= bit[u]
        attempts += 1
        if not _has_induced_k2_p3(comp, full):
            emitted += 1
            window_accepts += 1
            # comp[v] lies inside rows[v], so the XOR clears it: the complement.
            # (tuple() sizes its result from a list, but grows and trims it from a map.)
            yield Graph(n, tuple(list(map(xor, rows, comp))))
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
    """A campaign's input: two zero-argument functions, one that builds the
    report's ``population`` block and one that starts the graph stream afresh."""
    descriptor: Callable[[], dict]
    stream: Callable[[], Iterator[Graph]]


def exhaustive_population(n: int) -> Population:
    """Every labeled graph on n vertices: the oracle check wants non-members too."""
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"exhaustive campaigns support 1 <= n <= "
                         f"{ENUMERATION_LIMIT}, got n={n}")
    return Population(lambda: {"mode": "exhaustive", "n": n},
                      lambda: iter_all_graphs(n))


def sample_population(n: int, count: int, seed: int) -> Population:
    _check_sample_size(n, count, seed)
    return Population(lambda: {"mode": "sample", "n": n, "count": count, "seed": seed},
                      lambda: sample_class(n, count, seed))


def explicit_population(graphs: Iterable[Graph]) -> Population:
    gs = tuple(graphs)
    return Population(lambda: {"mode": "explicit", "n": max((g.n for g in gs), default=0),
                               "count": len(gs)}, lambda: iter(gs))


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

    def __init__(self, population: dict | None, checks: tuple[str, ...]):
        self.population = population  # None on a chunk's report; merge skips it
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

    def merge(self, part: CorpusReport) -> None:
        """Fold in the report of the chunk that follows this one."""
        self.graphs += part.graphs
        self.members += part.members
        self.disconnected_members += part.disconnected_members
        _add_counts(self.omega_histogram, part.omega_histogram)
        for block in _BLOCKS:
            mine = getattr(self, block)
            if mine is not None:
                _add_counts(mine, getattr(part, block))
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
        for block in _BLOCKS:
            if getattr(self, block) is not None:
                d[block] = getattr(self, block)
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


def _check_member(g: Graph, report: CorpusReport) -> None:
    """The checks that only class members get, those of report.checks."""
    report.members += 1
    connected = is_connected(g)
    if not connected:
        report.disconnected_members += 1

    bound = "bound" in report.checks
    lemma2 = report.lemma2
    if bound or lemma2 is not None:
        omega = clique_number(g)
        chi, _ = chi_via_matching(g)
    if bound:
        hist = report.omega_histogram.get(omega)
        if hist is None:
            hist = report.omega_histogram[omega] = {
                "count": 0, "max_chi": 0,
                "bound": bound_f(omega) if omega >= 1 else 0, "violations": 0}
        hist["count"] += 1
        if chi > hist["max_chi"]:
            hist["max_chi"] = chi
        if chi > hist["bound"]:
            hist["violations"] += 1
            report.add_violation("bound", g,
                                 f"chi={chi} exceeds f({omega})={hist['bound']}")
        # Cross-check the matching engine on a deterministic 1% subsample.
        if g.n <= DEFAULT_EXACT_LIMIT and _crosscheck_selected(g):
            exact_chi, _ = chromatic_exact(g)
            if exact_chi != chi:
                report.add_violation(
                    "engine", g, f"matching chi={chi}, exact chi={exact_chi}")
    if lemma2 is not None and connected and omega == 3:
        lemma2["checked"] += 1
        problems = []
        delta = g.max_degree()
        if delta > 5:
            problems.append(f"delta={delta}")
        if g.n > 8:
            problems.append(f"n={g.n}")
        if chi > 4:
            problems.append(f"chi={chi}")
        if problems:
            report.add_violation("lemma2", g, ", ".join(problems))
    lemma1 = report.lemma1
    if lemma1 is not None:
        pairs = all_partitioning_pairs(g)
        lemma1["pairs_checked"] += len(pairs)
        rows = lemma1["properties"].values()  # PROPERTY_NAMES order
        for v, w in pairs:
            dec = decompose(g, v, w, check_class=False)
            verdicts = check_lemma1(g, dec)["properties"]
            for row, (name, verdict) in zip(rows, verdicts.items()):
                status = verdict["status"]
                row[status] += 1
                if status == FAILS:
                    report.add_violation(
                        "lemma1", g, f"property {name} fails at pair ({v},{w}), "
                                     f"witness {verdict['witness']}")


def _crosscheck_selected(g: Graph) -> bool:
    # Deterministic, worker- and run-independent 1% selection.
    return zlib.crc32(serialize_graph6(g).encode()) % 100 == 0


def _run_chunk(graphs: tuple[Graph, ...], checks: tuple[str, ...]) -> CorpusReport:
    """The report of one chunk.  The graph counts are added once; each graph
    is decided, cross-checked by the complement oracle if asked, and only
    members go on to _check_member.  The deciders are called as this
    module's globals, which a tracer may have wrapped."""
    report = CorpusReport(None, checks)
    report.graphs = len(graphs)
    oracle = report.oracle
    if oracle is not None:
        oracle["checked"] = len(graphs)
    for g in graphs:
        member = is_class_member(g)
        if oracle is not None and complement_oracle_check(g) != member:
            oracle["disagreements"] += 1
            report.add_violation(
                "oracle", g, f"direct={member}, complement oracle={not member}")
        if member:
            _check_member(g, report)
    return report


def validate_checks(checks: Iterable[str]) -> tuple[str, ...]:
    """The requested checks in first-seen order, without repeats; raises
    ValueError if there are none or one is not in VALID_CHECKS."""
    checks_t = tuple(dict.fromkeys(checks))
    if not checks_t:
        raise ValueError(f"no checks given; valid: {VALID_CHECKS}")
    for c in checks_t:
        if c not in VALID_CHECKS:
            raise ValueError(f"unknown check {c!r}; valid: {VALID_CHECKS}")
    return checks_t


def _in_order(pool, jobs: int, func: Callable, chunks: Iterator) -> Iterator:
    """func(chunk) for each chunk, computed on pool, yielded in stream order.

    The calling thread pulls the chunks, so the stream (the sampler, say)
    runs there while the workers check earlier chunks; at most 2 * jobs
    chunks are in flight, which bounds the graphs held ahead of the merge."""
    pending: collections.deque = collections.deque()
    for chunk in chunks:
        pending.append(pool.apply_async(func, (chunk,)))
        if len(pending) == 2 * jobs:
            yield pending.popleft().get()
    while pending:
        yield pending.popleft().get()


def run_verification(population: Population,
                     checks: Iterable[str] = ("bound",),
                     jobs: int = 1) -> CorpusReport:
    checks_t = validate_checks(checks)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    total = CorpusReport(population.descriptor(), checks_t)
    stream = population.stream()
    chunks = iter(lambda: tuple(islice(stream, CHUNK_SIZE)), ())
    func = functools.partial(_run_chunk, checks=checks_t)
    with contextlib.ExitStack() as stack:
        parts = map(func, chunks)
        if jobs > 1:
            import multiprocessing
            pool = stack.enter_context(multiprocessing.Pool(jobs))
            parts = _in_order(pool, jobs, func, chunks)
        for part in parts:
            total.merge(part)
    return total
