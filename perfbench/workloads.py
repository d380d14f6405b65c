"""The benchmark's three workloads: input building, timed units, correctness gates.

Every workload runs *units* (an exhaustive slice, a sampled campaign, or one
round of three CLI passes).  ``measure`` runs units untraced until the time
budget is spent and reports their throughput in reference seconds (see
calibration.py); ``trace`` runs a fixed, seed-determined set of units
untraced and then traced, so its counts repeat exactly for a seed.  Every
unit's output is checked after the clock stops; a unit whose check fails
counts its failed items against the run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from chibound import cli, corpus
from chibound.constructions import cycle, extremal_omega5, wheel6
from chibound.graphs import Graph, serialize_graph6
from chibound.invariants import bound_f
from chibound.patterns import PatternWitness, is_class_member, witness_is_valid
from chibound.structure import FAILS, choose_partitioning_pair

from calibration import Calibrator, reference_seconds
from tracer import Tracer, function_names

HERE = Path(__file__).resolve().parent


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child
    (the pool workers), in MiB; Linux reports ru_maxrss in KiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


class Unit:
    """One timed unit: wall time, items processed and items failed."""

    def __init__(self, key, wall_s: float, items: int, output=None, error=None):
        self.key = key
        self.wall_s = wall_s
        self.ref_s = wall_s  # rescaled by measure()
        self.items = items
        self.output = output
        self.error = error  # set when the unit raised or failed its check
        self.failed = items if error else 0

    def fail(self, reason: str, failed: int | None = None) -> None:
        self.error = self.error or reason
        self.failed = max(self.failed, self.items if failed is None else failed)


class Workload:
    """Subclasses set name, TRACE_UNITS and, in __init__, unit_size (the
    items one unit processes), and implement keys, run_unit and check."""
    name = ""
    TRACE_UNITS = 1
    CORES = 1  # processors a unit keeps busy, calibrated together

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.trace_units = 1 if smoke else self.TRACE_UNITS
        self.unit_size = 0

    def keys(self):
        """Endless, seed-determined sequence of unit keys."""
        raise NotImplementedError

    def run_unit(self, key, **options) -> Unit:
        raise NotImplementedError

    def check(self, units: list[Unit]) -> None:
        """Mark units whose output is wrong; runs after the clock stops."""
        raise NotImplementedError

    def _guarded(self, key, **options) -> Unit:
        try:
            return self.run_unit(key, **options)
        except Exception:  # a unit that raises is counted, not fatal
            traceback.print_exc()
            return Unit(key, 0.0, self.unit_size, error="raised")

    def measure(self, seconds: float) -> tuple[dict, list[Unit], dict]:
        units: list[Unit] = []
        with Calibrator(self.CORES) as calibrator:
            speed = calibrator.speed()
            deadline = perf_counter() + seconds
            for key in self.keys():
                unit = self._guarded(key)
                speed_after = calibrator.speed(unit.wall_s)
                unit.ref_s = reference_seconds(unit.wall_s, speed, speed_after)
                speed = speed_after
                units.append(unit)
                if perf_counter() >= deadline:
                    break
        rss = peak_rss_mb()
        self.check(units)
        good = [u for u in units if not u.error]
        ref_s = sum(u.ref_s for u in good)
        rate = sum(u.items for u in good) / ref_s if good else 0.0
        metrics = {"graphs_per_s": (rate, "1/s"), "peak_rss_mb": (rss, "MB")}
        return metrics, units, self.describe(units)

    def describe(self, units: list[Unit]) -> dict:
        good = [u for u in units if not u.error]
        return {"units": len(units),
                "wall_graphs_per_s": sum(u.items for u in good) / sum(
                    u.wall_s for u in good) if good else 0.0,
                "unit_wall_s": [u.wall_s for u in units],
                "unit_ref_s": [u.ref_s for u in units]}

    def trace(self) -> tuple[dict, list[Unit], Tracer]:
        keys = list(itertools.islice(self.keys(), self.trace_units))
        t0 = perf_counter()
        plain = [self._guarded(k) for k in keys]
        untraced_wall = perf_counter() - t0
        tracer = Tracer()
        with tracer.installed():
            t0 = perf_counter()
            traced = [self._guarded(k) for k in keys]
            traced_wall = perf_counter() - t0
        self.check(plain + traced)
        metrics = layer_metrics(tracer, traced_wall, untraced_wall)
        return metrics, plain + traced, tracer


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-function calls and self time, the ratios measured at the same
    boundaries, and the wall-time account of the traced run."""
    totals = tracer.totals()
    metrics: dict = {}
    self_sum = 0.0
    for name in function_names():
        calls, _, self_s, _ = totals.get(name, (0, 0.0, 0.0, 0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        self_sum += self_s
    calls, _, _, members = totals.get("patterns.is_class_member", (0, 0.0, 0.0, 0))
    metrics["patterns.member_ratio"] = (members / calls if calls else 0.0, "ratio")
    attempts, _, _, emitted = tracer.edges.get(
        ("patterns.is_class_member", "corpus.sample_class"), (0, 0.0, 0.0, 0))
    metrics["corpus.sample_class.attempts"] = (attempts, "count")
    metrics["corpus.sample_class.emitted"] = (emitted, "count")
    metrics["corpus.sample_class.acceptance"] = (
        emitted / attempts if attempts else 0.0, "ratio")
    metrics["corpus.pool.speedup_j2"] = (0.0, "ratio")
    for cmd in STREAM_COMMANDS:
        metrics[f"{cmd}_lines_per_s"] = (0.0, "1/s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.residual_s"] = (traced_wall - self_sum, "s")
    return metrics


# ---------------------------------------------------------------------------
# exhaustive7: the all-checks campaign over every labeled graph on 7 vertices,
# run as slices of 2^15 graphs so that a run measures a fixed time.

EXHAUSTIVE_CHECKS = ("bound", "lemma1", "lemma2", "oracle")
EDGE_BITS = 21  # pairs on 7 vertices
SLICE_BITS = 15
SLICES = 1 << (EDGE_BITS - SLICE_BITS)
# Odd, so p -> p * MIX mod 2^21 permutes the edge masks.
MIX = 0x1B873593 & ((1 << EDGE_BITS) - 1)
PAIRS7 = [(u, v) for v in range(1, 7) for u in range(v)]
PINS_PATH = HERE / "exhaustive7_pins.json"
# The full exhaustive_population(7) campaign with all four checks.
EXHAUSTIVE7_TOTALS = {"graphs": 2_097_152, "members": 58_549, "pairs": 107_352,
                      "lemma2": 6_930, "violations": 0, "disagreements": 0}


class SlicePopulation:
    """Slice k of the 2^21 labeled graphs on 7 vertices: the edge masks
    p * MIX mod 2^21 for p in [k * 2^15, (k + 1) * 2^15).

    Each block of 2^15 consecutive p meets every edge set on vertices 0..5
    exactly once, so every slice is a like-sized cross-section of the
    population (about 915 members); the 64 slices partition it.  Graphs are
    built lazily inside run_verification, as exhaustive_population streams.
    """

    def __init__(self, k: int):
        self.k = k

    def descriptor(self) -> dict:
        return {"mode": "exhaustive-slice", "n": 7, "slice": self.k,
                "slices": SLICES}

    def stream(self):
        full = (1 << EDGE_BITS) - 1
        for p in range(self.k << SLICE_BITS, (self.k + 1) << SLICE_BITS):
            yield corpus.graph_from_edge_mask(7, p * MIX & full, PAIRS7)


def slice_counts(report) -> dict:
    return {"graphs": report.graphs, "members": report.members,
            "pairs": report.lemma1["pairs_checked"],
            "lemma2": report.lemma2["checked"],
            "violations": len(report.violations),
            "disagreements": report.oracle["disagreements"]}


def report_digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def load_pins() -> list[dict]:
    pins = json.loads(PINS_PATH.read_text())["slices"]
    if len(pins) != SLICES:
        raise ValueError(f"{PINS_PATH.name}: {len(pins)} slices, expected {SLICES}")
    for key, want in EXHAUSTIVE7_TOTALS.items():
        got = sum(p[key] for p in pins)
        if got != want:
            raise ValueError(f"{PINS_PATH.name}: slices sum to {got} {key}, "
                             f"the n=7 campaign has {want}")
    return pins


class Exhaustive7(Workload):
    name = "exhaustive7"
    TRACE_UNITS = 8

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.unit_size = 1 << SLICE_BITS
        self.pins = load_pins()
        self.order = list(range(SLICES))
        random.Random(seed).shuffle(self.order)

    def keys(self):
        return itertools.cycle(self.order)

    def run_unit(self, k, **options):
        t0 = perf_counter()
        report = corpus.run_verification(SlicePopulation(k), EXHAUSTIVE_CHECKS, jobs=1)
        return Unit(k, perf_counter() - t0, report.graphs, report)

    def check(self, units):
        for u in units:
            if u.error:
                continue
            pin = self.pins[u.key]
            if report_digest(u.output) != pin["sha256"]:
                got = slice_counts(u.output)
                u.fail(f"slice {u.key}: report differs from its pin; counts "
                       f"{got} vs {({k: pin[k] for k in got})}")


# ---------------------------------------------------------------------------
# sample14: seeded sampled campaigns at n = 14 with two pool workers.

SAMPLE_N = 14
SAMPLE_CHECKS = ("bound", "lemma2")
SAMPLE_JOBS = 2


class Sample14(Workload):
    name = "sample14"
    TRACE_UNITS = 2
    CORES = SAMPLE_JOBS

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        # Two chunks of run_verification's 4096, so both workers get work.
        self.count = self.unit_size = 40 if smoke else 5000

    def keys(self):
        rng = random.Random(self.seed)
        while True:
            yield rng.randrange(1 << 31)

    def run_unit(self, key, jobs=SAMPLE_JOBS):
        t0 = perf_counter()
        report = corpus.run_verification(
            corpus.sample_population(SAMPLE_N, self.count, key),
            SAMPLE_CHECKS, jobs=jobs)
        return Unit(key, perf_counter() - t0, report.graphs, report.to_json())

    def check(self, units):
        for u in units:
            if u.error:
                continue
            report = json.loads(u.output)
            if report["members"] != self.count or report["graphs"] != self.count:
                u.fail(f"campaign {u.key}: {report['members']} members of "
                       f"{report['graphs']} graphs, expected {self.count}")
            elif report["violations"]:
                u.fail(f"campaign {u.key}: {len(report['violations'])} violations")

    def check_determinism(self, parallel: list[Unit], serial: list[Unit]) -> None:
        """The jobs=2 report must be byte-identical to the jobs=1 report."""
        for p, s in zip(parallel, serial):
            if not p.error and (s.error or p.output != s.output):
                p.fail(f"campaign {p.key}: jobs={SAMPLE_JOBS} report differs "
                       "from the jobs=1 report")

    def measure(self, seconds):
        metrics, units, info = super().measure(seconds)
        first = units[0]
        self.check_determinism([first], [self._guarded(first.key, jobs=1)])
        return metrics, units, info

    def trace(self):
        keys = list(itertools.islice(self.keys(), self.trace_units))
        parallel = [self._guarded(k) for k in keys]
        t0 = perf_counter()
        serial = [self._guarded(k, jobs=1) for k in keys]
        untraced_wall = perf_counter() - t0
        tracer = Tracer()
        with tracer.installed():
            t0 = perf_counter()
            traced = [self._guarded(k, jobs=1) for k in keys]
            traced_wall = perf_counter() - t0
        self.check(parallel + serial + traced)
        self.check_determinism(parallel, traced)
        metrics = layer_metrics(tracer, traced_wall, untraced_wall)
        parallel_wall = sum(u.wall_s for u in parallel)
        serial_wall = sum(u.wall_s for u in serial)
        metrics["corpus.pool.speedup_j2"] = (serial_wall / parallel_wall, "ratio")
        return metrics, parallel + serial + traced, tracer


# ---------------------------------------------------------------------------
# stream: closed-loop, single-client CLI passes over a seeded graph6 stream.

STREAM_COMMANDS = ("check", "invariants", "decompose")


def _triangle_free_complement(n: int, rng: random.Random) -> Graph:
    """A candidate of the kind the sampler draws: the complement of a
    greedily grown random maximal triangle-free graph."""
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    rng.shuffle(pairs)
    comp = [0] * n
    for u, v in pairs:
        if not comp[u] & comp[v]:
            comp[u] |= 1 << v
            comp[v] |= 1 << u
    full = (1 << n) - 1
    return Graph(n, tuple((full ^ (1 << v)) & ~comp[v] for v in range(n)))


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    adj = [0] * n
    for v in range(1, n):
        for u in range(v):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))


class Pass:
    """One CLI pass.  Only the first round keeps its text: later rounds keep
    a digest to compare against it, so memory does not grow with rounds."""

    def __init__(self, code: int, wall_s: float, text: str, keep_text: bool):
        self.code = code
        self.wall_s = wall_s
        self.digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
        self.text = text if keep_text else None


def _run_pass(cmd: str, text: str, keep_text: bool) -> Pass:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            t0 = perf_counter()
            code = cli.main([cmd, "-"])
            wall = perf_counter() - t0
    finally:
        sys.stdin = saved
    return Pass(code, wall, out.getvalue(), keep_text)


def _answer_ok(cmd: str, g: Graph, line: str, member: bool, answer: str) -> bool:
    try:
        return _check_answer(cmd, g, line, member, json.loads(answer))
    except (ValueError, KeyError, TypeError, IndexError):  # malformed answer
        return False


def _check_answer(cmd: str, g: Graph, line: str, member: bool, out: dict) -> bool:
    """Re-verify one CLI answer from its witnesses."""
    if cmd == "check":
        if out["graph6"] != line or out["member"] != member:
            return False
        if member:
            return "witness" not in out
        w = out.get("witness")
        if w is None:
            return False
        roles = w.get("roles")
        if roles is not None:
            roles = tuple(roles[r] for r in ("u1", "u2", "a", "b", "c"))
        return witness_is_valid(g, PatternWitness(w["kind"], tuple(w["vertices"]), roles))
    if cmd == "invariants":
        coloring, clique = out["coloring"], out["clique"]
        if out["n"] != g.n or len(coloring) != g.n:
            return False
        if any(coloring[u] == coloring[v] for u, v in g.edges()):
            return False
        if len(set(coloring)) != out["chi"] or len(clique) != out["omega"]:
            return False
        if any(not g.has_edge(u, v) for u, v in itertools.combinations(clique, 2)):
            return False
        if out["omega"] and out["bound"] != bound_f(out["omega"]):
            return False
        return not member or out["chi"] <= out["bound"]
    # decompose: a non-edge pair, the parts partition V, no property fails.
    v, w = out["v"], out["w"]
    parts = [[v], [w]] + [out[k] for k in ("X", "Y", "Yp", "B", "C")]
    covered = sorted(x for part in parts for x in part)
    if g.has_edge(v, w) or covered != list(range(g.n)):
        return False
    return all(p["status"] != FAILS for p in out["properties"].values())


class Stream(Workload):
    name = "stream"
    TRACE_UNITS = 3

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        per_n, gnp = (4, 20) if smoke else (100, 700)
        rng = random.Random(seed)
        entries: list[tuple[Graph, bool]] = []
        for n in range(8, 15):
            entries += [(g, True) for g in corpus.sample_class(n, per_n, rng.randrange(1 << 31))]
        # At n = 8 every candidate is a member, so rejects start at n = 9.
        for n in range(9, 15):
            found = 0
            while found < per_n:
                g = _triangle_free_complement(n, rng)
                if not is_class_member(g):
                    entries.append((g, False))
                    found += 1
        for _ in range(gnp):
            g = _gnp(rng.randint(10, 20), rng.uniform(0.5, 0.9), rng)
            if not is_class_member(g):
                entries.append((g, False))
        entries += [(g, True) for g in (cycle(5), wheel6(), extremal_omega5())]
        rng.shuffle(entries)
        lines = [(serialize_graph6(g), g, m) for g, m in entries]
        # decompose is defined on members with a partitioning pair (the
        # 6-wheel's hub is adjacent to every vertex, so it has none).
        self.inputs = {
            "check": lines,
            "invariants": lines,
            "decompose": [e for e in lines
                          if e[2] and choose_partitioning_pair(e[1]) is not None],
        }
        self.texts = {cmd: "".join(line + "\n" for line, _, _ in entries_)
                      for cmd, entries_ in self.inputs.items()}
        self.unit_size = sum(len(v) for v in self.inputs.values())

    def keys(self):
        return itertools.count()

    def run_unit(self, key, **options):
        passes = {cmd: _run_pass(cmd, self.texts[cmd], keep_text=key == 0)
                  for cmd in STREAM_COMMANDS}
        return Unit(key, sum(p.wall_s for p in passes.values()), self.unit_size, passes)

    def _failed_lines(self, cmd: str, p: Pass) -> int:
        entries = self.inputs[cmd]
        if p.text is None:  # differs from every verified output
            return len(entries)
        answered = p.text.splitlines()
        bad = sum(not _answer_ok(cmd, g, line, m, out)
                  for (line, g, m), out in zip(entries, answered))
        if p.code not in ((0, 2) if cmd == "check" else (0,)):
            # A line that errors aborts the stream: it and every later line
            # count as failed.
            bad += len(entries) - len(answered)
        return bad

    def check(self, units):
        verified: dict[str, int] = {}  # output digest -> failed lines
        for u in sorted(units, key=lambda u: u.key):  # rounds 0 keep the text
            if u.error:
                continue
            bad = 0
            for cmd, p in u.output.items():
                if p.digest not in verified:
                    verified[p.digest] = self._failed_lines(cmd, p)
                bad += verified[p.digest]
            if bad:
                u.fail(f"round {u.key}: {bad} lines failed", bad)

    def rates(self, units: list[Unit]) -> dict:
        good = [u for u in units if not u.error]
        return {f"{cmd}_lines_per_s": (statistics.median(
                    len(self.inputs[cmd]) / u.output[cmd].wall_s for u in good)
                    if good else 0.0, "1/s")
                for cmd in STREAM_COMMANDS}

    def describe(self, units):
        info = super().describe(units)
        info["lines"] = {cmd: len(v) for cmd, v in self.inputs.items()}
        info.update({k: v for k, (v, _) in self.rates(units).items()})
        return info

    def trace(self):
        metrics, units, tracer = super().trace()
        metrics.update(self.rates(units[:self.trace_units]))
        return metrics, units, tracer


WORKLOADS = {w.name: w for w in (Exhaustive7, Sample14, Stream)}
