"""Span tracer that wraps chibound functions where their callers look them up.

Each wrapped call is a span.  Spans are aggregated in memory per
(function, calling span) edge -- calls, total time, self time and the number
of ``True`` results -- because the exhaustive workload makes millions of
them; the table is written out once the run ends.  Self time is a span's
duration minus the time of the wrapped spans nested in it, so the self times
of all spans add up to the time spent inside top-level spans.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter

# (module whose global the caller reads, attribute, is a generator function).
# The benchmark itself calls corpus.run_verification, corpus.graph_from_edge_mask
# and cli.main through the module attribute, so patching those covers it.
TARGETS = (
    ("chibound.corpus", "run_verification", False),
    ("chibound.corpus", "graph_from_edge_mask", False),
    ("chibound.corpus", "sample_class", True),
    ("chibound.corpus", "is_class_member", False),
    ("chibound.corpus", "complement_oracle_check", False),
    ("chibound.corpus", "is_connected", False),
    ("chibound.corpus", "clique_number", False),
    ("chibound.corpus", "chi_via_matching", False),
    ("chibound.corpus", "chromatic_exact", False),
    ("chibound.corpus", "serialize_graph6", False),
    ("chibound.corpus", "all_partitioning_pairs", False),
    ("chibound.corpus", "decompose", False),
    ("chibound.corpus", "check_lemma1", False),
    ("chibound.cli", "main", False),
    ("chibound.cli", "parse_graph6", False),
    ("chibound.cli", "serialize_graph6", False),
    ("chibound.cli", "is_connected", False),
    ("chibound.cli", "check_membership", False),
    ("chibound.cli", "compute_invariants", False),
    ("chibound.cli", "choose_partitioning_pair", False),
    ("chibound.cli", "decompose", False),
    ("chibound.cli", "check_lemma1", False),
    ("chibound.structure", "check_membership", False),
    ("chibound.invariants", "max_clique", False),
    ("chibound.invariants", "clique_number", False),
    ("chibound.invariants", "chi_via_matching", False),
    ("chibound.invariants", "chromatic_exact", False),
)


def span_name(fn) -> str:
    """'corpus.run_verification' for chibound.corpus.run_verification."""
    return f"{fn.__module__.removeprefix('chibound.')}.{fn.__qualname__}"


def function_names() -> list[str]:
    """Every traced function, each once, in TARGETS order."""
    names = []
    for module, attr, _ in TARGETS:
        name = span_name(getattr(importlib.import_module(module), attr))
        if name not in names:
            names.append(name)
    return names


class Tracer:
    def __init__(self):
        # (name, parent name or None) -> [calls, total_s, self_s, true_results]
        self.edges: dict[tuple[str, str | None], list] = {}
        self._stack: list[list] = []  # [name, child_s] of each open span

    def _open(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return perf_counter()

    def _close(self, t0: float, result=None) -> None:
        dt = perf_counter() - t0
        name, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        key = (name, parent[0] if parent else None)
        row = self.edges.get(key)
        if row is None:
            row = self.edges[key] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += dt
        row[2] += dt - child
        row[3] += result is True
        if parent is not None:
            parent[1] += dt

    def wrap(self, fn):
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(t0, result)
        return traced

    def wrap_generator(self, fn):
        """Each next() on the returned generator is one span of fn."""
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                t0 = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(t0)
                yield item
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every TARGETS attribute with its wrapper; restore on exit."""
        wrappers: dict = {}
        saved = []
        try:
            for module_name, attr, is_gen in TARGETS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                if fn not in wrappers:
                    wrappers[fn] = (self.wrap_generator if is_gen else self.wrap)(fn)
                saved.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def totals(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s, true_results] summed over callers."""
        out: dict[str, list] = {}
        for (name, _), row in self.edges.items():
            acc = out.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        return out

    def table(self) -> list[dict]:
        return [{"span": name, "parent": parent, "calls": row[0],
                 "total_s": row[1], "self_s": row[2], "true_results": row[3]}
                for (name, parent), row in sorted(
                    self.edges.items(), key=lambda kv: -kv[1][2])]
