"""Immutable simple graphs on at most 64 vertices, with bitset adjacency.

Vertex sets are plain Python ints used as bitmasks; vertex i corresponds to
bit ``1 << i``.  All graph values are immutable: combinators return new
graphs, so they are safe to share between concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64


class GraphFormatError(ValueError):
    """Malformed graph6 or DIMACS input."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return popcount(self.adj[v])

    def max_degree(self) -> int:
        return max((popcount(a) for a in self.adj), default=0)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for u in bits(self.adj[v] & ((1 << v) - 1)):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(popcount(a) for a in self.adj) // 2

    def check_invariants(self) -> None:
        """Raise ValueError if adjacency is not a valid simple graph."""
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside [0, {MAX_VERTICES}]")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length != n")
        full = self.full_mask
        for v, a in enumerate(self.adj):
            if a & ~full:
                raise ValueError(f"vertex {v} has neighbor bits beyond n-1")
            if a >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            for u in bits(a):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge ({v},{u})")


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def empty_graph(n: int) -> Graph:
    return from_edges(n, [])


def complete_graph(n: int) -> Graph:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, tuple((full ^ (1 << v)) & ~g.adj[v] for v in range(g.n)))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint copies of g and h plus every cross edge (Zykov sum)."""
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"join size {n} exceeds {MAX_VERTICES} vertices")
    gmask = g.full_mask
    hmask = ((1 << n) - 1) ^ gmask
    adj = [a | hmask for a in g.adj]
    adj += [(a << g.n) | gmask for a in h.adj]
    return Graph(n, tuple(adj))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    if n > MAX_VERTICES:
        raise ValueError(f"union size {n} exceeds {MAX_VERTICES} vertices")
    adj = list(g.adj) + [a << g.n for a in h.adj]
    return Graph(n, tuple(adj))


def induced_subgraph(g: Graph, vertex_mask: int) -> Graph:
    """Subgraph on the masked vertices, relabeled in ascending order."""
    if vertex_mask & ~g.full_mask:
        raise ValueError("vertex set not contained in the graph")
    keep = list(bits(vertex_mask))
    index = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for v in keep:
        for u in bits(g.adj[v] & vertex_mask):
            adj[index[v]] |= 1 << index[u]
    return Graph(len(keep), tuple(adj))


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Apply vertex permutation: vertex v goes to position perm[v]."""
    adj = [0] * g.n
    for v in range(g.n):
        for u in bits(g.adj[v]):
            adj[perm[v]] |= 1 << perm[u]
    return Graph(g.n, tuple(adj))


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of the components, sorted by smallest member."""
    seen = 0
    comps = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = g.adj[v] & ~comp
        while frontier:
            comp |= frontier
            nxt = 0
            for u in bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
        comps.append(comp)
        seen |= comp
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


# ---------------------------------------------------------------------------
# graph6 (bit-exact per the published format description)

def parse_graph6(text: str) -> Graph:
    line = text.strip()
    if not line:
        raise GraphFormatError("empty graph6 input")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError(f"invalid graph6 byte at offset {exc.start}") from None
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise GraphFormatError(f"invalid graph6 byte at offset {off}")
    pos = 0
    if data[0] == 126:  # '~': extended vertex count
        if len(data) >= 2 and data[1] == 126:
            raise GraphFormatError("graph counts beyond 2^18 not supported (offset 1)")
        if len(data) < 4:
            raise GraphFormatError("truncated graph6 header (offset 0)")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"graph on {n} vertices exceeds the {MAX_VERTICES}-vertex kernel (offset 0)")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise GraphFormatError(f"truncated graph6 body at offset {len(data)}")
    if len(data) - pos > nbytes:
        raise GraphFormatError(f"trailing garbage at offset {pos + nbytes}")
    adj = [0] * n
    bit = 0
    u, v = 0, 1
    for i in range(pos, pos + nbytes):
        group = data[i] - 63
        for k in range(5, -1, -1):
            if bit >= nbits:
                if group >> k & 1:
                    raise GraphFormatError(f"nonzero padding bit at offset {i}")
                continue
            if group >> k & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            bit += 1
            u += 1
            if u == v:
                u, v = 0, v + 1
    return Graph(n, tuple(adj))


def serialize_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = [n + 63]
    else:
        head = [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    out = []
    group, filled = 0, 0
    for v in range(1, n):
        col = g.adj[v]
        for u in range(v):
            group = (group << 1) | (col >> u & 1)
            filled += 1
            if filled == 6:
                out.append(group + 63)
                group, filled = 0, 0
    if filled:
        out.append((group << (6 - filled)) + 63)
    return bytes(head + out).decode("ascii")


# ---------------------------------------------------------------------------
# DIMACS edge-list input ("p edge n m" header, "e u v" lines, 1-indexed)

def _dimacs_ints(tokens: list[str], lineno: int) -> list[int]:
    """ASCII decimal fields only: int() would also take '1_0', '+1' or '٣'."""
    for t in tokens:
        if not (t.isascii() and t.isdigit()):
            raise GraphFormatError(
                f"expected a non-negative integer, got {t!r} at line {lineno}")
    return [int(t) for t in tokens]


def parse_dimacs(text: str) -> Graph:
    n = None
    declared_m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"duplicate problem line at line {lineno}")
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise GraphFormatError(f"malformed problem line at line {lineno}")
            n, declared_m = _dimacs_ints(parts[2:], lineno)
            if n > MAX_VERTICES:
                raise GraphFormatError(
                    f"graph on {n} vertices exceeds the {MAX_VERTICES}-vertex kernel")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"edge before problem line at line {lineno}")
            if len(parts) != 3:
                raise GraphFormatError(f"malformed edge line at line {lineno}")
            u, v = (x - 1 for x in _dimacs_ints(parts[1:], lineno))
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise GraphFormatError(f"edge out of range at line {lineno}")
            edges.append((u, v))
        else:
            raise GraphFormatError(f"unrecognized line type {parts[0]!r} at line {lineno}")
    if n is None:
        raise GraphFormatError("missing problem line")
    g = from_edges(n, edges)
    # Some DIMACS writers list each edge in both directions; accept either count.
    if declared_m is not None and declared_m not in (g.edge_count(), len(edges)):
        raise GraphFormatError(
            f"problem line declares {declared_m} edges, found {g.edge_count()}")
    return g
