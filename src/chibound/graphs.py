"""Immutable simple graphs on at most 64 vertices, with bitset adjacency.

Vertex sets are plain Python ints used as bitmasks; vertex i corresponds to
bit ``1 << i``.  All graph values are immutable: combinators return new
graphs, so they are safe to share between concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

MAX_VERTICES = 64


class GraphFormatError(ValueError):
    """Malformed graph6 or DIMACS input."""


def _byte_table(k: int) -> tuple[tuple[int, ...], ...]:
    """Entry b: the set bit positions of the byte value b at byte k."""
    table: list[tuple[int, ...]] = [()]
    for i in range(8 * k, 8 * k + 8):
        table += [t + (i,) for t in table]
    return tuple(table)


_BYTE_BITS = tuple(_byte_table(k) for k in range(MAX_VERTICES // 8))
_LOW_BYTE_BITS = _BYTE_BITS[0]
_MASK_LIMIT = 1 << MAX_VERTICES


def bits(mask: int) -> tuple[int, ...]:
    """The set bit positions of ``mask`` in ascending order.

    Raises ValueError unless 0 <= mask < 2**64: a vertex set of a graph on at
    most 64 vertices.
    """
    if 0 <= mask < 256:
        return _LOW_BYTE_BITS[mask]
    if not 0 <= mask < _MASK_LIMIT:
        raise ValueError(f"vertex mask {mask} outside [0, 2**{MAX_VERTICES})")
    out = ()
    for table in _BYTE_BITS:
        if not mask:
            break
        out += table[mask & 255]
        mask >>= 8
    return out


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True, slots=True, init=False)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        # Unvalidated (check_invariants does that).  The slot setters cost a
        # third less than the frozen dataclass's object.__setattr__ calls.
        _set_n(self, n)
        _set_adj(self, adj)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max(map(int.bit_count, self.adj), default=0)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            for u in bits(self.adj[v] & ((1 << v) - 1)):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

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


_set_n = Graph.n.__set__  # after decoration: slots=True replaces the class
_set_adj = Graph.adj.__set__


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
    return complement(empty_graph(n))


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, tuple([(full ^ (1 << v)) & ~a for v, a in enumerate(g.adj)]))


def triangle_free_complement_rows(g: Graph) -> list[int] | None:
    """The complement's adjacency rows, or None at its first triangle (an
    independent triple of g).  Each row is tested against the rows built
    before it, so each complement edge is tested once, from its higher end."""
    full = (1 << g.n) - 1
    h = []
    below = 0  # the vertices whose rows are built
    for a in g.adj:
        bit = below + 1
        row = full ^ (a | bit)
        earlier = row & below
        while earlier:
            low = earlier & -earlier
            earlier ^= low
            if row & h[low.bit_length() - 1]:  # a common neighbour
                return None
        h.append(row)
        below |= bit
    return h


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
    """At most one vertex, or a sweep from vertex 0 reaches them all."""
    if g.n <= 1:
        return True
    adj = g.adj
    reached = frontier = 1
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= adj[u]
        frontier = nxt & ~reached
        reached |= frontier
    return reached == g.full_mask


# ---------------------------------------------------------------------------
# graph6 (bit-exact per the published format description)

_SIX_BITS = tuple(format(k, "06b") for k in range(64))  # byte - 63 -> its bits


def parse_graph6(text: str) -> Graph:
    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise GraphFormatError("empty graph6 input")
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
    # The upper triangle column by column: (0,1), (0,2), (1,2), (0,3), ...
    body = "".join([_SIX_BITS[b - 63] for b in data[pos:]])
    if "1" in body[nbits:]:  # padding fills only the last byte
        raise GraphFormatError(f"nonzero padding bit at offset {len(data) - 1}")
    adj = [0] * n
    start = 0
    for v in range(1, n):
        adj[v] = int(body[start:start + v][::-1], 2)
        for u in bits(adj[v]):
            adj[u] |= 1 << v
        start += v
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
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge out of range at line {lineno}")
            if u == v:
                raise GraphFormatError(f"loop at line {lineno}")
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
