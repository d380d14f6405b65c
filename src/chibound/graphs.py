"""Immutable simple graphs on at most 64 vertices, with bitset adjacency.

Vertex sets are plain Python ints used as bitmasks; vertex i corresponds to
bit ``1 << i``.  All graph values are immutable: combinators return new
graphs, so they are safe to share between concurrent workers.
"""
from __future__ import annotations

import functools
import re
import struct
from dataclasses import dataclass
from typing import Iterable

MAX_VERTICES = 64
_BLANKS = " \t\r\n"  # the only characters graph6 and DIMACS input treat as blank


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

    def __reduce__(self):
        # One constructor call per graph for pickle, copy and deepcopy, in
        # place of the slotted dataclass's __getstate__/__setstate__ pair.
        return Graph, (self.n, self.adj)

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
    adj = g.adj
    comps = []
    rest = g.full_mask  # the vertices no component holds yet
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        rest ^= comp
    return comps


def is_connected(g: Graph) -> bool:
    """At most one vertex, or the first component holds them all."""
    return g.n <= 1 or connected_components(g)[0] == g.full_mask


# ---------------------------------------------------------------------------
# graph6 (bit-exact per the published format description)
#
# The body is the upper triangle's bits in the order of upper_pairs, six to
# a byte 63 + group, highest bit first, zero-padded in the last byte's low
# bits.  The serializer ORs each row's bits below v into one integer,
# ``upper`` (bit i is pair i), and reads each 6-bit group off it as
# ``upper >> i & 63``, the group's first pair in bit 0, through the 64-entry
# table of graph6 characters keyed that way; the zeros above the last pair
# pad the last group.
#
# The parser reads graphs on n <= 32 vertices through the row tables of
# upper_pairs(n), six pairs a table: one translate puts each body byte's
# first pair in bit 0, and the parser ORs one entry per byte and unpacks the
# n rows with one struct call.  The tables of one n are built on its first
# parse and kept: 1.0 MB for n = 8..20 and 5.9 MB for every n <= 32
# (tracemalloc).  At n = 64 alone they would take 8.5 MB, and 133 MB for
# n = 33..64, so larger graphs read ``upper`` in one ``int(..., 2)`` and
# peel its columns off the low end.  Offsets count in the line as given,
# its leading blanks and header included.

_SIX_BITS = tuple(format(k, "06b") for k in range(64))  # byte - 63 -> its bits
# byte -> its group with the byte's first pair in bit 0, for bytes.translate
_FIRST_PAIR_LOW = bytes(63) + bytes([int(six[::-1], 2) for six in _SIX_BITS]) + bytes(129)
# and back: a group with its first pair in bit 0 -> its graph6 character
_GROUP_CHAR = tuple(chr(63 + int(six[::-1], 2)) for six in _SIX_BITS)
_NOT_GRAPH6 = re.compile("[^?-~]")  # outside bytes 63..126
_TABLE_MAX_N = 32


@functools.cache
def upper_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs u < v of n vertices in graph6 order (0,1), (0,2), (1,2),
    (0,3), ...: bit i of ``upper`` or of an enumeration edge mask is pair i."""
    return tuple((u, v) for v in range(1, n) for u in range(v))


@functools.cache
def _row_tables(n: int, width: int) -> tuple:
    """The row tables of upper_pairs(n) on n <= 32 vertices, the struct
    unpack of the packed rows and their length in bytes, built once per
    (n, width).  Entry g of table k holds the packed rows -- row v at bit
    stride*v, stride 8, 16 or 32 -- of the pairs upper_pairs(n)[width*k + i]
    for the set bits i of g.  Raises ValueError if n is out of range."""
    if not 0 <= n <= _TABLE_MAX_N:
        raise ValueError(f"row tables support 0 <= n <= {_TABLE_MAX_N}, got n={n}")
    stride, row = (8, "B") if n <= 8 else (16, "H") if n <= 16 else (32, "I")
    edges = [1 << (stride * u + v) | 1 << (stride * v + u) for u, v in upper_pairs(n)]
    tables = []
    for k in range(0, len(edges), width):
        table = [0]
        for edge in edges[k:k + width]:  # doubling: bit i adds edges[k + i]
            table += [t | edge for t in table]
        tables.append(tuple(table))
    return tuple(tables), struct.Struct(f"<{n}{row}").unpack, n * stride // 8


def parse_graph6(text: str) -> Graph:
    """The graph of one graph6 line, with or without the ``>>graph6<<``
    header.  Only ASCII space, tab, CR and LF around the line are blank;
    any other character outside ``?``..``~`` is rejected at its offset."""
    start = len(text) - len(text.lstrip(_BLANKS))
    end = len(text.rstrip(_BLANKS))
    if text.startswith(">>graph6<<", start):
        start += len(">>graph6<<")
    if start >= end:
        raise GraphFormatError("empty graph6 input")
    bad = _NOT_GRAPH6.search(text, start, end)
    if bad:
        raise GraphFormatError(f"invalid graph6 byte at offset {bad.start()}")
    data = text.encode("ascii")  # the blanks and header around the line are ASCII
    if data[start] == 126:  # '~': extended vertex count
        if end - start >= 2 and data[start + 1] == 126:
            raise GraphFormatError(
                f"graph counts beyond 2^18 not supported (offset {start + 1})")
        if end - start < 4:
            raise GraphFormatError(f"truncated graph6 header (offset {start})")
        hi, mid, lo = data[start + 1:start + 4]
        n = (hi - 63) << 12 | (mid - 63) << 6 | (lo - 63)
        pos = start + 4
    else:
        n = data[start] - 63
        pos = start + 1
    if n > MAX_VERTICES:
        raise GraphFormatError(f"graph on {n} vertices exceeds the "
                               f"{MAX_VERTICES}-vertex kernel (offset {start})")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if end - pos < nbytes:
        raise GraphFormatError(f"truncated graph6 body at offset {end}")
    if end - pos > nbytes:
        raise GraphFormatError(f"trailing garbage at offset {pos + nbytes}")
    pad = 6 * nbytes - nbits  # the low bits of the last byte
    if (data[end - 1] - 63) & ((1 << pad) - 1):
        raise GraphFormatError(f"nonzero padding bit at offset {end - 1}")
    if n <= _TABLE_MAX_N:
        tables, unpack, size = _row_tables(n, 6)
        packed = 0
        for table, g in zip(tables, data[pos:end].translate(_FIRST_PAIR_LOW)):
            packed |= table[g]
        return Graph(n, unpack(packed.to_bytes(size, "little")))
    body = "".join([_SIX_BITS[b - 63] for b in data[pos:end]])
    upper = int(body[:nbits][::-1], 2)
    adj = [0] * n
    for v in range(1, n):
        adj[v] = col = upper & ((1 << v) - 1)
        upper >>= v
        for u in bits(col):
            adj[u] |= 1 << v
    return Graph(n, tuple(adj))


def serialize_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    upper = nbits = 0
    for v, a in enumerate(g.adj):
        upper |= (a & ((1 << v) - 1)) << nbits
        nbits += v
    return head + "".join([_GROUP_CHAR[upper >> i & 63] for i in range(0, nbits, 6)])


# ---------------------------------------------------------------------------
# DIMACS edge-list input ("p edge n m" header, "e u v" lines, 1-indexed)

def _dimacs_ints(tokens: list[str], lineno: int) -> list[int]:
    """ASCII decimal fields only: int() would also take '1_0', '+1' or '٣'."""
    for t in tokens:
        if not (t.isascii() and t.isdigit()):
            raise GraphFormatError(
                f"expected a non-negative integer, got {t!r} at line {lineno}")
    return [int(t) for t in tokens]


_LINE_BREAK = re.compile("\r\n?|\n")
_FIELD = re.compile(f"[^{_BLANKS}]+")


def parse_dimacs(text: str) -> Graph:
    """Lines end at CR, LF or CRLF and their fields are split at ASCII
    blanks; any other character stays in its field."""
    n = None
    declared_m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(_LINE_BREAK.split(text), start=1):
        parts = _FIELD.findall(raw)
        if not parts or parts[0].startswith("c"):
            continue
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
