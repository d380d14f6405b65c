"""Forbidden-pattern detection and class membership.

The class is defined by two forbidden induced subgraphs: the independent
triple, and the 5-vertex pattern obtained by joining two isolated vertices
to (an edge plus an isolated vertex).  A graph is a member iff it contains
neither.  There are three routes to a verdict:

- ``is_class_member`` runs the one pair scan, ``_pair_scan_stop``: for each
  non-adjacent pair, a common non-neighbour, then the vertices of their
  common neighbourhood that each of its members misses; it builds no
  witness and is the fast path that campaigns and the sampler call;
- ``check_membership`` (the CLI's ``check`` and ``structure.decompose``
  call it) runs the same scan and names a non-member by the witness where
  the scan stopped: the pair and its common non-neighbour, or the pair, the
  common neighbour c and the two lowest vertices that c misses;
- ``complement_oracle_check`` re-decides membership on the complement only
  and is the independent cross-check of ``is_class_member``: it takes the
  rows of a triangle-free complement from
  ``graphs.triangle_free_complement_rows`` (the builder
  ``invariants.chi_via_matching`` also uses) and searches them for an
  induced edge-plus-path.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .graphs import Graph, bits, triangle_free_complement_rows

THREE_K1 = "ThreeK1"
TWO_K1_JOIN_K2_K1 = "TwoK1JoinK2K1"


@dataclass(frozen=True, slots=True)
class PatternWitness:
    """Vertex tuple certifying an induced forbidden subgraph.

    For the 5-vertex kind, ``roles`` is (u1, u2, a, b, c): u1u2 is the
    independent pair, ab the edge, c the extra vertex; the induced edges are
    exactly u1a, u1b, u1c, u2a, u2b, u2c, ab.
    """

    kind: str
    vertices: tuple[int, ...]
    roles: Optional[tuple[int, int, int, int, int]] = None

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind, "vertices": list(self.vertices)}
        if self.roles is not None:
            u1, u2, a, b, c = self.roles
            d["roles"] = {"u1": u1, "u2": u2, "a": a, "b": b, "c": c}
        return d


def witness_is_valid(g: Graph, w: PatternWitness) -> bool:
    """Re-check a witness against the graph, independent of the pair scan."""
    if len(set(w.vertices)) != len(w.vertices):
        return False
    if any(not 0 <= v < g.n for v in w.vertices):
        return False
    if w.kind == THREE_K1:
        if len(w.vertices) != 3:
            return False
        x, y, z = w.vertices
        return not (g.has_edge(x, y) or g.has_edge(x, z) or g.has_edge(y, z))
    if w.kind == TWO_K1_JOIN_K2_K1:
        if w.roles is None or len(w.vertices) != 5:
            return False
        u1, u2, a, b, c = w.roles
        if set(w.roles) != set(w.vertices):
            return False
        required = {(u1, a), (u1, b), (u1, c), (u2, a), (u2, b), (u2, c), (a, b)}
        for p, q in combinations(w.roles, 2):
            present = g.has_edge(p, q)
            if ((p, q) in required or (q, p) in required) != present:
                return False
        return True
    return False


def _pair_scan_stop(g: Graph) -> Optional[tuple[int, int, int]]:
    """Where one pass over the non-adjacent pairs u1 < u2 finds g excluded,
    or None if it is a member: (u1, u2, -1) at a common non-neighbour, else
    (u1, u2, c) at the first c of their common neighbourhood C that misses
    two vertices of C.

    A common non-neighbour is a 3K1.  A c that misses a, b in C excludes g,
    since {u1, u2, a, b, c} is the 5-pattern if ab is an edge and {a, b, c}
    is a 3K1 if not.  Every 3K1 contains a non-adjacent pair with a common
    non-neighbour, and every 5-pattern is caught at its pair {u1, u2}, so
    nothing is missed.

    The rows of g.adj are read as they are: a closed neighbourhood
    ``adj[x] | 1 << x`` is formed only for the pair or the common neighbour
    being tested, since most non-members fall at their first pair.
    """
    adj = g.adj
    full = (1 << g.n) - 1
    for u1, a1 in enumerate(adj):
        c1 = a1 | 1 << u1
        later = (full ^ c1) >> u1 << u1  # the non-neighbours above u1
        while later:
            low = later & -later
            later ^= low
            u2 = low.bit_length() - 1
            a2 = adj[u2]
            if c1 | low | a2 != full:  # a common non-neighbour
                return u1, u2, -1
            common = a1 & a2
            rest = common
            while rest:
                low = rest & -rest
                rest ^= low
                miss = common & ~(adj[low.bit_length() - 1] | low)
                if miss & (miss - 1):
                    return u1, u2, low.bit_length() - 1
    return None


def is_class_member(g: Graph) -> bool:
    """Membership verdict from the one pair scan; no witness is built.
    Campaigns and the sampler call it."""
    return _pair_scan_stop(g) is None


def check_membership(g: Graph) -> Optional[PatternWitness]:
    """None for members, else the witness where the pair scan stopped, at
    (u1, u2, c), found without scanning again.

    At c = -1, the 3K1 of u1, u2 and w, their lowest common non-neighbour:
    it is ascending, since a lower w would have stopped the scan at an
    earlier pair.  Otherwise, with a < b the two lowest vertices of the
    common neighbourhood that c misses, the 5-pattern with roles
    (u1, u2, a, b, c) if ab is an edge, else the 3K1 {a, b, c}.  On a
    3K1-free graph any two vertices that c misses are adjacent, so the
    witness is always that 5-pattern."""
    stop = _pair_scan_stop(g)
    if stop is None:
        return None
    u1, u2, c = stop
    adj = g.adj
    if c < 0:
        rest = g.full_mask & ~(adj[u1] | adj[u2] | 1 << u1 | 1 << u2)
        return PatternWitness(THREE_K1, (u1, u2, (rest & -rest).bit_length() - 1))
    a, b = bits(adj[u1] & adj[u2] & ~(adj[c] | 1 << c))[:2]
    if adj[a] >> b & 1:
        roles = (u1, u2, a, b, c)
        return PatternWitness(TWO_K1_JOIN_K2_K1, tuple(sorted(roles)), roles)
    return PatternWitness(THREE_K1, tuple(sorted((a, b, c))))


# ---------------------------------------------------------------------------
# Independent oracle on the complement.
#
# G contains an independent triple iff its complement contains a triangle.
# G contains the 5-pattern iff its complement contains an induced
# K2 union P3: re-deriving from the pattern's 7 edges, the complement on
# {u1,u2,a,b,c} has exactly the edges u1u2, ac, bc -- an edge disjoint from
# an induced 3-vertex path centered at c.

def _has_induced_k2_p3(h: list[int], full: int) -> bool:
    """Induced (edge) + (3-path) with no edges between the two parts.

    Only called on triangle-free graphs, where every 2-edge path is induced:
    so for each edge xy it is enough to find, among the vertices adjacent
    to neither x nor y, one with two neighbours there.
    """
    for x, hx in enumerate(h):
        for y in bits(hx >> x << x):
            allowed = full & ~(hx | h[y])  # hx holds y and h[y] holds x
            for q in bits(allowed):
                pair = h[q] & allowed
                if pair & (pair - 1):
                    return True
    return False


def complement_oracle_check(g: Graph) -> bool:
    """Membership verdict computed only on the complement of g: no triangle
    (``triangle_free_complement_rows`` stops at the first), then no induced
    K2 + P3 on the finished rows."""
    h = triangle_free_complement_rows(g)
    return h is not None and not _has_induced_k2_p3(h, (1 << g.n) - 1)
