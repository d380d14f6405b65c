"""Forbidden-pattern detection and class membership.

The class is defined by two forbidden induced subgraphs: the independent
triple, and the 5-vertex pattern obtained by joining two isolated vertices
to (an edge plus an isolated vertex).  A graph is a member iff it contains
neither.  There are three routes to a verdict:

- ``is_class_member`` counts, for each non-adjacent pair, the vertices of
  their common neighbourhood that each of its members misses, and builds no
  witness; it is the fast path that campaigns and the sampler call;
- ``check_membership`` (the CLI's ``check`` and ``structure.decompose``
  call it) decides with ``is_class_member`` first and names a non-member by
  ``find_3K1``, the lexicographically smallest independent triple, else by
  ``find_forbidden_5pattern``, the first 5-pattern the same pair scan
  meets: on a 3K1-free graph, the one at which ``is_class_member`` stopped;
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
    """Re-check a witness against the graph, independent of the finders."""
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


def find_3K1(g: Graph) -> Optional[PatternWitness]:
    """Lexicographically smallest independent triple, if any."""
    adj = g.adj
    full = g.full_mask
    for u in range(g.n - 2):
        non_u = ~adj[u] & full & ~((1 << (u + 1)) - 1)
        for v in bits(non_u):
            rest = non_u & ~adj[v] & ~((1 << (v + 1)) - 1)
            if rest:
                w = (rest & -rest).bit_length() - 1
                return PatternWitness(THREE_K1, (u, v, w))
    return None


def find_forbidden_5pattern(g: Graph) -> Optional[PatternWitness]:
    """The first 5-pattern the pair scan meets, or None if g has none.

    The scan is ``is_class_member``'s: the non-adjacent pairs u1 < u2 in
    ascending order, then each c of their common neighbourhood C, then
    a < b in C, both missed by c, with ab an edge.  Every 5-pattern hangs on
    its pair {u1, u2}, so none is missed.  On a 3K1-free graph any two
    vertices that c misses are adjacent, so the witness is the one at which
    ``is_class_member`` stopped: the same pair and the same c."""
    adj = g.adj
    for u1 in range(g.n):
        for u2 in bits(g.full_mask & ~adj[u1] >> u1 + 1 << u1 + 1):
            common = adj[u1] & adj[u2]
            for c in bits(common):
                miss = common & ~(adj[c] | 1 << c)
                for a in bits(miss):
                    for b in bits(miss & adj[a] >> a + 1 << a + 1):
                        roles = (u1, u2, a, b, c)
                        return PatternWitness(TWO_K1_JOIN_K2_K1,
                                              tuple(sorted(roles)), roles)
    return None


def check_membership(g: Graph) -> Optional[PatternWitness]:
    """None for members, else the witness: the lexicographically smallest
    3K1, else the first 5-pattern the pair scan meets (on a 3K1-free graph,
    the one at which ``is_class_member`` stopped).  ``is_class_member``
    decides, so only a non-member is searched."""
    if is_class_member(g):
        return None
    w = find_3K1(g)
    if w is not None:
        return w
    return find_forbidden_5pattern(g)


def is_class_member(g: Graph) -> bool:
    """Membership verdict from one pass over the non-adjacent pairs u1 < u2.

    A common non-neighbour of u1 and u2 is a 3K1.  Otherwise let C be their
    common neighbourhood: a c in C that misses two vertices a, b of C
    excludes g, since {u1, u2, a, b, c} is the 5-pattern if ab is an edge
    and {a, b, c} is a 3K1 if not.  Every 3K1 contains a non-adjacent pair
    with a common non-neighbour, and every 5-pattern is caught at its pair
    {u1, u2}, so nothing is missed.  No witness is built.

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
            a2 = adj[low.bit_length() - 1]
            if c1 | low | a2 != full:  # a common non-neighbour
                return False
            common = a1 & a2
            rest = common
            while rest:
                low = rest & -rest
                rest ^= low
                miss = common & ~(adj[low.bit_length() - 1] | low)
                if miss & (miss - 1):
                    return False
    return True


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
