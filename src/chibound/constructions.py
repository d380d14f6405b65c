"""Generators for the building blocks, the extremal witnesses and one
negative control just outside the class.

Every generator self-verifies against the exact solvers (clique number,
matching-based chi, class membership) and raises ConstructionError on any
mismatch, so a misread definition or a corrupted table entry fails loudly
rather than silently skewing a corpus.
"""
from __future__ import annotations

from .graphs import (Graph, MAX_VERTICES, complement, complete_graph,
                     from_edges, join, parse_graph6)
from .invariants import (bound_f, chi_via_matching, chromatic_exact,
                         clique_number)
from .patterns import (TWO_K1_JOIN_K2_K1, check_membership,
                       complement_oracle_check, is_class_member)


class ConstructionError(RuntimeError):
    """A generator's output failed its self-check."""


def cycle(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycles need at least 3 vertices")
    if k > MAX_VERTICES:
        raise ValueError(f"cycle size {k} exceeds {MAX_VERTICES} vertices")
    return from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def wheel6() -> Graph:
    """The 6-vertex wheel: a hub joined to a 5-cycle."""
    return join(complete_graph(1), cycle(5))


def _verify(g: Graph, omega: int, chi: int, family: str) -> Graph:
    got_omega = clique_number(g)
    if got_omega != omega:
        raise ConstructionError(
            f"{family}: clique number {got_omega}, expected {omega}")
    got_chi, _ = chi_via_matching(g)
    if got_chi != chi:
        raise ConstructionError(
            f"{family}: chromatic number {got_chi}, expected {chi}")
    if not is_class_member(g):
        raise ConstructionError(f"{family}: output left the class")
    return g


# One class member with chi = f(omega) for each omega = 1..7, in omega order:
# C5 and the 6-wheel at omega = 2 and 3, and at omega = 5 extremal_omega5()
# less one vertex.  Adding a universal vertex keeps a graph in the class and
# adds 1 to omega and chi, so omega = 6 and 7 are the omega = 5 entry plus one
# and two universal vertices.  Each is of the smallest order an exhaustive
# search of the members with omega <= 7 found.
EXTREMAL_GRAPH6 = (
    "@",
    "Dhc",
    "E|fG",
    "J~[ww]Vu~Q_",
    r"N~{wI|n\{}TtlfqzYZW",
    "O~~xwL^Zznr{jtlrxmujZ",
    r"P~~~x{FVz^m~f{jyu{}\utlk",
)


def extremal_witnesses() -> list[Graph]:
    """EXTREMAL_GRAPH6 parsed, each entry verified as a member with chi = f(omega)."""
    return [_verify(parse_graph6(line), omega, bound_f(omega),
                    f"extremal witness for omega={omega}")
            for omega, line in enumerate(EXTREMAL_GRAPH6, start=1)]


# Non-adjacency table of the 16-vertex graph with clique number 5 and
# chromatic number 8.  Vertex order: v, w, y1..y3, y1'..y3', b1..b4, c1..c4.
OMEGA5_VERTEX_NAMES = (
    "v", "w", "y1", "y2", "y3", "y1p", "y2p", "y3p",
    "b1", "b2", "b3", "b4", "c1", "c2", "c3", "c4",
)

_OMEGA5_NON_ADJACENCY = {
    "v": ("w", "c1", "c2", "c3", "c4"),
    "w": ("v", "b1", "b2", "b3", "b4"),
    "b1": ("w", "c1", "y1p", "y2p", "y3p"),
    "b2": ("w", "c2", "y1", "y2", "y3p"),
    "b3": ("w", "c3", "y1", "y2p", "y3"),
    "b4": ("w", "c4", "y1p", "y2", "y3"),
    "c1": ("v", "b1", "y1", "y2", "y3"),
    "c2": ("v", "b2", "y1p", "y2p", "y3"),
    "c3": ("v", "b3", "y1p", "y2", "y3p"),
    "c4": ("v", "b4", "y1", "y2p", "y3p"),
    "y1": ("y1p", "c1", "b2", "b3", "c4"),
    "y2": ("y2p", "c1", "b2", "c3", "b4"),
    "y3": ("y3p", "c1", "c2", "b3", "b4"),
    "y1p": ("y1", "b1", "c2", "c3", "b4"),
    "y2p": ("y2", "b1", "c2", "b3", "c4"),
    "y3p": ("y3", "b1", "b2", "c3", "c4"),
}


def extremal_omega5() -> Graph:
    """The 16-vertex, 10-regular graph attaining chi = 8 at clique number 5."""
    index = {name: i for i, name in enumerate(OMEGA5_VERTEX_NAMES)}
    n = len(OMEGA5_VERTEX_NAMES)
    g = complement(from_edges(n, [(index[u], index[t])
                                  for u, ts in _OMEGA5_NON_ADJACENCY.items()
                                  for t in ts]))
    # A one-sided table entry leaves its target six non-neighbors, so the
    # degree check also checks that the table is symmetric.
    for u in range(n):
        if g.degree(u) != 10:
            raise ConstructionError(
                f"vertex {OMEGA5_VERTEX_NAMES[u]} has degree {g.degree(u)}, expected 10")
    return _verify(g, 5, 8, "extremal_omega5")


def ramsey_13() -> Graph:
    """The complement of the circulant C13(1, 5), the negative control.

    It has no independent triple, clique number 4 and chromatic number
    7 > f(4) = 6: the bound needs the 5-pattern forbidden too, and this graph
    contains one, on the vertices (0, 1, 3, 4, 11): where the pair scan
    stops, at the pair (0, 1) with c = 3 (its complement there is the edge
    0-1 beside the path 4-3-11).  Its complement is the (3,5)-Ramsey graph
    on 13 vertices.
    """
    g = complement(from_edges(13, [(i, (i + d) % 13)
                                   for i in range(13) for d in (1, 5)]))
    witness = check_membership(g)  # where the pair scan stopped
    if (witness is None or witness.kind != TWO_K1_JOIN_K2_K1
            or witness.vertices != (0, 1, 3, 4, 11)):
        raise ConstructionError(
            f"ramsey_13: witness {witness}, expected a 5-pattern on (0, 1, 3, 4, 11)")
    if complement_oracle_check(g):  # a witness: is_class_member refused it
        raise ConstructionError("ramsey_13: a membership decider accepted it")
    omega = clique_number(g)
    chis = (chromatic_exact(g)[0], chi_via_matching(g)[0])
    if omega != 4 or chis != (7, 7):  # f(4) = 6
        raise ConstructionError(
            f"ramsey_13: clique number {omega} and chromatic numbers {chis}, "
            "expected 4 and (7, 7)")
    return g
