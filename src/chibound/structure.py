"""Structural decomposition of class members around a partitioning pair.

Given non-adjacent vertices v, w (v of maximum degree), the vertex set of a
class member splits as {v} + {w} + A + B + C with A the common neighbors,
B the private neighbors of v and C those of w.  D is a maximum clique of
the graph induced on A, Y = A - D, and each y in Y misses at least one
vertex of D; the missed vertices form Y', and X = D - Y'.  The seven
structural properties are evaluated literally on M1 = D, M2 = Y, M3 = B,
M4 = C, with v and w kept explicit.  Each property is one function of the
``PROPERTIES`` table, and ``check_lemma1`` evaluates the table in order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .graphs import Graph, bits, popcount
from .invariants import max_clique
from .patterns import check_membership

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"

class NotInClassError(ValueError):
    """Decomposition requested for a graph outside the class."""


class DecompositionError(ValueError):
    """Invalid pair or inconsistent decomposition input."""


@dataclass(frozen=True, slots=True)
class Decomposition:
    v: int
    w: int
    A: int
    B: int
    C: int
    D: int
    X: int
    Y: int
    Yp: int
    # For each y in Y, the vertices of D non-adjacent to y (a general
    # relation; property 1.2 asserts each image is a singleton).
    missmap: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "v": self.v,
            "w": self.w,
            "X": list(bits(self.X)),
            "Y": list(bits(self.Y)),
            "Yp": list(bits(self.Yp)),
            "B": list(bits(self.B)),
            "C": list(bits(self.C)),
            "missmap": {str(y): list(bits(m)) for y, m in self.missmap},
        }


@dataclass(frozen=True, slots=True)
class PropertyVerdict:
    status: str
    witness: tuple[int, ...] = ()
    note: str = ""

    def to_json_dict(self) -> dict:
        d: dict = {"status": self.status}
        if self.witness:
            d["witness"] = list(self.witness)
        if self.note:
            d["note"] = self.note
        return d


@dataclass(frozen=True, slots=True)
class Lemma1Report:
    properties: tuple[tuple[str, PropertyVerdict], ...]
    # Diagnostics, not part of the lemma: does any pair of distinct Y
    # vertices miss the same D vertex?
    missmap_injective: bool = True

    def verdict(self, name: str) -> PropertyVerdict:
        for k, v in self.properties:
            if k == name:
                return v
        raise KeyError(name)

    @property
    def has_failure(self) -> bool:
        return any(v.status == FAILS for _, v in self.properties)

    def to_json_dict(self) -> dict:
        return {
            "properties": {k: v.to_json_dict() for k, v in self.properties},
            "missmap_injective": self.missmap_injective,
        }


def all_partitioning_pairs(g: Graph) -> list[tuple[int, int]]:
    """Every (v, w) with deg v maximal and vw a non-edge (w in either order)."""
    delta = g.max_degree()
    pairs = []
    for v in range(g.n):
        if popcount(g.adj[v]) != delta:
            continue
        for w in bits(~g.adj[v] & g.full_mask & ~(1 << v)):
            pairs.append((v, w))
    return pairs


def choose_partitioning_pair(g: Graph) -> Optional[tuple[int, int]]:
    """Lowest-index maximum-degree vertex and its lowest-index non-neighbor.

    Absent iff every maximum-degree vertex is adjacent to all others.
    """
    pairs = all_partitioning_pairs(g)
    return pairs[0] if pairs else None


def decompose(g: Graph, v: int, w: int, check_class: bool = True) -> Decomposition:
    if not (0 <= v < g.n and 0 <= w < g.n) or v == w:
        raise DecompositionError(f"invalid pair ({v},{w})")
    if g.has_edge(v, w):
        raise DecompositionError(f"({v},{w}) is an edge; a non-edge is required")
    if check_class:
        witness = check_membership(g)
        if witness is not None:
            raise NotInClassError(
                f"graph is not in the class: {witness.kind} on {witness.vertices}")
    pair_mask = (1 << v) | (1 << w)
    a = g.adj[v] & g.adj[w]
    b = g.adj[v] & ~g.adj[w] & ~pair_mask
    c = g.adj[w] & ~g.adj[v] & ~pair_mask
    uncovered = g.full_mask & ~(pair_mask | a | b | c)
    if uncovered:
        raise DecompositionError(
            f"vertices adjacent to neither endpoint: {list(bits(uncovered))}")
    _, d = max_clique(g, a)
    y = a & ~d
    missmap = []
    yp = 0
    for yy in bits(y):
        missed = d & ~g.adj[yy]
        missmap.append((yy, missed))
        yp |= missed
    x = d & ~yp
    return Decomposition(v=v, w=w, A=a, B=b, C=c, D=d, X=x, Y=y, Yp=yp,
                         missmap=tuple(missmap))


# The seven properties, each a function (adj, d) -> PropertyVerdict.

def _parts_complete(adj: tuple[int, ...], d: Decomposition) -> PropertyVerdict:
    """1.1: each part induces a complete graph."""
    if not d.D | d.Y | d.B | d.C:
        return PropertyVerdict(VACUOUS)
    for name, part in (("M1", d.D), ("M2", d.Y), ("M3", d.B), ("M4", d.C)):
        for p, q in combinations(bits(part), 2):
            if not adj[p] >> q & 1:
                return PropertyVerdict(FAILS, (p, q), f"non-edge inside {name}")
    return PropertyVerdict(HOLDS)


def _one_miss_per_m2(adj: tuple[int, ...], d: Decomposition) -> PropertyVerdict:
    """1.2: every M2 vertex is non-adjacent to exactly one M1 vertex."""
    if not d.Y:
        return PropertyVerdict(VACUOUS)
    for y, missed in d.missmap:
        if popcount(missed) != 1:
            return PropertyVerdict(FAILS, (y, *bits(missed)),
                                   "M2 vertex must miss exactly one M1 vertex")
    return PropertyVerdict(HOLDS)


def _split_by_missed_pair(adj: tuple[int, ...], d: Decomposition) -> PropertyVerdict:
    """1.3: for every non-adjacent m1 in M1, m2 in M2, every vertex of M3 or
    M4 is adjacent to exactly one of them."""
    hyp = [(m1, m2) for m2 in bits(d.Y) for m1 in bits(d.D & ~adj[m2])]
    others = d.B | d.C
    if not hyp or not others:
        return PropertyVerdict(VACUOUS)
    for m1, m2 in hyp:
        for m in bits(others):
            if (adj[m] >> m1 & 1) + (adj[m] >> m2 & 1) != 1:
                return PropertyVerdict(FAILS, (m1, m2, m))
    return PropertyVerdict(HOLDS)


def _inner_common_neighbors(adj: tuple[int, ...], d: Decomposition) -> PropertyVerdict:
    """1.4: pairs inside M3 and inside M4 share at least |M2| - 2 common
    neighbors.

    Stated over M1 + M2, but its proof counts inside Y + Y'; the stricter
    Y + Y' count is the verdict and the stated reading goes in the note.
    """
    pairs = [(p, q) for part in (d.B, d.C) for p, q in combinations(bits(part), 2)]
    if not pairs:
        return PropertyVerdict(VACUOUS)
    need = popcount(d.Y) - 2
    stated_fails = any(popcount(adj[p] & adj[q] & (d.D | d.Y)) < need
                       for p, q in pairs)
    note = "stated M1+M2 reading: " + (FAILS if stated_fails else HOLDS)
    for p, q in pairs:
        if popcount(adj[p] & adj[q] & (d.Y | d.Yp)) < need:
            return PropertyVerdict(FAILS, (p, q), note)
    return PropertyVerdict(HOLDS, note=note)


def _cross_common_neighbors(adj: tuple[int, ...], d: Decomposition) -> PropertyVerdict:
    """1.5: adjacent cross pairs b in M3, c in M4 share at least |M2| - 1
    common neighbors from M1 + M2."""
    cross = [(b, c) for b in bits(d.B) for c in bits(d.C & adj[b])]
    if not cross:
        return PropertyVerdict(VACUOUS)
    need = popcount(d.Y) - 1
    for b, c in cross:
        if popcount(adj[b] & adj[c] & (d.D | d.Y)) < need:
            return PropertyVerdict(FAILS, (b, c))
    return PropertyVerdict(HOLDS)


def _cross_all_or_none(adj: tuple[int, ...], d: Decomposition) -> PropertyVerdict:
    """1.6: under |M1| >= |M2| >= 4, the cross edges between M3 and M4 are
    all present or all absent; the witness is the last absent pair."""
    if not (popcount(d.D) >= popcount(d.Y) >= 4) or not d.B or not d.C:
        return PropertyVerdict(VACUOUS)
    present = any(d.C & adj[b] for b in bits(d.B))
    absent = [(b, c) for b in bits(d.B) for c in bits(d.C & ~adj[b])]
    if present and absent:
        return PropertyVerdict(FAILS, absent[-1], "mixed cross adjacency")
    return PropertyVerdict(HOLDS)


def _b_follows_c_pair(adj: tuple[int, ...], d: Decomposition) -> PropertyVerdict:
    """1.7: b in M3 adjacent to distinct c, c' in M4; any m in M1 + M2
    adjacent to both c and c' is adjacent to b, and any m adjacent to
    neither is non-adjacent to b."""
    m1m2 = d.D | d.Y
    hyp_seen = False
    for b in bits(d.B):
        for c, cp in combinations(bits(d.C & adj[b]), 2):
            hyp_seen = True
            both = adj[c] & adj[cp] & m1m2
            neither = ~adj[c] & ~adj[cp] & m1m2
            bad = (both & ~adj[b]) | (neither & adj[b])
            if bad:
                return PropertyVerdict(FAILS, (b, c, cp, (bad & -bad).bit_length() - 1))
    return PropertyVerdict(HOLDS if hyp_seen else VACUOUS)


PROPERTIES = (
    ("1.1", _parts_complete),
    ("1.2", _one_miss_per_m2),
    ("1.3", _split_by_missed_pair),
    ("1.4", _inner_common_neighbors),
    ("1.5", _cross_common_neighbors),
    ("1.6", _cross_all_or_none),
    ("1.7", _b_follows_c_pair),
)
PROPERTY_NAMES = tuple(name for name, _ in PROPERTIES)


def check_lemma1(g: Graph, d: Decomposition) -> Lemma1Report:
    """Evaluate every property of ``PROPERTIES`` literally on the decomposition."""
    if d.A | d.B | d.C | (1 << d.v) | (1 << d.w) != g.full_mask:
        raise DecompositionError("decomposition does not cover the graph")
    # Y' is the union of the missed sets, so they are pairwise disjoint iff
    # their sizes add up to |Y'|.
    injective = sum(popcount(m) for _, m in d.missmap) == popcount(d.Yp)
    return Lemma1Report(tuple((name, prop(g.adj, d)) for name, prop in PROPERTIES),
                        missmap_injective=injective)
