"""Structural decomposition of class members around a partitioning pair.

Given non-adjacent vertices v, w (v of maximum degree), the vertex set of a
class member splits as {v} + {w} + A + B + C with A the common neighbors,
B the private neighbors of v and C those of w.  D is a maximum clique of
the graph induced on A, Y = A - D, and each y in Y misses at least one
vertex of D; the missed vertices form Y', and X = D - Y'.  The seven
structural properties are evaluated literally on M1 = D, M2 = Y, M3 = B,
M4 = C, with v and w kept explicit.
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

PROPERTY_NAMES = ("1.1", "1.2", "1.3", "1.4", "1.5", "1.6", "1.7")


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


def choose_partitioning_pair(g: Graph) -> Optional[tuple[int, int]]:
    """Lowest-index maximum-degree vertex and its lowest-index non-neighbor.

    Absent iff the graph is complete (every pair adjacent).
    """
    if g.n < 2:
        return None
    delta = g.max_degree()
    for v in range(g.n):
        if popcount(g.adj[v]) == delta:
            non = ~g.adj[v] & g.full_mask & ~(1 << v)
            if non:
                return v, (non & -non).bit_length() - 1
            # Max-degree vertex adjacent to everything: graph is complete
            # iff delta == n-1, and then no vertex has a non-neighbor.
            return None
    return None


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


def _common_neighbors(g: Graph, u: int, v: int, within: int) -> int:
    return g.adj[u] & g.adj[v] & within


def check_lemma1(g: Graph, d: Decomposition) -> Lemma1Report:
    """Evaluate properties 1.1-1.7 literally on the decomposition.

    1.4 is stated over M1 + M2 but its proof counts inside Y + Y'; both
    readings are evaluated, the stricter Y + Y' count being the primary
    verdict and the stated reading recorded in the note.
    """
    if d.A | d.B | d.C | (1 << d.v) | (1 << d.w) != g.full_mask:
        raise DecompositionError("decomposition does not cover the graph")
    adj = g.adj
    parts = {"M1": d.D, "M2": d.Y, "M3": d.B, "M4": d.C}
    results: list[tuple[str, PropertyVerdict]] = []

    # 1.1: each part induces a complete graph.
    verdict = PropertyVerdict(HOLDS)
    for name, part in parts.items():
        for p, q in combinations(bits(part), 2):
            if not adj[p] >> q & 1:
                verdict = PropertyVerdict(FAILS, (p, q), f"non-edge inside {name}")
                break
        if verdict.status == FAILS:
            break
    if all(not part for part in parts.values()):
        verdict = PropertyVerdict(VACUOUS)
    results.append(("1.1", verdict))

    # 1.2: every M2 vertex non-adjacent to exactly one M1 vertex.
    if not d.Y:
        results.append(("1.2", PropertyVerdict(VACUOUS)))
    else:
        verdict = PropertyVerdict(HOLDS)
        for y, missed in d.missmap:
            if popcount(missed) != 1:
                verdict = PropertyVerdict(
                    FAILS, (y, *bits(missed)),
                    "M2 vertex must miss exactly one M1 vertex")
                break
        results.append(("1.2", verdict))

    # 1.3: for every non-adjacent m1 in M1, m2 in M2, every vertex of
    # M3 or M4 is adjacent to exactly one of them.
    hyp_pairs_13 = [(m1, m2) for m2 in bits(d.Y) for m1 in bits(d.D & ~adj[m2])]
    others = d.B | d.C
    if not hyp_pairs_13 or not others:
        results.append(("1.3", PropertyVerdict(VACUOUS)))
    else:
        verdict = PropertyVerdict(HOLDS)
        for m1, m2 in hyp_pairs_13:
            for m in bits(others):
                cnt = (adj[m] >> m1 & 1) + (adj[m] >> m2 & 1)
                if cnt != 1:
                    verdict = PropertyVerdict(FAILS, (m1, m2, m))
                    break
            if verdict.status == FAILS:
                break
        results.append(("1.3", verdict))

    # 1.4: pairs inside M3 and inside M4 share at least |M2| - 2 common
    # neighbors.  Primary count inside Y + Y', stated reading over M1 + M2.
    need = popcount(d.Y) - 2
    pairs_14 = [(p, q) for part in (d.B, d.C) for p, q in combinations(bits(part), 2)]
    if not pairs_14:
        results.append(("1.4", PropertyVerdict(VACUOUS)))
    else:
        proof_fail = None
        stated_fail = None
        for p, q in pairs_14:
            if popcount(_common_neighbors(g, p, q, d.Y | d.Yp)) < need:
                proof_fail = proof_fail or (p, q)
            if popcount(_common_neighbors(g, p, q, d.D | d.Y)) < need:
                stated_fail = stated_fail or (p, q)
        note = ("stated M1+M2 reading: "
                + (FAILS if stated_fail else HOLDS))
        if proof_fail:
            results.append(("1.4", PropertyVerdict(FAILS, proof_fail, note)))
        else:
            results.append(("1.4", PropertyVerdict(HOLDS, (), note)))

    # 1.5: adjacent cross pairs b in M3, c in M4 share at least |M2| - 1
    # common neighbors from M1 + M2.
    need = popcount(d.Y) - 1
    cross = [(b, c) for b in bits(d.B) for c in bits(d.C & adj[b])]
    if not cross:
        results.append(("1.5", PropertyVerdict(VACUOUS)))
    else:
        verdict = PropertyVerdict(HOLDS)
        for b, c in cross:
            if popcount(_common_neighbors(g, b, c, d.D | d.Y)) < need:
                verdict = PropertyVerdict(FAILS, (b, c))
                break
        results.append(("1.5", verdict))

    # 1.6: under |M1| >= |M2| >= 4, the cross edges between M3 and M4 are
    # all present or all absent (both parts are already complete by 1.1).
    if not (popcount(d.D) >= popcount(d.Y) >= 4) or not d.B or not d.C:
        results.append(("1.6", PropertyVerdict(VACUOUS)))
    else:
        present = 0
        absent = 0
        witness_edge: tuple[int, ...] = ()
        for b in bits(d.B):
            for c in bits(d.C):
                if adj[b] >> c & 1:
                    present += 1
                else:
                    absent += 1
                    witness_edge = (b, c)
        if present and absent:
            results.append(("1.6", PropertyVerdict(
                FAILS, witness_edge, "mixed cross adjacency")))
        else:
            results.append(("1.6", PropertyVerdict(HOLDS)))

    # 1.7: b in M3 adjacent to distinct c, c' in M4; any m in M1 + M2
    # adjacent to both c and c' is adjacent to b, and any m adjacent to
    # neither is non-adjacent to b.
    verdict = None
    hyp_seen = False
    m1m2 = d.D | d.Y
    for b in bits(d.B):
        cs = list(bits(d.C & adj[b]))
        for c, cp in combinations(cs, 2):
            hyp_seen = True
            both = adj[c] & adj[cp] & m1m2
            neither = ~adj[c] & ~adj[cp] & m1m2
            bad = (both & ~adj[b]) | (neither & adj[b])
            if bad:
                m = (bad & -bad).bit_length() - 1
                verdict = PropertyVerdict(FAILS, (b, c, cp, m))
                break
        if verdict:
            break
    if verdict is None:
        verdict = PropertyVerdict(HOLDS) if hyp_seen else PropertyVerdict(VACUOUS)
    results.append(("1.7", verdict))

    injective = True
    seen = 0
    for _, missed in d.missmap:
        if seen & missed:
            injective = False
        seen |= missed
    return Lemma1Report(tuple(results), missmap_injective=injective)
