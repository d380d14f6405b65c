"""Structural decomposition of class members around a partitioning pair.

Given non-adjacent vertices v, w (v of maximum degree), the vertex set of a
class member splits as {v} + {w} + A + B + C with A the common neighbors,
B the private neighbors of v and C those of w.  D is the lexicographically
first maximum clique of the graph induced on A, Y = A - D, and each y in Y
misses at least one vertex of D; the missed vertices form Y', and
X = D - Y'.  When G[A] has several maximum cliques, the choice of D, and so
every verdict below, depends on the vertex labels.  The seven structural
properties are evaluated literally on M1 = D, M2 = Y, M3 = B, M4 = C, with
v and w kept explicit.  Each property is one function of the ``PROPERTIES``
table, and ``check_lemma1`` evaluates the table in order and returns the
property report as a JSON dict.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Optional

from .graphs import Graph, bits
from .invariants import max_clique
from .patterns import check_membership

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"

class NotInClassError(ValueError):
    """Decomposition requested for a graph outside the class."""


class DecompositionError(ValueError):
    """Invalid pair or inconsistent decomposition input."""


class Decomposition(NamedTuple):
    """The parts of a decomposition as vertex masks (immutable: a tuple)."""
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


def _verdict(status: str, witness: tuple[int, ...] = (), note: str = "") -> dict:
    """A property's JSON verdict; witness and note appear only when non-empty."""
    verdict: dict = {"status": status}
    if witness:
        verdict["witness"] = list(witness)
    if note:
        verdict["note"] = note
    return verdict


def all_partitioning_pairs(g: Graph) -> list[tuple[int, int]]:
    """Every (v, w) with deg v maximal and vw a non-edge (w in either order)."""
    adj = g.adj
    delta = g.max_degree()
    full = g.full_mask
    pairs = []
    for v, a in enumerate(adj):
        if a.bit_count() == delta:
            for w in bits(full & ~(a | 1 << v)):
                pairs.append((v, w))
    return pairs


def choose_partitioning_pair(g: Graph) -> Optional[tuple[int, int]]:
    """Lowest-index maximum-degree vertex and its lowest-index non-neighbor.

    Absent iff every maximum-degree vertex is adjacent to all others.
    """
    pairs = all_partitioning_pairs(g)
    return pairs[0] if pairs else None


def decompose(g: Graph, v: int, w: int, check_class: bool = True) -> Decomposition:
    """The decomposition of g around the non-edge vw.

    A, B and C are the common and the private neighbourhoods of v and w,
    which must cover every other vertex.  D is the lexicographically first
    maximum clique of G[A] (``max_clique(g, A)``), so D, and with it Y, Y'
    and X, depends on the vertex labels when G[A] has more than one maximum
    clique.  Raises DecompositionError for an invalid pair or an uncovered
    vertex, and NotInClassError for a non-member unless check_class is False.
    """
    n = g.n
    adj = g.adj
    if not (0 <= v < n and 0 <= w < n) or v == w:
        raise DecompositionError(f"invalid pair ({v},{w})")
    if adj[v] >> w & 1:
        raise DecompositionError(f"({v},{w}) is an edge; a non-edge is required")
    if check_class:
        witness = check_membership(g)
        if witness is not None:
            raise NotInClassError(
                f"graph is not in the class: {witness.kind} on {witness.vertices}")
    av = adj[v]
    aw = adj[w]
    a = av & aw
    b = av & ~aw & ~(1 << w)
    c = aw & ~av & ~(1 << v)
    uncovered = ((1 << n) - 1) & ~(1 << v | 1 << w | av | aw)
    if uncovered:
        raise DecompositionError(
            f"vertices adjacent to neither endpoint: {list(bits(uncovered))}")
    _, d = max_clique(g, a)
    y = a & ~d
    missmap = []
    yp = 0
    for yy in bits(y):
        missed = d & ~adj[yy]
        missmap.append((yy, missed))
        yp |= missed
    return Decomposition(v, w, a, b, c, d, d & ~yp, y, yp, tuple(missmap))


# The seven properties, each a function (adj, d) -> verdict dict.  Each
# makes one pass over the masks it needs and stops at the first failure,
# whose witness is the first in the order of the property's statement.

def _parts_complete(adj: tuple[int, ...], d: Decomposition) -> dict:
    """1.1: each part induces a complete graph.  The first non-edge pq,
    p < q, of a part is at its lowest p with a non-neighbour above it."""
    if not d.D | d.Y | d.B | d.C:
        return {"status": VACUOUS}
    for name, part in (("M1", d.D), ("M2", d.Y), ("M3", d.B), ("M4", d.C)):
        if part & (part - 1):
            for p in bits(part):
                # Below p, a miss would have been found at the lower vertex.
                missed = part & ~(adj[p] | 1 << p)
                if missed:
                    q = (missed & -missed).bit_length() - 1
                    return _verdict(FAILS, (p, q), f"non-edge inside {name}")
    return {"status": HOLDS}


def _one_miss_per_m2(adj: tuple[int, ...], d: Decomposition) -> dict:
    """1.2: every M2 vertex is non-adjacent to exactly one M1 vertex."""
    if not d.Y:
        return {"status": VACUOUS}
    for y, missed in d.missmap:
        if missed.bit_count() != 1:
            return _verdict(FAILS, (y, *bits(missed)),
                            "M2 vertex must miss exactly one M1 vertex")
    return {"status": HOLDS}


def _split_by_missed_pair(adj: tuple[int, ...], d: Decomposition) -> dict:
    """1.3: for every non-adjacent m1 in M1, m2 in M2, every vertex of M3 or
    M4 is adjacent to exactly one of them: to m1 or m2 as adj[m1] ^ adj[m2]
    says."""
    others = d.B | d.C
    if not others:
        return {"status": VACUOUS}
    dd = d.D
    hyp_seen = False
    for m2 in bits(d.Y):
        row2 = adj[m2]
        for m1 in bits(dd & ~row2):
            hyp_seen = True
            bad = others & ~(adj[m1] ^ row2)
            if bad:
                return _verdict(FAILS, (m1, m2, (bad & -bad).bit_length() - 1))
    return {"status": HOLDS if hyp_seen else VACUOUS}


def _inner_common_neighbors(adj: tuple[int, ...], d: Decomposition) -> dict:
    """1.4: pairs inside M3 and inside M4 share at least |M2| - 2 common
    neighbors.

    Stated over M1 + M2, but its proof counts inside Y + Y'; the stricter
    Y + Y' count is the verdict and the stated reading goes in the note.
    """
    b, c = d.B, d.C
    if not (b & (b - 1) or c & (c - 1)):
        return {"status": VACUOUS}
    need = d.Y.bit_count() - 2
    if need <= 0:  # a count is never negative
        return {"status": HOLDS, "note": "stated M1+M2 reading: " + HOLDS}
    stated = d.D | d.Y
    proof = d.Y | d.Yp
    stated_fails = False
    witness = ()
    for p, q in [(p, q) for part in (b, c) for p, q in combinations(bits(part), 2)]:
        common = adj[p] & adj[q]
        if not stated_fails and (common & stated).bit_count() < need:
            stated_fails = True
        if not witness and (common & proof).bit_count() < need:
            witness = (p, q)
        if stated_fails and witness:
            break
    note = "stated M1+M2 reading: " + (FAILS if stated_fails else HOLDS)
    return _verdict(FAILS if witness else HOLDS, witness, note)


def _cross_common_neighbors(adj: tuple[int, ...], d: Decomposition) -> dict:
    """1.5: adjacent cross pairs b in M3, c in M4 share at least |M2| - 1
    common neighbors from M1 + M2."""
    cc = d.C
    need = d.Y.bit_count() - 1
    m1m2 = d.D | d.Y
    cross = False
    for b in bits(d.B):
        row = adj[b]
        if cc & row:
            if need <= 0:  # a count is never negative
                return {"status": HOLDS}
            cross = True
            for c in bits(cc & row):
                if (row & adj[c] & m1m2).bit_count() < need:
                    return _verdict(FAILS, (b, c))
    return {"status": HOLDS if cross else VACUOUS}


def _cross_all_or_none(adj: tuple[int, ...], d: Decomposition) -> dict:
    """1.6: under |M1| >= |M2| >= 4, the cross edges between M3 and M4 are
    all present or all absent; the witness is the last absent pair."""
    cc = d.C
    if not (d.D.bit_count() >= d.Y.bit_count() >= 4) or not d.B or not cc:
        return {"status": VACUOUS}
    present = False
    last = None
    for b in bits(d.B):
        row = adj[b]
        if cc & row:
            present = True
        if cc & ~row:
            last = b, (cc & ~row).bit_length() - 1
    if present and last:
        return _verdict(FAILS, last, "mixed cross adjacency")
    return {"status": HOLDS}


def _b_follows_c_pair(adj: tuple[int, ...], d: Decomposition) -> dict:
    """1.7: b in M3 adjacent to distinct c, c' in M4; any m in M1 + M2
    adjacent to both c and c' is adjacent to b, and any m adjacent to
    neither is non-adjacent to b: where c and c' agree, b agrees with c."""
    m1m2 = d.D | d.Y
    cc = d.C
    hyp_seen = False
    for b in bits(d.B):
        row = adj[b]
        pair_c = cc & row
        if not pair_c & (pair_c - 1):
            continue
        hyp_seen = True
        for c, cp in combinations(bits(pair_c), 2):
            bad = m1m2 & ~(adj[c] ^ adj[cp]) & (adj[c] ^ row)
            if bad:
                return _verdict(FAILS, (b, c, cp, (bad & -bad).bit_length() - 1))
    return {"status": HOLDS if hyp_seen else VACUOUS}


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


def check_lemma1(g: Graph, d: Decomposition) -> dict:
    """The JSON report of every property of ``PROPERTIES``, in order,
    evaluated literally on the decomposition."""
    if d.A | d.B | d.C | 1 << d.v | 1 << d.w != g.full_mask:
        raise DecompositionError("decomposition does not cover the graph")
    # missmap_injective is a diagnostic, not part of the lemma: no two Y
    # vertices miss the same D vertex.  Y' is the union of the missed sets,
    # so they are pairwise disjoint iff their sizes add up to |Y'|.
    injective = sum([m.bit_count() for _, m in d.missmap]) == d.Yp.bit_count()
    adj = g.adj
    return {"properties": {name: prop(adj, d) for name, prop in PROPERTIES},
            "missmap_injective": injective}
