"""Exact graph invariants: maximum clique, chromatic number (two independent
engines), maximum matching, and the chromatic bound function.

The two chromatic engines serve as mutual oracles: a branch-and-bound solver
over DSATUR-ordered assignments, and the clique-cover identity
chi(G) = n - mu(complement(G)) valid whenever G has no independent triple
(every color class then has at most two vertices).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, bits, complement, popcount
from .patterns import find_3K1

DEFAULT_EXACT_LIMIT = 20


class ExactLimitError(ValueError):
    """Graph too large for the exact coloring solver."""


# ---------------------------------------------------------------------------
# Maximum clique: bitset branch and bound with greedy-coloring upper bound.

def _mc_expand(adj: tuple[int, ...], size: int, cand: int, best: int) -> int:
    if not cand:
        return max(best, size)
    order: list[int] = []
    bound: list[int] = []
    p = cand
    color = 0
    while p:
        color += 1
        avail = p
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~adj[v] & ~(1 << v)
            p ^= 1 << v
            order.append(v)
            bound.append(color)
    prefixes = []
    pref = 0
    for v in order:
        prefixes.append(pref)
        pref |= 1 << v
    for i in range(len(order) - 1, -1, -1):
        if size + bound[i] <= best:
            return best
        v = order[i]
        best = _mc_expand(adj, size + 1, adj[v] & prefixes[i], best)
    return best


def clique_number(g: Graph) -> int:
    return _mc_expand(g.adj, 0, g.full_mask, 0)


def max_clique(g: Graph, within: int | None = None) -> tuple[int, int]:
    """(size, vertex mask) of the lexicographically smallest maximum clique
    of g, or of its subgraph induced on the vertex mask ``within``."""
    cand = g.full_mask if within is None else within
    size = need = _mc_expand(g.adj, 0, cand, 0)
    clique = 0
    while need > 0:
        for v in bits(cand):
            if _mc_expand(g.adj, 0, cand & g.adj[v], 0) >= need - 1:
                clique |= 1 << v
                cand &= g.adj[v]
                need -= 1
                break
    return size, clique


# ---------------------------------------------------------------------------
# Exact chromatic number: DSATUR-ordered branch and bound.

def _dsatur_greedy(g: Graph) -> list[int]:
    n = g.n
    colors = [-1] * n
    neighbor_colors = [0] * n  # bitmask of colors seen on neighbors
    degrees = [g.degree(v) for v in range(n)]
    for _ in range(n):
        v = max(
            (u for u in range(n) if colors[u] == -1),
            key=lambda u: (popcount(neighbor_colors[u]), degrees[u], -u),
        )
        c = 0
        while neighbor_colors[v] >> c & 1:
            c += 1
        colors[v] = c
        for u in bits(g.adj[v]):
            neighbor_colors[u] |= 1 << c
    return colors


def chromatic_exact(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact chi with a proper coloring witness.

    Raises ExactLimitError beyond ``DEFAULT_EXACT_LIMIT`` vertices; for class
    members chi_via_matching remains available at any size.
    """
    if g.n > DEFAULT_EXACT_LIMIT:
        raise ExactLimitError(
            f"exact coloring limited to {DEFAULT_EXACT_LIMIT} vertices (got {g.n}); "
            "use chi_via_matching for graphs without an independent triple")
    n = g.n
    if n == 0:
        return 0, ()
    omega, clique = max_clique(g)
    greedy = _dsatur_greedy(g)
    best_k = max(greedy) + 1
    best = list(greedy)
    if best_k == omega:
        return best_k, tuple(best)

    degrees = [g.degree(v) for v in range(n)]
    colors = [-1] * n
    neighbor_colors = [0] * n
    # Pre-color a maximum clique: valid symmetry breaking for exact search.
    clique_vs = list(bits(clique))
    for c, v in enumerate(clique_vs):
        colors[v] = c
        for u in bits(g.adj[v]):
            neighbor_colors[u] |= 1 << c
    uncolored = [v for v in range(n) if colors[v] == -1]

    def backtrack(used: int) -> None:
        nonlocal best_k, best
        if used >= best_k:
            return
        pick = -1
        pick_key = None
        for u in uncolored:
            if colors[u] == -1:
                key = (popcount(neighbor_colors[u]), degrees[u], -u)
                if pick_key is None or key > pick_key:
                    pick, pick_key = u, key
        if pick == -1:
            best_k = used
            best = colors[:]
            return
        limit_c = min(used + 1, best_k - 1)
        for c in range(limit_c):
            if neighbor_colors[pick] >> c & 1:
                continue
            colors[pick] = c
            touched = []
            for u in bits(g.adj[pick]):
                if not neighbor_colors[u] >> c & 1:
                    neighbor_colors[u] |= 1 << c
                    touched.append(u)
            backtrack(max(used, c + 1))
            colors[pick] = -1
            for u in touched:
                neighbor_colors[u] &= ~(1 << c)

    backtrack(omega)
    return best_k, tuple(best)


# ---------------------------------------------------------------------------
# Maximum matching in general graphs (blossom contraction).

def _lca(match, base, parent, a, b):
    used = set()
    while True:
        a = base[a]
        used.add(a)
        if match[a] == -1:
            break
        a = parent[match[a]]
    while True:
        b = base[b]
        if b in used:
            return b
        b = parent[match[b]]


def _mark_path(match, base, blossom, parent, v, b, child):
    while base[v] != b:
        blossom[base[v]] = True
        blossom[base[match[v]]] = True
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


def _find_augmenting_path(adj_lists, match, parent, root, n):
    used = [False] * n
    for i in range(n):
        parent[i] = -1
    base = list(range(n))
    used[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in adj_lists[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                curbase = _lca(match, base, parent, v, to)
                blossom = [False] * n
                _mark_path(match, base, blossom, parent, v, curbase, to)
                _mark_path(match, base, blossom, parent, to, curbase, v)
                for i in range(n):
                    if blossom[base[i]]:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    return to
                used[match[to]] = True
                queue.append(match[to])
    return -1


def max_matching(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Exact maximum matching size with a witness edge set."""
    n = g.n
    adj_lists = [list(bits(a)) for a in g.adj]
    match = [-1] * n
    for v in range(n):  # greedy warm start
        if match[v] == -1:
            for u in adj_lists[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    parent = [-1] * n
    for root in range(n):
        if match[root] != -1:
            continue
        v = _find_augmenting_path(adj_lists, match, parent, root, n)
        while v != -1:
            pv = parent[v]
            ppv = match[pv]
            match[v] = pv
            match[pv] = v
            v = ppv
    size = sum(1 for v in range(n) if match[v] != -1) // 2
    edges = tuple((v, match[v]) for v in range(n) if v < match[v])
    return size, edges


def chi_via_matching(g: Graph) -> tuple[int, tuple[int, ...]]:
    """chi(G) = n - mu(complement(G)), valid iff G has no independent triple.

    Color classes are the matched complement pairs plus singletons.
    """
    if find_3K1(g) is not None:
        raise ValueError(
            "chi_via_matching requires a graph with no independent triple")
    h = complement(g)
    size, edges = max_matching(h)
    colors = [-1] * g.n
    c = 0
    for u, v in edges:
        colors[u] = colors[v] = c
        c += 1
    for v in range(g.n):
        if colors[v] == -1:
            colors[v] = c
            c += 1
    return g.n - size, tuple(colors)


# ---------------------------------------------------------------------------

def bound_f(omega: int) -> int:
    """Chromatic upper bound for class members: 8 at omega 5, floor(3w/2) else."""
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    if omega == 5:
        return 8
    return 3 * omega // 2


@dataclass(frozen=True, slots=True)
class InvariantReport:
    n: int
    omega: int
    chi: int
    delta: int
    bound: int
    tight: bool
    clique: int  # vertex mask
    coloring: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "omega": self.omega,
            "chi": self.chi,
            "delta": self.delta,
            "bound": self.bound,
            "tight": self.tight,
            "clique": list(bits(self.clique)),
            "coloring": list(self.coloring),
        }


def compute_invariants(g: Graph, engine: str = "auto") -> InvariantReport:
    """Full invariant report; engine is 'auto', 'exact' or 'matching'."""
    omega, clique = max_clique(g)
    if engine == "matching" or (engine == "auto" and find_3K1(g) is None):
        chi, coloring = chi_via_matching(g)
    elif engine in ("exact", "auto"):
        chi, coloring = chromatic_exact(g)
    else:
        raise ValueError(f"unknown chi engine {engine!r}")
    bound = bound_f(omega) if omega >= 1 else 0
    return InvariantReport(
        n=g.n,
        omega=omega,
        chi=chi,
        delta=g.max_degree(),
        bound=bound,
        tight=(chi == bound),
        clique=clique,
        coloring=coloring,
    )
