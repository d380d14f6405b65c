"""Exact graph invariants: maximum clique (one branch and bound gives both
omega and the lexicographically first maximum clique), chromatic number (two
independent engines), maximum matching, and the chromatic bound function.

The two chromatic engines serve as mutual oracles: a branch-and-bound solver
over DSATUR-ordered assignments, and the clique-cover identity
chi(G) = n - mu(complement(G)) valid whenever G has no independent triple
(every color class then has at most two vertices).  The matching reads the
rows of g, or of its complement by ``graphs.triangle_free_complement_rows``.
"""
from __future__ import annotations

from collections import deque

from .graphs import Graph, bits, triangle_free_complement_rows

DEFAULT_EXACT_LIMIT = 20


class ExactLimitError(ValueError):
    """Graph too large for the exact coloring solver."""


class IndependentTripleError(ValueError):
    """Graph with an independent triple, for which chi_via_matching does
    not hold."""


# ---------------------------------------------------------------------------
# Maximum clique.

def _clique_search(adj: tuple[int, ...], cand: int, size: int, clique: int,
                   best: int, best_mask: int) -> tuple[int, int]:
    """(best, best_mask) after extending ``clique``, of ``size`` vertices,
    by cand: the vertices are tried in ascending order, each included before
    it is excluded, so cliques are met in lexicographic order and, as a tie
    never replaces the best, the first maximum one met is the smallest.  The
    bound: colour cand one class at a time, each class started from its
    highest vertex.  A clique among v and the later vertices meets only the
    classes whose highest vertex is at least v, so the loop stops once
    size + that count <= best."""
    tops = []  # each class's highest vertex, in descending order
    p = cand
    while p:
        tops.append(p.bit_length() - 1)
        avail = p
        while avail:
            v = avail.bit_length() - 1
            avail &= ~adj[v] ^ (1 << v)  # ~adj[v] holds v
            p ^= 1 << v
    count = len(tops)  # the classes whose highest vertex is at least v
    rest = cand
    while rest:
        low = rest & -rest
        v = low.bit_length() - 1
        while tops[count - 1] < v:
            count -= 1
        if size + count <= best:
            break
        rest ^= low
        sub = rest & adj[v]
        if sub:
            best, best_mask = _clique_search(adj, sub, size + 1, clique | low,
                                             best, best_mask)
        elif size >= best:
            best, best_mask = size + 1, clique | low
    return best, best_mask


def clique_number(g: Graph) -> int:
    return _clique_search(g.adj, g.full_mask, 0, 0, 0, 0)[0]


def max_clique(g: Graph, within: int | None = None) -> tuple[int, int]:
    """(size, vertex mask) of the lexicographically smallest maximum clique
    of g, or of its subgraph induced on the vertex mask ``within`` (a
    ValueError if it leaves the graph), from the search that also gives
    ``clique_number``."""
    cand = g.full_mask if within is None else within
    if cand & ~g.full_mask:
        raise ValueError("vertex set not contained in the graph")
    return _clique_search(g.adj, cand, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Exact chromatic number: DSATUR-ordered branch and bound.

def _dsatur_scores(g: Graph) -> list[int]:
    """score[u] = sat(u)·n² + deg(u)·n + (n - 1 - u) with no colour placed
    yet (sat(u) = 0): the vertex of the largest score has the most colours
    on its neighbours, then the highest degree, then the lowest index.
    Colouring u sets score[u] to -1, and each uncoloured neighbour that
    newly sees the colour gains n², so the pick is always
    ``score.index(max(score))``."""
    n = g.n
    return [a.bit_count() * n + n - 1 - u for u, a in enumerate(g.adj)]


def _dsatur_greedy(g: Graph) -> list[int]:
    n = g.n
    adj = g.adj
    n2 = n * n
    score = _dsatur_scores(g)
    colors = [-1] * n
    near = [0] * n  # near[c]: the vertices with a neighbour of colour c
    free = g.full_mask  # the uncoloured vertices
    for _ in range(n):
        v = score.index(max(score))
        score[v] = -1
        free ^= 1 << v
        c = 0
        while near[c] >> v & 1:
            c += 1
        colors[v] = c
        row = adj[v]
        for u in bits(row & free & ~near[c]):
            score[u] += n2
        near[c] |= row
    return colors


def chromatic_exact(g: Graph, clique: tuple[int, int] | None = None
                    ) -> tuple[int, tuple[int, ...]]:
    """Exact chi with a proper coloring witness.

    ``clique`` is ``max_clique(g)`` when the caller already has it; it is
    computed when not given, with the same result.  Raises ExactLimitError
    beyond ``DEFAULT_EXACT_LIMIT`` vertices; for class members
    chi_via_matching remains available at any size.
    """
    if g.n > DEFAULT_EXACT_LIMIT:
        raise ExactLimitError(
            f"exact coloring limited to {DEFAULT_EXACT_LIMIT} vertices (got {g.n}); "
            "use chi_via_matching for graphs without an independent triple")
    n = g.n
    if n == 0:
        return 0, ()
    omega, clique = max_clique(g) if clique is None else clique
    greedy = _dsatur_greedy(g)
    best_k = max(greedy) + 1
    best = list(greedy)
    if best_k == omega:
        return best_k, tuple(best)

    adj = g.adj
    n2 = n * n
    score = _dsatur_scores(g)
    colors = [-1] * n
    near = [0] * n  # near[c]: the vertices with a neighbour of colour c
    free = g.full_mask ^ clique  # the uncoloured vertices
    # Pre-color a maximum clique: valid symmetry breaking for exact search.
    for c, v in enumerate(bits(clique)):
        colors[v] = c
        score[v] = -1
        near[c] = adj[v]
        for u in bits(adj[v] & free):
            score[u] += n2

    def backtrack(used: int, free: int) -> None:
        nonlocal best_k, best
        if used >= best_k:
            return
        top = max(score)
        if top < 0:
            best_k = used
            best = colors[:]
            return
        pick = score.index(top)
        score[pick] = -1
        free ^= 1 << pick
        row = adj[pick]
        for c in range(min(used + 1, best_k - 1)):
            seen = near[c]
            if seen >> pick & 1:
                continue
            colors[pick] = c
            new = bits(row & free & ~seen)
            for u in new:
                score[u] += n2
            near[c] = seen | row
            backtrack(max(used, c + 1), free)
            near[c] = seen
            for u in new:
                score[u] -= n2
        colors[pick] = -1
        score[pick] = top

    backtrack(omega, free)
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


def _find_augmenting_path(rows, match, parent, root, n):
    used = [False] * n
    for i in range(n):
        parent[i] = -1
    base = list(range(n))
    used[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in bits(rows[v]):
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


def _matching(rows, n: int) -> list[int]:
    """match[v] of a maximum matching of the graph with the given bitset
    rows: a greedy warm start, then one augmenting-path search from each
    unmatched root, until 2 * (n // 2) vertices are matched, after which
    every search would fail."""
    match = [-1] * n
    matched = 0
    for v in range(n):  # greedy warm start
        if match[v] == -1:
            for u in bits(rows[v]):
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    matched += 2
                    break
    parent = [-1] * n
    for root in range(n):
        if matched == n - n % 2:  # n // 2 edges: no search can succeed
            break
        if match[root] != -1 or not rows[root]:
            continue
        v = _find_augmenting_path(rows, match, parent, root, n)
        if v != -1:
            matched += 2
        while v != -1:
            pv = parent[v]
            ppv = match[pv]
            match[v] = pv
            match[pv] = v
            v = ppv
    return match


def max_matching(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Exact maximum matching size with a witness edge set."""
    match = _matching(g.adj, g.n)
    edges = tuple((v, u) for v, u in enumerate(match) if v < u)
    return len(edges), edges


def chi_via_matching(g: Graph) -> tuple[int, tuple[int, ...]]:
    """chi(G) = n - mu(complement(G)), valid iff G has no independent triple
    (a triangle of the complement, which raises IndependentTripleError).
    Color classes are the matched complement pairs plus singletons."""
    n = g.n
    h = triangle_free_complement_rows(g)
    if h is None:
        raise IndependentTripleError(
            "chi_via_matching requires a graph with no independent triple")
    match = _matching(h, n)
    colors = [-1] * n
    c = 0
    for v, u in enumerate(match):
        if v < u:
            colors[v] = colors[u] = c
            c += 1
    size = c
    for v in range(n):
        if colors[v] == -1:
            colors[v] = c
            c += 1
    return n - size, tuple(colors)


# ---------------------------------------------------------------------------

def bound_f(omega: int) -> int:
    """Chromatic upper bound for class members: 8 at omega 5, floor(3w/2) else."""
    if omega < 1:
        raise ValueError("omega must be a positive integer")
    if omega == 5:
        return 8
    return 3 * omega // 2


def compute_invariants(g: Graph, engine: str = "auto") -> dict:
    """The invariant report as a JSON dict, the clique as its vertex list;
    engine is 'auto', 'exact' or 'matching'."""
    omega, clique = max_clique(g)
    if engine == "auto":
        try:
            chi, coloring = chi_via_matching(g)
        except IndependentTripleError:
            chi, coloring = chromatic_exact(g, (omega, clique))
    elif engine == "matching":
        chi, coloring = chi_via_matching(g)
    elif engine == "exact":
        chi, coloring = chromatic_exact(g, (omega, clique))
    else:
        raise ValueError(f"unknown chi engine {engine!r}")
    bound = bound_f(omega) if omega >= 1 else 0
    return {
        "n": g.n,
        "omega": omega,
        "chi": chi,
        "delta": g.max_degree(),
        "bound": bound,
        "tight": omega >= 1 and chi == bound,
        "clique": list(bits(clique)),
        "coloring": list(coloring),
    }
