"""Independent oracles used to validate the solvers.

The brute-force oracles (``bf_*``) are deliberately naive (subset
enumeration, permutation scans, exhaustive recursion).  The references are
the slower versions of the package's fast paths, kept as they were before
those were replaced.  Neither shares a code path with the package
implementations it checks.
"""
from __future__ import annotations

import random
from itertools import combinations, permutations

from chibound.graphs import (MAX_VERTICES, Graph, GraphFormatError, complement,
                             from_edges)
from chibound.invariants import bound_f
from chibound.patterns import THREE_K1, TWO_K1_JOIN_K2_K1, PatternWitness

# u1=0, u2=1, a=2, b=3, c=4
PATTERN_EDGES = frozenset(
    {(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)})


def bits_generator(mask: int):
    """Reference for ``graphs.bits``: yield the set bit positions of a
    non-negative mask, lowest first, one lowest-set-bit step at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_graph6_bitwise(text: str) -> Graph:
    """Reference for ``graphs.parse_graph6``: the same checks in the same
    order, then the body decoded one bit at a time, walking (u, v) through
    the upper triangle column by column.  Offsets count in the text as
    given: ``at`` is the length of the blanks and header before the line."""
    at = 0
    while at < len(text) and text[at] in " \t\r\n":  # ASCII blanks only
        at += 1
    line = text[at:].rstrip(" \t\r\n")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
        at += len(">>graph6<<")
    if not line:
        raise GraphFormatError("empty graph6 input")
    for off, char in enumerate(line):  # the first character outside 63..126
        if not 63 <= ord(char) <= 126:
            raise GraphFormatError(f"invalid graph6 byte at offset {at + off}")
    data = line.encode("ascii")
    if data[0] == 126:  # '~': extended vertex count
        if len(data) >= 2 and data[1] == 126:
            raise GraphFormatError(
                f"graph counts beyond 2^18 not supported (offset {at + 1})")
        if len(data) < 4:
            raise GraphFormatError(f"truncated graph6 header (offset {at})")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    if n > MAX_VERTICES:
        raise GraphFormatError(f"graph on {n} vertices exceeds the "
                               f"{MAX_VERTICES}-vertex kernel (offset {at})")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise GraphFormatError(f"truncated graph6 body at offset {at + len(data)}")
    if len(data) - pos > nbytes:
        raise GraphFormatError(f"trailing garbage at offset {at + pos + nbytes}")
    adj = [0] * n
    bit = 0
    u, v = 0, 1
    for i in range(pos, pos + nbytes):
        group = data[i] - 63
        for k in range(5, -1, -1):
            if bit >= nbits:
                if group >> k & 1:
                    raise GraphFormatError(
                        f"nonzero padding bit at offset {at + i}")
                continue
            if group >> k & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            bit += 1
            u += 1
            if u == v:
                u, v = 0, v + 1
    return Graph(n, tuple(adj))


def serialize_graph6_bitwise(g: Graph) -> str:
    """Reference for ``graphs.serialize_graph6``: the upper triangle walked
    one bit at a time, column by column, each 6 bits flushed as a byte."""
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


_SIX_BYTE = {format(k, "06b"): chr(63 + k) for k in range(64)}  # bits -> byte


def serialize_graph6_sliced(g: Graph) -> str:
    """Reference for ``graphs.serialize_graph6``, its body before the group
    table: ``upper`` formatted as a binary string, reversed so that pair 0
    comes first, and sliced into 6-character groups looked up as bytes."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    upper = nbits = 0
    for v, a in enumerate(g.adj):
        upper |= (a & ((1 << v) - 1)) << nbits
        nbits += v
    width = (nbits + 5) // 6 * 6
    body = format(upper, f"0{width}b")[::-1]  # zeros above nbits pad the last group
    return head + "".join([_SIX_BYTE[body[i:i + 6]] for i in range(0, width, 6)])


def graph_from_pair_mask(n: int, mask: int, pairs) -> Graph:
    """The graph with the edges pairs[i] for the set bits i of mask."""
    return from_edges(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return from_edges(n, edges)


def bf_independent_triple(g: Graph):
    for tri in combinations(range(g.n), 3):
        if not any(g.has_edge(u, v) for u, v in combinations(tri, 2)):
            return tri
    return None


def bf_has_5pattern(g: Graph) -> bool:
    for sub in combinations(range(g.n), 5):
        for perm in permutations(range(5)):
            ok = True
            for i, j in combinations(range(5), 2):
                want = (min(perm[i], perm[j]), max(perm[i], perm[j])) in PATTERN_EDGES
                if g.has_edge(sub[i], sub[j]) != want:
                    ok = False
                    break
            if ok:
                return True
    return False


def bf_max_matching(g: Graph) -> int:
    edges = g.edges()

    def best(idx: int, used: int) -> int:
        if idx == len(edges):
            return 0
        u, v = edges[idx]
        skip = best(idx + 1, used)
        if not (used >> u & 1 or used >> v & 1):
            take = 1 + best(idx + 1, used | 1 << u | 1 << v)
            return max(skip, take)
        return skip

    return best(0, 0)


def has_augmenting_path(g: Graph, matching: set[tuple[int, int]]) -> bool:
    """Alternating BFS/DFS search for an augmenting path, blossom-free by
    exhaustive alternating-walk enumeration (fine at n <= 10)."""
    mate = {}
    for u, v in matching:
        mate[u] = v
        mate[v] = u
    free = [v for v in range(g.n) if v not in mate]

    def walk(v: int, visited: frozenset[int], need_matched: bool) -> bool:
        for u in range(g.n):
            if u in visited or not g.has_edge(v, u):
                continue
            if need_matched:
                if mate.get(v) == u and walk(u, visited | {u}, False):
                    return True
            else:
                if mate.get(v) == u:
                    continue
                if u not in mate:
                    return True
                if walk(u, visited | {u}, True):
                    return True
        return False

    return any(walk(s, frozenset([s]), False) for s in free)


def bf_is_k_colorable(g: Graph, k: int) -> bool:
    colors = [-1] * g.n

    def assign(v: int) -> bool:
        if v == g.n:
            return True
        used = {colors[u] for u in range(v) if g.has_edge(u, v)}
        for c in range(min(k, v + 1)):
            if c not in used:
                colors[v] = c
                if assign(v + 1):
                    return True
        colors[v] = -1
        return False

    return assign(0)


def bf_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    k = 1
    while not bf_is_k_colorable(g, k):
        k += 1
    return k


def bf_max_clique(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size
    return best


def bf_lex_first_max_clique(g: Graph, within: int | None = None) -> tuple[int, int]:
    """(size, mask) of the maximum clique of g, or of the subgraph induced on
    ``within``, whose ascending vertex list comes first: ``combinations`` of
    the ascending vertex list, from the largest size down."""
    verts = [v for v in range(g.n) if within is None or within >> v & 1]
    for size in range(len(verts), 0, -1):
        for sub in combinations(verts, size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size, sum(1 << v for v in sub)
    return 0, 0


def bf_first_5pattern_roles(g: Graph):
    """The (u1, u2, a, b, c) roles of the 5-pattern that comes first under
    the pair scan's key (u1, u2, c, a, b), or None: every role assignment of
    every 5-subset checked against PATTERN_EDGES, those with u1 < u2 and
    a < b kept."""
    found = [roles for sub in combinations(range(g.n), 5)
             for roles in permutations(sub)
             if roles[0] < roles[1] and roles[2] < roles[3]
             and all(g.has_edge(roles[i], roles[j]) == ((i, j) in PATTERN_EDGES)
                     for i, j in combinations(range(5), 2))]
    return min(found, key=scan_key, default=None)


def scan_key(roles):
    """The order in which the pair scan of ``patterns.check_membership``
    meets the (u1, u2, a, b, c) role tuples: by u1, u2, c, a, then b."""
    u1, u2, a, b, c = roles
    return u1, u2, c, a, b


# References for the engines' fast paths: the versions they replaced,
# kept as they were.

def mc_expand_prefixes(adj, size: int, cand: int, best: int) -> int:
    """Reference for ``invariants.clique_number``: a branch and bound over
    a greedy colouring order, taken from its last vertex, each vertex's
    colour bounding the clique among it and the vertices before it, which
    are read from a list of prefix masks."""
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
        best = mc_expand_prefixes(adj, size + 1, adj[v] & prefixes[i], best)
    return best


def max_clique_by_reconstruction(g: Graph, within: int | None = None) -> tuple[int, int]:
    """Reference for ``invariants.max_clique``: omega first, then the clique
    rebuilt one vertex at a time, each the smallest whose common
    neighbourhood with the vertices kept so far still holds a clique of the
    size still needed, found by a full branch and bound per try."""
    cand = g.full_mask if within is None else within
    size = need = mc_expand_prefixes(g.adj, 0, cand, 0)
    clique = 0
    while need > 0:
        for v in bits_generator(cand):
            if mc_expand_prefixes(g.adj, 0, cand & g.adj[v], 0) >= need - 1:
                clique |= 1 << v
                cand &= g.adj[v]
                need -= 1
                break
    return size, clique


def iter_5pattern_roles_edge_first(g: Graph):
    """Every 5-pattern role tuple, the reference for the witness that
    ``patterns.check_membership`` names on a graph without a 3K1, the first
    of them under ``scan_key``: for each non-adjacent pair, every edge ab
    inside the common neighbourhood, then every c there that misses both a
    and b (c last, where the scan takes it before a and b)."""
    adj = g.adj
    full = g.full_mask
    for u1 in range(g.n - 1):
        non_u1 = ~adj[u1] & full & ~((1 << (u1 + 1)) - 1)
        for u2 in bits_generator(non_u1):
            common = adj[u1] & adj[u2]
            for a in bits_generator(common):
                for b in bits_generator(common & adj[a] & ~((1 << (a + 1)) - 1)):
                    cmask = common & ~adj[a] & ~adj[b] & ~(1 << a) & ~(1 << b)
                    for c in bits_generator(cmask):
                        yield (u1, u2, a, b, c)


def first_5pattern_edge_first(g: Graph):
    """The role tuple of ``iter_5pattern_roles_edge_first`` that comes first
    under ``scan_key``, or None: the reference 5-pattern witness."""
    return min(iter_5pattern_roles_edge_first(g), key=scan_key, default=None)


def first_pair_scan_stop(g: Graph):
    """(u1, u2, c) where ``patterns.is_class_member`` stops, or None: the
    first non-adjacent pair u1 < u2 with a common non-neighbour (then
    c = -1), or else with a c of their common neighbourhood that misses two
    vertices of that neighbourhood, and the first such c."""
    for u1, u2 in combinations(range(g.n), 2):
        if g.has_edge(u1, u2):
            continue
        if any(not g.has_edge(u1, v) and not g.has_edge(u2, v)
               for v in range(g.n) if v not in (u1, u2)):
            return u1, u2, -1
        common = [v for v in range(g.n) if g.has_edge(u1, v) and g.has_edge(u2, v)]
        for c in common:
            if sum(v != c and not g.has_edge(c, v) for v in common) >= 2:
                return u1, u2, c
    return None


def first_exclusion_witness(g: Graph):
    """Reference for ``patterns.check_membership``: the witness at
    ``first_pair_scan_stop``, or None.  At c = -1 the 3K1 of u1, u2 and
    their lowest common non-neighbour; otherwise, with a < b the two lowest
    common neighbours that c misses, the 5-pattern (u1, u2, a, b, c) if ab
    is an edge and the 3K1 {a, b, c} if not."""
    stop = first_pair_scan_stop(g)
    if stop is None:
        return None
    u1, u2, c = stop
    if c == -1:
        w = min(v for v in range(g.n) if v not in (u1, u2)
                and not g.has_edge(u1, v) and not g.has_edge(u2, v))
        return PatternWitness(THREE_K1, tuple(sorted((u1, u2, w))))
    a, b = [v for v in range(g.n) if v != c and g.has_edge(u1, v)
            and g.has_edge(u2, v) and not g.has_edge(c, v)][:2]
    if g.has_edge(a, b):
        roles = (u1, u2, a, b, c)
        return PatternWitness(TWO_K1_JOIN_K2_K1, tuple(sorted(roles)), roles)
    return PatternWitness(THREE_K1, tuple(sorted((a, b, c))))


def is_class_member_closed_list(g: Graph) -> bool:
    """Reference for ``patterns.is_class_member``: the same pass over the
    non-adjacent pairs, reading a list of every closed neighbourhood
    ``adj[v] | 1 << v`` built before the first pair."""
    full = g.full_mask
    closed = [a | 1 << v for v, a in enumerate(g.adj)]
    for u1 in range(g.n - 1):
        c1 = closed[u1]
        later = full & ~c1 & ~((1 << (u1 + 1)) - 1)
        while later:
            low = later & -later
            later ^= low
            c2 = closed[low.bit_length() - 1]
            if full & ~(c1 | c2):
                return False
            common = c1 & c2
            rest = common
            while rest:
                low = rest & -rest
                rest ^= low
                miss = common & ~closed[low.bit_length() - 1]
                if miss & (miss - 1):
                    return False
    return True


def complement_oracle_of_graph(g: Graph) -> bool:
    """Reference for ``patterns.complement_oracle_check``: the rows of the
    complement Graph, searched for a triangle and then for an induced K2+P3
    (an edge xy with no edge to a 2-path pqr, which is induced when there is
    no triangle)."""
    h = complement(g).adj
    full = g.full_mask
    for nu in h:
        for v in bits_generator(nu):
            if nu & h[v]:
                return False
    for q, nq in enumerate(h):
        for p in bits_generator(nq):
            for r in bits_generator(nq & ~((1 << (p + 1)) - 1)):
                allowed = full & ~(h[p] | nq | h[r] | 1 << p | 1 << q | 1 << r)
                for x in bits_generator(allowed):
                    if h[x] & allowed & ~((1 << (x + 1)) - 1):
                        return False
    return True


def complement_oracle_rows_first(g: Graph) -> bool:
    """Reference for ``patterns.complement_oracle_check``: every complement
    row built before the first triangle test, which tests each complement
    edge from both ends; then, on a triangle-free complement, for each edge
    xy a vertex with two neighbours among the vertices adjacent to neither
    x nor y."""
    full = (1 << g.n) - 1
    h = [full & ~(a | 1 << v) for v, a in enumerate(g.adj)]
    for nu in h:
        for v in bits_generator(nu):
            if nu & h[v]:
                return False
    for x, hx in enumerate(h):
        for y in bits_generator(hx >> x << x):
            allowed = full & ~(hx | h[y])
            for q in bits_generator(allowed):
                pair = h[q] & allowed
                if pair & (pair - 1):
                    return False
    return True


def dsatur_greedy_max_keyed(g: Graph, clique: int = 0) -> list[int]:
    """DSATUR's greedy colouring: the vertices of ``clique`` (none unless
    given) are picked first, in vertex order, and every later pick is
    ``max()`` over the uncoloured vertices with the key (saturation, degree,
    -u); each pick is coloured with the smallest colour none of its
    neighbours has, so a clique's vertices get 0, 1, ... in vertex order."""
    n = g.n
    colors = [-1] * n
    neighbor_colors = [0] * n
    degrees = [g.degree(v) for v in range(n)]
    first = list(bits_generator(clique))
    for i in range(n):
        v = first[i] if i < len(first) else max(
            (u for u in range(n) if colors[u] == -1),
            key=lambda u: (neighbor_colors[u].bit_count(), degrees[u], -u),
        )
        c = 0
        while neighbor_colors[v] >> c & 1:
            c += 1
        colors[v] = c
        for u in bits_generator(g.adj[v]):
            neighbor_colors[u] |= 1 << c
    return colors


def clique_first_descent(g: Graph) -> list[int]:
    """The first descent of ``invariants.chromatic_exact``, which never
    backtracks: DSATUR's greedy colouring from the lexicographically first
    maximum clique, pre-coloured 0, 1, ... in vertex order."""
    return dsatur_greedy_max_keyed(g, max_clique_by_reconstruction(g)[1])


def _tuple_keyed_search(g: Graph, omega: int, clique: int, best_k: int,
                        best) -> tuple[int, tuple[int, ...]]:
    """(best_k, best) after a branch and bound that pre-colours ``clique``
    (of ``omega`` vertices) with colours 0, 1, ... in vertex order and
    colours the rest depth first, each pick made over the uncoloured
    vertices with the key (saturation, degree, -u), each colour tried in
    ascending order, and every neighbour's colour mask kept, coloured or
    not.  Only a colouring with fewer than best_k colours replaces best."""
    n = g.n
    degrees = [g.degree(v) for v in range(n)]
    colors = [-1] * n
    neighbor_colors = [0] * n
    for c, v in enumerate(bits_generator(clique)):
        colors[v] = c
        for u in bits_generator(g.adj[v]):
            neighbor_colors[u] |= 1 << c
    uncolored = [v for v in range(n) if colors[v] == -1]

    def backtrack(used: int) -> None:
        nonlocal best_k, best
        if used >= best_k:
            return
        pick, pick_key = -1, None
        for u in uncolored:
            if colors[u] == -1:
                key = (neighbor_colors[u].bit_count(), degrees[u], -u)
                if pick_key is None or key > pick_key:
                    pick, pick_key = u, key
        if pick == -1:
            best_k = used
            best = colors[:]
            return
        for c in range(min(used + 1, best_k - 1)):
            if neighbor_colors[pick] >> c & 1:
                continue
            colors[pick] = c
            touched = []
            for u in bits_generator(g.adj[pick]):
                if not neighbor_colors[u] >> c & 1:
                    neighbor_colors[u] |= 1 << c
                    touched.append(u)
            backtrack(max(used, c + 1))
            colors[pick] = -1
            for u in touched:
                neighbor_colors[u] &= ~(1 << c)

    backtrack(omega)
    return best_k, tuple(best)


def chromatic_exact_tuple_keyed(g: Graph) -> tuple[int, tuple[int, ...]]:
    """The engine ``invariants.chromatic_exact`` replaced: the greedy
    colouring first, returned if it uses omega colours, else the bound and
    the witness the search starts from, so the search only replaces it with
    a colouring that uses fewer colours."""
    if g.n == 0:
        return 0, ()
    omega, clique = max_clique_by_reconstruction(g)
    best = dsatur_greedy_max_keyed(g)
    best_k = max(best) + 1
    if best_k == omega:
        return best_k, tuple(best)
    return _tuple_keyed_search(g, omega, clique, best_k, best)


def chromatic_exact_clique_first(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Reference for ``invariants.chromatic_exact``: the search of
    ``chromatic_exact_tuple_keyed`` with no greedy pass, started at bound
    n + 1, so its witness is the first colouring with chi colours it
    meets."""
    if g.n == 0:
        return 0, ()
    omega, clique = max_clique_by_reconstruction(g)
    return _tuple_keyed_search(g, omega, clique, g.n + 1, None)


def check_invariants_record(g: Graph, record: dict) -> None:
    """Assert that an ``invariants`` record certifies itself on g, without
    a chromatic engine: its colouring is proper with exactly ``chi``
    colours, its clique is a clique of ``omega`` vertices, ``bound`` is
    f(omega) and ``tight`` says whether chi reaches it."""
    omega, chi, coloring, clique = (record["omega"], record["chi"],
                                    record["coloring"], record["clique"])
    assert record["n"] == g.n == len(coloring)
    assert sorted(set(coloring)) == list(range(chi))
    assert all(coloring[u] != coloring[v] for u, v in g.edges())
    assert len(set(clique)) == len(clique) == omega
    assert all(g.has_edge(u, v) for u, v in combinations(clique, 2))
    assert record["bound"] == (bound_f(omega) if omega >= 1 else 0)
    assert record["tight"] is (omega >= 1 and chi == record["bound"])


def components_by_vertex_scan(g: Graph) -> list[int]:
    """Reference for ``graphs.connected_components``: a scan over every
    vertex index, skipping those a component already holds."""
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
            for u in bits_generator(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
        comps.append(comp)
        seen |= comp
    return comps


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return from_edges(10, edges)


def triangle_free_complement(n: int, rng: random.Random) -> Graph:
    """Complement of a random maximal triangle-free graph on n vertices.

    The pairs (u, v), u < v, listed by v then u, are put in
    ``rng.shuffle`` order, and each is kept when its ends have no common
    neighbour yet.  This is the sampler's candidate: it never contains an
    independent triple.
    """
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    rng.shuffle(pairs)
    nbrs = [0] * n
    for u, v in pairs:
        if not nbrs[u] & nbrs[v]:
            nbrs[u] |= 1 << v
            nbrs[v] |= 1 << u
    return from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                          if not nbrs[u] >> v & 1])


def all_partitioning_pairs_listed(g: Graph) -> list[tuple[int, int]]:
    """Reference for ``structure.all_partitioning_pairs``: each
    maximum-degree vertex v, then its non-neighbours w in ascending order."""
    delta = max((a.bit_count() for a in g.adj), default=0)
    return [(v, w) for v in range(g.n) if g.adj[v].bit_count() == delta
            for w in range(g.n) if w != v and not g.has_edge(v, w)]


def decompose_fields(g: Graph, v: int, w: int) -> tuple:
    """Reference for ``structure.decompose`` on a member: its fields
    (v, w, A, B, C, D, X, Y, Yp, missmap), with D from
    ``max_clique_by_reconstruction``."""
    a = g.adj[v] & g.adj[w]
    b = g.adj[v] & ~g.adj[w] & ~(1 << w)
    c = g.adj[w] & ~g.adj[v] & ~(1 << v)
    _, d = max_clique_by_reconstruction(g, a)
    y = a & ~d
    missmap = tuple((u, d & ~g.adj[u]) for u in bits_generator(y))
    yp = 0
    for _, m in missmap:
        yp |= m
    return (v, w, a, b, c, d, d & ~yp, y, yp, missmap)


def check_lemma1_pairwise(g: Graph, d) -> dict:
    """Reference for ``structure.check_lemma1``: the seven properties as they
    were before their one-pass versions, each testing the pairs and triples
    of its statement one at a time (combinations, lists, ``any``)."""
    adj = g.adj

    def verdict(status, witness=(), note=""):
        out: dict = {"status": status}
        if witness:
            out["witness"] = list(witness)
        if note:
            out["note"] = note
        return out

    def p11():
        if not d.D | d.Y | d.B | d.C:
            return verdict("vacuous")
        for name, part in (("M1", d.D), ("M2", d.Y), ("M3", d.B), ("M4", d.C)):
            for p, q in combinations(bits_generator(part), 2):
                if not adj[p] >> q & 1:
                    return verdict("fails", (p, q), f"non-edge inside {name}")
        return verdict("holds")

    def p12():
        if not d.Y:
            return verdict("vacuous")
        for y, missed in d.missmap:
            if missed.bit_count() != 1:
                return verdict("fails", (y, *bits_generator(missed)),
                               "M2 vertex must miss exactly one M1 vertex")
        return verdict("holds")

    def p13():
        hyp = [(m1, m2) for m2 in bits_generator(d.Y) for m1 in bits_generator(d.D & ~adj[m2])]
        others = d.B | d.C
        if not hyp or not others:
            return verdict("vacuous")
        for m1, m2 in hyp:
            for m in bits_generator(others):
                if (adj[m] >> m1 & 1) + (adj[m] >> m2 & 1) != 1:
                    return verdict("fails", (m1, m2, m))
        return verdict("holds")

    def p14():
        pairs = [(p, q) for part in (d.B, d.C) for p, q in combinations(bits_generator(part), 2)]
        if not pairs:
            return verdict("vacuous")
        need = d.Y.bit_count() - 2
        stated_fails = any((adj[p] & adj[q] & (d.D | d.Y)).bit_count() < need
                           for p, q in pairs)
        note = "stated M1+M2 reading: " + ("fails" if stated_fails else "holds")
        for p, q in pairs:
            if (adj[p] & adj[q] & (d.Y | d.Yp)).bit_count() < need:
                return verdict("fails", (p, q), note)
        return verdict("holds", note=note)

    def p15():
        cross = [(b, c) for b in bits_generator(d.B) for c in bits_generator(d.C & adj[b])]
        if not cross:
            return verdict("vacuous")
        need = d.Y.bit_count() - 1
        for b, c in cross:
            if (adj[b] & adj[c] & (d.D | d.Y)).bit_count() < need:
                return verdict("fails", (b, c))
        return verdict("holds")

    def p16():
        if not (d.D.bit_count() >= d.Y.bit_count() >= 4) or not d.B or not d.C:
            return verdict("vacuous")
        present = any(d.C & adj[b] for b in bits_generator(d.B))
        absent = [(b, c) for b in bits_generator(d.B) for c in bits_generator(d.C & ~adj[b])]
        if present and absent:
            return verdict("fails", absent[-1], "mixed cross adjacency")
        return verdict("holds")

    def p17():
        m1m2 = d.D | d.Y
        hyp_seen = False
        for b in bits_generator(d.B):
            for c, cp in combinations(bits_generator(d.C & adj[b]), 2):
                hyp_seen = True
                both = adj[c] & adj[cp] & m1m2
                neither = ~adj[c] & ~adj[cp] & m1m2
                bad = (both & ~adj[b]) | (neither & adj[b])
                if bad:
                    return verdict("fails", (b, c, cp, (bad & -bad).bit_length() - 1))
        return verdict("holds" if hyp_seen else "vacuous")

    injective = sum(m.bit_count() for _, m in d.missmap) == d.Yp.bit_count()
    properties = zip(("1.1", "1.2", "1.3", "1.4", "1.5", "1.6", "1.7"),
                     (p11, p12, p13, p14, p15, p16, p17))
    return {"properties": {name: prop() for name, prop in properties},
            "missmap_injective": injective}


# Reference for ``invariants.max_matching``: the blossom search as it was,
# with one augmenting-path search from every unmatched root.

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
    queue = [root]
    while queue:
        v = queue.pop(0)
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


def max_matching_unstopped(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Reference for ``invariants.max_matching``: the greedy warm start and
    then a search from every unmatched root, however many are matched."""
    n = g.n
    adj_lists = [list(bits_generator(a)) for a in g.adj]
    match = [-1] * n
    for v in range(n):
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
    edges = tuple((v, match[v]) for v in range(n) if v < match[v])
    return len(edges), edges


def chi_via_complement_graph(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Reference for ``invariants.chi_via_matching``: ValueError on an
    independent triple (brute force), else the matching of the complement
    Graph by ``max_matching_unstopped``, matched pairs coloured first."""
    if bf_independent_triple(g):
        raise ValueError("chi_via_matching requires a graph with no independent triple")
    size, edges = max_matching_unstopped(complement(g))
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
