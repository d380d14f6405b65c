"""Seeded graph6 streams shared by the CLI's byte pins and the engines'
cross-checks against their references.

Each builder returns the same text on every call: one graph6 line per graph,
drawn from a fixed seed, so a digest taken over a pass on it pins every
record.
"""
import random

from chibound.constructions import cycle, extremal_witnesses
from chibound.graphs import (complete_graph, disjoint_union, empty_graph, join,
                             serialize_graph6)
from oracles import random_graph, triangle_free_complement


# The first 30 members of sample_class(12, 30, 7), frozen so that the pins
# over pinned_stream() do not move with the sampler.
SAMPLED_N12 = r"""
KtLI\rpRa[hr KMYRSindZsNP KyTY|@]F~ASJ KwzvWoTEWrbN KRlULTUirxTY
KVi|\}nQi_iB KJ\z{m@yKnON KesepGdH]sZP KmfpRNte`UdZ Kw~fGoXEWn{p
K[m~ZE}SQaiJ K~}aquchGN~e KwsvOziFPiej KeGm`Wls`ZYQ K|RnWoXE\bbN
KezUhngLpRdN K\PlctLZLeHm K`K~h{~N}CX@ KwdvOw\yfSbk KYik{|o[J`rw
KkLmefRZEfLa KnIKX^oJs]}C KT\I\rE^q\wt KwK^Ek{ynEfe KzFr{OZE~I]p
KJaK[\obr`MD KQT^Ix^gdqsR KZ]bsIDU|JOn KpNEMMwmI}Jx K}JpOsZzejYl
""".split()


def pinned_stream() -> str:
    """The seven extremal witnesses, 30 sampled n = 12 members, C6, the
    5-pattern, K4 plus two isolated vertices (a 3K1) and a dense G(18, 0.7)."""
    tail = [cycle(6),
            join(empty_graph(2), disjoint_union(complete_graph(2), empty_graph(1))),
            disjoint_union(complete_graph(4), empty_graph(2)),
            random_graph(18, 0.7, random.Random(18))]
    lines = [*map(serialize_graph6, extremal_witnesses()), *SAMPLED_N12,
             *map(serialize_graph6, tail)]
    return "".join(line + "\n" for line in lines)


def dense_stream() -> str:
    """60 G(n, p) graphs with n from 10 to 20 and p from 0.5 to 0.95, then
    20 complements of maximal triangle-free graphs with n from 9 to 14."""
    rng = random.Random(2014)
    graphs = [random_graph(rng.randint(10, 20), rng.uniform(0.5, 0.95), rng)
              for _ in range(60)]
    graphs += [triangle_free_complement(rng.randint(9, 14), rng) for _ in range(20)]
    return "".join(serialize_graph6(g) + "\n" for g in graphs)


def witness_stream() -> str:
    """240 complements of maximal triangle-free graphs with n from 9 to 14:
    no 3K1, so every non-member among them (128) is named by its
    5-pattern."""
    rng = random.Random(2016)
    graphs = [triangle_free_complement(rng.randint(9, 14), rng) for _ in range(240)]
    return "".join(serialize_graph6(g) + "\n" for g in graphs)


def backtrack_stream() -> str:
    """60 G(n, p) graphs with n from 16 to 20 and p from 0.45 to 0.75, each
    with a 3K1, so chi comes from the exact engine; on 29 of them its first
    descent, DSATUR from the pre-coloured maximum clique, exceeds omega, so
    the branch and bound has to search further."""
    rng = random.Random(2017)
    graphs = [random_graph(rng.randint(16, 20), rng.uniform(0.45, 0.75), rng)
              for _ in range(60)]
    return "".join(serialize_graph6(g) + "\n" for g in graphs)


def large_stream() -> str:
    """30 complements of maximal triangle-free graphs with n from 21 to 64,
    above the exact chromatic engine's limit."""
    rng = random.Random(2015)
    graphs = [triangle_free_complement(rng.randint(21, 64), rng) for _ in range(30)]
    return "".join(serialize_graph6(g) + "\n" for g in graphs)


def bound_stream() -> str:
    """Six G(n, p) graphs at each n in 20, 32, 33 and 64, with p from 0.05
    to 0.95: both sides of the 32-vertex bound of graph6's table decoder."""
    rng = random.Random(2032)
    graphs = [random_graph(n, rng.uniform(0.05, 0.95), rng)
              for n in (20, 32, 33, 64) for _ in range(6)]
    return "".join(serialize_graph6(g) + "\n" for g in graphs)
