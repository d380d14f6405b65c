"""Verification toolkit for the hereditary graph class defined by forbidding
an independent triple and the join of two isolated vertices with an edge
plus a vertex: membership tests, exact invariants, structural decomposition,
in-class extremal witnesses, and corpus verification campaigns."""

from .graphs import (Graph, GraphFormatError, complement, complete_graph,
                     connected_components, disjoint_union, empty_graph,
                     from_edges, induced_subgraph, is_connected, join,
                     parse_dimacs, parse_graph6, serialize_graph6)
from .patterns import (PatternWitness, check_membership,
                       complement_oracle_check, is_class_member,
                       witness_is_valid)
from .invariants import (bound_f, chi_via_matching, chromatic_exact,
                         clique_number, compute_invariants, max_clique,
                         max_matching)
from .structure import (Decomposition, check_lemma1, choose_partitioning_pair,
                        decompose)
from .constructions import (EXTREMAL_GRAPH6, cycle, extremal_omega5,
                            extremal_witnesses, ramsey_13, wheel6)
from .corpus import (CorpusReport, enumerate_class, exhaustive_population,
                     explicit_population, run_verification, sample_class,
                     sample_population)

__all__ = [name for name in dir() if not name.startswith("_")]
