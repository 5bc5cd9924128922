"""Combinatorial topology of triangulated manifolds with stacked links.

The package covers facet-based simplicial complexes, their facet
adjacency graphs, stacked balls and spheres with the classes they
generate, mod-2 homology, and the counting arguments that pin down
vertex-minimal triangulations.
"""

from __future__ import annotations

from .analysis import (
    LemmaReport,
    ParameterTriple,
    TightnessReport,
    VertexBijection,
    are_isomorphic,
    bound_chain_audit,
    corollary_bound_check,
    is_cover,
    is_critical,
    parameter_solutions,
    theorem_argument_audit,
    tight_neighborly_check,
    uniqueness_reconstruction,
    verify_lemma,
)
from .complexes import (
    FVector,
    SimplicialComplex,
    boundary_complex,
    f_vector,
    faces_of_dim,
    from_facets,
    is_neighborly,
    is_pseudomanifold,
    is_pure,
    is_weak_pseudomanifold,
    link,
    relabel_vertices,
)
from .dualgraph import (
    DualGraph,
    components_minus,
    cut_node,
    dual_graph,
    high_degree_set,
    is_connected,
    is_cycle,
    is_tree,
    is_two_connected,
    to_dot,
    vertex_facet_subgraph,
)
from .fct import dumps, loads, read_fct, write_fct
from .homology import (
    BettiVector,
    Z2ChainComplex,
    Z2Matrix,
    beta1_dual_formula,
    beta1_z2,
    betti_z2,
    chain_complex,
    is_orientable,
)
from .walkup import (
    ClassReport,
    HandleMap,
    bar_construction,
    class_membership,
    handle_addition,
    is_stacked_ball,
    is_stacked_sphere,
    kuehnel_solid,
    kuehnel_torus,
    random_stacked_ball,
)

__version__ = "0.1.0"
