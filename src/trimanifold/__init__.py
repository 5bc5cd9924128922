"""Combinatorial topology of triangulated manifolds with stacked links.

The package covers facet-based simplicial complexes, their facet
adjacency graphs, stacked balls and spheres with the classes they
generate, mod-2 homology, and the counting arguments that pin down
vertex-minimal triangulations.
"""
