"""Hypergraphs, characteristic partitions, and structure-preserving maps.

A function is captured combinatorially by the partition of its domain into
preimages: computing the function exactly means preserving that partition.
This walkthrough builds the partition for the equality test on two messages
and checks a few homomorphisms by hand.
"""

from lhckit import (
    EdgeMap,
    characteristic_hypergraph,
    check_homomorphism,
    complete_1_uniform,
    hom_from_edge_map,
    identification_table,
)

# The equality test on message pairs: f(m, m') = 1 exactly when m == m'.
f_id = identification_table(2)
print("domain:", f_id.domain.labels)
print("values:", [f_id.codomain.labels[b] for b in f_id.mapping])

# Its characteristic hypergraph partitions the pairs into the diagonal
# (value 1) and the off-diagonal (value 0).
h = characteristic_hypergraph(f_id)
for edge in h.edges:
    print("edge:", [h.vertices.labels[v] for v in edge])
assert h.is_partition

# Any function is an edge-bijective homomorphism into the disconnected
# hypergraph on its values: each preimage edge maps inside one singleton.
values = complete_1_uniform(f_id.codomain)
e_map = EdgeMap.identity(2)
report = check_homomorphism(f_id.mapping, e_map, h, values)
print("is_hom:", report.is_hom, "| edge-bijective:", e_map.bijective)

# Between partition hypergraphs, any edge map lifts to a vertex map: send
# each vertex to the lowest-index vertex of its edge's image.
swap = EdgeMap(2, 2, (1, 0))
vertex_map = hom_from_edge_map(swap, h, h)
print("vertex map realizing the edge swap:", vertex_map)
swapped = check_homomorphism(vertex_map, swap, h, h)
print("swap is a homomorphism:", swapped.is_hom)
