"""Minimal systems of relations and why boundary classes are not enough.

The quaternion-type ideal on two loops is generated by three relations.
The classes of the first two already span I/(I r + r I), yet the third
cannot be dropped: a one-dimensional representation kills the first two
relations while acting nonzero through the third, so the smaller ideal is
strictly smaller.  The greedy minimizer therefore keeps all three.
"""

from dgquiver import (
    GradedQuiver,
    PathElement,
    Relation,
    algebra_dim,
    boundary_image_vanishes,
    certifies_non_membership,
    evaluate_in_representation,
    ext2_dim,
    find_admissibility_bound,
    spans_boundary_quotient,
    system_of_relations,
)

q = GradedQuiver(["v"], [("a", "v", "v", 0), ("b", "v", "v", 0)])
P = lambda *names: PathElement.from_path(q, names)
relations = [
    Relation("r1", "v", "v", P("a", "a") - P("b", "a", "b")),
    Relation("r2", "v", "v", P("b", "b") - P("a", "b", "a")),
    Relation("r3", "v", "v", P("a", "a", "b")),
]

n = find_admissibility_bound(q, relations, max_n=12)
print("admissibility bound:", n)
print("dim KQ/I:", algebra_dim(q, relations, n))
ext2 = ext2_dim(q, relations, n)
print("dim I/(Ir + rI):", ext2)
print("dim Ext^2(S, S):", ext2)

aab = P("a", "a", "b")
print("class of a*a*b in I/(Ir + rI) vanishes:", boundary_image_vanishes(q, relations, n, aab))
print("first two relations span I/(Ir + rI):", spans_boundary_quotient(q, relations, relations[:2], n))

witness = ({"v": 1}, {"a": [[1]], "b": [[1]]})
print("witness value of a*a*b:", evaluate_in_representation(q, *witness, aab))
print(
    "witness certifies a*a*b not in (r1, r2):",
    certifies_non_membership(q, relations[:2], *witness, aab),
)
print("minimal system keeps:", [r.label for r in system_of_relations(q, relations, n)])
