"""Homology dimension tables for the two one-vertex examples.

The empty relation sequence and the single zero relation present the same
one-dimensional algebra, but their dg-algebras have very different
homology: the first vanishes in all intermediate degrees, the second is
nonzero everywhere.  The tables below stabilize already at small cutoffs.
"""

from dgquiver import (
    GradedQuiver,
    PathElement,
    Relation,
    ginzburg_from_relations,
    homology_dims,
)

q = GradedQuiver(["v"])
zero = [Relation("r1", "v", "v", PathElement.zero(q))]

for label, relations in (("no relations", []), ("one zero relation", zero)):
    print(f"== {label} ==")
    for m in (3, 4, 5):
        rep = homology_dims(ginzburg_from_relations(q, relations, m), m, m + 2)
        dims = "  ".join(f"H^-{i}: {dim}" for i, dim in rep.dims.items())
        flag = "" if rep.stabilized else "   (not stabilized!)"
        print(f"  m = {m}:  {dims}{flag}")
    print()
