"""Walk through the constructions on the commuting-square quiver.

Builds the relation dg-algebra, the superpotential extension and the full
doubled dg-algebra for a few values of m, printing every generator with its
degree and differential, then verifies d^2 = 0 and the triangular
sub-dg-algebra correspondence.
"""

from dgquiver import (
    GradedQuiver,
    PathElement,
    Relation,
    check_d_squared,
    check_dg_isomorphism,
    describe_generators,
    format_element,
    ginzburg_from_relations,
    relation_dg_algebra,
    relation_sub_dg_correspondence,
    superpotential_extension,
)

q = GradedQuiver(
    ["v1", "v2", "v3", "v4"],
    [
        ("alpha", "v1", "v2", 0),
        ("beta", "v2", "v4", 0),
        ("gamma", "v1", "v3", 0),
        ("delta", "v3", "v4", 0),
    ],
)
rho = PathElement.from_path(q, ("alpha", "beta")) - PathElement.from_path(
    q, ("gamma", "delta")
)
relations = [Relation("r", "v1", "v4", rho)]

print("relation dg-algebra (one degree -1 arrow per relation):")
for name, deg, diff in describe_generators(relation_dg_algebra(q, relations)):
    print(f"  {name:12s} deg {deg:3d}   d = {diff}")

for m in (2, 3, 4):
    big, w = superpotential_extension(q, relations, m)
    print(f"\nm = {m}: superpotential {format_element(w)} of degree {w.degree()}")
    gamma = ginzburg_from_relations(q, relations, m)
    for name, deg, diff in describe_generators(gamma):
        print(f"  {name:12s} deg {deg:3d}   d = {diff}")
    bad = check_d_squared(gamma)
    print("  d^2 = 0:", "verified" if bad is None else f"FAILS on {format_element(bad)}")
    sub, b, mapping = relation_sub_dg_correspondence(q, relations, m)
    ok = check_dg_isomorphism(mapping, sub, b) is None
    print("  triangular sub-dg-algebra matches the relation dg-algebra:", ok)
