"""The graph monoid of C_3, computed by brute force and cross-checked.

The monoid is the free commutative monoid on v1, v2, v3 modulo
v1 ~ v2+v3, v2 ~ v1+v3, v3 ~ v1+v2.  Saturating all vectors of
coordinate sum <= 8 shows it has exactly five elements; the four nonzero
classes form the Klein four-group, whose identity is the class of
v1+v2+v3, and the whole picture matches the Smith-normal-form cokernel.
"""

from lpa_invariants import (
    cayley_graph,
    crosscheck_cokernel,
    mstar_group,
    presentation,
    saturate,
)

g = cayley_graph(3)
pres = presentation(g)
print("relations:")
for i, terms in pres.relations:
    rhs = " + ".join(f"{c}*v{j + 1}" for j, c in terms)
    print(f"  v{i + 1} ~ {rhs}")

classes = saturate(pres, bound=8)
print(f"\nbox: all vectors of N^3 with sum <= {classes.bound}"
      f" ({len(classes.vectors)} vectors)")
print(f"classes: {classes.class_count}   stabilized: {classes.stabilized}")

names = {
    (0, 0, 0): "z",
    (1, 0, 0): "v1",
    (0, 1, 0): "v2",
    (0, 0, 1): "v3",
    (1, 1, 1): "v1+v2+v3",
}
print("\nclass of each named element:")
for vec, name in names.items():
    print(f"  [{name}] -> class {classes.class_of(vec)}"
          f" (size {int(classes.class_sizes[classes.class_of(vec)])})")

print("\na rewrite chain certifying 2*v1 ~ v1+v2+v3:")
for step in classes.rewrite_path((2, 0, 0), (1, 1, 1)):
    print("   ", step)

table = mstar_group(classes)
print(f"\nnonzero classes form a group of order {table.order} "
      f"with invariant factors {table.invariant_factors()}")
print(f"identity class: {table.identity_class} "
      f"(= class of v1+v2+v3: {table.identity_class == classes.class_of((1, 1, 1))})")
print("addition table (class ids):")
for cid, row in zip(table.element_class_ids, table.table):
    print(f"  {cid}: {list(row)}")

print(f"\ncrosscheck against the Smith-normal-form cokernel: "
      f"{crosscheck_cokernel(g, 12)}")
