"""Exact integer linear algebra underneath the K-theory computations.

Shows a Smith normal form with its unimodular transforms, the
fraction-free determinant, and the circulant determinant formula
cross-checking the exact value.
"""

from lpa_invariants import (
    CirculantRow,
    IntMatrix,
    analyse,
    b_matrix,
    cayley_graph,
    circulant_det_product,
    det_exact,
    smith_normal_form,
)
from lpa_invariants.intlinalg import diagonal_matrix

m = IntMatrix(((12, 6, 4), (3, 9, 6), (2, 16, 14)))
print("T =")
for row in m.entries:
    print("   ", row)

dec = smith_normal_form(m)
print(f"\nSmith normal form diagonal: {dec.d}")
print("u =")
for row in dec.u.entries:
    print("   ", row)
print("v =")
for row in dec.v.entries:
    print("   ", row)

check = dec.u @ m @ dec.v
assert check.entries == diagonal_matrix(dec.d, m.rows, m.cols).entries
print("\nu @ T @ v really is diag(d); |det u| =", abs(det_exact(dec.u)),
      "and |det v| =", abs(det_exact(dec.v)))
print("The cokernel Z^3 / Im(T) is Z/%d + Z/%d + Z/%d." % dec.d)

print("\nDeterminants of B = I - A^t for Cayley graphs: read off the Smith")
print("elimination's pivots, checked against Bareiss and the circulant product:")
for n in range(1, 13):
    g = cayley_graph(n)
    b = b_matrix(g)
    det = analyse(g).det
    assert det == det_exact(b)
    product = circulant_det_product(CirculantRow(b.entries[0])).product
    print(
        f"  n={n:>2}  det = {det:>2}  circulant product = {product.real:+.9f}"
        f"  (agree to {abs(product - det):.2e})"
    )

print("\nThe determinant is never positive, and vanishes exactly when n is")
print("a multiple of 6: the factor 1 - 2cos(2*pi*j/n) vanishes at j = n/6.")
