"""Exact integer linear algebra underneath the K-theory computations.

Shows a Smith normal form with its unimodular transforms, the
fraction-free determinant, the determinant of a Cayley graph from its
module Z[x]/(x^n - 1, x^2 - x + 1) on a 2 x 2 companion power, the
circulant determinant formula cross-checking the exact value, the
Smith form of that companion power read off gcd(a, b) and a^2 + ab + b^2
for x^n - 1 = a + bx, and a dense graph whose B the elimination's core
phase takes whole.
"""

import math
import random

from lpa_invariants import (
    CirculantRow,
    IntMatrix,
    analyse,
    b_matrix,
    cayley_class,
    cayley_graph,
    circulant_det_product,
    circulant_k0,
    det_exact,
    graph_from_dict,
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
print("elimination's pivots, checked against Bareiss; from the module")
print("Z[x]/(x^n - 1, x^2 - x + 1) on the 2 x 2 companion power C^n - I")
print("(`circulant_k0`, no graph built); and the floating circulant product:")
for n in range(1, 13):
    g = cayley_graph(n)
    b = b_matrix(g)
    det = analyse(g).det
    assert det == det_exact(b)
    module_det = circulant_k0(n).det
    assert module_det == det
    product = circulant_det_product(CirculantRow(b.entries[0])).product
    print(
        f"  n={n:>7}  det = {det:>2}  module det = {module_det:>2}"
        f"  circulant product = {product.real:+.9f}"
        f"  (agree to {abs(product - det):.2e})"
    )

n = 10**6
k0 = circulant_k0(n)
assert (k0.group.factors, k0.det) == (cayley_class(n).k0_factors, cayley_class(n).det)
print(
    f"  n={n:>7}  det = --  module det = {k0.det:>2}"
    f"  K0 = {k0.group.factors}, as cayley_class says (no graph of {n:,}"
    " vertices built, so no elimination or product)"
)

print("\nThe determinant is never positive, and vanishes exactly when n is")
print("a multiple of 6: the factor 1 - 2cos(2*pi*j/n) vanishes at j = n/6.")

print("\nThe module needs no elimination.  For x^n - 1 = a + bx, C^n - I has")
print("columns (a, b) and (-b, a + b), so its Smith form is (gcd(a, b),")
print("(a^2 + ab + b^2) / gcd(a, b)), or (0, 0) when a = b = 0, and det B =")
print("-(a^2 + ab + b^2).  x is a sixth root of unity: six values of x^n.")
power = (1, 0)  # x^0, on the coefficients of 1 and x
for n in range(1, 7):
    power = (-power[1], power[0] + power[1])  # times x, as x^2 = x - 1
    a, b = power[0] - 1, power[1]
    d1, norm = math.gcd(a, b), a * a + a * b + b * b
    factors = tuple(d for d in ((d1, norm // d1) if d1 else (0, 0)) if d != 1)
    analysis = analyse(cayley_graph(n))
    assert (factors, -norm) == (analysis.k0.group.factors, analysis.det)
    print(
        f"  n={n}  x^n = {power[0]:>2} {'-' if power[1] < 0 else '+'} {abs(power[1])}x"
        f"  gcd(a, b) = {d1}"
        f"  a^2 + ab + b^2 = {norm}  K0 = {factors}, as `analyse` finds"
    )

print("\nA dense graph: `sparse_smith` keeps rows as dicts while the active")
print("block is under half full, and hands a denser block to its core phase,")
print("which keeps one list per row and pivots on the least |entry|, first")
print("row then first column.  This B is more than half full from the start,")
print("so the core eliminates all of it; d and det are checked against the")
print("independent Bareiss determinant.")
rng = random.Random(20)
vertices = [f"v{i}" for i in range(1, 21)]
edges = [
    {"id": f"e{k}", "source": s, "range": r}
    for k, (s, r) in enumerate(
        (s, r) for s in vertices for r in vertices for _ in range(rng.choice((0, 1, 2)))
    )
]
g = graph_from_dict({"vertices": vertices, "edges": edges})
b = b_matrix(g)
nonzero = sum(1 for row in b.entries for x in row if x)
assert 2 * nonzero >= 20 * 20
analysis = analyse(g)
exact = det_exact(b)
assert analysis.det == exact
assert math.prod(analysis.snf_diagonal) == abs(exact)
print(
    f"  20 vertices, {g.n_edges} edges, {nonzero} of 400 entries of B nonzero:"
    f" det = {analysis.det} (Bareiss: {exact}), K0 = {analysis.k0.group.factors}"
)
