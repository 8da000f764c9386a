"""Tour of the classification of the algebras of cyclic-group Cayley graphs.

Builds the Cayley graphs C_1..C_12, prints each one's K0 data and
determinant, then runs the Kirchberg-Phillips decision on a few pairs and
names the canonical algebras where the cyclic-K0 criterion applies.
`kp_decide` recognises a copy of C_n and reads it off its module, so a
pair with n in the thousands is decided at once.
"""

import time

from lpa_invariants import (
    analyse,
    canonical_form,
    cayley_class,
    cayley_graph,
    kp_decide,
    rose_graph,
    stemmed_rose_graph,
)


def factors_str(factors):
    return "(" + ",".join(str(d) for d in factors) + ")"


print("K0 groups of the Cayley graph algebras, n = 1..12")
print("-" * 56)
for n in range(1, 13):
    g = cayley_graph(n)
    analysis = analyse(g)  # K0 and det from one elimination
    k0, det = analysis.k0, analysis.det
    cls = cayley_class(n)
    print(
        f"  n={n:>2}  K0 = {factors_str(k0.group.factors):>6}  "
        f"det = {det:>2}  class = {cls.class_id}"
    )

print()
print("The pattern repeats with period 6: residues {1,5}, {2,4}, {3}, {0}")
print("give four pairwise non-isomorphic algebras.")
print()

pairs = [(7, 11), (2, 10), (3, 9), (6, 12), (3, 4), (1, 6)]
print("Pairwise decisions (Kirchberg-Phillips, restricted form)")
print("-" * 56)
for n, m in pairs:
    verdict = kp_decide(cayley_graph(n), cayley_graph(m))
    print(f"  C_{n} vs C_{m}: {verdict.outcome}")

n, m = 6000, 12
big = cayley_graph(n)  # 6000 vertices, 12000 edges
start = time.perf_counter()
verdict = kp_decide(big, cayley_graph(m))
elapsed_ms = (time.perf_counter() - start) * 1e3
print(f"  C_{n} vs C_{m}: {verdict.outcome}  ({elapsed_ms:.1f} ms, no elimination)")

print()
print("Canonical forms where K0 is cyclic and the determinant negative")
print("-" * 56)
for name, g in [
    ("C_5", cayley_graph(5)),
    ("C_4", cayley_graph(4)),
    ("C_3", cayley_graph(3)),
    ("C_6", cayley_graph(6)),
    ("rose(2)", rose_graph(2)),
    ("stemmed_rose(4,3)", stemmed_rose_graph(4, 3)),
]:
    form = canonical_form(g)
    print(f"  {name:<18} -> {form.label if form else 'NONE'}")

print()
print("Cross-family isomorphisms promised by the canonical forms:")
for a, b, ga, gb in [
    ("C_2", "stemmed_rose(4,3)", cayley_graph(2), stemmed_rose_graph(4, 3)),
    ("C_7", "rose(2)", cayley_graph(7), rose_graph(2)),
]:
    print(f"  {a} vs {b}: {kp_decide(ga, gb).outcome}")
