"""Independent expected answers for the benchmark's operations.

Nothing here imports `lpa_invariants`. K0 groups, the class of the unit
and determinants come from sympy's `DomainMatrix` over ZZ (Smith normal
form and Bareiss); the graph conditions for purely infinite simplicity
come from networkx; the rows of the Cayley table come from the closed
forms of the classification; and pointed isomorphism is decided from Ulm
(height) sequences rather than by searching automorphisms.

Graphs are handled in the JSON wire format the program reads:
`{"vertices": [...], "edges": [{"id", "source", "range"}, ...]}`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import networkx as nx
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors, smith_normal_decomp


def adjacency(graph: dict) -> list[list[int]]:
    index = {name: i for i, name in enumerate(graph["vertices"])}
    n = len(index)
    a = [[0] * n for _ in range(n)]
    for edge in graph["edges"]:
        a[index[edge["source"]]][index[edge["range"]]] += 1
    return a


def b_matrix(graph: dict) -> list[list[int]]:
    """B = I - A^t."""
    a = adjacency(graph)
    n = len(a)
    return [[int(i == j) - a[j][i] for j in range(n)] for i in range(n)]


def _domain_matrix(rows: list[list[int]], ncols: int) -> DomainMatrix:
    return DomainMatrix([[ZZ(x) for x in row] for row in rows], (len(rows), ncols), ZZ)


def sign(value: int) -> str:
    return "NEGATIVE" if value < 0 else "POSITIVE" if value > 0 else "ZERO"


@dataclass(frozen=True)
class K0:
    """Cokernel of B in sympy's Smith basis.

    `diagonal` is the full Smith diagonal (ones first, zeros last),
    `factors` drops the ones, `images` holds the class of each vertex
    and `unit` the class of the sum of all vertices, in coordinates over
    `factors`.
    """

    diagonal: tuple[int, ...]
    factors: tuple[int, ...]
    images: tuple[tuple[int, ...], ...]
    unit: tuple[int, ...]
    det: int

    def reduce(self, x) -> tuple[int, ...]:
        return tuple(c % d if d else c for c, d in zip(x, self.factors))

    @property
    def infinite(self) -> bool:
        return 0 in self.factors


def k0_data(b: list[list[int]]) -> K0:
    return _k0_data(tuple(map(tuple, b)))


@functools.lru_cache(maxsize=None)
def _k0_data(b: tuple[tuple[int, ...], ...]) -> K0:
    # Cached: workloads reuse graphs (Cayley graphs, equal-K0 pools).
    n = len(b)
    m = _domain_matrix(b, n)
    det = int(m.det())
    d_mat, u, _ = smith_normal_decomp(m)
    d_rows = d_mat.to_list()
    diagonal = tuple(abs(int(d_rows[i][i])) for i in range(n))
    nonzero = [d for d in diagonal if d]
    if diagonal != tuple(nonzero) + (0,) * (n - len(nonzero)) or any(
        b_ % a_ for a_, b_ in zip(nonzero, nonzero[1:])
    ):
        raise RuntimeError(f"sympy returned a diagonal out of Smith order: {diagonal}")
    u_rows = u.to_list()
    keep = [i for i, d in enumerate(diagonal) if d != 1]
    factors = tuple(diagonal[i] for i in keep)
    k0 = K0(diagonal, factors, (), (), det)
    # Z^n / Im(B) -> Z^n / Im(D) is x -> Ux, so vertex j goes to column j of U.
    images = tuple(k0.reduce(int(u_rows[i][j]) for i in keep) for j in range(n))
    unit = k0.reduce(sum(int(x) for x in u_rows[i]) for i in keep)
    return K0(diagonal, factors, images, unit, det)


# ---------------------------------------------------------------------------
# Graph conditions for purely infinite simplicity, via networkx.
# ---------------------------------------------------------------------------


def pis_flags(graph: dict) -> dict:
    g = nx.MultiDiGraph()
    g.add_nodes_from(graph["vertices"])
    g.add_edges_from((e["source"], e["range"]) for e in graph["edges"])
    out = dict(g.out_degree())
    sink_free = all(out[v] > 0 for v in g)
    cyclic = [
        comp
        for comp in nx.strongly_connected_components(g)
        if len(comp) > 1 or g.has_edge(next(iter(comp)), next(iter(comp)))
    ]
    # A cycle without an exit is exactly a cyclic strongly connected
    # component in which every vertex has out-degree one.
    condition_l = not any(all(out[v] == 1 for v in comp) for comp in cyclic)
    on_cycle = set().union(*cyclic) if cyclic else set()
    cofinal = all(on_cycle <= nx.descendants(g, v) | {v} for v in g)
    has_cycle = bool(cyclic)
    return {
        "sink_free": sink_free,
        "condition_L": condition_l,
        "cofinal": cofinal,
        "has_cycle": has_cycle,
        "purely_infinite_simple": sink_free and condition_l and cofinal and has_cycle,
    }


# ---------------------------------------------------------------------------
# Pointed isomorphism by Ulm sequences.
#
# In a finite abelian p-group two elements lie in one automorphism orbit
# iff their Ulm sequences (heights of x, px, p^2 x, ...) agree (Kaplansky,
# Infinite Abelian Groups, Thm. 24); a finite group is the product of its
# p-parts, and Aut acts factor-wise.  For T + Z^r an automorphism sends
# (t, f) to (alpha t + h f, beta f) with alpha in Aut T, beta in GL_r(Z)
# and h: Z^r -> T arbitrary, so the orbit of (t, f) with f of content
# c > 0 is {(t'', f'') : content f'' = c, t'' in Aut(T) t + cT}.
# ---------------------------------------------------------------------------


def _valuation(x: int, p: int) -> int:
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k


def _primes(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def ulm_sequence(factors: tuple[int, ...], x: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Heights of x, px, p^2 x, ... in the p-part of a finite group."""
    comps = []
    for c, d in zip(x, factors):
        e = _valuation(d, p)
        if e:
            comps.append((c % p**e, p**e))
    heights = []
    while any(c for c, _ in comps):
        heights.append(min(_valuation(c, p) for c, _ in comps if c))
        comps = [((c * p) % q, q) for c, q in comps]
    return tuple(heights)


def finite_orbit_equal(factors: tuple[int, ...], x, y) -> bool:
    order = math.prod(factors)
    return all(
        ulm_sequence(factors, x, p) == ulm_sequence(factors, y, p) for p in _primes(order)
    )


def pointed_orbit_equal(factors: tuple[int, ...], x, y) -> bool:
    """Is some automorphism of Z/d1 + ... (0 meaning Z) carrying x to y?"""
    finite = [i for i, d in enumerate(factors) if d]
    free = [i for i, d in enumerate(factors) if d == 0]
    tf = tuple(factors[i] for i in finite)
    tx = tuple(x[i] % factors[i] for i in finite)
    ty = tuple(y[i] % factors[i] for i in finite)
    cx = math.gcd(*(x[i] for i in free)) if free else 0
    cy = math.gcd(*(y[i] for i in free)) if free else 0
    if cx != cy:
        return False
    if cx == 0:
        return finite_orbit_equal(tf, tx, ty)
    shifts = itertools.product(*({(cx * k) % d for k in range(d)} for d in tf))
    return any(
        finite_orbit_equal(tf, tx, tuple((a - s) % d for a, s, d in zip(ty, shift, tf)))
        for shift in shifts
    )


# ---------------------------------------------------------------------------
# Expected answers per command.
# ---------------------------------------------------------------------------

_CAYLEY = {
    # n mod 6 -> (class_id, K0 factors, det, canonical label)
    0: ("ZxZ", [0, 0], 0, None),
    1: ("TRIVIAL_K0", [], -1, "L(1,2)"),
    2: ("Z3", [3], -3, "M_3(L(1,4))"),
    3: ("KLEIN4", [2, 2], -4, None),
    4: ("Z3", [3], -3, "M_3(L(1,4))"),
    5: ("TRIVIAL_K0", [], -1, "L(1,2)"),
}


def cayley_row(n: int) -> dict:
    """Row n of `lpainv table`: the class by n mod 6, and
    det(I - A^t) = 2(cos(n pi / 3) - 1) in {0, -1, -3, -4}."""
    class_id, factors, det, label = _CAYLEY[n % 6]
    if round(2 * (math.cos(n * math.pi / 3) - 1)) != det:
        raise RuntimeError(f"closed forms disagree at n = {n}")
    return {
        "n": n,
        "k0_factors": factors,
        "det": det,
        "det_sign": sign(det),
        "class_id": class_id,
        "canonical": label,
    }


def canonical_label(pis: bool, k0: K0) -> str | None:
    """M_d(L(1, N+1)) for PIS graphs with cyclic K0 of order N and det < 0;
    d = N / order of the unit class."""
    if not pis or k0.det >= 0:
        return None
    if k0.factors == ():
        order, x = 1, 0
    elif len(k0.factors) == 1 and k0.factors[0] > 0:
        order, x = k0.factors[0], k0.unit[0]
    else:
        return None
    d = math.gcd(x, order) if x % order else order
    return f"L(1,{order + 1})" if d == 1 else f"M_{d}(L(1,{order + 1}))"


def expected_invariants(graph: dict) -> dict:
    b = b_matrix(graph)
    k0 = k0_data(b)
    pis = pis_flags(graph)
    return {
        "vertices": len(graph["vertices"]),
        "edges": len(graph["edges"]),
        "adjacency": adjacency(graph),
        "b_matrix": b,
        "snf_diagonal": list(k0.diagonal),
        "k0_factors": list(k0.factors),
        "det": k0.det,
        "det_sign": sign(k0.det),
        "pis": pis,
        "canonical": canonical_label(pis["purely_infinite_simple"], k0),
    }


def images_present_cokernel(
    b: list[list[int]], factors: list[int], images: list[list[int]]
) -> bool:
    """Do the vertex images define an isomorphism Z^n / Im(B) -> G?

    Every column of B must map to zero, and the images must generate G
    (the Smith form of [images | diag(factors)] is all ones).  A
    surjection between isomorphic finitely generated abelian groups is an
    isomorphism, and the caller has already matched the factors.
    """
    n, k = len(b), len(factors)
    if len(images) != n or any(len(img) != k for img in images):
        return False
    for j in range(n):
        for r, d in enumerate(factors):
            total = sum(b[i][j] * images[i][r] for i in range(n))
            if (total % d if d else total) != 0:
                return False
    if k == 0:
        return True
    rows = [
        [images[i][r] for i in range(n)] + [factors[r] * (r == c) for c in range(k)]
        for r in range(k)
    ]
    return all(abs(int(x)) == 1 for x in invariant_factors(_domain_matrix(rows, n + k)))


def expected_classify(first: dict, second: dict) -> dict:
    """Expected `lpainv classify` outcome under the restricted criterion.

    `infinite` marks an infinite K0; there the program may answer Unknown
    with pointed_iso = UNSUPPORTED instead of deciding.  `factors` are the
    K0 factors of the first graph when both graphs are PIS.
    """
    pis = (
        pis_flags(first)["purely_infinite_simple"],
        pis_flags(second)["purely_infinite_simple"],
    )
    if not all(pis):
        return {"outcome": "NotApplicable", "infinite": False, "factors": None}
    ke, kf = k0_data(b_matrix(first)), k0_data(b_matrix(second))
    factors = list(ke.factors)
    if ke.factors != kf.factors:
        return {"outcome": "NotIsomorphic", "infinite": False, "factors": factors}
    if not pointed_orbit_equal(ke.factors, ke.unit, kf.unit):
        outcome = "NotIsomorphic"
    elif {sign(ke.det), sign(kf.det)} == {"NEGATIVE", "POSITIVE"}:
        outcome = "Unknown"
    else:
        outcome = "Isomorphic"
    return {"outcome": outcome, "infinite": ke.infinite, "factors": factors}


def box_classes(k0: K0, bound: int) -> set[tuple[int, ...]]:
    """Classes in K0 of the nonzero vectors of N^n with coordinate sum
    at most `bound`: sums of 1 to `bound` vertex classes."""
    level = {k0.reduce(x) for x in k0.images}
    seen = set(level)
    for _ in range(bound - 1):
        level = {k0.reduce(a + b for a, b in zip(x, y)) for x in level for y in k0.images}
        level -= seen
        if not level:
            break
        seen |= level
    return seen


def expected_monoid(graph: dict, bound: int) -> dict:
    """`images` are the K0 classes of the vertices; `box_classes` counts the
    K0 classes that the nonzero vectors of the box reach (None when K0 is
    infinite)."""
    k0 = k0_data(b_matrix(graph))
    return {
        "vertices": len(graph["vertices"]),
        "bound": bound,
        "pis": pis_flags(graph)["purely_infinite_simple"],
        "k0_factors": list(k0.factors),
        "infinite": k0.infinite,
        "images": [list(x) for x in k0.images],
        "box_classes": None if k0.infinite else len(box_classes(k0, bound)),
    }
