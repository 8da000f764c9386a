"""Pointed K0 data of the Leavitt path algebra of a finite graph.

With B = I - A^t for adjacency matrix A, the group K0 is the cokernel
Z^n / Im(B), presented in invariant-factor form via the Smith normal
form of B.  The left transform u of the decomposition carries the class
of the i-th standard basis vector (the class [v_i] of vertex i) to its
coordinates in the factor presentation; the distinguished element is the
sum of all vertex classes, i.e. the class of the unit module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Literal

from .graphs import Graph
from .intlinalg import IntMatrix, sparse_smith

__all__ = [
    "INFINITE",
    "AbelianGroup",
    "GroupElement",
    "GraphAnalysis",
    "PointedK0",
    "analyse",
    "b_matrix",
    "cokernel_pointed",
    "element_order",
    "pointed_iso_exists",
]

INFINITE: float = math.inf

# Exhaustive automorphism search is only attempted on groups up to this order.
_ENUMERATION_LIMIT = 10_000

IsoVerdict = Literal["YES", "NO", "UNSUPPORTED"]


@dataclass(frozen=True)
class GroupElement:
    """Coordinates with respect to the factor list of an AbelianGroup."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True)
class AbelianGroup:
    """Z/d1 + Z/d2 + ... in invariant-factor form; a factor 0 means Z.

    No factor equals 1, finite factors form a divisibility chain and
    precede the zero factors, so equal factor tuples mean isomorphic
    groups and vice versa.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(int(d) for d in self.factors)
        if any(d < 0 for d in factors):
            raise ValueError("factors must be nonnegative")
        if any(d == 1 for d in factors):
            raise ValueError("trivial factors must be removed")
        finite = [d for d in factors if d > 0]
        if tuple(finite) != factors[: len(finite)]:
            raise ValueError("finite factors must precede zero factors")
        for a, b in zip(finite, finite[1:]):
            if b % a != 0:
                raise ValueError(f"factors violate the divisibility chain: {a} !| {b}")
        object.__setattr__(self, "factors", factors)

    @property
    def rank(self) -> int:
        return sum(1 for d in self.factors if d == 0)

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def order(self) -> int | float:
        if not self.is_finite:
            return INFINITE
        return math.prod(self.factors)

    def element(self, coords) -> GroupElement:
        coords = tuple(int(c) for c in coords)
        if len(coords) != len(self.factors):
            raise ValueError(
                f"expected {len(self.factors)} coordinates, got {len(coords)}"
            )
        return GroupElement(
            tuple(c % d if d else c for c, d in zip(coords, self.factors))
        )

    def zero(self) -> GroupElement:
        return GroupElement((0,) * len(self.factors))

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        self._check(a)
        self._check(b)
        return self.element(tuple(x + y for x, y in zip(a.coords, b.coords)))

    def neg(self, a: GroupElement) -> GroupElement:
        self._check(a)
        return self.element(tuple(-x for x in a.coords))

    def scale(self, k: int, a: GroupElement) -> GroupElement:
        self._check(a)
        return self.element(tuple(k * x for x in a.coords))

    def elements(self) -> Iterator[GroupElement]:
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(d) for d in self.factors)):
            yield GroupElement(coords)

    def _check(self, x: GroupElement) -> None:
        if len(x.coords) != len(self.factors):
            raise ValueError("element has the wrong number of coordinates")
        for c, d in zip(x.coords, self.factors):
            if d and not 0 <= c < d:
                raise ValueError(f"coordinate {c} out of range for factor {d}")


@dataclass(frozen=True)
class PointedK0:
    """K0 group, the images of the vertex classes, and the unit class."""

    group: AbelianGroup
    vertex_images: tuple[GroupElement, ...]
    distinguished: GroupElement


@dataclass(frozen=True)
class GraphAnalysis:
    """Everything one elimination of B = I - A^t yields for a graph."""

    snf_diagonal: tuple[int, ...]
    k0: PointedK0
    det: int


def _b_rows(g: Graph) -> list[dict[int, int]]:
    # Row i of I - A^t: 1 at (i, i), minus one at (i, j) per edge j -> i.
    rows = [{i: 1} for i in range(g.n_vertices)]
    for e in g.edges:
        row = rows[e.range]
        x = row.get(e.source, 0) - 1
        if x:
            row[e.source] = x
        else:
            del row[e.source]
    return rows


def b_matrix(g: Graph) -> IntMatrix:
    """I_n - A^t for the adjacency matrix A of g."""
    n = g.n_vertices
    return IntMatrix(
        tuple(tuple(row.get(j, 0) for j in range(n)) for row in _b_rows(g))
    )


def analyse(g: Graph) -> GraphAnalysis:
    """Smith diagonal, pointed K0 and det of B = I - A^t, from one pass.

    From u @ B @ v = diag(d), left-multiplication by u identifies
    Z^n / Im(B) with the direct sum of Z/d_i, so vertex i maps to column
    i of u reduced factor-wise; trivial factors (d_i = 1) are dropped.
    Only the rows of u with d_i != 1 are read, so only they are built
    (for C_n at most two).  The determinant comes off the same
    elimination.
    """
    n = g.n_vertices
    result = sparse_smith(_b_rows(g), n)
    keep = [i for i, di in enumerate(result.d) if di != 1]
    group = AbelianGroup(tuple(result.d[i] for i in keep))
    rows = [result.u_rows[i] for i in keep]
    images = tuple(
        group.element(tuple(row.get(j, 0) for row in rows)) for j in range(n)
    )
    distinguished = group.element(tuple(sum(row.values()) for row in rows))
    k0 = PointedK0(group=group, vertex_images=images, distinguished=distinguished)
    return GraphAnalysis(snf_diagonal=result.d, k0=k0, det=result.det)


def cokernel_pointed(g: Graph) -> PointedK0:
    """Pointed cokernel of B = I - A^t in invariant-factor form."""
    return analyse(g).k0


def element_order(group: AbelianGroup, x: GroupElement) -> int | float:
    """Least k >= 1 with k*x = 0, or INFINITE."""
    group._check(x)
    order = 1
    for c, d in zip(x.coords, group.factors):
        if d == 0:
            if c != 0:
                return INFINITE
        else:
            order = math.lcm(order, d // math.gcd(d, c))
    return order


def _automorphism_sends(group: AbelianGroup, x: GroupElement, y: GroupElement) -> bool:
    """Search for an automorphism with phi(x) = y by assigning images to
    the factor generators (exhaustive, with subgroup-size pruning)."""
    factors = group.factors
    k = len(factors)
    elems = list(group.elements())
    by_order: dict[int, list[GroupElement]] = {}
    for e in elems:
        by_order.setdefault(int(element_order(group, e)), []).append(e)
    candidates = [by_order.get(d, []) for d in factors]
    total = int(group.order)

    def span_size(images: list[GroupElement]) -> int:
        seen = {group.zero()}
        for img, d in zip(images, factors):
            seen = {
                group.add(s, group.scale(c, img)) for s in seen for c in range(d)
            }
        return len(seen)

    chosen: list[GroupElement] = []

    def assign(i: int) -> bool:
        if i == k:
            phi_x = group.zero()
            for c, img in zip(x.coords, chosen):
                phi_x = group.add(phi_x, group.scale(c, img))
            return phi_x == y
        expected = math.prod(factors[: i + 1])
        for cand in candidates[i]:
            chosen.append(cand)
            if span_size(chosen) == expected and assign(i + 1):
                return True
            chosen.pop()
        return False

    if total == 1:
        return x == y
    return assign(0)


def pointed_iso_exists(
    g: AbelianGroup, x: GroupElement, h: AbelianGroup, y: GroupElement
) -> IsoVerdict:
    """Does some isomorphism g -> h carry x to y?

    NO when the factor lists or the element orders differ; YES when both
    elements are zero (identity maps to identity under any isomorphism);
    otherwise decided exactly by enumeration for finite groups of order
    at most 10^4, and UNSUPPORTED beyond that (in particular for infinite
    groups with nonzero distinguished elements).
    """
    g._check(x)
    h._check(y)
    if g.factors != h.factors:
        return "NO"
    ox = element_order(g, x)
    oy = element_order(h, y)
    if ox != oy:
        return "NO"
    if ox == 1:
        return "YES"
    if not g.is_finite or g.order > _ENUMERATION_LIMIT:
        return "UNSUPPORTED"
    return "YES" if _automorphism_sends(g, x, y) else "NO"
