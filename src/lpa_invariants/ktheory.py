"""Pointed K0 data of the Leavitt path algebra of a finite graph.

With B = I - A^t for adjacency matrix A, the group K0 is the cokernel
Z^n / Im(B), presented in invariant-factor form via the Smith normal
form of B.  The left transform u of the decomposition carries the class
of the i-th standard basis vector (the class [v_i] of vertex i) to its
coordinates in the factor presentation; the distinguished element is the
sum of all vertex classes, i.e. the class of the unit module.

For the Cayley graph C_n, `circulant_k0` reads the same data off the
module Z[x]/(x^n - 1, x^2 - x + 1), on a 2 x 2 matrix, from x^n alone:
the unit class sum_{i<n} x^i is x (1 - x^n).  `_circulant_rows` reads
C_1..C_m off one upward walk in that module, as `table` does: one ring
step per row, and one reading per distinct x^n it meets.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Literal, NamedTuple

from ._record import record
from .graphs import Graph
from .intlinalg import IntMatrix, _as_index, sparse_smith

__all__ = [
    "INFINITE",
    "AbelianGroup",
    "CirculantK0",
    "GroupElement",
    "GraphAnalysis",
    "PointedK0",
    "analyse",
    "b_matrix",
    "circulant_k0",
    "cokernel_pointed",
    "element_order",
    "pointed_iso_exists",
]

INFINITE: float = math.inf

IsoVerdict = Literal["YES", "NO"]


@record
class GroupElement:
    """Coordinates with respect to the factor list of an AbelianGroup."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(_as_index(c, "coordinate") for c in self.coords)
        object.__setattr__(self, "coords", coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@record
class AbelianGroup:
    """Z/d1 + Z/d2 + ... in invariant-factor form; a factor 0 means Z.

    No factor equals 1, finite factors form a divisibility chain and
    precede the zero factors, so equal factor tuples mean isomorphic
    groups and vice versa.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(_as_index(d, "factor") for d in self.factors)
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
        coords = tuple(_as_index(c, "coordinate") for c in coords)
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


@record
class PointedK0:
    """K0 group, the images of the vertex classes, and the unit class."""

    group: AbelianGroup
    vertex_images: tuple[GroupElement, ...]
    distinguished: GroupElement


@record
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
    # Row i of u gives coordinate i of every vertex image and, summed, of
    # the distinguished element: each is reduced mod d_i once here and
    # coerced once by GroupElement.
    coords = []
    for row, d in zip(rows, group.factors):
        values = [row.get(j, 0) for j in range(n)]
        values.append(sum(row.values()))
        coords.append([x % d for x in values] if d else values)
    columns = list(zip(*coords)) if coords else [()] * (n + 1)
    images = tuple(map(GroupElement, columns[:n]))
    k0 = PointedK0(
        group=group, vertex_images=images, distinguished=GroupElement(columns[n])
    )
    return GraphAnalysis(snf_diagonal=result.d, k0=k0, det=result.det)


def cokernel_pointed(g: Graph) -> PointedK0:
    """Pointed cokernel of B = I - A^t in invariant-factor form."""
    return analyse(g).k0


class CirculantK0(NamedTuple):
    """K0 group, unit class, det(I - A^t) and PIS flag of C_n.

    The unit class is in the factor presentation of `group`, which need
    not be the one `analyse` picks for the same graph; some isomorphism
    of the groups carries the one unit class to the other.
    """

    group: AbelianGroup
    distinguished: GroupElement
    det: int
    purely_infinite_simple: bool


def _times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a * b in Z[x]/(x^2 - x + 1), on the coefficients of 1 and x."""
    (a0, a1), (b0, b1) = a, b
    return (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0 + a1 * b1)  # x^2 = x - 1


def circulant_k0(n: int) -> CirculantK0:
    """`analyse` and `pis_report` of `cayley_graph(n)`, without building it.

    With e_i = x^i, Z^n is Z[x]/(x^n - 1) and I - A^t multiplies by
    1 - x - x^-1 = -x^-1 (x^2 - x + 1).  As x is a unit there, K0 =
    Z[x]/(x^n - 1, x^2 - x + 1): Z^2 on 1 and x, where x acts as the
    companion matrix C of x^2 - x + 1, modulo the image of C^n - I.
    One square-and-multiply recursion in Z[x]/(x^2 - x + 1) gives x^n,
    and `_circulant_read` eliminates the 2 x 2 matrix C^n - I and reads
    the group, the unit's coordinates and det off it.  `table`, which
    needs every n in order, reads its rows off one upward walk
    (`_circulant_rows`) instead.

    Over C, multiplication by -x^-1 is -1 times a cyclic permutation,
    with det (-1)^n (-1)^(n-1) = -1, and multiplication by x^2 - x + 1
    has det prod_{w^n = 1} (w - a)(w - b) = (a^n - 1)(b^n - 1) =
    det(C^n - I) over its roots a and b, so det(I - A^t) =
    -det(C^n - I).  Every vertex emits two edges and the shift 1
    reaches every vertex, so every cycle has an exit and the graph is
    cofinal: the algebra is purely infinite simple for every n.

    x is a sixth root of unity, so the coefficients stay small and the
    work is O(log n).  Raises ValueError when n is not a positive
    integer.
    """
    if isinstance(n, bool) or (n := _as_index(n, "n")) < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    power = (1, 0)  # x^0
    for bit in bin(n)[2:]:
        power = _times(power, power)
        if bit == "1":
            power = _times(power, (0, 1))
    return _circulant_read(power)


def _circulant_rows(max_n: int) -> Iterator[CirculantK0]:
    """`circulant_k0(n)` for n = 1..max_n, in order, from one walk.

    Each step multiplies x^(n-1) by x.  x^n fixes the row, so each
    distinct x^n is read once per call and its row object reused (x is a
    sixth root of unity, so the walk meets at most six); nothing is kept
    between calls.
    """
    rows: dict = {}
    power = (1, 0)  # x^0
    for _ in range(max_n):
        power = _times(power, (0, 1))
        row = rows.get(power)
        if row is None:
            row = rows[power] = _circulant_read(power)
        yield row


def _circulant_read(power: tuple[int, int]) -> CirculantK0:
    """The K0 data of C_n from x^n alone.

    The unit class is sum_{i<n} x^i = x (1 - x^n), as (x - 1)(-x) =
    x - x^2 = 1 in Z[x]/(x^2 - x + 1).  One `sparse_smith` of C^n - I
    gives the group, the rows of u that carry the unit's coordinates and
    det(I - A^t) = -det(C^n - I).
    """
    column = (power[0] - 1, power[1])  # x^n - 1; C^n - I has it and x times it
    columns = (column, _times(column, (0, 1)))
    result = sparse_smith(
        [{j: col[i] for j, col in enumerate(columns) if col[i]} for i in range(2)], 2
    )
    unit = _times((0, 1), (1 - power[0], -power[1]))
    keep = [i for i, di in enumerate(result.d) if di != 1]
    group = AbelianGroup(tuple(result.d[i] for i in keep))
    coords = []
    for i, di in zip(keep, group.factors):
        c = sum(x * unit[j] for j, x in result.u_rows[i].items())
        coords.append(c % di if di else c)
    return CirculantK0(group, GroupElement(tuple(coords)), -result.det, True)


def element_order(group: AbelianGroup, x: GroupElement) -> int | float:
    """Least k >= 1 with k*x = 0, or INFINITE."""
    group._check(x)
    pairs = list(zip(x.coords, group.factors))
    if any(c for c, d in pairs if d == 0):
        return INFINITE
    return math.lcm(*(d // math.gcd(d, c) for c, d in pairs if d))


def _valuation(n: int, q: int) -> int:
    """Exponent of q > 1 in n >= 1."""
    return next(e for e in itertools.count() if n % q ** (e + 1))


def _coprime_base(values: list[int]) -> list[int]:
    """Pairwise coprime q > 1 whose powers give every value, by splitting
    any pair with g = gcd > 1 into g, a/g, b/g (no factoring)."""
    base: list[int] = []
    todo = [v for v in set(values) if v > 1]
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(a, b)
            if g > 1:
                del base[i]
                todo += [v for v in (g, a // g, b // g) if v > 1]
                break
        else:
            base.append(a)
    return base


def pointed_iso_exists(
    g: AbelianGroup, x: GroupElement, h: AbelianGroup, y: GroupElement
) -> IsoVerdict:
    """Does some isomorphism g -> h carry x to y?  Exact for all groups.

    NO when the factor lists differ.  Else g = T + Z^r, T = sum Z/d_j,
    x = (t, f), y = (t', f'), and c is the gcd of f (0 when f = 0).

    Orbits.  As Hom(T, Z^r) = 0, the automorphisms are (t, f) ->
    (a t + n(f), b f) with a in Aut T, n: Z^r -> T and b in GL_r(Z).
    b f runs over the vectors of content c, and n(f) over cT = wT with
    w = gcd(c, exp T).  So x ~ y iff c(x) = c(y) and, at each prime p,
    t'_p is in Aut(T_p) t_p + p^k T_p, k = v_p(w) (Aut T = prod Aut T_p).

    At p, with h the p-height, this holds iff H(t_p) = H(t'_p), where
    H(a)_i = min(h(p^i a), k + i) for i = 0..e_p.  (=>) Heights are
    Aut-invariant and h(p^i s) >= k + i for s in p^k T_p.  (<=) Drop the
    coordinates of valuation >= k from t_p and t'_p to get u and u': then
    H(u) = H(t_p) = H(t'_p) = H(u'), and as every nonzero p^i u has height
    < k + i, H(u) fixes the Ulm sequence of u, and likewise for u'.
    Kaplansky (Infinite Abelian Groups, Thm. 24) gives a u = u', so a t_p
    is in t'_p + p^k T_p.  With e_j = v_p(d_j) and v_j = v_p(gcd(t_j, d_j)),
    H(t_p)_i - i = min({k} + {v_j : v_j + i < e_j}).

    No factoring: each prime p divides one q of a coprime base of the d_j,
    gcd(t_j, d_j), gcd(t'_j, d_j) and w, and each valuation is m = v_p(q)
    times an exponent of q.  As mV + i < mE iff V + floor(i/m) < E, the
    sequences in exponents of q decide every p | q.
    """
    g._check(x)
    h._check(y)
    finite = [d for d in g.factors if d]
    content = math.gcd(*x.coords[len(finite) :])
    if g.factors != h.factors or content != math.gcd(*y.coords[len(finite) :]):
        return "NO"
    w = math.gcd(content, math.lcm(*finite))
    gx, gy = ([math.gcd(t, d) for t, d in zip(z.coords, finite)] for z in (x, y))
    if gx == gy:  # the test reads t only through these gcds
        return "YES"
    for q in _coprime_base(finite + gx + gy + [w]):
        e = [_valuation(d, q) for d in finite]
        k = _valuation(w, q)
        vx, vy = ([_valuation(c, q) for c in gz] for gz in (gx, gy))
        for i in range(max(e) + 1):
            hx, hy = ([v for v, ej in zip(vz, e) if v + i < ej] for vz in (vx, vy))
            if min([k] + hx) != min([k] + hy):
                return "NO"
    return "YES"
