"""Pointed K0 data of the Leavitt path algebra of a finite graph.

With B = I - A^t for adjacency matrix A, the group K0 is the cokernel
Z^n / Im(B), presented in invariant-factor form via the Smith normal
form of B.  The left transform u of the decomposition carries the class
of the i-th standard basis vector (the class [v_i] of vertex i) to its
coordinates in the factor presentation; the distinguished element is the
sum of all vertex classes, i.e. the class of the unit module.

For the Cayley graph C_n, `circulant_k0` reads the group and det off
the module Z[x]/(x^n - 1, x^2 - x + 1), on a 2 x 2 matrix, from x^n
alone, with no elimination: for x^n - 1 = a + bx the group is read off
gcd(a, b) and a^2 + ab + b^2.  The unit class sum_{i<n} x^i is
x (1 - x^n), a multiple of x^n - 1, so it is zero.  As x^6 = 1 there,
x^n = x^(n mod 6): C_n's data depend on n mod 6 alone, and x^n takes at
most five ring steps.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Literal, NamedTuple

from ._record import record
from .graphs import Graph
from .intlinalg import IntMatrix, _as_index, _as_positive, _eliminate, sparse_smith

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
        return GroupElement._trusted((0,) * len(self.factors))

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

    Nothing built here is checked again.  B comes from a `Graph`, whose
    edges were checked when it was built, so it goes straight to the
    elimination (`intlinalg._eliminate`), past `sparse_smith`'s input
    check.  The elimination leaves d as a divisibility chain with zeros
    last, so the group and the reduced coordinates are built by the
    records' `_trusted` constructors, past `AbelianGroup`'s and
    `GroupElement`'s checks.  `_check_pointed` is the check of the
    result, for the tests.
    """
    n = g.n_vertices
    result = _eliminate(_b_rows(g), n)
    keep = [i for i, di in enumerate(result.d) if di != 1]
    group = AbelianGroup._trusted(tuple(result.d[i] for i in keep))
    rows = [result.u_rows[i] for i in keep]
    # Row i of u gives coordinate i of every vertex image and, summed, of
    # the distinguished element: each is reduced mod d_i once, here.
    coords = []
    for row, d in zip(rows, group.factors):
        values = [row.get(j, 0) for j in range(n)]
        values.append(sum(row.values()))
        coords.append([x % d for x in values] if d else values)
    columns = list(zip(*coords)) if coords else [()] * (n + 1)
    element = GroupElement._trusted
    images = tuple(map(element, columns[:n]))
    k0 = PointedK0(group=group, vertex_images=images, distinguished=element(columns[n]))
    return GraphAnalysis(snf_diagonal=result.d, k0=k0, det=result.det)


def _check_pointed(g: Graph, analysis: GraphAnalysis) -> str | None:
    """Check that `analysis` presents the pointed K0 of g; None if it does.

    With phi: Z^n -> G the map e_i -> vertex image i, the steps are, in
    order: "form", G in invariant-factor form (as `AbelianGroup` checks
    it) and every element a tuple of len(G.factors) ints, reduced;
    "relations", phi(B e_j) = 0 for every column j of B = I - A^t;
    "onto", phi onto G; "unit", the distinguished element equal to
    phi(sum of all e_i); "order", |G| = |det B| when G is finite, det B =
    0 when it is not.  The first step that fails is returned by name.
    The first three make phi induce a map from Z^n / Im(B) onto G, and
    for a finite G equal orders make it an isomorphism.  An onto map of an
    infinite G may still have a finite kernel, which no order shows, so
    for an infinite G that passes every step the result is "unchecked".
    det is read off the same elimination as the images, so the order step
    trusts it.  The tests run this on `analyse`'s results, whose group
    and elements are not checked as they are built.
    """
    k0 = analysis.k0
    group, images, unit = k0.group, k0.vertex_images, k0.distinguished
    factors = group.factors
    n = g.n_vertices
    try:
        if AbelianGroup(factors).factors != factors or len(images) != n:
            return "form"
        for x in (*images, unit):
            if GroupElement(x.coords).coords != x.coords:
                return "form"
            group._check(x)
    except ValueError:
        return "form"

    def reduced(vector) -> tuple[int, ...]:
        return tuple(c % d if d else c for c, d in zip(vector, factors))

    # phi(B e_j), column by column, from the rows of B
    totals = [[0] * len(factors) for _ in range(n)]
    for i, row in enumerate(_b_rows(g)):
        for j, x in row.items():
            totals[j] = [t + x * c for t, c in zip(totals[j], images[i].coords)]
    zero = (0,) * len(factors)
    if any(reduced(t) != zero for t in totals):
        return "relations"
    # phi is onto iff the images and the relations d_t e_t span Z^k.
    span = [
        {**{j: x.coords[t] for j, x in enumerate(images)}, n + t: d}
        for t, d in enumerate(factors)
    ]
    if any(d != 1 for d in sparse_smith(span, n + len(factors)).d):
        return "onto"
    sums = [sum(x.coords[t] for x in images) for t in range(len(factors))]
    if reduced(sums) != unit.coords:
        return "unit"
    if group.is_finite:
        return None if group.order == abs(analysis.det) else "order"
    return "unchecked" if analysis.det == 0 else "order"


def cokernel_pointed(g: Graph) -> PointedK0:
    """Pointed cokernel of B = I - A^t in invariant-factor form."""
    return analyse(g).k0


class CirculantK0(NamedTuple):
    """K0 group and det(I - A^t) of C_n, all that varies with n.

    The group is in invariant-factor form, so its factors are those
    `analyse` finds for the same graph; no elimination picks a
    presentation.  The unit class is zero for every n (see
    `_circulant_read`), so every isomorphism of the groups carries the
    one unit class to the other, and the algebra is purely infinite
    simple for every n (see `circulant_k0`).
    """

    group: AbelianGroup
    det: int


def _times(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a * b in Z[x]/(x^2 - x + 1), on the coefficients of 1 and x."""
    (a0, a1), (b0, b1) = a, b
    return (a0 * b0 - a1 * b1, a0 * b1 + a1 * b0 + a1 * b1)  # x^2 = x - 1


def circulant_k0(n: int) -> CirculantK0:
    """K0 and det(I - A^t) of `cayley_graph(n)`, without building it.

    With e_i = x^i, Z^n is Z[x]/(x^n - 1) and I - A^t multiplies by
    1 - x - x^-1 = -x^-1 (x^2 - x + 1).  As x is a unit there, K0 =
    Z[x]/(x^n - 1, x^2 - x + 1): Z^2 on 1 and x, where x acts as the
    companion matrix C of x^2 - x + 1, modulo the image of C^n - I.
    `_circulant_read` reads the group and det of the 2 x 2 matrix
    C^n - I off the gcd of its entries and its determinant, with no
    elimination; the unit class, which is not returned, is always zero.

    x^n has period 6: in Z[x]/(x^2 - x + 1), x^2 = x - 1, so
    x^3 = x^2 - x = -1 and x^6 = 1.  Hence x^n = x^(n mod 6), which
    takes at most five multiplications by x, and C_n's data depend on
    n mod 6 alone.

    Over C, multiplication by -x^-1 is -1 times a cyclic permutation,
    with det (-1)^n (-1)^(n-1) = -1, and multiplication by x^2 - x + 1
    has det prod_{w^n = 1} (w - a)(w - b) = (a^n - 1)(b^n - 1) =
    det(C^n - I) over its roots a and b, so det(I - A^t) =
    -det(C^n - I).  Every vertex emits two edges and the shift 1
    reaches every vertex, so every cycle has an exit and the graph is
    cofinal: the algebra is purely infinite simple for every n.

    Raises ValueError when n is not a positive integer.
    """
    n = _as_positive(n, "n")
    power = (1, 0)  # x^0
    for _ in range(n % 6):
        power = _times(power, (0, 1))
    return _circulant_read(power)


def _circulant_read(power: tuple[int, int]) -> CirculantK0:
    """The K0 data of C_n from x^n alone, by its determinantal divisors.

    With x^n - 1 = a + bx, C^n - I has columns x^n - 1 = (a, b) and
    x (x^n - 1) = (-b, a + b).  Its first invariant factor is the gcd
    d1 of its entries, gcd(a, b), and the product of both is |det|.  The
    det is a (a + b) + b^2 = a^2 + ab + b^2, a norm form that is never
    negative and is 0 only at a = b = 0.  So the group is Z/d1 +
    Z/(det / d1), or Z^2 when d1 = 0, and det(I - A^t) =
    -det(C^n - I).  The unit class is zero: it is sum_{i<n} x^i =
    x (1 - x^n) = -x (x^n - 1), as (x - 1)(-x) = x - x^2 = 1 in
    Z[x]/(x^2 - x + 1), and that lies in (x^n - 1) = Im(C^n - I).
    """
    a, b = power[0] - 1, power[1]
    d1, det = math.gcd(a, b), a * a + a * b + b * b
    factors = (d1, det // d1) if d1 else (0, 0)
    # d1^2 divides the det, a quadratic form in a and b, so d1 divides
    # det / d1: the factors are a divisibility chain as they stand.
    group = AbelianGroup._trusted(tuple(d for d in factors if d != 1))
    return CirculantK0(group, -det)


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
