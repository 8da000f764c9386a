"""Isomorphism decisions via the restricted algebraic Kirchberg-Phillips
criterion.

For purely infinite simple unital Leavitt path algebras of finite
graphs, a pointed isomorphism of K0 groups together with determinant
signs of I - A^t that are not strictly opposite forces an algebra
isomorphism.  Pointed K0 is a complete obstruction in the other
direction, so the decision procedure is three-valued: Isomorphic,
NotIsomorphic, or Unknown on strictly opposite signs (plus NotApplicable
when either algebra fails purely infinite simplicity).  Cyclic K0 with
negative determinant pins the algebra down to a matrix algebra over a
classical Leavitt algebra L(1, n).

A copy of the Cayley graph C_n, in any vertex order, is purely infinite
simple and is read off its module (`circulant_k0`), with a zero unit
class; every other graph gets the PIS test and, when needed, one
elimination of I - A^t.  The paper's four classes of C_n are the four
`CayleyClass` records of `_CLASSES`, built once: `cayley_class(n)`
returns the one whose residues hold n mod 6.
"""

from __future__ import annotations

import math
from typing import Literal, Optional

from ._record import record
from .graphs import Graph, _cayley_order, pis_report
from .intlinalg import _as_index, _as_positive
from .ktheory import (
    AbelianGroup,
    GroupElement,
    analyse,
    circulant_k0,
    pointed_iso_exists,
)

__all__ = [
    "KPVerdict",
    "CanonicalAlgebra",
    "CayleyClass",
    "sign_of",
    "det_sign",
    "kp_decide",
    "canonical_form",
    "cayley_class",
    "EXIT_CODES",
]

Sign = Literal["NEGATIVE", "ZERO", "POSITIVE"]
Outcome = Literal["Isomorphic", "NotIsomorphic", "Unknown", "NotApplicable"]

EXIT_CODES: dict[str, int] = {
    "Isomorphic": 0,
    "NotIsomorphic": 3,
    "Unknown": 4,
    "NotApplicable": 5,
}


@record
class KPVerdict:
    """Outcome plus the ordered trace of checks that produced it."""

    outcome: Outcome
    trace: tuple[tuple[str, str], ...]


@record
class CanonicalAlgebra:
    """M_d(L(1, n)): d x d matrices over the Leavitt algebra L(1, n).

    d is normalised into 1..n-1 (a distinguished element of 0 in
    Z/(n-1)Z renders as d = n-1); d = 1 is plain L(1, n).
    """

    n: int
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _as_index(self.n, "Leavitt index n"))
        object.__setattr__(self, "d", _as_index(self.d, "matrix size d"))
        if self.n < 2:
            raise ValueError("Leavitt index n must be at least 2")
        if not 1 <= self.d <= self.n - 1:
            raise ValueError("matrix size d must be normalised into 1..n-1")

    @property
    def label(self) -> str:
        if self.d == 1:
            return f"L(1,{self.n})"
        return f"M_{self.d}(L(1,{self.n}))"


@record
class CayleyClass:
    """Isomorphism class of the cyclic-Cayley-graph algebras for one
    residue pattern mod 6: the residues of n, the invariant factors of K0
    (0 for a copy of Z), det(I - A^t) and the canonical form."""

    class_id: Literal["TRIVIAL_K0", "Z3", "KLEIN4", "ZxZ"]
    residues: tuple[int, ...]
    k0_factors: tuple[int, ...]
    det: int
    canonical: Optional[CanonicalAlgebra]


# The closed form of the Cayley graphs of Z/nZ, one record per class.
# |det| = |K0| when K0 is finite, and det < 0 unless 6 divides n.
_CLASSES = (
    CayleyClass("TRIVIAL_K0", (1, 5), (), -1, CanonicalAlgebra(2, 1)),
    CayleyClass("Z3", (2, 4), (3,), -3, CanonicalAlgebra(4, 3)),
    CayleyClass("KLEIN4", (3,), (2, 2), -4, None),
    CayleyClass("ZxZ", (0,), (0, 0), 0, None),
)


def sign_of(value: int) -> Sign:
    if value < 0:
        return "NEGATIVE"
    if value > 0:
        return "POSITIVE"
    return "ZERO"


def _pis(g: Graph, n: int | None) -> bool:
    """Whether g is purely infinite simple, for n = `_cayley_order(g)`: every
    copy of C_n is (see `circulant_k0`), so only other graphs get the test."""
    return n is not None or pis_report(g).purely_infinite_simple


def _k0(g: Graph, n: int | None) -> tuple[AbelianGroup, GroupElement, int]:
    """K0, the unit class and det(I - A^t) of g, for n = `_cayley_order(g)`:
    off `circulant_k0(n)`, with its zero unit class, for a copy of C_n,
    else from one `analyse`.  None of them changes when the vertices are
    relabelled, and every use of them here is independent of the group's
    presentation, so both paths give the same answers.
    """
    if n is not None:
        k0 = circulant_k0(n)
        return k0.group, k0.group.zero(), k0.det
    analysis = analyse(g)
    return analysis.k0.group, analysis.k0.distinguished, analysis.det


def det_sign(g: Graph) -> Sign:
    """Sign of det(I - A^t)."""
    return sign_of(_k0(g, _cayley_order(g))[2])


def _signs_compatible(a: Sign, b: Sign) -> bool:
    # "Both nonnegative or both nonpositive": zero is compatible with either.
    return not ({a, b} == {"NEGATIVE", "POSITIVE"})


def kp_decide(e: Graph, f: Graph) -> KPVerdict:
    """Three-valued isomorphism decision for a pair of graphs.

    NotApplicable unless both algebras are purely infinite simple.
    NotIsomorphic when pointed K0 data obstructs.  With a pointed
    isomorphism in hand, compatible determinant signs give Isomorphic;
    strictly opposite signs (where the restricted criterion is silent)
    give Unknown.
    """
    trace: list[tuple[str, str]] = []
    n_e, n_f = _cayley_order(e), _cayley_order(f)
    pis_e = _pis(e, n_e)
    pis_f = _pis(f, n_f)
    trace.append(("pis_first", str(pis_e)))
    trace.append(("pis_second", str(pis_f)))
    if not (pis_e and pis_f):
        return KPVerdict("NotApplicable", tuple(trace))

    group_e, unit_e, det_e = _k0(e, n_e)
    group_f, unit_f, det_f = _k0(f, n_f)
    trace.append(("k0_factors_first", str(list(group_e.factors))))
    trace.append(("k0_factors_second", str(list(group_f.factors))))
    if group_e.factors != group_f.factors:
        trace.append(("k0_factors_equal", "False"))
        return KPVerdict("NotIsomorphic", tuple(trace))
    trace.append(("k0_factors_equal", "True"))

    pointed = pointed_iso_exists(group_e, unit_e, group_f, unit_f)
    trace.append(("pointed_iso", pointed))
    if pointed == "NO":
        return KPVerdict("NotIsomorphic", tuple(trace))

    sign_e = sign_of(det_e)
    sign_f = sign_of(det_f)
    trace.append(("det_sign_first", sign_e))
    trace.append(("det_sign_second", sign_f))
    compatible = _signs_compatible(sign_e, sign_f)
    trace.append(("det_signs_compatible", str(compatible)))
    if compatible:
        return KPVerdict("Isomorphic", tuple(trace))
    return KPVerdict("Unknown", tuple(trace))


def canonical_form(g: Graph) -> Optional[CanonicalAlgebra]:
    """Recognise the algebra as M_d(L(1, n)) when the criterion applies.

    Needs purely infinite simple, finite cyclic K0 of order n-1 (the
    trivial group counting as cyclic of order 1 with n = 2), and a
    negative determinant; d is then the distinguished element mod n-1,
    rendered as n-1 when it is 0.  A cyclic generator is only canonical
    up to units, so d is reduced to its unit-orbit representative
    gcd(d, n-1), making the label independent of the generator the
    Smith normal form happened to pick.
    """
    n = _cayley_order(g)
    return _canonical(*_k0(g, n)) if _pis(g, n) else None


def _canonical(
    group: AbelianGroup, unit: GroupElement, det: int
) -> Optional[CanonicalAlgebra]:
    """The rule of `canonical_form`, on the invariants of a graph whose
    algebra is already known to be purely infinite simple.

    The `is_finite` test matters although no graph has det < 0 with an
    infinite K0: without it a faulty reading of Z at det < 0 would ask
    for L(1, inf) and raise, where `table` must report it as a mismatch.
    """
    if len(group.factors) > 1 or not group.is_finite or det >= 0:
        return None
    order = group.order
    # gcd(0, order) = order: a zero unit class renders as d = n - 1.
    return CanonicalAlgebra(n=order + 1, d=math.gcd(*unit.coords, order))


def cayley_class(n: int) -> CayleyClass:
    """The residue of n mod 6 determines the algebra of the Cayley graph.

    {1,5}: trivial K0, the algebra is L(1,2).  {2,4}: K0 = Z/3, the
    algebra is M_3(L(1,4)).  {3}: K0 = Z/2 x Z/2.  {0}: K0 = Z x Z.
    """
    n = _as_positive(n, "n")
    return next(c for c in _CLASSES if n % 6 in c.residues)
