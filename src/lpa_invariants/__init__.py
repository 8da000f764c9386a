"""Classification invariants of Leavitt path algebras of finite graphs.

The library computes, for a finite directed multigraph, the pointed K0
group of its Leavitt path algebra (via exact Smith normal form of
I - A^t), the sign of det(I - A^t), the graph conditions for purely
infinite simplicity, and a brute-force graph-monoid oracle; on top of
these it applies the restricted algebraic Kirchberg-Phillips criterion
to decide isomorphism of pairs, including the complete classification
of the algebras of the Cayley graphs of the cyclic groups Z/nZ.

The graph-monoid names are served from `.monoid` on first access
(PEP 562), so that importing the package does not import numpy, which
only the monoid box uses.
"""

from .classify import (
    CanonicalAlgebra,
    CayleyClass,
    KPVerdict,
    canonical_form,
    cayley_class,
    det_sign,
    kp_decide,
)
from .graphs import (
    Edge,
    Graph,
    PISReport,
    adjacency_matrix,
    cayley_graph,
    graph_from_dict,
    graph_to_dict,
    pis_report,
    rose_graph,
    stemmed_rose_graph,
)
from .intlinalg import (
    CirculantRow,
    IntMatrix,
    SmithDecomposition,
    SparseSmith,
    circulant_det_product,
    det_exact,
    smith_normal_form,
    sparse_smith,
)
from .ktheory import (
    INFINITE,
    AbelianGroup,
    CirculantK0,
    GraphAnalysis,
    GroupElement,
    PointedK0,
    analyse,
    b_matrix,
    circulant_k0,
    cokernel_pointed,
    element_order,
    pointed_iso_exists,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "CanonicalAlgebra",
    "CayleyClass",
    "CirculantK0",
    "CirculantRow",
    "CongruenceClasses",
    "Edge",
    "FiniteGroupTable",
    "Graph",
    "GraphAnalysis",
    "GroupElement",
    "INFINITE",
    "IntMatrix",
    "KPVerdict",
    "MonoidPresentation",
    "NOT_CLOSED",
    "PISReport",
    "PointedK0",
    "SmithDecomposition",
    "SparseSmith",
    "adjacency_matrix",
    "analyse",
    "b_matrix",
    "canonical_form",
    "cayley_class",
    "cayley_graph",
    "circulant_det_product",
    "circulant_k0",
    "cokernel_pointed",
    "crosscheck_cokernel",
    "det_exact",
    "det_sign",
    "element_order",
    "graph_from_dict",
    "graph_to_dict",
    "kp_decide",
    "mstar_group",
    "pis_report",
    "pointed_iso_exists",
    "presentation",
    "rose_graph",
    "saturate",
    "smith_normal_form",
    "sparse_smith",
    "stemmed_rose_graph",
]

# The names of `__all__` not imported above come from `.monoid`.
_MONOID_NAMES = frozenset(__all__).difference(globals())


def __getattr__(name: str):
    if name in _MONOID_NAMES:
        from . import monoid

        return getattr(monoid, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MONOID_NAMES)
