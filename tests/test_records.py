"""The contract of the package's immutable value classes.

Each class is built by `lpa_invariants._record.record` and behaves as a
frozen dataclass did: construction in field order, positional or by
keyword; TypeError for a missing or an extra argument; validation at
construction; equality within the very same class only, with a matching
hash (identity for `CongruenceClasses` and `FiniteGroupTable`);
assignment and deletion refused; the same repr; and `copy` and `pickle`
round trips.  Each class with checks (a `__post_init__`) also has the
private `_trusted` constructor, which skips them: on values that pass
the public checks it builds the object the class builds.
"""

import copy
import operator
import pickle
import re
from itertools import accumulate

import numpy as np
import pytest
from graph_strategies import multigraphs
from hypothesis import given, settings
from hypothesis import strategies as st

from lpa_invariants.classify import CanonicalAlgebra, CayleyClass, KPVerdict
from lpa_invariants.graphs import Edge, Graph, PISReport, cayley_graph
from lpa_invariants.intlinalg import CirculantRow, IntMatrix, SmithDecomposition
from lpa_invariants.ktheory import (
    AbelianGroup,
    GraphAnalysis,
    GroupElement,
    PointedK0,
    analyse,
    circulant_k0,
)
from lpa_invariants.monoid import (
    CongruenceClasses,
    FiniteGroupTable,
    MonoidPresentation,
)

I2 = IntMatrix(((1, 0), (0, 1)))
K0 = PointedK0(
    AbelianGroup((3,)), (GroupElement((1,)), GroupElement((2,))), GroupElement((0,))
)
PRESENTATION = MonoidPresentation(1, ((0, ((0, 2),)),))

# Each class with its field names, in order, and the arguments of one instance.
FIELDS = {
    IntMatrix: ("entries",),
    SmithDecomposition: ("d", "u", "v"),
    CirculantRow: ("b",),
    Graph: ("vertices", "edges"),
    PISReport: (
        "sink_free",
        "condition_L",
        "cofinal",
        "has_cycle",
        "purely_infinite_simple",
        "witnesses",
    ),
    GroupElement: ("coords",),
    AbelianGroup: ("factors",),
    PointedK0: ("group", "vertex_images", "distinguished"),
    GraphAnalysis: ("snf_diagonal", "k0", "det"),
    KPVerdict: ("outcome", "trace"),
    CanonicalAlgebra: ("n", "d"),
    CayleyClass: ("class_id", "residues", "k0_factors", "det", "canonical"),
    MonoidPresentation: ("generator_count", "relations"),
    CongruenceClasses: (
        "generator_count",
        "bound",
        "stabilized",
        "class_count",
        "nonzero_class_count",
        "translation_joins",
        "vectors",
        "labels",
        "class_sizes",
        "_first_member",
        "_presentation",
    ),
    FiniteGroupTable: ("element_class_ids", "table", "identity_class", "inverses"),
}
ARGS = {
    IntMatrix: (((1, -2), (3, 4)),),
    SmithDecomposition: ((1, 2), I2, I2),
    CirculantRow: ((1, -1, 0),),
    Graph: (("a", "b"), (Edge("e", 0, 1), Edge("f", 1, 1))),
    PISReport: (False, True, True, True, False, (("sink_free", "a"),)),
    GroupElement: ((1, 0),),
    AbelianGroup: ((2, 0),),
    PointedK0: (K0.group, K0.vertex_images, K0.distinguished),
    GraphAnalysis: ((1, 3), K0, -3),
    KPVerdict: ("Isomorphic", (("pis_first", "True"), ("pis_second", "True"))),
    CanonicalAlgebra: (4, 3),
    CayleyClass: ("Z3", (2, 4), (3,), -3, CanonicalAlgebra(4, 3)),
    MonoidPresentation: (2, ((0, ((1, 2),)), (1, ((0, 1), (1, 1))))),
    CongruenceClasses: (
        1,
        2,
        False,
        2,
        1,
        0,
        np.array([[0], [1], [2]], dtype=np.int16),
        np.array([0, 1, 1]),
        np.array([1, 2]),
        np.array([0, 1]),
        PRESENTATION,
    ),
    FiniteGroupTable: ((1,), ((1,),), 1, (1,)),
}
# The reprs the classes had as frozen dataclasses.
REPRS = {
    IntMatrix: "IntMatrix(2x2: [1 -2; 3 4])",
    SmithDecomposition: (
        "SmithDecomposition(d=(1, 2), u=IntMatrix(2x2: [1 0; 0 1]), "
        "v=IntMatrix(2x2: [1 0; 0 1]))"
    ),
    CirculantRow: "CirculantRow(b=(1, -1, 0))",
    Graph: (
        "Graph(vertices=('a', 'b'), edges=(Edge(id='e', source=0, range=1), "
        "Edge(id='f', source=1, range=1)))"
    ),
    PISReport: (
        "PISReport(sink_free=False, condition_L=True, cofinal=True, "
        "has_cycle=True, purely_infinite_simple=False, "
        "witnesses=(('sink_free', 'a'),))"
    ),
    GroupElement: "GroupElement(coords=(1, 0))",
    AbelianGroup: "AbelianGroup(factors=(2, 0))",
    PointedK0: (
        "PointedK0(group=AbelianGroup(factors=(3,)), "
        "vertex_images=(GroupElement(coords=(1,)), GroupElement(coords=(2,))), "
        "distinguished=GroupElement(coords=(0,)))"
    ),
    GraphAnalysis: (
        "GraphAnalysis(snf_diagonal=(1, 3), k0=PointedK0(group=AbelianGroup("
        "factors=(3,)), vertex_images=(GroupElement(coords=(1,)), "
        "GroupElement(coords=(2,))), distinguished=GroupElement(coords=(0,))), "
        "det=-3)"
    ),
    KPVerdict: (
        "KPVerdict(outcome='Isomorphic', "
        "trace=(('pis_first', 'True'), ('pis_second', 'True')))"
    ),
    CanonicalAlgebra: "CanonicalAlgebra(n=4, d=3)",
    CayleyClass: (
        "CayleyClass(class_id='Z3', residues=(2, 4), k0_factors=(3,), det=-3, "
        "canonical=CanonicalAlgebra(n=4, d=3))"
    ),
    MonoidPresentation: (
        "MonoidPresentation(generator_count=2, "
        "relations=((0, ((1, 2),)), (1, ((0, 1), (1, 1)))))"
    ),
    CongruenceClasses: (
        "CongruenceClasses(generator_count=1, bound=2, stabilized=False, "
        "class_count=2, nonzero_class_count=1, translation_joins=0, "
        "vectors=array([[0],\n       [1],\n       [2]], dtype=int16), "
        "labels=array([0, 1, 1]), class_sizes=array([1, 2]), "
        "_first_member=array([0, 1]), _presentation=MonoidPresentation("
        "generator_count=1, relations=((0, ((0, 2),)),)))"
    ),
    FiniteGroupTable: (
        "FiniteGroupTable(element_class_ids=(1,), table=((1,),), "
        "identity_class=1, inverses=(1,))"
    ),
}
IDENTITY_EQUAL = {CongruenceClasses, FiniteGroupTable}
CLASSES = list(FIELDS)


def build(cls):
    return cls(*ARGS[cls])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestValueClass:
    def test_positional_and_keyword_construction(self, cls):
        a = build(cls)
        b = cls(**dict(zip(FIELDS[cls], ARGS[cls])))
        assert type(a) is cls and type(b) is cls
        assert repr(a) == repr(b)
        for name in FIELDS[cls]:
            assert name in vars(a)

    def test_missing_or_extra_argument(self, cls):
        args = ARGS[cls]
        name = re.escape(f"{cls.__name__}.__init__()")
        with pytest.raises(TypeError, match=f"{name} missing 1 required"):
            cls(*args[:-1])
        with pytest.raises(TypeError, match=f"{name} takes {len(args) + 1} "):
            cls(*args, None)
        with pytest.raises(TypeError, match=f"{name} got an unexpected keyword"):
            cls(*args, extra=None)
        with pytest.raises(TypeError, match=f"{name} got multiple values"):
            cls(*args, **{FIELDS[cls][0]: args[0]})

    def test_repr(self, cls):
        assert repr(build(cls)) == REPRS[cls]

    def test_equality_and_hash(self, cls):
        a, b = build(cls), build(cls)
        assert a == a and hash(a) == hash(a)
        if cls in IDENTITY_EQUAL:
            assert a != b and not (a == b)
            assert hash(a) == object.__hash__(a)
        else:
            assert a == b and not (a != b)
            assert hash(a) == hash(b)

    def test_unequal_to_every_other_class(self, cls):
        a = build(cls)
        for other in CLASSES:
            if other is not cls:
                assert a != build(other) and not (a == build(other))

    def test_assignment_and_deletion_refused(self, cls):
        a = build(cls)
        name = FIELDS[cls][0]
        before = repr(a)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.not_a_field = 1
        assert repr(a) == before

    def test_trusted_constructor_builds_the_same_object(self, cls):
        if not hasattr(cls, "__post_init__"):
            assert not hasattr(cls, "_trusted")
            return
        a = build(cls)
        b = cls._trusted(*(getattr(a, name) for name in FIELDS[cls]))
        assert type(b) is cls and repr(b) == repr(a)
        if cls not in IDENTITY_EQUAL:
            assert a == b and b == a and hash(a) == hash(b)

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_trips(self, cls, round_trip):
        a = build(cls)
        b = round_trip(a)
        assert type(b) is cls and repr(b) == repr(a)
        if cls in IDENTITY_EQUAL:
            assert b != a
        else:
            assert b == a and hash(b) == hash(a)


class TestSameFieldsDifferentClass:
    def test_single_tuple_field_classes_differ(self):
        values = (2, 4)
        a, b, c = GroupElement(values), AbelianGroup(values), CirculantRow(values)
        assert a != b and b != c and a != c
        assert IntMatrix((values,)) != GroupElement(values)

    def test_subclass_instances_are_not_equal(self):
        class Element(GroupElement):
            pass

        assert GroupElement((1,)) != Element((1,))
        assert Element((1,)) != GroupElement((1,))
        assert Element((1,)) == Element((1,))


class TestValidationAtConstruction:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: AbelianGroup(factors=(1,)),
            lambda: GroupElement(coords=(0.5,)),
            lambda: Graph(vertices=("a", "a"), edges=()),
            lambda: CanonicalAlgebra(n=1, d=1),
            lambda: MonoidPresentation(generator_count=1, relations=((0, ((0, 0),)),)),
            lambda: IntMatrix(entries=((1,), (1, 2))),
        ],
    )
    def test_invalid_fields_raise_value_error(self, make):
        with pytest.raises(ValueError):
            make()

    def test_fields_are_coerced(self):
        assert AbelianGroup(factors=[2, 0]).factors == (2, 0)
        edge = Graph(["a"], [("e", False, 0)]).edges[0]
        assert edge == Edge("e", 0, 0) and type(edge.source) is int
        assert type(CanonicalAlgebra(n=4, d=True).d) is int


class TestGraphCaches:
    def test_cached_properties_are_computed_once(self):
        g = cayley_graph(5)
        assert "successors" not in vars(g) and "vertex_index" not in vars(g)
        assert g.successors is g.successors
        assert g.vertex_index is g.vertex_index
        assert vars(g)["successors"] == ((1, 4), (2, 0), (3, 1), (4, 2), (0, 3))
        assert vars(g)["vertex_index"] == {f"v{i}": i - 1 for i in range(1, 6)}
        assert g == cayley_graph(5) and hash(g) == hash(cayley_graph(5))

    def test_caches_survive_a_pickle_round_trip(self):
        g = cayley_graph(4)
        successors = g.successors
        h = pickle.loads(pickle.dumps(g))
        assert h == g and h.successors == successors


class TestTrustedConstructor:
    """`_trusted` sets the fields and skips `__post_init__`, so on values
    that pass the public checks, as stored, both build equal objects."""

    def test_skips_the_checks(self):
        assert AbelianGroup._trusted((1, 3)).factors == (1, 3)
        assert GroupElement._trusted([0.5]).coords == [0.5]
        assert Graph._trusted(("a", "a"), ()).vertices == ("a", "a")

    def test_subclass_builds_its_own_instances(self):
        class Element(GroupElement):
            pass

        assert type(Element._trusted((1,))) is Element

    @staticmethod
    def assert_agree(cls, *values):
        checked, trusted = cls(*values), cls._trusted(*values)
        assert checked == trusted and trusted == checked
        assert hash(checked) == hash(trusted)
        assert repr(checked) == repr(trusted)

    @settings(deadline=None, max_examples=200)
    @given(
        st.none() | st.integers(2, 50),
        st.lists(st.integers(1, 6), max_size=3),
        st.integers(0, 2),
    )
    def test_abelian_groups(self, first, steps, zeros):
        # a divisibility chain without 1s (empty for None), then zeros
        chain = () if first is None else accumulate([first, *steps], operator.mul)
        self.assert_agree(AbelianGroup, (*chain, *(0,) * zeros))

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(-(10**30), 10**30), max_size=5))
    def test_group_elements(self, coords):
        self.assert_agree(GroupElement, tuple(coords))

    @settings(deadline=None, max_examples=100)
    @given(multigraphs(max_vertices=6))
    def test_graphs(self, g):
        self.assert_agree(Graph, g.vertices, g.edges)


@settings(deadline=None, max_examples=150)
@given(multigraphs())
def test_public_constructors_accept_what_analyse_builds(g):
    k0 = analyse(g).k0
    assert AbelianGroup(k0.group.factors) == k0.group
    for x in (*k0.vertex_images, k0.distinguished):
        assert GroupElement(x.coords) == x


def test_public_constructors_accept_what_circulant_k0_builds():
    for n in range(1, 201):
        group = circulant_k0(n).group
        assert AbelianGroup(group.factors) == group
        assert GroupElement(group.zero().coords) == group.zero()
