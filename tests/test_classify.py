import itertools

import pytest
from graph_strategies import multigraphs, permute
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpa_invariants.classify import (
    _CLASSES,
    CanonicalAlgebra,
    _canonical,
    canonical_form,
    cayley_class,
    det_sign,
    kp_decide,
    sign_of,
)
from lpa_invariants.graphs import (
    Edge,
    Graph,
    cayley_graph,
    pis_report,
    rose_graph,
    stemmed_rose_graph,
)
from lpa_invariants.intlinalg import det_exact
from lpa_invariants.ktheory import AbelianGroup, analyse, b_matrix

SINK = Graph(("v1",), ())

# det(I - A^t) = +1 with trivial K0: v1 has two loops and an edge to v2,
# v2 has three loops and an edge back.
POSITIVE_DET = Graph(
    ("v1", "v2"),
    (
        Edge("a1", 0, 0),
        Edge("a2", 0, 0),
        Edge("b", 0, 1),
        Edge("c", 1, 0),
        Edge("d1", 1, 1),
        Edge("d2", 1, 1),
        Edge("d3", 1, 1),
    ),
)

# purely infinite simple with K0 = Z and nonzero unit class
INFINITE_POINTED = Graph(
    ("v1", "v2", "v3"),
    (
        Edge("e1", 0, 2),
        Edge("e2", 1, 1),
        Edge("e3", 1, 1),
        Edge("e4", 1, 2),
        Edge("e5", 2, 1),
        Edge("e6", 2, 2),
        Edge("e7", 2, 2),
    ),
)


def residue_class(n):
    return {1: "A", 5: "A", 2: "B", 4: "B", 3: "C", 0: "D"}[n % 6]


class TestDetSign:
    def test_examples(self):
        assert det_sign(cayley_graph(5)) == "NEGATIVE"
        assert det_exact(b_matrix(cayley_graph(5))) == -1
        assert det_sign(cayley_graph(6)) == "ZERO"
        assert det_sign(stemmed_rose_graph(4, 3)) == "NEGATIVE"
        assert det_exact(b_matrix(stemmed_rose_graph(4, 3))) == -3

    def test_positive_example(self):
        assert det_sign(POSITIVE_DET) == "POSITIVE"

    def test_sign_of(self):
        assert sign_of(-5) == "NEGATIVE"
        assert sign_of(0) == "ZERO"
        assert sign_of(9) == "POSITIVE"


class TestKPDecide:
    def test_same_trivial_class(self):
        assert kp_decide(cayley_graph(7), cayley_graph(11)).outcome == "Isomorphic"

    def test_different_groups(self):
        assert kp_decide(cayley_graph(3), cayley_graph(4)).outcome == "NotIsomorphic"

    def test_c2_matches_stemmed_rose(self):
        assert (
            kp_decide(cayley_graph(2), stemmed_rose_graph(4, 3)).outcome == "Isomorphic"
        )

    def test_not_applicable_on_sink(self):
        verdict = kp_decide(SINK, cayley_graph(3))
        assert verdict.outcome == "NotApplicable"
        assert verdict.trace[0] == ("pis_first", "False")

    def test_unknown_on_opposite_signs(self):
        verdict = kp_decide(POSITIVE_DET, rose_graph(2))
        assert verdict.outcome == "Unknown"
        assert ("det_signs_compatible", "False") in verdict.trace

    def test_infinite_pointed_k0_isomorphic_to_itself(self):
        verdict = kp_decide(INFINITE_POINTED, INFINITE_POINTED)
        assert verdict.outcome == "Isomorphic"
        assert ("pointed_iso", "YES") in verdict.trace

    def test_trace_never_empty(self):
        for pair in [(SINK, SINK), (cayley_graph(1), cayley_graph(2))]:
            assert kp_decide(*pair).trace

    @pytest.mark.parametrize("n,m", [(1, 7), (2, 3), (6, 12), (4, 9)])
    def test_symmetric(self, n, m):
        a, b = cayley_graph(n), cayley_graph(m)
        assert kp_decide(a, b).outcome == kp_decide(b, a).outcome

    def test_consistency_with_residue_classes(self):
        graphs = {n: cayley_graph(n) for n in range(1, 13)}
        for n, m in itertools.product(graphs, repeat=2):
            outcome = kp_decide(graphs[n], graphs[m]).outcome
            expected = (
                "Isomorphic"
                if residue_class(n) == residue_class(m)
                else "NotIsomorphic"
            )
            assert outcome == expected, (n, m)

    @pytest.mark.parametrize("n", list(range(1, 25)))
    def test_rose2_pairs(self, n):
        outcome = kp_decide(cayley_graph(n), rose_graph(2)).outcome
        expected = "Isomorphic" if n % 6 in (1, 5) else "NotIsomorphic"
        assert outcome == expected


class TestCanonicalForm:
    def test_examples(self):
        assert canonical_form(cayley_graph(5)) == CanonicalAlgebra(2, 1)
        assert canonical_form(cayley_graph(5)).label == "L(1,2)"
        assert canonical_form(cayley_graph(4)) == CanonicalAlgebra(4, 3)
        assert canonical_form(cayley_graph(4)).label == "M_3(L(1,4))"
        assert canonical_form(cayley_graph(3)) is None
        assert canonical_form(cayley_graph(6)) is None

    def test_rose(self):
        assert canonical_form(rose_graph(2)) == CanonicalAlgebra(2, 1)
        assert canonical_form(rose_graph(4)) == CanonicalAlgebra(4, 1)

    def test_unit_orbit_normalisation(self):
        # the unit class of this graph is 2 in Z/3, a unit multiple of 1,
        # so the algebra is (isomorphic to) plain L(1,4)
        g = stemmed_rose_graph(4, 2)
        assert canonical_form(g) == CanonicalAlgebra(4, 1)
        assert kp_decide(g, rose_graph(4)).outcome == "Isomorphic"

    def test_stemmed_roses_have_unit_d(self):
        # d = n-1 cases: the unit class is 0 in Z/(n-1)
        assert canonical_form(stemmed_rose_graph(4, 3)) == CanonicalAlgebra(4, 3)
        assert canonical_form(stemmed_rose_graph(5, 4)) == CanonicalAlgebra(5, 4)
        assert canonical_form(stemmed_rose_graph(2, 2)) == CanonicalAlgebra(2, 1)

    def test_none_without_pis(self):
        assert canonical_form(SINK) is None

    def test_none_on_positive_det(self):
        assert canonical_form(POSITIVE_DET) is None

    def test_normalisation_validation(self):
        with pytest.raises(ValueError):
            CanonicalAlgebra(1, 1)
        with pytest.raises(ValueError):
            CanonicalAlgebra(4, 0)
        with pytest.raises(ValueError):
            CanonicalAlgebra(4, 4)

    @pytest.mark.parametrize("n", list(range(1, 25)))
    def test_agrees_with_cayley_class(self, n):
        assert canonical_form(cayley_graph(n)) == cayley_class(n).canonical

    def test_equal_forms_imply_isomorphic(self):
        family = [
            cayley_graph(2),
            cayley_graph(5),
            cayley_graph(7),
            rose_graph(2),
            stemmed_rose_graph(4, 3),
            stemmed_rose_graph(2, 2),
        ]
        for e, f in itertools.combinations(family, 2):
            fe, ff = canonical_form(e), canonical_form(f)
            if fe is not None and fe == ff:
                assert kp_decide(e, f).outcome == "Isomorphic"


class TestCayleyClass:
    def test_examples(self):
        assert cayley_class(7).class_id == "TRIVIAL_K0"
        assert cayley_class(7).canonical == CanonicalAlgebra(2, 1)
        assert cayley_class(9).class_id == "KLEIN4"
        assert cayley_class(9).canonical is None
        assert cayley_class(12).class_id == "ZxZ"

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cayley_class(0)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
            cayley_class(2.5)

    def test_rejects_bool(self):
        with pytest.raises(ValueError, match="n must be a positive integer, got True"):
            cayley_class(True)

    def test_canonical_algebra_rejects_non_integer(self):
        with pytest.raises(ValueError, match="Leavitt index n must be an integer"):
            CanonicalAlgebra(3.5, 1)
        with pytest.raises(ValueError, match="matrix size d must be an integer"):
            CanonicalAlgebra(4, "3")

    @pytest.mark.parametrize("n", list(range(1, 31)))
    def test_residues(self, n):
        cls = cayley_class(n)
        assert n % 6 in {r % 6 for r in cls.residues}
        expected = {
            "A": "TRIVIAL_K0",
            "B": "Z3",
            "C": "KLEIN4",
            "D": "ZxZ",
        }[residue_class(n)]
        assert cls.class_id == expected

    def test_residues_partition_the_residues_mod_6(self):
        residues = [r for cls in _CLASSES for r in cls.residues]
        assert sorted(residues) == list(range(6))
        assert len({cls.class_id for cls in _CLASSES}) == len(_CLASSES)

    @pytest.mark.parametrize("n", list(range(1, 31)))
    def test_one_shared_record_per_class(self, n):
        assert cayley_class(n) is cayley_class(n + 6)
        assert cayley_class(n) is cayley_class(n % 6 or 6)

    @pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.class_id)
    def test_closed_form_is_consistent(self, cls):
        # Each record's own data, with no graph: |det| = |K0| when K0 is
        # finite, det < 0 unless 6 divides n, and the canonical form is
        # what `_canonical` makes of K0, a zero unit class and det.
        group = AbelianGroup(cls.k0_factors)
        assert (cls.det == 0) == (0 in cls.k0_factors)
        if cls.det != 0:
            assert abs(cls.det) == group.order
        assert (cls.det < 0) == (cls.residues != (0,))
        assert _canonical(group, group.zero(), cls.det) == cls.canonical

    def test_c3_to_c6_realize_the_four_classes(self):
        assert {cayley_class(n) for n in (3, 4, 5, 6)} == set(_CLASSES)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_vertex_order_is_invisible(data):
    """Relabelling the vertices changes no invariant and no verdict,
    though the Smith transforms (and so the coordinates) may differ."""
    g = data.draw(multigraphs(max_vertices=6, max_mult=2))
    order = data.draw(st.permutations(range(g.n_vertices)))
    h = permute(g, order)
    a, b = analyse(g), analyse(h)
    assert a.k0.group == b.k0.group
    assert a.snf_diagonal == b.snf_diagonal
    assert a.det == b.det
    flags = ("sink_free", "condition_L", "cofinal", "has_cycle", "purely_infinite_simple")
    pis_g, pis_h = pis_report(g), pis_report(h)
    assert [getattr(pis_g, f) for f in flags] == [getattr(pis_h, f) for f in flags]
    assert canonical_form(g) == canonical_form(h)
    outcome = kp_decide(g, g).outcome
    assert kp_decide(g, h).outcome == kp_decide(h, g).outcome == outcome


@settings(deadline=None, max_examples=150)
@given(multigraphs(max_vertices=6, max_mult=2))
@example(INFINITE_POINTED)
@example(cayley_graph(6))
def test_every_graph_decides_against_itself(g):
    """The pointed comparison is exact and a graph's determinant sign
    agrees with itself, so no self-comparison is Unknown."""
    assert kp_decide(g, g).outcome in ("Isomorphic", "NotApplicable")
