import pytest
from graph_strategies import NAMED_GRAPHS, multigraphs
from hypothesis import example, given, settings
from sympy import ZZ as INTEGERS
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

from lpa_invariants.graphs import (
    adjacency_matrix,
    cayley_graph,
    rose_graph,
    stemmed_rose_graph,
)
from lpa_invariants.intlinalg import (
    IntMatrix,
    det_exact,
    diagonal_matrix,
    smith_normal_form,
    sparse_smith,
)
from lpa_invariants.ktheory import (
    INFINITE,
    AbelianGroup,
    GroupElement,
    analyse,
    b_matrix,
    cokernel_pointed,
    element_order,
    pointed_iso_exists,
)

Z3 = AbelianGroup((3,))
KLEIN = AbelianGroup((2, 2))
Z4 = AbelianGroup((4,))
ZZ = AbelianGroup((0, 0))


class TestAbelianGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            AbelianGroup((1, 2))
        with pytest.raises(ValueError):
            AbelianGroup((0, 2))
        with pytest.raises(ValueError):
            AbelianGroup((2, 3))
        with pytest.raises(ValueError):
            AbelianGroup((-2,))
        assert AbelianGroup((2, 4, 0)).factors == (2, 4, 0)

    def test_order(self):
        assert AbelianGroup(()).order == 1
        assert KLEIN.order == 4
        assert ZZ.order == INFINITE

    def test_element_reduction(self):
        assert Z3.element((7,)).coords == (1,)
        assert Z3.element((-1,)).coords == (2,)
        assert ZZ.element((-1, 5)).coords == (-1, 5)
        with pytest.raises(ValueError):
            Z3.element((1, 2))

    def test_arithmetic(self):
        a = KLEIN.element((1, 0))
        b = KLEIN.element((1, 1))
        assert KLEIN.add(a, b).coords == (0, 1)
        assert KLEIN.neg(a) == a
        assert KLEIN.scale(3, b) == b
        assert KLEIN.zero().is_zero

    def test_elements_enumeration(self):
        assert len(list(KLEIN.elements())) == 4
        assert list(AbelianGroup(()).elements()) == [GroupElement(())]
        with pytest.raises(ValueError):
            list(ZZ.elements())


class TestBMatrix:
    def test_c3(self):
        assert b_matrix(cayley_graph(3)).entries == (
            (1, -1, -1),
            (-1, 1, -1),
            (-1, -1, 1),
        )

    def test_c1(self):
        assert b_matrix(cayley_graph(1)).entries == ((-1,),)

    def test_stemmed_rose(self):
        assert b_matrix(stemmed_rose_graph(4, 3)).entries == ((1, 0), (-2, -3))

    def test_transpose_matters(self):
        g = stemmed_rose_graph(4, 3)  # adjacency is not symmetric
        assert b_matrix(g).entries[0][1] == 0
        assert b_matrix(g).entries[1][0] == -2


class TestCokernelPointed:
    def test_c3_klein(self):
        k = cokernel_pointed(cayley_graph(3))
        assert k.group.factors == (2, 2)
        images = k.vertex_images
        assert len(set(images)) == 3
        assert all(not img.is_zero for img in images)
        assert k.distinguished.is_zero

    def test_c4_z3(self):
        k = cokernel_pointed(cayley_graph(4))
        assert k.group.factors == (3,)
        assert k.distinguished.is_zero

    def test_c6_z_times_z(self):
        k = cokernel_pointed(cayley_graph(6))
        assert k.group.factors == (0, 0)
        assert k.distinguished.is_zero

    def test_stemmed_rose_4_3(self):
        k = cokernel_pointed(stemmed_rose_graph(4, 3))
        assert k.group.factors == (3,)
        v1, v2 = k.vertex_images
        # [v1] = 2[v2], [v2] generates, unit class is d = 3 = 0 mod 3
        assert element_order(k.group, v2) == 3
        assert v1 == k.group.scale(2, v2)
        assert k.distinguished.is_zero

    def test_rose_k0_cyclic(self):
        for n in (2, 3, 5):
            k = cokernel_pointed(rose_graph(n))
            expect = () if n == 2 else (n - 1,)
            assert k.group.factors == expect

    @pytest.mark.parametrize("n", list(range(1, 41)))
    def test_distinguished_is_zero_for_cayley(self, n):
        assert cokernel_pointed(cayley_graph(n)).distinguished.is_zero

    @pytest.mark.parametrize("n", list(range(1, 31)))
    def test_vertex_shift_relations(self, n):
        k = cokernel_pointed(cayley_graph(n))
        g = k.group
        for i in range(n):
            assert k.vertex_images[i] == g.neg(k.vertex_images[(i + 3) % n])
            assert k.vertex_images[i] == k.vertex_images[(i + 6) % n]

    @pytest.mark.parametrize("n", list(range(1, 25)))
    def test_residue_class_factors(self, n):
        factors = cokernel_pointed(cayley_graph(n)).group.factors
        expected = {1: (), 5: (), 2: (3,), 4: (3,), 3: (2, 2), 0: (0, 0)}[n % 6]
        assert factors == expected

    def test_same_residue_same_factors(self):
        for n in range(1, 25):
            for m in range(n, 25, 6):
                a = cokernel_pointed(cayley_graph(n)).group.factors
                b = cokernel_pointed(cayley_graph(m)).group.factors
                assert a == b

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9])
    def test_factor_product_matches_det(self, n):
        g = cayley_graph(n)
        k = cokernel_pointed(g)
        prod = 1
        for d in k.group.factors:
            prod *= d
        assert prod == abs(det_exact(b_matrix(g)))

    def test_snf_diagonal_gives_factors(self):
        g = cayley_graph(9)
        d = smith_normal_form(b_matrix(g)).d
        nontrivial = tuple(x for x in d if x != 1)
        assert nontrivial == cokernel_pointed(g).group.factors

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 12])
    def test_vertex_images_generate(self, n):
        g = cayley_graph(n)
        assert_images_present_cokernel(g, cokernel_pointed(g))


def _sympy_matrix(rows, ncols):
    return DomainMatrix(
        [[INTEGERS(x) for x in row] for row in rows], (len(rows), ncols), INTEGERS
    )


def assert_images_present_cokernel(g, k):
    """The vertex images kill every column of B and generate the group."""
    group = k.group
    b = b_matrix(g).entries
    for j in range(g.n_vertices):
        relation = group.zero()
        for i in range(g.n_vertices):
            relation = group.add(relation, group.scale(b[i][j], k.vertex_images[i]))
        assert relation.is_zero
    # Z^r maps onto the group iff the images together with the relations
    # d_i * e_i span Z^r, i.e. every invariant factor of the stack is 1.
    r = len(group.factors)
    stack = [img.coords for img in k.vertex_images]
    stack += [tuple(d * (i == t) for t in range(r)) for i, d in enumerate(group.factors) if d]
    if r:
        assert invariant_factors(_sympy_matrix(stack, r)) == (1,) * r


@settings(deadline=None, max_examples=150)
@given(multigraphs())
@example(NAMED_GRAPHS["empty"])
@example(NAMED_GRAPHS["sink"])
@example(NAMED_GRAPHS["one_loop_singular"])
@example(NAMED_GRAPHS["source_into_rose"])
@example(NAMED_GRAPHS["isolated_vertex"])
@example(NAMED_GRAPHS["parallel_edges"])
@example(NAMED_GRAPHS["rank_one"])
def test_analyse_matches_sympy(g):
    """One elimination against sympy: invariant factors, det (also
    against Bareiss), u @ B @ v == diag and the vertex images."""
    n = g.n_vertices
    b = b_matrix(g)
    assert b == IntMatrix.identity(n) - adjacency_matrix(g).transpose()
    analysis = analyse(g)
    reference = _sympy_matrix(b.entries, n)
    assert analysis.snf_diagonal == tuple(int(x) for x in invariant_factors(reference))
    assert analysis.det == int(reference.det()) == det_exact(b)
    result = sparse_smith([dict(enumerate(row)) for row in b.entries], n)
    u = IntMatrix(tuple(tuple(row.get(j, 0) for j in range(n)) for row in result.u_rows))
    v = IntMatrix(tuple(tuple(col.get(i, 0) for col in result.v_cols) for i in range(n)))
    assert (u @ b @ v).entries == diagonal_matrix(result.d, n, n).entries
    assert abs(det_exact(u)) == abs(det_exact(v)) == 1
    assert analysis.k0 == cokernel_pointed(g)
    assert_images_present_cokernel(g, analysis.k0)


class TestElementOrder:
    def test_zero_has_order_one(self):
        for group in (Z3, KLEIN, ZZ, AbelianGroup(())):
            assert element_order(group, group.zero()) == 1

    def test_c3_vertex_images_have_order_two(self):
        k = cokernel_pointed(cayley_graph(3))
        assert element_order(k.group, k.vertex_images[0]) == 2

    def test_infinite(self):
        assert element_order(ZZ, ZZ.element((1, 0))) == INFINITE

    def test_mixed(self):
        g = AbelianGroup((2, 4))
        assert element_order(g, g.element((1, 2))) == 2
        assert element_order(g, g.element((1, 1))) == 4

    def test_invalid_element(self):
        with pytest.raises(ValueError):
            element_order(Z3, GroupElement((5,)))
        with pytest.raises(ValueError):
            element_order(Z3, GroupElement((1, 1)))


class TestPointedIso:
    def test_identity_to_identity(self):
        assert pointed_iso_exists(Z3, Z3.zero(), Z3, Z3.zero()) == "YES"

    def test_generator_to_generator(self):
        assert pointed_iso_exists(Z3, Z3.element((1,)), Z3, Z3.element((2,))) == "YES"

    def test_order_mismatch(self):
        assert pointed_iso_exists(Z3, Z3.element((1,)), Z3, Z3.zero()) == "NO"

    def test_factor_lists_differ(self):
        assert (
            pointed_iso_exists(KLEIN, KLEIN.element((1, 0)), Z4, Z4.element((1,)))
            == "NO"
        )

    def test_klein_any_nonzero_pair(self):
        for a in KLEIN.elements():
            for b in KLEIN.elements():
                want = "YES" if (a.is_zero == b.is_zero) else "NO"
                assert pointed_iso_exists(KLEIN, a, KLEIN, b) == want

    def test_z4_respects_subgroup_structure(self):
        # 2 is the unique element of order 2: it can only map to itself
        two = Z4.element((2,))
        one = Z4.element((1,))
        three = Z4.element((3,))
        assert pointed_iso_exists(Z4, two, Z4, two) == "YES"
        assert pointed_iso_exists(Z4, one, Z4, three) == "YES"
        assert pointed_iso_exists(Z4, one, Z4, two) == "NO"

    def test_z2_z4_unit_orbit(self):
        g = AbelianGroup((2, 4))
        # (1, 0) and (0, 2) both have order 2, but their quotients differ:
        # no automorphism identifies them.
        assert pointed_iso_exists(g, g.element((1, 0)), g, g.element((0, 2))) == "NO"
        assert pointed_iso_exists(g, g.element((1, 0)), g, g.element((1, 2))) == "YES"

    def test_infinite_zero_distinguished(self):
        assert pointed_iso_exists(ZZ, ZZ.zero(), ZZ, ZZ.zero()) == "YES"

    def test_infinite_nonzero_unsupported(self):
        z = AbelianGroup((0,))
        assert pointed_iso_exists(z, z.element((1,)), z, z.element((1,))) == "UNSUPPORTED"

    def test_invalid_element_rejected(self):
        with pytest.raises(ValueError):
            pointed_iso_exists(Z3, GroupElement((1, 0)), Z3, Z3.zero())
