import ast
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from graph_strategies import (
    NAMED_GRAPHS,
    multigraphs,
    out_degree_graph,
    random_multigraph,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ as INTEGERS
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import invariant_factors

import lpa_invariants
from lpa_invariants.graphs import (
    adjacency_matrix,
    cayley_graph,
    pis_report,
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
    GraphAnalysis,
    GroupElement,
    PointedK0,
    _check_pointed,
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
    def test_rejects_non_integer_factors(self):
        with pytest.raises(ValueError):
            AbelianGroup((2.5,))
        with pytest.raises(ValueError):
            AbelianGroup(("3",))
        assert AbelianGroup((np.int64(2), np.int32(4))).factors == (2, 4)

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

    def test_element_rejects_non_integer_coordinates(self):
        with pytest.raises(ValueError):
            Z3.element((1.9,))
        with pytest.raises(ValueError):
            Z3.element(("1",))
        assert Z3.element((np.int64(4),)).coords == (1,)

    def test_group_element_rejects_non_integer_coordinates(self):
        with pytest.raises(ValueError):
            GroupElement((1.0,))
        assert GroupElement((np.int8(2), 0)).coords == (2, 0)

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

    def test_infinite_nonzero_decided(self):
        z = AbelianGroup((0,))
        assert pointed_iso_exists(z, z.element((1,)), z, z.element((1,))) == "YES"
        assert pointed_iso_exists(z, z.element((1,)), z, z.element((-1,))) == "YES"
        assert pointed_iso_exists(z, z.element((2,)), z, z.element((1,))) == "NO"

    def test_invalid_element_rejected(self):
        with pytest.raises(ValueError):
            pointed_iso_exists(Z3, GroupElement((1, 0)), Z3, Z3.zero())


# ---------------------------------------------------------------------------
# Oracles for the pointed comparison.
# ---------------------------------------------------------------------------


def _automorphism_sends(group: AbelianGroup, x: GroupElement, y: GroupElement) -> bool:
    """Search for an automorphism with phi(x) = y by assigning images to
    the factor generators (exhaustive).  The image of generator i must
    have order d_i and meet the span of the images before it only in 0,
    so each complete assignment is an automorphism.  Generators with a
    nonzero coordinate in x go first: once they are placed, phi(x) is
    known and a wrong value cuts the branch."""
    factors = group.factors
    # per generator: each element of order d_i with its multiples 0..d_i - 1
    candidates = [
        [
            [group.scale(k, e) for k in range(d)]
            for e in group.elements()
            if element_order(group, e) == d
        ]
        for d in factors
    ]
    order = sorted(range(len(factors)), key=lambda i: x.coords[i] == 0)
    placed_by = sum(1 for c in x.coords if c)

    def assign(level: int, span: set[GroupElement], phi_x: GroupElement) -> bool:
        if level == placed_by and phi_x != y:
            return False
        if level == len(order):
            return True
        i = order[level]
        for multiples in candidates[i]:
            if any(m in span for m in multiples[1:]):
                continue
            grown = {group.add(s, m) for s in span for m in multiples}
            if assign(level + 1, grown, group.add(phi_x, multiples[x.coords[i]])):
                return True
        return False

    return assign(0, {group.zero()}, group.zero())


def _enumerated(group: AbelianGroup, x: GroupElement, y: GroupElement) -> str:
    # equal orders are necessary; checking them first spares the
    # exhaustive search most of its NO answers
    if element_order(group, x) != element_order(group, y):
        return "NO"
    return "YES" if _automorphism_sends(group, x, y) else "NO"


def _shift_search(group: AbelianGroup, x: GroupElement, y: GroupElement) -> str:
    """Brute force over the cT shifts for group = T + Z^r: x ~ y iff the
    free parts have equal content c and t + s lies in the Aut(T)-orbit
    of t' for some s in cT.  The orbit test is the finite case, which
    the enumerator checks."""
    s = len(group.factors) - group.rank
    torsion = AbelianGroup(group.factors[:s])
    c = math.gcd(*x.coords[s:])
    if c != math.gcd(*y.coords[s:]):
        return "NO"
    t, t2 = torsion.element(x.coords[:s]), torsion.element(y.coords[:s])
    shifts = {torsion.scale(c, a) for a in torsion.elements()}
    for shift in shifts:
        if pointed_iso_exists(torsion, torsion.add(t, shift), torsion, t2) == "YES":
            return "YES"
    return "NO"


def _chains(limit: int) -> list[tuple[int, ...]]:
    """Invariant-factor lists of every finite abelian group of order <= limit."""
    out = []

    def extend(chain: tuple[int, ...], order: int) -> None:
        out.append(chain)
        d = chain[-1] if chain else 2
        while order * d <= limit:
            extend(chain + (d,), order * d)
            d += chain[-1] if chain else 1

    extend((), 1)
    return out


SMALL_GROUPS = [AbelianGroup(f) for f in _chains(48)]


def _iso(group: AbelianGroup, a, b) -> str:
    return pointed_iso_exists(group, group.element(a), group, group.element(b))


def _elements(group: AbelianGroup):
    return st.tuples(
        *(st.integers(0, d - 1) if d else st.integers(-12, 12) for d in group.factors)
    ).map(group.element)


class TestPointedIsoOracles:
    def test_chains(self):
        counts = [sum(1 for f in _chains(n) if math.prod(f) == n) for n in (8, 16, 36)]
        assert counts == [3, 5, 4]

    def test_every_pair_to_order_16(self):
        for group in SMALL_GROUPS:
            if group.order > 16:
                continue
            for x, y in itertools.product(group.elements(), repeat=2):
                assert pointed_iso_exists(group, x, group, y) == _enumerated(group, x, y)

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_drawn_pairs_to_order_48(self, data):
        group = data.draw(st.sampled_from(SMALL_GROUPS))
        x, y = data.draw(_elements(group)), data.draw(_elements(group))
        assert pointed_iso_exists(group, x, group, y) == _enumerated(group, x, y)

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_free_part_against_shift_search(self, data):
        torsion = data.draw(st.sampled_from(_chains(64)))
        group = AbelianGroup(torsion + (0,) * data.draw(st.integers(1, 2)))
        x = data.draw(_elements(group))
        y = data.draw(_elements(group))
        if data.draw(st.booleans()):
            # the free part of x, negated and permuted: same content, so
            # that the torsion parts decide
            free = data.draw(st.permutations([-f for f in x.coords[len(torsion) :]]))
            y = group.element(y.coords[: len(torsion)] + tuple(free))
        assert pointed_iso_exists(group, x, group, y) == _shift_search(group, x, y)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shift_does_not_reduce_to_the_quotient(self, p):
        # T = Z/p + Z/p^2 and content p: (0, 1) and (1, 0) agree in T/pT,
        # but no automorphism of T moves (0, 1) into (1, 0) + pT
        g = AbelianGroup((p, p * p, 0))
        assert _iso(g, (0, 1, p), (1, 0, p)) == "NO"
        assert _iso(g, (0, 1, 1), (1, 0, 1)) == "YES"
        assert _iso(g, (0, 1, p), (0, 1 + p, -p)) == "YES"

    def test_order_64_and_729(self):
        # Ulm sequences (heights of x, px, p^2 x, ...) decide these at once
        g = AbelianGroup((2, 4, 8))
        assert _iso(g, (1, 0, 0), (0, 2, 0)) == "NO"
        assert _iso(g, (1, 0, 0), (1, 2, 0)) == "YES"
        h = AbelianGroup((3, 9, 27))
        assert _iso(h, (1, 0, 0), (0, 3, 0)) == "NO"
        assert _iso(h, (0, 1, 0), (0, 1, 9)) == "YES"
        assert _iso(h, (0, 1, 0), (0, 0, 3)) == "NO"

    def test_large_factors_need_no_factoring(self):
        # d has the prime factors 2^61 - 1 and 2^31 - 1: trial division
        # up to sqrt(d) would not finish
        m61, m31 = 2**61 - 1, 2**31 - 1
        d = m61 * m31 * 12
        cyclic = AbelianGroup((d,))
        assert _iso(cyclic, (6,), (30,)) == "YES"  # 5 does not divide d
        assert _iso(cyclic, (m61,), (m31,)) == "NO"
        g = AbelianGroup((m61, d, 0))
        # both of order m61, of height 0 in the m61-part Z/m61 + Z/m61
        assert _iso(g, (1, 0, 0), (0, m31 * 12, 0)) == "YES"
        assert _iso(g, (1, 0, 0), (0, 12, 0)) == "NO"
        # content m61 leaves only the m61-part unshifted
        assert _iso(g, (1, 0, m61), (1, 12, m61)) == "YES"
        assert _iso(g, (1, 0, m61), (0, m61, m61)) == "NO"
        assert _iso(g, (0, m61, m61), (0, 2 * m61, m61)) == "YES"
        assert _iso(g, (0, m61, m61), (0, 2 * m61, 2)) == "NO"


def test_library_imports_no_benchmark_code():
    package = Path(lpa_invariants.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("perfbench", "oracle"), (path.name, name)


# ---------------------------------------------------------------------------
# `_check_pointed`: `analyse` builds its group and elements without
# re-checking them, so every result over these graphs is checked here,
# and the check must catch a result that is off in any one way.


def assert_pointed(g):
    analysis = analyse(g)
    expected = None if analysis.k0.group.is_finite else "unchecked"
    assert _check_pointed(g, analysis) == expected


@settings(deadline=None, max_examples=150)
@given(
    multigraphs(max_vertices=6, min_vertices=3).filter(
        lambda g: pis_report(g).purely_infinite_simple
    )
)
def test_check_pointed_passes_small_pis_graphs(g):
    assert_pointed(g)


@pytest.mark.parametrize("seed", range(40))
def test_check_pointed_passes_dense_multigraphs(seed):
    rng = random.Random(seed)
    assert_pointed(random_multigraph(rng, rng.randint(12, 28), rng.uniform(0.2, 0.8)))


def test_check_pointed_passes_cayley_and_out_degree_graphs():
    for n in range(1, 41):
        assert_pointed(cayley_graph(n))
    for k in (2, 3):
        assert_pointed(out_degree_graph(300, k))


def test_check_pointed_reports_an_infinite_group_unchecked():
    for name in ("one_loop_singular", "rank_one", "two_loops_apart"):
        g = NAMED_GRAPHS[name]
        assert not analyse(g).k0.group.is_finite
        assert _check_pointed(g, analyse(g)) == "unchecked"


def _altered(analysis, factors=None, images=None, unit=None):
    """`analysis` with its group, vertex images or unit class replaced,
    built past every check."""
    k0 = analysis.k0
    group = AbelianGroup._trusted(k0.group.factors if factors is None else factors)
    coords = [x.coords for x in k0.vertex_images] if images is None else images
    return GraphAnalysis(
        analysis.snf_diagonal,
        PointedK0(
            group,
            tuple(map(GroupElement._trusted, coords)),
            GroupElement._trusted(k0.distinguished.coords if unit is None else unit),
        ),
        analysis.det,
    )


def _coprime_split(d):
    """(a, b) with a * b = d, gcd(a, b) = 1 and a, b > 1, by trial
    division, or None."""
    for p in range(2, 1000):
        if d % p == 0:
            a = p
            while d % (a * p) == 0:
                a *= p
            return (a, d // a) if d > a else None
    return None


# K0 = Z/6, Z/6, Z/2 + Z/2, Z/3, Z/5, then cyclic groups of orders 7,805
# to 148,116 and Z/2 + Z/5,056,068: seven of the eleven have a factor that
# splits into two coprime ones.
MUTANT_GRAPHS = [
    rose_graph(7),
    stemmed_rose_graph(7, 2),
    cayley_graph(3),
    cayley_graph(4),
    NAMED_GRAPHS["parallel_edges"],
] + [random_multigraph(random.Random(seed), 12 + seed, 0.5) for seed in range(6)]


@pytest.mark.parametrize("g", MUTANT_GRAPHS, ids=lambda g: f"{g.n_vertices}v")
def test_check_pointed_catches_every_mutant(g):
    analysis = analyse(g)
    factors = analysis.k0.group.factors
    assert analysis.k0.group.is_finite and factors
    assert _check_pointed(g, analysis) is None
    images = [x.coords for x in analysis.k0.vertex_images]
    unit = analysis.k0.distinguished.coords

    def bumped(coords, t):
        return coords[:t] + ((coords[t] + 1) % factors[t],) + coords[t + 1 :]

    def refactored(t, moduli):
        # factor t replaced by `moduli`, coordinate t by its residues
        def carry(coords):
            return coords[:t] + tuple(coords[t] % m for m in moduli) + coords[t + 1 :]

        new = factors[:t] + moduli + factors[t + 1 :]
        return _altered(analysis, new, [carry(c) for c in images], carry(unit))

    mutants = []
    for t, d in enumerate(factors):
        for i in range(len(images)):
            moved = images[:i] + [bumped(images[i], t)] + images[i + 1 :]
            mutants.append(_altered(analysis, images=moved))
            # the unit class moved along, so that it still sums the images
            mutants.append(_altered(analysis, images=moved, unit=bumped(unit, t)))
        mutants.append(_altered(analysis, unit=bumped(unit, t)))
        mutants.append(refactored(t, (2 * d,)))
        # Z/d split into Z/a + Z/b with ab = d, gcd(a, b) = 1
        if split := _coprime_split(d):
            mutants.append(refactored(t, split))
        # every element times a prime q | d, so the images span a proper
        # subgroup; Z/d taken to its proper quotient Z/(d/q)
        q = next(q for q in range(2, d + 1) if d % q == 0)
        scaled = [tuple(q * c for c in x) for x in (*images, unit)]
        mutants.append(_altered(analysis, images=scaled[:-1], unit=scaled[-1]))
        mutants.append(refactored(t, () if d == q else (d // q,)))
    steps = ("form", "relations", "onto", "unit", "order")
    for mutant in mutants:
        assert _check_pointed(g, mutant) in steps
