import itertools
import math
import random
import tracemalloc
from functools import cached_property

import networkx as nx
import numpy as np
import pytest
from graph_strategies import NAMED_GRAPHS, graph_from_pairs, multigraphs
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpa_invariants import monoid
from lpa_invariants.graphs import Graph, adjacency_matrix, cayley_graph, rose_graph
from lpa_invariants.ktheory import GroupElement, PointedK0, cokernel_pointed
from lpa_invariants.monoid import (
    NOT_CLOSED,
    FiniteGroupTable,
    MonoidPresentation,
    crosscheck_cokernel,
    default_bound,
    mstar_group,
    presentation,
    saturate,
)

C3 = cayley_graph(3)


def dense_relations(p):
    """The relations as (i, rhs) with rhs the n-wide row of coefficients,
    zeros included: the form the oracles of this file read."""
    rows = []
    for i, terms in p.relations:
        rhs = [0] * p.generator_count
        for j, a in terms:
            rhs[j] = a
        rows.append((i, tuple(rhs)))
    return rows


def is_single_rewrite(p, x, y):
    """True when y arises from x by one relation applied in either direction."""
    for i, rhs in dense_relations(p):
        delta = tuple(r - (1 if j == i else 0) for j, r in enumerate(rhs))
        if tuple(b - a for a, b in zip(x, y)) == delta:
            return True
        if tuple(a - b for a, b in zip(x, y)) == delta:
            return True
    return False


def needed_bound(p):
    """Smallest bound `saturate` accepts for `p`."""
    return max([1] + [sum(rhs) for _, rhs in dense_relations(p)])


def _simplex_table(n, bound):
    """table[k, r] = C(r + k, k), built by cumulative sums."""
    table = np.ones((n + 1, bound + 1), dtype=np.int64)
    for k in range(1, n + 1):
        table[k] = np.cumsum(table[k - 1])
    return table


def _rank_vectors(w, bound, table):
    """Rank of each row of `w` in the lex-ordered box of sum <= bound, by
    the formula sum_k C(b_k + k, k) - C(b_k - w_k + k, k) read off the
    table; an oracle independent of `CongruenceClasses.rank_of`."""
    m, n = w.shape
    if n == 0:
        return np.zeros(m, dtype=np.int64)
    w = w.astype(np.int64)
    budgets = bound - (w.cumsum(axis=1) - w)
    ks = np.arange(n, 0, -1)
    high = table[ks[None, :], budgets]
    low = table[ks[None, :], budgets - w]
    return (high - low).sum(axis=1)


class TestPresentation:
    def test_c3(self):
        p = presentation(C3)
        assert p.generator_count == 3
        assert p.relations == (
            (0, ((1, 1), (2, 1))),
            (1, ((0, 1), (2, 1))),
            (2, ((0, 1), (1, 1))),
        )

    def test_c1(self):
        p = presentation(cayley_graph(1))
        assert p.relations == ((0, ((0, 2),)),)

    def test_sink_has_no_relation(self):
        p = presentation(Graph(("v1",), ()))
        assert p.generator_count == 1
        assert p.relations == ()

    def test_validation(self):
        for relations, message in [
            (((5, ((0, 1),)),), "relation generator index 5 out of range"),
            (((0, ((2, 1),)),), "relation term index 2 out of range"),
            (((0, ((-1, 1),)),), "relation term index -1 out of range"),
            (((0, ((1, 1), (0, 1))),), "indices must be strictly increasing"),
            (((0, ((1, 1), (1, 2))),), "indices must be strictly increasing"),
            (((0, ((1, 0),)),), "coefficients must be positive, got 0"),
            (((0, ((0, 1), (1, -1))),), "coefficients must be positive, got -1"),
            (((0, ()),), "right-hand side must be nonempty"),
            (((0, ((0, 1, 1),)),), r"must be an \(index, coefficient\) pair"),
            (((0, (((0, 1),),)),), r"must be an \(index, coefficient\) pair"),
            # dense rows of the old form
            (((0, (0, 1)),), r"must be an \(index, coefficient\) pair, got 0$"),
            (((1, (2, 0)),), r"must be an \(index, coefficient\) pair, got 2$"),
        ]:
            with pytest.raises(ValueError, match=message):
                MonoidPresentation(2, relations)

    def test_rejects_non_integer_data(self):
        for bad in [
            (2, ((0.7, ((1, 1),)),)),
            (2, ((0, ((1.5, 1),)),)),
            (2, ((0, ((1, "1"),)),)),
            (2, ((0, ("ab",)),)),
            (2.0, ((0, ((1, 1),)),)),
        ]:
            with pytest.raises(ValueError, match="must be an integer"):
                MonoidPresentation(*bad)
        p = MonoidPresentation(
            np.int64(2), [(np.int8(0), [(np.int64(0), np.int16(1)), np.array([1, 2])])]
        )
        assert p.generator_count == 2
        assert p.relations == ((0, ((0, 1), (1, 2))),)
        assert {type(x) for x in (p.relations[0][0], *p.relations[0][1][1])} == {int}
        assert type(p.relations[0][1]) is tuple and type(p.relations[0][1][0]) is tuple

    @settings(deadline=None, max_examples=100)
    @given(multigraphs(max_vertices=5, max_mult=3))
    @example(NAMED_GRAPHS["empty"])
    @example(NAMED_GRAPHS["sink"])
    @example(NAMED_GRAPHS["isolated_vertex"])
    @example(NAMED_GRAPHS["parallel_edges"])
    def test_relations_are_nonsink_adjacency_rows(self, g):
        """The terms are the nonzero entries of each nonzero adjacency row,
        and the record, built unchecked, is the one the checks build."""
        adj = adjacency_matrix(g).entries
        p = presentation(g)
        assert p.generator_count == g.n_vertices
        assert p.relations == tuple(
            (i, tuple((j, a) for j, a in enumerate(row) if a))
            for i, row in enumerate(adj)
            if any(row)
        )
        assert dense_relations(p) == [(i, row) for i, row in enumerate(adj) if any(row)]
        assert MonoidPresentation(p.generator_count, p.relations) == p

    def test_default_bound(self):
        assert default_bound(presentation(C3)) == 12  # max(8, 2*3*2)
        assert default_bound(presentation(cayley_graph(1))) == 8


class TestSaturate:
    def test_c3_bound_8_has_five_classes(self):
        c = saturate(presentation(C3), 8)
        assert c.class_count == 5
        assert c.stabilized
        named = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        ids = [c.class_of(v) for v in named]
        assert len(set(ids)) == 5

    @pytest.mark.parametrize("bound", [6, 8, 10])
    def test_c3_count_stable_across_bounds(self, bound):
        c = saturate(presentation(C3), bound)
        assert c.class_count == 5
        assert c.stabilized

    def test_c1_collapses(self):
        c = saturate(presentation(cayley_graph(1)), 6)
        assert c.class_count == 2
        assert c.members(1) == [(k,) for k in range(1, 7)]

    def test_rose2_collapses(self):
        c = saturate(presentation(rose_graph(2)), 5)
        assert c.class_count == 2

    def test_zero_vector_alone(self):
        for c in (
            saturate(presentation(C3), 8),
            saturate(presentation(cayley_graph(4)), 10),
        ):
            assert c.class_of((0,) * c.generator_count) == 0
            assert int(c.class_sizes[0]) == 1

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            saturate(presentation(C3), 1)

    def test_box_partition_shape(self):
        c = saturate(presentation(C3), 6)
        assert len(c.vectors) == len(c.labels)
        assert len(c.vectors) == 84  # C(9, 3) vectors of sum <= 6 in N^3
        reps = c.representatives()
        assert list(reps) == sorted(reps)  # class ids follow lexicographic reps
        assert int(c.class_sizes.sum()) == len(c.vectors)

    def test_class_of_outside_box_rejected(self):
        c = saturate(presentation(C3), 6)
        with pytest.raises(ValueError):
            c.class_of((7, 0, 0))
        with pytest.raises(ValueError):
            c.class_of((1, 1))

    def test_non_integer_coordinates_rejected(self):
        c = saturate(presentation(C3), 8)
        for bad in [(0.9, 0, 0), (1.5, 0, 0), (1.0, 0, 0), ("2", 0, 0), (None, 0, 0)]:
            with pytest.raises(ValueError):
                c.rank_of(bad)
            with pytest.raises(ValueError):
                c.class_of(bad)
        for bad in (8.0, 8.5, "8"):
            with pytest.raises(ValueError):
                saturate(presentation(C3), bad)

    def test_numpy_integers_accepted(self):
        c = saturate(presentation(C3), np.int64(8))
        assert c.bound == 8 and type(c.bound) is int
        v1 = np.array([1, 0, 0], dtype=np.int16)
        assert c.class_of(v1) == c.class_of((1, 0, 0)) != 0


class TestClassQueries:
    """`representative` and `members` take class ids 0..class_count-1 and
    a nonnegative integer `limit`, as `_as_index` reads integers."""

    C = saturate(presentation(C3), 8)

    @pytest.mark.parametrize("class_id", [-1, 5, 99])
    def test_representative_rejects_ids_outside_the_classes(self, class_id):
        with pytest.raises(ValueError, match="out of range 0..4"):
            self.C.representative(class_id)

    @pytest.mark.parametrize("class_id", [-1, 5, 99])
    def test_members_rejects_ids_outside_the_classes(self, class_id):
        with pytest.raises(ValueError, match="out of range 0..4"):
            self.C.members(class_id)

    @pytest.mark.parametrize("class_id", [1.0, 2.5, "1", None])
    def test_rejects_non_integer_ids(self, class_id):
        with pytest.raises(ValueError, match="class id must be an integer"):
            self.C.representative(class_id)
        with pytest.raises(ValueError, match="class id must be an integer"):
            self.C.members(class_id)

    def test_rejects_negative_limit(self):
        with pytest.raises(ValueError, match="limit must be nonnegative"):
            self.C.members(1, limit=-1)

    @pytest.mark.parametrize("limit", [2.5, "2"])
    def test_rejects_non_integer_limit(self, limit):
        with pytest.raises(ValueError, match="limit must be an integer"):
            self.C.members(1, limit=limit)

    def test_integer_like_ids_and_limits(self):
        c = self.C
        everything = c.members(1)
        assert len(everything) == int(c.class_sizes[1]) > 2
        assert c.members(np.int64(1), limit=np.int8(2)) == everything[:2]
        assert c.members(1, limit=0) == []
        assert c.members(1, limit=len(everything) + 5) == everything
        assert c.representative(np.int64(4)) == c.representatives()[4]
        assert c.representative(1) == everything[0]


class TestBoxCap:
    def test_over_cap_box_is_refused_before_enumerating(self, monkeypatch):
        def enumerated(*args):
            raise AssertionError("the box was enumerated")

        monkeypatch.setattr(monoid, "_box_vectors", enumerated)
        monkeypatch.setattr(monoid, "_elementary_edges", enumerated)
        p = presentation(cayley_graph(20))
        with pytest.raises(ValueError, match="pass a smaller bound"):
            saturate(p, 12)  # C(32, 12) = 225,792,840 vectors

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_cap_admits_cayley_boxes_at_bound_12(self, n):
        need = math.comb(n + 12, n) * monoid._box_bytes_per_vector(n)
        assert need <= monoid._MAX_BOX_BYTES

    def test_bound_beyond_int16_coordinates_is_refused(self, monkeypatch):
        monkeypatch.setattr(monoid, "_box_vectors", None)
        with pytest.raises(ValueError, match="largest box coordinate 32767"):
            saturate(presentation(cayley_graph(1)), 32768)

    def test_no_generators_take_any_bound(self):
        c = saturate(presentation(NAMED_GRAPHS["empty"]), 40_000)
        assert (c.class_count, c.stabilized, len(c.vectors)) == (1, True, 1)

    def test_box_is_column_major_and_read_only(self):
        c = saturate(presentation(cayley_graph(4)), 6)
        assert c.vectors.shape == (math.comb(10, 4), 4)
        assert c.vectors.dtype == np.int16
        assert c.vectors.flags.f_contiguous
        assert not c.vectors.flags.writeable


@settings(deadline=None, max_examples=50)
@given(multigraphs(max_vertices=5, max_mult=2), st.integers(0, 4))
@example(NAMED_GRAPHS["empty"], 0)
@example(NAMED_GRAPHS["sink"], 4)
@example(NAMED_GRAPHS["source_into_rose"], 4)
@example(NAMED_GRAPHS["rank_one"], 4)
def test_rank_of_over_whole_box(g, extra):
    """`rank_of` inverts `vectors` on every row of the box, and agrees
    with the table-driven formula."""
    p = presentation(g)
    bound = needed_bound(p) + extra
    c = saturate(p, bound)
    oracle = _rank_vectors(c.vectors, bound, _simplex_table(p.generator_count, bound))
    assert np.array_equal(oracle, np.arange(len(c.vectors)))
    for r, row in enumerate(c.vectors):
        assert c.rank_of(row) == r


@settings(deadline=None, max_examples=60)
@given(
    multigraphs(max_vertices=4, max_mult=2),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
@example(NAMED_GRAPHS["empty"], 2, random.Random(0))
@example(NAMED_GRAPHS["sink"], 3, random.Random(1))
@example(NAMED_GRAPHS["one_loop_singular"], 2, random.Random(2))
@example(NAMED_GRAPHS["parallel_edges"], 1, random.Random(3))
@example(C3, 2, random.Random(4))
def test_rewrite_paths_on_rebuilt_edges(g, extra, rng):
    """Paths over the edges `rewrite_path` rebuilds per call: a single
    rewrite is one step, every path is a chain of single rewrites and a
    shortest one in the networkx graph of every in-box rewrite, None
    comes exactly where networkx finds no path, and vectors in different
    classes have no path."""
    p = presentation(g)
    c = saturate(p, needed_bound(p) + extra)
    rows = [tuple(int(x) for x in v) for v in c.vectors]
    rewrites = []
    for x in rows:
        for i, rhs in dense_relations(p):
            y = tuple(a - (j == i) + r for j, (a, r) in enumerate(zip(x, rhs)))
            if x[i] >= 1 and sum(y) <= c.bound:
                rewrites.append((x, y))
    edges = nx.Graph()
    edges.add_nodes_from(rows)
    edges.add_edges_from(rewrites)
    for x, y in rng.sample(rewrites, min(15, len(rewrites))):
        assert c.rewrite_path(x, y) == ([x] if x == y else [x, y])
    for _ in range(15):
        x = rng.choice(rows)
        for y in (rng.choice(rows), rng.choice(c.members(c.class_of(x)))):
            path = c.rewrite_path(x, y)
            if path is None:
                assert not nx.has_path(edges, x, y)
            else:
                assert len(path) - 1 == nx.shortest_path_length(edges, x, y)
            if c.class_of(x) != c.class_of(y):
                assert path is None
            elif path is not None:
                assert path[0] == x and path[-1] == y
                for a, b in zip(path, path[1:]):
                    assert is_single_rewrite(p, a, b)


def _merge_oracle(labels, left, right):
    """Class of each position after joining left[k] with right[k]: a
    pure-Python disjoint-set forest over the label values."""
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in zip(left.tolist(), right.tolist()):
        ra, rb = find(labels[a]), find(labels[b])
        parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(v) for v in labels.tolist()], dtype=np.int64)


def assert_same_partition(got, want):
    assert got.shape == want.shape
    joint = np.unique(np.stack([got, want]), axis=1).shape[1]
    assert joint == np.unique(got).size == np.unique(want).size


@st.composite
def merge_inputs(draw):
    labels = np.array(
        draw(st.lists(st.integers(0, 30), min_size=1, max_size=40)), dtype=np.int64
    )
    index = st.integers(0, labels.size - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=60))
    if pairs:  # repeat some pairs
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    left = np.array([a for a, _ in pairs], dtype=np.int32)
    right = np.array([b for _, b in pairs], dtype=np.int32)
    return labels, left, right


class TestMerge:
    @settings(deadline=None, max_examples=200)
    @given(merge_inputs())
    @example(
        (
            np.array([3, 0, 3, 7, 9]),
            np.array([0, 1, 2, 3, 3, 4], np.int32),
            np.array([0, 3, 2, 1, 1, 2], np.int32),
        )
    )
    def test_matches_disjoint_set_oracle(self, inputs):
        """Repeated pairs, self-pairs and labels already shared."""
        labels, left, right = inputs
        got = monoid._merge(labels, left, right)
        assert got.dtype == np.int64
        assert_same_partition(got, _merge_oracle(labels, left, right))

    @pytest.mark.parametrize("shape", ["shuffled", "zigzag"])
    def test_long_paths_join_into_one_class(self, shape):
        """A path of 10^5 nodes, in random order, and in the order
        0, n-1, 1, n-2, ..., which makes the hooks climb slowly."""
        n = 100_000
        if shape == "shuffled":
            order = np.random.default_rng(5).permutation(n)
        else:
            order = np.empty(n, dtype=np.int64)
            order[0::2] = np.arange((n + 1) // 2)
            order[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
        labels = np.arange(n, dtype=np.int64)
        left, right = order[:-1].astype(np.int32), order[1:].astype(np.int32)
        got = monoid._merge(labels, left, right)
        assert got.dtype == np.int64
        assert_same_partition(got, _merge_oracle(labels, left, right))
        assert np.unique(got).size == 1

    def test_no_pairs_returns_labels_itself(self):
        labels = np.array([0, 2, 2, 5], dtype=np.int64)
        empty = np.zeros(0, dtype=np.int32)
        assert monoid._merge(labels, empty, empty) is labels


class TestRewriteChains:
    def test_paths_are_single_rewrites(self):
        p = presentation(C3)
        c = saturate(p, 8)
        rng = random.Random(11)
        for class_id in range(c.class_count):
            members = c.members(class_id)
            for _ in range(20):
                x, y = rng.choice(members), rng.choice(members)
                path = c.rewrite_path(x, y)
                if path is None:
                    # boundary vectors joined only through translation closure
                    continue
                assert path[0] == x and path[-1] == y
                for a, b in zip(path, path[1:]):
                    assert is_single_rewrite(p, a, b)

    def test_named_class_members_connect(self):
        p = presentation(C3)
        c = saturate(p, 8)
        # the monoid identities 2v1 ~ 2v2 ~ v1+v2+v3 hold via in-box chains
        for x, y in [((2, 0, 0), (0, 2, 0)), ((2, 0, 0), (1, 1, 1))]:
            assert c.class_of(x) == c.class_of(y)
            path = c.rewrite_path(x, y)
            assert path is not None
            for a, b in zip(path, path[1:]):
                assert is_single_rewrite(p, a, b)

    def test_translation_congruence_spot_check(self):
        c = saturate(presentation(C3), 8)
        rng = random.Random(23)
        vectors = [tuple(int(x) for x in row) for row in c.vectors]
        checked = 0
        while checked < 100:
            x = rng.choice(vectors)
            members = c.members(c.class_of(x))
            y = rng.choice(members)
            w = rng.choice(vectors)
            xt = tuple(a + b for a, b in zip(x, w))
            yt = tuple(a + b for a, b in zip(y, w))
            if sum(xt) > c.bound or sum(yt) > c.bound:
                continue
            assert c.class_of(xt) == c.class_of(yt)
            checked += 1


class TestMstarGroup:
    def test_c3_klein_four(self):
        c = saturate(presentation(C3), 8)
        table = mstar_group(c)
        assert not isinstance(table, str)
        assert table.order == 4
        assert table.invariant_factors() == (2, 2)
        assert table.identity_class == c.class_of((1, 1, 1))
        for cid in table.element_class_ids:
            assert table.order_of(cid) in (1, 2)
        # inverses in an exponent-2 group are the elements themselves
        assert table.inverses == table.element_class_ids

    def test_c1_trivial_group(self):
        c = saturate(presentation(cayley_graph(1)), 6)
        table = mstar_group(c)
        assert not isinstance(table, str)
        assert table.order == 1
        assert table.invariant_factors() == ()

    @pytest.mark.parametrize("bound", [8, 10, 12])
    def test_c6_not_closed(self, bound):
        c = saturate(presentation(cayley_graph(6)), bound)
        assert mstar_group(c) is NOT_CLOSED

    def test_c2_z3(self):
        c = saturate(presentation(cayley_graph(2)), 9)
        table = mstar_group(c)
        assert not isinstance(table, str)
        assert table.invariant_factors() == (3,)

    def test_z60_table_built_directly(self):
        # Class ids are the residues mod 60, listed in a shuffled order,
        # so that positions and ids differ.
        ids = list(range(60))
        random.Random(60).shuffle(ids)
        table = FiniteGroupTable(
            element_class_ids=tuple(ids),
            table=tuple(tuple((a + b) % 60 for b in ids) for a in ids),
            identity_class=0,
            inverses=tuple(-a % 60 for a in ids),
        )
        for c in ids:
            assert table.order_of(c) == 60 // math.gcd(c, 60)
        assert table.invariant_factors() == (60,)
        with pytest.raises(ValueError):
            table.order_of(60)

    def test_order_of_builds_its_positions_once(self, monkeypatch):
        """`invariant_factors` and every later `order_of` read one dict
        from class id to position, built on the first call."""
        builds = []
        build = FiniteGroupTable._position.func

        def counted(table):
            builds.append(table)
            return build(table)

        position = cached_property(counted)
        position.__set_name__(FiniteGroupTable, "_position")
        monkeypatch.setattr(FiniteGroupTable, "_position", position)
        table = mstar_group(saturate(presentation(C3), 8))
        assert table.invariant_factors() == (2, 2)
        for cid in table.element_class_ids:
            assert table.order_of(cid) in (1, 2)
        assert builds == [table]

    @pytest.mark.parametrize(
        "moduli, factors", [((3, 3, 3, 3), (3, 3, 3, 3)), ((2, 4, 8), (2, 4, 8))]
    )
    def test_product_table_built_directly(self, moduli, factors):
        # Class ids number the elements of Z/m1 + ... + Z/mk in a shuffled
        # order; the table adds coordinatewise.
        elements = list(itertools.product(*(range(m) for m in moduli)))
        ids = list(range(len(elements)))
        random.Random(len(elements)).shuffle(ids)
        class_of = dict(zip(elements, ids))

        def add(x, y):
            return tuple((a + b) % m for a, b, m in zip(x, y, moduli))

        table = FiniteGroupTable(
            element_class_ids=tuple(ids),
            table=tuple(
                tuple(class_of[add(x, y)] for y in elements) for x in elements
            ),
            identity_class=class_of[(0,) * len(moduli)],
            inverses=tuple(
                class_of[tuple(-a % m for a, m in zip(x, moduli))] for x in elements
            ),
        )
        for x, c in class_of.items():
            assert table.order_of(c) == math.lcm(
                *(m // math.gcd(a, m) for a, m in zip(x, moduli))
            )
        assert table.invariant_factors() == factors

    def test_no_nonzero_class_is_not_closed(self):
        c = saturate(presentation(Graph((), ())), 8)
        assert c.stabilized and c.class_count == 1
        assert mstar_group(c) is NOT_CLOSED

    def test_sum_leaving_the_box_is_not_closed(self):
        # C_2 needs bound 9 (test_c2_z3); at 4 the count is stable already
        c = saturate(presentation(cayley_graph(2)), 4)
        assert c.stabilized
        assert _sum_table(c) is None
        assert mstar_group(c) is NOT_CLOSED

    def test_no_identity_is_not_closed(self):
        # two roses apart: a + a = a, b + b = b, and a + b absorbs both
        g = graph_from_pairs(2, [(0, 0), (0, 0), (1, 1), (1, 1)])
        c = saturate(presentation(g), 4)
        assert c.stabilized
        ids, table = _sum_table(c)
        assert ids not in table
        assert mstar_group(c) is NOT_CLOSED

    def test_missing_inverse_is_not_closed(self):
        # a rose of two petals, fed by a second rose of two petals
        g = graph_from_pairs(2, [(0, 0), (0, 0), (1, 0), (1, 1), (1, 1)])
        c = saturate(presentation(g), 6)
        assert c.stabilized
        ids, table = _sum_table(c)
        identity = ids[table.index(ids)]
        assert any(identity not in row for row in table)
        assert mstar_group(c) is NOT_CLOSED

    def test_identity_is_vertex_sum(self):
        for n in (1, 2, 3, 4, 5, 7):
            c = saturate(presentation(cayley_graph(n)), 12)
            table = mstar_group(c)
            assert not isinstance(table, str)
            assert table.identity_class == c.class_of((1,) * n)


def _sum_table(c):
    """The nonzero class ids and the class of each sum of two of their
    representatives, row by row; None when some sum leaves the box."""
    ids = list(range(1, c.class_count))
    reps = [c.representative(i) for i in ids]
    table = []
    for x in reps:
        sums = [tuple(a + b for a, b in zip(x, y)) for y in reps]
        if any(sum(total) > c.bound for total in sums):
            return None
        table.append([c.class_of(total) for total in sums])
    return ids, table


class TestCrosscheck:
    @pytest.mark.parametrize("n, bound", [(3, 8), (4, 10), (1, 12), (2, 12), (5, 12)])
    def test_match(self, n, bound):
        assert crosscheck_cokernel(cayley_graph(n), bound) == "MATCH"

    def test_c6_inconclusive(self):
        assert crosscheck_cokernel(cayley_graph(6), 10) == "INCONCLUSIVE"

    def test_other_invariant_factors_mismatch(self, monkeypatch):
        # K0 of C_2 is Z/3; the box group of C_3 is Z/2 + Z/2
        other = cokernel_pointed(cayley_graph(2))
        monkeypatch.setattr(monoid, "cokernel_pointed", lambda g: other)
        assert crosscheck_cokernel(C3, 8) == "MISMATCH"

    def test_one_vertex_order_mismatch(self, monkeypatch):
        # the same group, with v1's class sent to zero: order 1, not 2
        k0 = cokernel_pointed(C3)
        zero = GroupElement((0,) * len(k0.group.factors))
        images = (zero,) + k0.vertex_images[1:]
        moved = PointedK0(k0.group, images, k0.distinguished)
        monkeypatch.setattr(monoid, "cokernel_pointed", lambda g: moved)
        assert crosscheck_cokernel(C3, 8) == "MISMATCH"


def naive_partition(p, bound):
    """Reference saturation: dict union-find straight from the definition."""
    import itertools

    vectors = [
        v
        for v in itertools.product(range(bound + 1), repeat=p.generator_count)
        if sum(v) <= bound
    ]
    parent = {v: v for v in vectors}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            return True
        return False

    for v in vectors:
        for i, rhs in dense_relations(p):
            if v[i] >= 1:
                target = tuple(
                    x - (1 if j == i else 0) + rhs[j] for j, x in enumerate(v)
                )
                if sum(target) <= bound:
                    union(v, target)
            if all(x >= r for x, r in zip(v, rhs)):
                target = tuple(
                    x - rhs[j] + (1 if j == i else 0) for j, x in enumerate(v)
                )
                union(v, target)
    changed = True
    while changed:
        changed = False
        groups = {}
        for v in vectors:
            groups.setdefault(find(v), []).append(v)
        for members in groups.values():
            for k in range(p.generator_count):
                translates = [
                    tuple(x + (1 if j == k else 0) for j, x in enumerate(v))
                    for v in members
                    if sum(v) + 1 <= bound
                ]
                for a, b in zip(translates, translates[1:]):
                    if union(a, b):
                        changed = True
    groups = {}
    for v in vectors:
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(g) for g in groups.values()}


class TestAgainstNaiveReference:
    @pytest.mark.parametrize(
        "g, bound",
        [
            (cayley_graph(1), 6),
            (cayley_graph(2), 7),
            (cayley_graph(3), 8),
            (cayley_graph(4), 7),
            (cayley_graph(6), 6),
            (rose_graph(3), 7),
            (Graph(("v1", "v2"), ()), 5),
        ],
        ids=["C1", "C2", "C3", "C4", "C6", "R3", "sinks"],
    )
    def test_partitions_agree(self, g, bound):
        p = presentation(g)
        c = saturate(p, bound)
        fast = {
            frozenset(c.members(class_id)) for class_id in range(c.class_count)
        }
        assert fast == naive_partition(p, bound)


def _closure_reference(labels, members, images):
    """The translation closure with whole-box rounds: each round sorts the
    labels of the members stably and joins, under every +e_k, the images
    of consecutive members of each class, until a round finds no
    violating pair."""
    joins = 0
    while members.size >= 2:
        lab = labels[members]
        order = np.argsort(lab, kind="stable")
        lab_sorted = lab[order]
        adjacent = lab_sorted[1:] == lab_sorted[:-1]
        if not adjacent.any():
            break
        out_a, out_b = [], []
        for img in images:
            ranked = img[members][order]
            left = ranked[:-1][adjacent]
            right = ranked[1:][adjacent]
            bad = labels[left] != labels[right]
            if bad.any():
                out_a.append(left[bad])
                out_b.append(right[bad])
        if not out_a:
            break
        joins += int(sum(a.size for a in out_a))
        labels = monoid._merge(labels, np.concatenate(out_a), np.concatenate(out_b))
    return labels, joins


def _canonical(labels):
    """Class ids renumbered in order of each class's first position."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def _prefix(n, s):
    """Number of vectors of N^n with sum <= s: the graded box's prefix."""
    return math.comb(n + s, n) if s >= 0 else 0


def _reference_levels(p, bound):
    """A stand-in for `_close_under_translation` that ignores the members
    it is given: at each level b (bound-2, bound-1, bound, the negative
    ones skipped) it runs `_closure_reference` on the level's whole
    sub-box, the graded box's prefix of sum <= b - 1, and returns all of
    it as the members kept."""
    levels = iter([b for b in (bound - 2, bound - 1, bound) if b >= 0])

    def reference(labels, pos, images):
        members = np.arange(_prefix(p.generator_count, next(levels) - 1))
        labels, joins = _closure_reference(labels, members, images)
        return labels, members, joins

    return reference


def assert_closures_agree(p, bound):
    """Run one `saturate` sweep in which every level's closure runs both
    `_closure_reference` on the level's whole sub-box and
    `_close_under_translation` on the members it is given, from the same
    labels, and require the same canonical labels from both, and kept
    members that hold one vector of each class of the sub-box; then the
    whole saturation with the reference alone against the new closure.
    Returns the number of levels compared."""
    closure = monoid._close_under_translation
    reference = _reference_levels(p, bound)
    levels = []

    def both(labels, pos, images):
        want, members, _ = reference(labels, pos, images)
        got, kept, joins = closure(labels, pos, images)
        assert np.array_equal(_canonical(got), _canonical(want))
        assert np.array_equal(np.sort(got[kept]), np.unique(got[members]))
        levels.append(joins)
        return got, kept, joins

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monoid, "_close_under_translation", both)
        fast = saturate(p, bound)
        mp.setattr(monoid, "_close_under_translation", _reference_levels(p, bound))
        slow = saturate(p, bound)
    assert np.array_equal(fast.labels, slow.labels)
    assert np.array_equal(fast.class_sizes, slow.class_sizes)
    assert fast.class_count == slow.class_count
    assert fast.stabilized == slow.stabilized
    assert fast.representatives() == slow.representatives()
    return len(levels)


def _largest_bound(n, vectors):
    """Largest bound whose box in N^n has at most `vectors` vectors."""
    b = 0
    while math.comb(n + b + 1, n) <= vectors:
        b += 1
    return b


class TestClosureAgainstReference:
    @settings(deadline=None, max_examples=25)
    @given(multigraphs(max_vertices=6, max_mult=2, min_vertices=4), st.integers(0, 20))
    @example(cayley_graph(4), 20)
    @example(rose_graph(5), 3)
    @example(NAMED_GRAPHS["rank_one"], 20)
    def test_hypothesis_multigraphs(self, g, extra):
        """4-6 vertices, boxes of at most 50,000 vectors."""
        p = presentation(g)
        bound = min(needed_bound(p) + extra, _largest_bound(g.n_vertices, 50_000))
        assert assert_closures_agree(p, bound) == min(3, bound + 1)

    @pytest.mark.parametrize("n, bound", [(7, 11), (8, 10), (9, 9), (10, 8), (11, 8)])
    def test_monoid_box_cayley_shapes(self, n, bound):
        assert assert_closures_agree(presentation(cayley_graph(n)), bound) == 3


@settings(deadline=None, max_examples=150)
@given(multigraphs(max_vertices=3, max_mult=2), st.integers(0, 3))
@example(NAMED_GRAPHS["empty"], 0)
@example(NAMED_GRAPHS["sink"], 2)
@example(NAMED_GRAPHS["source_into_rose"], 3)
@example(NAMED_GRAPHS["parallel_edges"], 1)
def test_sum_ordered_levels_match_naive(g, extra):
    """The level-to-level sweep against the from-scratch reference: the
    partition at the bound, and `stabilized` from the naive nonzero class
    counts at bound-2, bound-1 and bound."""
    p = presentation(g)
    bound = needed_bound(p) + extra
    c = saturate(p, bound)
    fast = {frozenset(c.members(class_id)) for class_id in range(c.class_count)}
    assert fast == naive_partition(p, bound)
    counts = [len(naive_partition(p, b)) - 1 for b in (bound - 2, bound - 1) if b >= 0]
    counts.append(c.nonzero_class_count)
    assert c.stabilized == (len(counts) == 3 and len(set(counts)) == 1)


def _whole_box_edges(p, bound, vectors, sums):
    """Every in-box rewrite edge, with its larger endpoint sum: the edge
    list of the sweep that built the whole box's edges at once."""
    srcs, dsts, esums = [], [], []
    for gi, rhs in dense_relations(p):
        shift = sum(rhs) - 1
        idx = np.flatnonzero((vectors[:, gi] >= 1) & (sums + shift <= bound))
        if idx.size == 0:
            continue
        covers = np.ones(len(vectors), dtype=bool)
        for j, r in enumerate(rhs):
            if r:
                covers &= vectors[:, j] >= r
        srcs.append(idx.astype(np.int32))
        dsts.append(np.flatnonzero(covers).astype(np.int32))
        esums.append(sums[idx] + shift)
    if not srcs:
        empty = np.zeros(0, dtype=np.int32)
        return empty, empty, empty
    return np.concatenate(srcs), np.concatenate(dsts), np.concatenate(esums)


def _sweep_reference(p, bound, vectors):
    """The level sweep on one whole-box edge list, masked per level by
    edge sum, carrying the closure's members from level to level, on the
    box `vectors` listed in any translation-invariant order.  Returns the
    labels, canonical in that order, `translation_joins`, `stabilized`
    and the class count."""
    sums = vectors.sum(axis=1, dtype=np.int32)
    src, dst, esum = _whole_box_edges(p, bound, vectors, sums)
    sub = np.flatnonzero(sums <= bound - 1).astype(np.int32)
    sub_sums = sums[sub]
    # images[k][r] is the rank of vectors[r] + e_k, for r in `sub`
    images = []
    for img in monoid._shift_images(vectors):
        images.append(np.zeros(len(vectors), dtype=np.int32))
        images[-1][sub] = img
    ranks = np.arange(len(vectors), dtype=np.int32)
    labels, pos, joins, counts, done = ranks, np.zeros(0, dtype=np.intp), 0, {}, -1
    for b in (bound - 2, bound - 1, bound):
        if b < 0:
            continue
        new = (esum > done) & (esum <= b)
        labels = monoid._merge(labels, src[new], dst[new])
        # the members kept by the level below, and the sub-box vectors
        # new to this level
        fresh = sub[(sub_sums >= done) & (sub_sums < b)]
        done = b
        pos = np.concatenate((pos, fresh))
        labels, pos, joins = monoid._close_under_translation(labels, pos, images)
        if b < bound:
            counts[b] = int(np.count_nonzero((labels == ranks) & (sums <= b))) - 1
    first_member = np.flatnonzero(labels == ranks)
    count = int(first_member.size)
    relabel = np.empty(len(vectors), dtype=np.int64)
    relabel[first_member] = np.arange(count)
    stabilized = counts.get(bound - 2) == counts.get(bound - 1) == count - 1
    return relabel[labels], joins, stabilized, count


def assert_sweep_matches_reference(g, extra):
    """The sweep on the lex box gives the labels, `stabilized` and the
    class counts; `translation_joins` counts the pairs in the order the
    closure meets them, so it comes from the sweep on the graded box, the
    lex box listed stably by sum."""
    p = presentation(g)
    bound = needed_bound(p) + extra
    c = saturate(p, bound)
    lex = _box_vectors_by_blocks(p.generator_count, bound)
    labels, _, stabilized, count = _sweep_reference(p, bound, lex)
    assert c.labels.dtype == labels.dtype
    assert np.array_equal(c.labels, labels)
    assert c.stabilized == stabilized
    assert (c.class_count, c.nonzero_class_count) == (count, count - 1)
    graded = lex[np.argsort(lex.sum(axis=1), kind="stable")]
    _, joins, stabilized, count = _sweep_reference(p, bound, graded)
    assert c.translation_joins == joins
    assert (c.stabilized, c.class_count) == (stabilized, count)


class TestLevelEdgesAgainstWholeBoxEdges:
    """Each level's edges built on their own give the same saturation as
    one whole-box edge list masked per level."""

    @settings(deadline=None, max_examples=100)
    @given(multigraphs(max_vertices=5, max_mult=2), st.integers(0, 4))
    @example(cayley_graph(4), 4)
    @example(rose_graph(2), 0)
    def test_hypothesis_multigraphs(self, g, extra):
        assert_sweep_matches_reference(g, extra)

    @pytest.mark.parametrize("extra", range(5))
    @pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
    def test_named_graphs(self, name, extra):
        assert_sweep_matches_reference(NAMED_GRAPHS[name], extra)


def _graded_rank_vectors(w, table):
    """Rank of each row of `w` in the graded box: the number of vectors of
    smaller sum s, plus the lex rank of w among those of sum s, which is
    the lex rank of its first n - 1 coordinates in the box of n - 1
    coordinates and sum <= s (`_rank_vectors`' formula, row by row)."""
    m, n = w.shape
    if n == 0:
        return np.zeros(m, dtype=np.int64)
    w = w.astype(np.int64)
    s = w.sum(axis=1)
    below = np.where(s > 0, table[n, np.maximum(s - 1, 0)], 0)
    head = w[:, :-1]
    budgets = s[:, None] - (head.cumsum(axis=1) - head)
    ks = np.arange(n - 1, 0, -1)
    within = (table[ks[None, :], budgets] - table[ks[None, :], budgets - head]).sum(axis=1)
    return below + within


@settings(deadline=None, max_examples=100)
@given(multigraphs(max_vertices=5, max_mult=2), st.integers(0, 6))
@example(NAMED_GRAPHS["empty"], 3)
@example(NAMED_GRAPHS["sink"], 6)
@example(NAMED_GRAPHS["source_into_rose"], 6)
@example(NAMED_GRAPHS["parallel_edges"], 4)
@example(NAMED_GRAPHS["rank_one"], 6)
def test_graded_order_ranks_match_formula(g, extra):
    """The shift images and rewrite edges read off the graded order,
    against the graded ranking formula applied to the translated vectors.
    The edges are checked in each level window of the sweep, with larger
    endpoint sums inside it, and in the whole box; per relation, the
    three windows split the whole box's edges."""
    p = presentation(g)
    n = p.generator_count
    bound = needed_bound(p) + extra
    vectors = monoid._box_vectors(n, bound)
    sums = vectors.sum(axis=1, dtype=np.int32)
    table = _simplex_table(n, bound)
    assert np.array_equal(_graded_rank_vectors(vectors, table), np.arange(len(vectors)))

    images = monoid._shift_images(vectors)
    sub = vectors[sums <= bound - 1]
    assert len(images) == n
    for k, img in enumerate(images):
        shifted = sub.copy()
        shifted[:, k] += 1
        assert img.dtype == np.int32
        assert np.array_equal(img, _graded_rank_vectors(shifted, table))

    # the three level windows of the sweep, then the whole box
    windows = [(-1, bound - 2), (bound - 2, bound - 1), (bound - 1, bound)]
    rows = [tuple(int(x) for x in v) for v in vectors]
    for lo, hi in windows + [(-1, bound)]:
        src, dst = monoid._elementary_edges(p, vectors, lo, hi)
        want_src, want_dst = [], []
        for i, rhs in dense_relations(p):
            top = sums + sum(rhs) - 1
            idx = np.flatnonzero((vectors[:, i] >= 1) & (top > lo) & (top <= hi))
            targets = vectors[idx].copy()
            targets[:, i] -= 1
            targets += np.asarray(rhs, dtype=np.int16)
            want_src.append(idx)
            want_dst.append(_graded_rank_vectors(targets, table))
        want_src = np.concatenate(want_src) if want_src else np.zeros(0, np.int64)
        want_dst = np.concatenate(want_dst) if want_dst else np.zeros(0, np.int64)
        assert src.dtype == dst.dtype == np.int32
        assert np.array_equal(src, want_src)
        assert np.array_equal(dst, want_dst)
        esum = np.maximum(sums[src], sums[dst])
        assert np.all((lo < esum) & (esum <= hi))
        for a, b in zip(src.tolist(), dst.tolist()):
            assert is_single_rewrite(p, rows[a], rows[b])

    # per relation, the three windows split the whole box's edges
    for relation in p.relations:
        q = MonoidPresentation(n, (relation,))
        whole = np.stack(monoid._elementary_edges(q, vectors, -1, bound))
        parts = np.concatenate(
            [np.stack(monoid._elementary_edges(q, vectors, lo, hi)) for lo, hi in windows],
            axis=1,
        )
        assert np.array_equal(parts[:, np.argsort(parts[0], kind="stable")], whole)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 7), st.integers(1, 9))
@example(0, 1)
@example(0, 9)
@example(1, 1)
@example(1, 9)
def test_graded_box_lists_each_sum_as_a_prefix(n, bound):
    """In the graded box the vectors of sum <= s are the first C(n + s, n)
    for every s, those of one sum are in lex order, and the graded-to-lex
    permutation sends each graded rank to the lex rank that `rank_of`
    and `_rank_vectors` give its vector."""
    graded = monoid._box_vectors(n, bound)
    sums = graded.sum(axis=1, dtype=np.int64)
    for s in range(bound + 1):
        assert np.array_equal(np.flatnonzero(sums <= s), np.arange(_prefix(n, s)))
    lex_ranks = _rank_vectors(graded, bound, _simplex_table(n, bound))
    same_sum = sums[1:] == sums[:-1]
    assert np.all(lex_ranks[1:][same_sum] > lex_ranks[:-1][same_sum])

    c = saturate(MonoidPresentation(n, ()), bound)
    perm = monoid._graded_to_lex(c.vectors)
    assert np.array_equal(perm, lex_ranks)
    assert np.array_equal(c.vectors[perm], graded)
    for g in range(0, len(graded), max(1, len(graded) // 50)):
        assert c.rank_of(graded[g]) == perm[g]


def _box_vectors_by_blocks(n, bound):
    """The box as `_box_vectors` lists it, with every block of every width
    written by its own recursive call: the reference for the whole-column
    writes of the last two columns."""
    out = np.empty((math.comb(n + bound, n), n), dtype=np.int16, order="F")
    written = {}

    def fill(block, k, r):
        if k == 0:
            return
        got = written.get((k, r))
        if got is not None:
            block[...] = got
            return
        start = 0
        for c in range(r + 1):
            size = math.comb(r - c + k - 1, k - 1)
            block[start : start + size, 0] = c
            fill(block[start : start + size, 1:], k - 1, r - c)
            start += size
        written[(k, r)] = block

    fill(out, n, bound)
    return out


# Every (vertices, bound) of the benchmark's monoid-box ops lies in
# 2..12 x 8..12; 0, 1 and small bounds are the edge cases.
BOX_SHAPES = [(n, b) for n in range(2, 13) for b in range(8, 13)]
BOX_SHAPES += [(n, b) for n in range(0, 5) for b in range(0, 4)]


@pytest.mark.parametrize("n, bound", BOX_SHAPES)
def test_box_vectors_match_blockwise_reference(n, bound):
    """The graded box is the lex reference listed stably by sum, and the
    lex box `_lex_box` derives from it is the reference itself."""
    want = _box_vectors_by_blocks(n, bound)
    graded = monoid._box_vectors(n, bound)
    lex = monoid._lex_box(graded, bound)
    for got in (graded, lex):
        assert got.dtype == want.dtype == np.int16
        assert got.flags.f_contiguous and got.shape == want.shape
    assert np.array_equal(graded, want[np.argsort(want.sum(axis=1), kind="stable")])
    assert np.array_equal(lex, want)


def test_box_of_many_generators():
    """1,500 generators at bound 1: the box is 0, then the unit vectors,
    last coordinate first, in both orders.  Each shell is written by a
    loop over the coordinates, not a recursion as deep as n."""
    n = 1500
    want = np.concatenate([np.zeros((1, n)), np.eye(n)[::-1]])
    graded = monoid._box_vectors(n, 1)
    assert np.array_equal(graded, want)
    assert np.array_equal(monoid._lex_box(graded, 1), want)


def _cycle(n):
    return graph_from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def test_byte_cap_estimate_holds_on_a_cycle():
    """The traced peak of one saturation stays under the byte cap's
    estimate, on the worst shape: a cycle, whose relations have one term
    each, so every vector with a nonzero coordinate starts a rewrite at
    the top level.  The 16-cycle at bound 6 has 74,613 vectors."""
    p = presentation(_cycle(16))
    tracemalloc.start()
    try:
        c = saturate(p, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(c.vectors) == 74_613
    assert peak < monoid._box_bytes_per_vector(16) * len(c.vectors)


def test_presentation_of_a_long_cycle_stays_sparse():
    """The 3,000-vertex cycle: each relation is one term, so the
    presentation is read off the edges in a traced peak under 2 MiB
    (dense n-wide rows took 207 MiB), and the box at bound 1, its 3,001
    vectors, has the zero class and one class of all the generators."""
    n = 3000
    g = _cycle(n)
    tracemalloc.start()
    try:
        p = presentation(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert p.relations == tuple((i, (((i + 1) % n, 1),)) for i in range(n))
    c = saturate(p, 1)
    assert (c.class_count, c.stabilized) == (2, False)
