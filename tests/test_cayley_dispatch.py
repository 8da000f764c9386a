"""A copy of C_n takes its invariants from its module.

`graphs._cayley_order` recognises `cayley_graph(n)` in any vertex and
edge order; it is checked against networkx's multigraph isomorphism.
`kp_decide`, `canonical_form` and `det_sign` read a recognised graph off
`circulant_k0(n)`; they are checked against the reference below, which
takes every graph through `pis_report`, `analyse` and
`pointed_iso_exists` as the graph path does."""

import functools
import itertools
import random

import networkx as nx
import pytest
from graph_strategies import graph_from_pairs, multigraphs, permute
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lpa_invariants.classify import (
    KPVerdict,
    _canonical,
    _signs_compatible,
    canonical_form,
    det_sign,
    kp_decide,
    sign_of,
)
from lpa_invariants.graphs import (
    Edge,
    Graph,
    _cayley_order,
    cayley_graph,
    pis_report,
    rose_graph,
    stemmed_rose_graph,
)
from lpa_invariants.ktheory import analyse, pointed_iso_exists


def multidigraph(g):
    m = nx.MultiDiGraph()
    m.add_nodes_from(range(g.n_vertices))
    m.add_edges_from((e.source, e.range) for e in g.edges)
    return m


def oracle_order(g):
    """n when networkx finds g isomorphic to `cayley_graph(n)`, else None."""
    n = g.n_vertices
    if n and nx.is_isomorphic(multidigraph(g), multidigraph(cayley_graph(n))):
        return n
    return None


def relabelled(g, rng):
    """g with its vertices permuted and its edges shuffled."""
    h = permute(g, rng.sample(range(g.n_vertices), g.n_vertices))
    edges = list(h.edges)
    rng.shuffle(edges)
    return Graph(h.vertices, tuple(edges))


def disjoint_union(g, h):
    k = g.n_vertices
    edges = [Edge(f"a{e.id}", e.source, e.range) for e in g.edges]
    edges += [Edge(f"b{e.id}", e.source + k, e.range + k) for e in h.edges]
    names = [f"a{v}" for v in g.vertices] + [f"b{v}" for v in h.vertices]
    return Graph(tuple(names), tuple(edges))


def mutants(n):
    """(name, graph) for every single-edge change of C_n: one edge's range
    or source moved to another vertex, one edge deleted, one edge added."""
    g = cayley_graph(n)
    edges = list(g.edges)
    for k, e in enumerate(edges):
        rest = edges[:k] + edges[k + 1 :]
        yield f"delete {e.id}", Graph(g.vertices, tuple(rest))
        for v in range(n):
            if v != e.range:
                moved = edges[:k] + [Edge(e.id, e.source, v)] + edges[k + 1 :]
                yield f"{e.id} range -> {v}", Graph(g.vertices, tuple(moved))
            if v != e.source:
                moved = edges[:k] + [Edge(e.id, v, e.range)] + edges[k + 1 :]
                yield f"{e.id} source -> {v}", Graph(g.vertices, tuple(moved))
    for s in range(n):
        for r in range(n):
            added = Graph(g.vertices, tuple(edges + [Edge("x", s, r)]))
            yield f"add {s} -> {r}", added


class TestRecogniser:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_single_edge_mutants(self, n):
        assert _cayley_order(cayley_graph(n)) == n
        for name, h in mutants(n):
            assert _cayley_order(h) == oracle_order(h), name

    def test_c4_with_its_closing_edge_retargeted(self):
        # f1 runs v1 -> v4 (indices 0 -> 3); moved to 0 -> 2, the walk
        # 0, 1, 2, 3, 0 still finds every forward step and every reverse
        # edge but the closing one.
        g = cayley_graph(4)
        edges = tuple(
            Edge(e.id, 0, 2) if (e.source, e.range) == (0, 3) else e for e in g.edges
        )
        h = Graph(g.vertices, edges)
        assert oracle_order(h) is None
        assert _cayley_order(h) is None

    @pytest.mark.parametrize("n", range(1, 61))
    def test_relabelled_copies(self, n):
        h = relabelled(cayley_graph(n), random.Random(n))
        assert oracle_order(h) == n
        assert _cayley_order(h) == n

    @pytest.mark.parametrize("k", range(3, 7))
    def test_two_disjoint_copies(self, k):
        h = disjoint_union(cayley_graph(k), cayley_graph(k))
        assert oracle_order(h) is None
        assert _cayley_order(h) is None

    def test_empty_graph_and_roses(self):
        assert _cayley_order(graph_from_pairs(0, [])) is None
        assert _cayley_order(rose_graph(2)) == oracle_order(rose_graph(2)) == 1
        for g in (rose_graph(1), rose_graph(3), stemmed_rose_graph(2, 2)):
            assert _cayley_order(g) is oracle_order(g) is None

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_graph_with_two_out_edges_per_vertex(self, n):
        """Walks that turn back, pass through vertex 0 or meet a vertex
        twice, and the vertices such walks never reach."""
        choices = list(itertools.combinations_with_replacement(range(n), 2))
        for targets in itertools.product(choices, repeat=n):
            pairs = [(s, r) for s, two in enumerate(targets) for r in two]
            g = graph_from_pairs(n, pairs)
            assert _cayley_order(g) == oracle_order(g), targets

    @settings(deadline=None, max_examples=300)
    @given(multigraphs(max_vertices=8, max_mult=2))
    def test_multigraphs(self, g):
        assert _cayley_order(g) == oracle_order(g)

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 8), st.randoms(use_true_random=False), st.data())
    def test_relabelled_mutants(self, n, rng, data):
        """Copies of C_n in any order, and of its single-edge mutants."""
        graphs = [cayley_graph(n)] + [h for _, h in mutants(n)]
        g = relabelled(data.draw(st.sampled_from(graphs)), rng)
        assert _cayley_order(g) == oracle_order(g)


# ---------------------------------------------------------------------------
# The reference: every graph through pis_report, analyse and
# pointed_iso_exists.
# ---------------------------------------------------------------------------


def facts(g):
    """(PIS flag, analysis) of g on the graph path."""
    return pis_report(g).purely_infinite_simple, analyse(g)


@functools.cache
def cayley_facts(n):
    return facts(cayley_graph(n))


def reference_verdict(facts_e, facts_f):
    (pis_e, a_e), (pis_f, a_f) = facts_e, facts_f
    trace = [("pis_first", str(pis_e)), ("pis_second", str(pis_f))]
    if not (pis_e and pis_f):
        return KPVerdict("NotApplicable", tuple(trace))
    k0_e, k0_f = a_e.k0, a_f.k0
    trace.append(("k0_factors_first", str(list(k0_e.group.factors))))
    trace.append(("k0_factors_second", str(list(k0_f.group.factors))))
    if k0_e.group.factors != k0_f.group.factors:
        trace.append(("k0_factors_equal", "False"))
        return KPVerdict("NotIsomorphic", tuple(trace))
    trace.append(("k0_factors_equal", "True"))
    pointed = pointed_iso_exists(
        k0_e.group, k0_e.distinguished, k0_f.group, k0_f.distinguished
    )
    trace.append(("pointed_iso", pointed))
    if pointed == "NO":
        return KPVerdict("NotIsomorphic", tuple(trace))
    sign_e, sign_f = sign_of(a_e.det), sign_of(a_f.det)
    compatible = _signs_compatible(sign_e, sign_f)
    trace += [
        ("det_sign_first", sign_e),
        ("det_sign_second", sign_f),
        ("det_signs_compatible", str(compatible)),
    ]
    return KPVerdict("Isomorphic" if compatible else "Unknown", tuple(trace))


def reference_canonical(pis, analysis):
    k0 = analysis.k0
    return _canonical(k0.group, k0.distinguished, analysis.det) if pis else None


def out_split(g, v):
    """g with vertex v out-split: v keeps its first out-edge, a new last
    vertex takes the others, and each edge into v is doubled to reach
    both.  The algebra stays the same up to isomorphism."""
    new = g.n_vertices
    edges = []
    outgoing = [e for e in g.edges if e.source == v]
    for e in g.edges:
        source = new if e.source == v and e is not outgoing[0] else e.source
        edges.append(Edge(e.id, source, e.range))
        if e.range == v:
            edges.append(Edge(f"{e.id}'", source, new))
    return Graph(g.vertices + (f"{g.vertices[v]}'",), tuple(edges))


# Non-Cayley PIS graphs with the K0 groups of the four classes of C_n.
TRIVIAL = graph_from_pairs(2, [(0, 0), (0, 0), (0, 1), (1, 0), (1, 1)])
Z3_UNIT_ZERO = graph_from_pairs(
    3, [(0, 0), (0, 2), (1, 0), (1, 0), (1, 2), (1, 2), (2, 0), (2, 1), (2, 2)]
)
KLEIN4 = graph_from_pairs(2, [(0, 0), (0, 1), (0, 1), (1, 0), (1, 0), (1, 1)])
ZXZ_UNIT_ZERO = graph_from_pairs(
    4,
    [(0, 0), (0, 0), (0, 1), (0, 2), (0, 2), (0, 3), (1, 1), (1, 2), (1, 2)]
    + [(2, 0), (2, 1), (2, 3), (3, 0), (3, 1), (3, 2), (3, 2), (3, 3), (3, 3)],
)
NON_CAYLEY_PIS = [TRIVIAL, Z3_UNIT_ZERO, KLEIN4, ZXZ_UNIT_ZERO, rose_graph(3)]
NON_CAYLEY_PIS += [stemmed_rose_graph(4, 3), stemmed_rose_graph(4, 2)]
OUT_SPLITS = {n: out_split(cayley_graph(n), n // 2) for n in (2, 3, 6, 12)}
NON_CAYLEY_PIS += list(OUT_SPLITS.values())


class TestAgainstGraphPath:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_every_pair_up_to_40(self, n):
        for m in range(1, 41):
            got = kp_decide(cayley_graph(n), cayley_graph(m))
            assert got == reference_verdict(cayley_facts(n), cayley_facts(m)), m

    @settings(deadline=None, max_examples=40)
    @given(st.integers(1, 500), st.integers(1, 500), st.randoms(use_true_random=False))
    @example(500, 6, random.Random(0))
    @example(499, 1, random.Random(1))
    def test_relabelled_pairs_up_to_500(self, n, m, rng):
        want = reference_verdict(cayley_facts(n), cayley_facts(m))
        assert kp_decide(cayley_graph(n), cayley_graph(m)) == want
        assert kp_decide(cayley_graph(n), relabelled(cayley_graph(m), rng)) == want
        assert kp_decide(relabelled(cayley_graph(n), rng), cayley_graph(m)) == want

    @pytest.mark.parametrize("index", range(len(NON_CAYLEY_PIS)))
    def test_named_non_cayley_graphs(self, index):
        h = NON_CAYLEY_PIS[index]
        assert _cayley_order(h) is None
        assert pis_report(h).purely_infinite_simple
        for n in range(1, 25):
            g = cayley_graph(n)
            assert kp_decide(g, h) == reference_verdict(cayley_facts(n), facts(h))
            assert kp_decide(h, g) == reference_verdict(facts(h), cayley_facts(n))

    @pytest.mark.parametrize("n", sorted(OUT_SPLITS))
    def test_out_split_copies_are_isomorphic(self, n):
        # The pointed comparison meets two presentations of one group.
        assert kp_decide(cayley_graph(n), OUT_SPLITS[n]).outcome == "Isomorphic"

    @settings(deadline=None, max_examples=150)
    @given(multigraphs(max_vertices=5, max_mult=2), st.integers(1, 30))
    def test_against_drawn_graphs(self, h, n):
        assume(_cayley_order(h) is None)
        g = cayley_graph(n)
        assert kp_decide(g, h) == reference_verdict(cayley_facts(n), facts(h))
        assert kp_decide(h, g) == reference_verdict(facts(h), cayley_facts(n))

    @pytest.mark.parametrize("n", range(1, 501))
    def test_canonical_form_and_det_sign(self, n):
        pis, analysis = cayley_facts(n)
        h = relabelled(cayley_graph(n), random.Random(n))
        for g in (cayley_graph(n), h):
            assert canonical_form(g) == reference_canonical(pis, analysis)
            assert det_sign(g) == sign_of(analysis.det)
