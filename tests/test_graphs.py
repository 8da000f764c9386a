import copy
import itertools
import operator
from collections import Counter, OrderedDict, defaultdict

import networkx as nx
import numpy as np
import pytest
from graph_strategies import NAMED_GRAPHS, graph_from_pairs, multigraphs
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpa_invariants import graphs
from lpa_invariants.graphs import (
    Edge,
    Graph,
    PISReport,
    _reachable,
    adjacency_matrix,
    cayley_graph,
    graph_from_dict,
    graph_to_dict,
    pis_report,
    rose_graph,
    stemmed_rose_graph,
)


def edge_names(g):
    return [(e.id, g.vertices[e.source], g.vertices[e.range]) for e in g.edges]


def reaches(g, start, goal):
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for w in g.successors[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return goal in seen


TWO_CYCLE = Graph(("v1", "v2"), (Edge("e1", 0, 1), Edge("e2", 1, 0)))
LONE_VERTEX = Graph(("v1",), ())
# two 2-cycles with parallel edges, no connection between them
SPLIT = Graph(
    ("v1", "v2", "v3", "v4"),
    (
        Edge("a1", 0, 1),
        Edge("a2", 0, 1),
        Edge("b1", 1, 0),
        Edge("b2", 1, 0),
        Edge("c1", 2, 3),
        Edge("c2", 2, 3),
        Edge("d1", 3, 2),
        Edge("d2", 3, 2),
    ),
)
PATH = Graph(("v1", "v2"), (Edge("e1", 0, 1),))


class TestGraphValidation:
    def test_duplicate_vertices(self):
        with pytest.raises(ValueError):
            Graph(("v1", "v1"), ())

    def test_duplicate_edge_ids(self):
        with pytest.raises(ValueError):
            Graph(("v1",), (Edge("e", 0, 0), Edge("e", 0, 0)))

    def test_bad_vertex_index(self):
        with pytest.raises(ValueError):
            Graph(("v1",), (Edge("e", 0, 1),))

    def test_non_string_vertex(self):
        with pytest.raises(ValueError):
            Graph((1,), ())

    @pytest.mark.parametrize("index", [0.5, 1.0, "0", None], ids=repr)
    @pytest.mark.parametrize("end", ["source", "range"])
    def test_non_integer_vertex_index(self, index, end):
        e = Edge("e", 0, 1)._replace(**{end: index})
        with pytest.raises(ValueError, match="edge 'e' has a non-integer vertex index"):
            Graph(("a", "b"), [e, ("f", 1, 0)])

    def test_integer_like_indices_are_stored_as_int(self):
        g = Graph(("a", "b"), [("e", np.int64(0), True), Edge("f", np.int32(1), 0)])
        assert g.edges == (Edge("e", 0, 1), Edge("f", 1, 0))
        assert all(type(x) is int for e in g.edges for x in e[1:])
        assert all(type(e) is Edge for e in g.edges)

    def test_edges_are_kept_as_given(self):
        edges = (Edge("e", 0, 1), Edge("f", 1, 0))
        g = Graph(("a", "b"), edges)
        assert all(kept is given for kept, given in zip(g.edges, edges))

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([Edge("e", 0, 5), Edge(1, 0, 0)], "edge ids must be strings"),
            ([Edge("e", 0, 5), Edge("e", 0, 0)], "edge ids must be pairwise distinct"),
            ([Edge("e", 0, 5), Edge("f", 0.5, 0)], "edge 'e' references an invalid vertex index"),
            ([Edge("e", -1, 0)], "edge 'e' references an invalid vertex index"),
        ],
        ids=["id-type-first", "repeated-id-next", "then-edge-order", "negative"],
    )
    def test_fault_order(self, edges, message):
        with pytest.raises(ValueError) as excinfo:
            Graph(("a",), edges)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "item",
        [5, None, ("e", 0, 0, 9), ("e", 0), {"id": "e"}, "e0"],
        ids=["int", "none", "four-items", "two-items", "one-key-dict", "two-chars"],
    )
    def test_edge_that_is_not_a_triple(self, item):
        with pytest.raises(ValueError) as excinfo:
            Graph(("a",), [Edge("e", 0, 0), item])
        assert str(excinfo.value) == "edge #1 must be an (id, source, range) triple"

    def test_edge_that_is_not_a_triple_is_reported_first(self):
        edges = [Edge(1, 0, 0), Edge("e", 0, 5), Edge("e", 0.5, 0), ("f", 0), 5]
        with pytest.raises(ValueError) as excinfo:
            Graph(("a",), edges)
        assert str(excinfo.value) == "edge #3 must be an (id, source, range) triple"

    def test_vertices_given_as_one_string(self):
        with pytest.raises(ValueError) as excinfo:
            Graph("abc", ())
        assert str(excinfo.value) == "vertices must be a sequence of strings, not one string"

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            (("a",), 5, "edges must be iterable, not int"),
            (("a",), None, "edges must be iterable, not NoneType"),
            (5, (), "vertices must be iterable, not int"),
            (None, None, "vertices must be iterable, not NoneType"),
            ((1,), None, "vertex identifiers must be strings"),
            (("a", "a"), 5, "vertex identifiers must be pairwise distinct"),
        ],
        ids=["int-edges", "none-edges", "int-vertices", "vertices-first",
             "vertex-id-before-edges", "repeated-id-before-edges"],
    )
    def test_arguments_that_are_not_iterable(self, vertices, edges, message):
        with pytest.raises(ValueError) as excinfo:
            Graph(vertices, edges)
        assert str(excinfo.value) == message


class TestCayleyGraph:
    def test_c3(self):
        g = cayley_graph(3)
        assert g.vertices == ("v1", "v2", "v3")
        assert g.n_edges == 6
        names = edge_names(g)
        assert ("e1", "v1", "v2") in names
        assert ("f1", "v1", "v3") in names
        assert ("e3", "v3", "v1") in names
        assert ("f3", "v3", "v2") in names

    def test_c1_two_loops(self):
        g = cayley_graph(1)
        assert g.vertices == ("v1",)
        assert edge_names(g) == [("e1", "v1", "v1"), ("f1", "v1", "v1")]

    def test_c2_double_edges(self):
        g = cayley_graph(2)
        assert sorted(edge_names(g)) == [
            ("e1", "v1", "v2"),
            ("e2", "v2", "v1"),
            ("f1", "v1", "v2"),
            ("f2", "v2", "v1"),
        ]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cayley_graph(0)

    @pytest.mark.parametrize("n", list(range(1, 101)))
    def test_degree_invariants(self, n):
        g = cayley_graph(n)
        assert g.n_vertices == n
        assert g.n_edges == 2 * n
        assert all(d == 2 for d in g.out_degrees)
        assert all(d == 2 for d in g.in_degrees)


class TestRoseAndStemmedRose:
    def test_rose_examples(self):
        assert adjacency_matrix(rose_graph(2)).entries == ((2,),)
        assert adjacency_matrix(rose_graph(1)).entries == ((1,),)
        g4 = rose_graph(4)
        assert g4.n_vertices == 1 and g4.n_edges == 4
        with pytest.raises(ValueError):
            rose_graph(0)

    def test_stemmed_rose_examples(self):
        g = stemmed_rose_graph(4, 3)
        assert adjacency_matrix(g).entries == ((0, 2), (0, 4))
        g = stemmed_rose_graph(2, 2)
        assert adjacency_matrix(g).entries == ((0, 1), (0, 2))
        g = stemmed_rose_graph(5, 4)
        assert adjacency_matrix(g).entries == ((0, 3), (0, 5))

    def test_stemmed_rose_rejects_small(self):
        with pytest.raises(ValueError):
            stemmed_rose_graph(1, 3)
        with pytest.raises(ValueError):
            stemmed_rose_graph(4, 1)


class TestBuilderArguments:
    @pytest.mark.parametrize(
        "builder, args, message",
        [
            (cayley_graph, (True,), "n must be a positive integer, got True"),
            (cayley_graph, (2.5,), "n must be an integer, got 2.5"),
            (cayley_graph, ("3",), "n must be an integer, got '3'"),
            (rose_graph, (True,), "n must be a positive integer, got True"),
            (rose_graph, (2.5,), "n must be an integer, got 2.5"),
            (stemmed_rose_graph, (2.5, 3), "n must be an integer, got 2.5"),
            (stemmed_rose_graph, (3, 2.5), "d must be an integer, got 2.5"),
            (stemmed_rose_graph, (3, True), "d must be at least 2, got True"),
            (stemmed_rose_graph, (3, None), "d must be an integer, got None"),
        ],
    )
    def test_rejects(self, builder, args, message):
        with pytest.raises(ValueError) as excinfo:
            builder(*args)
        assert str(excinfo.value) == message

    def test_integer_like_arguments(self):
        assert cayley_graph(np.int64(4)) == cayley_graph(4)
        assert rose_graph(np.int8(3)) == rose_graph(3)
        assert stemmed_rose_graph(np.int64(4), np.int32(3)) == stemmed_rose_graph(4, 3)


class TestAdjacency:
    def test_c3(self):
        assert adjacency_matrix(cayley_graph(3)).entries == (
            (0, 1, 1),
            (1, 0, 1),
            (1, 1, 0),
        )

    def test_c2(self):
        assert adjacency_matrix(cayley_graph(2)).entries == ((0, 2), (2, 0))

    def test_c1(self):
        assert adjacency_matrix(cayley_graph(1)).entries == ((2,),)

    @pytest.mark.parametrize("n", [3, 4, 7, 12])
    def test_circulant_structure(self, n):
        rows = adjacency_matrix(cayley_graph(n)).entries
        first = tuple(1 if j in (1, n - 1) else 0 for j in range(n))
        assert rows[0] == first
        for i in range(1, n):
            assert rows[i] == tuple(first[(j - i) % n] for j in range(n))

    @pytest.mark.parametrize(
        "g",
        [cayley_graph(5), rose_graph(3), stemmed_rose_graph(4, 3), SPLIT, PATH],
        ids=["C5", "R3", "R4^3", "split", "path"],
    )
    def test_row_and_column_sums_are_degrees(self, g):
        rows = adjacency_matrix(g).entries
        assert tuple(sum(r) for r in rows) == g.out_degrees
        assert tuple(sum(col) for col in zip(*rows)) == g.in_degrees


class TestPISReport:
    @pytest.mark.parametrize("n", list(range(1, 101)))
    def test_cayley_graphs_pass(self, n):
        report = pis_report(cayley_graph(n))
        assert report.purely_infinite_simple
        assert report.witnesses == ()

    def test_sink(self):
        report = pis_report(LONE_VERTEX)
        assert not report.sink_free
        assert not report.has_cycle
        assert not report.purely_infinite_simple
        assert ("sink_free", "v1") in report.witnesses

    def test_cycle_without_exit(self):
        report = pis_report(TWO_CYCLE)
        assert report.sink_free
        assert report.has_cycle
        assert report.cofinal
        assert not report.condition_L
        assert not report.purely_infinite_simple
        assert report.witnesses == (("condition_L", ("v1", "v2")),)

    def test_not_cofinal(self):
        report = pis_report(SPLIT)
        assert report.sink_free and report.condition_L and report.has_cycle
        assert not report.cofinal
        assert not report.purely_infinite_simple

    def test_flag_conjunction(self):
        for g in (cayley_graph(4), TWO_CYCLE, SPLIT, LONE_VERTEX, PATH):
            r = pis_report(g)
            assert r.purely_infinite_simple == (
                r.sink_free and r.condition_L and r.cofinal and r.has_cycle
            )

    @pytest.mark.parametrize(
        "g", [LONE_VERTEX, TWO_CYCLE, SPLIT, PATH], ids=["sink", "2cyc", "split", "path"]
    )
    def test_witnesses_verify(self, g):
        assert_witnesses_verify(g, pis_report(g))


def assert_witnesses_verify(g, report):
    """Each False flag has a witness of its kind, and each witness holds
    on `g` itself, with no reference implementation."""
    assert (not report.purely_infinite_simple) == bool(report.witnesses)
    flags = {
        "sink_free": report.sink_free,
        "condition_L": report.condition_L,
        "cofinal": report.cofinal,
        "has_cycle": report.has_cycle,
    }
    witnessed = {kind for kind, _ in report.witnesses}
    for flag, value in flags.items():
        if not value:
            assert flag in witnessed
    index = g.vertex_index
    for kind, payload in report.witnesses:
        if kind == "sink_free":
            assert g.out_degrees[index[payload]] == 0
        elif kind == "condition_L":
            cycle = [index[name] for name in payload]
            assert len(set(cycle)) == len(cycle)
            for pos, v in enumerate(cycle):
                assert g.out_degrees[v] == 1
                assert g.successors[v][0] == cycle[(pos + 1) % len(cycle)]
        elif kind == "cofinal":
            u, w = (index[name] for name in payload)
            assert not reaches(g, u, w)
            # w really lies on a cycle
            assert any(reaches(g, s, w) for s in g.successors[w])
        elif kind == "has_cycle":
            order = [index[name] for name in payload]
            assert sorted(order) == list(range(g.n_vertices))
            position = {v: i for i, v in enumerate(order)}
            for e in g.edges:
                assert position[e.source] < position[e.range]


@settings(deadline=None, max_examples=300)
@given(multigraphs(max_vertices=10, max_mult=2))
@example(NAMED_GRAPHS["two_loops_apart"])
def test_witnesses_verify_on_random_graphs(g):
    assert_witnesses_verify(g, pis_report(g))


def networkx_pis(g):
    """pis_report's flags and cofinal witness, from networkx and a search
    from every vertex: (c, the least cycle vertex c misses) when the least
    cycle vertex c misses one, else the first vertex that misses a cycle
    vertex, with the first one it misses."""
    multi = nx.MultiDiGraph()
    multi.add_nodes_from(range(g.n_vertices))
    multi.add_edges_from((e.source, e.range) for e in g.edges)
    on_cycle = {v for v, _ in nx.selfloop_edges(multi)}
    for comp in nx.strongly_connected_components(multi):
        if len(comp) > 1:
            on_cycle |= comp
    cycles = list(nx.simple_cycles(nx.DiGraph(multi)))
    assert bool(cycles) == bool(on_cycle)
    witness = None
    for u in sorted(on_cycle)[:1] + list(range(g.n_vertices)):
        reach = nx.descendants(multi, u) | {u}
        missing = [w for w in sorted(on_cycle) if w not in reach]
        if missing:
            witness = (g.vertices[u], g.vertices[missing[0]])
            break
    return {
        "sink_free": all(d > 0 for _, d in multi.out_degree()),
        # a cycle has no exit iff each of its vertices emits one edge
        "condition_L": all(
            any(multi.out_degree(v) > 1 for v in cycle) for cycle in cycles
        ),
        "cofinal": witness is None,
        "has_cycle": bool(cycles),
        "witness": witness,
    }


@settings(deadline=None, max_examples=300)
@given(multigraphs(max_vertices=8, max_mult=2))
@example(NAMED_GRAPHS["empty"])
@example(NAMED_GRAPHS["sink"])
@example(NAMED_GRAPHS["one_loop_singular"])
@example(NAMED_GRAPHS["source_into_rose"])
@example(NAMED_GRAPHS["isolated_vertex"])
@example(NAMED_GRAPHS["two_loops_apart"])
@example(SPLIT)
def test_pis_report_matches_networkx(g):
    report = pis_report(g)
    reference = networkx_pis(g)
    witness = reference.pop("witness")
    assert {flag: getattr(report, flag) for flag in reference} == reference
    assert dict(report.witnesses).get("cofinal") == witness


def test_cofinal_witness_is_first_failing_vertex():
    report = pis_report(NAMED_GRAPHS["two_loops_apart"])
    assert not report.cofinal
    assert ("cofinal", ("v1", "v2")) in report.witnesses


def path_into_two_cycles(m: int) -> Graph:
    """v_0 -> ... -> v_{m-1}, whose last vertex feeds the two 2-cycles
    {v_m, v_{m+1}} and {v_{m+2}, v_{m+3}}."""
    pairs = [(v, v + 1) for v in range(m - 1)]
    pairs += [(m - 1, m), (m - 1, m + 2), (m, m + 1), (m + 1, m)]
    pairs += [(m + 2, m + 3), (m + 3, m + 2)]
    return graph_from_pairs(m + 4, pairs)


def counting_searches(monkeypatch) -> list[int]:
    """Patch `graphs._reachable` to note each call's start vertex."""
    starts: list[int] = []
    real = graphs._reachable

    def counted(adjacent, start):
        starts.append(start)
        return real(adjacent, start)

    monkeypatch.setattr(graphs, "_reachable", counted)
    return starts


@pytest.mark.parametrize("m", [500, 4000])
def test_pis_report_searches_at_most_twice_on_a_long_path(monkeypatch, m):
    starts = counting_searches(monkeypatch)
    report = pis_report(path_into_two_cycles(m))
    assert len(starts) <= 2
    assert dict(report.witnesses)["cofinal"] == (f"v{m}", f"v{m + 2}")


@settings(deadline=None, max_examples=200)
@given(multigraphs(max_vertices=10, max_mult=2))
def test_pis_report_searches_at_most_twice(g):
    with pytest.MonkeyPatch.context() as monkeypatch:
        starts = counting_searches(monkeypatch)
        pis_report(g)
    assert len(starts) <= 2


@settings(deadline=None, max_examples=200)
@given(multigraphs(max_vertices=10, max_mult=2))
@example(cayley_graph(5))
@example(rose_graph(2))
@example(TWO_CYCLE)
@example(LONE_VERTEX)
@example(SPLIT)
@example(NAMED_GRAPHS["source_into_rose"])
def test_pis_report_searches_no_strongly_connected_graph(g):
    """A graph whose one strong component holds every vertex and a cycle
    is cofinal with no search; every other graph with a cycle takes the
    searches `_cofinal_witness` makes, and a graph with none takes none."""
    digraph = nx.MultiDiGraph()
    digraph.add_nodes_from(range(g.n_vertices))
    digraph.add_edges_from((e.source, e.range) for e in g.edges)
    strongly_connected = g.n_edges > 0 and nx.is_strongly_connected(digraph)
    cyclic, _ = graphs._strong_components(g.successors)
    with pytest.MonkeyPatch.context() as monkeypatch:
        starts = counting_searches(monkeypatch)
        pis_report(g)
        in_report = starts[:]
        del starts[:]
        if cyclic and not strongly_connected:
            graphs._cofinal_witness(g, cyclic)
            assert starts
    assert in_report == starts


# Reference PIS search: a frame-list Tarjan that lists the strong
# components, read for the cycle vertices, the exit-less cycles and the
# acyclic order, and a cofinality search from every vertex.


def _reference_strongly_connected_components(succ) -> list[list[int]]:
    """Iterative Tarjan; components in reverse topological order."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        frames: list[list[int]] = [[root, 0]]
        while frames:
            v = frames[-1][0]
            if frames[-1][1] == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while frames[-1][1] < len(succ[v]):
                w = succ[v][frames[-1][1]]
                frames[-1][1] += 1
                if index[w] == -1:
                    frames.append([w, 0])
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            frames.pop()
            if frames:
                parent = frames[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _reference_cyclic_components(g: Graph) -> list[list[int]]:
    """Components with two or more vertices or a loop, in closing order."""
    return [
        comp
        for comp in _reference_strongly_connected_components(g.successors)
        if len(comp) > 1 or comp[0] in g.successors[comp[0]]
    ]


def _reference_cofinal_witness(g: Graph, on_cycle: set[int]):
    """(c, the first cycle vertex c misses) if the least cycle vertex c
    misses one, else the first vertex that misses a cycle vertex, with the
    first one it misses; None when every vertex reaches every cycle
    vertex."""
    targets = sorted(on_cycle)
    misses = {}
    for u in range(g.n_vertices):
        seen = _reachable(g.successors, u)
        missing = [w for w in targets if not seen[w]]
        if missing:
            misses[u] = missing[0]
    if not misses:
        return None
    u = targets[0] if targets[0] in misses else min(misses)
    return u, misses[u]


def _reference_cycle_without_exit(g: Graph):
    """The exit-less cyclic component with the least vertex, listed from
    that vertex along the single out-edges; None if there is none."""
    deg = g.out_degrees
    exitless = [
        comp
        for comp in _reference_cyclic_components(g)
        if all(deg[v] == 1 for v in comp)
    ]
    if not exitless:
        return None
    cycle = [min(min(comp) for comp in exitless)]
    while g.successors[cycle[-1]][0] != cycle[0]:
        cycle.append(g.successors[cycle[-1]][0])
    return tuple(cycle)


def reference_pis_report(g: Graph) -> PISReport:
    names = g.vertices
    witnesses = []
    sinks = [v for v, d in enumerate(g.out_degrees) if d == 0]
    witnesses += [("sink_free", names[v]) for v in sinks]
    bad_cycle = _reference_cycle_without_exit(g)
    if bad_cycle is not None:
        witnesses.append(("condition_L", tuple(names[v] for v in bad_cycle)))
    on_cycle = {v for comp in _reference_cyclic_components(g) for v in comp}
    if not on_cycle:
        # acyclic: the one-vertex components close in reverse topological order
        comps = _reference_strongly_connected_components(g.successors)
        witnesses.append(("has_cycle", tuple(names[c[0]] for c in reversed(comps))))
    witness = _reference_cofinal_witness(g, on_cycle) if on_cycle else None
    if witness is not None:
        u, missing = witness
        witnesses.append(("cofinal", (names[u], names[missing])))
    flags = (not sinks, bad_cycle is None, witness is None, bool(on_cycle))
    return PISReport(*flags, all(flags), tuple(witnesses))


@settings(deadline=None, max_examples=400)
@given(multigraphs(max_vertices=10, max_mult=2))
@example(SPLIT)
@example(NAMED_GRAPHS["two_loops_apart"])
def test_pis_report_matches_reference(g):
    assert pis_report(g) == reference_pis_report(g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pis_report_matches_reference_on_every_small_graph(n):
    """Every graph on n vertices whose vertices emit at most two edges."""
    out_edges = [
        targets
        for k in range(3)
        for targets in itertools.combinations_with_replacement(range(n), k)
    ]
    for choice in itertools.product(out_edges, repeat=n):
        pairs = [(s, r) for s, targets in enumerate(choice) for r in targets]
        g = graph_from_pairs(n, pairs)
        assert pis_report(g) == reference_pis_report(g), choice


class TestGraphJSON:
    @pytest.mark.parametrize(
        "g",
        [cayley_graph(1), cayley_graph(5), rose_graph(3), stemmed_rose_graph(4, 3)],
        ids=["C1", "C5", "R3", "R4^3"],
    )
    def test_round_trip(self, g):
        assert graph_from_dict(graph_to_dict(g)) == g

    def test_shape(self):
        d = graph_to_dict(cayley_graph(2))
        assert set(d) == {"vertices", "edges"}
        assert d["vertices"] == ["v1", "v2"]
        assert {"id": "e1", "source": "v1", "range": "v2"} in d["edges"]

    @pytest.mark.parametrize(
        "data, message",
        [
            ([], "graph JSON must be an object"),
            ({"vertices": ["v1"]}, "graph JSON requires 'vertices' and 'edges'"),
            (
                {"vertices": ["v1"], "edges": [], "extra": 1},
                "unknown graph fields: ['extra']",
            ),
            ({"vertices": "v1", "edges": []}, "'vertices' must be a list of strings"),
            (
                {"vertices": ["v1", "v1"], "edges": []},
                "vertex identifiers must be pairwise distinct",
            ),
            ({"vertices": [1], "edges": []}, "'vertices' must be a list of strings"),
            (
                {"vertices": ["v1"], "edges": [{"id": "e"}]},
                "edge #0 is missing field 'source'",
            ),
            (
                {"vertices": ["v1"], "edges": [{"id": "e", "source": "v1", "range": "vX"}]},
                "edge 'e' references unknown vertex 'vX'",
            ),
            (
                {"vertices": ["v1"], "edges": [{"id": "e", "source": "v1", "range": "v1", "x": 0}]},
                "edge #0 has unknown fields: ['x']",
            ),
            (
                {
                    "vertices": ["v1"],
                    "edges": [
                        {"id": "e", "source": "v1", "range": "v1"},
                        {"id": "e", "source": "v1", "range": "v1"},
                    ],
                },
                "edge ids must be pairwise distinct",
            ),
            (
                {
                    "vertices": ["v1", "v1"],
                    "edges": [{"id": "e", "source": "v1", "range": "vX"}],
                },
                "vertex identifiers must be pairwise distinct",
            ),
            (
                {
                    "vertices": ["v1"],
                    "edges": [
                        {"id": "e", "source": "v1", "range": "v1"},
                        {"id": "f", "source": "v1", "range": "vX", "x": 0},
                    ],
                },
                "edge #1 has unknown fields: ['x']",
            ),
            (
                {
                    "vertices": ["v1"],
                    "edges": [
                        {"id": "e", "source": "v1", "range": "v1"},
                        {"id": "e", "source": "v1", "range": "v1"},
                        {"id": "f", "source": "vX", "range": "v1"},
                    ],
                },
                "edge 'f' references unknown vertex 'vX'",
            ),
            ({"vertices": ["v1"], "edges": {}}, "'edges' must be a list"),
            (
                {"vertices": ["v1"], "edges": [{"id": "e", "source": "v1", "range": "v1"}, "e"]},
                "edge #1 must be an object",
            ),
            (
                {"vertices": ["v1"], "edges": [{"id": "e", "source": ["v1"], "range": "v1"}]},
                "edge #0 fields must be strings",
            ),
            (
                {"vertices": ["v1"], "edges": [{"id": 0, "source": "v1", "range": "v1"}]},
                "edge #0 fields must be strings",
            ),
            (
                {"vertices": ["v1"], "edges": [{"id": "e", "source": "v1", "x": "v1"}]},
                "edge #0 has unknown fields: ['x']",
            ),
        ],
        ids=[
            "not-object",
            "missing-edges",
            "unknown-field",
            "vertices-not-list",
            "dup-vertices",
            "non-string-vertex",
            "missing-edge-fields",
            "dangling-ref",
            "unknown-edge-field",
            "dup-edge-ids",
            "dup-vertices-before-dangling-ref",
            "edge-1-unknown-field-before-dangling-ref",
            "dangling-ref-before-dup-edge-ids",
            "edges-not-list",
            "edge-1-not-object",
            "unhashable-source",
            "non-string-id",
            "three-fields-one-unknown",
        ],
    )
    def test_rejections(self, data, message):
        with pytest.raises(ValueError) as excinfo:
            graph_from_dict(data)
        assert str(excinfo.value) == message


@settings(deadline=None, max_examples=100)
@given(multigraphs(max_vertices=6, max_mult=2))
@example(cayley_graph(5))
@example(stemmed_rose_graph(4, 3))
@example(LONE_VERTEX)
@example(Graph((), ()))
def test_graph_from_dict_checks_a_wire_graph_once(g):
    """`graph_from_dict` is the one check of a wire graph: it runs neither
    `Graph.__post_init__` nor `_checked_edges`, and returns the graph that
    `Graph` builds, with all its checks, from the same vertices and edges."""
    data = graph_to_dict(g)
    index = {name: i for i, name in enumerate(data["vertices"])}
    triples = [(e["id"], index[e["source"]], index[e["range"]]) for e in data["edges"]]
    calls = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        for owner, name in ((Graph, "__post_init__"), (graphs, "_checked_edges")):

            def counted(*args, real=getattr(owner, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(owner, name, counted)
        loaded = graph_from_dict(data)
        assert calls == []
        built = Graph(data["vertices"], triples)
        assert calls == ["__post_init__", "_checked_edges"]
    assert loaded == built == g
    assert hash(loaded) == hash(built)
    assert type(loaded.vertices) is tuple and type(loaded.edges) is tuple
    assert all(type(e) is Edge for e in loaded.edges)
    assert all(type(e.source) is int and type(e.range) is int for e in loaded.edges)
    assert loaded.successors == built.successors


# ---------------------------------------------------------------------------
# Differential tests: the one-pass checks against the validators they
# replaced.  `Graph` used to take a fast test (`_plain_edges`) and, when it
# failed, a second validator (`_checked_edges`); `graph_from_dict` had an
# inline test per edge and `_edge_from_dict` to word a fault.  Both are kept
# here, as they were, as the reference.  The one-pass checks must give the
# same vertices and edges (the same `Edge` objects where the reference kept
# them) or the same exception with the same message.  Two answers differ on
# purpose: an edge that is not an (id, source, range) triple, where the
# reference raised TypeError, and `vertices` given as one string, which the
# reference split into one-character vertices.
# ---------------------------------------------------------------------------


def _reference_plain_edges(edges: tuple, n: int) -> bool:
    ids = set()
    for e in edges:
        if type(e) is not Edge:
            return False
        eid, s, r = e
        if not (
            type(eid) is str
            and type(s) is int
            and type(r) is int
            and 0 <= s < n
            and 0 <= r < n
        ):
            return False
        ids.add(eid)
    return len(ids) == len(edges)


def _reference_checked_edges(edges: tuple, n: int) -> tuple:
    edges = tuple(Edge(*e) for e in edges)
    ids = [e.id for e in edges]
    if not all(isinstance(i, str) for i in ids):
        raise ValueError("edge ids must be strings")
    if len(set(ids)) != len(ids):
        raise ValueError("edge ids must be pairwise distinct")
    checked = []
    for e in edges:
        try:
            s, r = operator.index(e.source), operator.index(e.range)
        except TypeError:
            raise ValueError(
                f"edge {e.id!r} has a non-integer vertex index: "
                f"source {e.source!r}, range {e.range!r}"
            ) from None
        if not (0 <= s < n and 0 <= r < n):
            raise ValueError(f"edge {e.id!r} references an invalid vertex index")
        checked.append(Edge(e.id, s, r))
    return tuple(checked)


def _reference_graph(vertices, edges) -> tuple:
    """(vertices, edges) as the reference `Graph.__post_init__` stored them."""
    vertices = tuple(vertices)
    if not all(isinstance(v, str) for v in vertices):
        raise ValueError("vertex identifiers must be strings")
    if len(set(vertices)) != len(vertices):
        raise ValueError("vertex identifiers must be pairwise distinct")
    edges = tuple(edges)
    if not _reference_plain_edges(edges, len(vertices)):
        edges = _reference_checked_edges(edges, len(vertices))
    return vertices, edges


def _reference_edge_from_dict(k: int, item, index: dict) -> Edge:
    if not isinstance(item, dict):
        raise ValueError(f"edge #{k} must be an object")
    unknown = set(item) - {"id", "source", "range"}
    if unknown:
        raise ValueError(f"edge #{k} has unknown fields: {sorted(unknown)}")
    try:
        eid, src, rng = item["id"], item["source"], item["range"]
    except KeyError as exc:
        raise ValueError(f"edge #{k} is missing field {exc}") from None
    if not all(isinstance(x, str) for x in (eid, src, rng)):
        raise ValueError(f"edge #{k} fields must be strings")
    if src not in index:
        raise ValueError(f"edge {eid!r} references unknown vertex {src!r}")
    if rng not in index:
        raise ValueError(f"edge {eid!r} references unknown vertex {rng!r}")
    return Edge(eid, index[src], index[rng])


def _reference_graph_from_dict(data) -> tuple:
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    unknown = set(data) - {"vertices", "edges"}
    if unknown:
        raise ValueError(f"unknown graph fields: {sorted(unknown)}")
    if "vertices" not in data or "edges" not in data:
        raise ValueError("graph JSON requires 'vertices' and 'edges'")
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise ValueError("'vertices' must be a list of strings")
    index = {name: i for i, name in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValueError("vertex identifiers must be pairwise distinct")
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise ValueError("'edges' must be a list")
    edges = []
    make = tuple.__new__
    for item in raw_edges:
        if type(item) is dict and len(item) == 3:
            eid, src, rng = item.get("id"), item.get("source"), item.get("range")
            if type(eid) is str and type(src) is str and type(rng) is str:
                s, r = index.get(src), index.get(rng)
                if s is not None and r is not None:
                    edges.append(make(Edge, (eid, s, r)))
                    continue
        edges.append(_reference_edge_from_dict(len(edges), item, index))
    return _reference_graph(tuple(vertices), tuple(edges))


class Name(str):
    pass


class Count(int):
    pass


class SubEdge(Edge):
    __slots__ = ()


class SubDict(dict):
    pass


def _outcome(build, *args):
    """("ok", (vertices, edges)) or (exception type, message)."""
    try:
        return "ok", build(*args)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)


def _graph_parts(vertices, edges):
    g = Graph(vertices, edges)
    return g.vertices, g.edges


def _dict_parts(data):
    g = graph_from_dict(data)
    return g.vertices, g.edges


def _is_triple(item) -> bool:
    try:
        return len(tuple(item)) == 3
    except TypeError:
        return False


def _assert_same_graph(got, want, given_edges=()):
    """Equal graphs, checked edges of the exact types, and each given edge
    the reference kept kept too."""
    assert got == want
    vertices, edges = got[1]
    assert type(vertices) is tuple and type(edges) is tuple
    assert all(type(e) is Edge for e in edges)
    assert all(type(e.source) is int and type(e.range) is int for e in edges)
    for new, ref, given in zip(edges, want[1][1], given_edges):
        if ref is given:
            assert new is given


# "e0" repeats the first edge's id
ODD_IDS = st.sampled_from([0, None, True, b"e0", ["e0"], Name("e0"), Name("x"), "e0", ""])
ODD_ENDS = st.sampled_from(
    [None, 0.0, 0.5, "0", True, False, -1, 10**30, ["0"], Count(1)]
    + [np.int64(0), np.int32(1), np.int64(-1), np.int64(9), np.uint8(1)]
)
RESHAPES = (
    lambda e: e,
    tuple,
    list,
    lambda e: SubEdge(*e),
    lambda e: tuple(e)[:2],
    lambda e: tuple(e) + (0,),
    lambda e: 5,
    lambda e: None,
    lambda e: {"id": e[0]},
    lambda e: {"id": e[0], "source": e[1], "range": e[2]},
    lambda e: "e01",
)


@st.composite
def mutated_edge_lists(draw):
    """(vertices, edges) of a valid multigraph after 0-3 changes, most of
    them faults."""
    g = draw(multigraphs(max_vertices=4, max_mult=2))
    vertices, edges = list(g.vertices), list(g.edges)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["id", "source", "range", "shape", "vertex"]))
        if kind == "vertex":
            if vertices:
                i = draw(st.integers(0, len(vertices) - 1))
                vertices[i] = draw(st.sampled_from([None, 0, Name("w"), vertices[0]]))
            continue
        if not edges:
            continue
        k = draw(st.integers(0, len(edges) - 1))
        e = edges[k]
        if not _is_triple(e):
            continue
        eid, s, r = e
        if kind == "id":
            edges[k] = Edge(draw(ODD_IDS), s, r)
        elif kind == "shape":
            edges[k] = draw(st.sampled_from(RESHAPES))(Edge(eid, s, r))
        else:
            value = draw(ODD_ENDS | st.integers(-2, 6))
            edges[k] = Edge(eid, value, r) if kind == "source" else Edge(eid, s, value)
    return tuple(vertices), edges


# JSON null, other JSON values, an unhashable value, a str subclass naming
# a known vertex, an unknown vertex, and "v0"/"e0" (a repeated edge id)
ODD_WIRE_VALUES = st.sampled_from(
    [None, 0, 1.5, True, ["v0"], {"v0": 1}, Name("v0"), "vX", "", "v0", "e0"]
)
WIRE_RESHAPES = (
    list,
    lambda item: "e",
    lambda item: None,
    lambda item: 7,
    lambda item: list(item.values()),
    SubDict,
    OrderedDict,
    lambda item: defaultdict(str, item),
    lambda item: defaultdict(None, item),
    Counter,
)


@st.composite
def mutated_wire_dicts(draw):
    """The wire-format dict of a valid multigraph after 0-3 changes, most
    of them faults."""
    data = graph_to_dict(draw(multigraphs(max_vertices=4, max_mult=2)))
    vertices, edges = data["vertices"], data["edges"]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["set", "drop", "add", "rename", "shape", "vertex"]))
        if kind == "vertex":
            if vertices:
                i = draw(st.integers(0, len(vertices) - 1))
                vertices[i] = draw(st.sampled_from([None, Name("w"), vertices[0]]))
            continue
        if not edges:
            continue
        k = draw(st.integers(0, len(edges) - 1))
        item = edges[k]
        if not isinstance(item, dict):
            continue
        field = draw(st.sampled_from(["id", "source", "range"]))
        if kind == "set":
            item[field] = draw(ODD_WIRE_VALUES)
        elif kind == "drop":
            item.pop(field, None)
        elif kind == "add":
            item[draw(st.sampled_from(["x", "Id", "ranges"]))] = "v0"
        elif kind == "rename":
            if field in item:
                item["x"] = item.pop(field)
        else:
            edges[k] = draw(st.sampled_from(WIRE_RESHAPES))(item)
    return data


class TestAgainstReferenceValidators:
    @settings(deadline=None, max_examples=400)
    @given(mutated_edge_lists())
    @example((("a", "b"), [Edge("e", 0, 1), Edge("f", 1, 0)]))
    @example((("a",), [Edge("e", np.int64(0), True), ("f", 0, 0)]))
    @example((("a",), [Edge(None, 0, 0), Edge("e", 0, 0), Edge("e", 0, 9)]))
    @example((("a",), [Edge("e", 0, 5), Edge("e", np.int64(0), 0)]))
    @example((("a",), [Edge("e", 0.5, 0), [1, 2], ("f", 0, 0, 0)]))
    @example((("a",), [{"id": "e", "source": 0, "range": 0}]))
    @example(("ab", [Edge("e", 0, 1)]))
    def test_graph(self, case):
        vertices, edges = case
        got = _outcome(_graph_parts, vertices, list(edges))
        want = _outcome(_reference_graph, vertices, list(edges))
        if isinstance(vertices, str):
            assert got == (ValueError, "vertices must be a sequence of strings, not one string")
        elif want[0] is TypeError:
            first = next(k for k, item in enumerate(edges) if not _is_triple(item))
            assert got == (ValueError, f"edge #{first} must be an (id, source, range) triple")
        elif want[0] == "ok":
            _assert_same_graph(got, want, edges)
        else:
            assert got == want

    @settings(deadline=None, max_examples=400)
    @given(mutated_wire_dicts())
    @example({"vertices": ["v0"], "edges": [{"id": None, "source": "v0", "range": "v0"}]})
    @example({"vertices": ["v0"], "edges": [{"id": "e", "source": "v0", "x": "v0"}]})
    @example({"vertices": ["v0"], "edges": [SubDict(id="e", source="v0", range="v0")]})
    @example({"vertices": ["v0"], "edges": [defaultdict(str, id="e", source="v0")]})
    @example({"vertices": ["v0"], "edges": [Counter(id="e", source="v0", x="v0")]})
    @example({"vertices": ["v0"], "edges": [{"id": Name("e"), "source": "v0", "range": "v0"}]})
    def test_graph_from_dict(self, data):
        # a defaultdict edge gains the fields it is asked for: one copy each
        got = _outcome(_dict_parts, copy.deepcopy(data))
        want = _outcome(_reference_graph_from_dict, copy.deepcopy(data))
        if want[0] == "ok":
            _assert_same_graph(got, want)
        else:
            assert got == want
