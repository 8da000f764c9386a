"""Finite directed multigraphs and the graph families used throughout.

Provides the cyclic-group Cayley graphs (each vertex sends one edge to
each of its two neighbours), roses (one vertex, n loops) and stemmed
roses (a stem vertex feeding a rose), along with adjacency matrices, a
strict JSON (de)serialisation, and the graph-theoretic conditions under
which the associated Leavitt path algebra is purely infinite simple.
`Graph` checks its edges in one pass.  A wire graph is checked once, by
`graph_from_dict`: one loop over its wire edges and one test of their
ids, then the `Graph` is built by the record's trusted constructor
(`Graph._trusted`, see `_record`), without `Graph`'s pass.  Both raise
ValueError for the first fault.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Any, NamedTuple

from ._record import record
from .intlinalg import IntMatrix, _as_positive

__all__ = [
    "Edge",
    "Graph",
    "PISReport",
    "cayley_graph",
    "rose_graph",
    "stemmed_rose_graph",
    "adjacency_matrix",
    "pis_report",
    "graph_to_dict",
    "graph_from_dict",
]


class Edge(NamedTuple):
    id: str
    source: int
    range: int


@record
class Graph:
    """Immutable directed multigraph with named vertices.

    Vertex order is significant: it fixes the row/column order of every
    matrix derived from the graph.  Parallel edges and loops are allowed.
    Each edge is an `Edge` or any (id, source, range) triple; its
    endpoints are vertex indices: integers (anything `operator.index`
    takes, so not floats or strings), stored as int.  An `Edge` whose
    endpoints are already plain ints is kept as the same object.

    Invalid input raises ValueError for its first fault, in this order:
    `vertices` not iterable or given as one string; a vertex id that is
    not a string; a repeated vertex id; `edges` not iterable; an edge
    that is not a triple (the first such); an edge id that is not a
    string; a repeated edge id; then, edge by edge, an endpoint that is
    not an integer or not in range.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if isinstance(self.vertices, str):
            raise ValueError("vertices must be a sequence of strings, not one string")
        vertices = tuple(_iterable(self.vertices, "vertices"))
        if not all(isinstance(v, str) for v in vertices):
            raise ValueError("vertex identifiers must be strings")
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertex identifiers must be pairwise distinct")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", _checked_edges(self.edges, len(vertices)))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.vertices)}

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Successor vertex indices per vertex, one entry per edge."""
        out: list[list[int]] = [[] for _ in self.vertices]
        for e in self.edges:
            out[e.source].append(e.range)
        return tuple(tuple(s) for s in out)

    @cached_property
    def out_degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.successors)

    @cached_property
    def in_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n_vertices
        for e in self.edges:
            deg[e.range] += 1
        return tuple(deg)


def _iterable(value, name: str):
    """An iterator over `value`; ValueError naming `name` if it has none."""
    try:
        return iter(value)
    except TypeError:
        raise ValueError(
            f"{name} must be iterable, not {type(value).__name__}"
        ) from None


def _checked_edges(edges, n: int) -> tuple[Edge, ...]:
    """`edges` as `Edge`s with int endpoints in range(n), in one pass that
    notes each fault and raises the first in the order `Graph` gives.  An
    `Edge` with int endpoints is kept; any other triple is rebuilt."""
    edges = tuple(_iterable(edges, "edges"))
    ids = []
    rebuilt = {}  # position -> the rebuilt Edge
    id_fault = False
    fault = None
    for e in edges:
        try:
            eid, s, r = e
        except (TypeError, ValueError):
            raise ValueError(
                f"edge #{len(ids)} must be an (id, source, range) triple"
            ) from None
        ids.append(eid)
        if not isinstance(eid, str):
            id_fault = True
        if type(e) is not Edge or type(s) is not int or type(r) is not int:
            if fault is None:
                try:
                    s, r = operator.index(s), operator.index(r)
                except TypeError:
                    fault = (
                        f"edge {eid!r} has a non-integer vertex index: "
                        f"source {s!r}, range {r!r}"
                    )
            rebuilt[len(ids) - 1] = Edge(eid, s, r)
        if fault is None and not (0 <= s < n and 0 <= r < n):
            fault = f"edge {eid!r} references an invalid vertex index"
    if id_fault:
        raise ValueError("edge ids must be strings")
    if len(set(ids)) != len(ids):
        raise ValueError("edge ids must be pairwise distinct")
    if fault is not None:
        raise ValueError(fault)
    if rebuilt:
        edges = tuple(rebuilt.get(k, e) for k, e in enumerate(edges))
    return edges


def cayley_graph(n: int) -> Graph:
    """Cayley graph of Z/nZ with respect to {1, n-1}.

    n vertices v1..vn and 2n edges: e_i runs from v_i to v_{i+1} and f_i
    from v_i to v_{i-1}, subscripts mod n (1-based, residue 0 means n).
    n=1 gives a single vertex with two loops, n=2 two vertices with two
    parallel edges in each direction.
    """
    n = _as_positive(n, "n")
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    edges = [Edge(f"e{i}", i - 1, i % n) for i in range(1, n + 1)]
    edges += [Edge(f"f{i}", i - 1, (i - 2) % n) for i in range(1, n + 1)]
    return Graph(vertices, tuple(edges))


def _cayley_order(g: Graph) -> int | None:
    """n when g is a copy of `cayley_graph(n)` in some vertex order (edge
    ids and vertex names aside), else None.

    C_1 is one vertex with two loops, and C_2 two vertices with two edges
    each way.  For n >= 3 every vertex has two out-edges, to two distinct
    other vertices.  Take the walk from vertex 0 that leaves each vertex
    by the edge it did not come in by: it must find each step's reverse
    edge and meet every vertex once before it returns to 0, and 0's other
    edge must be the reverse of that closing step.  A loop or a doubled
    edge would send the walk back to a vertex it has met.  O(V), and it
    stops at the first vertex that fails.
    """
    n = g.n_vertices
    if n == 0 or len(g.edges) != 2 * n:
        return None
    succ = g.successors
    if n <= 2:
        return n if succ == ((0, 0),) or succ == ((1, 1), (0, 0)) else None
    if len(succ[0]) != 2:
        return None
    seen = bytearray(n)
    prev, cur = 0, succ[0][0]
    for _ in range(n - 1):
        if cur == 0 or seen[cur] or len(succ[cur]) != 2 or prev not in succ[cur]:
            return None
        seen[cur] = 1
        a, b = succ[cur]
        prev, cur = cur, (b if a == prev else a)
    return n if cur == 0 and succ[0] == (succ[0][0], prev) else None


def rose_graph(n: int) -> Graph:
    """Rose with n petals: one vertex and n loops."""
    n = _as_positive(n, "n")
    return Graph(("v1",), tuple(Edge(f"g{i}", 0, 0) for i in range(1, n + 1)))


def stemmed_rose_graph(n: int, d: int) -> Graph:
    """Two vertices, d-1 stem edges v1 -> v2, and n loops at v2."""
    n, d = _as_positive(n, "n", 2), _as_positive(d, "d", 2)
    stem = tuple(Edge(f"h{i}", 0, 1) for i in range(1, d))
    loops = tuple(Edge(f"g{i}", 1, 1) for i in range(1, n + 1))
    return Graph(("v1", "v2"), stem + loops)


def _adjacency_rows(g: Graph) -> list[list[int]]:
    """Entry (i, j) counts edges from vertex i to vertex j, as plain lists."""
    n = g.n_vertices
    a = [[0] * n for _ in range(n)]
    for e in g.edges:
        a[e.source][e.range] += 1
    return a


def adjacency_matrix(g: Graph) -> IntMatrix:
    """Entry (i, j) counts edges from vertex i to vertex j."""
    return IntMatrix(_adjacency_rows(g))


# ---------------------------------------------------------------------------
# Purely infinite simplicity: sink-free + Condition (L) + cofinal + a cycle.
# ---------------------------------------------------------------------------


@record
class PISReport:
    """Outcome of the purely-infinite-simple test, with witnesses.

    Every False flag carries at least one verifiable witness: a sink
    vertex (one per sink), a cycle without exit (vertex tuple), an
    unreachable pair (vertex, cycle vertex), or a topological order
    certifying acyclicity.  `pis_report` states which witness it picks.
    """

    sink_free: bool
    condition_L: bool
    cofinal: bool
    has_cycle: bool
    purely_infinite_simple: bool
    witnesses: tuple[tuple[str, Any], ...]


def _strong_components(succ) -> tuple[list[list[int]], list[int]]:
    """Tarjan's strong components of `succ`, split in two: the cyclic ones
    (two or more vertices, or a loop) as vertex lists, and the vertices of
    the others in the order their components close.

    Iterative.  Each open vertex sits on `work` with an iterator over its
    successors: it descends into the first unnumbered one, and closes once
    the iterator runs out.  A vertex that closes as the root of its
    component pops that component off `stack`.  Components close in
    reverse topological order.  O(V + E).
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    cyclic: list[list[int]] = []
    closed: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            if index[v] == -1:  # v opens
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            for w in successors:
                if index[w] == -1:
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    w = stack.pop()
                    on_stack[w] = False
                    if w == v and v not in succ[v]:
                        closed.append(v)
                        continue
                    component = [w]
                    while w != v:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                    cyclic.append(component)
    return cyclic, closed


def _reachable(adjacent, start: int) -> list[bool]:
    """seen[w] is True iff a directed path in `adjacent` runs start -> w."""
    seen = [False] * len(adjacent)
    seen[start] = True
    stack = [start]
    while stack:
        for w in adjacent[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return seen


def _cofinal_witness(g: Graph, cyclic: list[list[int]]) -> tuple[int, int] | None:
    """None when the graph is cofinal, else an unreachable pair (vertex,
    cycle vertex), from one forward and at most one backward search from
    c, the least vertex of the cyclic components `cyclic`."""
    c = min(min(comp) for comp in cyclic)
    forward = _reachable(g.successors, c)
    missed = min((w for comp in cyclic for w in comp if not forward[w]), default=None)
    if missed is not None:
        return c, missed
    predecessors: list[list[int]] = [[] for _ in g.vertices]
    for e in g.edges:
        predecessors[e.range].append(e.source)
    backward = _reachable(predecessors, c)
    u = next((u for u, ok in enumerate(backward) if not ok), None)
    return None if u is None else (u, c)


def pis_report(g: Graph) -> PISReport:
    """Decide the graph conditions for purely infinite simplicity.

    sink_free: every vertex emits an edge.  condition_L: every cycle has
    an exit.  cofinal: every vertex reaches every vertex that lies on a
    cycle.  has_cycle: some directed cycle exists.  The algebra test is
    the conjunction of all four.

    One Tarjan pass gives the strong components, and every flag and
    witness is read off it, plus at most one forward and one backward
    search from c, the least cycle vertex, and none when one strong
    component holds every vertex.  O(V + E) on every graph.
    Witnesses, in this order:

    - sink_free: each sink, in vertex order.
    - condition_L: a cycle has no exit iff each of its vertices emits
      exactly one edge, and such a cycle is a whole strong component.
      The witness is the exit-less component that holds the least such
      vertex, listed from that vertex along the single out-edges.
    - has_cycle: with no cycle every component is one vertex, and they
      close in reverse topological order; the witness is that order
      reversed.
    - cofinal: the graph is cofinal iff c reaches every cycle vertex and
      every vertex reaches c (then every vertex reaches every cycle
      vertex through c; conversely, c and every other vertex reach every
      cycle vertex, c among them).  If the forward search from c misses
      a cycle vertex, the witness is (c, the least cycle vertex it
      misses); otherwise (the least vertex the backward search misses, c).
    """
    names = g.vertices
    succ = g.successors
    deg = g.out_degrees
    witnesses: list[tuple[str, Any]] = []

    sinks = [v for v, d in enumerate(deg) if d == 0]
    sink_free = not sinks
    for v in sinks:
        witnesses.append(("sink_free", names[v]))

    cyclic, closed = _strong_components(succ)
    exitless = [comp for comp in cyclic if all(deg[v] == 1 for v in comp)]
    condition_L = not exitless
    if exitless:
        comp = min(exitless, key=min)
        cycle = [min(comp)]
        for _ in range(len(comp) - 1):
            cycle.append(succ[cycle[-1]][0])
        witnesses.append(("condition_L", tuple(names[v] for v in cycle)))

    has_cycle = bool(cyclic)
    if not has_cycle:
        witnesses.append(("has_cycle", tuple(names[v] for v in reversed(closed))))

    cofinal = True
    # A cyclic component that holds every vertex: strongly connected, cofinal
    if has_cycle and len(cyclic[0]) < len(names):
        witness = _cofinal_witness(g, cyclic)
        if witness is not None:
            cofinal = False
            u, missing = witness
            witnesses.append(("cofinal", (names[u], names[missing])))

    pis = sink_free and condition_L and cofinal and has_cycle
    return PISReport(
        sink_free=sink_free,
        condition_L=condition_L,
        cofinal=cofinal,
        has_cycle=has_cycle,
        purely_infinite_simple=pis,
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# JSON wire format: {"vertices": [...], "edges": [{"id", "source", "range"}]}
# Vertex references are by name; unknown fields are rejected.
# ---------------------------------------------------------------------------


def graph_to_dict(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "source": g.vertices[e.source], "range": g.vertices[e.range]}
            for e in g.edges
        ],
    }


def graph_from_dict(data) -> Graph:
    """The `Graph` of a wire dict, whose one check this is: each edge as it
    is read, then the edge ids, so faults come in the order `Graph` gives."""
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
    index = dict(zip(vertices, range(len(vertices))))
    if len(index) != len(vertices):
        raise ValueError("vertex identifiers must be pairwise distinct")
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise ValueError("'edges' must be a list")
    # Each edge raises its first fault, in this order: not an object, an unknown
    # field, a missing field, a non-string field, an unknown vertex.
    edges = []
    # Builds the same Edge without the Python-level __new__ of a NamedTuple,
    # one Python call per edge saved on the input of every command.
    make = tuple.__new__
    for item in raw_edges:
        if type(item) is not dict and not isinstance(item, dict):
            raise ValueError(f"edge #{len(edges)} must be an object")
        try:
            eid, src, rng = item["id"], item["source"], item["range"]
        except KeyError as exc:
            missing = exc
        else:
            missing = None
        # An exact dict with the three fields and three items has no other
        # field; a `defaultdict` adds only the fields read.  Comparing
        # `item.keys()` with the field set finds the same faults but takes
        # about a fifth longer per graph.
        if missing is not None or len(item) != 3 or type(item) is not dict:
            if unknown := set(item) - {"id", "source", "range"}:
                raise ValueError(
                    f"edge #{len(edges)} has unknown fields: {sorted(unknown)}"
                )
            if missing is not None:
                raise ValueError(f"edge #{len(edges)} is missing field {missing}")
        if not (isinstance(eid, str) and isinstance(src, str) and isinstance(rng, str)):
            raise ValueError(f"edge #{len(edges)} fields must be strings")
        s, r = index.get(src), index.get(rng)
        if s is None:
            raise ValueError(f"edge {eid!r} references unknown vertex {src!r}")
        if r is None:
            raise ValueError(f"edge {eid!r} references unknown vertex {rng!r}")
        edges.append(make(Edge, (eid, s, r)))
    if len({e[0] for e in edges}) != len(edges):
        raise ValueError("edge ids must be pairwise distinct")
    return Graph._trusted(tuple(vertices), tuple(edges))
