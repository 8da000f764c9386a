"""Hypothesis strategies for small directed multigraphs.

Shared by the differential and metamorphic tests.  Drawn graphs have
`min_vertices` (default 0) to `max_vertices` vertices and each ordered pair (loops included) carries
0 to `max_mult` parallel edges, so sinks, sources, isolated vertices,
parallel edges and singular B = I - A^t (a vertex whose only edge is one
loop gives a zero row) all turn up.  `NAMED_GRAPHS` pins each of those
cases down as an explicit example.  `random_multigraph` draws larger
graphs from a seeded `random.Random`, as the benchmark's dense workload
does, and `out_degree_graph` sparse ones with k out-edges per vertex.
"""

import random

from hypothesis import strategies as st

from lpa_invariants.graphs import Edge, Graph


def graph_from_pairs(n: int, pairs) -> Graph:
    edges = tuple(Edge(f"e{k}", s, r) for k, (s, r) in enumerate(pairs))
    return Graph(tuple(f"v{i}" for i in range(n)), edges)


def random_multigraph(rng, n: int, density: float, max_mult: int = 2) -> Graph:
    """Each ordered pair, loops included, gets 1..max_mult parallel edges
    with probability `density`, as the benchmark's dense workload draws
    its graphs."""
    pairs = []
    for s in range(n):
        for r in range(n):
            if rng.random() < density:
                pairs += [(s, r)] * rng.randint(1, max_mult)
    return graph_from_pairs(n, pairs)


def out_degree_graph(n: int, k: int) -> Graph:
    """k out-edges per vertex to targets drawn uniformly by
    `random.Random(n)`, loops allowed: the sparse graphs of the
    elimination's stall baselines."""
    rng = random.Random(n)
    pairs = [(s, rng.randrange(n)) for s in range(n) for _ in range(k)]
    return graph_from_pairs(n, pairs)


@st.composite
def multigraphs(
    draw, max_vertices: int = 7, max_mult: int = 3, min_vertices: int = 0
) -> Graph:
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = []
    for s in range(n):
        for r in range(n):
            # mostly no edge, so that sparse graphs with sinks are common
            mult = draw(st.integers(0, max_mult)) if draw(st.booleans()) else 0
            pairs += [(s, r)] * mult
    return graph_from_pairs(n, pairs)


NAMED_GRAPHS = {
    "empty": graph_from_pairs(0, []),
    "sink": graph_from_pairs(1, []),
    "one_loop_singular": graph_from_pairs(1, [(0, 0)]),
    "source_into_rose": graph_from_pairs(2, [(0, 1), (1, 1), (1, 1)]),
    "isolated_vertex": graph_from_pairs(3, [(0, 1), (1, 0), (1, 1)]),
    "parallel_edges": graph_from_pairs(2, [(0, 1)] * 3 + [(1, 0)] * 2),
    "rank_one": graph_from_pairs(3, [(0, 0), (1, 1), (2, 0), (2, 1)]),
    # vertex 0 reaches both loops, neither loop reaches the other: the
    # first vertex that misses a cycle vertex is v1, not v0
    "two_loops_apart": graph_from_pairs(3, [(0, 1), (0, 2), (1, 1), (2, 2)]),
}


def permute(g: Graph, order) -> Graph:
    """The same graph with vertex `order[i]` listed i-th."""
    position = {old: new for new, old in enumerate(order)}
    return Graph(
        tuple(g.vertices[old] for old in order),
        tuple(Edge(e.id, position[e.source], position[e.range]) for e in g.edges),
    )
