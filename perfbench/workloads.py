"""Seeded inputs and expected answers for the four benchmark workloads.

Each builder writes graph JSON files into a work directory and returns
the operation list: the `lpainv` argument vector of each op, the kind of
check it gets, and the expected answer from `oracle` (computed here,
before any timing starts).  The same workload and seed always give the
same files and the same ops.  Draws are never filtered by how long the
program takes on them or by the verdict it gives.

Sizes and where they stop (measured on 2 CPUs, Python 3.11):

* table-cayley: `table --max 100`, about 5.4 s; 110 took 8.1 s and 120
  took 9.4 s, since the cost grows about as n^4.
* invariants-dense: 200 multigraphs, 12 to 28 vertices (sizes spread
  evenly), edge density 0.2 to 0.8 (stratified), multiplicity at most 2.
  The Smith form's coefficient growth makes larger draws heavy-tailed:
  at 32 vertices the slowest of 40 draws took 26 times the median, at 40
  one draw in about fifteen took 2 to 14 s while the median took 0.1 s,
  at 44 a draw took 109 s and at 48 one took 35 s.  With sizes up to 32
  the op list's time varied by 18% (quartile spread) from seed to seed,
  with sizes up to 28 by 3%.  At 28 the transforms still reach thousands
  of bits, so the growth shows in intlinalg.snf_max_bits and op_p90_ms.
* classify-pairs: 960 pairs of 3 to 6 vertex multigraphs with
  multiplicity at most 2, plus Cayley pairs up to C_40.  With
  multiplicity 3 the K0 groups get large enough for the exhaustive
  pointed-isomorphism search to dominate: rank-2 groups of order about
  760 took 13 s and about 1500 took 62 s, order about 100 already costs
  0.2 to 0.6 s, and the op list's time varied by 93% between seeds.  At
  multiplicity 2 such groups still turn up, but rarely.
* monoid-box: C_3..C_11 and four small PIS graphs, bounds 8 to 12.  The
  box grows as C(n + bound, n): C_10 at bound 12 takes 12 s because the
  command saturates twice, so larger n get smaller bounds, keeping every
  box under 80,000 vectors and a pass near 2 s.  The random graphs all
  take less than C_5, so the median op is C_5 whatever the seed; with six
  of them the median was the costliest random graph, and op_p50_ms moved
  by 20-27% (quartile spread) between seeds.
"""

from __future__ import annotations

import json
import os
import random

import oracle

WORKLOADS = ("table-cayley", "invariants-dense", "classify-pairs", "monoid-box")

TABLE_MAX = 100
DENSE_COUNT = 200
DENSE_SIZES = (12, 28)
CLASSIFY_SIZES = (3, 6)
CLASSIFY_MULTIPLICITY = 2
CLASSIFY_PAIRS = 960
CAYLEY_MAX = 40
# (n, bound) for the Cayley graphs in monoid-box.
MONOID_CAYLEY = ((3, 12), (4, 12), (5, 12), (6, 12), (7, 11), (8, 10), (9, 9), (10, 8), (11, 8))
# (vertices, bound) of the seeded PIS graphs in monoid-box.
MONOID_RANDOM = ((2, 12), (3, 12), (4, 10), (4, 12))


def random_multigraph(rng: random.Random, n: int, density: float, max_mult: int) -> dict:
    """Each ordered vertex pair, loops included, gets 1..max_mult parallel
    edges with probability `density`."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = []
    for s in vertices:
        for r in vertices:
            if rng.random() < density:
                for _ in range(rng.randint(1, max_mult)):
                    edges.append({"id": f"e{len(edges) + 1}", "source": s, "range": r})
    return {"vertices": vertices, "edges": edges}


def pis_multigraph(rng: random.Random, n: int, extra: int, max_mult: int) -> dict:
    """A Hamiltonian cycle in random order plus `extra` random edge groups.

    Strongly connected and not a bare cycle, so purely infinite simple by
    construction."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    order = rng.sample(vertices, n)
    pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    for _ in range(max(1, extra)):
        s, r = rng.choice(vertices), rng.choice(vertices)
        pairs.extend([(s, r)] * rng.randint(1, max_mult))
    rng.shuffle(pairs)
    edges = [{"id": f"e{k}", "source": s, "range": r} for k, (s, r) in enumerate(pairs, 1)]
    return {"vertices": vertices, "edges": edges}


def cayley(n: int) -> dict:
    """Cayley graph of Z/n with respect to {1, n-1}, written independently."""
    vertices = [f"v{i}" for i in range(1, n + 1)]
    edges = [
        {"id": f"e{i}", "source": vertices[i - 1], "range": vertices[i % n]}
        for i in range(1, n + 1)
    ]
    edges += [
        {"id": f"f{i}", "source": vertices[i - 1], "range": vertices[(i - 2) % n]}
        for i in range(1, n + 1)
    ]
    return {"vertices": vertices, "edges": edges}


def permuted(rng: random.Random, graph: dict) -> dict:
    """The same graph with its vertex order and edge order shuffled."""
    vertices = rng.sample(graph["vertices"], len(graph["vertices"]))
    edges = rng.sample(graph["edges"], len(graph["edges"]))
    return {"vertices": vertices, "edges": [dict(e) for e in edges]}


def _stratified(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of `count` equal slices of [lo, hi), shuffled."""
    values = [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(values)
    return values


class _Files:
    def __init__(self, root: str) -> None:
        self.root = root
        self.count = 0

    def write(self, graph: dict) -> str:
        self.count += 1
        path = os.path.join(self.root, f"g{self.count:04d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(graph, handle)
        return path


def _table_op(n: int) -> dict:
    return {
        "argv": ["table", "--max", str(n), "--format", "json"],
        "kind": "table",
        "expect": {"rows": [oracle.cayley_row(k) for k in range(1, n + 1)]},
    }


def table_cayley(rng: random.Random, files: _Files) -> dict:
    # `table` reads no input, so the seed does not change this workload.
    return {"warmup": _table_op(12), "ops": [_table_op(TABLE_MAX)]}


def _invariants_op(files: _Files, graph: dict) -> dict:
    return {
        "argv": ["invariants", files.write(graph), "--json"],
        "kind": "invariants",
        "expect": oracle.expected_invariants(graph),
    }


def invariants_dense(rng: random.Random, files: _Files) -> dict:
    lo, hi = DENSE_SIZES
    sizes = [lo + (hi - lo) * k // (DENSE_COUNT - 1) for k in range(DENSE_COUNT)]
    rng.shuffle(sizes)
    densities = _stratified(rng, DENSE_COUNT, 0.2, 0.8)
    ops = [
        _invariants_op(files, random_multigraph(rng, n, p, 2))
        for n, p in zip(sizes, densities)
    ]
    warmup = _invariants_op(files, random_multigraph(rng, lo, 0.5, 2))
    return {"warmup": warmup, "ops": ops}


def _classify_op(files: _Files, first: dict, second: dict, permuted_copy: bool) -> dict:
    expect = oracle.expected_classify(first, second)
    if permuted_copy and expect["outcome"] not in ("Isomorphic", "NotApplicable"):
        raise RuntimeError(f"oracle calls a permuted copy {expect['outcome']}")
    return {
        "argv": ["classify", files.write(first), files.write(second)],
        "kind": "classify",
        "expect": expect,
    }


def _small_graph(rng: random.Random, pis: bool) -> dict:
    """A random multigraph (sparse enough that some are not PIS), or a PIS
    one built around a Hamiltonian cycle."""
    n = rng.randint(*CLASSIFY_SIZES)
    if pis:
        return pis_multigraph(rng, n, rng.randint(1, n), CLASSIFY_MULTIPLICITY)
    return random_multigraph(rng, n, rng.uniform(0.15, 0.9), CLASSIFY_MULTIPLICITY)


def classify_pairs(rng: random.Random, files: _Files) -> dict:
    # Each block is half random and half PIS graphs, so the share of pairs
    # that get past the PIS test varies little from seed to seed.
    block = CLASSIFY_PAIRS // 4
    ops = []
    # Each graph against a vertex-permuted copy of itself.
    for k in range(block):
        g = _small_graph(rng, k % 2 == 0)
        ops.append(_classify_op(files, g, permuted(rng, g), True))
    # Distinct graphs with equal K0 factors: bucket a pool by factors, then
    # pair a random pool graph with another member of its bucket, so each
    # group turns up as often as the generator makes it.
    buckets: dict[tuple[int, ...], list[dict]] = {}
    for k in range(4 * block):
        g = _small_graph(rng, k % 2 == 0)
        buckets.setdefault(oracle.k0_data(oracle.b_matrix(g)).factors, []).append(g)
    paired = [(g, group) for _, group in sorted(buckets.items()) if len(group) >= 2 for g in group]
    for _ in range(block):
        first, bucket = rng.choice(paired)
        second = rng.choice([g for g in bucket if g is not first])
        ops.append(_classify_op(files, first, second, False))
    # Unrelated pairs.
    for k in range(block):
        pis = k % 2 == 0
        ops.append(_classify_op(files, _small_graph(rng, pis), _small_graph(rng, pis), False))
    # Cayley pairs (C_n, C_m).
    for _ in range(block):
        n, m = rng.randint(1, CAYLEY_MAX), rng.randint(1, CAYLEY_MAX)
        ops.append(_classify_op(files, cayley(n), cayley(m), False))
    rng.shuffle(ops)
    warmup = _classify_op(files, cayley(4), cayley(8), False)
    return {"warmup": warmup, "ops": ops}


def _monoid_op(files: _Files, graph: dict, bound: int) -> dict:
    return {
        "argv": ["monoid", files.write(graph), "--bound", str(bound), "--json"],
        "kind": "monoid",
        "expect": oracle.expected_monoid(graph, bound),
    }


def monoid_box(rng: random.Random, files: _Files) -> dict:
    ops = [_monoid_op(files, cayley(n), bound) for n, bound in MONOID_CAYLEY]
    for n, bound in MONOID_RANDOM:
        ops.append(_monoid_op(files, pis_multigraph(rng, n, rng.randint(1, 2), 2), bound))
    rng.shuffle(ops)
    return {"warmup": _monoid_op(files, cayley(3), 8), "ops": ops}


BUILDERS = {
    "table-cayley": table_cayley,
    "invariants-dense": invariants_dense,
    "classify-pairs": classify_pairs,
    "monoid-box": monoid_box,
}


def build(workload: str, seed: int, root: str) -> dict:
    """Write the inputs of one workload under `root`; return its op list."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, _Files(root))
