"""Each graph is eliminated once: K0, vertex images and det come from one
call of the elimination, and Bareiss stays off the command paths.  The
elimination is `intlinalg._eliminate`; `sparse_smith` checks its input
and calls it, and `analyse` calls it directly, so the counters count
`_eliminate`; nor does `analyse` run the checks of `AbelianGroup` or
`GroupElement` on what it builds.  The work of that call on C_n grows
linearly in n, and K0 builds only the rows of u it reads, from the row
log alone.  The elimination scans the active rows for an entry its
pivot does not divide only when the pivot's size is new.  A dense B
enters the elimination's core phase before its first pivot and pushes
no heap key, and no elimination switches phase more than once.  The
module of C_n is read from x^n alone, and x^n = x^(n mod 6):
`circulant_k0` takes at most five ring steps for any n.  A `table`
builds no graph: it reads the rows of the residues 1..6 once per
call, each by `circulant_k0`, that is by the closed form of x^n - 1 =
a + bx (gcd(a, b) and a^2 + ab + b^2, no ring step) and with no
elimination, `analyse` or PIS test; each is checked against
`cayley_class` and written once, and every other row reuses the text of
its residue; nothing is kept between calls.
Nor is a copy of C_n eliminated or searched in `classify`
(`kp_decide`, `canonical_form`, `det_sign`): it is read off the same
module; other graphs get one PIS test and, when both are purely
infinite simple, one elimination each.  Each `lpainv monoid` call and each crosscheck saturates its box
once, and the saturation ranks its translates off the box's lex order,
never by the ranking formula, and builds each level's rewrite edges
once, for that level alone.  Each level's translation closure works on
one vector per class the level below kept, plus the vectors new to the
level."""

import io
import json
import random
import sys

import pytest

from graph_strategies import (
    graph_from_pairs,
    out_degree_graph,
    permute,
    random_multigraph,
)

from lpa_invariants.classify import canonical_form, det_sign, kp_decide
from lpa_invariants import classify, graphs, intlinalg, ktheory, monoid
from lpa_invariants.cli import _table_rows, invariant_report, run
from lpa_invariants.graphs import (
    cayley_graph,
    graph_to_dict,
    rose_graph,
    stemmed_rose_graph,
)
from lpa_invariants.ktheory import analyse


def counting_everywhere(monkeypatch, *functions):
    """Counts calls of each function, by name, wherever the package binds
    it."""
    counts = {fn.__name__: 0 for fn in functions}
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == "lpa_invariants" or name.startswith("lpa_invariants.")
    ]
    for original in functions:
        name = original.__name__

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of the elimination, wherever it is entered from, and
    of Bareiss."""
    return counting_everywhere(monkeypatch, intlinalg._eliminate, intlinalg.det_exact)


def test_invariant_report_eliminates_once(calls):
    invariant_report(stemmed_rose_graph(4, 3))
    assert calls == {"_eliminate": 1, "det_exact": 0}


@pytest.mark.parametrize(
    "g",
    [
        stemmed_rose_graph(4, 3),
        cayley_graph(12),
        random_multigraph(random.Random(3), 20, 0.5),
    ],
    ids=["stemmed-rose", "cayley-12", "dense-20"],
)
def test_analyse_checks_nothing_it_built(monkeypatch, g):
    # B goes to the elimination past `sparse_smith`'s input check, and the
    # group and elements are built past their classes' checks.
    eliminations = (intlinalg.sparse_smith, intlinalg._eliminate)
    calls = counting_everywhere(monkeypatch, *eliminations)
    classes = (ktheory.AbelianGroup, ktheory.GroupElement)
    checks = {cls.__name__: 0 for cls in classes}
    for cls in classes:

        def counted(self, _name=cls.__name__, _original=cls.__post_init__):
            checks[_name] += 1
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    analysis = analyse(g)
    assert calls == {"sparse_smith": 0, "_eliminate": 1}
    k0 = ktheory.circulant_k0(g.n_vertices)
    k0.group.zero()
    assert checks == {"AbelianGroup": 0, "GroupElement": 0}
    assert ktheory.AbelianGroup(analysis.k0.group.factors) == analysis.k0.group
    assert checks == {"AbelianGroup": 1, "GroupElement": 0}


def test_table_rows_eliminate_once_per_companion_power(monkeypatch, calls):
    # x is a sixth root of unity: a table meets at most six matrices
    # C^n - I, reads each once by its closed form, and eliminates none.
    reads = counting(monkeypatch, ktheory, "_circulant_read")
    for k in (1, 5, 6, 12, 500, 10_000):
        reads["_circulant_read"] = 0
        _table_rows(k)
        assert reads == {"_circulant_read": min(k, 6)}, k
        assert calls == {"_eliminate": 0, "det_exact": 0}, k


def test_table_rows_keep_no_eliminations_across_calls(monkeypatch, calls):
    reads = counting(monkeypatch, ktheory, "_circulant_read")
    _table_rows(12)
    _table_rows(12)
    assert reads == {"_circulant_read": 12}
    assert calls == {"_eliminate": 0, "det_exact": 0}


def test_table_rows_take_at_most_fifteen_ring_steps(monkeypatch):
    # x^r for the residues r = 1..6 (x^6 = x^0): 1 + 2 + 3 + 4 + 5 steps.
    steps = counting(monkeypatch, ktheory, "_times")
    for k in (1, 5, 6, 12, 500, 10_000):
        steps["_times"] = 0
        _table_rows(k)
        assert steps["_times"] <= 15, k


def test_table_rows_check_each_residue_once(monkeypatch):
    counts = counting_everywhere(monkeypatch, classify._canonical, classify.cayley_class)
    for fmt in ("md", "json"):
        counts.update(_canonical=0, cayley_class=0)
        assert len(_table_rows(10_000, fmt)) == 10_000
        assert max(counts.values()) <= 6, (fmt, counts)


def test_circulant_k0_takes_at_most_five_ring_steps(monkeypatch):
    # x^n = x^(n mod 6); reading x^n takes none.
    steps = counting(monkeypatch, ktheory, "_times")
    for n in [*range(1, 5001), 10**6, 10**100]:
        steps["_times"] = 0
        ktheory.circulant_k0(n)
        assert steps["_times"] <= 5, n


def test_table_rows_build_no_graph(monkeypatch):
    counts = counting_everywhere(monkeypatch, ktheory.analyse, graphs.pis_report)
    built = counting(monkeypatch, graphs.Graph, "__post_init__")
    rows = _table_rows(500)
    assert len(rows) == 500
    assert counts == {"analyse": 0, "pis_report": 0}
    assert built == {"__post_init__": 0}


def test_kp_decide_eliminates_each_graph_once(calls):
    # Copies of C_n are read off their module, with no elimination; other
    # purely infinite simple graphs are eliminated once each.
    assert kp_decide(cayley_graph(2), cayley_graph(8)).outcome == "Isomorphic"
    assert calls == {"_eliminate": 0, "det_exact": 0}
    assert kp_decide(stemmed_rose_graph(4, 3), rose_graph(4)).outcome == "NotIsomorphic"
    assert calls == {"_eliminate": 2, "det_exact": 0}


@pytest.fixture
def graph_path(monkeypatch):
    """Counts calls of the elimination of a graph and of its PIS test."""
    return counting_everywhere(monkeypatch, ktheory.analyse, graphs.pis_report)


def test_classify_reads_cayley_graphs_off_their_module(graph_path):
    relabelled = permute(cayley_graph(12), [5, 0, 11, 3, 8, 1, 10, 2, 7, 4, 9, 6])
    assert kp_decide(cayley_graph(30), relabelled).outcome == "Isomorphic"
    assert canonical_form(relabelled) is None
    assert det_sign(cayley_graph(7)) == "NEGATIVE"
    assert graph_path == {"analyse": 0, "pis_report": 0}


def test_classify_eliminates_other_pis_graphs_once_each(graph_path):
    verdict = kp_decide(stemmed_rose_graph(4, 3), rose_graph(4))
    assert dict(verdict.trace)["pointed_iso"] == "NO"
    assert graph_path == {"analyse": 2, "pis_report": 2}


def test_classify_eliminates_no_graph_when_one_is_not_pis(graph_path):
    assert kp_decide(rose_graph(1), cayley_graph(5)).outcome == "NotApplicable"
    assert kp_decide(rose_graph(1), rose_graph(1)).outcome == "NotApplicable"
    assert graph_path == {"analyse": 0, "pis_report": 3}


def counting(monkeypatch, module, name):
    """Replaces module.name by a wrapper that counts its calls."""
    counts = {name: 0}
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return counts


def test_elimination_work_is_linear_on_cayley_graphs(monkeypatch):
    # One rounded quotient per row or column operation; the elimination
    # looks `_quotient` up in its module.
    divisions = counting(monkeypatch, intlinalg, "_quotient")
    analyse(cayley_graph(200))
    small = divisions["_quotient"]
    divisions["_quotient"] = 0
    analyse(cayley_graph(400))
    assert 0 < divisions["_quotient"] <= 2.2 * small


@pytest.mark.parametrize("n", [3, 6, 7, 12, 100, 101])
def test_k0_builds_at_most_two_rows_of_u(monkeypatch, n):
    replays = counting(monkeypatch, intlinalg, "_replay")
    k0 = analyse(cayley_graph(n)).k0
    assert replays["_replay"] <= 2
    assert replays["_replay"] >= len(k0.group.factors)


@pytest.mark.parametrize("single_loops", [0, 40])
def test_k0_replays_the_row_log_once_per_kept_row(monkeypatch, single_loops):
    # The roses with 3 and 4 petals side by side: B = diag(-2, -3), whose
    # first pivot does not divide the second, so the elimination fuses
    # them into d = (1, 6).  Vertices with one loop add zero rows and
    # columns, which keep the block sparse to the end.
    pairs = [(0, 0)] * 3 + [(1, 1)] * 4 + [(v, v) for v in range(2, 2 + single_loops)]
    g = graph_from_pairs(2 + single_loops, pairs)
    logs = {}
    smith_from_pivots = intlinalg._smith_from_pivots
    replay = intlinalg._replay

    def recorded(nr, cols, pivots, row_ops, col_ops):
        logs.update(rows=row_ops, cols=col_ops)
        return smith_from_pivots(nr, cols, pivots, row_ops, col_ops)

    replayed = []

    def counted(log, vector):
        replayed.append("rows" if log is logs["rows"] else "cols")
        return replay(log, vector)

    monkeypatch.setattr(intlinalg, "_smith_from_pivots", recorded)
    monkeypatch.setattr(intlinalg, "_replay", counted)
    entries = core_entries(monkeypatch)
    result = analyse(g)
    assert entries == ([] if single_loops else [0])
    assert result.snf_diagonal == (1, 6) + (0,) * single_loops
    assert result.k0.group.factors == (6,) + (0,) * single_loops
    assert replayed == ["rows"] * (1 + single_loops)


@pytest.mark.parametrize("n, loops, edges", [(300, 3, 0), (40, 5, 2)])
def test_divisibility_step_scans_once_per_new_pivot_size(monkeypatch, n, loops, edges):
    # Each vertex has `loops` loops and `edges` edges to each other vertex:
    # B = -2I, sparse, with d = (2, ..., 2), or B = -2I - 2J, dense, with
    # d = (2, ..., 2, 2n + 2).  A pivot of the last one's size divides
    # every active entry already, so only the first pivot and the last
    # of the dense B scan the active rows, one `any` call per row;
    # the elimination finds `any` in its module before the builtins.
    scanned = {"any": 0}

    def counted(iterable):
        scanned["any"] += 1
        return any(iterable)

    monkeypatch.setattr(intlinalg, "any", counted, raising=False)
    pairs = [
        (s, r)
        for s in range(n)
        for r in range(n)
        for _ in range(loops if s == r else edges)
    ]
    factors = analyse(graph_from_pairs(n, pairs)).k0.group.factors
    assert factors == (2,) * (n - 1) + ((2 * n + 2) if edges else 2,)
    assert 0 < scanned["any"] < 2 * n


def core_entries(monkeypatch):
    """The number of pivots taken before each entry into the core phase;
    `_eliminate` looks `_core_phase` up in its module."""
    entries = []
    original = intlinalg._core_phase

    def recorded(a, pivots, *logs):
        entries.append(len(pivots))
        return original(a, pivots, *logs)

    monkeypatch.setattr(intlinalg, "_core_phase", recorded)
    return entries


def test_dense_graph_enters_the_core_before_its_first_pivot(monkeypatch):
    # A dense B never builds column sets or heap keys.
    g = random_multigraph(random.Random(28), 28, 0.6)
    rows = ktheory._b_rows(g)
    assert 2 * sum(map(len, rows)) >= 28 * 28
    entries = core_entries(monkeypatch)
    pushes = counting(monkeypatch, intlinalg.heapq, "heappush")
    sparse = counting(monkeypatch, intlinalg, "_sparse_phase")
    analyse(g)
    assert entries == [0]
    assert pushes == {"heappush": 0}
    assert sparse == {"_sparse_phase": 0}


def test_no_elimination_switches_phase_more_than_once(monkeypatch):
    entries = core_entries(monkeypatch)
    calls = counting(monkeypatch, intlinalg, "_sparse_phase")
    inputs = [cayley_graph(n) for n in range(1, 41)]
    inputs += [
        random_multigraph(random.Random(seed), 12 + seed, 0.2 + seed / 25)
        for seed in range(16)
    ]
    inputs += [out_degree_graph(300, 2), out_degree_graph(300, 3)]
    for g in inputs:
        entries.clear()
        calls["_sparse_phase"] = 0
        analyse(g)
        assert len(entries) <= 1 and calls["_sparse_phase"] <= 1, g.n_vertices
    # The sparse out-degree graphs switch once, after most of their pivots.
    assert 150 < entries[0] < 300


@pytest.fixture
def saturations(monkeypatch):
    """Counts box saturations; `saturate` looks `_saturate_box` up in its
    module, so one binding covers every caller."""
    return counting(monkeypatch, monoid, "_saturate_box")


def test_monoid_command_saturates_once(saturations, tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(graph_to_dict(cayley_graph(3))))
    out = io.StringIO()
    assert run(["monoid", str(path), "--bound", "8", "--json"], stdout=out) == 0
    assert json.loads(out.getvalue())["crosscheck"] == "MATCH"
    assert saturations == {"_saturate_box": 1}


def test_crosscheck_saturates_once(saturations):
    assert monoid.crosscheck_cokernel(cayley_graph(4), 10) == "MATCH"
    assert saturations == {"_saturate_box": 1}


def test_saturation_ranks_no_vector_by_formula(monkeypatch):
    # `rank_of` is the package's only use of the ranking formula.
    ranks = counting(monkeypatch, monoid.CongruenceClasses, "rank_of")
    classes = monoid.saturate(monoid.presentation(cayley_graph(5)), 10)
    assert classes.stabilized
    assert ranks == {"rank_of": 0}
    classes.class_of((1, 0, 0, 0, 0))
    assert ranks == {"rank_of": 1}


@pytest.mark.parametrize(
    "g, bound, windows",
    [
        (cayley_graph(5), 10, [(-1, 8), (8, 9), (9, 10)]),
        (rose_graph(1), 1, [(-1, 0), (0, 1)]),
    ],
)
def test_saturation_builds_each_levels_edges_once(monkeypatch, g, bound, windows):
    # One call per level, each for the edges of that level alone: their
    # larger endpoint sums lie in disjoint windows (lo, hi].
    built = []
    original = monoid._elementary_edges

    def recorded(*args):
        built.append(args[-2:])
        return original(*args)

    monkeypatch.setattr(monoid, "_elementary_edges", recorded)
    monoid.saturate(monoid.presentation(g), bound)
    assert built == windows


def test_each_level_closes_over_the_members_the_level_below_kept(monkeypatch):
    # On C_11 at bound 8 the top level's closure gets one vector per class
    # the level below closed, plus the 19,448 vectors of sum 7, not the
    # whole sub-box of sum <= 7 (31,824 vectors).
    received, classes = [], []
    original = monoid._close_under_translation

    def recorded(labels, pos, images):
        received.append(len(pos))
        result = original(labels, pos, images)
        classes.append(len(set(result[0][pos].tolist())))
        return result

    monkeypatch.setattr(monoid, "_close_under_translation", recorded)
    assert monoid.saturate(monoid.presentation(cayley_graph(11)), 8).stabilized
    assert len(received) == 3
    assert received[2] <= classes[1] + 19_448
