"""Each graph is eliminated once: K0, vertex images and det come from one
`sparse_smith` call, and Bareiss stays off the command paths.  The work
of that call on C_n grows linearly in n, and K0 builds only the rows of
u it reads.  The module of C_n is read from x^n alone: `circulant_k0`
carries nothing else through its square and multiply.  A `table` builds
no graph: its rows come from one upward walk in that module, one ring
step per row, and each distinct x^n (six at most) is read once per call,
with one `sparse_smith` of C^n - I and no `analyse` or PIS test, into
one row object that every later row with that x^n reuses; nothing is
kept between calls.
Nor is a copy of C_n eliminated or searched in `classify`
(`kp_decide`, `canonical_form`, `det_sign`): it is read off the same
module; other graphs get one PIS test and, when both are purely
infinite simple, one elimination each.  Each `lpainv monoid` call and each crosscheck saturates its box
once, and the saturation ranks its translates off the box's lex order,
never by the ranking formula, and builds each level's rewrite edges
once, for that level alone."""

import io
import json
import sys

import pytest

from graph_strategies import permute

from lpa_invariants.classify import canonical_form, det_sign, kp_decide
from lpa_invariants import graphs, intlinalg, ktheory, monoid
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
    """Counts calls of the elimination and of Bareiss."""
    return counting_everywhere(monkeypatch, intlinalg.sparse_smith, intlinalg.det_exact)


def test_invariant_report_eliminates_once(calls):
    invariant_report(stemmed_rose_graph(4, 3))
    assert calls == {"sparse_smith": 1, "det_exact": 0}


def test_table_rows_eliminate_once_per_companion_power(calls):
    # x is a sixth root of unity: a table meets at most six matrices
    # C^n - I, and eliminates each once.
    for k in (1, 5, 6, 12, 500, 10_000):
        calls["sparse_smith"] = 0
        _table_rows(k)
        assert calls == {"sparse_smith": min(k, 6), "det_exact": 0}, k


def test_table_rows_keep_no_eliminations_across_calls(calls):
    _table_rows(12)
    _table_rows(12)
    assert calls == {"sparse_smith": 12, "det_exact": 0}


def test_table_rows_take_one_ring_step_per_row(monkeypatch):
    steps = counting(monkeypatch, ktheory, "_times")
    _table_rows(10_000)
    assert steps["_times"] <= 2 * 10_000 + 50


def test_circulant_k0_takes_two_ring_steps_per_bit(monkeypatch):
    # One square, and one multiplication by x per 1 bit; then x times
    # x^n - 1 for C^n - I and x (1 - x^n) for the unit class.
    steps = counting(monkeypatch, ktheory, "_times")
    for n in [*range(1, 5000), 10**6]:
        steps["_times"] = 0
        ktheory.circulant_k0(n)
        assert steps["_times"] <= 2 * n.bit_length() + 2, n


@pytest.mark.parametrize("k", [1, 5, 6, 12, 500, 10_000])
def test_walk_reuses_one_row_per_companion_power(k):
    rows = list(ktheory._circulant_rows(k))
    assert len(rows) == k
    assert len({id(row) for row in rows}) <= min(k, 6)


def test_table_rows_build_no_graph(monkeypatch):
    counts = counting_everywhere(monkeypatch, ktheory.analyse, graphs.pis_report)
    built = counting(monkeypatch, graphs.Graph, "__post_init__")
    rows = _table_rows(500)
    assert len(rows) == 500
    assert counts == {"analyse": 0, "pis_report": 0}
    assert built == {"__post_init__": 0}


def test_kp_decide_eliminates_each_graph_once(calls):
    assert kp_decide(cayley_graph(2), cayley_graph(8)).outcome == "Isomorphic"
    assert calls == {"sparse_smith": 2, "det_exact": 0}


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
    # One rounded quotient per row or column operation; sparse_smith
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
