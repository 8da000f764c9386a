"""Each graph is eliminated once: K0, vertex images and det come from one
`sparse_smith` call, and Bareiss stays off the command paths.  Each
`lpainv monoid` call and each crosscheck saturates its box once."""

import io
import json
import sys

import pytest

import lpa_invariants
from lpa_invariants.classify import kp_decide
from lpa_invariants import monoid
from lpa_invariants.cli import _table_rows, invariant_report, run
from lpa_invariants.graphs import cayley_graph, graph_to_dict, stemmed_rose_graph


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of the elimination and of Bareiss wherever the
    package binds them."""
    counts = {"sparse_smith": 0, "det_exact": 0}
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == "lpa_invariants" or name.startswith("lpa_invariants.")
    ]
    for name in counts:
        original = getattr(lpa_invariants.intlinalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def test_invariant_report_eliminates_once(calls):
    invariant_report(stemmed_rose_graph(4, 3))
    assert calls == {"sparse_smith": 1, "det_exact": 0}


def test_table_rows_eliminate_once_per_row(calls):
    _table_rows(12)
    assert calls == {"sparse_smith": 12, "det_exact": 0}


def test_kp_decide_eliminates_each_graph_once(calls):
    assert kp_decide(cayley_graph(2), cayley_graph(8)).outcome == "Isomorphic"
    assert calls == {"sparse_smith": 2, "det_exact": 0}


@pytest.fixture
def saturations(monkeypatch):
    """Counts box saturations; `saturate` looks `_saturate_box` up in its
    module, so one binding covers every caller."""
    counts = {"boxes": 0}
    original = monoid._saturate_box

    def counted(*args, **kwargs):
        counts["boxes"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(monoid, "_saturate_box", counted)
    return counts


def test_monoid_command_saturates_once(saturations, tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps(graph_to_dict(cayley_graph(3))))
    out = io.StringIO()
    assert run(["monoid", str(path), "--bound", "8", "--json"], stdout=out) == 0
    assert json.loads(out.getvalue())["crosscheck"] == "MATCH"
    assert saturations == {"boxes": 1}


def test_crosscheck_saturates_once(saturations):
    assert monoid.crosscheck_cokernel(cayley_graph(4), 10) == "MATCH"
    assert saturations == {"boxes": 1}
