"""`circulant_k0` against the graph path: the module
Z[x]/(x^n - 1, x^2 - x + 1) read on the 2 x 2 companion power must give
the group, det and PIS flag that `analyse` and `pis_report` give on
`cayley_graph(n)`, and a unit class that some isomorphism of the groups
carries to theirs.  `_circulant_rows`, the upward walk that `table`
reads, must give row for row what `circulant_k0` gives."""

import pytest

from lpa_invariants.classify import _canonical, cayley_class
from lpa_invariants.graphs import cayley_graph, pis_report
from lpa_invariants.ktheory import (
    _circulant_rows,
    analyse,
    circulant_k0,
    pointed_iso_exists,
)


@pytest.mark.parametrize("n", range(1, 501))
def test_cayley_graphs_agree_with_analyse(n):
    g = cayley_graph(n)
    got = circulant_k0(n)
    want = analyse(g)
    assert got.group.factors == want.k0.group.factors
    assert got.det == want.det
    assert (
        pointed_iso_exists(
            want.k0.group, want.k0.distinguished, got.group, got.distinguished
        )
        == "YES"
    )
    assert got.purely_infinite_simple == pis_report(g).purely_infinite_simple


SPREAD = [1, 2, 3, 4, 5, 6, 7, 11, 12, 97, 500, 501, 1000, 4096, 65535]
SPREAD += [99_991, 123_456, 777_777, 999_999, 10**6]


@pytest.mark.parametrize("n", SPREAD)
def test_closed_form_at_large_n(n):
    k0 = circulant_k0(n)
    cls = cayley_class(n)
    canonical = _canonical(k0.purely_infinite_simple, k0, k0.det)
    assert (k0.group.factors, k0.det, canonical) == (
        cls.k0_factors,
        cls.det,
        cls.canonical,
    )


def fields(k0):
    return (
        k0.group.factors,
        k0.distinguished.coords,
        k0.det,
        k0.purely_infinite_simple,
    )


def test_walk_agrees_with_circulant_k0_row_for_row():
    rows = list(_circulant_rows(2000))
    assert len(rows) == 2000
    for n, row in enumerate(rows, 1):
        assert fields(row) == fields(circulant_k0(n)), n


def test_walk_agrees_with_circulant_k0_at_the_table_cap():
    rows = list(_circulant_rows(10_000))
    assert len(rows) == 10_000
    for n in [*range(1, 13), 97, 500, 4096, 9999, 10_000]:
        assert fields(rows[n - 1]) == fields(circulant_k0(n)), n


@pytest.mark.parametrize(
    "n, message",
    [
        (0, "n must be a positive integer, got 0"),
        (-6, "n must be a positive integer, got -6"),
        (True, "n must be a positive integer, got True"),
        (2.0, "n must be an integer, got 2.0"),
    ],
)
def test_rejects_bad_arguments(n, message):
    with pytest.raises(ValueError) as excinfo:
        circulant_k0(n)
    assert str(excinfo.value) == message
