"""`circulant_k0` against the graph path: the module
Z[x]/(x^n - 1, x^2 - x + 1) read on the 2 x 2 companion power must give
the group and det that `analyse` gives on `cayley_graph(n)`, and
`pis_report` must find every C_n purely infinite simple.  It carries no
unit class, as that is zero: some isomorphism of the groups must carry
zero to `analyse`'s unit class, and sum_{i<n} x^i is x (1 - x^n), which
must equal the sum itself, summed term by term or by a
square-and-multiply recursion that carries it, and which lies in
(x^n - 1) = Im(C^n - I); `analyse`'s own elimination must find it zero
too.  `circulant_k0` reads x^(n mod 6), as x^3 = -1 and x^6 = 1: it must
give what the reading of x^n gives, with x^n taken by an upward walk of
one multiplication by x per n (every n up to the `table` cap) or by a
square-and-multiply recursion (spot checks up to 10^100).

The group and det come from the determinantal divisors of the 2 x 2
matrix C^n - I, with columns (a, b) and (-b, a + b) for x^n - 1 =
a + bx: the gcd of its entries and |det| = a^2 + ab + b^2.  That closed
form must match an elimination of the matrix by `sparse_smith` and by
sympy on every small (a, b), and `sparse_smith` must show the
determinantal-divisor fact on every small 2 x 2 matrix."""

import itertools
import math

import pytest
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_form

from lpa_invariants.classify import _canonical, cayley_class
from lpa_invariants.graphs import cayley_graph, pis_report
from lpa_invariants.intlinalg import sparse_smith
from lpa_invariants.ktheory import (
    _circulant_read,
    _times,
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
            want.k0.group, want.k0.distinguished, got.group, got.group.zero()
        )
        == "YES"
    )
    assert pis_report(g).purely_infinite_simple
    assert want.k0.distinguished.is_zero


def test_unit_class_is_zero():
    # sum_{i<n} x^i, summed term by term, is -x (x^n - 1): it lies in
    # Im(C^n - I), so it is zero in K0, and `circulant_k0` carries only
    # the group and det.
    power, total = (1, 0), (0, 0)  # x^n and sum_{i<n} x^i, at n = 0
    for n in range(1, 3001):
        total = (total[0] + power[0], total[1] + power[1])
        power = _times(power, (0, 1))
        assert total == _times((0, -1), (power[0] - 1, power[1])), n
        assert circulant_k0(n)._fields == ("group", "det"), n


SPREAD = [1, 2, 3, 4, 5, 6, 7, 11, 12, 97, 500, 501, 1000, 4096, 65535]
SPREAD += [99_991, 123_456, 777_777, 999_999, 10**6]


@pytest.mark.parametrize("n", SPREAD)
def test_closed_form_at_large_n(n):
    k0 = circulant_k0(n)
    cls = cayley_class(n)
    canonical = _canonical(k0.group, k0.group.zero(), k0.det)
    assert (k0.group.factors, k0.det, canonical) == (
        cls.k0_factors,
        cls.det,
        cls.canonical,
    )


def unit_from_power(power):
    """x (1 - x^n) from x^n: the unit class, a multiple of x^n - 1."""
    return _times((0, 1), (1 - power[0], -power[1]))


def test_unit_class_is_the_sum_on_every_row_of_a_walk():
    power, total = (1, 0), (0, 0)  # x^n and sum_{i<n} x^i, at n = 0
    for n in range(1, 10_001):
        total = (total[0] + power[0], total[1] + power[1])
        power = _times(power, (0, 1))
        assert unit_from_power(power) == total, n


def power_and_sum(n):
    """x^n and sum_{i<n} x^i by square and multiply: k -> 2k takes the
    sum to sum * (1 + x^k), and k -> k + 1 adds x^k to it."""
    power, total = (1, 0), (0, 0)
    for bit in bin(n)[2:]:
        total = _times(total, (1 + power[0], power[1]))
        power = _times(power, power)
        if bit == "1":
            total = (total[0] + power[0], total[1] + power[1])
            power = _times(power, (0, 1))
    return power, total


@pytest.mark.parametrize("n", SPREAD)
def test_unit_class_is_the_sum_at_large_n(n):
    power, total = power_and_sum(n)
    assert unit_from_power(power) == total


def eliminated(power):
    """The K0 factors and det(I - A^t) of x^n = power by one `sparse_smith`
    of C^n - I, whose columns are x^n - 1 and x times it."""
    column = (power[0] - 1, power[1])
    columns = (column, _times(column, (0, 1)))
    result = sparse_smith(
        [{j: col[i] for j, col in enumerate(columns) if col[i]} for i in range(2)], 2
    )
    return tuple(d for d in result.d if d != 1), -result.det


def sympy_smith(a, b):
    """The same, for x^n - 1 = a + bx, by sympy's Smith normal form."""
    m = DomainMatrix([[ZZ(a), ZZ(-b)], [ZZ(b), ZZ(a + b)]], (2, 2), ZZ)
    d = smith_normal_form(m).to_Matrix()
    return tuple(int(d[i, i]) for i in range(2) if d[i, i] != 1), -int(m.det())


def test_closed_form_matches_elimination():
    for a in range(-40, 41):
        for b in range(-40, 41):
            k0 = _circulant_read((a + 1, b))
            got = (k0.group.factors, k0.det)
            assert got == eliminated((a + 1, b)) == sympy_smith(a, b), (a, b)


def test_first_invariant_factor_is_the_gcd_of_the_entries():
    # The first determinantal divisor of a 2 x 2 matrix is the gcd of its
    # entries and the second is |det|, so d = (gcd, |det| / gcd), or
    # (0, 0) for the zero matrix.
    values = range(-5, 6)
    for p, q, r, s in itertools.product(values, repeat=4):
        result = sparse_smith([{0: p, 1: q}, {0: r, 1: s}], 2)
        g, det = math.gcd(p, q, r, s), p * s - q * r
        assert result.d == ((g, abs(det) // g) if g else (0, 0)), (p, q, r, s)
        assert result.det == det, (p, q, r, s)


def fields(k0):
    return (k0.group.factors, k0.det)


X = (0, 1)


def test_x_has_period_six():
    x3 = _times(_times(X, X), X)
    assert x3 == (-1, 0)
    assert _times(x3, x3) == (1, 0)


def walk(limit):
    """Read x^1, ..., x^limit, one multiplication by x per n."""
    power = (1, 0)  # x^0
    for _ in range(limit):
        power = _times(power, X)
        yield _circulant_read(power)


def test_walk_agrees_with_circulant_k0_row_for_row():
    rows = list(walk(2000))
    assert len(rows) == 2000
    for n, row in enumerate(rows, 1):
        assert fields(row) == fields(circulant_k0(n)), n


def test_walk_agrees_with_circulant_k0_at_the_table_cap():
    rows = list(walk(10_000))
    assert len(rows) == 10_000
    for n, row in enumerate(rows, 1):
        assert fields(row) == fields(circulant_k0(n)), n


@pytest.mark.parametrize("n", [*SPREAD, 10**100])
def test_square_and_multiply_agrees_with_circulant_k0(n):
    power, _ = power_and_sum(n)
    assert fields(_circulant_read(power)) == fields(circulant_k0(n))


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
