"""Exact integer linear algebra on arbitrary-precision matrices.

One elimination (`sparse_smith`) gives the Smith normal form with its
unimodular row/column transforms and, from the same pivots, the
determinant.  `sparse_smith` checks its input and hands it to
`_eliminate`, the elimination itself, which `ktheory.analyse` calls
directly on the B it builds from a checked graph.  The elimination
runs in two phases over one operation log.  The sparse phase keeps rows
as {column: value} dicts, and its pivot search is a heap
holding each active row's best candidate, keyed (|entry|, Markowitz cost,
row); after a pivot only the rows whose key may have moved are keyed
again, so no step rescans the active block.  Once the active block is at
least half full, the core phase takes it over as one Python list per row
and pivots on its least nonzero |entry|, the first row and then the first
column winning a tie; every row changes at every pivot there, so keying
rows would buy nothing.  Both phases finish a pivot only once it divides
every active entry, so the pivots' sizes, in the order taken, are the
Smith diagonal.  u and v are exactly the logs of row and column
operations: a row of u or a column of v is built by replaying its log
backwards only when something reads it.  On the sparse B of a Cayley
graph both make the pass near-linear in the size of the graph.
`det_exact` is an independent determinant to check it against: a sparse
fraction-free (Bareiss) elimination on rows kept as {column: value}
dicts, which updates at each step only the rows that meet the pivot
column and rescales every other row lazily, once, when it is next
touched.  Circulant determinants can be cross-checked against the
roots-of-unity product formula.  The module is pure Python.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import operator
from collections.abc import Mapping, Sequence
from typing import NamedTuple

from ._record import record

__all__ = [
    "IntMatrix",
    "SmithDecomposition",
    "SparseSmith",
    "CirculantRow",
    "CirculantProduct",
    "det_exact",
    "smith_normal_form",
    "sparse_smith",
    "circulant_det_product",
    "diagonal_matrix",
]


def _as_index(x, what: str) -> int:
    """`x` as an int; floats, strings and other non-integers are rejected."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def _as_positive(x, what: str, least: int = 1) -> int:
    """`x` as an int of at least `least`, coerced as by `_as_index`; not a bool."""
    if isinstance(x, bool) or (x := _as_index(x, what)) < least:
        bound = "a positive integer" if least == 1 else f"at least {least}"
        raise ValueError(f"{what} must be {bound}, got {x!r}")
    return x


def _as_size(x, what: str) -> int:
    """`x` as a nonnegative int, coerced as by `_as_index`."""
    n = _as_index(x, what)
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {n}")
    return n


def _as_ints(values, what: str) -> tuple[int, ...]:
    """`values` as a tuple of ints; non-integers are rejected."""
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise ValueError(f"{what} must be integers: {exc}") from None


def _coerce_rows(entries) -> tuple[tuple[int, ...], ...]:
    try:
        rows = tuple(tuple(map(operator.index, row)) for row in entries)
    except TypeError as exc:
        raise ValueError(f"matrix entries must be rows of integers: {exc}") from None
    if rows:
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("matrix rows must all have the same length")
    return rows


@record
class IntMatrix:
    """Dense matrix of Python ints; arithmetic never overflows."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _coerce_rows(self.entries))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        n = _as_size(n, "size n")
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def transpose(self) -> IntMatrix:
        return IntMatrix(tuple(zip(*self.entries))) if self.entries else self

    def __sub__(self, other: IntMatrix) -> IntMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        return IntMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = tuple(zip(*other.entries)) if other.entries else ()
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"IntMatrix({self.rows}x{self.cols}: [{body}])"


def diagonal_matrix(d, rows: int, cols: int) -> IntMatrix:
    """Matrix of the given shape with `d` down the main diagonal."""
    d = _as_ints(d, "diagonal entries")
    rows = _as_size(rows, "row count rows")
    cols = _as_size(cols, "column count cols")
    if len(d) != min(rows, cols):
        raise ValueError("diagonal length must be min(rows, cols)")
    return IntMatrix(
        tuple(
            tuple(d[i] if i == j and i < len(d) else 0 for j in range(cols))
            for i in range(rows)
        )
    )


def det_exact(m: IntMatrix) -> int:
    """Exact determinant by sparse fraction-free (Bareiss) elimination.

    Step k of Bareiss' elimination (Bareiss, 1968) takes a pivot row with
    p_{k+1} = its entry in column k, swaps it into position k (each swap
    flips the sign), and replaces every later row a by
    (p_{k+1} * a - a_k * pivot row) / p_k, with p_0 = 1.  By Sylvester's
    identity every entry it produces is a minor of the input, so each
    division is exact, and det = sign * p_n, the last pivot.

    Rows are {column: value} dicts without zeros, and only the rows with
    a nonzero in column k are updated at step k.  A row whose entry there
    is 0 would only be scaled by p_{k+1} / p_k, and these factors
    telescope: a row last made exact after step s - 1 is, at step k, its
    stored values times p_k / p_s.  Each row keeps that s as its stamp
    and is brought up to date by one exact `* p_k // p_s` when it is next
    touched, as a pivot or in an update.  No row is ever divided by
    anything but a true Bareiss denominator, so the result is
    fraction-free and shares nothing with the Smith pivoting of
    `sparse_smith`, which makes it an independent check of that det.
    """
    if not m.is_square:
        raise ValueError(f"determinant requires a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    rows = [{j: x for j, x in enumerate(row) if x} for row in m.entries]
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    at = list(range(n))  # at[k]: the row in position k
    pos = list(range(n))  # pos[i]: the position of row i
    stamp = [0] * n  # row i is exact after step stamp[i] - 1
    p = [1]  # p[k]: the denominator of step k, the pivot of step k - 1
    sign = 1

    def current(i: int, k: int) -> dict[int, int]:
        s = stamp[i]
        if s != k:
            f, d = p[k], p[s]
            rows[i] = {j: x * f // d for j, x in rows[i].items()}
            stamp[i] = k
        return rows[i]

    for k in range(n):
        if not col_rows[k]:
            return 0
        r = min(col_rows[k], key=pos.__getitem__)
        if pos[r] != k:
            other = at[k]
            at[k], at[pos[r]] = r, other
            pos[other], pos[r] = pos[r], k
            sign = -sign
        pivot = current(r, k)
        for j in pivot:
            col_rows[j].discard(r)
        piv, prev = pivot[k], p[k]
        for i in col_rows[k]:
            row = current(i, k)
            c = row[k]
            new = {j: x * piv for j, x in row.items()}
            for j, y in pivot.items():
                new[j] = new.get(j, 0) - c * y
            del new[k]
            rows[i] = {j: x // prev for j, x in new.items() if x}
            for j in new:
                if j in rows[i]:
                    col_rows[j].add(i)
                else:
                    col_rows[j].discard(i)
            stamp[i] = k + 1
        p.append(piv)
    return sign * p[n]


@record
class SmithDecomposition:
    """u @ t @ v == diag(d) with u, v unimodular and d divisibility-ordered."""

    d: tuple[int, ...]
    u: IntMatrix
    v: IntMatrix


class SparseSmith(NamedTuple):
    """u @ B @ v == diag(d) from one sparse elimination, plus det B.

    u is given by its rows and v by its columns, each a {index: value}
    dict holding the nonzero entries only.  Both are sequences that build
    a vector from the elimination's operation log the first time it is
    read.  det is None when B is not square.
    """

    d: tuple[int, ...]
    u_rows: Sequence[dict[int, int]]
    v_cols: Sequence[dict[int, int]]
    det: int | None


def _quotient(x: int, p: int) -> int:
    """Nearest-integer quotient: |x - q*p| <= |p|/2."""
    q, r = divmod(x, p)
    return q + 1 if 2 * abs(r) > abs(p) else q


def _replay(log: list[tuple[int, int, int]], vector: dict[int, int]) -> dict[int, int]:
    """Apply the logged operations to `vector`, last operation first.

    An entry (i, k, q) of the row log is "row i -= q * row k", that is
    u <- (I - q e_i e_k^T) u, so u is the product of these factors, last
    one leftmost, and row s of u is e_s^T times that product.  Taking
    the factors from the left, each one does x[k] -= q * x[i].  An entry
    (j, c, q) of the column log is "column j -= q * column c", that is
    v <- v (I - q e_c e_j^T), and column s of v is that product times
    e_s; taking the factors from the right, each one does
    x[c] -= q * x[j].  So one replay serves both, at O(1) an operation.
    """
    for i, k, q in reversed(log):
        x = vector.get(i)
        if x:
            y = vector.get(k, 0) - q * x
            if y:
                vector[k] = y
            else:
                del vector[k]
    return vector


class _Replayed(Sequence):
    """Rows of u (or columns of v), each replayed from the log when read.

    An item is either a built {index: value} dict or an (index, sign)
    pair, standing for sign times unit vector `index` carried through the
    log.  A built item is kept, so each vector is replayed at most once.
    """

    def __init__(self, log: list[tuple[int, int, int]], items: list) -> None:
        self._log = log
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, k: int) -> dict[int, int]:
        item = self._items[k]
        if not isinstance(item, dict):
            index, sign = item
            item = self._items[k] = _replay(self._log, {index: sign})
        return item

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _Replayed)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __add__(self, other) -> tuple[dict[int, int], ...]:
        return tuple(self) + tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


def _permutation_sign(perm: list[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        j = start
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _dense(nnz: int, rows: int, cols: int) -> bool:
    """Whether a nonempty active block of rows x cols holding nnz nonzero
    entries is at least half full, the switch to the core phase.

    The share is measured: on dense random graphs a switch at a third was
    about 3% faster, and on large sparse graphs one at four fifths was up
    to a quarter faster; a half is near the best of both (CHANGES.md has
    the figures).
    """
    return 0 < rows * cols <= 2 * nnz


def _sparse_phase(
    a: list[dict[int, int]],
    cols: int,
    nnz: int,
    pivots: list[tuple[int, int, int]],
    row_ops: list[tuple[int, int, int]],
    col_ops: list[tuple[int, int, int]],
) -> bool:
    """Eliminate the rows `a`, {column: value} dicts holding `nnz` nonzero
    entries, in place, by the Markowitz rule of `sparse_smith`.  Returns
    False when no entry is left to pivot on, True when the active block
    turns dense first; `pivots` and the logs hold the steps so far.

    The pivot search does not rescan the active block.  Each active row
    keeps its best candidate, keyed (|entry|, cost, row), in a heap with
    lazy deletion: an entry counts only while it equals the row's current
    key.  A row's key depends on its entries and on the nonzero counts of
    its columns, so after each pivot only the rows that a row operation
    changed, and the rows of each column whose count changed, are keyed
    again.  The heap's minimum is the pivot the full scan would pick.
    `nnz` follows every entry that appears or vanishes; after k pivots the
    active block holds nnz - k of them, as each pivot keeps only itself
    in its row and column.
    """
    nr = len(a)
    col_rows: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(a):
        for j in row:
            col_rows[j].add(i)
    # Rows changed and columns whose nonzero count changed since the last
    # pivot; their keys are recomputed before the next pivot search.
    changed_rows: set[int] = set()
    changed_cols: set[int] = set()

    def row_sub(i: int, r: int, q: int) -> None:
        # row i -= q * row r, keeping the column index in step
        nonlocal nnz
        if not q:
            return
        target = a[i]
        size = len(target)
        for j, x in a[r].items():
            y = target.get(j, 0) - q * x
            if y:
                if j not in target:
                    col_rows[j].add(i)
                    changed_cols.add(j)
                target[j] = y
            else:
                del target[j]
                col_rows[j].discard(i)
                changed_cols.add(j)
        nnz += len(target) - size
        changed_rows.add(i)
        row_ops.append((i, r, q))

    def smallest(entries) -> tuple[int, int] | None:
        best = None
        for key, x in entries:
            if best is None or abs(x) < best[0]:
                best = (abs(x), key)
        return None if best is None else best[1]

    key_of: dict[int, tuple[int, int, int, int]] = {}
    heap: list[tuple[int, int, int, int]] = []

    def rekey(i: int) -> None:
        row = a[i]
        if not row:
            key_of.pop(i, None)
            return
        # The least |x|, then among its ties the least column count, the
        # first entry winning a full tie; the row's width scales every
        # count alike, so the key is built once, from the winner.
        least = None
        for j, x in row.items():
            x = abs(x)
            if least is None or x < least:
                least, count, c = x, len(col_rows[j]), j
            elif x == least:
                m = len(col_rows[j])
                if m < count:
                    count, c = m, j
        key = (least, len(row) * count, i, c)
        if key_of.get(i) != key:
            key_of[i] = key
            heapq.heappush(heap, key)

    for i in range(nr):
        rekey(i)

    while True:
        k = len(pivots)
        if _dense(nnz - k, nr - k, cols - k):
            return True
        while heap and key_of.get(heap[0][2]) != heap[0]:
            heapq.heappop(heap)
        if not heap:
            return False
        _, _, r, c = heap[0]
        while True:
            p = a[r][c]
            for i in [i for i in col_rows[c] if i != r]:
                row_sub(i, r, _quotient(a[i][c], p))
            rest = smallest((i, a[i][c]) for i in col_rows[c] if i != r)
            if rest is not None:
                r = rest
                continue
            # Column c now meets row r only, so a column operation
            # changes row r of a and the log of v.
            row = a[r]
            for j in [j for j in row if j != c]:
                q = _quotient(row[j], p)
                y = row[j] - q * p
                if y:
                    row[j] = y
                else:
                    del row[j]
                    nnz -= 1
                    col_rows[j].discard(r)
                    changed_cols.add(j)
                if q:
                    col_ops.append((j, c, q))
            rest = smallest((j, x) for j, x in row.items() if j != c)
            if rest is not None:
                c = rest
                continue
            # The divisibility step of `sparse_smith`.  The keyed rows are
            # the active ones, in index order; row r holds p alone.
            if abs(p) == abs(pivots[-1][2] if pivots else 1):
                break
            i = next((i for i in key_of if any(x % p for x in a[i].values())), None)
            if i is None:
                break
            row_sub(r, i, -1)
        pivots.append((r, c, p))
        col_rows[c].clear()
        key_of.pop(r, None)
        for j in changed_cols:
            changed_rows.update(col_rows[j])
        changed_rows.discard(r)
        for i in changed_rows:
            rekey(i)
        changed_rows.clear()
        changed_cols.clear()


def _core_phase(
    a: list[dict[int, int]],
    pivots: list[tuple[int, int, int]],
    row_ops: list[tuple[int, int, int]],
    col_ops: list[tuple[int, int, int]],
) -> None:
    """Eliminate the active block of `a`, the rows without a pivot in
    `pivots`, as dense lists, appending to `pivots` and the logs.

    The block keeps its rows and columns in index order.  It starts
    without the rows and columns that are all zero, and a row that turns
    all zero leaves it: no operation reaches them again.  The
    pivot is the least nonzero |entry|, the first row winning a tie, then
    the first column; a remainder left in the pivot's column or row
    becomes the next pivot by the same rule.  After each pivot its row and
    column leave the block.  `a` is emptied once the block is copied, as
    nothing reads it after, so its dicts are not held beside the lists.
    """
    # Block row k is row row_at[k] of a, and block column j column col_at[j].
    done = {r for r, _, _ in pivots}
    row_at = [i for i, row in enumerate(a) if row and i not in done]
    col_at = sorted({j for i in row_at for j in a[i]})
    block = [[row.get(j, 0) for j in col_at] for row in map(a.__getitem__, row_at)]
    a.clear()
    while True:
        # The first row with the least nonzero |entry|; a row of zeros
        # leaves the block.
        least = 0
        k = 0
        while k < len(block):
            m = min(filter(None, map(abs, block[k])), default=0)
            if not m:
                del block[k], row_at[k]
                continue
            if not least or m < least:
                least, r = m, k
                if m == 1:
                    break
            k += 1
        if not least:
            return
        c = list(map(abs, block[r])).index(least)
        while True:
            pivot = block[r]
            p = pivot[c]
            # (|remainder|, its row or column), the first of the least
            rest = None
            for k, row in enumerate(block):
                x = row[c]
                if x and k != r:
                    q = _quotient(x, p)
                    if q:
                        row = block[k] = [y - q * z for y, z in zip(row, pivot)]
                        row_ops.append((row_at[k], row_at[r], q))
                    if (x := abs(row[c])) and (rest is None or x < rest[0]):
                        rest = (x, k)
            if rest is not None:
                r = rest[1]
                continue
            # Column c now meets row r only, so a column operation
            # changes row r of the block and the log of v.
            for j, x in enumerate(pivot):
                if x and j != c:
                    q = _quotient(x, p)
                    if q:
                        pivot[j] = x = x - q * p
                        col_ops.append((col_at[j], col_at[c], q))
                    if x and (rest is None or abs(x) < rest[0]):
                        rest = (abs(x), j)
            if rest is not None:
                c = rest[1]
                continue
            # The divisibility step of `sparse_smith`; row r holds p alone.
            if abs(p) == abs(pivots[-1][2] if pivots else 1):
                break
            undivided = (k for k, row in enumerate(block) if any(x % p for x in row))
            k = next(undivided, None)
            if k is None:
                break
            block[r] = [y + z for y, z in zip(pivot, block[k])]
            row_ops.append((row_at[r], row_at[k], -1))
        pivots.append((row_at[r], col_at[c], p))
        del block[r], row_at[r]
        for row in block:
            del row[c]
        del col_at[c]


def sparse_smith(rows: Sequence[Mapping[int, int]], cols: int) -> SparseSmith:
    """Smith normal form and determinant of a sparse integer matrix.

    `rows[i]` maps column index to entry of row i.  One elimination, in
    two phases, clears the pivot's column by row operations and its row
    by column operations.  When a division leaves a remainder, the
    smallest remaining entry of that column or row becomes the pivot and
    the clearing goes on, so the pivot shrinks until it divides its whole
    row and column.  Both phases pivot on the least |entry| of the active
    block (the pivoting against coefficient growth of Havas, Majewski and
    Matthews, 1998); they break ties differently.

    The divisibility step (Cohen, A Course in Computational Algebraic
    Number Theory, section 2.4): once the pivot p alone is left in its row
    and column, the active rows are scanned for an entry that p does not
    divide.  The first row holding one is added to
    the pivot's row, as one logged row operation, and the clearing of
    that row goes on.  So p is finished only once it divides every entry
    of the active block, and row and column operations keep every active
    entry a multiple of every finished pivot: each pivot divides the next,
    and d is the pivots' absolute values in the order they are taken,
    zeros trailing.  So a pivot of the same size as the last one (or +-1,
    before any other) divides every active entry already, and the scan is
    skipped for it.  On the B of a sparse graph nearly every pivot is +-1,
    and where d repeats a factor n times, as diag(2, ..., 2) does, one
    scan serves all n pivots, not one per pivot.

    - The sparse phase (`_sparse_phase`) keeps rows as dicts and breaks a
      tie by the Markowitz cost (row nnz x column nnz), then by the lowest
      row, then by the first entry in that row's order.  A heap of one
      key per row finds the pivot without a rescan.
    - The core phase (`_core_phase`) keeps the active block as one list
      per row and breaks a tie by the first row, then the first column.
      On a block where every row changes at every pivot, keying rows buys
      nothing, and a list comprehension updates a row faster than a dict.

    The elimination switches once, from the sparse phase to the core,
    when the active block (the rows and columns without a pivot) is at
    least half full.  A count of the nonzero entries, changed wherever one
    appears or vanishes, tells; it is checked before every pivot, the
    first one included, so a dense input goes straight to the core.

    u and v are not built during the pass.  Each row operation
    (row i -= q * row k) and column operation is logged as (i, k, q), and
    u and v are exactly the two logs: row k of u is the pivot row of the
    k-th pivot, or a row without a pivot, carried through the row log,
    times the sign of that pivot, and column k of v likewise through the
    column log.  Each is built on first read by replaying its log
    backwards (`_replay`), in time linear in the log.  Callers that read
    a few rows, like the K0 of a graph, pay for those rows only and never
    replay the column log.

    Every operation in the pass adds a multiple of one row or column to
    another, which has determinant 1; the pass leaves one pivot p_k in
    row r_k and column c_k.  So det B is the sign of the permutation
    r_k -> c_k times the product of the pivots, or 0 when some row has no
    pivot.

    d is the Smith form of B and det its determinant, so neither depends
    on which pivots the pass takes.  u and v do: where the phases switch,
    how each breaks ties and which row the divisibility step adds decide
    them, so a change of any of these rules may change the vertex images
    read off u, though they present the same pointed cokernel.

    This is the checked entry: it rejects a column count that is not a
    nonnegative integer, a column index that is not an integer or not in
    range, and an entry that is not an integer, and it copies the rows
    without their zeros.  The elimination itself is `_eliminate`, which
    `analyse` calls directly on the B it has just built.
    """
    cols = _as_size(cols, "column count cols")
    a: list[dict[int, int]] = []
    for row in rows:
        entries = {}
        for j, x in row.items():
            if type(j) is not int:
                try:
                    j = operator.index(j)
                except TypeError:
                    raise ValueError(f"column index {j!r} is not an integer") from None
            if not 0 <= j < cols:
                raise ValueError(f"column index {j} out of range for {cols} columns")
            if type(x) is not int:
                try:
                    x = operator.index(x)
                except TypeError:
                    raise ValueError(f"entry {x!r} is not an integer") from None
            if x:
                entries[j] = x
        a.append(entries)
    return _eliminate(a, cols)


def _eliminate(a: list[dict[int, int]], cols: int) -> SparseSmith:
    """`sparse_smith` of the rows `a`, which it does not check: each row
    a {column: value} dict of nonzero ints, every column in range(cols).
    The pass works on `a` in place and leaves it in no useful state."""
    nr = len(a)
    nnz = sum(map(len, a))
    row_ops: list[tuple[int, int, int]] = []
    col_ops: list[tuple[int, int, int]] = []
    pivots: list[tuple[int, int, int]] = []
    if _dense(nnz, nr, cols) or _sparse_phase(a, cols, nnz, pivots, row_ops, col_ops):
        _core_phase(a, pivots, row_ops, col_ops)
    return _smith_from_pivots(nr, cols, pivots, row_ops, col_ops)


def _smith_from_pivots(
    nr: int,
    cols: int,
    pivots: list[tuple[int, int, int]],
    row_ops: list[tuple[int, int, int]],
    col_ops: list[tuple[int, int, int]],
) -> SparseSmith:
    """d, u, v and det of an nr x cols matrix from a finished elimination:
    its (row, column, pivot) triples, a divisibility chain in the order
    taken, and its two logs, as `sparse_smith` describes.  det is the
    product of the pivots times the sign of the permutation they take
    rows to columns by; u and v wrap the logs, unchanged."""
    det = None
    if nr == cols:
        det = 0
        if len(pivots) == nr:
            perm = [0] * nr
            det = 1
            for r, c, p in pivots:
                perm[r] = c
                det *= p
            det *= _permutation_sign(perm)

    pivot_rows = {r for r, _, _ in pivots}
    pivot_cols = {c for _, c, _ in pivots}
    u_out = _Replayed(
        row_ops,
        [(r, 1 if p > 0 else -1) for r, _, p in pivots]
        + [(i, 1) for i in range(nr) if i not in pivot_rows],
    )
    v_out = _Replayed(
        col_ops,
        [(c, 1) for _, c, _ in pivots]
        + [(j, 1) for j in range(cols) if j not in pivot_cols],
    )
    d = [abs(p) for _, _, p in pivots] + [0] * (min(nr, cols) - len(pivots))
    return SparseSmith(tuple(d), u_out, v_out, det)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with explicit unimodular transforms.

    A thin wrapper over `sparse_smith` that returns u and v as dense
    matrices.  Diagonal entries come out nonnegative,
    divisibility-ordered, with zeros trailing, so the diagonal is the
    canonical invariant-factor sequence.
    """
    result = sparse_smith([dict(enumerate(row)) for row in m.entries], m.cols)
    u = IntMatrix(
        tuple(tuple(row.get(j, 0) for j in range(m.rows)) for row in result.u_rows)
    )
    v = IntMatrix(
        tuple(
            tuple(col.get(i, 0) for col in result.v_cols) for i in range(m.cols)
        )
    )
    return SmithDecomposition(d=result.d, u=u, v=v)


@record
class CirculantRow:
    """First row (b1..bn) of an n x n circulant matrix."""

    b: tuple[int, ...]

    def __post_init__(self) -> None:
        b = _as_ints(self.b, "circulant entries")
        if not b:
            raise ValueError("a circulant row needs at least one entry")
        object.__setattr__(self, "b", b)


class CirculantProduct(NamedTuple):
    factors: tuple[complex, ...]
    product: complex


def circulant_det_product(row: CirculantRow) -> CirculantProduct:
    """Determinant of a circulant matrix as a product over roots of unity.

    Factor j is b1 + b2*w + ... + bn*w^(n-1) evaluated at the n-th root of
    unity w = exp(2*pi*i*j/n); the determinant is the product of all n
    factors.  Floating-point complex arithmetic, so exact comparisons need
    a tolerance.
    """
    b = row.b
    n = len(b)
    factors = []
    for j in range(n):
        w = cmath.exp(2j * cmath.pi * j / n)
        acc: complex = 0
        for coeff in reversed(b):
            acc = acc * w + coeff
        factors.append(acc)
    product = functools.reduce(operator.mul, factors, complex(1))
    return CirculantProduct(factors=tuple(factors), product=product)
