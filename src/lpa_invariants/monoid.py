"""Brute-force oracle for the graph monoid of a finite directed graph.

The monoid is the free commutative monoid on the vertices modulo the
relations v_i ~ sum_j a_ij v_j at non-sink vertices.  Each relation is
stored and read as its nonzero terms (j, a_ij), one per out-neighbour
of v_i, never as an n-wide row.  Equality is only decided inside a
box: all vectors of N^n with coordinate sum <= bound are partitioned
by the congruence generated by single-relation rewrites (both
directions) plus translation closure.  The saturation stores the
box in graded order, by coordinate sum and then lexicographically, so
the vectors up to each sum are a prefix of it; the result lists the box
in lexicographic order.
The rewrites are contracted into class labels by a hook-and-compress
union-find.  The translation closure runs rounds of one rule: sort the
members by class, join the images of consecutive members of a class,
and keep one member per class.  Conclusions therefore carry the bound,
and a stabilisation flag (nonzero class counts unchanged over the last
two bound increments) gates everything downstream.  The three levels
are swept in order of coordinate sum, each on its prefix of the box:
each starts from the closure of the level below and from the members it
kept, one per class.

`saturate` returns one `CongruenceClasses`: the box, its labels and the
presentation.  It keeps no rewrite edges; `rewrite_path` rebuilds them
per call.  The nonzero classes are additionally assembled into an
explicit finite group table when every required sum stays inside the
box, which is then compared against the Smith-normal-form cokernel
computation.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from typing import Literal, Union

import numpy as np

from ._record import record
from .graphs import Graph
from .intlinalg import _as_index
from .ktheory import _coprime_base, _valuation, cokernel_pointed, element_order

__all__ = [
    "NOT_CLOSED",
    "MonoidPresentation",
    "CongruenceClasses",
    "FiniteGroupTable",
    "presentation",
    "default_bound",
    "saturate",
    "mstar_group",
    "crosscheck_cokernel",
]

NOT_CLOSED: str = "NOT_CLOSED"

CrosscheckVerdict = Literal["MATCH", "MISMATCH", "INCONCLUSIVE"]

# Hard cap on the memory one saturation may take, checked against
# `_box_bytes_per_vector` before anything is allocated.
_MAX_BOX_BYTES = 2 << 30

# Box coordinates are int16.
_MAX_COORDINATE = 32767


def _box_bytes_per_vector(n: int) -> int:
    """Upper estimate of a saturation's peak bytes per box vector, for n
    generators: 2n bytes of coordinates and at most 256 for the rest.

    The peak comes while the top level's rewrite edges are merged.
    Measured with tracemalloc, it was 96-112 bytes per vector for
    C_9..C_12 at bound 12 (71-81 in the closure), and 174 and 196 for
    cycles of 16 and 24 vertices at bounds 8 and 6, where each relation
    has one term and so applies to the most vectors.  A tier-1 test holds
    the estimate on the 16-cycle at bound 6.
    """
    return 256 + 2 * n


@record
class MonoidPresentation:
    """One relation (i, terms) per non-sink vertex: v_i ~ sum a v_j over
    the terms (j, a).

    The terms are the right-hand side's nonzero entries, sorted by j, each
    coefficient a at least 1, so a relation has as many terms as its
    vertex has out-neighbours.  The constructor checks a caller's
    relations and stores them as tuples of ints; a term that is not an
    (index, coefficient) pair, such as an entry of a dense row, is
    refused.  `presentation` builds its record with `_trusted`, from a
    graph that was checked already.
    """

    generator_count: int
    relations: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    def __post_init__(self) -> None:
        n = _as_index(self.generator_count, "generator count")
        rels = []
        for i, terms in self.relations:
            i = _as_index(i, "relation generator index")
            if not 0 <= i < n:
                raise ValueError(f"relation generator index {i} out of range")
            rels.append((i, _relation_terms(terms, n)))
        object.__setattr__(self, "generator_count", n)
        object.__setattr__(self, "relations", tuple(rels))


def _relation_terms(terms, n: int) -> tuple[tuple[int, int], ...]:
    """A caller's right-hand side as checked (index, coefficient) pairs."""
    out: list[tuple[int, int]] = []
    for term in terms:
        try:
            j, a = term
        except (TypeError, ValueError):
            raise ValueError(
                f"relation term must be an (index, coefficient) pair, got {term!r}"
            ) from None
        j = _as_index(j, "relation term index")
        a = _as_index(a, "relation coefficient")
        if not 0 <= j < n:
            raise ValueError(f"relation term index {j} out of range")
        if out and j <= out[-1][0]:
            raise ValueError("relation term indices must be strictly increasing")
        if a < 1:
            raise ValueError(f"relation coefficients must be positive, got {a}")
        out.append((j, a))
    if not out:
        # non-sinks always contribute at least one edge, and empty right
        # sides would let rewrites shrink coordinate sums
        raise ValueError("relation right-hand side must be nonempty")
    return tuple(out)


def presentation(g: Graph) -> MonoidPresentation:
    """Read the defining relations off the out-edges of the non-sinks: the
    term (j, a) of v_i says that a edges go from v_i to v_j."""
    relations = tuple(
        (i, tuple(sorted(Counter(succ).items())))
        for i, succ in enumerate(g.successors)
        if succ
    )
    return MonoidPresentation._trusted(g.n_vertices, relations)


def _relation_sum(terms) -> int:
    """The coordinate sum of a relation's right-hand side."""
    return sum(a for _, a in terms)


def default_bound(p: MonoidPresentation) -> int:
    """max(8, 2 * n * largest relation sum).

    `saturate` refuses this bound's box from C_8 on: on C_n the bound is
    4n, and C_8's box at bound 32 has C(40, 8) = 76,904,685 vectors,
    about 19,949 MiB against the 2,048 MiB cap.  Every larger C_n needs
    an explicit bound too.
    """
    max_sum = max((_relation_sum(terms) for _, terms in p.relations), default=1)
    return max(8, 2 * p.generator_count * max_sum)


# ---------------------------------------------------------------------------
# Box enumeration and ranking.
#
# The saturation works on the box in graded order: by coordinate sum
# first, then lexicographically (first coordinate most significant)
# within each sum.  With N(r) = C(n + r, n) counting the vectors of sum
# <= r, the vectors of sum <= r are the prefix [:N(r)], and those of sum
# in (lo, hi] the slice [N(lo), N(hi)).  The public `vectors` are in lex
# order; with N(k, r) = C(r + k, k) counting the k-coordinate vectors of
# sum <= r, the lex rank of w is
#     sum_i  N(n - i, b_i) - N(n - i, b_i - w_i),
# where b_i is the budget left before coordinate i.  Only single lookups
# use that formula: `CongruenceClasses.rank_of` computes it with
# `math.comb`.  Listing the lex box stably by sum gives the graded box,
# so a stable argsort of the lex box's sums maps graded ranks to lex
# ranks (`_graded_to_lex`).
#
# Whole arrays of translates are ranked off the graded order instead.
# Graded order is translation-invariant: x < y iff x + d < y + d for any
# integer vector d.  So a translation w -> w + d that maps a set S of box
# vectors onto a set T of box vectors keeps their order, and the i-th
# member of S (by rank) goes to the i-th member of T.  Both sets are read
# off the box by a mask, and `np.flatnonzero` lists each in rank order:
#   - w -> w + e_k maps the prefix of sum <= b - 1 onto {v : v_k >= 1};
#   - w -> w - e_i + rhs maps {w_i >= 1, lo < sum w + sum rhs - 1 <= hi}
#     onto {v : v >= rhs componentwise, lo < sum v <= hi}, and each sum
#     window is one slice of the box.
# ---------------------------------------------------------------------------


def _box_size(n: int, r: int) -> int:
    """Number of vectors of N^n with coordinate sum <= r (0 when r < 0)."""
    return math.comb(n + r, n) if r >= 0 else 0


def _box_vectors(n: int, bound: int) -> np.ndarray:
    """The box in graded order, as an F-ordered (N, n) int16 array: the
    vectors of sum r, in lex order, for r = 0..bound.

    The vectors of N^k with sum r are, in lex order, 0 followed by those
    of (k - 1, r), then those of (k, r - 1) plus e_1.  So the shell of
    sum r is written from its last column leftwards: the (k, r) block is
    the shell's first C(r + k - 1, k - 1) rows in its last k columns; its
    head is the (k - 1, r) block, just written, beside a column of zeros,
    and its tail a copy of the (k, r - 1) block of the shell before.
    """
    out = np.empty((_box_size(n, bound), n), dtype=np.int16, order="F")
    below: list = [None] * (n + 1)  # below[k] is the (k, r - 1) block
    for r in range(bound + 1):
        start = _box_size(n, r - 1)
        for k in range(1, n + 1):
            block = out[start : start + math.comb(r + k - 1, k - 1), n - k :]
            if k == 1:
                block[0, 0] = r
            else:
                head = math.comb(r + k - 2, k - 2)
                block[:head, 0] = 0
                if r:
                    block[head:] = below[k]
                    block[head:, 0] += 1
            below[k] = block
    return out


def _lex_box(graded: np.ndarray, bound: int) -> np.ndarray:
    """The box in lex order, from the graded box `graded`.

    The vectors with first coordinate c are c followed by the box of
    n - 1 coordinates and sum <= bound - c, in lex order, and those are
    the first n - 1 coordinates of the graded box's vectors of sum
    bound - c.  So each c takes one slice of `graded`.
    """
    n = graded.shape[1]
    out = np.empty(graded.shape, dtype=np.int16, order="F")
    if n:
        start = 0
        for c in range(bound + 1):
            lo, hi = _box_size(n, bound - c - 1), _box_size(n, bound - c)
            rows = slice(start, start + hi - lo)
            out[rows, 0] = c
            out[rows, 1:] = graded[lo:hi, :-1]
            start = rows.stop
    return out


def _graded_to_lex(vectors: np.ndarray) -> np.ndarray:
    """perm[g] is the lex rank of the g-th vector of the graded box, where
    `vectors` is the lex box: listing it stably by sum gives the graded
    box."""
    return np.argsort(vectors.sum(axis=1, dtype=np.int16), kind="stable")


def _elementary_edges(p, vectors, lo, hi):
    """Rank pairs (w, w - e_i + rhs_i) for the in-box rewrites whose
    larger endpoint sum s has lo < s <= hi, on the graded box `vectors`.

    The rewrite is the translation by rhs_i - e_i, and it raises the sum
    by sum(rhs_i) - 1 >= 0, so s is the target's sum.  It maps its sources
    (w_i >= 1 and sum w + sum(rhs_i) - 1 in (lo, hi]) in rank order onto
    its targets, the box vectors v >= rhs_i with sum v in (lo, hi];
    sources and targets pair up by position.  Each of the two sum windows
    is one slice of the box, and only that slice is masked, one column
    per term of the relation.
    """
    n = vectors.shape[1]
    first, last = _box_size(n, lo), _box_size(n, hi)
    srcs, dsts = [], []
    for gi, terms in p.relations:
        shift = _relation_sum(terms) - 1
        start = _box_size(n, lo - shift)
        idx = np.flatnonzero(vectors[start : _box_size(n, hi - shift), gi] >= 1)
        if idx.size == 0:
            continue
        covers = np.ones(last - first, dtype=bool)
        for j, a in terms:
            covers &= vectors[first:last, j] >= a
        srcs.append(idx.astype(np.int32) + np.int32(start))
        dsts.append(np.flatnonzero(covers).astype(np.int32) + np.int32(first))
    if not srcs:
        empty = np.zeros(0, dtype=np.int32)
        return empty, empty
    return np.concatenate(srcs), np.concatenate(dsts)


def _shift_images(vectors):
    """images[k][i] is the rank of vectors[i] + e_k, for the graded box
    `vectors` and every i < N(bound - 1), the prefix of sum <= bound - 1.

    The shift maps that prefix in rank order onto the box vectors with
    v_k >= 1, so images[k] is just the list of those.
    """
    return [
        np.flatnonzero(vectors[:, k] >= 1).astype(np.int32)
        for k in range(vectors.shape[1])
    ]


def _merge(labels, left, right):
    """Contract `labels` so that each left[i] and right[i] share a class.

    Hook-and-compress over the label graph, whose nodes are the current
    class ids (Shiloach-Vishkin, 1982).  Each round drops the pairs
    already joined, hooks every remaining root onto the smallest root it
    is paired with, pointer-jumps until nothing changes, and maps the
    pairs onto their new roots.  A root only ever hooks onto a smaller
    root, so the pointers form a forest, and each round ends with every
    label on a root.  The result has the dtype of `labels`.

    The saturation starts from labels[r] = r, so each class id is the
    least rank in its class, and labels[r] == r for every class id r:
    class ids can be passed as `left` and `right`, and `labels[ids]` maps
    the ids of an older labelling onto the current ones.
    """
    if left.size == 0:
        return labels
    # int32 ids: the byte cap keeps the box far below 2**31 vectors
    a = labels[left].astype(np.int32, copy=False)
    b = labels[right].astype(np.int32, copy=False)
    ids = np.arange(int(labels.max()) + 1, dtype=np.int32)
    parent = ids.copy()
    while True:
        apart = a != b
        if not apart.any():
            break
        a, b = a[apart], b[apart]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        # only hooked ids have parent[i] != i, so only they can jump
        hooked = np.flatnonzero(parent != ids)
        while True:
            up = parent[hooked]
            jumped = parent[up]
            if np.array_equal(jumped, up):
                break
            parent[hooked] = jumped
        a, b = parent[a], parent[b]
    return parent[labels].astype(labels.dtype, copy=False)


def _close_under_translation(labels, pos, images):
    """Join (x + e_k, y + e_k) for x ~ y until no violations remain, over
    the members `pos`, ranks in the graded box.

    Closure under adding one generator at a time implies closure under
    adding any vector, since partial translates stay inside the box.
    `images[k][i]` is the rank of the i-th vector + e_k.

    Each round sorts the members by class, stably, joins under every
    +e_k the images of each two consecutive members of a class whose
    images' classes differ, and keeps only the first member of each
    class.  A dropped member's images are joined to those of the member
    kept for its class, and labels only ever merge, so it can never
    violate a pair that the kept member does not.  The loop ends when no
    two members share a class or a round joins nothing.  Returns the
    labels, the kept members (one per class of the members, in class
    order) and the number of pairs joined.
    """
    joins = 0
    while True:
        lab = labels[pos]
        order = np.argsort(lab, kind="stable")
        lab = lab[order]
        pos = pos[order]
        same = lab[1:] == lab[:-1]
        if not same.any():
            return labels, pos, joins
        out_a, out_b = [], []
        for img in images:
            ranked = img[pos]
            left = ranked[:-1][same]
            right = ranked[1:][same]
            bad = labels[left] != labels[right]
            out_a.append(left[bad])
            out_b.append(right[bad])
        pos = pos[np.concatenate(([True], ~same))]
        left = np.concatenate(out_a)
        if left.size == 0:
            return labels, pos, joins
        joins += int(left.size)
        labels = _merge(labels, left, np.concatenate(out_b))


def _saturate_box(p: MonoidPresentation, bound: int) -> CongruenceClasses:
    """Saturate the box at `bound`, also counting classes at the two
    smaller bounds for the stabilisation flag.

    The levels run on the graded box, where level b is the prefix of
    sum <= b.  The closure at bound b-1 holds at bound b too, so each
    level extends the previous level's labels by the vectors new to it,
    as singletons, and adds only the elementary edges whose larger
    endpoint sum is b (the first level all those up to b), built for
    that level alone and dropped once merged, then closes under
    translation (`_close_under_translation`).  The closure's members are
    the ones the level below kept, one per class, plus the vectors of
    sum b - 1 (the first level all those up to b - 1): every other vector
    of sum <= b - 1 is tied, images included, to a kept member.
    No vector is ranked by formula: the shift w -> w + e_k maps the prefix
    of sum <= bound - 1 in order onto the box vectors with v_k >= 1, so
    the ranks of the shifts are the list of those (`_shift_images`), and
    the rewrite edges come off the graded order the same way
    (`_elementary_edges`).  The box is column-major, so each of those
    reads one contiguous column, or a slice of one.  Every class id is
    the least graded rank in its class (`_merge`), so the classes are
    the ranks r with labels[r] == r.

    Only then is the result put in lex order: the lex box is copied out
    of the graded box (`_lex_box`), which is then dropped, and the labels
    are moved through `_graded_to_lex`.  The classes are numbered in
    order of their lex-least members, so the zero vector always lands in
    class 0.
    """
    n = p.generator_count
    if n and bound > _MAX_COORDINATE:
        raise ValueError(
            f"bound {bound} exceeds the largest box coordinate {_MAX_COORDINATE}"
        )
    total = _box_size(n, bound)
    need = total * _box_bytes_per_vector(n)
    if need > _MAX_BOX_BYTES:
        raise ValueError(
            f"saturation box has {total} vectors, needing about "
            f"{need >> 20} MiB (limit {_MAX_BOX_BYTES >> 20} MiB); "
            "pass a smaller bound"
        )
    vectors = _box_vectors(n, bound)
    images = _shift_images(vectors)

    ranks = np.arange(total, dtype=np.int32)
    labels = np.zeros(0, dtype=np.int32)
    pos = np.zeros(0, dtype=np.intp)  # the members the closure keeps
    joins = 0
    counts: dict[int, int] = {}  # nonzero classes at bound-2 and bound-1
    for lo, b in ((-1, bound - 2), (bound - 2, bound - 1), (bound - 1, bound)):
        if b < 0:
            continue
        size = _box_size(n, b)
        labels = np.concatenate((labels, ranks[labels.size : size]))
        labels = _merge(labels, *_elementary_edges(p, vectors, lo, b))
        new = np.arange(_box_size(n, lo - 1), _box_size(n, b - 1))
        pos = np.concatenate((pos, new))
        labels, pos, joins = _close_under_translation(labels, pos, images)
        if b < bound:
            counts[b] = int(np.count_nonzero(labels == ranks[:size])) - 1
    del images, pos

    vectors = _lex_box(vectors, bound)
    perm = _graded_to_lex(vectors)
    least = np.full(total, total, dtype=np.intp)  # least[r]: class r's lex-least member
    np.minimum.at(least, labels, perm)
    roots = np.flatnonzero(labels == ranks)
    roots = roots[np.argsort(least[roots])]
    first_member = least[roots]
    ncomp = int(roots.size)
    del least
    relabel = np.empty(total, dtype=np.int32)
    relabel[roots] = np.arange(ncomp)
    lex_labels = np.empty(total, dtype=np.int64)
    lex_labels[perm] = relabel[labels]
    sizes = np.bincount(lex_labels, minlength=ncomp)

    for arr in (vectors, lex_labels, first_member, sizes):
        arr.setflags(write=False)
    return CongruenceClasses(
        generator_count=n,
        bound=bound,
        stabilized=counts.get(bound - 2) == counts.get(bound - 1) == ncomp - 1,
        class_count=ncomp,
        nonzero_class_count=ncomp - 1,
        translation_joins=joins,
        vectors=vectors,
        labels=lex_labels,
        class_sizes=sizes,
        _first_member=first_member,
        _presentation=p,
    )


@record(eq=False)
class CongruenceClasses:
    """Partition of the box {w in N^n : sum w <= bound} by the congruence.

    `labels[r]` is the class id of the r-th box vector in lexicographic
    order (`vectors[r]`); class 0 is always the singleton {zero vector}.
    `stabilized` records whether the nonzero class count was unchanged at
    bounds bound-2, bound-1 and bound.  `translation_joins` counts the
    pairs of classes the translation closure joined at the final bound,
    starting from the bound-1 closure plus the rewrites that reach sum
    `bound`, over the members the bound-1 closure kept (one per class)
    and the vectors of sum bound-1.  Joins made at the lower levels are
    not counted again.  The count depends on the order the closure meets
    the members in, the box's graded order.  The rewrite edges are not
    kept: `rewrite_path` rebuilds them from the presentation.
    """

    generator_count: int
    bound: int
    stabilized: bool
    class_count: int
    nonzero_class_count: int
    translation_joins: int
    vectors: np.ndarray
    labels: np.ndarray
    class_sizes: np.ndarray
    _first_member: np.ndarray
    _presentation: MonoidPresentation

    def rank_of(self, vec) -> int:
        """Index of `vec` in `vectors`, by the ranking formula.

        Coordinates must be integers (numpy integers included); anything
        else raises ValueError rather than being truncated.
        """
        vec = tuple(_as_index(x, "vector coordinate") for x in vec)
        if len(vec) != self.generator_count:
            raise ValueError("vector has the wrong number of coordinates")
        if any(x < 0 for x in vec) or sum(vec) > self.bound:
            raise ValueError(f"vector {vec} lies outside the explored box")
        rank, budget = 0, self.bound
        for k, w in zip(range(len(vec), 0, -1), vec):
            rank += math.comb(budget + k, k) - math.comb(budget - w + k, k)
            budget -= w
        return rank

    def class_of(self, vec) -> int:
        return int(self.labels[self.rank_of(vec)])

    def _class_index(self, class_id) -> int:
        class_id = _as_index(class_id, "class id")
        if not 0 <= class_id < self.class_count:
            raise ValueError(
                f"class id {class_id} out of range 0..{self.class_count - 1}"
            )
        return class_id

    def representative(self, class_id: int) -> tuple[int, ...]:
        """Lexicographically least member of the class."""
        class_id = self._class_index(class_id)
        return tuple(int(x) for x in self.vectors[self._first_member[class_id]])

    def representatives(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.representative(c) for c in range(self.class_count))

    def members(self, class_id: int, limit: int | None = None) -> list[tuple[int, ...]]:
        """Members of the class in lexicographic order, the first `limit`
        of them when `limit` is given."""
        class_id = self._class_index(class_id)
        if limit is not None:
            limit = _as_index(limit, "limit")
            if limit < 0:
                raise ValueError(f"limit must be nonnegative, got {limit}")
        idx = np.flatnonzero(self.labels == class_id)
        if limit is not None:
            idx = idx[:limit]
        return [tuple(int(x) for x in self.vectors[i]) for i in idx]

    def rewrite_path(self, x, y) -> list[tuple[int, ...]] | None:
        """Chain of single-relation rewrites x -> ... -> y inside the box.

        Returns None when the two vectors are not connected by elementary
        rewrites (translation-closure joins carry no in-box chain).  Each
        call rebuilds the whole box's rewrite edges with
        `_elementary_edges`, which the saturation calls once per level, on
        the graded box, maps their ends to lex ranks (`_graded_to_lex`),
        and searches those inside x's class breadth first, both ways, one
        frontier array of ranks per level.
        """
        i, j = self.rank_of(x), self.rank_of(y)
        if self.labels[i] != self.labels[j]:
            return None  # every rewrite edge lies inside one class
        graded = _box_vectors(self.generator_count, self.bound)
        src, dst = _elementary_edges(self._presentation, graded, -1, self.bound)
        perm = _graded_to_lex(self.vectors)
        src, dst = perm[src], perm[dst]
        inside = self.labels[src] == self.labels[i]
        tails = np.concatenate([src[inside], dst[inside]])
        heads = np.concatenate([dst[inside], src[inside]])
        preds = np.full(len(self.labels), -1, dtype=np.int64)
        preds[i] = i
        frontier = np.array([i])
        while preds[j] < 0 and frontier.size:
            on_frontier = np.zeros(len(self.labels), dtype=bool)
            on_frontier[frontier] = True
            step = on_frontier[tails] & (preds[heads] < 0)
            frontier, first = np.unique(heads[step], return_index=True)
            preds[frontier] = tails[step][first]
        if preds[j] < 0:
            return None
        path = [j]
        while path[-1] != i:
            path.append(int(preds[path[-1]]))
        path.reverse()
        return [tuple(int(v) for v in self.vectors[r]) for r in path]


def saturate(p: MonoidPresentation, bound: int) -> CongruenceClasses:
    """Partition the box of coordinate-sum <= bound by the congruence.

    Every vector is rewritten through every relation in both directions
    (endpoints staying in the box), the resulting pairs are closed into
    equivalence classes, and the partition is then closed under
    translation, in rounds that each merge class labels and keep one
    vector per class for the next round.  The stabilisation flag
    compares nonzero class counts at bound-2, bound-1 and bound; the
    levels are computed in that order, each one from the closure of the
    one before plus the rewrites whose larger endpoint sum is the new
    level.  `bound` must be an integer; a box whose estimated memory
    exceeds `_MAX_BOX_BYTES` is refused with ValueError before anything
    is allocated.
    """
    bound = _as_index(bound, "bound")
    needed = max([1] + [_relation_sum(terms) for _, terms in p.relations])
    if bound < needed:
        raise ValueError(
            f"bound {bound} too small to express any relation (need >= {needed})"
        )
    return _saturate_box(p, bound)


# ---------------------------------------------------------------------------
# Group structure of the nonzero classes.
# ---------------------------------------------------------------------------


@record(eq=False)
class FiniteGroupTable:
    """Addition table of the nonzero classes, verified to be a group.

    Entries are class ids; associativity comes for free from vector
    addition, while closure, identity and inverses are checked when the
    table is built.
    """

    element_class_ids: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]
    identity_class: int
    inverses: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.element_class_ids)

    @cached_property
    def _position(self) -> dict[int, int]:
        """Index of each element's class id in `element_class_ids`, built
        once per table: `invariant_factors` asks `order_of` once per
        element, and the crosscheck once per vertex."""
        return {c: i for i, c in enumerate(self.element_class_ids)}

    def order_of(self, class_id: int) -> int:
        position = self._position
        if class_id not in position:
            raise ValueError(f"class {class_id} is not an element of the group")
        idx = position[class_id]
        acc = class_id
        k = 1
        while acc != self.identity_class:
            acc = self.table[position[acc]][idx]
            k += 1
            if k > self.order + 1:
                raise RuntimeError("addition table is not a group")
        return k

    def invariant_factors(self) -> tuple[int, ...]:
        """Invariant factors recovered from the element-order profile.

        For each prime p, the count of elements killed by p^j determines
        the p-part partition; the partitions are then interleaved into a
        divisibility chain.  Order profiles determine finite abelian
        groups up to isomorphism, so this is exact.
        """
        orders = [self.order_of(c) for c in self.element_class_ids]
        partitions: dict[int, list[int]] = {}
        # By Cauchy's theorem each prime dividing the group order is the order
        # of an element, so the coprime base of the orders is those primes.
        for p in _coprime_base(orders):
            s_prev = 0
            mults: list[int] = []
            j = 1
            while True:
                pj = p**j
                count = sum(1 for o in orders if pj % o == 0)
                s_j = _valuation(count, p)
                if p**s_j != count:
                    raise RuntimeError("order profile is not that of an abelian group")
                if s_j == s_prev:
                    break
                mults.append(s_j - s_prev)
                s_prev = s_j
                j += 1
            lam = [
                max(j + 1 for j, m in enumerate(mults) if m > i)
                for i in range(mults[0])
            ]
            partitions[p] = lam  # descending by construction
        width = max((len(lam) for lam in partitions.values()), default=0)
        descending = []
        for i in range(width):
            d = 1
            for p, lam in partitions.items():
                if i < len(lam):
                    d *= p ** lam[i]
            descending.append(d)
        return tuple(reversed(descending))


def mstar_group(
    c: CongruenceClasses,
) -> Union[FiniteGroupTable, str]:
    """Addition table of the nonzero classes, or NOT_CLOSED.

    NOT_CLOSED when the saturation has not stabilised, when some sum of
    class representatives leaves the box, or when the table fails a
    group axiom (no identity, or a missing inverse).
    """
    if not c.stabilized:
        return NOT_CLOSED
    ids = list(range(1, c.class_count))
    if not ids:
        return NOT_CLOSED
    reps = [c.representative(i) for i in ids]
    k = len(ids)
    table: list[list[int]] = []
    for i in range(k):
        row = []
        for j in range(k):
            total = tuple(a + b for a, b in zip(reps[i], reps[j]))
            if sum(total) > c.bound:
                return NOT_CLOSED
            row.append(c.class_of(total))
        table.append(row)
    identity = next(
        (ids[e] for e in range(k) if table[e] == ids),
        None,
    )
    if identity is None:
        return NOT_CLOSED
    inverses = []
    for i in range(k):
        inv = next((ids[j] for j in range(k) if table[i][j] == identity), None)
        if inv is None:
            return NOT_CLOSED
        inverses.append(inv)
    return FiniteGroupTable(
        element_class_ids=tuple(ids),
        table=tuple(tuple(row) for row in table),
        identity_class=identity,
        inverses=tuple(inverses),
    )


def crosscheck_cokernel(g: Graph, bound: int) -> CrosscheckVerdict:
    """Compare the box-monoid group against the Smith-normal-form cokernel.

    MATCH requires equal invariant factors and, vertex by vertex, equal
    orders of the vertex class on both sides; INCONCLUSIVE whenever the
    monoid side could not produce a stable finite group.
    """
    classes = saturate(presentation(g), bound)
    return _crosscheck_classes(g, classes, mstar_group(classes))


def _crosscheck_classes(
    g: Graph, classes: CongruenceClasses, group: Union[FiniteGroupTable, str]
) -> CrosscheckVerdict:
    """`crosscheck_cokernel` on a saturation of `g` and its `mstar_group`."""
    if isinstance(group, str):
        return "INCONCLUSIVE"
    k0 = cokernel_pointed(g)
    if group.invariant_factors() != k0.group.factors:
        return "MISMATCH"
    n = g.n_vertices
    for i in range(n):
        unit = tuple(1 if j == i else 0 for j in range(n))
        monoid_order = group.order_of(classes.class_of(unit))
        cokernel_order = element_order(k0.group, k0.vertex_images[i])
        if monoid_order != cokernel_order:
            return "MISMATCH"
    return "MATCH"
