"""Exact integer rank computation.

The matrices produced by the cochain engine are sparse incidence-like
matrices whose entries are small integers.  Ranks are computed in two
stages:

1. a sparse integer phase that eliminates with Markowitz-chosen pivots
   (Markowitz 1957).  A pivot is taken only where it needs no division:
   a +-1 entry, or any entry whose row or column holds nothing else.  All
   arithmetic stays in the integers and touches only rows meeting the
   pivot column.  Column occupancy is kept incrementally, and rows and
   columns are bucketed by their counts, so each pivot search looks at a
   few short rows and columns rather than every live row;
2. a dense fraction-free (Bareiss) elimination on whatever remains once
   no such pivot is left.

Stage 1 does nearly all the work: on the incidence-like matrices of the
built-in and subdivided models it usually finishes the matrix, and
stage 2 only sees small remainders holding no unit entry.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Sequence

# Once a pivot candidate is known, stop the Markowitz search after this
# many rows and columns have been examined (Zlatev's restricted search).
SEARCH_LINES = 4


def bareiss_rank(rows):
    """Rank of an integer matrix given as a list of row lists.

    Fraction-free (Bareiss) elimination: every intermediate entry is a
    minor of the input, so all divisions are exact and arithmetic stays
    in the integers.  The input rows are consumed (modified in place).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank = 0
    prev = 1
    for c in range(n):
        if rank == m:
            break
        piv = -1
        best = 0
        for i in range(rank, m):
            v = rows[i][c]
            if v != 0:
                a = -v if v < 0 else v
                if piv < 0 or a < best:
                    piv = i
                    best = a
        if piv < 0:
            continue
        if piv != rank:
            rows[piv], rows[rank] = rows[rank], rows[piv]
        prow = rows[rank]
        p = prow[c]
        for i in range(rank + 1, m):
            row = rows[i]
            v = row[c]
            if v != 0:
                for j in range(c + 1, n):
                    row[j] = (p * row[j] - v * prow[j]) // prev
                row[c] = 0
            elif p != prev:
                for j in range(c + 1, n):
                    w = row[j]
                    if w != 0:
                        row[j] = (p * w) // prev
        prev = p
        rank += 1
    return rank


def _choose_pivot(live, col_rows, row_bucket, col_bucket):
    """Markowitz search for an admissible pivot (row, column), or None.

    Cost of entry (i, c) is (len(row i) - 1) * (count(c) - 1), the fill it
    can cause.  Columns, then rows, are searched by increasing count k;
    every entry not yet seen costs at least (k - 1)^2, which bounds the
    search.  An entry is admissible when it is +-1 or its cost is zero
    (its row or its column holds nothing else), so elimination never
    divides.
    """
    best = None
    best_cost = 0
    searched = 0
    kmax = max(max(row_bucket, default=0), max(col_bucket, default=0))
    for k in range(1, kmax + 1):
        if best is not None and best_cost <= (k - 1) * (k - 1):
            break
        km1 = k - 1
        for c in col_bucket.get(k, ()):
            for i in col_rows[c]:
                r = live[i]
                v = r[c]
                if k == 1 or v == 1 or v == -1:
                    cost = (len(r) - 1) * km1
                    if best is None or cost < best_cost:
                        best, best_cost = (i, c), cost
                        if cost == 0:
                            return best
            searched += 1
            if best is not None and searched >= SEARCH_LINES:
                return best
        for i in row_bucket.get(k, ()):
            for c, v in live[i].items():
                cm1 = len(col_rows[c]) - 1
                if k == 1 or cm1 == 0 or v == 1 or v == -1:
                    cost = km1 * cm1
                    if best is None or cost < best_cost:
                        best, best_cost = (i, c), cost
                        if cost == 0:
                            return best
            searched += 1
            if best is not None and searched >= SEARCH_LINES:
                return best
    return best


def _sparse_unit_phase(rows: list[dict[int, int]]):
    """Eliminate with division-free pivots; returns (#pivots, remaining rows).

    ``rows`` is a list of {column: nonzero int} dicts, consumed in place.
    """
    live = {i: r for i, r in enumerate(rows) if r}
    col_rows: dict[int, set[int]] = {}
    for i, r in live.items():
        for c in r:
            s = col_rows.get(c)
            if s is None:
                col_rows[c] = {i}
            else:
                s.add(i)
    row_bucket: dict[int, set[int]] = defaultdict(set)  # count -> rows
    col_bucket: dict[int, set[int]] = defaultdict(set)  # count -> columns
    for i, r in live.items():
        row_bucket[len(r)].add(i)
    for c, s in col_rows.items():
        col_bucket[len(s)].add(c)

    pivots = 0
    while True:
        pick = _choose_pivot(live, col_rows, row_bucket, col_bucket)
        if pick is None:
            return pivots, list(live.values())
        i, c = pick
        prow = live.pop(i)
        row_bucket[len(prow)].discard(i)
        fill = []
        for pc, pw in prow.items():
            if pc == c:
                continue
            fill.append((pc, pw))
            s = col_rows[pc]
            n = len(s)
            col_bucket[n].discard(pc)
            s.discard(i)
            if n > 1:
                col_bucket[n - 1].add(pc)
        others = col_rows.pop(c)
        col_bucket[len(others)].discard(c)
        others.discard(i)
        pv = prow[c]
        for j in others:
            r = live[j]
            row_bucket[len(r)].discard(j)
            v = r.pop(c)
            if fill:
                f = v * pv  # pv is +-1 whenever the pivot row has fill
                for pc, pw in fill:
                    w = r.get(pc, 0) - f * pw
                    s = col_rows[pc]
                    n = len(s)
                    if w:
                        if pc not in r:
                            col_bucket[n].discard(pc)
                            s.add(j)
                            col_bucket[n + 1].add(pc)
                        r[pc] = w
                    else:
                        del r[pc]
                        col_bucket[n].discard(pc)
                        s.discard(j)
                        if n > 1:
                            col_bucket[n - 1].add(pc)
            if r:
                row_bucket[len(r)].add(j)
            else:
                del live[j]
        pivots += 1


def _integral_row(row: dict) -> dict[int, int]:
    """Scale a row of ints and Fractions by the lcm of its denominators."""
    scale = math.lcm(*(v.denominator for v in row.values()))
    return {c: int(v * scale) for c, v in row.items()}


def rank_sparse(rows: list[dict]) -> int:
    """Exact rank from sparse {col: value} rows (consumed).

    Values are ints or Fractions; a row holding Fractions is scaled to
    integers first, which leaves the rank unchanged.
    """
    kinds = set()
    for r in rows:
        kinds.update(map(type, r.values()))
    if not kinds <= {int}:
        rows = [_integral_row(r) for r in rows]
    pivots, live = _sparse_unit_phase(rows)
    if not live:
        return pivots
    cols = sorted({c for r in live for c in r})
    remap = {c: j for j, c in enumerate(cols)}
    dense = []
    for r in live:
        row = [0] * len(cols)
        for c, v in r.items():
            row[remap[c]] = v
        dense.append(row)
    return pivots + bareiss_rank(dense)


def rank_int_rows(rows: Iterable[Sequence[int]]) -> int:
    """Exact rank of an integer matrix (any iterable of rows)."""
    return rank_sparse([{j: int(v) for j, v in enumerate(row) if v} for row in rows])


def rank_fraction_rows(rows: Iterable[Sequence[Fraction]]) -> int:
    """Exact rank of a rational matrix; rows are scaled to integers first."""
    return rank_sparse([{j: v for j, v in enumerate(row) if v} for row in rows])
