"""Exact elimination by pair cancellation.

``cancel`` is the one elimination of the package.  It takes sparse
``{column: value}`` rows in order and pairs each row b that is still
nonzero with a column a of one of its entries u: a ±1 entry with the
shortest column, or the entry with the shortest column when the row
holds no ±1.  It then applies the rank-one Schur update that clears
column a from every later row, and records the step (b, a, u⁻¹, row b),
with row b as it stands then, without a.  Every row is reduced against
all earlier pivots before its turn, so a row that ends empty lies in the
span of the rows before it: the pivots among the first t rows number the
rank of those rows.  ``cochain.reduce_complex`` runs it on each
differential of a complex (Kaczynski, Mrozek & Ślusarek, "Homology
computation by reduction of chain complexes", 1998), and every rank,
kernel basis and Betti number of the package comes from it.

``bareiss_rank``, a dense fraction-free elimination, has no caller in
the package.  It stays as the tests' independent dense reference, and
the traced benchmark (``perfbench/layertrace.py``) resolves it by name.
"""

from __future__ import annotations

from fractions import Fraction


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


def cancel(rows: list[dict]) -> list[tuple]:
    """Pair-cancel sparse rows in order; returns the steps (b, a, u⁻¹,
    row b), one per pivot, in row order (see the module notes).

    Values are ints or Fractions, and an integral result is stored as an
    int.  The rows are consumed: each recorded row b is the input dict.
    """
    col_rows: dict[int, set[int]] = {}
    for b, r in enumerate(rows):
        for j in r:
            s = col_rows.get(j)
            if s is None:
                col_rows[j] = {b}
            else:
                s.add(b)
    steps = []
    for b, row in enumerate(rows):
        if not row:
            continue
        a = min(row, key=lambda j: (row[j] not in (1, -1), len(col_rows[j])))
        u = row.pop(a)
        if u in (1, -1):
            uinv = u
        else:
            uinv = 1 / Fraction(u)
            if uinv.denominator == 1:
                uinv = uinv.numerator
        for j in row:
            col_rows[j].discard(b)
        holders = col_rows.pop(a)
        holders.discard(b)
        items = tuple(row.items())
        for t in holders:
            target = rows[t]
            g = target.pop(a) * uinv
            for j, x in items:
                w = target.get(j, 0) - g * x
                if type(w) is not int and w.denominator == 1:
                    w = w.numerator
                if w:
                    if j not in target:
                        col_rows[j].add(t)
                    target[j] = w
                else:
                    del target[j]
                    col_rows[j].discard(t)
        steps.append((b, a, uinv, row))
    return steps


def rank_sparse(rows: list[dict]) -> int:
    """Exact rank of sparse {col: value} rows (consumed): the number of
    ``cancel`` pivots."""
    return len(cancel(rows))
