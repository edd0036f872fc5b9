"""Backtracking kernel for matrix-preserving bijections.

Yields every index bijection g with m2[g[i]][g[j]] == m1[i][j] for every
i, j, in lexicographic order of the image sequence.

Rows are placed in BFS order over the entry-1 (dual) graph of m1: the walk
starts at row 0, and each further component starts at its lowest row not
yet reached.  Row r maps only to a row of m2 with the same entry multiset;
each distinct sorted row is named by a small int, so the test compares
ints.  A root row tries every such image in ascending order.  Every other
row shares an edge with its BFS parent, so its image must be an entry-1
neighbour of the parent's image; on a closed surface that leaves at most 3
candidates (Weinberg's propagation idea for triangulations).  Each
candidate is checked against the placed rows that meet its row (entry >=
0) and against no others.  ``reconstruct._grow`` places triangles in the
same order and reads the same meeting rows: ``_placement_order`` and
``_meeting_rows`` are the one plan of both searches.

Precondition: m1 and m2 are symmetric, with 2 on the diagonal and no
negative entry other than -1.  The kernel enforces the rule on entry
multisets itself, and with it a complete bijection g that matches every
entry >= 0 also matches the -1 entries: the columns g(i) of the rows i
that meet row r (r among them) already hold as many entries >= 0 as row
g(r) has, so the rest of row g(r) is the rest of row r, all -1.

The output stays lexicographic without sorting the whole enumeration.
Let k be the length of the longest prefix of the placement order that is
rows 0..k-1 in index order.  Those rows try their images in ascending
order, so the bijections that share the images of rows 0..k-1 come out
together and the groups come out in ascending order; each group is sorted
before it is yielded.  A matrix with no entry-1 pair has k = n, so nothing
is buffered.  The search keeps its own stack, so its depth is not bounded
by the interpreter's recursion limit, and it is a generator, so a caller
that needs only some of the bijections stops the search where it stops
reading.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

__all__ = ["iter_bijections", "search_bijections"]


def _placement_order(m1: tuple[tuple[int, ...], ...]) -> tuple[list[int], list[int]]:
    """Rows in BFS order over the entry-1 graph of m1, with each row's BFS
    parent (-1 for the root of a component)."""
    n = len(m1)
    parent = [-1] * n
    reached = [False] * n
    order: list[int] = []
    for root in range(n):
        if reached[root]:
            continue
        reached[root] = True
        order.append(root)
        head = len(order) - 1
        while head < len(order):
            r = order[head]
            head += 1
            row = m1[r]
            for s in range(n):
                if row[s] == 1 and not reached[s]:
                    reached[s] = True
                    parent[s] = r
                    order.append(s)
    return order, parent


def _meeting_rows(
    m: tuple[tuple[int, ...], ...], order: list[int]
) -> list[list[tuple[int, int]]]:
    """For each position p of ``order``, the (earlier row, entry) pairs of
    the rows placed before ``order[p]`` that meet it (entry >= 0), in
    placement order."""
    return [[(i, m[r][i]) for i in order[:p] if m[r][i] >= 0] for p, r in enumerate(order)]


def iter_bijections(
    m1: tuple[tuple[int, ...], ...],
    m2: tuple[tuple[int, ...], ...],
) -> Iterator[tuple[int, ...]]:
    n = len(m1)
    if n != len(m2):
        return
    if n == 0:
        yield ()
        return
    order, parent = _placement_order(m1)
    # Rows 0..k-1 are placed first, in index order.
    k = next((p for p, r in enumerate(order) if p != r), n)
    neighbours2 = [tuple(j for j in range(n) if row[j] == 1) for row in m2]
    ids: dict[tuple[int, ...], int] = {}
    sig1 = [ids.setdefault(tuple(sorted(row)), len(ids)) for row in m1]
    sig2 = [ids.setdefault(tuple(sorted(row)), len(ids)) for row in m2]
    checks = _meeting_rows(m1, order)
    image = [0] * n
    used = [False] * n
    group: list[tuple[int, ...]] = []
    # pending[p]: the images the row at position p has not tried yet.
    # Resuming a for loop over this iterator continues the scan where it
    # stopped.
    pending = [iter(())] * n
    pending[0] = iter(range(n))
    depth = 0
    while depth >= 0:
        r = order[depth]
        sig = sig1[r]
        for j in pending[depth]:
            if used[j] or sig2[j] != sig:
                continue
            col_j = m2[j]
            for i, v in checks[depth]:
                if col_j[image[i]] != v:
                    break
            else:
                break
        else:
            depth -= 1
            if depth >= 0:
                used[image[order[depth]]] = False
            if depth == k - 1 and group:
                group.sort()
                yield from group
                group.clear()
            continue
        image[r] = j
        if depth + 1 == n:
            if k == n:
                yield tuple(image)
            else:
                group.append(tuple(image))
            continue
        used[j] = True
        depth += 1
        r = order[depth]
        pending[depth] = iter(range(n) if parent[r] < 0 else neighbours2[image[parent[r]]])


def search_bijections(
    m1: tuple[tuple[int, ...], ...],
    m2: tuple[tuple[int, ...], ...],
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """All bijections, or the first ``limit`` of them, as a list."""
    if limit is not None and limit <= 0:
        return []
    return list(islice(iter_bijections(m1, m2), limit))
