"""Backtracking kernel for matrix-preserving bijections.

Yields every index bijection g with m2[g[i]][g[j]] == m1[i][j] for every
i, j, in lexicographic order of the image sequence.

``_near`` scans each matrix once and keeps, per row, the (column, entry)
pairs with entry >= 0: O(d) pairs on a closed surface of vertex degree at
most d.  ``_plan`` places the rows of m1 in BFS order over the entry-1
(dual) graph: the walk starts at row 0, and each further component starts
at its lowest row not yet reached.  Row r maps only to a row of m2 whose
view is as long as r's.  A root row tries every such image in ascending
order.  Every other row shares an edge with its BFS parent, so its image
must be an entry-1 neighbour of the parent's image; on a closed surface
that leaves at most 3 candidates (Weinberg's propagation idea for
triangulations).  Each candidate is checked, entry by entry of m2,
against the placed rows that meet its row (entry >= 0) and no others.
``reconstruct._grow`` places triangles by the same plan.

Precondition: m1 and m2 are symmetric, with 2 on the diagonal and no
negative entry other than -1.  The kernel enforces the rule on view
lengths itself, and with it a complete bijection g that matches every
entry >= 0 also matches the -1 entries: the columns g(i) of the rows i
that meet row r (r among them) already hold as many entries >= 0 as row
g(r) has, so the rest of row g(r) is the rest of row r, all -1.

The output stays lexicographic without sorting the whole enumeration.
Let k be the length of the longest prefix of the placement order that is
rows 0..k-1 in index order.  Those rows try their images in ascending
order, so the bijections that share the images of rows 0..k-1 come out
together and the groups come out in ascending order; each group is sorted
before it is yielded.  The search keeps its own stack, so its depth is
not bounded by the interpreter's recursion limit, and it is a generator,
so a caller that needs only some of the bijections stops the search where
it stops reading.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

__all__ = ["iter_bijections", "search_bijections"]


def _near(m: tuple[tuple[int, ...], ...]) -> list[list[tuple[int, int]]]:
    """For each row of m, its (column, entry) pairs with entry >= 0, in
    column order; the diagonal is among them."""
    return [[(j, v) for j, v in enumerate(row) if v >= 0] for row in m]


def _plan(
    near: list[list[tuple[int, int]]],
) -> tuple[list[int], list[int], list[list[tuple[int, int]]]]:
    """The placement plan of a matrix read through ``_near``: its rows in
    BFS order over the entry-1 graph, each row's BFS parent (-1 for the
    root of a component), and for each position p of the order the
    (earlier row, entry) pairs of the rows placed before ``order[p]`` that
    meet it (entry >= 0), in placement order."""
    n = len(near)
    parent = [-1] * n
    position = [-1] * n  # in the order; -1 until reached
    order: list[int] = []
    for root in range(n):
        if position[root] >= 0:
            continue
        position[root] = head = len(order)
        order.append(root)
        while head < len(order):
            r = order[head]
            head += 1
            for s, v in near[r]:
                if v == 1 and position[s] < 0:
                    position[s] = len(order)
                    parent[s] = r
                    order.append(s)
    # Rows are visited in placement order, so each list grows in it.
    meets: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for p, r in enumerate(order):
        for s, v in near[r]:
            if position[s] > p:
                meets[position[s]].append((r, v))
    return order, parent, meets


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
    near1, near2 = _near(m1), _near(m2)
    order, parent, checks = _plan(near1)
    # Rows 0..k-1 are placed first, in index order.
    k = next((p for p, r in enumerate(order) if p != r), n)
    neighbours2 = [[j for j, v in row if v == 1] for row in near2]
    size1 = [len(row) for row in near1]
    size2 = [len(row) for row in near2]
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
        size = size1[r]
        for j in pending[depth]:
            if used[j] or size2[j] != size:
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
            if depth < k and group:
                group.sort()
                yield from group
                group.clear()
            continue
        image[r] = j
        if depth + 1 == n:
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
