"""Backtracking kernel for matrix-preserving bijections.

Yields every index bijection g with m2[g[i]][g[j]] == m1[i][j] for every
i, j, in lexicographic order of the image sequence.

Rows are assigned in index order and candidate images are tried in
ascending order, which yields the lexicographic output order directly.
The caller supplies the row-compatibility table (same entry multisets);
the kernel itself only enforces pairwise consistency with already placed
rows, checking the rows that meet the current one before the disjoint
ones.  The search keeps its own stack, so its depth is not bounded by the
interpreter's recursion limit, and it is a generator, so a caller that
needs only some of the bijections stops the search where it stops reading.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

__all__ = ["iter_bijections", "search_bijections"]


def iter_bijections(
    m1: tuple[tuple[int, ...], ...],
    m2: tuple[tuple[int, ...], ...],
    allowed: tuple[tuple[bool, ...], ...],
) -> Iterator[tuple[int, ...]]:
    n = len(m1)
    if n != len(m2):
        return
    if n == 0:
        yield ()
        return
    candidates = [[j for j in range(n) if ok_row[j]] for ok_row in allowed]
    # checks[d]: the earlier rows that row d is checked against, those it
    # meets (entry >= 0) first.  A wrong image often matches a disjoint
    # (-1) entry by chance, so the meeting rows reject it sooner.
    checks = [
        [i for i in range(d) if m1[d][i] >= 0] + [i for i in range(d) if m1[d][i] < 0]
        for d in range(n)
    ]
    image = [0] * n
    used = [False] * n
    # pending[d]: the images row d has not tried yet.  Resuming a for loop
    # over this iterator continues the scan where it stopped.
    pending = [iter(())] * n
    pending[0] = iter(candidates[0])
    depth = 0
    while depth >= 0:
        row = m1[depth]
        for j in pending[depth]:
            if used[j]:
                continue
            col_j = m2[j]
            for i in checks[depth]:
                if col_j[image[i]] != row[i]:
                    break
            else:
                break
        else:
            depth -= 1
            if depth >= 0:
                used[image[depth]] = False
            continue
        image[depth] = j
        if depth + 1 == n:
            yield tuple(image)
            continue
        used[j] = True
        depth += 1
        pending[depth] = iter(candidates[depth])


def search_bijections(
    m1: tuple[tuple[int, ...], ...],
    m2: tuple[tuple[int, ...], ...],
    allowed: tuple[tuple[bool, ...], ...],
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """All bijections, or the first ``limit`` of them, as a list."""
    if limit is not None and limit <= 0:
        return []
    return list(islice(iter_bijections(m1, m2, allowed), limit))
