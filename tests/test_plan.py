"""The placement plan that the bijection kernel and the growth search both
walk, read off the sparse view of a matrix, must equal its definition
over dense rows."""

import random

import pytest

from trimat import intersection_matrix
from trimat._search import _near, _plan
from trimat.catalog import CLOSED_SURFACES

from inputs import reindexed, subdivided


def dense_plan(m):
    """Rows in BFS order over the entry-1 graph (each component from its
    lowest row not yet reached, columns in ascending order), each row's
    BFS parent, and for each position p the (earlier row, entry) pairs of
    the rows placed before order[p] that meet it, in placement order."""
    n = len(m)
    parent = [-1] * n
    reached = [False] * n
    order = []
    for root in range(n):
        if reached[root]:
            continue
        reached[root] = True
        order.append(root)
        head = len(order) - 1
        while head < len(order):
            r = order[head]
            head += 1
            for s in range(n):
                if m[r][s] == 1 and not reached[s]:
                    reached[s] = True
                    parent[s] = r
                    order.append(s)
    meets = [[(i, m[r][i]) for i in order[:p] if m[r][i] >= 0] for p, r in enumerate(order)]
    return order, parent, meets


def block_matrix(n, rng):
    """A symmetric matrix with entry 1 only inside random blocks of rows,
    so its entry-1 graph has several components, and -1, 0 or 2
    elsewhere off the diagonal."""
    block = [rng.randrange(3) for _ in range(n)]
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            choices = (-1, 0, 1, 1, 2) if block[i] == block[j] else (-1, -1, 0, 2)
            rows[i][j] = rows[j][i] = rng.choice(choices)
    return tuple(map(tuple, rows))


def test_random_matrices_with_several_components():
    rng = random.Random(1212)
    roots = []
    for trial in range(300):
        m = block_matrix(rng.randint(1, 12), rng)
        plan = _plan(_near(m))
        assert plan == dense_plan(m), trial
        roots.append(plan[1].count(-1))
    assert max(roots) >= 3 and roots.count(1) >= 10


@pytest.mark.parametrize("name", CLOSED_SURFACES)
@pytest.mark.parametrize("times", [0, 1])
def test_reindexed_corpus_and_subdivisions(name, times):
    M = intersection_matrix(subdivided(name, times))
    for seed in (1, 2):
        m = reindexed(M, seed).entries
        order, parent, meets = _plan(_near(m))
        assert (order, parent, meets) == dense_plan(m), seed
        assert parent.count(-1) == 1
