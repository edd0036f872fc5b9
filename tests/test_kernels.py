"""The bijection-search kernel must agree entry-for-entry with a
brute-force reference."""

import random
from itertools import permutations

from trimat import intersection_matrix, standard
from trimat._search_py import search_bijections
from trimat.intersection import _compatibility


def reference_search(m1, m2, limit=None):
    n = len(m1)
    out = []
    for perm in permutations(range(n)):
        if all(
            m2[perm[i]][perm[j]] == m1[i][j] for i in range(n) for j in range(n)
        ):
            out.append(perm)
            if limit is not None and len(out) >= limit:
                break
    return out


def random_matrix(n, rng):
    entries = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = entries[j][i] = rng.choice((-1, 0, 0, 1, 1))
    return tuple(tuple(row) for row in entries)


class TestKernel:
    def test_matches_reference_on_random_matrices(self):
        rng = random.Random(2024)
        for trial in range(40):
            n = rng.randint(2, 6)
            m1 = random_matrix(n, rng)
            if rng.random() < 0.5:
                perm = list(range(n))
                rng.shuffle(perm)
                m2 = tuple(
                    tuple(m1[perm.index(i)][perm.index(j)] for j in range(n))
                    for i in range(n)
                )
            else:
                m2 = random_matrix(n, rng)
            allowed = tuple(
                tuple(
                    sorted(m1[i]) == sorted(m2[j]) for j in range(n)
                )
                for i in range(n)
            )
            got = search_bijections(m1, m2, allowed, None)
            assert got == reference_search(m1, m2), (trial, n)

    def test_limit_prefix(self):
        M = intersection_matrix(standard("octahedron"))
        allowed = _compatibility(M, M)
        full = search_bijections(M.entries, M.entries, allowed, None)
        assert len(full) == 48
        assert search_bijections(M.entries, M.entries, allowed, 7) == full[:7]
        assert search_bijections(M.entries, M.entries, allowed, 0) == []
