"""The bijection-search kernel must agree entry-for-entry with a
brute-force reference."""

import random
import tracemalloc
from itertools import groupby, permutations

import pytest

from trimat import (
    Extended,
    IntersectionMatrix,
    detect_exceptional,
    find_intersection_preserving_bijections,
    intersection_matrix,
    standard,
)
from trimat._search import _in_order, _near, _plan, iter_bijections
from trimat.catalog import CLOSED_SURFACES, _grid_torus
from trimat.intersection import _extend
from trimat.verification import simplicial_automorphisms

from inputs import TORI, random_matrix, reindexed, reindexed_relabelled


def found(M, M2, limit=None):
    """The image sequences of the preserving bijections from M to M2."""
    return [g.forward for g in find_intersection_preserving_bijections(M, M2, limit)]


def sorted_by_group(raw, k):
    """A raw kernel stream with each run of maps sharing the images of rows
    0..k-1 sorted in place; the runs must ascend."""
    heads, out = [], []
    for head, group in groupby(raw, key=lambda g: g[:k]):
        heads.append(head)
        out += sorted(group)
    assert heads == sorted(set(heads))
    return out


class CountedRows(tuple):
    """A matrix whose row reads through indexing are counted in ``reads``."""

    reads = 0

    def __getitem__(self, j):
        self.reads += 1
        return tuple.__getitem__(self, j)


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


def random_kernel_inputs():
    """Forty random pairs, half of them a matrix and a reindexing of it."""
    rng = random.Random(2024)
    for _ in range(40):
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
        yield IntersectionMatrix(m1), IntersectionMatrix(m2)


class TestKernel:
    def test_matches_reference_on_random_matrices(self):
        for trial, (M, M2) in enumerate(random_kernel_inputs()):
            assert found(M, M2) == reference_search(M.entries, M2.entries), (trial, M.n)

    def test_limit_prefix(self):
        M = intersection_matrix(standard("octahedron"))
        full = found(M, M)
        assert len(full) == 48
        assert found(M, M, 7) == full[:7]
        assert found(M, M, 0) == []

    def test_rows_must_have_equal_entry_multisets(self):
        # The two rows do not meet, so no entry >= 0 is checked between
        # them; only the row rule keeps -1 from being mapped onto 0.
        M, M2 = IntersectionMatrix(((2, -1), (-1, 2))), IntersectionMatrix(((2, 0), (0, 2)))
        assert found(M, M2) == []


class TestPlacementOrder:
    """Rows are placed in BFS order over the entry-1 graph, so after a
    reindexing most of them are placed out of index order; the output must
    still be lexicographic, and ``limit`` must still cut a prefix of it."""

    @pytest.mark.parametrize("name", ["torus7", "tp10"])
    def test_limit_prefix_from_reindexed_source(self, name):
        M = intersection_matrix(standard(name))
        m1, m2 = reindexed(M, 1), reindexed(M, 2)
        order, _, _ = _plan(_near(m1.entries))
        assert order != sorted(order)
        full = found(m1, m2)
        assert full and full == sorted(full)
        for k in range(len(full) + 1):
            assert found(m1, m2, k) == full[:k]

    def test_no_edge_pairs_first_is_identity(self):
        # No entry-1 pair: every row is its own component and rows are
        # placed in index order, so the first of the 9! maps comes out
        # without the rest being enumerated.
        n = 9
        m = tuple(tuple(2 if i == j else 0 for j in range(n)) for i in range(n))
        m2 = CountedRows(m)
        M, M2 = IntersectionMatrix(m), IntersectionMatrix._trusted(m2)
        assert next(iter_bijections(M, M2)) == tuple(range(n))
        assert m2.reads < n * n  # one candidate image tried per row

    def test_matches_reference_with_several_components(self):
        # Entry 1 only inside blocks of rows, so the entry-1 graph has
        # several components and the search starts at several roots.
        rng = random.Random(808)
        n = 7
        for trial in range(25):
            block = [rng.randrange(3) for _ in range(n)]
            m1 = [[2] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    choices = (-1, 0, 1, 1) if block[i] == block[j] else (-1, 0)
                    m1[i][j] = m1[j][i] = rng.choice(choices)
            m1 = tuple(map(tuple, m1))
            perm = list(range(n))
            rng.shuffle(perm)
            m2 = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    m2[perm[i]][perm[j]] = m1[i][j]
            m2 = tuple(map(tuple, m2))
            _, parent, _ = _plan(_near(m1))
            assert parent.count(-1) >= 2, trial
            got = found(IntersectionMatrix(m1), IntersectionMatrix(m2))
            assert got == reference_search(m1, m2), trial


class TestCosets:
    """After the first group, the kernel searches only for the first map of
    each group and composes the rest from the first group's stabiliser."""

    @pytest.mark.parametrize("name", ["octahedron", "icosahedron", "torus7", "tp10"])
    def test_later_groups_are_composed_not_searched(self, name):
        # Searching every map reads about one target row per row and map,
        # or more; composing leaves most of those reads out.
        M = intersection_matrix(standard(name))
        for seed in range(10):
            m2 = CountedRows(reindexed(M, seed).entries)
            maps = sum(1 for _ in iter_bijections(M, IntersectionMatrix._trusted(m2)))
            assert m2.reads < 0.75 * maps * M.n, seed


class TestOrbits:
    """Later groups are composed from the automorphisms already found when
    one of them carries a visited group's prefix onto the new one; the
    6-regular tori T(a, b), with up to 6n maps, show it."""

    @pytest.mark.parametrize("size,maps_per_row", TORI, ids=[f"T{a}x{b}" for (a, b), _ in TORI])
    def test_counts_and_order_onto_a_reindexed_copy(self, size, maps_per_row):
        K = _grid_torus(*size)
        K2 = reindexed_relabelled(K, sum(size))
        M, M2 = intersection_matrix(K), intersection_matrix(K2)
        n, m1, m2 = M.n, M.entries, M2.entries
        raw = list(iter_bijections(M, M2))
        assert len(raw) == maps_per_row * n
        assert len(set(raw)) == len(raw)
        for g in raw:
            assert all([m2[g[i]][x] for x in g] == list(m1[i]) for i in range(n))
        assert sorted_by_group(raw, _in_order(M._plan[0])) == found(M, M2)
        if n <= 72:
            extended = sum(isinstance(_extend(K, K2, g), Extended) for g in raw)
            assert extended == len(simplicial_automorphisms(K))

    @pytest.mark.parametrize("a", range(4, 9))
    def test_full_enumeration_reads_few_target_rows(self, a):
        # A kernel that searches for the first map of every group reads
        # 106n to 412n target rows here; taking most groups from the
        # automorphisms already found leaves about 14n to 23n.
        M = intersection_matrix(_grid_torus(a, a))
        m2 = CountedRows(reindexed(M, a).entries)
        maps = sum(1 for _ in iter_bijections(M, IntersectionMatrix._trusted(m2)))
        assert maps == 6 * M.n
        assert m2.reads <= 30 * M.n

    def test_limit_keeps_memory_within_the_output(self):
        # The kernel keeps one automorphism per group it has visited, not
        # the orbit of every group, so a short prefix stays cheap on
        # T(16, 16) (n = 512, 3,072 maps); closing the orbit eagerly took
        # 6.9 MB.
        M = intersection_matrix(_grid_torus(16, 16))
        M2 = reindexed(M, 16)
        # The plan and the view are facts the matrices keep, not search state.
        M._plan
        M2._view
        tracemalloc.start()
        try:
            assert len(found(M, M2, 50)) == 50
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def reindexed_surface_inputs():
    """Ten pairs of reindexed copies of each catalog closed surface."""
    for name in CLOSED_SURFACES:
        M = intersection_matrix(standard(name))
        for seed in range(10):
            yield reindexed(M, seed), reindexed(M, seed + 10)


class TestSearchOrder:
    """The kernel yields maps in search order; only ``find`` sorts them,
    one group (the maps that share the images of rows 0..k-1) at a time."""

    @pytest.mark.parametrize(
        "inputs", [random_kernel_inputs, reindexed_surface_inputs], ids=["random", "surfaces"]
    )
    def test_find_is_the_raw_stream_sorted_by_group(self, inputs):
        for trial, (M, M2) in enumerate(inputs()):
            raw = list(iter_bijections(M, M2))
            assert len(set(raw)) == len(raw), trial
            got = found(M, M2)
            assert sorted(raw) == sorted(got), trial
            # Groups are contiguous and ascending.
            assert got == sorted_by_group(raw, _in_order(M._plan[0])), trial

    @pytest.mark.parametrize("name", ["tp10", "tp12"])
    def test_exceptional_detection_stops_at_the_first_map(self, name):
        # ``find`` with limit 1 must sort the first group, so it reads it
        # all; detection needs any one map and stops at the first.
        source = intersection_matrix(standard(name))
        for seed in range(10):
            m = reindexed(source, seed).entries
            detected, listed = CountedRows(m), CountedRows(m)
            assert detect_exceptional(IntersectionMatrix._trusted(detected)) == name.upper()
            assert found(source, IntersectionMatrix._trusted(listed), 1)
            assert detected.reads < listed.reads, seed
