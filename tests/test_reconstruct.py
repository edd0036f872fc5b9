"""Reconstruction from bare matrices and exceptional-matrix detection."""

import importlib
import random
from itertools import combinations

import pytest

from trimat import (
    BudgetExceededError,
    IntersectionMatrix,
    PatternError,
    ReconstructionError,
    Triangle,
    TriangleBijection,
    detect_exceptional,
    intersection_matrix,
    isomorphic,
    moebius5,
    ncycle_matrix,
    reconstruct,
    standard,
    validate_closed_surface,
)
from trimat.reconstruct import DEFAULT_NODE_CAP, _build, _grow

from inputs import matrix_by_definition, random_matrix, reindexed


def unrealizable_6x6():
    """Each triangle edge-adjacent to the three 'opposite' ones and meeting
    the rest in a vertex.  No 6-triangle closed surface has this matrix:
    a sphere with 6 faces is the bipyramid (whose adjacency is a prism,
    not bipartite) and chi rules everything else out."""
    rows = []
    for i in range(6):
        row = []
        for j in range(6):
            if i == j:
                row.append(2)
            elif (i - j) % 6 in (1, 3, 5):
                row.append(1)
            else:
                row.append(0)
        rows.append(tuple(row))
    return IntersectionMatrix(tuple(rows))


def two_tetrahedra():
    """Two disjoint tetrahedra: three 1s in every row, but the entry-1
    graph has two components."""
    T = intersection_matrix(standard("tetrahedron")).entries
    return IntersectionMatrix(
        tuple(row + (-1,) * 4 for row in T) + tuple((-1,) * 4 + row for row in T)
    )


# Three 1s per row, but rows 0, 2 and 5 are one triangle three times.
OFF_DIAGONAL_TWO_ROWS = (
    (2, 1, 2, 1, 1, 2),
    (1, 2, 1, 2, 0, 1),
    (2, 1, 2, 1, 1, 2),
    (1, 2, 1, 2, 0, 1),
    (1, 0, 1, 0, 2, 1),
    (2, 1, 2, 1, 1, 2),
)


class TestReconstruct:
    def test_tetrahedron(self, tetrahedron):
        M = intersection_matrix(tetrahedron)
        result = reconstruct(M)
        assert intersection_matrix(result.complex).entries == M.entries
        assert result.ambiguity is None
        assert result.all_solutions_isomorphic is True
        assert isomorphic(tetrahedron, result.complex)

    def test_fresh_labels(self, tetrahedron):
        result = reconstruct(intersection_matrix(tetrahedron))
        assert set(result.complex.vertices()) == {"v0", "v1", "v2", "v3"}

    def test_tp10_flagged(self, tp10):
        result = reconstruct(intersection_matrix(tp10))
        assert result.ambiguity == "TP10"
        assert result.all_solutions_isomorphic is True
        assert isomorphic(tp10, result.complex)

    def test_tp12_flagged(self, tp12):
        result = reconstruct(intersection_matrix(tp12))
        assert result.ambiguity == "TP12"
        assert result.all_solutions_isomorphic is True
        assert isomorphic(tp12, result.complex)

    def test_round_trip_matrix_is_fixed_point(self, corpus):
        for name, K in corpus:
            M = intersection_matrix(K)
            result = reconstruct(M, find_all_solutions=False)
            assert intersection_matrix(result.complex).entries == M.entries, name
            assert validate_closed_surface(result.complex).is_closed_surface, name
            # Stopping early returns the first solution the full search finds.
            assert result.complex == reconstruct(M).complex, name

    def test_skipping_continuation_leaves_verdict_open(self, tetrahedron):
        result = reconstruct(
            intersection_matrix(tetrahedron), find_all_solutions=False
        )
        assert result.all_solutions_isomorphic is None

    def test_matrix_with_rows_given_as_lists(self, octahedron):
        M = intersection_matrix(octahedron)
        result = reconstruct(IntersectionMatrix([list(row) for row in M.entries]))
        assert intersection_matrix(result.complex) == M
        assert result.all_solutions_isomorphic is True

    def test_checks_the_matrix_once(self, corpus, monkeypatch):
        module = importlib.import_module("trimat.reconstruct")
        search = importlib.import_module("trimat._search")
        check, near, plan = module._check_preconditions, search._near, search._plan
        for name, K in corpus:
            # The catalog's tp10 and tp12 complexes keep their matrices,
            # and those matrices their own views and plans.
            detect_exceptional(intersection_matrix(K))
        calls, views, plans = [], [], []
        monkeypatch.setattr(
            module, "_check_preconditions", lambda M: (calls.append(M), check(M))
        )
        monkeypatch.setattr(search, "_near", lambda m: (views.append(m), near(m))[1])
        monkeypatch.setattr(search, "_plan", lambda v: (plans.append(v), plan(v))[1])
        for seed, (name, K) in enumerate(corpus):
            M = reindexed(intersection_matrix(K), seed)
            calls.clear()
            views.clear()
            plans.clear()
            reconstruct(M)
            assert calls == [M], name
            # One view and one plan of M serve the bijection kernel and the
            # growth search; the isomorphism checks between solutions run
            # on the vertex walk and read no matrix.
            assert len(views) == 1 and views[0] is M.entries, name
            assert len(plans) == 1 and plans[0] is M._view, name
            views.clear()
            plans.clear()
            reconstruct(M)
            assert views == [] and plans == [], name

    def test_answer_matrix_is_computed_from_its_triangles(self, corpus):
        # The round-trip criterion compares two matrices worked out
        # independently: the answer's must not be M itself.
        for seed, (name, K) in enumerate(corpus):
            M = reindexed(intersection_matrix(K), seed)
            L = reconstruct(M).complex
            # The answer's triangles are made without the label checks.
            assert all(t == Triangle(t.vertices) for t in L.triangles), name
            own = intersection_matrix(L)
            assert own is not M and own.entries is not M.entries, name
            assert own.entries == matrix_by_definition(L) == M.entries, name

    def test_placement_is_kept_only_for_its_own_matrix(self, octahedron):
        # A placement is a closed surface either way; only the comparison
        # of its own matrix with M tells the two apart.
        M = intersection_matrix(octahedron)
        other = reindexed(M, seed=1)
        assert other.entries != M.entries
        placement = next(_grow(M, DEFAULT_NODE_CAP))
        assert _build(placement, other) is None
        K = _build(placement, M)
        assert validate_closed_surface(K).is_closed_surface
        assert intersection_matrix(K) == M

    def test_permutation_invariance(self, corpus):
        rng = random.Random(404)
        for name, K in corpus:
            M = intersection_matrix(K)
            base = reconstruct(M, find_all_solutions=False)
            for _ in range(20):
                perm = list(range(M.n))
                rng.shuffle(perm)
                permuted = M.permuted(TriangleBijection(tuple(perm)))
                # Growth along the dual graph places about one candidate
                # per triangle whatever the index order: 2n is ample.
                result = reconstruct(permuted, node_cap=2 * M.n)
                assert result.ambiguity == base.ambiguity, name
                assert result.all_solutions_isomorphic is True, name
                assert isomorphic(result.complex, base.complex), name


def brute_placements(M):
    """Every exact placement of M, found plainly: rows in index order, each
    trying every triangle over the used vertices and the next fresh ones,
    fresh vertices taken in order, kept when it shares exactly
    M[i][j] + 1 vertices with every earlier row j."""
    m, n = M.entries, M.n
    found, tri = [], []

    def place(i, used):
        if i == n:
            found.append(tuple(tri))
            return
        for t in combinations(range(used + 3), 3):
            new = sum(x >= used for x in t)
            if t[3 - new :] != tuple(range(used, used + new)):
                continue
            if all(len(set(t).intersection(tri[j])) == m[i][j] + 1 for j in range(i)):
                tri.append(t)
                place(i + 1, used + new)
                tri.pop()

    place(0, 0)
    return found


def shape(placement):
    """A placement up to renaming of vertices: the sorted tuple of each
    vertex's rows."""
    rows = {}
    for r, t in enumerate(placement):
        for x in t:
            rows.setdefault(x, []).append(r)
    return tuple(sorted(map(tuple, rows.values())))


def entry_one_connected(rows):
    seen, todo = {0}, [0]
    while todo:
        r = todo.pop()
        for s, v in enumerate(rows[r]):
            if v == 1 and s not in seen:
                seen.add(s)
                todo.append(s)
    return len(seen) == len(rows)


def random_patterns(seed):
    """60 symmetric patterns of 2 to 7 rows whose entry-1 graph is
    connected: 30 with entries drawn at random, most of which no triangles
    realize, and 30 read off random triangles over 6 vertices, repeats
    allowed, which some placement realizes by construction."""
    rng = random.Random(seed)
    drawn, realized = [], []
    while len(drawn) < 30 or len(realized) < 30:
        n = rng.randint(2, 7)
        tris = [set(rng.sample(range(6), 3)) for _ in range(n)]
        read_off = tuple(tuple(len(s & t) - 1 for t in tris) for s in tris)
        for found, rows in ((drawn, random_matrix(n, rng)), (realized, read_off)):
            if len(found) < 30 and entry_one_connected(rows):
                found.append(IntersectionMatrix(rows))
    return drawn + realized


class TestGrowAgainstBruteForce:
    """``_grow`` yields each exact placement once up to renaming of
    vertices, and misses none that a plain search finds."""

    @staticmethod
    def agree(M):
        grown = [shape(p) for p in _grow(M, DEFAULT_NODE_CAP)]
        assert len(set(grown)) == len(grown)
        assert set(grown) == set(map(shape, brute_placements(M)))
        return len(grown)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_cycles(self, n):
        assert self.agree(ncycle_matrix(n)) >= 1

    def test_corpus(self, corpus):
        for name, K in corpus:
            assert self.agree(intersection_matrix(K)) >= 1, name

    def test_reindexed(self, octahedron, tp10, tp12):
        for seed, K in enumerate((octahedron, tp10, tp12)):
            assert self.agree(reindexed(intersection_matrix(K), seed)) >= 1

    def test_random_patterns(self):
        counts = [self.agree(M) for M in random_patterns(20)]
        # The 30 patterns read off triangles all have a placement.
        assert all(counts[30:])


class TestReconstructErrors:
    def test_row_condition(self):
        # The 4-cycle pattern has only two edge-neighbours per triangle.
        with pytest.raises(PatternError):
            reconstruct(ncycle_matrix(4))

    def test_off_diagonal_two(self):
        M = IntersectionMatrix(OFF_DIAGONAL_TWO_ROWS)
        with pytest.raises(PatternError):
            reconstruct(M)
        with pytest.raises(PatternError):
            detect_exceptional(M)

    def test_moebius_band_matrix_rejected(self):
        with pytest.raises(PatternError):
            reconstruct(intersection_matrix(moebius5()))

    def test_no_solution(self):
        with pytest.raises(ReconstructionError):
            reconstruct(unrealizable_6x6())

    def test_disconnected_dual_graph(self):
        M = two_tetrahedra()
        assert list(_grow(M, DEFAULT_NODE_CAP)) == []
        with pytest.raises(ReconstructionError):
            reconstruct(M)
        # Two rows that are one triangle and no entry 1: placing (0, 1, 2)
        # twice reproduces every entry, but the entry-1 graph has two
        # components, so the growth search yields nothing.
        assert list(_grow(IntersectionMatrix(((2, 2), (2, 2))), DEFAULT_NODE_CAP)) == []

    def test_budget(self, icosahedron):
        with pytest.raises(BudgetExceededError):
            reconstruct(intersection_matrix(icosahedron), node_cap=10)


class TestDetectExceptional:
    def test_canonical_matrices(self, tp10, tp12):
        assert detect_exceptional(intersection_matrix(tp10)) == "TP10"
        assert detect_exceptional(intersection_matrix(tp12)) == "TP12"

    def test_shuffled_matrices(self, tp10, tp12):
        rng = random.Random(77)
        for K, want in ((tp10, "TP10"), (tp12, "TP12")):
            M = intersection_matrix(K)
            for _ in range(20):
                perm = list(range(M.n))
                rng.shuffle(perm)
                shuffled = M.permuted(TriangleBijection(tuple(perm)))
                assert detect_exceptional(shuffled) == want

    def test_sizes_short_circuit(self, icosahedron, torus7):
        assert detect_exceptional(intersection_matrix(icosahedron)) is None
        assert detect_exceptional(intersection_matrix(torus7)) is None

    def test_none_on_rest_of_corpus(self, corpus):
        for name, K in corpus:
            want = {"tp10": "TP10", "tp12": "TP12"}.get(name)
            assert detect_exceptional(intersection_matrix(K)) == want, name
