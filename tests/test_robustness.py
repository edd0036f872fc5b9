"""Behaviour beyond the fixed corpus: subdivided surfaces and hostile
matrices.  Reconstruction must stay fast, deterministic, and honest about
what it cannot realize."""

import random
from collections import Counter

import pytest

from trimat import (
    BudgetExceededError,
    Extended,
    IntersectionMatrix,
    ReconstructionError,
    TriangleBijection,
    Triangulation,
    TrimatError,
    boundary_edges,
    classify_realization,
    detect_exceptional,
    euler_characteristic,
    extend_to_simplicial,
    find_intersection_preserving_bijections,
    intersection_matrix,
    is_intersection_preserving,
    isomorphic,
    orientability,
    parse_matrix,
    parse_triangulation,
    reconstruct,
    serialize_matrix,
    serialize_triangulation,
    standard,
    validate_closed_surface,
    vertex_star,
)
from trimat.catalog import CLOSED_SURFACES, entry
from trimat.cli import main
from trimat.verification import simplicial_automorphisms

from inputs import random_complex, reindexed, reindexed_relabelled, subdivide, subdivided


class TestSubdividedSurfaces:
    @pytest.mark.parametrize("base,chi", [("tetrahedron", 2), ("tp10", 1)])
    def test_subdivision_round_trips(self, base, chi):
        K = subdivide(standard(base))
        report = validate_closed_surface(K)
        assert report.is_closed_surface
        assert euler_characteristic(K) == chi
        M = intersection_matrix(K)
        result = reconstruct(M)
        assert intersection_matrix(result.complex).entries == M.entries
        assert result.all_solutions_isomorphic is True
        # Only the 10- and 12-triangle projective planes are ambiguous; a
        # subdivided projective plane with 40 triangles is not.
        assert result.ambiguity is None

    def test_reconstruction_deterministic(self):
        M = intersection_matrix(standard("torus7"))
        first = reconstruct(M, find_all_solutions=False)
        second = reconstruct(M, find_all_solutions=False)
        assert first.complex == second.complex


class TestLargeSurfaces:
    """Sizes beyond the interpreter's recursion limit for a search that
    recursed once per matrix pair or per matrix row."""

    @pytest.mark.parametrize("base,n", [("tetrahedron", 64), ("torus7", 224)])
    def test_reindexed_twice_subdivided_round_trips(self, base, n):
        M = reindexed(intersection_matrix(subdivided(base, 2)), seed=n)
        assert M.n == n
        # Growth along the dual graph places about one candidate per
        # triangle, so a budget of 2n is ample.
        result = reconstruct(M, node_cap=2 * M.n)
        assert intersection_matrix(result.complex).entries == M.entries
        assert result.all_solutions_isomorphic is True
        assert result.ambiguity is None

    def test_reindexed_four_fold_subdivided_tetrahedron_round_trips(self):
        M = reindexed(intersection_matrix(subdivided("tetrahedron", 4)), seed=1024)
        assert M.n == 1024
        result = reconstruct(M, node_cap=2 * M.n)
        assert intersection_matrix(result.complex) == M
        assert result.all_solutions_isomorphic is True

    def test_cli_reconstruct_exits_zero(self, capsys, tmp_path):
        M = reindexed(intersection_matrix(subdivided("tetrahedron", 2)), seed=5)
        path = tmp_path / "m.imat"
        path.write_text(serialize_matrix(M))
        assert main(["reconstruct", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# all_solutions_isomorphic: true" in out

    def test_first_self_map_is_the_identity(self):
        M = intersection_matrix(subdivided("tetrahedron", 4))
        assert M.n == 1024
        assert find_intersection_preserving_bijections(M, M, limit=1) == [
            TriangleBijection.identity(M.n)
        ]


class TestReindexedSources:
    """Full enumeration between two independently reindexed, relabelled
    copies of a subdivided surface.  A search that placed rows in index
    order took 12 s on the n = 56 pair and more than 200 s on the n = 80
    one; placed along the dual graph, each row after the first has at most
    3 candidates, whatever the indexing."""

    @pytest.mark.parametrize("base,n,count", [("torus7", 56, 168), ("icosahedron", 80, 120)])
    def test_every_preserving_map_in_order_and_extends(self, base, n, count):
        K = subdivided(base, 1)
        A, B = reindexed_relabelled(K, 1), reindexed_relabelled(K, 2)
        M, M2 = intersection_matrix(A), intersection_matrix(B)
        assert M.n == n
        maps = find_intersection_preserving_bijections(M, M2)
        images = [g.forward for g in maps]
        assert len(images) == count
        assert all(a < b for a, b in zip(images, images[1:]))
        for g in maps:
            assert M.permuted(g) == M2
            assert isinstance(extend_to_simplicial(A, B, g), Extended)

    def test_isomorphic(self):
        K = subdivided("torus7", 1)
        assert isomorphic(reindexed_relabelled(K, 1), reindexed_relabelled(K, 2))


def random_three_regular_matrix(n: int, rng: random.Random) -> IntersectionMatrix:
    """A symmetric matrix with diagonal 2 and exactly three 1s per row
    (union of three random perfect matchings), remaining entries drawn
    from {0, -1}.  Usually realizes no surface."""
    while True:
        adj: dict[int, set[int]] = {i: set() for i in range(n)}
        ok = True
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            pairs = [(perm[i], perm[i + 1]) for i in range(0, n, 2)]
            if any(u == v or v in adj[u] for u, v in pairs):
                ok = False
                break
            for u, v in pairs:
                adj[u].add(v)
                adj[v].add(u)
        if ok and all(len(adj[i]) == 3 for i in range(n)):
            break
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = 1 if j in adj[i] else rng.choice((0, 0, -1))
            rows[i][j] = rows[j][i] = value
    return IntersectionMatrix(tuple(tuple(r) for r in rows))


class TestAdversarialMatrices:
    def test_always_terminates_with_a_verdict(self):
        rng = random.Random(99)
        realized = rejected = 0
        for _ in range(30):
            M = random_three_regular_matrix(rng.choice((4, 6, 8, 10)), rng)
            try:
                result = reconstruct(M, node_cap=200_000)
            except ReconstructionError:
                rejected += 1
            except BudgetExceededError:
                pytest.fail("node budget should be ample at these sizes")
            else:
                realized += 1
                got = intersection_matrix(result.complex).entries
                assert got == M.entries
                # The paper's theorem: the matrix fixes the surface.
                assert result.all_solutions_isomorphic is True
        assert realized + rejected == 30
        assert rejected > 0  # most random patterns are not surfaces

    def test_near_valid_matrices_end_in_a_verdict(self):
        # Flipping distinct symmetric pairs 0 <-> -1 keeps symmetry, the
        # diagonal and each row's three 1s, so the row checks pass and the
        # growth search runs on a matrix one to three pairs from a surface.
        matrices = (
            intersection_matrix(K)
            for name in CLOSED_SURFACES
            for K in (standard(name), subdivided(name, 1))
        )
        sources = [M for M in matrices if min(map(min, M.entries)) < 1]
        assert len(sources) == 11  # all but the plain tetrahedron
        rng = random.Random(29)
        for trial in range(240):
            M = reindexed(rng.choice(sources), rng.randrange(10**6))
            rows = [list(row) for row in M.entries]
            pairs = [(i, j) for i in range(M.n) for j in range(i) if rows[i][j] < 1]
            for i, j in rng.sample(pairs, rng.randint(1, 3)):
                rows[i][j] = rows[j][i] = -1 - rows[i][j]
            mutant = IntersectionMatrix(rows)
            assert mutant.entries != M.entries, trial
            try:
                result = reconstruct(mutant, node_cap=20 * mutant.n)
            except TrimatError:
                continue
            assert intersection_matrix(result.complex).entries == mutant.entries, trial
            assert validate_closed_surface(result.complex).is_closed_surface, trial
            assert result.all_solutions_isomorphic is True, trial


def orientable_by_definition(K: Triangulation) -> bool:
    """Whether some choice of triangle orientations uses every directed
    edge once.  Triangle 0 keeps the cyclic order of its sorted vertices;
    each other one is tried both ways, one bit of ``choice`` each."""
    for choice in range(2 ** (K.n - 1)):
        used: set[tuple[str, str]] = set()
        for i, (a, b, c) in enumerate(t.vertices for t in K.triangles):
            if i and choice >> (i - 1) & 1:
                run = {(b, a), (c, b), (a, c)}
            else:
                run = {(a, b), (b, c), (c, a)}
            if used & run:
                break
            used |= run
        else:
            return True
    return False


class TestOrientabilityByDefinition:
    """``orientability`` reads, for each shared edge, whether it holds the
    middle vertex of each sorted triangle on it.  Reindexed, relabelled
    copies and subdivisions change those answers, which the catalog
    labellings alone would leave fixed."""

    @pytest.mark.parametrize("name", ["tetrahedron", "octahedron", "torus7", "tp10", "tp12"])
    def test_matches_brute_force(self, name):
        K = standard(name)
        assert orientable_by_definition(K) == entry(name).orientable
        for seed in range(3):
            copy = reindexed_relabelled(K, seed)
            assert orientability(copy) == orientable_by_definition(copy), seed

    @pytest.mark.parametrize("name", CLOSED_SURFACES)
    def test_subdivision_keeps_verdict(self, name):
        assert orientability(subdivide(standard(name))) == entry(name).orientable


def drawn_complex(rng: random.Random, kind: int) -> Triangulation:
    """A random complex on 3-7 vertices (kind 0), a catalog closed surface
    (kind 1) or its 1-fold subdivision (kind 2)."""
    if kind == 0:
        return random_complex(rng, rng.randint(3, 7))
    K = standard(rng.choice(CLOSED_SURFACES))
    return subdivide(K) if kind == 2 else K


class TestErrorContract:
    """Every public operation ends in a result or a ``TrimatError``: on
    random complexes, which are mostly not surfaces, on catalog surfaces
    and their subdivisions, and on pairs of these with reindexed,
    relabelled copies.  Any other exception fails the test."""

    def test_public_operations_return_or_raise_trimat_errors(self):
        rng = random.Random(30)
        outcomes = Counter()

        def call(op, *args, **kwargs):
            try:
                result = op(*args, **kwargs)
            except TrimatError:
                outcomes["raised"] += 1
                return None
            outcomes["returned"] += 1
            return result

        for trial in range(300):
            K = drawn_complex(rng, rng.randrange(3))
            if rng.randrange(3):
                K2 = drawn_complex(rng, rng.randrange(2))
            else:
                K2 = reindexed_relabelled(K, trial)
            M, M2 = call(intersection_matrix, K), call(intersection_matrix, K2)
            for op in (validate_closed_surface, orientability, euler_characteristic,
                       boundary_edges, simplicial_automorphisms):
                call(op, K)
            for v in K.vertices():
                call(vertex_star, K, v)
            call(classify_realization, K.triangles)
            assert call(parse_triangulation, call(serialize_triangulation, K)) == K, trial
            assert call(parse_matrix, call(serialize_matrix, M)) == M, trial
            call(reconstruct, M, node_cap=50 * M.n)
            call(reconstruct, M, node_cap=50 * M.n, find_all_solutions=False)
            call(detect_exceptional, M)
            call(isomorphic, K, K2)
            for g in call(find_intersection_preserving_bijections, M, M2, limit=3) or ():
                call(extend_to_simplicial, K, K2, g)
            if K.n == K2.n:
                f = TriangleBijection(tuple(rng.sample(range(K.n), K.n)))
                call(extend_to_simplicial, K, K2, f)
                call(is_intersection_preserving, K, K2, f)
                call(M.permuted, f)
        assert outcomes["returned"] and outcomes["raised"], outcomes
