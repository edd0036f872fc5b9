"""Intersection matrices, preserving bijections, extension to vertex maps."""

import random
from itertools import permutations

import pytest

from trimat import (
    Extended,
    IntersectionMatrix,
    MappingError,
    NonExtendable,
    ParseError,
    SurfaceError,
    Triangle,
    TriangleBijection,
    Triangulation,
    disk_fan,
    extend_to_simplicial,
    find_intersection_preserving_bijections,
    intersection_dim,
    intersection_matrix,
    is_intersection_preserving,
    isomorphic,
    moebius5,
    moebius6,
    parse_bijection,
    parse_matrix,
    serialize_bijection,
    serialize_matrix,
    standard,
)
from trimat.catalog import _grid_torus
from trimat.verification import simplicial_automorphisms

from inputs import matrix_by_definition, rebind, reindexed_relabelled, subdivide

# The swap self-map of tp10 exchanging the fan 5-cycle around x with the
# band 5-cycle of the r-triangles: g(s_i) = r_(2i mod 5), g(r_i) = s_(2i mod 5).
TP10_SWAP = TriangleBijection((5, 7, 9, 6, 8, 0, 2, 4, 1, 3))

# (preserving bijections, those that extend) from each corpus surface to a
# reindexed, relabelled copy of itself; the second number is the order of
# the simplicial automorphism group.
EXTENSION_COUNTS = {
    "tetrahedron": (24, 24),
    "octahedron": (48, 48),
    "icosahedron": (120, 120),
    "torus7": (42, 42),
    "tp10": (120, 60),
    "tp12": (48, 24),
}


def tp10_expected_matrix():
    """M_tp10 written out from the vertex-set rules rather than computed
    via intersection_matrix: the s-block is the 5-cycle fan pattern, s_i
    meets r_j in an edge only for i = j, and r_i meets r_j in an edge
    exactly when i - j = ±2 mod 5."""
    rows = []
    for i in range(10):
        row = []
        for j in range(10):
            if i == j:
                row.append(2)
            elif i < 5 and j < 5:
                row.append(1 if (i - j) % 5 in (1, 4) else 0)
            elif i >= 5 and j >= 5:
                row.append(1 if (i - j) % 5 in (2, 3) else 0)
            else:
                row.append(1 if i % 5 == j % 5 else 0)
        rows.append(tuple(row))
    return tuple(rows)


class TestIntersectionDim:
    def test_identity(self):
        t = Triangle(("a", "b", "c"))
        assert intersection_dim(t, t) == 2

    def test_disjoint(self):
        assert intersection_dim(Triangle("abc"), Triangle("def")) == -1

    def test_shared_vertex_and_edge(self):
        assert intersection_dim(Triangle("abc"), Triangle("ade")) == 0
        assert intersection_dim(Triangle("abc"), Triangle("abd")) == 1

    def test_tp10_s0_r2(self, tp10):
        # s0 = {a0,a1,x}, r2 = {a2,a3,a0} share exactly the vertex a0.
        assert intersection_dim(tp10.triangles[0], tp10.triangles[7]) == 0


class TestIntersectionMatrix:
    def test_tetrahedron_all_edges(self, tetrahedron):
        M = intersection_matrix(tetrahedron)
        assert all(
            M[i, j] == (2 if i == j else 1) for i in range(4) for j in range(4)
        )

    def test_tp10_matches_definition(self, tp10):
        assert intersection_matrix(tp10).entries == tp10_expected_matrix()

    def test_disjoint_pair(self):
        from trimat import Triangulation

        K = Triangulation([Triangle("abc"), Triangle("def")])
        assert intersection_matrix(K)[0, 1] == -1

    def test_symmetric_diagonal(self, corpus):
        for name, K in corpus:
            M = intersection_matrix(K)
            for i in range(M.n):
                assert M[i, i] == 2, name
                for j in range(M.n):
                    assert M[i, j] == M[j, i], name

    def test_three_edge_neighbours_per_row(self, corpus):
        for name, K in corpus:
            M = intersection_matrix(K)
            for i in range(M.n):
                assert sum(1 for v in M.entries[i] if v == 1) == 3, name

    def test_validation_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            IntersectionMatrix(((2, 1), (0, 2)))

    def test_validation_rejects_bad_diagonal(self):
        with pytest.raises(ValueError):
            IntersectionMatrix(((1, 0), (0, 2)))

    def test_validation_rejects_out_of_range_and_ragged_rows(self):
        with pytest.raises(ValueError):
            IntersectionMatrix(((2, 3), (3, 2)))
        with pytest.raises(ValueError):
            IntersectionMatrix(((2, -2), (-2, 2)))
        with pytest.raises(ValueError):
            IntersectionMatrix(((2, 1), (1,)))

    def test_rows_given_as_lists(self, octahedron):
        M = intersection_matrix(octahedron)
        L = IntersectionMatrix([list(row) for row in M.entries])
        assert L.entries == M.entries and type(L.entries[0]) is tuple
        assert L == M and hash(L) == hash(M)

    def test_permuted_reindexes(self, tp10):
        M = intersection_matrix(tp10)
        perm = TriangleBijection(tuple(reversed(range(10))))
        P = M.permuted(perm)
        for i in range(10):
            for j in range(10):
                assert P[perm(i), perm(j)] == M[i, j]

    def test_permuted_by_a_random_reindexing(self, tp12):
        # Not an involution, so the inverse and the map itself differ.
        M = intersection_matrix(tp12)
        images = list(range(12))
        random.Random(7).shuffle(images)
        perm = TriangleBijection(tuple(images))
        assert perm.inverse() != perm
        P = M.permuted(perm)
        for i in range(12):
            for j in range(12):
                assert P[perm(i), perm(j)] == M[i, j]
        one = IntersectionMatrix(((2,),))
        assert one.permuted(TriangleBijection.identity(1)) == one

    def test_permuted_rejects_another_size(self, tp10):
        with pytest.raises(MappingError, match="permutation size 4"):
            intersection_matrix(tp10).permuted(TriangleBijection.identity(4))


class TestMatrixConstruction:
    """``intersection_matrix`` counts shared vertices through the vertex
    index and skips the constructor's validation, as ``permuted`` does.
    Both must give what the definition and the validating constructor
    give."""

    @staticmethod
    def complexes(corpus):
        out = []
        for seed, (name, K) in enumerate(corpus):
            once = subdivide(K)
            out += [(name, K), (f"{name}/1", once), (f"{name}/2", subdivide(once))]
            out += [(f"{name}~", reindexed_relabelled(K, seed))]
            out += [(f"{name}/1~", reindexed_relabelled(once, seed))]
        return out + [("disk_fan", disk_fan(5)), ("moebius5", moebius5()), ("moebius6", moebius6())]

    def test_matches_definition_and_validates(self, corpus):
        for name, K in self.complexes(corpus):
            M = intersection_matrix(K)
            assert M.entries == matrix_by_definition(K), name
            assert IntersectionMatrix(M.entries) == M, name

    def test_permuted_is_the_reindexed_complex(self, corpus):
        rng = random.Random(3)
        for name, K in self.complexes(corpus):
            perm = TriangleBijection(tuple(rng.sample(range(K.n), K.n)))
            P = intersection_matrix(K).permuted(perm)
            # Triangle i of K is triangle perm(i) of the reindexed copy.
            moved = [None] * K.n
            for i, t in enumerate(K.triangles):
                moved[perm(i)] = t
            assert P == intersection_matrix(Triangulation(moved)), name
            assert IntersectionMatrix(P.entries) == P, name


class TestPreservingCheck:
    def test_identity_preserves(self, corpus):
        for _, K in corpus:
            assert is_intersection_preserving(K, K, TriangleBijection.identity(K.n))

    def test_all_tetrahedron_permutations_preserve(self, tetrahedron):
        for perm in permutations(range(4)):
            assert is_intersection_preserving(
                tetrahedron, tetrahedron, TriangleBijection(perm)
            )

    def test_tp10_transposition_breaks(self, tp10):
        # Swapping s0 and r0 alone: dim(s0 ∩ s1) = 1 but dim(r0 ∩ s1) = 0.
        forward = list(range(10))
        forward[0], forward[5] = 5, 0
        assert not is_intersection_preserving(
            tp10, tp10, TriangleBijection(tuple(forward))
        )

    def test_size_mismatch_raises(self, tetrahedron, tp10):
        with pytest.raises(MappingError):
            is_intersection_preserving(
                tetrahedron, tp10, TriangleBijection.identity(4)
            )


class TestBijectionSearch:
    def test_tetrahedron_finds_all_24(self, tetrahedron):
        M = intersection_matrix(tetrahedron)
        found = find_intersection_preserving_bijections(M, M)
        assert [g.forward for g in found] == sorted(permutations(range(4)))

    def test_size_mismatch_yields_empty(self, tetrahedron, tp10):
        out = find_intersection_preserving_bijections(
            intersection_matrix(tetrahedron), intersection_matrix(tp10)
        )
        assert out == []

    def test_limit(self, tetrahedron):
        M = intersection_matrix(tetrahedron)
        assert len(find_intersection_preserving_bijections(M, M, limit=5)) == 5

    def test_lexicographic_order(self, tp10):
        M = intersection_matrix(tp10)
        found = [g.forward for g in find_intersection_preserving_bijections(M, M)]
        assert found == sorted(found)
        assert found[0] == tuple(range(10))

    def test_tp10_contains_fan_band_swap(self, tp10):
        M = intersection_matrix(tp10)
        found = find_intersection_preserving_bijections(M, M)
        assert TP10_SWAP in found

    def test_search_agrees_with_brute_force(self, corpus):
        # Independent oracle: filter raw permutations through the
        # definition-level check.
        for name, K in corpus:
            if K.n > 8:
                continue
            M = intersection_matrix(K)
            brute = [
                perm
                for perm in permutations(range(K.n))
                if is_intersection_preserving(K, K, TriangleBijection(perm))
            ]
            found = [g.forward for g in find_intersection_preserving_bijections(M, M)]
            assert found == brute, name

    def test_found_iff_preserving(self, tp10):
        M = intersection_matrix(tp10)
        found = {g.forward for g in find_intersection_preserving_bijections(M, M)}
        rng = random.Random(11)
        for _ in range(50):
            perm = list(range(10))
            rng.shuffle(perm)
            g = TriangleBijection(tuple(perm))
            assert (g.forward in found) == is_intersection_preserving(tp10, tp10, g)


class TestCompositionAlgebra:
    def test_compose_and_inverse_preserve(self, tp10):
        M = intersection_matrix(tp10)
        found = find_intersection_preserving_bijections(M, M)
        rng = random.Random(5)
        for _ in range(25):
            f, g = rng.choice(found), rng.choice(found)
            assert is_intersection_preserving(tp10, tp10, g.compose(f))
            assert is_intersection_preserving(tp10, tp10, f.inverse())

    def test_identity_composition(self):
        f = TriangleBijection((2, 0, 1))
        assert f.compose(f.inverse()).forward == (0, 1, 2)

    def test_compose_rejects_another_size(self):
        with pytest.raises(MappingError, match="cannot compose sizes 2 and 3"):
            TriangleBijection((2, 0, 1)).compose(TriangleBijection((1, 0)))

    def test_rejects_non_permutation(self):
        with pytest.raises(MappingError):
            TriangleBijection((0, 0, 1))

    def test_images_given_as_a_list(self):
        f = TriangleBijection([1, 0])
        assert f.forward == (1, 0)
        assert f == TriangleBijection((1, 0)) and hash(f) == hash(TriangleBijection((1, 0)))

    def test_iterates_over_its_images(self):
        assert list(TriangleBijection((2, 0, 1))) == [2, 0, 1]


class TestExtension:
    def test_identity_on_tp10_extends_to_identity(self, tp10):
        result = extend_to_simplicial(tp10, tp10, TriangleBijection.identity(10))
        assert isinstance(result, Extended)
        assert result.vertex_map == {v: v for v in tp10.vertices()}

    def test_tetrahedron_extensions_are_vertex_permutations(self, tetrahedron):
        M = intersection_matrix(tetrahedron)
        seen = set()
        for g in find_intersection_preserving_bijections(M, M):
            result = extend_to_simplicial(tetrahedron, tetrahedron, g)
            assert isinstance(result, Extended)
            seen.add(tuple(sorted(result.vertex_map.items())))
        assert len(seen) == 24  # the full vertex permutation group of a,b,c,d

    def test_tp10_swap_is_non_extendable(self, tp10):
        result = extend_to_simplicial(tp10, tp10, TP10_SWAP)
        assert isinstance(result, NonExtendable)
        # Every vertex star maps onto the band cycle whose triangles have
        # empty common intersection, so the lowest label wins.
        assert result.witness_vertex == "a0"

    def test_extended_reproduces_bijection_trianglewise(self, octahedron):
        M = intersection_matrix(octahedron)
        for g in find_intersection_preserving_bijections(M, M, limit=10):
            result = extend_to_simplicial(octahedron, octahedron, g)
            assert isinstance(result, Extended)
            h = result.vertex_map
            for i, t in enumerate(octahedron.triangles):
                image = frozenset(h[v] for v in t.vertices)
                assert image == octahedron.triangles[g(i)].vertex_set

    def test_counts_onto_reindexed_relabelled_copies(self, corpus):
        for seed, (name, K) in enumerate(corpus):
            K2 = reindexed_relabelled(K, seed)
            maps = find_intersection_preserving_bijections(
                intersection_matrix(K), intersection_matrix(K2)
            )
            extended = 0
            for g in maps:
                result = extend_to_simplicial(K, K2, g)
                if isinstance(result, Extended):
                    extended += 1
                    h = result.vertex_map
                    for i, t in enumerate(K.triangles):
                        image = frozenset(h[v] for v in t.vertices)
                        assert image == K2.triangles[g(i)].vertex_set, name
            assert (len(maps), extended) == EXTENSION_COUNTS[name]
            assert extended == len(simplicial_automorphisms(K)), name

    def test_validates_each_complex_once(self, tp10, monkeypatch):
        # A complex keeps its validation report, so extending all 120
        # preserving maps walks each of the two complexes once.
        from trimat import complexes

        K, K2 = Triangulation(tp10.triangles), reindexed_relabelled(tp10, 4)
        real = complexes._is_connected
        walked = []

        def counting(L):
            walked.append(L)
            return real(L)

        monkeypatch.setattr(complexes, "_is_connected", counting)
        maps = find_intersection_preserving_bijections(
            intersection_matrix(K), intersection_matrix(K2)
        )
        assert len(maps) == 120
        for g in maps:
            extend_to_simplicial(K, K2, g)
        assert len(walked) == 2 and walked[0] is K and walked[1] is K2

    def test_rejects_non_preserving_map(self, tp10):
        forward = list(range(10))
        forward[0], forward[5] = 5, 0
        with pytest.raises(MappingError):
            extend_to_simplicial(tp10, tp10, TriangleBijection(tuple(forward)))

    def test_rejects_open_complexes(self):
        fan = disk_fan(5)
        with pytest.raises(SurfaceError):
            extend_to_simplicial(fan, fan, TriangleBijection.identity(5))

    def test_rejects_size_mismatch(self, tetrahedron, octahedron):
        with pytest.raises(MappingError):
            extend_to_simplicial(tetrahedron, octahedron, TriangleBijection.identity(4))
        with pytest.raises(MappingError):
            extend_to_simplicial(tetrahedron, tetrahedron, TriangleBijection.identity(5))


def extension_or_none(K, K2, f):
    """``extend_to_simplicial(K, K2, f)``, or None where it raises
    MappingError."""
    try:
        return extend_to_simplicial(K, K2, f)
    except MappingError:
        return None


class TestExtensionCertificate:
    """A map that extends is trusted to preserve the matrix, and only a map
    that does not extend is checked entry by entry.  MappingError must
    still come exactly for the maps that do not preserve it."""

    def test_all_tetrahedron_permutations(self, tetrahedron):
        for perm in permutations(range(4)):
            f = TriangleBijection(perm)
            result = extension_or_none(tetrahedron, tetrahedron, f)
            assert (result is None) == (not is_intersection_preserving(tetrahedron, tetrahedron, f))
            assert isinstance(result, Extended)

    @pytest.mark.parametrize(
        "name,maps,extended", [("tp10", 120, 60), ("tp12", 48, 24), ("octahedron", 48, 48)]
    )
    def test_raises_exactly_off_the_preserving_maps(self, name, maps, extended):
        K = standard(name)
        K2 = reindexed_relabelled(K, 9)
        found = find_intersection_preserving_bijections(
            intersection_matrix(K), intersection_matrix(K2)
        )
        results = [extension_or_none(K, K2, g) for g in found]
        assert None not in results
        assert len(found) == maps
        assert sum(isinstance(r, Extended) for r in results) == extended
        # Random permutations, and preserving maps with two images swapped,
        # which carry most stars onto stars.
        rng = random.Random(13)
        others = [TriangleBijection(tuple(rng.sample(range(K.n), K.n))) for _ in range(40)]
        for g in found[:: max(1, len(found) // 20)]:
            i, j = rng.sample(range(K.n), 2)
            images = list(g.forward)
            images[i], images[j] = images[j], images[i]
            others.append(TriangleBijection(tuple(images)))
        refused = 0
        for f in others:
            preserving = is_intersection_preserving(K, K2, f)
            assert (extension_or_none(K, K2, f) is None) == (not preserving)
            refused += not preserving
        assert refused >= 40


class TestIsomorphic:
    def test_reindexed_relabelled_copies(self, corpus):
        for seed, (name, K) in enumerate(corpus):
            assert isomorphic(K, reindexed_relabelled(K, seed)), name

    def test_different_surfaces(self, tp10, tp12, tetrahedron, octahedron):
        assert not isomorphic(tp10, tp12)
        assert not isomorphic(tetrahedron, octahedron)
        assert find_intersection_preserving_bijections(
            intersection_matrix(tp10), intersection_matrix(tp12)
        ) == []

    def test_same_size_different_matrix(self, octahedron):
        # The tetrahedron with two faces stellarly subdivided: a sphere with
        # 6 vertices and 8 triangles, as the octahedron, but with vertices
        # of degree 3.
        faces = ("abe", "bce", "ace", "abf", "bdf", "adf", "acd", "bcd")
        K = Triangulation(Triangle(tuple(f)) for f in faces)
        assert not isomorphic(K, octahedron)

    def test_first_preserving_bijection_need_not_extend(self, tp10):
        # In this reindexing the lexicographically first preserving
        # bijection is one of tp10's 60 non-extendable self-maps, so an
        # answer taken from the first map alone would be False.
        K2 = reindexed_relabelled(tp10, 2)
        M, M2 = intersection_matrix(tp10), intersection_matrix(K2)
        (first,) = find_intersection_preserving_bijections(M, M2, limit=1)
        assert isinstance(extend_to_simplicial(tp10, K2, first), NonExtendable)
        assert isomorphic(tp10, K2)

    def test_rejects_open_complexes(self):
        fan = disk_fan(5)
        with pytest.raises(SurfaceError):
            isomorphic(fan, fan)

    def test_reads_no_matrix(self, corpus, monkeypatch):
        # A simplicial isomorphism is a vertex bijection: the answers must
        # come with the triangle-map searches and the matrix gone.
        from trimat import _search, intersection

        def gone(*args, **kwargs):
            raise AssertionError("isomorphic used the matrix route")

        for original in (
            _search._walk,
            _search.iter_bijections,
            intersection.intersection_matrix,
        ):
            rebind(monkeypatch, original, gone)
        for seed, (name, K) in enumerate(corpus):
            assert isomorphic(K, reindexed_relabelled(K, seed)), name
            assert isomorphic(reindexed_relabelled(K, seed + 10), K), name
        assert not isomorphic(_grid_torus(6, 6), reindexed_relabelled(_grid_torus(4, 9), 1))

    def test_six_regular_look_alikes(self):
        # Four 6-regular tori on 72 triangles, alike around every vertex;
        # T(4, 9) and T(9, 4) are one surface, transposed.
        tori = {size: _grid_torus(*size) for size in [(6, 6), (4, 9), (3, 12), (9, 4)]}
        for s, K in tori.items():
            for t, K2 in tori.items():
                want = s == t or {s, t} == {(4, 9), (9, 4)}
                assert isomorphic(K, K2) is want, (s, t)
        assert isomorphic(tori[(6, 6)], reindexed_relabelled(tori[(6, 6)], 3))


class TestTextFormats:
    def test_matrix_round_trip(self, corpus):
        for _, K in corpus:
            M = intersection_matrix(K)
            assert parse_matrix(serialize_matrix(M)).entries == M.entries

    def test_matrix_parse_errors(self):
        with pytest.raises(ParseError):
            parse_matrix("")
        with pytest.raises(ParseError):
            parse_matrix("2\n2 1\n")  # missing a row
        with pytest.raises(ParseError):
            parse_matrix("1\nx\n")
        with pytest.raises(ParseError):
            parse_matrix("2\n2 9\n9 2\n")  # entry outside range
        for text in ("x\n", "3 3\n"):
            with pytest.raises(ParseError, match="expected the matrix size"):
                parse_matrix(text)

    def test_bijection_round_trip(self):
        f = TriangleBijection((3, 1, 0, 2))
        assert parse_bijection(serialize_bijection(f)) == f

    @pytest.mark.parametrize(
        "text",
        ["2\n2 1\n0 2\n", "2\n1 0\n0 2\n", "2\n2 -2\n-2 2\n", "2\n2 3\n3 2\n"],
        ids=["asymmetric", "bad-diagonal", "below-range", "above-range"],
    )
    def test_matrix_parse_validates_entries(self, text):
        with pytest.raises(ParseError):
            parse_matrix(text)

    def test_bijection_parse_errors(self):
        with pytest.raises(ParseError):
            parse_bijection("")
        with pytest.raises(ParseError):
            parse_bijection("0 0 1\n")
        with pytest.raises(ParseError):
            parse_bijection("a b\n")

    @pytest.mark.parametrize("text", ["0 1 3\n", "-1 0\n", "1 2\n"])
    def test_bijection_parse_rejects_non_permutations(self, text):
        with pytest.raises(ParseError):
            parse_bijection(text)

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([[2.0, True], [1, 2]], r"entry \(0,0\) = 2\.0 outside \{-1,0,1,2\}"),
            (((2, True), (True, 2)), r"entry \(0,1\) = True outside"),
            (((2, 1.0), (1.0, 2)), r"entry \(0,1\) = 1\.0 outside"),
            ((), "size must be positive"),
        ],
        ids=["float-diagonal", "bool", "float-off-diagonal", "empty"],
    )
    def test_matrix_rejects_what_its_text_cannot_carry(self, rows, message):
        with pytest.raises(ValueError, match=message):
            IntersectionMatrix(rows)

    @pytest.mark.parametrize(
        "images", [(True, False), (1.0, 0), (), (0, True)],
        ids=["bools", "float", "empty", "bool-with-int"],
    )
    def test_bijection_rejects_what_its_text_cannot_carry(self, images):
        with pytest.raises(MappingError):
            TriangleBijection(images)
