"""The two counts criterion 4 compares.  The propagated vertex search must
find exactly the vertex bijections that map the triangle set onto itself,
in the order of their image sequences, without the matrix machinery; and
the count of extendable self-maps, taken from generators of the group,
must be the count a walk over every preserving self-map gives.  The vertex
walk works out its plan from a complex once and keeps it there."""

import random
from itertools import permutations

import pytest

from trimat import Extended, Triangle, Triangulation, catalog, intersection_matrix, isomorphic
from trimat._search import iter_bijections
from trimat.catalog import _grid_torus
from trimat.intersection import _extend
from trimat.verification import _count_extendable, run_all_checks, simplicial_automorphisms

from inputs import TORI, random_complex, rebind, reindexed_relabelled, subdivided


def reference_automorphisms(K):
    verts = K.vertices()
    triangles = {t.vertex_set for t in K.triangles}
    out = []
    for images in permutations(verts):
        image = dict(zip(verts, images))
        if {frozenset(image[v] for v in t) for t in triangles} == triangles:
            out.append(image)
    return out


def tetrahedron_on(a, b, c, d):
    return [Triangle(t) for t in ((a, b, c), (a, b, d), (a, c, d), (b, c, d))]


SMALL = {
    **{
        name: catalog.standard(name)
        for name in ("tetrahedron", "octahedron", "torus7", "tp10", "tp12")
    },
    "moebius5": catalog.moebius5(),
    "moebius6": catalog.moebius6(),
    **{f"disk_fan({n})": catalog.disk_fan(n) for n in range(3, 7)},
    # Two components, so the search starts at two roots.
    "disjoint tetrahedra": Triangulation(tetrahedron_on(*"abcd") + tetrahedron_on(*"efgh")),
    "pinched tetrahedra": Triangulation(tetrahedron_on(*"abcd") + tetrahedron_on(*"aefg")),
}
_rng = random.Random(20261019)
SMALL.update((f"random {i}", random_complex(_rng, _rng.randint(4, 6))) for i in range(30))


class TestSimplicialAutomorphisms:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_matches_brute_force(self, name):
        K = SMALL[name]
        assert len(K.vertices()) <= 8
        got = simplicial_automorphisms(K)
        assert got == reference_automorphisms(K)
        assert all(list(image) == list(K.vertices()) for image in got)

    @pytest.mark.parametrize(
        "base,count,copy",
        [
            pytest.param(base, count, copy, id=f"{base}-{count}" + (f"~{copy}" if copy else ""))
            for base, count in [
                ("tetrahedron", 24),
                ("octahedron", 48),
                ("icosahedron", 120),
                ("torus7", 168),
                ("tp10", 60),
                ("tp12", 24),
            ]
            for copy in (0, 1, 2)
        ],
    )
    def test_subdivision_matches_extendable_count(self, base, count, copy):
        K = subdivided(base, 1)
        if copy:
            K = reindexed_relabelled(K, copy)
        _, extendable = _count_extendable(K)
        assert extendable == count
        assert len(simplicial_automorphisms(K)) == count

    def test_more_vertices_than_the_recursion_limit(self):
        K = subdivided("tetrahedron", 5)
        assert len(K.vertices()) == 2050
        assert len(simplicial_automorphisms(K)) == 24

    @pytest.mark.parametrize("a", range(3, 17))
    def test_grid_torus_matches_extendable_count(self, a):
        K = _grid_torus(a, a)
        assert _count_extendable(K) == (12 * a * a, 12 * a * a)
        assert len(simplicial_automorphisms(K)) == 12 * a * a

    def test_reads_no_intersection_matrix(self, monkeypatch):
        # Criterion 4 compares two routes; the vertex route must give the
        # same answer with the matrix route's searches gone.
        from trimat import _search, intersection

        def gone(*args, **kwargs):
            raise AssertionError("the vertex search used the matrix route")

        searches = [
            _search._walk,
            _search.iter_bijections,
            _search._automorphism_group,
            _search._grow,
            intersection.intersection_matrix,
        ]
        for K in (catalog.standard("icosahedron"), catalog.standard("tp12"), _grid_torus(5, 5)):
            expected = simplicial_automorphisms(K)
            with monkeypatch.context() as patch:
                for original in searches:
                    rebind(patch, original, gone)
                with pytest.raises(AssertionError, match="matrix route"):
                    _count_extendable(K)
                assert simplicial_automorphisms(K) == expected


def extendable_inputs():
    """(label, K): the corpus, its one-fold subdivisions and the tori of
    ``TORI``, each with two reindexed, relabelled copies."""
    bases = [(name, catalog.standard(name)) for name in catalog.CLOSED_SURFACES]
    bases += [(f"{name}/1", subdivided(name, 1)) for name in catalog.CLOSED_SURFACES]
    bases += [(f"T{a}x{b}", _grid_torus(a, b)) for (a, b), _ in TORI]
    for label, K in bases:
        yield label, K
        for seed in (1, 2):
            yield f"{label}~{seed}", reindexed_relabelled(K, seed)


EXTENDABLE_INPUTS = dict(extendable_inputs())


class TestCountExtendable:
    """``_count_extendable`` extends only the maps that fix row 0 and one
    generator per searched orbit point, and walks every map only when one
    of those does not extend."""

    @pytest.mark.parametrize("label", list(EXTENDABLE_INPUTS))
    def test_is_the_full_walk(self, label):
        K = EXTENDABLE_INPUTS[label]
        M = intersection_matrix(K)
        results = [_extend(K, K, g) for g in iter_bijections(M, M)]
        expected = (len(results), sum(isinstance(r, Extended) for r in results))
        assert _count_extendable(K) == expected

    def test_extends_generators_only(self, monkeypatch):
        # T(16, 16) has 3,072 preserving self-maps; extending every one is
        # 3,072 calls of _extend, extending Stab and the generators is 7.
        from trimat import intersection

        calls = []
        real = intersection._extend
        rebind(monkeypatch, real, lambda *a: calls.append(1) or real(*a))
        assert _count_extendable(_grid_torus(16, 16)) == (3072, 3072)
        assert len(calls) <= 16

    @pytest.mark.parametrize("name,counts", [("tp10", (120, 60)), ("tp12", (48, 24))])
    def test_exceptional_planes_walk_every_map(self, name, counts):
        assert _count_extendable(catalog.standard(name)) == counts


class TestWalkPlan:
    """``complexes._vertex_walk`` keeps the plan it works out from K on K."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The complexes that a walk plan is built for from now on."""
        from trimat import complexes

        real = complexes._walk_plan
        built = []
        rebind(monkeypatch, real, lambda K: built.append(K) or real(K))
        return built

    def test_a_second_walk_builds_no_plan(self, builds):
        K = subdivided("icosahedron", 1)
        K2 = reindexed_relabelled(K, 3)
        expected = simplicial_automorphisms(K)
        assert simplicial_automorphisms(K) == expected
        assert len(builds) == 1 and builds[0] is K
        assert isomorphic(K2, K) and isomorphic(K2, K) and isomorphic(K, K2)
        assert len(builds) == 2 and builds[1] is K2

    def test_a_warm_checklist_builds_no_plan_for_a_catalog_complex(self, builds):
        assert all(result.passed for result in run_all_checks())
        builds.clear()
        assert all(result.passed for result in run_all_checks())
        # Criterion 7 walks from each surface's baseline reconstruction,
        # which is made afresh on every pass.
        assert builds
        standard = [catalog.standard(name) for name in catalog.CLOSED_SURFACES]
        assert not any(K is S for K in builds for S in standard)
