"""The independent automorphism count of criterion 4: the propagated vertex
search must find exactly the vertex bijections that map the triangle set
onto itself, in the order of their image sequences."""

import random
from itertools import combinations, permutations

import pytest

from test_robustness import subdivided
from trimat import Triangle, Triangulation, catalog
from trimat.verification import _count_extendable, simplicial_automorphisms


def reference_automorphisms(K):
    verts = K.vertices()
    triangles = {t.vertex_set for t in K.triangles}
    out = []
    for images in permutations(verts):
        image = dict(zip(verts, images))
        if {frozenset(image[v] for v in t) for t in triangles} == triangles:
            out.append(image)
    return out


def random_complex(rng, vertices):
    """A pure 2-complex of distinct triangles drawn at random on exactly
    ``vertices`` vertices; often with boundary, and often with triangles
    or parts that meet at a vertex only, or not at all."""
    triples = list(combinations([f"v{i}" for i in range(vertices)], 3))
    while True:
        count = rng.randint(1, min(len(triples), vertices + 2))
        K = Triangulation(Triangle(t) for t in rng.sample(triples, count))
        if len(K.vertices()) == vertices:
            return K


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
        "base,count",
        [
            ("tetrahedron", 24),
            ("octahedron", 48),
            ("icosahedron", 120),
            ("torus7", 168),
            ("tp10", 60),
            ("tp12", 24),
        ],
    )
    def test_subdivision_matches_extendable_count(self, base, count):
        K = subdivided(base, 1)
        _, extendable = _count_extendable(K)
        assert extendable == count
        assert len(simplicial_automorphisms(K)) == count

    def test_more_vertices_than_the_recursion_limit(self):
        K = subdivided("tetrahedron", 5)
        assert len(K.vertices()) == 2050
        assert len(simplicial_automorphisms(K)) == 24
