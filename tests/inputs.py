"""Inputs the test modules share: subdivided surfaces, seeded reindexings
and relabellings, random complexes and matrices, the 6-regular tori, and
the intersection matrix by its definition; and ``rebind``, which swaps a
library function everywhere it is bound.  No test module imports another;
each takes these from here."""

import random
import sys
from itertools import combinations

from trimat import IntersectionMatrix, Triangle, TriangleBijection, Triangulation, standard
from trimat.intersection import intersection_dim


def subdivide(K: Triangulation) -> Triangulation:
    """Split each triangle into 4 using edge-midpoint vertices; preserves
    the underlying surface."""

    def mid(u: str, v: str) -> str:
        return "m_" + "_".join(sorted((u, v)))

    tris = []
    for t in K.triangles:
        a, b, c = t.vertices
        ab, ac, bc = mid(a, b), mid(a, c), mid(b, c)
        tris += [(a, ab, ac), (b, ab, bc), (c, ac, bc), (ab, ac, bc)]
    return Triangulation(Triangle(x) for x in tris)


def subdivided(base: str, times: int) -> Triangulation:
    K = standard(base)
    for _ in range(times):
        K = subdivide(K)
    return K


def reindexed(M: IntersectionMatrix, seed: int) -> IntersectionMatrix:
    perm = list(range(M.n))
    random.Random(seed).shuffle(perm)
    return M.permuted(TriangleBijection(tuple(perm)))


def reindexed_relabelled(K: Triangulation, seed: int) -> Triangulation:
    """K with its triangles in a seeded order and its vertices renamed."""
    rng = random.Random(seed)
    order = rng.sample(range(K.n), K.n)
    verts = K.vertices()
    names = dict(zip(verts, (f"w{k}" for k in rng.sample(range(len(verts)), len(verts)))))
    return Triangulation(
        Triangle(tuple(names[v] for v in K.triangles[i].vertices)) for i in order
    )


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


def random_matrix(n, rng):
    entries = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            entries[i][j] = entries[j][i] = rng.choice((-1, 0, 0, 1, 1))
    return tuple(tuple(row) for row in entries)


#: (a, b), then the preserving self-maps of the 6-regular torus T(a, b) per
#: triangle.
TORI = [((a, a), 6) for a in range(3, 9)] + [((3, 4), 1), ((3, 5), 1), ((4, 6), 1)]


def matrix_by_definition(K):
    """The pairwise intersection dimensions, one triangle pair at a time."""
    return tuple(tuple(intersection_dim(s, t) for t in K.triangles) for s in K.triangles)


def rebind(monkeypatch, original, replacement):
    """Replace every binding of ``original`` in the library's modules, since
    each module calls the one in its own namespace."""
    for name, module in list(sys.modules.items()):
        if name == "trimat" or name.startswith("trimat."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
