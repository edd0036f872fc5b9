"""Seeded inputs for the benchmark: reindexing, relabelling, subdivision.

Surfaces are plain lists of vertex-label triples.  The library only ever
sees the ``.tri`` / ``.imat`` text written from them, and the answer
checks use ``matrix`` below rather than the library's own matrix code.
"""

from __future__ import annotations

import random

Tris = list[tuple[str, str, str]]


def subdivide(tris: Tris) -> Tris:
    """Split each triangle into 4 using edge-midpoint vertices; preserves
    the underlying surface."""

    def mid(u: str, v: str) -> str:
        return "m_" + "_".join(sorted((u, v)))

    out: Tris = []
    for a, b, c in tris:
        ab, ac, bc = mid(a, b), mid(a, c), mid(b, c)
        out += [(a, ab, ac), (b, ab, bc), (c, ac, bc), (ab, ac, bc)]
    return out


def reindex(tris: Tris, rng: random.Random) -> Tris:
    """The same complex with its triangles in a random order."""
    out = list(tris)
    rng.shuffle(out)
    return out


def relabel(tris: Tris, rng: random.Random) -> Tris:
    """The same complex under a random vertex renaming, with the labels of
    each triangle listed in a random order."""
    old = sorted({v for t in tris for v in t})
    new = [f"w{i}" for i in range(len(old))]
    rng.shuffle(new)
    rename = dict(zip(old, new))
    out: Tris = []
    for t in tris:
        vs = [rename[v] for v in t]
        rng.shuffle(vs)
        out.append((vs[0], vs[1], vs[2]))
    return out


def matrix(tris: Tris) -> list[list[int]]:
    """Intersection matrix: |shared vertices| - 1 for every pair."""
    sets = [frozenset(t) for t in tris]
    return [[len(a & b) - 1 for b in sets] for a in sets]


def imat_text(m: list[list[int]]) -> str:
    return f"{len(m)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in m)


def tri_text(tris: Tris) -> str:
    return "".join(" ".join(t) + "\n" for t in tris)


def parse_tri(text: str) -> Tris:
    """Triangles of ``.tri`` text: comments and blank lines skipped."""
    out: Tris = []
    for raw in text.splitlines():
        labels = raw.split("#", 1)[0].split()
        if labels:
            if len(labels) != 3:
                raise ValueError(f"not a triangle line: {raw!r}")
            out.append((labels[0], labels[1], labels[2]))
    return out
