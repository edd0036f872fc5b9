"""Deterministic constructors for the built-in test complexes.

Two families live here: the named projective-plane triangulations tp10 and
tp12 with their fixed a_i/x labelings, and a handful of standard surfaces
(platonic sphere triangulations, the 7-vertex torus) plus the three
cycle-link models (disk fan, the 5- and 6-triangle Moebius bands).  The
private ``_grid_torus(a, b)`` builds the 6-regular tori of any size.

Labelings are fixed so fixtures and CLI output are reproducible
byte-for-byte.  ``standard(name)`` builds each catalog complex once per
process and returns that same complex afterwards, so the facts a complex
keeps (its validation, matrix, search view and plan) are worked out once;
the named builders return a new complex on each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .complexes import Triangle, Triangulation

__all__ = [
    "tp10",
    "tp12",
    "standard",
    "disk_fan",
    "moebius5",
    "moebius6",
    "CatalogEntry",
]


def tp10() -> Triangulation:
    """The 10-triangle projective plane on vertices a0..a4, x.

    Triangles in order s0..s4, r0..r4 with
    s_i = {a_i, a_(i+1 mod 5), x} and r_i = {a_i, a_(i+1 mod 5), a_(i-2 mod 5)}.
    The s-triangles fan around x (a disk); the r-triangles form a Moebius
    band glued to its rim.
    """
    s = [Triangle((f"a{i}", f"a{(i + 1) % 5}", "x")) for i in range(5)]
    r = [
        Triangle((f"a{i}", f"a{(i + 1) % 5}", f"a{(i - 2) % 5}"))
        for i in range(5)
    ]
    return Triangulation(s + r)


def tp12() -> Triangulation:
    """The 12-triangle projective plane on vertices a0..a5, x.

    Triangles in order s0..s5, r0..r5 with s_i = {a_i, a_(i+1 mod 6), x};
    the r_i share the rim edge {a_i, a_(i+1)} and have their apex at
    a_(i+4 mod 6) for even i, a_(i+3 mod 6) for odd i.
    """
    s = [Triangle((f"a{i}", f"a{(i + 1) % 6}", "x")) for i in range(6)]
    r = []
    for i in range(6):
        apex = (i + 4) % 6 if i % 2 == 0 else (i + 3) % 6
        r.append(Triangle((f"a{i}", f"a{(i + 1) % 6}", f"a{apex}")))
    return Triangulation(s + r)


def disk_fan(n: int) -> Triangulation:
    """n triangles fanning around a hub x: {a_i, a_(i+1 mod n), x}."""
    if n < 3:
        raise ValueError(f"a fan needs at least 3 triangles, got {n}")
    return Triangulation(
        Triangle((f"a{i}", f"a{(i + 1) % n}", "x")) for i in range(n)
    )


def moebius5() -> Triangulation:
    """The 5-triangle Moebius band: the non-disk 5-cycle realization."""
    sets = [
        ("a0", "a2", "a1"),
        ("a1", "a3", "a2"),
        ("a2", "a4", "a3"),
        ("a3", "a0", "a4"),
        ("a4", "a1", "a0"),
    ]
    return Triangulation(Triangle(vs) for vs in sets)


def moebius6() -> Triangulation:
    """The 6-triangle Moebius band: the non-disk 6-cycle realization."""
    sets = [
        ("a0", "a1", "a2"),
        ("a1", "a2", "a4"),
        ("a2", "a3", "a4"),
        ("a3", "a0", "a4"),
        ("a0", "a5", "a4"),
        ("a5", "a2", "a0"),
    ]
    return Triangulation(Triangle(vs) for vs in sets)


def _tetrahedron() -> Triangulation:
    return Triangulation(
        Triangle(vs) for vs in [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d")]
    )


def _octahedron() -> Triangulation:
    # Poles p0/p1, equator e0..e3.
    sets = [
        ("p0", "e0", "e1"),
        ("p0", "e1", "e2"),
        ("p0", "e2", "e3"),
        ("p0", "e3", "e0"),
        ("p1", "e0", "e1"),
        ("p1", "e1", "e2"),
        ("p1", "e2", "e3"),
        ("p1", "e3", "e0"),
    ]
    return Triangulation(Triangle(vs) for vs in sets)


def _icosahedron() -> Triangulation:
    # Pole t, upper ring u0..u4, lower ring l0..l4, pole b.
    tris: list[tuple[str, str, str]] = []
    for i in range(5):
        j = (i + 1) % 5
        tris.append(("t", f"u{i}", f"u{j}"))
    for i in range(5):
        j = (i + 1) % 5
        tris.append((f"u{i}", f"l{i}", f"u{j}"))
        tris.append((f"u{j}", f"l{i}", f"l{j}"))
    for i in range(5):
        j = (i + 1) % 5
        tris.append(("b", f"l{i}", f"l{j}"))
    return Triangulation(Triangle(vs) for vs in tris)


def _torus7() -> Triangulation:
    # The 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7.
    # Every vertex pair is an edge (21 edges), 14 triangles, chi = 0.
    tris = []
    for i in range(7):
        tris.append((f"v{i}", f"v{(i + 1) % 7}", f"v{(i + 3) % 7}"))
    for i in range(7):
        tris.append((f"v{i}", f"v{(i + 2) % 7}", f"v{(i + 3) % 7}"))
    return Triangulation(Triangle(vs) for vs in tris)


def _grid_torus(a: int, b: int) -> Triangulation:
    """The 6-regular torus T(a, b): vertices (i, j) mod (a, b), two
    triangles per unit square, n = 2ab.  When a == b its matrix has 6n
    preserving self-maps, which makes it the kernel's symmetric test
    family.  Private: no CLI name, and not in ``CLOSED_SURFACES``."""
    if a < 3 or b < 3:
        raise ValueError(f"a grid torus needs a, b >= 3, got {a}, {b}")

    def v(i: int, j: int) -> str:
        return f"v{i % a}_{j % b}"

    tris = []
    for i in range(a):
        for j in range(b):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return Triangulation(Triangle(vs) for vs in tris)


@dataclass(frozen=True)
class CatalogEntry:
    """A named builder plus the invariants its output must satisfy."""

    name: str
    builder: Callable[[], Triangulation]
    n: int
    euler_characteristic: int
    orientable: bool | None  # None for the entries with boundary


_ENTRIES: dict[str, CatalogEntry] = {
    e.name: e
    for e in [
        CatalogEntry("tetrahedron", _tetrahedron, 4, 2, True),
        CatalogEntry("octahedron", _octahedron, 8, 2, True),
        CatalogEntry("icosahedron", _icosahedron, 20, 2, True),
        CatalogEntry("torus7", _torus7, 14, 0, True),
        CatalogEntry("tp10", tp10, 10, 1, False),
        CatalogEntry("tp12", tp12, 12, 1, False),
        CatalogEntry("moebius5", moebius5, 5, 0, None),
        CatalogEntry("moebius6", moebius6, 6, 0, None),
    ]
}

#: The closed-surface members used by the verification corpus, in a fixed order.
CLOSED_SURFACES = ("tetrahedron", "octahedron", "icosahedron", "torus7", "tp10", "tp12")


def catalog_names() -> tuple[str, ...]:
    """The names ``standard`` and ``entry`` accept, in catalog order."""
    return tuple(_ENTRIES)


_BUILT: dict[str, Triangulation] = {}


def standard(name: str) -> Triangulation:
    """The catalog complex ``name``, one of ``catalog_names()``, built on
    the first call and shared by every later one; ``disk_fan(n)`` builds fans."""
    if name not in _BUILT:
        _BUILT[name] = entry(name).builder()
    return _BUILT[name]


def entry(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        known = ", ".join(_ENTRIES)
        raise ValueError(f"unknown catalog name {name!r}; known: {known}") from None
