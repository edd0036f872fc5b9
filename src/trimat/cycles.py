"""Cycle intersection patterns of triangles and their realizations.

An n-cycle pattern prescribes, for an indexed sequence of n triangles,
that cyclically consecutive triangles share an edge and every other pair
shares exactly one vertex.  On a closed surface the triangles around any
vertex realize this pattern.  A realization can look like only three
things: a fan of n triangles around a hub vertex (a triangulated disk),
or one of two exceptional band-shaped realizations that exist solely at
n = 5 and n = 6.  A ``CycleRealization`` is checked against the pattern,
and keeps its triangles as a tuple, in its constructor.

``classify_realization`` builds one from a plain sequence and decides
its type: a disk has a vertex common to all n triangles, and the two
bands are recognized by canonical form, the same one the oracle
deduplicates with, compared against the catalog's ``moebius5`` and
``moebius6``.  The canonical form knows each vertex by
its star, the indices of the triangles that contain it: a sequence is
fixed up to renaming by the multiset of its stars, and the form is the
smallest sorted tuple of stars over the 2n rotations and reflections of
the cycle.  ``enumerate_realizations`` is the oracle: at small n it takes
every exact placement of the pattern from ``_search._grow``, the growth
search that ``reconstruct`` rebuilds surfaces with, and keeps one per
canonical form, so the trichotomy can be checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from . import catalog
from ._search import DEFAULT_NODE_CAP, _grow
from .complexes import Triangle
from .errors import PatternError, TrichotomyError
from .intersection import IntersectionMatrix, intersection_dim

__all__ = [
    "CycleClass",
    "CycleRealization",
    "disk",
    "MOEBIUS5",
    "MOEBIUS6",
    "ncycle_matrix",
    "classify_realization",
    "enumerate_realizations",
    "expected_classes",
]


@dataclass(frozen=True, order=True)
class CycleClass:
    """One of the three realization types: Disk(n), Moebius5, Moebius6."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("disk", "moebius5", "moebius6"):
            raise ValueError(f"unknown cycle class kind {self.kind!r}")
        if self.kind == "moebius5" and self.n != 5:
            raise ValueError("Moebius5 only occurs with n=5")
        if self.kind == "moebius6" and self.n != 6:
            raise ValueError("Moebius6 only occurs with n=6")

    def __str__(self) -> str:
        if self.kind == "disk":
            return f"Disk({self.n})"
        return "Moebius5" if self.kind == "moebius5" else "Moebius6"


def disk(n: int) -> CycleClass:
    return CycleClass("disk", n)


MOEBIUS5 = CycleClass("moebius5", 5)
MOEBIUS6 = CycleClass("moebius6", 6)


def expected_classes(n: int) -> set[CycleClass]:
    """The classes the trichotomy admits at cycle length n."""
    classes = {disk(n)}
    if n == 5:
        classes.add(MOEBIUS5)
    if n == 6:
        classes.add(MOEBIUS6)
    return classes


def ncycle_matrix(n: int) -> IntersectionMatrix:
    """The circulant pattern matrix of an n-cycle.

    Entry 1 where indices are cyclically adjacent (including the wraparound
    pair (n-1, 0)), 0 elsewhere off the diagonal.  At n = 3 the wraparound
    makes every off-diagonal entry 1.
    """
    if n < 3:
        raise ValueError(f"an n-cycle needs n >= 3, got {n}")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(2)
            elif (i - j) % n in (1, n - 1):
                row.append(1)
            else:
                row.append(0)
        rows.append(tuple(row))
    return IntersectionMatrix._trusted(tuple(rows))


@dataclass(frozen=True)
class CycleRealization:
    """An indexed triangle sequence whose matrix is exactly the n-cycle
    pattern of its length.  The constructor checks the pattern and keeps
    the sequence as a tuple, so a realization built from a list equals,
    and hashes as, the one built from the same tuple."""

    triangles: tuple[Triangle, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "triangles", tuple(self.triangles))
        tris = self.triangles
        n = len(tris)
        if n < 3:
            raise PatternError(f"an n-cycle realization needs n >= 3, got {n}")
        # The pattern's entry: 1 for cyclically adjacent indices, else 0.
        for i in range(n):
            for j in range(i + 1, n):
                got, want = intersection_dim(tris[i], tris[j]), int(j - i in (1, n - 1))
                if got != want:
                    raise PatternError(
                        f"triangles {i} and {j} intersect in dimension {got}, "
                        f"the {n}-cycle pattern requires {want}"
                    )


def classify_realization(
    triangles: Sequence[Triangle] | CycleRealization,
) -> CycleClass:
    """Classify a cycle realization as Disk(n), Moebius5 or Moebius6.

    Disk means all n triangles share a common vertex (the fan hub).  The
    two Moebius types are recognized by canonical form: the input is a band
    when ``_canonical_encoding`` maps it to the encoding of the catalog's
    ``moebius5`` or ``moebius6``, which is invariant under relabeling and
    under rotation/reflection of the input sequence.

    Raises PatternError when the input does not realize the cycle pattern,
    and TrichotomyError if a realization matches none of the three types —
    which the classification claims is impossible, so such an input is
    surfaced loudly instead of being coerced.
    """
    if not isinstance(triangles, CycleRealization):
        triangles = CycleRealization(triangles)
    tris = triangles.triangles
    n = len(tris)
    labels = [t.vertices for t in tris]
    if set(labels[0]).intersection(*labels):
        return disk(n)
    band = _band_encodings().get(_canonical_encoding(labels))
    if band is not None:
        return band
    raise TrichotomyError(
        f"a {n}-cycle realization matched none of the three known types; "
        "this should be impossible — please report it"
    )


# -- exhaustive oracle --------------------------------------------------------

ORACLE_MAX_N = 8


def enumerate_realizations(
    n: int,
) -> list[tuple[CycleRealization, CycleClass]]:
    """Every realization of the n-cycle pattern, up to relabeling and the
    2n dihedral symmetries, each paired with its classification.

    The placements come from ``_search._grow``, the growth search behind
    ``reconstruct`` and the only triangle-placement search in the package:
    it grows along the cycle from triangle 0 = {0, 1, 2} and yields every
    labelled triangle sequence whose pairwise shared-vertex counts are
    exactly the pattern's, once up to renaming of vertices.  Survivors are
    deduplicated by their canonical form, the smallest sorted tuple of
    vertex stars over the dihedral re-indexings, and each representative is
    decoded from that form: vertex k is the k-th star, and triangle i holds
    the vertices whose star holds i.

    Only desk-scale sizes are allowed: 3 <= n <= 8.
    """
    if not 3 <= n <= ORACLE_MAX_N:
        raise ValueError(f"enumeration supports 3 <= n <= {ORACLE_MAX_N}, got {n}")
    found = {
        _canonical_encoding(tri)
        for tri in _grow(ncycle_matrix(n), DEFAULT_NODE_CAP)
    }

    results = []
    for key in sorted(found):
        tris = tuple(
            Triangle(tuple(str(k) for k, star in enumerate(key) if i in star))
            for i in range(n)
        )
        realization = CycleRealization(tris)
        results.append((realization, classify_realization(realization)))
    return results


def _canonical_encoding(seq: Sequence[Iterable]) -> tuple[tuple[int, ...], ...]:
    """The smallest sorted tuple of vertex stars over the 2n dihedral
    re-indexings of ``seq``, whose entries are triangles given by their
    three distinct vertices, in any order.

    The star of a vertex is the sorted tuple of the indices of the
    triangles that contain it.  A sequence of triangles is known up to
    renaming of vertices by the multiset of its stars (triangle i is the
    set of vertices whose star holds i), so two sequences get equal
    encodings exactly when one is a relabeled re-alignment of the other.
    Equal stars are kept apart: in the n = 3 book, three triangles on one
    edge, both ends of that edge have the star (0, 1, 2).
    """
    n = len(seq)
    stars: dict[object, list[int]] = {}
    for i, t in enumerate(seq):
        for v in t:
            stars.setdefault(v, []).append(i)
    # Re-indexing k -> seq[(offset + d * k) % n] moves triangle i to
    # position d * (i - offset) % n.
    return min(
        tuple(sorted(tuple(sorted(d * (i - offset) % n for i in star)) for star in stars.values()))
        for d in (1, -1)
        for offset in range(n)
    )


@lru_cache(maxsize=None)
def _band_encodings() -> dict[tuple[tuple[int, ...], ...], CycleClass]:
    """The canonical encodings of the two catalog bands, with their class."""
    return {
        _canonical_encoding([t.vertices for t in band().triangles]): cls
        for band, cls in ((catalog.moebius5, MOEBIUS5), (catalog.moebius6, MOEBIUS6))
    }
