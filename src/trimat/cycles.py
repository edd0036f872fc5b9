"""Cycle intersection patterns of triangles and their realizations.

An n-cycle pattern prescribes, for an indexed sequence of n triangles,
that cyclically consecutive triangles share an edge and every other pair
shares exactly one vertex.  On a closed surface the triangles around any
vertex realize this pattern.  A realization can look like only three
things: a fan of n triangles around a hub vertex (a triangulated disk),
or one of two exceptional band-shaped realizations that exist solely at
n = 5 and n = 6.

``classify_realization`` decides the type: a disk has a vertex common to
all n triangles, and the two bands are recognized by canonical form, the
same one the oracle deduplicates with, compared against the catalog's
``moebius5`` and ``moebius6``.  ``enumerate_realizations`` is the
oracle: at small n it takes every exact placement of the pattern from the
growth search that ``reconstruct`` rebuilds surfaces with, and keeps one
per canonical form (up to relabeling and the dihedral symmetries of the
cycle), so the trichotomy can be checked rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

from . import catalog
from .complexes import Triangle
from .errors import PatternError, TrichotomyError
from .intersection import IntersectionMatrix
from .reconstruct import DEFAULT_NODE_CAP, _grow

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
    return IntersectionMatrix(tuple(rows))


@dataclass(frozen=True)
class CycleRealization:
    """An indexed triangle sequence whose matrix is exactly the n-cycle
    pattern of its length."""

    triangles: tuple[Triangle, ...]

    def __post_init__(self) -> None:
        _check_is_realization(self.triangles)

    @property
    def n(self) -> int:
        return len(self.triangles)


def _check_is_realization(triangles: Sequence[Triangle]) -> None:
    n = len(triangles)
    if n < 3:
        raise PatternError(f"an n-cycle realization needs n >= 3, got {n}")
    target = ncycle_matrix(n)
    for i in range(n):
        si = triangles[i].vertex_set
        for j in range(i + 1, n):
            got = len(si & triangles[j].vertex_set) - 1
            if got != target[i, j]:
                raise PatternError(
                    f"triangles {i} and {j} intersect in dimension {got}, "
                    f"the {n}-cycle pattern requires {target[i, j]}"
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
    if isinstance(triangles, CycleRealization):
        tris = triangles.triangles
    else:
        tris = tuple(triangles)
        _check_is_realization(tris)
    n = len(tris)
    sets = [t.vertex_set for t in tris]

    common = frozenset.intersection(*sets)
    if common:
        return disk(n)
    band = _band_encodings().get(_canonical_encoding(sets))
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

    The placements come from ``reconstruct``'s growth search, the only
    triangle-placement search in the package: it grows along the cycle
    from triangle 0 = {0, 1, 2} and yields every labelled triangle
    sequence whose pairwise shared-vertex counts are exactly the pattern's,
    once up to renaming of vertices.  Survivors are deduplicated by a
    canonical form (lexicographic minimum over all dihedral alignments and
    relabelings).

    Only desk-scale sizes are allowed: 3 <= n <= 8.
    """
    if not 3 <= n <= ORACLE_MAX_N:
        raise ValueError(f"enumeration supports 3 <= n <= {ORACLE_MAX_N}, got {n}")
    found = {
        _canonical_encoding([frozenset(t) for t in tri])
        for tri in _grow(ncycle_matrix(n), DEFAULT_NODE_CAP)
    }

    results = []
    for key in sorted(found):
        tris = tuple(Triangle(tuple(str(v) for v in vs)) for vs in key)
        realization = CycleRealization(tris)
        results.append((realization, classify_realization(realization)))
    return results


def _canonical_encoding(seq: Sequence[frozenset]) -> tuple[tuple[int, ...], ...]:
    """Lexicographically smallest encoding over dihedral alignments and
    relabelings.

    The encoding is itself a relabeled re-alignment of ``seq``, so two
    sequences get equal encodings exactly when one is a relabeled
    re-alignment of the other.

    For a fixed alignment the smallest relabeling assigns fresh labels in
    first-appearance order; when a triangle introduces several new
    vertices at once, all distributions of the next labels among them are
    explored (the sorted per-triangle tuples tie, later triangles break
    the tie).
    """
    n = len(seq)
    best: tuple[tuple[int, ...], ...] | None = None

    def relabelings(order: list[frozenset[int]]) -> None:
        nonlocal best

        def walk(k: int, fwd: dict[int, int], enc: list[tuple[int, ...]]) -> None:
            nonlocal best
            if k == n:
                candidate = tuple(enc)
                if best is None or candidate < best:
                    best = candidate
                return
            tri = order[k]
            known = sorted(fwd[v] for v in tri if v in fwd)
            new = sorted(v for v in tri if v not in fwd)
            labels = list(range(len(fwd), len(fwd) + len(new)))
            encoded = tuple(sorted(known + labels))
            if best is not None and tuple(enc + [encoded]) > best[: k + 1]:
                return
            for assignment in permutations(new):
                for v, lab in zip(assignment, labels):
                    fwd[v] = lab
                enc.append(encoded)
                walk(k + 1, fwd, enc)
                enc.pop()
                for v in assignment:
                    del fwd[v]

        walk(0, {}, [])

    for direction in (1, -1):
        for offset in range(n):
            relabelings([seq[(offset + direction * k) % n] for k in range(n)])

    assert best is not None
    return best


@lru_cache(maxsize=None)
def _band_encodings() -> dict[tuple[tuple[int, ...], ...], CycleClass]:
    """The canonical encodings of the two catalog bands, with their class."""
    return {
        _canonical_encoding([t.vertex_set for t in band().triangles]): cls
        for band, cls in ((catalog.moebius5, MOEBIUS5), (catalog.moebius6, MOEBIUS6))
    }
