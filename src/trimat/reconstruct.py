"""Rebuilding a triangulation from its bare intersection matrix.

The input is only the matrix: no vertex labels, no hints.  Entry M[v][w]
says how many vertices triangles v and w share, less one (1 for an edge,
0 for a vertex, -1 for disjoint).  The triangles that share an edge form
the dual graph, which on a closed surface is 3-regular and connected.

The search, ``_grow``, grows a placement (one triangle per row) along a
BFS tree of the entry-1 graph, starting from row 0, as in Weinberg's
propagation for planar graph isomorphism.  Row 0 becomes the triangle
(0, 1, 2).  Every later triangle v shares an edge {a, b} with its BFS
parent, so it is that edge plus an apex z, and the apex rule fixes z.
Take the first placed triangle that still needs more shared vertices
with v than {a, b} gives it: z is one of its vertices.  If no placed
triangle needs one, z is the next fresh vertex.  No other apex can work:
a used vertex lies in some placed triangle, which would then share too
many vertices with v.  A candidate is kept only if it shares exactly
M[v][w] + 1 vertices with every placed w; the placed triangles at each
vertex give these counts without a scan over all rows.  So a wrong guess
dies at once, and the cost does not depend on the index order of the
input.  The placement order, each row's BFS parent and the placed rows
each row meets come from ``_search_py._plan`` over ``_search_py._near``,
each row's entries >= 0, as in the bijection kernel.

Two rules keep each labelled solution from coming out more than once.
The vertices of the root are interchangeable, so its first child is only
tried on the edge (0, 1).  Vertices 0 and 1 stay interchangeable until a
placed triangle holds exactly one of them; until then, a candidate that
holds 1 without 0 is dropped.  So each exact placement comes out once up
to renaming of vertices, and two solutions, relabelled v0, v1, ... in
order of first appearance by triangle index, are different complexes.  By
the paper's theorem two solutions exist only for the two exceptional
matrices below.

One search node is one placed candidate; a solvable matrix of n triangles
usually needs about n of them.  The backtracking keeps an explicit stack
of untried candidates per depth, so its depth is not bounded by the
interpreter's recursion limit.

Nothing in the search assumes a closed surface: ``_grow`` lazily yields
the exact placements of any pattern whose entry-1 graph is connected, and
the cycle oracle in ``cycles`` reads it for the n-cycle pattern.
``reconstruct`` keeps the placements that are closed surfaces and
reproduce M exactly; pairwise counts rule out neither a pinched vertex nor
four triangles on one edge (a placement of the 4x4 all-ones matrix).  It
stops at the first unless asked for all.

The two matrices whose complexes admit non-extendable self-maps are
recognized separately: ``detect_exceptional`` compares against the stored
canonical matrices of the 10- and 12-triangle projective planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from . import catalog
from ._search_py import _near, _plan
from .complexes import Triangle, Triangulation, validate_closed_surface
from .errors import BudgetExceededError, PatternError, ReconstructionError
from .intersection import (
    IntersectionMatrix,
    find_intersection_preserving_bijections,
    intersection_matrix,
    isomorphic,
)

__all__ = [
    "ReconstructionResult",
    "reconstruct",
    "detect_exceptional",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 1_000_000


@dataclass(frozen=True)
class ReconstructionResult:
    """A complex realizing the input matrix, with the ambiguity verdict.

    ``ambiguity`` is "TP10" or "TP12" when the matrix is permutation
    equivalent to the corresponding projective-plane matrix, else None.
    ``all_solutions_isomorphic`` reports whether every solution of the
    search is simplicially isomorphic to the returned one; it is None when
    the caller skipped the exhaustive continuation.
    """

    complex: Triangulation
    ambiguity: str | None
    all_solutions_isomorphic: bool | None


@lru_cache(maxsize=None)
def _exceptional_matrix(name: str) -> IntersectionMatrix:
    return intersection_matrix(catalog.standard(name))


def detect_exceptional(M: IntersectionMatrix) -> str | None:
    """Return "TP10"/"TP12" when M is permutation equivalent to the matrix
    of the corresponding projective-plane triangulation, else None.

    Sizes other than 10 and 12 short-circuit immediately.
    """
    _check_preconditions(M)
    name = {10: "tp10", 12: "tp12"}.get(M.n)
    if name and find_intersection_preserving_bijections(_exceptional_matrix(name), M, limit=1):
        return name.upper()
    return None


def _check_preconditions(M: IntersectionMatrix) -> None:
    # Symmetry, the diagonal and the entry range are enforced by the
    # IntersectionMatrix type itself.  Two necessary conditions are not:
    # distinct triangles share at most an edge, and on a closed surface
    # each triangle has exactly three edge-neighbours.
    for i, row in enumerate(_near(M.entries)):
        ones = 0
        for j, v in row:
            if v == 1:
                ones += 1
            elif v == 2 and j != i:
                raise PatternError(
                    f"entry ({i},{j}) is 2 off the diagonal, but distinct "
                    "triangles share at most an edge"
                )
        if ones != 3:
            raise PatternError(
                f"row {i} has {ones} entries equal to 1, a closed surface "
                "requires exactly 3 (one per triangle edge)"
            )


def _grow(
    M: IntersectionMatrix, node_cap: int
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Yield every exact placement of M, lazily, once up to renaming of
    vertices.

    A placement is one int triple per row, in row order, whose pairwise
    shared-vertex counts are exactly M's.  M may be any pattern of two or
    more rows whose entry-1 graph is connected (no placement comes out
    otherwise); the placements need not be closed surfaces.  See the module docstring for
    the order, the apex rule and the two symmetry rules.  Raises
    BudgetExceededError once more than ``node_cap`` candidates are placed.
    """
    n = M.n
    order, parent, meets = _plan(_near(M.entries))
    if parent.count(-1) != 1:
        return  # no rows, or the entry-1 graph is not connected
    # tri[v]: the vertices of placed triangle v; the root, row 0, is (0, 1, 2).
    tri: list[tuple[int, int, int]] = [(0, 1, 2)] * n
    # at[x]: the placed triangles holding vertex x; len(at) is the next
    # fresh vertex.
    at: list[list[int]] = [[0], [0], [0]]
    # live[k]: vertices 0 and 1 are still interchangeable when order[k]
    # is placed.
    live = [True] * (n + 1)

    def fits(k: int, t: tuple[int, int, int]) -> bool:
        """Does t share exactly M[v][w] + 1 vertices with every placed w?"""
        count: dict[int, int] = {}
        for x in t:
            for w in at[x] if x < len(at) else ():
                count[w] = count.get(w, 0) + 1
        return len(count) == len(meets[k]) and all(
            count.get(w) == value + 1 for w, value in meets[k]
        )

    def candidates(k: int) -> list[tuple[int, int, int]]:
        p0, p1, p2 = tri[parent[order[k]]]
        out = []
        for a, b in ((p0, p1),) if k == 1 else ((p0, p1), (p0, p2), (p1, p2)):
            apexes = [len(at)]
            for w, value in meets[k]:
                t = tri[w]
                need = value + 1 - (a in t) - (b in t)
                if need:
                    apexes = [x for x in t if x not in (a, b)] if need == 1 else []
                    break
            for z in apexes:
                t = (a, b, z)
                if not (live[k] and 1 in t and 0 not in t) and fits(k, t):
                    out.append(t)
        return out

    nodes = 0
    # The explicit stack: pending[k] holds the candidates for order[k]
    # not tried yet, for every k below the current depth.
    pending = [iter(())] * n
    pending[1] = iter(candidates(1))
    k = 1
    while k >= 1:
        if k < n:
            t = next(pending[k], None)
            if t is not None:
                nodes += 1
                if nodes > node_cap:
                    raise BudgetExceededError(
                        f"reconstruction search exceeded its node budget ({node_cap})"
                    )
                tri[order[k]] = t
                for x in t:
                    if x == len(at):
                        at.append([])
                    at[x].append(order[k])
                live[k + 1] = live[k] and (0 in t) == (1 in t)
                k += 1
                if k < n:
                    pending[k] = iter(candidates(k))
                continue
        else:
            yield tuple(tri)
        # Take back the triangle placed last.
        k -= 1
        if k >= 1:
            for x in tri[order[k]]:
                at[x].pop()
            if not at[-1]:
                at.pop()


def _build(
    tri: tuple[tuple[int, int, int], ...], want: tuple[tuple[int, ...], ...]
) -> Triangulation | None:
    """The complex with vertices relabelled v0, v1, ... in order of first
    appearance by triangle index, or None unless it is a closed surface
    whose matrix is ``want``.  The placement's triples hold three distinct
    vertices, so its triangles skip the label checks."""
    label: dict[int, str] = {}
    triangles = []
    for t in tri:
        for x in t:
            if x not in label:
                label[x] = f"v{len(label)}"
        triangles.append(Triangle._trusted(tuple(sorted(label[x] for x in t))))
    K = Triangulation(triangles)
    if not validate_closed_surface(K).is_closed_surface:
        return None
    if intersection_matrix(K).entries != want:
        return None
    return K


def reconstruct(
    M: IntersectionMatrix,
    *,
    find_all_solutions: bool = True,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ReconstructionResult:
    """Recover a triangulation whose intersection matrix is exactly M.

    The returned complex carries fresh vertex labels v0, v1, ... and its
    matrix equals M entry for entry in the same index order.  With
    ``find_all_solutions`` (the default) the search continues past the
    first solution and reports whether all of them are simplicially
    isomorphic; pass False to skip that continuation, which leaves
    ``all_solutions_isomorphic`` as None.

    Raises PatternError when M violates the closed-surface row conditions,
    ReconstructionError when no closed surface realizes M, and
    BudgetExceededError when the search places more than ``node_cap``
    candidate triangles.
    """
    ambiguity = detect_exceptional(M)  # checks M's row conditions first
    built = (_build(tri, M.entries) for tri in _grow(M, node_cap))
    solutions = (K for K in built if K is not None)
    first = next(solutions, None)
    if first is None:
        raise ReconstructionError(
            f"no triangulation of a connected closed surface has this "
            f"{M.n}x{M.n} intersection matrix"
        )
    all_iso: bool | None = None
    if find_all_solutions:
        all_iso = all(isomorphic(first, other) for other in solutions)
    return ReconstructionResult(
        complex=first,
        ambiguity=ambiguity,
        all_solutions_isomorphic=all_iso,
    )
