"""Rebuilding a triangulation from its bare intersection matrix.

The input is only the matrix: no vertex labels, no hints.  Entry M[v][w]
says how many vertices triangles v and w share, less one (1 for an edge,
0 for a vertex, -1 for disjoint).  The triangles that share an edge form
the dual graph, which on a closed surface is 3-regular and connected.

``reconstruct`` first checks the rows M must have on a closed surface:
one 2 (the diagonal) and three 1s.  It then reads the exact placements of
M from the growth search ``_search._grow`` (see there for the apex rule,
the two symmetry rules and the node count) and keeps those that are
closed surfaces and reproduce M exactly; pairwise counts rule out neither
a pinched vertex nor four triangles on one edge (a placement of the 4x4
all-ones matrix).  It stops at the first unless asked for all.

The two matrices whose complexes admit non-extendable self-maps are
recognized separately: ``detect_exceptional`` compares against the
matrices of the catalog's 10- and 12-triangle projective planes, which
``catalog.standard`` builds once and which keep their own matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import catalog
from ._search import DEFAULT_NODE_CAP, _grow, iter_bijections
from .complexes import Triangle, Triangulation, validate_closed_surface
from .errors import PatternError, ReconstructionError
from .intersection import IntersectionMatrix, intersection_matrix, isomorphic

__all__ = [
    "ReconstructionResult",
    "reconstruct",
    "detect_exceptional",
]


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


def detect_exceptional(M: IntersectionMatrix) -> str | None:
    """Return "TP10"/"TP12" when M is permutation equivalent to the matrix
    of the corresponding projective-plane triangulation, else None.

    Any one preserving bijection onto M from the catalog complex's matrix
    settles it, so the kernel's search stops at the first it finds.  Sizes
    other than 10 and 12 short-circuit without a bijection search, but
    only after ``_check_preconditions`` has scanned every row.
    """
    _check_preconditions(M)
    name = {10: "tp10", 12: "tp12"}.get(M.n)
    if name and next(iter_bijections(intersection_matrix(catalog.standard(name)), M), None) is not None:
        return name.upper()
    return None


def _check_preconditions(M: IntersectionMatrix) -> None:
    # The IntersectionMatrix type enforces symmetry, the diagonal and the
    # entry range, so a row's 2s past its diagonal one are off it.  Two
    # necessary conditions remain: distinct triangles share at most an
    # edge, and on a closed surface each has exactly three edge-neighbours.
    for i, row in enumerate(M.entries):
        if row.count(2) != 1:
            j = next(j for j, v in enumerate(row) if v == 2 and j != i)
            raise PatternError(
                f"entry ({i},{j}) is 2 off the diagonal, but distinct "
                "triangles share at most an edge"
            )
        ones = row.count(1)
        if ones != 3:
            raise PatternError(
                f"row {i} has {ones} entries equal to 1, a closed surface "
                "requires exactly 3 (one per triangle edge)"
            )


def _build(tri: tuple[tuple[int, int, int], ...], M: IntersectionMatrix) -> Triangulation | None:
    """The complex with vertices relabelled v0, v1, ... in order of first
    appearance by triangle index, or None unless it is a closed surface
    whose matrix is M.  The placement's triples hold three distinct
    vertices, so its triangles skip the label checks.  The complex's own
    matrix is computed from its triangles; once it is shown equal to M, it
    takes M's search view and plan (see ``IntersectionMatrix``) instead of
    working them out again."""
    label: dict[int, str] = {}
    triangles = []
    for t in tri:
        for x in t:
            if x not in label:
                label[x] = f"v{len(label)}"
        triangles.append(Triangle._trusted(tuple(sorted(map(label.__getitem__, t)))))
    K = Triangulation(triangles)
    if not validate_closed_surface(K).is_closed_surface:
        return None
    own = intersection_matrix(K)
    if own.entries != M.entries:
        return None
    # A cached property is read from the instance dict once it is there.
    own.__dict__.update(_view=M._view, _plan=M._plan)
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
    built = (_build(tri, M) for tri in _grow(M, node_cap))
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
