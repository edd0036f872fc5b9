"""Rebuilding a triangulation from its bare intersection matrix.

The input is only the matrix: no vertex labels, no hints.  Each triangle
owns three anonymous vertex slots; entry M[i,j] dictates how many slot
classes triangles i and j must share (2 for an edge, 1 for a vertex, 0
for disjoint).  A backtracking search merges slots pair by pair, pruning
the moment any pair exceeds its prescribed count, and accepts a candidate
when the induced complex is a connected closed surface that reproduces M
exactly.

The pairs are settled in an order taken from the dual graph, whose edges
are the entry-1 pairs; on a closed surface it is 3-regular and connected.
Triangles are reached in BFS order over it, and each newly reached
triangle is paired with every earlier one, edge pairs before vertex pairs.
A new triangle is thus glued along an edge to the surface built so far,
as in Weinberg's propagation for planar graph isomorphism, so the cost
does not depend on the index order of the input.  Disjoint pairs are never
visited: the pruning alone keeps them apart.  The backtracking keeps an
explicit stack with one frame per pair that needed merges, so its depth is
not bounded by the interpreter's recursion limit.

Symmetry is broken two ways so the search terminates at desk scale:
slots that were never merged are interchangeable within their triangle,
so only the lowest-numbered one is ever offered, and merges always keep
the lowest-numbered slot as class representative.  Every solution surfaced
is therefore a canonically labelled complex (vertices v0, v1, ... in order
of first slot appearance), and distinct solutions differ by more than a
per-triangle slot shuffle.

The two matrices whose complexes admit non-extendable self-maps are
recognized separately: ``detect_exceptional`` compares against the stored
canonical matrices of the 10- and 12-triangle projective planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

from . import catalog
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
    if M.n == 10:
        reference = _exceptional_matrix("tp10")
        if find_intersection_preserving_bijections(reference, M, limit=1):
            return "TP10"
    elif M.n == 12:
        reference = _exceptional_matrix("tp12")
        if find_intersection_preserving_bijections(reference, M, limit=1):
            return "TP12"
    return None


def _check_preconditions(M: IntersectionMatrix) -> None:
    # Symmetry, the diagonal and the entry range are enforced by the
    # IntersectionMatrix type itself; the closed-surface necessary
    # condition of exactly three edge-neighbours per triangle is not.
    for i in range(M.n):
        ones = sum(1 for v in M.row(i) if v == 1)
        if ones != 3:
            raise PatternError(
                f"row {i} has {ones} entries equal to 1, a closed surface "
                "requires exactly 3 (one per triangle edge)"
            )


class _SlotSearch:
    """Backtracking unification of triangle vertex slots against target
    shared-class counts."""

    def __init__(self, M: IntersectionMatrix, node_cap: int):
        self.n = M.n
        self.node_cap = node_cap
        self.nodes = 0
        self.want = M.entries
        n = self.n
        self.target = [
            [M[i, j] + 1 if i != j else 3 for j in range(n)] for i in range(n)
        ]
        self.shared = [[0] * n for _ in range(n)]
        total = 3 * n
        self.cls_of = list(range(total))
        self.members: dict[int, list[int]] = {s: [s] for s in range(total)}
        self.tris_of: dict[int, set[int]] = {s: {s // 3} for s in range(total)}
        self.solutions: list[Triangulation] = []

    # -- union with undo ----------------------------------------------------

    def _union(self, a_slot: int, b_slot: int):
        """Merge the classes of two slots; returns an undo token, or None
        when the merge would put two slots of one triangle in a class or
        push some pair beyond its target count."""
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise BudgetExceededError(
                f"reconstruction search exceeded its node budget ({self.node_cap})"
            )
        a, b = self.cls_of[a_slot], self.cls_of[b_slot]
        if a == b:
            return None
        keep, gone = (a, b) if a < b else (b, a)
        tris_keep, tris_gone = self.tris_of[keep], self.tris_of[gone]
        if tris_keep & tris_gone:
            return None
        increments: list[tuple[int, int]] = []
        ok = True
        for ta in tris_gone:
            for tb in tris_keep:
                self.shared[ta][tb] += 1
                self.shared[tb][ta] += 1
                increments.append((ta, tb))
                if self.shared[ta][tb] > self.target[ta][tb]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            for ta, tb in increments:
                self.shared[ta][tb] -= 1
                self.shared[tb][ta] -= 1
            return None
        moved = self.members.pop(gone)
        for s in moved:
            self.cls_of[s] = keep
        self.members[keep].extend(moved)
        frozen_gone = frozenset(tris_gone)
        tris_keep.update(tris_gone)
        del self.tris_of[gone]
        return (keep, gone, moved, frozen_gone, increments)

    def _undo(self, token) -> None:
        keep, gone, moved, tris_gone, increments = token
        for ta, tb in increments:
            self.shared[ta][tb] -= 1
            self.shared[tb][ta] -= 1
        kept = self.members[keep]
        del kept[len(kept) - len(moved) :]
        self.members[gone] = moved
        for s in moved:
            self.cls_of[s] = gone
        self.tris_of[keep].difference_update(tris_gone)
        self.tris_of[gone] = set(tris_gone)

    # -- plan enumeration ---------------------------------------------------

    def _free_slots(self, tri: int, partner: int) -> list[int]:
        """Slots of ``tri`` whose class holds no slot of ``partner``."""
        out = []
        for s in (3 * tri, 3 * tri + 1, 3 * tri + 2):
            if partner not in self.tris_of[self.cls_of[s]]:
                out.append(s)
        return out

    def _encode(self, slot: int):
        cls = self.cls_of[slot]
        if len(self.members[cls]) == 1:
            return ("fresh",)
        return ("class", cls)

    def _plans(self, i: int, j: int, t: int) -> list[tuple[tuple[int, int], ...]]:
        """All inequivalent ways to create ``t`` new shared classes between
        triangles i and j, in lowest-slot-first order.

        Never-merged slots of one triangle are interchangeable, so plans
        that differ only by which fresh slot they touch are emitted once,
        using the lowest-numbered slots.
        """
        slots_i = self._free_slots(i, j)
        slots_j = self._free_slots(j, i)
        if len(slots_i) < t or len(slots_j) < t:
            return []
        plans: list[tuple[tuple[int, int], ...]] = []
        seen = set()
        if t == 1:
            for a in slots_i:
                for b in slots_j:
                    key = (self._encode(a), self._encode(b))
                    if key not in seen:
                        seen.add(key)
                        plans.append(((a, b),))
        else:
            for a1, a2 in combinations(slots_i, 2):
                for b1, b2 in permutations(slots_j, 2):
                    plan = ((a1, b1), (a2, b2))
                    key = tuple(
                        sorted(
                            (self._encode(a), self._encode(b)) for a, b in plan
                        )
                    )
                    if key not in seen:
                        seen.add(key)
                        plans.append(plan)
        return plans

    # -- main search ----------------------------------------------------------

    def _pair_order(self) -> list[tuple[int, int]] | None:
        """Matrix pairs in the order the search settles them.

        Triangles are taken in BFS order over the entry-1 (dual) graph,
        and each newly reached triangle is paired with every earlier one:
        edge pairs first, then vertex pairs.  So every new triangle is
        glued along an edge to one already placed, and the pruning bites
        whatever the index order of the input.  Disjoint pairs need no
        merge; ``_union`` rejects any merge that would make them meet.
        Returns None when the matrix is empty or its dual graph is
        disconnected: no connected closed surface has either.
        """
        if self.n == 0:
            return None
        want = self.want
        order = [0]
        seen = [False] * self.n
        seen[0] = True
        for u in order:
            for v, value in enumerate(want[u]):
                if value == 1 and not seen[v]:
                    seen[v] = True
                    order.append(v)
        if len(order) != self.n:
            return None
        pairs = []
        for k, v in enumerate(order):
            earlier = order[:k]
            pairs += [(u, v) for u in earlier if want[u][v] == 1]
            pairs += [(u, v) for u in earlier if want[u][v] == 0]
        return pairs

    def _apply(self, plan) -> list | None:
        """Undo tokens for the merges of ``plan``, or None (with nothing
        left merged) when one of them is rejected."""
        tokens = []
        for a, b in plan:
            token = self._union(a, b)
            if token is None:
                for done in reversed(tokens):
                    self._undo(done)
                return None
            tokens.append(token)
        return tokens

    def run(self, stop_after_first: bool) -> list[Triangulation]:
        pairs = self._pair_order()
        if pairs is None:
            return self.solutions
        # One frame per pair that needed merges: [pair index, remaining
        # plans, undo tokens of the plan in force].
        stack: list[list] = []
        pidx = 0
        while True:
            while pidx < len(pairs):
                i, j = pairs[pidx]
                t = self.target[i][j] - self.shared[i][j]
                if t:
                    stack.append([pidx, iter(self._plans(i, j, t)), []])
                    break
                pidx += 1
            else:
                candidate = self._build()
                if candidate is not None:
                    self.solutions.append(candidate)
                    if stop_after_first:
                        return self.solutions
            # Move the deepest frame that still has a plan to its next one.
            while stack:
                frame = stack[-1]
                for token in reversed(frame[2]):
                    self._undo(token)
                for plan in frame[1]:
                    tokens = self._apply(plan)
                    if tokens is not None:
                        frame[2] = tokens
                        pidx = frame[0] + 1
                        break
                else:
                    stack.pop()
                    continue
                break
            else:
                return self.solutions

    def _build(self) -> Triangulation | None:
        label_of: dict[int, str] = {}
        for slot in range(3 * self.n):
            cls = self.cls_of[slot]
            if cls not in label_of:
                label_of[cls] = f"v{len(label_of)}"
        triangles = [
            Triangle(
                (
                    label_of[self.cls_of[3 * i]],
                    label_of[self.cls_of[3 * i + 1]],
                    label_of[self.cls_of[3 * i + 2]],
                )
            )
            for i in range(self.n)
        ]
        K = Triangulation(triangles)
        if not validate_closed_surface(K).is_closed_surface:
            return None
        if intersection_matrix(K).entries != self.want:
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
    BudgetExceededError when the search exceeds ``node_cap`` merges.
    """
    _check_preconditions(M)
    search = _SlotSearch(M, node_cap)
    solutions = search.run(stop_after_first=not find_all_solutions)
    if not solutions:
        raise ReconstructionError(
            f"no triangulation of a connected closed surface has this "
            f"{M.n}x{M.n} intersection matrix"
        )
    first = solutions[0]
    all_iso: bool | None = None
    if find_all_solutions:
        all_iso = all(isomorphic(first, other) for other in solutions[1:])
    return ReconstructionResult(
        complex=first,
        ambiguity=detect_exceptional(M),
        all_solutions_isomorphic=all_iso,
    )
