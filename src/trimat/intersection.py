"""Intersection matrices and intersection-preserving triangle bijections.

The intersection matrix of a triangulation with triangles s_0..s_(n-1) has
entry (i, j) equal to the dimension of s_i ∩ s_j as a simplex: -1 for
disjoint triangles, 0 for a shared vertex, 1 for a shared edge, 2 on the
diagonal.  Equivalently, entry = |shared vertices| - 1.  It is computed
from the complex's vertex index: each row starts at -1 and gains 1 for
every vertex of its triangle that the other triangle also holds.  That is
O(n·d) counting steps for n triangles of vertex degree at most d, on top
of filling the dense rows, instead of n² set intersections.

A triangle bijection between two complexes of equal size preserves
intersections when it preserves every matrix entry.  Such a bijection may
or may not be induced by a vertex map.  On a closed surface a vertex is
known by its star, the set of triangles that contain it, so
``extend_to_simplicial`` maps each vertex x to the vertex whose star is
the image of x's star, and the bijection extends exactly when every such
image is a star.  A map that extends is induced by a vertex bijection and
so preserves every entry: the extension certifies preservation, and only a
map that does not extend is checked, by ``is_intersection_preserving``:
K's matrix renumbered through the map (``permuted``) must equal K2's.
``_extend``, the construction without validation, serves callers that
validate each complex once, not once per map: the extension counts of
the corpus checks (``verification``) extend the generators of a
surface's group of self-maps, and every preserving self-map only on a
surface where a generator does not extend.

``isomorphic`` decides whether two surfaces are simplicially isomorphic
on the vertex side, by the walk ``complexes._vertex_walk``: a simplicial
isomorphism is a vertex bijection, so it searches no triangle map and
builds no matrix.

The ``.imat`` text format: first line n, then n lines of n space-separated
integers in {-1, 0, 1, 2}.  A bijection serializes as a single line of n
image indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, islice
from operator import itemgetter
from typing import Iterator

from . import _search
from ._search import iter_bijections
from .complexes import Triangle, Triangulation, _require_closed_surface, _vertex_walk
from .errors import MappingError, ParseError

__all__ = [
    "IntersectionMatrix",
    "TriangleBijection",
    "Extended",
    "NonExtendable",
    "ExtensionResult",
    "intersection_dim",
    "intersection_matrix",
    "is_intersection_preserving",
    "find_intersection_preserving_bijections",
    "extend_to_simplicial",
    "isomorphic",
    "parse_matrix",
    "serialize_matrix",
    "parse_bijection",
    "serialize_bijection",
]

_VALID_ENTRIES = (-1, 0, 1, 2)


def intersection_dim(t1: Triangle, t2: Triangle) -> int:
    """Dimension of the intersection simplex: |t1 ∩ t2| - 1."""
    return sum(v in t2.vertices for v in t1.vertices) - 1


@dataclass(frozen=True)
class IntersectionMatrix:
    """Symmetric n x n matrix over {-1, 0, 1, 2} with diagonal 2.

    The constructor stores the rows as tuples, whatever sequences they come
    in, so the matrix is hashable and equals its tuple twin.  It validates
    every entry, for matrices that callers build and for ``parse_matrix``.
    The matrices the library makes itself are correct by construction and
    skip that check: ``intersection_matrix``, ``permuted`` and
    ``cycles.ncycle_matrix`` build them through ``_trusted``.

    Besides its entries a matrix keeps two facts that the searches in
    ``_search`` read, each worked out on first use: ``_view``, the sparse
    rows of ``_search._near``, and ``_plan``, the placement plan of
    ``_search._plan``.  So a matrix that is searched many times is read
    once.  They take no part in equality, hashing or the repr.
    """

    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def _trusted(cls, entries: tuple[tuple[int, ...], ...]) -> "IntersectionMatrix":
        """A matrix whose entries are known to be valid, not re-checked."""
        M = object.__new__(cls)
        object.__setattr__(M, "entries", entries)
        return M

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(map(tuple, self.entries)))
        n = len(self.entries)
        if n == 0:
            raise ValueError("matrix size must be positive, got 0")
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
        for i, row in enumerate(self.entries):
            for j, value in enumerate(row):
                # An int only: 2.0 and True compare equal to 2 and 1, but
                # ``serialize_matrix`` would write them as "2.0" and "True".
                if type(value) is not int or value not in _VALID_ENTRIES:
                    raise ValueError(f"entry ({i},{j}) = {value} outside {{-1,0,1,2}}")
                if self.entries[j][i] != value:
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
            if row[i] != 2:
                raise ValueError(f"diagonal entry ({i},{i}) = {row[i]}, expected 2")

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    # cached_property writes to the instance dict, which the frozen
    # dataclass's __setattr__ does not guard.
    @cached_property
    def _view(self) -> list[list[tuple[int, int]]]:
        return _search._near(self.entries)

    @cached_property
    def _plan(self) -> tuple[list[int], list[int], list[list[tuple[int, int]]]]:
        return _search._plan(self._view)

    def permuted(self, perm: "TriangleBijection") -> "IntersectionMatrix":
        """The matrix of the same complex with triangle i renumbered to
        perm(i): entry (perm(i), perm(j)) = entry (i, j)."""
        if perm.n != self.n:
            raise MappingError(f"permutation size {perm.n} != matrix size {self.n}")
        # New row a is old row inv[a] read at the columns inv (itemgetter
        # of one index returns an entry, not a row).
        inv = _search._inverse(perm.forward)
        read = itemgetter(*inv) if self.n > 1 else tuple
        return IntersectionMatrix._trusted(tuple(read(self.entries[i]) for i in inv))


def intersection_matrix(K: Triangulation) -> IntersectionMatrix:
    """Matrix of pairwise intersection dimensions in triangle index order.

    Row i starts at -1, and each vertex of triangle i adds 1 at the column
    of every triangle in its star, so entry (i, j) ends at |s_i ∩ s_j| - 1
    and the diagonal at 2.  Worked out on the first call for a complex and
    kept on it.
    """
    if K._matrix is None:
        rows = []
        for t in K.triangles:
            row = [-1] * K.n
            for v in t.vertices:
                for j in K.triangles_at(v):
                    row[j] += 1
            rows.append(tuple(row))
        K._matrix = IntersectionMatrix._trusted(tuple(rows))
    return K._matrix


@dataclass(frozen=True)
class TriangleBijection:
    """A bijection of triangle index sets, stored as the image sequence.

    The constructor stores the images as a tuple and checks that they are
    a permutation.  The maps the search kernel yields, inverses and
    compositions of valid maps, and the shuffles of ``range(n)`` that
    verification criteria 6 and 7 draw are permutations by construction
    and skip that check through ``_trusted``.
    """

    forward: tuple[int, ...]

    @classmethod
    def _trusted(cls, forward: tuple[int, ...]) -> "TriangleBijection":
        """A bijection known to be a permutation, not re-checked."""
        f = object.__new__(cls)
        object.__setattr__(f, "forward", forward)
        return f

    def __post_init__(self) -> None:
        object.__setattr__(self, "forward", tuple(self.forward))
        n = len(self.forward)
        if n == 0:
            raise MappingError("bijection size must be positive, got 0")
        # Ints only, as for matrix entries: True sorts as 1.
        if any(type(j) is not int for j in self.forward) or (
            sorted(self.forward) != list(range(n))
        ):
            raise MappingError(f"not a permutation of 0..{n - 1}: {self.forward}")

    @classmethod
    def identity(cls, n: int) -> "TriangleBijection":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.forward)

    def __call__(self, i: int) -> int:
        return self.forward[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self.forward)

    def inverse(self) -> "TriangleBijection":
        return TriangleBijection._trusted(_search._inverse(self.forward))

    def compose(self, first: "TriangleBijection") -> "TriangleBijection":
        """self ∘ first: apply ``first``, then ``self``."""
        if first.n != self.n:
            raise MappingError(f"cannot compose sizes {first.n} and {self.n}")
        return TriangleBijection._trusted(tuple(self.forward[j] for j in first.forward))

    def __str__(self) -> str:
        return serialize_bijection(self).rstrip("\n")


def is_intersection_preserving(
    K: Triangulation, K2: Triangulation, f: TriangleBijection
) -> bool:
    """True iff dim(s_i ∩ s_j) = dim(f(s_i) ∩ f(s_j)) for every pair,
    that is, iff K's matrix renumbered through f is K2's."""
    _check_sizes(K, K2, f)
    return intersection_matrix(K).permuted(f) == intersection_matrix(K2)


def _check_sizes(K: Triangulation, K2: Triangulation, f: TriangleBijection) -> None:
    if K.n != K2.n:
        raise MappingError(f"complex sizes differ: {K.n} vs {K2.n}")
    if f.n != K.n:
        raise MappingError(f"bijection size {f.n} does not match complexes of size {K.n}")


def find_intersection_preserving_bijections(
    M: IntersectionMatrix,
    M2: IntersectionMatrix,
    limit: int | None = None,
) -> list[TriangleBijection]:
    """All bijections g with M2[g(i), g(j)] = M[i, j], lexicographically.

    Returns the empty list when none exist (in particular when the sizes
    differ).  ``limit`` truncates the output to the first ``limit``
    bijections in lexicographic order of the image sequence.  The search
    kernel (see ``_search``) places rows in BFS order over the entry-1
    (dual) graph of M, so each row after the first of its component maps
    to one of the entry-1 neighbours of its BFS parent's image, at most 3
    on a closed surface, whatever the indexing of the triangles.  It
    yields maps in that search order, not lexicographically; this is the
    one function that sorts them.

    Sorting the whole enumeration is not needed.  Let k be the length of
    the longest prefix of the placement order that is rows 0..k-1 in
    index order.  Those rows try their images in ascending order, so the
    maps that share the images of rows 0..k-1 (a group) come out together
    and the groups come out in ascending order; each group is sorted
    before any of it is returned.  The first group is known complete
    when the next map comes out or the search ends.  Every group that is
    not empty holds as many maps as the first, so a later group is
    complete once it holds that many, and the search stops there when that
    group fills ``limit``.  The kernel composes a later group from the
    automorphisms of M it has found so far, with no search, when it can;
    it computes nothing ahead of what is read, so ``limit`` bounds the
    work as well as the output.
    """
    if limit is not None and limit <= 0:
        return []
    prefix = itemgetter(slice(0, _search._in_order(M._plan[0])))
    out: list[tuple[int, ...]] = []
    size = None  # maps per group, known once the first group is complete
    for _, group in groupby(iter_bijections(M, M2), prefix):
        images = sorted(islice(group, size))
        size = len(images)
        out += images
        if limit is not None and len(out) >= limit:
            break
    return [TriangleBijection._trusted(img) for img in out[:limit]]


# -- extension of a triangle bijection to a vertex map -----------------------


@dataclass(frozen=True)
class Extended:
    """The bijection is simplicial: induced by the given vertex bijection."""

    vertex_map: dict[str, str]


@dataclass(frozen=True)
class NonExtendable:
    """No vertex map induces the bijection; ``witness_vertex`` is the
    lowest-labelled vertex whose star the bijection does not carry onto a
    star."""

    witness_vertex: str


ExtensionResult = Extended | NonExtendable


def extend_to_simplicial(
    K: Triangulation, K2: Triangulation, f: TriangleBijection
) -> ExtensionResult:
    """Try to extend an intersection-preserving triangle bijection to a
    simplicial isomorphism.

    A vertex of a closed surface is known by its star, the triangles that
    contain it.  The map extends exactly when f carries the star of every
    vertex x onto the star of some vertex y, and then x maps to y.

    An extension is its own certificate of preservation: the vertex map φ
    it returns is a bijection with f(t) = φ(t) for every triangle t (see
    ``_extend``), so |f(s) ∩ f(t)| = |s ∩ t| for every pair.  So the
    preservation check runs only when f does not extend, to tell a
    non-extendable preserving map from one that preserves nothing.

    Raises MappingError if the sizes differ or f does not extend and is
    not intersection preserving, and SurfaceError if either complex is not
    a connected closed surface.
    """
    _require_closed_surface(K, "the first complex")
    _require_closed_surface(K2, "the second complex")
    _check_sizes(K, K2, f)
    result = _extend(K, K2, f.forward)
    if isinstance(result, NonExtendable) and not is_intersection_preserving(K, K2, f):
        raise MappingError("bijection is not intersection preserving")
    return result


def isomorphic(K: Triangulation, K2: Triangulation) -> bool:
    """Whether two connected closed surfaces are simplicially isomorphic.

    A simplicial isomorphism is a vertex bijection, so the answer is
    whether the vertex walk ``complexes._vertex_walk`` yields a map; it
    stops at the first.  No intersection matrix is built.  Each complex is
    validated once.

    Raises SurfaceError if either complex is not a connected closed surface.
    """
    _require_closed_surface(K, "the first complex")
    _require_closed_surface(K2, "the second complex")
    return next(_vertex_walk(K, K2, [0] * len(K.vertices())), None) is not None


def _extend(K: Triangulation, K2: Triangulation, image: tuple[int, ...]) -> ExtensionResult:
    """The vertex-map construction of ``extend_to_simplicial`` for the
    triangle bijection f with image sequence ``image``, for callers that
    have validated both complexes and hold a bijection of their size.

    On a closed surface a vertex is known by its star, so x maps to the
    vertex of K2 whose star is f(star(x)), and the map extends exactly when
    every such image is a star.  For a preserving f, the images of star(x)
    pairwise meet as star(x) does, so if they share a vertex y they close
    up a fan inside y's link cycle and are all of star(y).  For any f, a
    map φ that sends every star onto a star is injective, since distinct
    vertices have distinct stars; the image f(t) of a triangle t lies in
    the stars of the three images of t's vertices, so f(t) = φ(t), and as
    f is onto, so is φ.  That is the certificate ``extend_to_simplicial``
    trusts.  The index from the stars of K2 to its vertices is built on
    the first call for K2 and kept on it.  K's side is kept the same way,
    on the first call for K: its star readers, one ``itemgetter`` over the
    star of each vertex in label order, so each star is mapped through one
    getter call, as ``permuted`` renumbers rows, and the first vertex that
    fails is the lowest-labelled.
    """
    vertex_of = K2._vertex_of_star
    if vertex_of is None:
        vertex_of = K2._vertex_of_star = {
            frozenset(K2.triangles_at(y)): y for y in K2.vertices()
        }
    readers = K._star_readers
    if readers is None:
        # A star on a closed surface holds at least 3 triangles, so each
        # getter returns a tuple.
        readers = K._star_readers = tuple(
            (x, itemgetter(*K.triangles_at(x))) for x in K.vertices()
        )
    vertex_map: dict[str, str] = {}
    for x, read in readers:
        y = vertex_of.get(frozenset(read(image)))
        if y is None:
            return NonExtendable(witness_vertex=x)
        vertex_map[x] = y
    return Extended(vertex_map=vertex_map)


# -- text formats -------------------------------------------------------------


def serialize_matrix(M: IntersectionMatrix) -> str:
    lines = [str(M.n)]
    lines += [" ".join(str(v) for v in row) for row in M.entries]
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> IntersectionMatrix:
    """Parse ``.imat`` text.  Comments (#) and blank lines are tolerated."""
    rows: list[tuple[int, ...]] = []
    n: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ParseError(f"expected the matrix size, got {line!r}", lineno)
            if n < 1:
                raise ParseError(f"matrix size must be positive, got {n}", lineno)
            continue
        try:
            row = tuple(map(int, line.split()))
        except ValueError:
            raise ParseError(f"non-integer matrix entry in {line!r}", lineno)
        if len(row) != n:
            raise ParseError(f"expected {n} entries, got {len(row)}", lineno)
        rows.append(row)
        if len(rows) > n:
            raise ParseError("more matrix rows than declared", lineno)
    if n is None:
        raise ParseError("empty matrix input")
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, got {len(rows)}")
    try:
        return IntersectionMatrix(tuple(rows))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_bijection(f: TriangleBijection) -> str:
    return " ".join(str(j) for j in f.forward) + "\n"


def parse_bijection(text: str) -> TriangleBijection:
    tokens = text.split()
    if not tokens:
        raise ParseError("empty bijection input")
    try:
        forward = tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ParseError(f"non-integer bijection entry in {text!r}")
    try:
        return TriangleBijection(forward)
    except MappingError as exc:
        raise ParseError(str(exc)) from None
