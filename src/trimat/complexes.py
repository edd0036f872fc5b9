"""Abstract simplicial 2-complexes given as indexed triangle lists.

A triangulation here is nothing more than an ordered sequence of distinct
triangles, each three vertex labels.  A triangle holds only its labels,
sorted into a tuple; its vertex set is made from that tuple when it is
read.  Labels are opaque text tokens; the index order of the triangles is
part of the identity of the complex (it fixes matrix row order
downstream).  Everything is immutable after construction and all
operations are pure functions.  The constructor makes one pass over the
triangles: it checks each one's type, rejects a repeated label tuple, and
indexes the vertices.

The ``.tri`` text format: one triangle per line as three whitespace
separated labels, ``#`` starts a comment, blank lines are ignored, and the
triangle index is the order of occurrence.  So a label holds neither
whitespace nor ``#``, and ``serialize_triangulation`` is exactly inverted
by ``parse_triangulation``.

Surface validation and vertex stars share one walk around each vertex
link; the order of that walk is the vertex star.

Since a triangulation never changes, the facts derived from it are worked
out once per complex, on first use, and kept on the instance: the edge
index (from each edge to the triangles on it), the ``SurfaceReport`` of
``validate_closed_surface``, the intersection matrix
(``intersection.intersection_matrix``) and the index from vertex stars to
vertices that ``intersection.extend_to_simplicial`` reads.

Validation walks the links before it looks at edges.  When every link is
one cycle, each edge {v, u} lies in exactly the two triangles of v's star
that hold u, so the complex is closed; the edge index is built only when
some link fails, or when ``edges``, ``triangles_on``, ``boundary_edges``,
``euler_characteristic`` or ``orientability`` asks for it.

A simplicial isomorphism is a vertex bijection that maps the triangles
onto the triangles.  ``_vertex_walk`` yields each one from one complex
onto another, by a search along the 1-skeleton; it decides
``intersection.isomorphic`` and lists
``verification.simplicial_automorphisms``, and reads no intersection
matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Iterable

from .errors import ParseError, SurfaceError

if TYPE_CHECKING:
    from .intersection import IntersectionMatrix

__all__ = [
    "Triangle",
    "Triangulation",
    "SurfaceReport",
    "parse_triangulation",
    "serialize_triangulation",
    "validate_closed_surface",
    "vertex_star",
    "euler_characteristic",
    "orientability",
    "boundary_edges",
]


def _check_label(label: str) -> str:
    if not isinstance(label, str) or not label:
        raise ValueError(f"vertex label must be a non-empty string, got {label!r}")
    # str.split() cuts at exactly the characters str.isspace() accepts.
    if label.split() != [label]:
        raise ValueError(f"vertex label may not contain whitespace: {label!r}")
    if "#" in label:
        raise ValueError(f"vertex label may not contain '#', which starts a comment: {label!r}")
    return label


@dataclass(frozen=True, order=True)
class Triangle:
    """A 2-simplex: exactly three distinct vertex labels.

    A triangle holds one thing, its labels sorted into the tuple
    ``vertices``; repr, equality, hash and ordering all come from it.  The
    vertex set is made from that tuple each time ``vertex_set`` is read.
    """

    vertices: tuple[str, str, str]

    def __init__(self, vertices: Iterable[str]):
        vs = tuple(sorted(_check_label(v) for v in vertices))
        if len(vs) != 3 or len(set(vs)) != 3:
            raise ValueError(f"a triangle needs exactly 3 distinct vertices, got {vs!r}")
        object.__setattr__(self, "vertices", vs)

    @classmethod
    def _trusted(cls, vertices: tuple[str, str, str]) -> "Triangle":
        """A triangle from a tuple the caller guarantees holds three
        distinct valid labels, sorted; nothing is re-checked, and equality,
        hashing and the duplicate check of ``Triangulation`` rest on that
        guarantee.  Its callers are ``parse_triangulation``, whose tokens
        come from splitting a line at whitespace after cutting it at ``#``
        (so none is empty or holds either), and ``reconstruct._build``,
        which makes its own labels."""
        t = object.__new__(cls)
        # A frozen dataclass refuses setattr.  Writing t.__dict__ instead
        # gives the instance a full dict, which on CPython 3.11 makes every
        # later attribute read several times slower.
        object.__setattr__(t, "vertices", vertices)
        return t

    @property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    def edges(self) -> tuple[frozenset[str], ...]:
        a, b, c = self.vertices
        return (frozenset((a, b)), frozenset((a, c)), frozenset((b, c)))

    def __str__(self) -> str:
        return " ".join(self.vertices)


class Triangulation:
    """An ordered sequence of distinct triangles forming a pure 2-complex.

    Vertices and edges exist only as faces of the triangles.  ``n`` is the
    triangle count; ``triangles[i]`` is the i-th triangle.
    """

    __slots__ = (
        "triangles",
        "_edge_map",
        "_vertex_map",
        "_vertices",
        "_report",
        "_matrix",
        "_vertex_of_star",
    )

    def __init__(self, triangles: Iterable[Triangle]):
        tris = tuple(triangles)
        if not tris:
            raise ValueError("a triangulation needs at least one triangle")
        # Both constructors of Triangle store sorted labels, so the label
        # tuple is the duplicate key.
        seen: set[tuple[str, ...]] = set()
        vertex_map: dict[str, list[int]] = {}
        for i, t in enumerate(tris):
            if not isinstance(t, Triangle):
                raise TypeError(f"expected Triangle, got {type(t).__name__}")
            vs = t.vertices
            if vs in seen:
                raise ValueError(f"duplicate triangle: {t}")
            seen.add(vs)
            for v in vs:
                vertex_map.setdefault(v, []).append(i)
        self.triangles: tuple[Triangle, ...] = tris
        self._vertex_map = {v: tuple(ix) for v, ix in vertex_map.items()}
        self._vertices = tuple(sorted(vertex_map))
        # Derived facts, each set on first use by the function that works
        # it out: _edge_index, validate_closed_surface,
        # intersection.intersection_matrix and intersection._extend.
        self._edge_map: dict[frozenset[str], tuple[int, ...]] | None = None
        self._report: SurfaceReport | None = None
        self._matrix: IntersectionMatrix | None = None
        self._vertex_of_star: dict[frozenset[int], str] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.triangles)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangulation):
            return NotImplemented
        return self.triangles == other.triangles

    def __hash__(self) -> int:
        return hash(self.triangles)

    def __repr__(self) -> str:
        return f"Triangulation({self.n} triangles, {len(self.vertices())} vertices)"

    def vertices(self) -> tuple[str, ...]:
        """The vertex labels, sorted."""
        return self._vertices

    def _edge_index(self) -> dict[frozenset[str], tuple[int, ...]]:
        """Each edge, in order of first appearance by triangle index, with
        the indices of the triangles on it."""
        if self._edge_map is None:
            edge_map: dict[frozenset[str], list[int]] = {}
            for i, t in enumerate(self.triangles):
                for e in t.edges():
                    edge_map.setdefault(e, []).append(i)
            self._edge_map = {e: tuple(ix) for e, ix in edge_map.items()}
        return self._edge_map

    def edges(self) -> tuple[frozenset[str], ...]:
        return tuple(self._edge_index())

    def triangles_at(self, v: str) -> tuple[int, ...]:
        """Indices of the triangles containing vertex ``v``."""
        try:
            return self._vertex_map[v]
        except KeyError:
            raise SurfaceError(f"vertex {v!r} does not occur in the complex") from None

    def triangles_on(self, edge: frozenset[str]) -> tuple[int, ...]:
        return self._edge_index().get(edge, ())

    def degree(self, v: str) -> int:
        return len(self.triangles_at(v))


@dataclass(frozen=True)
class SurfaceReport:
    """Outcome of the closed-surface validation: the three findings whose
    conjunction is ``is_closed_surface``.  Problems are reported, never
    thrown.  Frozen, since every caller that validates the same complex
    shares the report.  The Euler characteristic, orientability and vertex
    degrees are not part of it: ``euler_characteristic``, ``orientability``
    and ``Triangulation.degree`` give them.
    """

    connected: bool
    closed: bool
    links_ok: bool

    @property
    def is_closed_surface(self) -> bool:
        return self.connected and self.closed and self.links_ok


# -- .tri text format -------------------------------------------------------


def parse_triangulation(text: str) -> Triangulation:
    """Parse ``.tri`` text into a Triangulation, preserving file order."""
    triangles: list[Triangle] = []
    seen: dict[tuple[str, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 3:
            raise ParseError(f"expected 3 vertex labels, got {len(tokens)}", lineno)
        if len(set(tokens)) != 3:
            raise ParseError(f"repeated vertex within a triangle: {line!r}", lineno)
        key = tuple(sorted(tokens))
        if key in seen:
            raise ParseError(
                f"duplicate triangle {' '.join(key)!r} (first seen on line {seen[key]})",
                lineno,
            )
        seen[key] = lineno
        triangles.append(Triangle._trusted(key))
    if not triangles:
        raise ParseError("no triangles found in input")
    return Triangulation(triangles)


def serialize_triangulation(K: Triangulation) -> str:
    """Render ``.tri`` text; ``parse_triangulation`` inverts this exactly."""
    return "".join(f"{t}\n" for t in K.triangles)


# -- surface validation ------------------------------------------------------


def _is_connected(K: Triangulation) -> bool:
    # Connectivity of the 1-skeleton, walked from each vertex to the other
    # vertices of its triangles; for a pure 2-complex this is the
    # connectivity of the underlying space.
    verts = K.vertices()
    todo = [verts[0]]
    reached = {verts[0]}
    while todo:
        for i in K.triangles_at(todo.pop()):
            for w in K.triangles[i].vertices:
                if w not in reached:
                    reached.add(w)
                    todo.append(w)
    return len(reached) == len(verts)


def _link_cycle(K: Triangulation, v: str) -> tuple[int, ...] | None:
    """The star of ``v`` in cyclic order, or None unless the link of ``v``
    is a single cycle.

    ``across[u]`` lists the star triangles on the edge {v, u}.  The link is
    one cycle exactly when each of these edges lies in two star triangles
    and the walk from triangle to triangle across them covers the star;
    stars of one or two triangles always leave an edge in only one.  The
    walk starts at the lowest index and heads toward the lower-indexed of
    its two neighbours.
    """
    star = K.triangles_at(v)
    triangles = K.triangles
    across: dict[str, list[int]] = {}
    for i in star:
        for u in triangles[i].vertices:
            if u != v:
                pair = across.get(u)
                if pair is None:
                    across[u] = [i]
                else:
                    pair.append(i)
    for pair in across.values():
        if len(pair) != 2:
            return None
    # The star and each across[u] are in increasing index order, so the
    # lowest triangle comes first in both of its pairs.
    start = star[0]
    x, y, z = triangles[start].vertices
    if x == v:
        u, w = y, z
    elif y == v:
        u, w = x, z
    else:
        u, w = x, y
    if across[w][1] < across[u][1]:
        u = w
    cycle = [start]
    i = start
    while True:
        a, b = across[u]
        i = b if a == i else a
        if i == start:
            break
        cycle.append(i)
        # Leave triangle i across its edge through v that is not {v, u}.
        x, y, z = triangles[i].vertices
        if x != v and x != u:
            u = x
        elif y != v and y != u:
            u = y
        else:
            u = z
    return tuple(cycle) if len(cycle) == len(star) else None


def _oriented_consistently(K: Triangulation) -> bool:
    """Whether the triangles can be oriented so that every two that share
    an edge run it in opposite directions.

    A triangle with sorted vertices (a, b, c), unflipped, runs a -> b -> c,
    so it runs an edge upward exactly when the edge holds b.  ``flip[i]``
    says whether triangle i runs the other way, and triangles i and j on a
    shared edge e run it oppositely exactly when
    flip[j] = ((b_i in e) == (b_j in e)) != flip[i].  The bits spread from
    each triangle not yet reached; a clash returns False.  Assumes every
    edge lies in at most 2 triangles; an edge in one triangle constrains
    nothing.
    """
    flip: list[bool | None] = [None] * K.n
    for seed in range(K.n):
        if flip[seed] is not None:
            continue
        flip[seed] = False
        todo = [seed]
        while todo:
            i = todo.pop()
            t = K.triangles[i]
            b_i = t.vertices[1]
            for e in t.edges():
                pair = K.triangles_on(e)
                if len(pair) != 2:
                    continue
                j = pair[0] if pair[1] == i else pair[1]
                want = ((b_i in e) == (K.triangles[j].vertices[1] in e)) != flip[i]
                if flip[j] is None:
                    flip[j] = want
                    todo.append(j)
                elif flip[j] != want:
                    return False
    return True


def validate_closed_surface(K: Triangulation) -> SurfaceReport:
    """Check whether the complex is a connected closed surface.

    The report carries the three findings; ``is_closed_surface`` is their
    conjunction.  Nothing else is worked out here.  The report is worked
    out on the first call for a complex; later calls return the same
    report.
    """
    if K._report is None:
        links_ok = all(_link_cycle(K, v) is not None for v in K.vertices())
        K._report = SurfaceReport(
            connected=_is_connected(K),
            # Every link one cycle puts every edge in two triangles (see the
            # module docstring); only a failed link walk needs the index.
            closed=links_ok or all(len(ix) == 2 for ix in K._edge_index().values()),
            links_ok=links_ok,
        )
    return K._report


def euler_characteristic(K: Triangulation) -> int:
    return len(K.vertices()) - len(K.edges()) + K.n


def _require_closed_surface(K: Triangulation, name: str) -> None:
    """Raise SurfaceError unless K is a connected closed surface, naming
    the findings that failed; ``name`` says which input it was."""
    report = validate_closed_surface(K)
    if not report.is_closed_surface:
        raise SurfaceError(
            f"{name} is not a connected closed surface "
            f"(connected={report.connected}, closed={report.closed}, "
            f"links_ok={report.links_ok})"
        )


def orientability(K: Triangulation) -> bool:
    """Whether a connected closed surface is orientable.

    Raises SurfaceError on anything that is not a connected closed surface,
    where orientability is not defined here.  Worked out on every call; it
    is not kept on the complex.
    """
    _require_closed_surface(K, "the complex")
    return _oriented_consistently(K)


def boundary_edges(K: Triangulation) -> tuple[frozenset[str], ...]:
    """Edges lying in exactly one triangle, in deterministic order."""
    index = K._edge_index()
    return tuple(e for e in sorted(index, key=sorted) if len(index[e]) == 1)


def vertex_star(K: Triangulation, v: str) -> tuple[int, ...]:
    """The triangles around ``v`` in cyclic order.

    Consecutive entries (cyclically) share an edge through ``v``.  This is
    the walk around the link of ``v`` that ``validate_closed_surface``
    makes: it starts at the lowest triangle index in the star and proceeds
    toward the lower-indexed of its two neighbours, which makes the output
    canonical.

    Raises SurfaceError if ``v`` is absent or its star is not a single
    cycle (the latter signals non-surface input).
    """
    cycle = _link_cycle(K, v)
    if cycle is None:
        raise SurfaceError(f"the star of vertex {v!r} is not a single cycle")
    return cycle


# -- simplicial maps ----------------------------------------------------------


def _skeleton(K: Triangulation) -> tuple[list[tuple[int, ...]], list[list[int]], list[int]]:
    """K on the indices of ``K.vertices()``: its triangles, in index order;
    each vertex's closed neighbourhood in the 1-skeleton (the vertex and
    its neighbours), ascending; and each vertex's degree, the number of
    triangles that hold it."""
    index = {v: i for i, v in enumerate(K.vertices())}
    tris = [tuple(index[v] for v in t.vertices) for t in K.triangles]
    adjacent: list[set[int]] = [set() for _ in index]
    for t in tris:
        for x in t:
            adjacent[x].update(t)
    return tris, [sorted(s) for s in adjacent], [len(K.triangles_at(v)) for v in index]


def _vertex_walk(
    K: Triangulation, K2: Triangulation, image: list[int]
) -> Generator[int, object, None]:
    """Each simplicial map from K onto K2, written into ``image``: vertex i
    of ``K.vertices()`` goes to vertex image[i] of ``K2.vertices()``.

    At each complete map the walk yields the index of its root, the vertex
    it places first.  A reply of None goes on to the next map; any other
    reply gives up the rest of the maps that send the root where this one
    does, as ``_search._walk`` gives up a subtree.  Nothing comes out when
    the vertex or triangle counts differ.

    A simplicial map sends edges onto edges, so K's vertices are placed in
    BFS order over the 1-skeleton.  The root is the lowest vertex of the
    rarest degree, and each further component starts at its lowest vertex
    not yet reached.  A root tries the vertices of K2 of its degree in
    ascending order, so when K2 is K its first image is itself; any other
    vertex takes only an unused vertex of its degree next to the image of
    its BFS parent.  Once a vertex is placed, each triangle it completes
    must land on a triangle, and nothing else is checked: every triangle
    is checked when its last vertex is placed, so a complete map sends the
    triangles injectively, and, the counts being equal, onto.  No map is
    missed, since a simplicial map puts each vertex next to its parent's
    image.  The walk keeps its own stack, so its depth is not bounded by
    the interpreter's recursion limit.
    """
    n = len(K.vertices())
    if n != len(K2.vertices()) or K.n != K2.n:
        return
    tris, neighbours, degree = _skeleton(K)
    tris2, neighbours2, degree2 = (tris, neighbours, degree) if K2 is K else _skeleton(K2)
    triangles2 = set(map(frozenset, tris2))
    count = Counter(degree)
    root = min(range(n), key=lambda v: (count[degree[v]], v))
    # order: the BFS order; parent[v]: v's BFS parent, -1 for a root;
    # position[v]: v's place in the order.
    order, parent, position = [], [-1] * n, [-1] * n
    for p in range(n):
        if p == len(order):  # the root, or a component is done: start the next
            start = root if p == 0 else position.index(-1)
            position[start] = p
            order.append(start)
        for u in neighbours[order[p]]:
            if position[u] < 0:
                position[u] = len(order)
                parent[u] = order[p]
                order.append(u)
    # completes[p]: the other two vertices of each triangle that the vertex
    # at position p completes.
    completes: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for t in tris:
        *others, last = sorted(t, key=position.__getitem__)
        completes[position[last]].append(tuple(others))

    used = [False] * n
    # pending[p]: the images the vertex at position p has not tried yet.
    pending = [iter(range(n))] + [iter(())] * (n - 1)
    depth = 0
    while depth >= 0:
        v = order[depth]
        for w in pending[depth]:
            if used[w] or degree2[w] != degree[v]:
                continue
            for a, b in completes[depth]:
                if frozenset((w, image[a], image[b])) not in triangles2:
                    break
            else:
                break
        else:
            depth -= 1
            if depth >= 0:
                used[image[order[depth]]] = False
            continue
        image[v] = w
        if depth == n - 1:
            if (yield root) is not None:
                # Free the images of positions 0..n-2 and try the root's next.
                used = [False] * n
                depth = 0
            continue
        used[w] = True
        depth += 1
        u = parent[order[depth]]
        pending[depth] = iter(range(n) if u < 0 else neighbours2[image[u]])
