"""The searches over the entry-1 (dual) graph of an intersection matrix.

Entry M[v][w] says how many vertices triangles v and w share, less one.
``_near`` reads a matrix's rows and keeps, per row, the (column, entry)
pairs with entry >= 0: O(d) pairs on a closed surface of vertex degree at
most d.  ``_plan`` places the rows in BFS order over the entry-1 graph,
starting at row 0 and then at the lowest row not yet reached, so every
row but a root shares an edge with its BFS parent.  Both are facts of the
matrix: ``IntersectionMatrix`` works each out on first use and keeps it
(its ``_view`` and ``_plan``), so each matrix is read once however often
it is searched, and the searches take matrices.  They place rows in
this order, check each against the placed rows that meet it and no
others, and keep an explicit stack, so their depth is not bounded by the
interpreter's recursion limit.  The bijection kernel and the growth
search are generators: a caller that needs only some answers stops the
search where it stops reading.

The bijection kernel, ``iter_bijections``, yields every index bijection g
with M2[g[i]][g[j]] == M1[i][j] for every i, j, once each, and none when
the sizes differ; its callers leave that check to it.  Row r of M1 maps
only to a row of M2 whose view is as long as r's.  A root row tries every
such image in ascending order.  Every other row's image must be an
entry-1 neighbour of its parent's image; on a closed surface that leaves
at most 3 candidates (Weinberg's propagation idea for triangulations).
That loop, with its checks, is ``_walk``, which the kernel and the group
search below both drive.  It stops at every complete map and at every
placement at one position the caller chooses, and the caller may then
give up the subtree below any placed position.  The per-matrix lists it
reads are built once per walk, however many root images it tries.

Precondition: M1 and M2 are non-empty and symmetric, with 2 on the
diagonal and no negative entry other than -1 (``IntersectionMatrix``
holds them to this).  The kernel enforces the rule on view
lengths itself, and with it a complete bijection g that matches every
entry >= 0 also matches the -1 entries: the columns g(i) of the rows i
that meet row r (r among them) already hold as many entries >= 0 as row
g(r) has, so the rest of row g(r) is the rest of row r, all -1.

The kernel yields maps in search order.  Let k be the length of the
longest prefix of the placement order that is rows 0..k-1 in index order
(``_in_order``).  Those rows try their images in ascending order, so the
maps that share the images of rows 0..k-1, a group, come out together,
and the groups come out in ascending order.  Inside a group the order is
the search's: the first group's maps come out as they are found, and a
later group's as h o a for a in Stab (below).  A caller that wants one
map stops at the first found; ``find_intersection_preserving_bijections``
sorts each group, and is the one place that promises lexicographic order.

Only the first group is searched in full; a later group comes from one
map h of it by composition (the stabiliser-and-coset idea of Sims,
1970).  If g and g' are in one group, a = g^-1 o g' preserves M1 and
fixes rows 0..k-1; conversely g o a preserves for every such a.  So every
group is h o Stab for any map h in it, where Stab = {g0^-1 o g : g in the
first group} and g0 is the first map found, and this holds for any pair
of valid matrices.  Maps are tuples of images, composed as
``IntersectionMatrix.permuted`` composes: g o a is itemgetter(*a)(g).
Stab is kept as its getters, itemgetter(*a) for each a, built once when
the first group ends, so each composed map costs one getter call.

Most later groups need no search for h either (the orbit idea of McKay,
1981).  A group whose maps send rows 0..k-1 to P has the prefix Q =
g0^-1(P) on the M1 side: for each h in it, g0^-1 o h is an automorphism
of M1 whose images of rows 0..k-1 are Q.  The kernel keeps a table,
seen, from the Q of each group visited to one such automorphism, and a
list, autos, of the automorphisms g0^-1 o h for the maps h it searched
for, each with its inverse.  When the prefix of a later group is placed,
it looks for an s in autos that carries a visited Q' onto Q, that is,
whose inverse carries Q onto a key of seen: the lookup goes one way only.
If s does, s o seen[Q'] is an automorphism with prefix Q, and the group
is g0 o s o seen[Q'] o Stab: it is yielded with no search, and Q joins
seen.  Both compositions read through itemgetter(*seen[Q']), built at
the first lookup that finds Q' and kept, and g0 o s is the map h that s
was recorded from.  Otherwise the group is searched.  At its first map
h the kernel yields h o Stab, records g0^-1 o h in seen and autos, frees
the images at positions k-1..n-2 and resumes at position k-1, so the
rest of that subtree is never searched.  A first group of one map composes too,
with Stab = {identity}, unless k == n: then a group is one complete map,
the walk never stops at a prefix, and nothing is built, looked up,
composed or recorded.

A group with no map is still searched to exhaustion.  The lookup never
finds it, since an s that carried a visited prefix onto it would give it
a map.  Skipping it would take a second table, of the prefixes whose
search failed; on the catalog's surfaces that did not pay.

Nothing is composed ahead of the caller.  The table holds the groups
visited so far, one automorphism each, so its memory stays within the
output, and a lookup costs at most len(autos) prefix images, one entry
of autos per group searched.  Looking up s(Q) as well, through s^-1,
composes a few more groups but costs about as many prefix images as it
saves.  So a caller that stops early (``limit`` or
``detect_exceptional``) leaves every group after the last one it reads
unvisited.  Stab is built when the first group ends, at the next
group's prefix, and the table as later groups are yielded, since callers
that want one map usually stop inside the first group.  The table needs
no entry for the first group: a lookup finds Q' = rows 0..k-1 only for
Q = s(0..k-1), the prefix of the group that s was recorded from, and
each prefix is placed once.

The group search, ``_automorphism_group``, describes Aut(M), the
preserving self-maps of one matrix, by generators instead of a list
(Sims' stabiliser-and-transversal idea, 1970, with the orbit pruning of
McKay, 1981).  It walks M onto itself and stops at each root image.
Root image 0 is searched in full, which gives Stab, the maps that fix
row 0.  Any other root image j that already lies in the orbit of row 0
under the maps found so far is skipped.  Otherwise only j's first map is
searched for: it becomes a generator, and the orbit is closed again under
Stab and the generators.  A root image that no map reaches is searched to
exhaustion.  The order of Aut(M) is |Stab| times the size of the orbit.
Stab and the generators generate Aut(M).  Let H be the group they
generate.  A row that some automorphism sends row 0 to was either in the
orbit when its turn came or was searched, and then it gave a generator;
so row 0 has the same orbit under H as under Aut(M).  H also contains
Stab, so |H| >= |Stab| * |orbit| = |Aut(M)|, and H lies in Aut(M).  On
the 6-regular torus T(16, 16) that is 6 maps in Stab and 1 generator for
a group of 3,072.

The growth search, ``_grow``, places one triangle per row of a matrix M
along the plan.  Row 0 becomes the triangle (0, 1, 2).  Every later
triangle v shares an edge {a, b} with its BFS parent, so it is that edge
plus an apex z, and the apex rule fixes z.  Take the first placed
triangle that still needs more shared vertices with v than {a, b} gives
it: z is one of its vertices.  If no placed triangle needs one, z is the
next fresh vertex.  No other apex can work: a used vertex lies in some
placed triangle, which would then share too many vertices with v.  A
candidate is kept only if it shares exactly M[v][w] + 1 vertices with
every placed w.  One count decides most of that without a scan over all
rows (the incidence-count rule).  Let total(v) be the sum of M[v][w] + 1
over the placed w that meet v, and inc(x) the number of placed triangles
holding vertex x (0 for a fresh one).  A candidate (a, b, z) fits exactly
when inc(a) + inc(b) + inc(z) == total(v) and each placed w that meets v
shares M[v][w] + 1 vertices with it: the sum counts every incidence, so
one more would touch a placed triangle v must not meet.  So an edge {a,
b} with inc(a) + inc(b) > total(v) takes no apex, and an apex z is kept
only when inc(z) is the rest.  A wrong guess dies at once, and the cost
does not depend on the index order of the input.

Two rules keep each labelled solution from coming out more than once.
The vertices of the root are interchangeable, so its first child is only
tried on the edge (0, 1).  Vertices 0 and 1 stay interchangeable until a
placed triangle holds exactly one of them; until then, a candidate that
holds 1 without 0 is dropped.  So each exact placement comes out once up
to renaming of vertices, and two solutions, relabelled v0, v1, ... in
order of first appearance by triangle index, are different complexes.  By
the paper's theorem two solutions exist only for the two exceptional
matrices that ``reconstruct.detect_exceptional`` recognizes.

One search node is one placed candidate; a solvable matrix of n triangles
usually needs about n of them.  Nothing in the growth search assumes a
closed surface: ``_grow`` yields the exact placements of any pattern whose
entry-1 graph is connected, for the cycle oracle in ``cycles`` and for
``reconstruct``, which keeps those that are closed surfaces.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Generator, Iterator

from .errors import BudgetExceededError

if TYPE_CHECKING:
    from .intersection import IntersectionMatrix

__all__ = ["iter_bijections"]

DEFAULT_NODE_CAP = 1_000_000


def _near(m: tuple[tuple[int, ...], ...]) -> list[list[tuple[int, int]]]:
    """For each row of m, its (column, entry) pairs with entry >= 0, in
    column order; the diagonal is among them."""
    return [[(j, v) for j, v in enumerate(row) if v >= 0] for row in m]


def _plan(
    near: list[list[tuple[int, int]]],
) -> tuple[list[int], list[int], list[list[tuple[int, int]]]]:
    """The placement plan of a matrix read through ``_near``: its rows in
    BFS order over the entry-1 graph, each row's BFS parent (-1 for the
    root of a component), and for each position p of the order the
    (earlier row, entry) pairs of the rows placed before ``order[p]`` that
    meet it (entry >= 0), in placement order."""
    n = len(near)
    parent = [-1] * n
    position = [-1] * n  # in the order; -1 until reached
    order: list[int] = []
    for root in range(n):
        if position[root] >= 0:
            continue
        position[root] = head = len(order)
        order.append(root)
        while head < len(order):
            r = order[head]
            head += 1
            for s, v in near[r]:
                if v == 1 and position[s] < 0:
                    position[s] = len(order)
                    parent[s] = r
                    order.append(s)
    # Rows are visited in placement order, so each list grows in it.
    meets: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for p, r in enumerate(order):
        for s, v in near[r]:
            if position[s] > p:
                meets[position[s]].append((r, v))
    return order, parent, meets


def _in_order(order: list[int]) -> int:
    """The length k of the longest prefix of a placement order that is
    rows 0..k-1 in index order; at least 1, since row 0 is placed first."""
    return next((p for p, r in enumerate(order) if p != r), len(order))


def _walk(
    M1: IntersectionMatrix, M2: IntersectionMatrix, image: list[int], k: int
) -> Generator[int, int | None, None]:
    """The kernel's loop: place the rows of M1 along its plan onto rows of
    M2 of the same size, writing each row's image into ``image``.

    It stops at every complete map and at every placement at position
    k - 1, and yields the position p just placed (n - 1 for a complete
    map).  The reply decides how it goes on: None goes on as the search
    would, down the tree, or to the next image after a complete map; a
    position q <= p gives up the images placed at positions q..p and goes
    on with position q's next image, so the rest of that subtree is never
    searched.
    """
    n = M1.n
    order, parent, checks = M1._plan
    m2 = M2.entries
    neighbours2 = [[j for j, v in row if v == 1] for row in M2._view]
    size1 = list(map(len, M1._view))
    size2 = list(map(len, M2._view))
    used = [False] * n
    last, stop = n - 1, k - 1
    # pending[p]: the images the row at position p has not tried yet.
    # Resuming a for loop over this iterator continues the scan where it
    # stopped.
    pending = [iter(())] * n
    pending[0] = iter(range(n))
    depth = 0
    while depth >= 0:
        r = order[depth]
        size = size1[r]
        for j in pending[depth]:
            if used[j] or size2[j] != size:
                continue
            col_j = m2[j]
            for i, v in checks[depth]:
                if col_j[image[i]] != v:
                    break
            else:
                break
        else:
            depth -= 1
            if depth >= 0:
                used[image[order[depth]]] = False
            continue
        image[r] = j
        if depth == last or depth == stop:
            back = yield depth
            if back is not None:
                for p in range(back, depth):
                    used[image[order[p]]] = False
                depth = back
                continue
            if depth == last:
                continue
        used[j] = True
        depth += 1
        r = order[depth]
        pending[depth] = iter(range(n) if parent[r] < 0 else neighbours2[image[parent[r]]])


def iter_bijections(
    M1: IntersectionMatrix, M2: IntersectionMatrix
) -> Iterator[tuple[int, ...]]:
    n = M1.n
    if n != M2.n:
        return
    k = _in_order(M1._plan[0])
    image = [0] * n
    walk = _walk(M1, M2, image, k)
    # Maps are tuples, composed as itemgetter(*a)(g) == g o a: a composed
    # map has k < n, so n >= 2 entries, and the getter returns a tuple.
    # first: the maps of the first group (k < n only).  Built when it ends,
    # at the next group's prefix: g0 and its inverse, and Stab as its
    # getters.  seen (each visited group's prefix Q -> one automorphism of
    # M1 with prefix Q) and autos (g0^-1 o h for each map h searched for,
    # with the inverse the lookup reads and h) grow as later groups are
    # yielded; readers holds itemgetter(*seen[Q]) for each Q a lookup has
    # found.
    first: list[tuple[int, ...]] = []
    g0: tuple[int, ...] = ()
    inverse0: tuple[int, ...] = ()
    stab: list[itemgetter] = []
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    readers: dict[tuple[int, ...], itemgetter] = {}
    autos: list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = []
    back = None
    while True:
        try:
            depth = walk.send(back)
        except StopIteration:
            return
        back = None
        if depth < n - 1:
            # A group's prefix is placed (position k - 1).  If the first
            # group has given its maps, it has ended.
            if first and not stab:
                g0 = first[0]
                inverse0 = _inverse(g0)
                stab = [itemgetter(*itemgetter(*g)(inverse0)) for g in first]
            # The group is composed, with no search, if a known
            # automorphism s carries a visited prefix onto it, the one
            # s^-1(q) looked up in seen (one way only).
            if not autos:
                continue
            q = tuple(map(inverse0.__getitem__, image[:k]))
            for s, s_inv, g0_s in autos:
                key = tuple(map(s_inv.__getitem__, q))
                if key in seen:
                    break
            else:
                continue
            # s o seen[key] has prefix q, and the group is g0 o s o
            # seen[key] o Stab.
            read = readers.get(key)
            if read is None:
                read = readers[key] = itemgetter(*seen[key])
            seen[q] = read(s)
            h = read(g0_s)
            for a in stab:
                yield a(h)
            back = k - 1
            continue
        h = tuple(image)
        if not stab:
            if k < n:
                first.append(h)
            yield h
            continue
        # The first map h of a later group the search reached: yield
        # h o Stab and skip the rest of the group's subtree.
        for a in stab:
            yield a(h)
        alpha = itemgetter(*h)(inverse0)
        seen[alpha[:k]] = alpha
        autos.append((alpha, _inverse(alpha), h))
        back = k - 1


def _inverse(g: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of the permutation g of 0..len(g)-1."""
    inverse = [0] * len(g)
    for i, x in enumerate(g):
        inverse[x] = i
    return tuple(inverse)


def _automorphism_group(
    M: IntersectionMatrix,
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], int]:
    """Stab, the preserving self-maps of M that fix row 0, in full; one
    generator for each orbit point of row 0 that had to be searched; and
    the order of Aut(M), |Stab| times the size of row 0's orbit.  Stab and
    the generators together generate Aut(M)."""
    n = M.n
    image = [0] * n
    walk = _walk(M, M, image, 1)
    stab: list[tuple[int, ...]] = []
    generators: list[tuple[int, ...]] = []
    orbit = [0]
    in_orbit = [False] * n
    in_orbit[0] = True
    back = None
    while True:
        try:
            depth = walk.send(back)
        except StopIteration:
            return stab, generators, len(stab) * len(orbit)
        back = None
        root = image[0]
        if root == 0:
            if depth == n - 1:
                stab.append(tuple(image))
        elif in_orbit[root]:
            back = 0  # a root image some known map already reaches
        elif depth == n - 1:
            generators.append(tuple(image))
            # Close the orbit under every map found; the list grows as it
            # is read.
            maps = stab + generators
            for x in orbit:
                for g in maps:
                    y = g[x]
                    if not in_orbit[y]:
                        in_orbit[y] = True
                        orbit.append(y)
            back = 0


def _grow(
    M: IntersectionMatrix, node_cap: int
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Yield every exact placement of M, lazily, once up to renaming of
    vertices.

    A placement is one int triple per row, in row order, whose pairwise
    shared-vertex counts are exactly M's.  M may be any pattern of two or
    more rows whose entry-1 graph is connected (no placement comes out
    otherwise); the placements need not be closed surfaces.  Raises
    BudgetExceededError once more than ``node_cap`` candidates are placed.
    """
    n = M.n
    order, parent, meets = M._plan
    if parent.count(-1) != 1:
        return  # no rows, or the entry-1 graph is not connected
    # tri[v]: the vertices of placed triangle v; the root, row 0, is (0, 1, 2).
    tri: list[tuple[int, int, int]] = [(0, 1, 2)] * n
    # inc[x]: inc(x) of the incidence-count rule, the number of placed
    # triangles holding vertex x; vertices 0..len(inc)-1 are used, so
    # len(inc) is the next fresh vertex.
    inc = [1, 1, 1]
    # live[k]: vertices 0 and 1 are still interchangeable when order[k]
    # is placed.
    live = [True] * (n + 1)

    # total[k]: the vertex incidences a triangle at order[k] must have with
    # the placed triangles, M[v][w] + 1 summed over the w it meets.
    total = [sum(value + 1 for _, value in meet) for meet in meets]

    def candidates(k: int) -> Iterator[tuple[int, int, int]]:
        p0, p1, p2 = tri[parent[order[k]]]
        meet = meets[k]
        fresh = len(inc)
        for a, b in ((p0, p1),) if k == 1 else ((p0, p1), (p0, p2), (p1, p2)):
            # The apex must bring exactly the incidences a and b leave.
            rest = total[k] - inc[a] - inc[b]
            if rest < 0:
                continue
            apexes: tuple[int, ...] = (fresh,)
            for w, value in meet:
                t = tri[w]
                need = value + 1 - (a in t) - (b in t)
                if need:
                    apexes = t if need == 1 else ()
                    break
            for z in apexes:
                if z == a or z == b or (inc[z] if z < fresh else 0) != rest:
                    continue
                t = (a, b, z)
                if live[k] and 1 in t and 0 not in t:
                    continue
                # The counts agree, so t meets no placed triangle outside
                # meet; it fits when each one in meet shares the right number.
                for w, value in meet:
                    placed = tri[w]
                    if (a in placed) + (b in placed) + (z in placed) != value + 1:
                        break
                else:
                    yield t

    nodes = 0
    # The explicit stack: pending[k] yields the candidates for order[k]
    # not tried yet, for every k below the current depth.  A resumed
    # generator sees the state it started from: backtracking restores tri
    # and inc before position k asks for its next candidate.
    pending = [iter(())] * n
    pending[1] = candidates(1)
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
                    if x == len(inc):
                        inc.append(0)
                    inc[x] += 1
                live[k + 1] = live[k] and (0 in t) == (1 in t)
                k += 1
                if k < n:
                    pending[k] = candidates(k)
                continue
        else:
            yield tuple(tri)
        # Take back the triangle placed last.
        k -= 1
        if k >= 1:
            for x in tri[order[k]]:
                inc[x] -= 1
            if not inc[-1]:
                inc.pop()
