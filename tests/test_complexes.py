"""Complex model, .tri parsing, surface validation, vertex stars."""

import dataclasses
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimat import (
    ParseError,
    SurfaceError,
    Triangle,
    Triangulation,
    boundary_edges,
    euler_characteristic,
    intersection_matrix,
    orientability,
    parse_triangulation,
    reconstruct,
    serialize_triangulation,
    validate_closed_surface,
    vertex_star,
)
from trimat import complexes
from trimat.catalog import CLOSED_SURFACES, standard
from trimat.complexes import _check_label

TETRA_TEXT = "a b c\na b d\na c d\nb c d\n"
# Two tetrahedra pinched together at 'a': every edge lies in two triangles,
# but the link of 'a' is two cycles.
PINCHED_TEXT = TETRA_TEXT + "a e f\na e g\na f g\ne f g\n"


def _roots(groups):
    """The classes of a union-find that merges the members of each group."""
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for first, *rest in groups:
        for y in rest:
            parent[find(y)] = find(first)
    return {find(x) for x in parent}


def _edge_counts(triangle_sets):
    """How many of the triangles lie on each edge, by first appearance."""
    return Counter(frozenset(e) for t in triangle_sets for e in combinations(sorted(t), 2))


def _link_is_cycle(triangle_sets, v):
    """Whether the link graph of v is connected and 2-regular."""
    link = [tuple(t - {v}) for t in triangle_sets if v in t]
    degree = Counter(u for edge in link for u in edge)
    return all(d == 2 for d in degree.values()) and len(_roots(link)) == 1


@st.composite
def near_surfaces(draw):
    """A corpus surface, perhaps with a tetrahedron pinched on at one
    vertex, less up to two triangles and plus up to two, in any order."""
    K = standard(draw(st.sampled_from(CLOSED_SURFACES)))
    tris = {t.vertex_set for t in K.triangles}
    if draw(st.booleans()):
        v = draw(st.sampled_from(K.vertices()))
        tris |= {frozenset(t) for t in combinations((v, "n0", "n1", "n2"), 3)}
    labels = sorted(set().union(*tris))
    tris -= draw(st.sets(st.sampled_from(sorted(tris, key=sorted)), max_size=2))
    tris |= draw(
        st.sets(
            st.frozensets(st.sampled_from(labels), min_size=3, max_size=3),
            max_size=2,
        )
    )
    return draw(st.permutations(sorted(tris, key=sorted)))


def _is_label(text):
    try:
        _check_label(text)
    except ValueError:
        return False
    return True


# Lists of triangles over a few labels drawn from any text that Triangle
# accepts (it checks each label with _check_label).  The characters the
# .tri format gives a meaning to are drawn more often than the rest.
LABEL_TEXT = st.text(
    st.one_of(st.sampled_from("a# \n"), st.characters()), min_size=1, max_size=6
).filter(_is_label)
ANY_LABEL_TRIANGLE_SETS = st.lists(LABEL_TEXT, min_size=3, max_size=8, unique=True).flatmap(
    lambda labels: st.lists(
        st.frozensets(st.sampled_from(labels), min_size=3, max_size=3),
        min_size=1,
        max_size=8,
        unique=True,
    )
)

RANDOM_TRIANGLE_SETS = st.lists(
    st.frozensets(st.sampled_from("abcdefghij"), min_size=3, max_size=3),
    min_size=1,
    max_size=8,
    unique=True,
)


class TestTriangle:
    def test_vertices_sorted(self):
        assert Triangle(("c", "a", "b")).vertices == ("a", "b", "c")

    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            Triangle(("a", "a", "b"))

    def test_rejects_whitespace_label(self):
        with pytest.raises(ValueError):
            Triangle(("a b", "c", "d"))

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError, match="non-empty"):
            Triangle(("", "c", "d"))

    @pytest.mark.parametrize(
        "label", ["a\x1cb", "a\x85", "\xa0a", "a\u2003b", " a", "a ", "a\tb", "a\nb"]
    )
    def test_rejects_unicode_whitespace(self, label):
        with pytest.raises(ValueError, match="whitespace"):
            Triangle((label, "c", "d"))

    def test_whitespace_is_what_isspace_says(self):
        # Every character str.isspace() accepts lies below U+3100; a label
        # holding one is rejected, and so is one holding '#', which starts
        # a comment in the .tri format.  A label of any other is kept.
        for c in map(chr, range(0x3100)):
            label = f"a{c}b"
            if c.isspace():
                with pytest.raises(ValueError, match="whitespace"):
                    Triangle((label, "c", "d"))
            elif c == "#":
                with pytest.raises(ValueError, match="'#'"):
                    Triangle((label, "c", "d"))
            else:
                assert label in Triangle((label, "c", "d")).vertices

    def test_edges(self):
        t = Triangle(("a", "b", "c"))
        assert set(t.edges()) == {
            frozenset("ab"),
            frozenset("ac"),
            frozenset("bc"),
        }


class TestParsing:
    def test_tetrahedron(self):
        K = parse_triangulation(TETRA_TEXT)
        assert K.n == 4
        assert K.triangles[0].vertices == ("a", "b", "c")

    def test_comments_and_blanks(self):
        text = "# a comment\n\na b c  # trailing\n\na b d\na c d\nb c d\n"
        assert parse_triangulation(text).n == 4

    def test_file_order_preserved(self):
        K = parse_triangulation("x y z\na b c\n")
        assert K.triangles[0].vertices == ("x", "y", "z")

    def test_duplicate_triangle_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_triangulation("a b c\na b c\n")
        assert exc.value.line == 2

    def test_wrong_token_count(self):
        with pytest.raises(ParseError) as exc:
            parse_triangulation("a b\n")
        assert exc.value.line == 1

    def test_repeated_vertex_in_line(self):
        with pytest.raises(ParseError) as exc:
            parse_triangulation("a b c\nd d e\n")
        assert exc.value.line == 2

    def test_duplicate_detected_up_to_order(self):
        with pytest.raises(ParseError):
            parse_triangulation("a b c\nc b a\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_triangulation("# nothing\n")

    def test_constructor_rejects_bad_triangle_lists(self):
        t = Triangle(("a", "b", "c"))
        with pytest.raises(ValueError, match="at least one triangle"):
            Triangulation([])
        with pytest.raises(TypeError, match="expected Triangle, got tuple"):
            Triangulation([t, ("a", "b", "d")])
        with pytest.raises(ValueError, match="duplicate triangle"):
            Triangulation([t, Triangle(("c", "b", "a"))])
        # The duplicate key is the sorted label tuple, which the trusted
        # constructor takes as given.
        with pytest.raises(ValueError, match="duplicate triangle: a b c"):
            Triangulation([t, Triangle._trusted(("a", "b", "c"))])
        others = [Triangle(("a", "b", "d")), Triangle(("a", "c", "d"))]
        with pytest.raises(ValueError, match="duplicate triangle: a b c"):
            Triangulation([t, *others, Triangle(("b", "a", "c"))])
        # Triangles are checked in order, so a duplicate met before a
        # non-triangle is the error reported.
        with pytest.raises(ValueError, match="duplicate triangle: a b c"):
            Triangulation([t, t, ("a", "b", "d")])

    def test_equality_hash_and_repr(self):
        K = parse_triangulation(TETRA_TEXT)
        twin = parse_triangulation(TETRA_TEXT)
        assert K == twin and hash(K) == hash(twin)
        assert K != K.triangles and K.__eq__(K.triangles) is NotImplemented
        assert repr(K) == "Triangulation(4 triangles, 4 vertices)"

    def test_serialize_round_trip_tetra(self):
        K = parse_triangulation(TETRA_TEXT)
        assert parse_triangulation(serialize_triangulation(K)) == K

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(RANDOM_TRIANGLE_SETS, ANY_LABEL_TRIANGLE_SETS))
    def test_serialize_round_trip_random(self, triangle_sets):
        K = Triangulation(Triangle(tuple(s)) for s in triangle_sets)
        assert parse_triangulation(serialize_triangulation(K)) == K

    @settings(max_examples=60, deadline=None)
    @given(ANY_LABEL_TRIANGLE_SETS)
    def test_parsed_triangles_equal_constructed_ones(self, triangle_sets):
        # The parser makes its triangles without Triangle's label checks.
        constructed = [Triangle(tuple(s)) for s in triangle_sets]
        K = Triangulation(constructed)
        for t in parse_triangulation(serialize_triangulation(K)).triangles:
            assert t == Triangle(t.vertices)
            assert t.vertex_set == frozenset(t.vertices)
            # The label tuple finds a duplicate where the vertex set would.
            with pytest.raises(ValueError, match="duplicate triangle"):
                Triangulation([*constructed, t])

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(near_surfaces(), RANDOM_TRIANGLE_SETS))
    def test_links_and_connectivity_match_definitions(self, triangle_sets):
        K = Triangulation(Triangle(tuple(s)) for s in triangle_sets)
        report = validate_closed_surface(K)
        cyclic = {v: _link_is_cycle(triangle_sets, v) for v in K.vertices()}
        assert report.links_ok == all(cyclic.values())
        assert report.connected == (len(_roots(triangle_sets)) == 1)
        assert report.closed == all(n == 2 for n in _edge_counts(triangle_sets).values())
        for v, is_cycle in cyclic.items():
            if not is_cycle:
                with pytest.raises(SurfaceError):
                    vertex_star(K, v)
                continue
            star = vertex_star(K, v)
            assert sorted(star) == sorted(K.triangles_at(v))
            assert len(star) == K.degree(v)
            for k, i in enumerate(star):
                j = star[(k + 1) % len(star)]
                shared = K.triangles[i].vertex_set & K.triangles[j].vertex_set
                assert len(shared) == 2 and v in shared


class TestValidation:
    def test_tetrahedron_is_a_sphere(self):
        K = parse_triangulation(TETRA_TEXT)
        report = validate_closed_surface(K)
        assert report.connected and report.closed and report.links_ok
        assert euler_characteristic(K) == 2
        assert orientability(K) is True
        assert {v: K.degree(v) for v in K.vertices()} == {"a": 3, "b": 3, "c": 3, "d": 3}

    def test_report_is_kept_and_read_only(self):
        # The report is worked out once per complex and shared by every
        # caller, so none of them may change it for the others.
        K = parse_triangulation(TETRA_TEXT)
        report = validate_closed_surface(K)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.connected = False
        assert validate_closed_surface(K) is report
        assert report.connected is True

    def test_single_triangle_not_closed(self):
        K = parse_triangulation("a b c\n")
        report = validate_closed_surface(K)
        assert not report.closed
        with pytest.raises(SurfaceError):
            orientability(K)
        assert len(boundary_edges(K)) == 3

    def test_disconnected_complex(self):
        K = parse_triangulation("a b c\nd e f\n")
        report = validate_closed_surface(K)
        assert not report.connected

    def test_bowtie_is_connected(self):
        # Two triangles meeting at one vertex are joined in the 1-skeleton.
        report = validate_closed_surface(parse_triangulation("a b c\na d e\n"))
        assert report.connected and not report.closed

    def test_pinched_tetrahedra(self):
        K = parse_triangulation(PINCHED_TEXT)
        report = validate_closed_surface(K)
        assert report.connected and report.closed
        assert not report.links_ok
        with pytest.raises(SurfaceError):
            orientability(K)

    def test_tp10_report(self, tp10):
        report = validate_closed_surface(tp10)
        assert report.is_closed_surface
        assert euler_characteristic(tp10) == 1
        assert orientability(tp10) is False
        assert len(tp10.vertices()) == 6
        assert len(tp10.edges()) == 15

    def test_closed_surface_edge_counts(self, corpus):
        # On a closed surface every edge lies in 2 triangles and 2|E| = 3n.
        for name, K in corpus:
            assert all(len(K.triangles_on(e)) == 2 for e in K.edges()), name
            assert 2 * len(K.edges()) == 3 * K.n, name
            degrees = {v: K.degree(v) for v in K.vertices()}
            assert sum(degrees.values()) == 3 * K.n, name


class TestEulerAndOrientability:
    def test_octahedron(self, octahedron):
        assert euler_characteristic(octahedron) == 2
        assert orientability(octahedron) is True

    def test_tp12(self, tp12):
        assert euler_characteristic(tp12) == 1
        assert orientability(tp12) is False

    def test_torus7(self, torus7):
        assert euler_characteristic(torus7) == 0
        assert orientability(torus7) is True
        assert len(torus7.vertices()) == 7

    def test_orientability_rejects_open_complex(self):
        with pytest.raises(SurfaceError):
            orientability(parse_triangulation("a b c\n"))

    def test_worked_out_only_when_asked(self, corpus, monkeypatch):
        # Validation answers only whether K is a closed surface, so neither
        # reconstruct (which validates every complex it builds) nor a fresh
        # validation works out an orientation or chi.  Nor does either build
        # the edge index for a closed surface, whose link walk settles
        # closedness; reconstruct builds it only for a placement that fails
        # the walk.  The orientation walk builds it and keeps it.
        calls, indexed = [], []
        orient, chi = complexes._oriented_consistently, complexes.euler_characteristic
        index = Triangulation._edge_index
        monkeypatch.setattr(
            complexes, "_oriented_consistently", lambda K: (calls.append("o"), orient(K))[1]
        )
        monkeypatch.setattr(
            complexes, "euler_characteristic", lambda K: (calls.append("chi"), chi(K))[1]
        )
        monkeypatch.setattr(
            Triangulation, "_edge_index", lambda K: (indexed.append(K), index(K))[1]
        )
        for name, K in corpus:
            result = reconstruct(intersection_matrix(K))
            assert calls == [], name
            assert all(not validate_closed_surface(L).links_ok for L in indexed), name
            assert result.complex._edge_map is None, name
            indexed.clear()
            fresh = parse_triangulation(serialize_triangulation(K))
            assert validate_closed_surface(fresh).is_closed_surface, name
            assert calls == [] and indexed == [], name
            orientability(fresh)
            assert calls == ["o"], name
            assert indexed and all(L is fresh for L in indexed), name
            assert fresh._edge_map is not None, name
            calls.clear()
            indexed.clear()

    @settings(max_examples=80, deadline=None)
    @given(RANDOM_TRIANGLE_SETS)
    def test_edge_index_built_on_first_use(self, triangle_sets):
        # Each accessor builds the index on a fresh complex; all three
        # agree with a count over the triangle sets.
        counts = _edge_counts(triangle_sets)
        fresh = [Triangulation(Triangle(tuple(s)) for s in triangle_sets) for _ in range(3)]
        assert all(K._edge_map is None for K in fresh)
        K1, K2, K3 = fresh
        assert K1.edges() == tuple(counts)
        assert {e: K2.triangles_on(e) for e in counts} == {
            e: tuple(i for i, t in enumerate(triangle_sets) if e <= t) for e in counts
        }
        assert K2.triangles_on(frozenset("yz")) == ()
        assert boundary_edges(K3) == tuple(
            sorted((e for e, n in counts.items() if n == 1), key=sorted)
        )
        assert all(K._edge_map is not None for K in fresh)


class TestVertexStar:
    def test_tetrahedron_star(self, tetrahedron):
        star = vertex_star(tetrahedron, "a")
        assert len(star) == 3
        assert star[0] == 0

    def test_star_is_cyclic_through_vertex(self, corpus):
        for name, K in corpus:
            for v in K.vertices():
                star = vertex_star(K, v)
                assert len(star) == K.degree(v), (name, v)
                for k, i in enumerate(star):
                    j = star[(k + 1) % len(star)]
                    shared = (
                        K.triangles[i].vertex_set & K.triangles[j].vertex_set
                    )
                    assert len(shared) == 2 and v in shared, (name, v)

    def test_star_determinism_rule(self, tp10):
        # Lowest triangle index first, then toward the lower-indexed neighbour.
        assert vertex_star(tp10, "x") == (0, 1, 2, 3, 4)

    def test_star_of_missing_vertex(self, tetrahedron):
        with pytest.raises(SurfaceError):
            vertex_star(tetrahedron, "zz")

    def test_star_on_non_surface(self):
        # Three triangles sharing one edge: the star of 'a' is not a cycle.
        K = parse_triangulation("a b c\na b d\na b e\n")
        with pytest.raises(SurfaceError):
            vertex_star(K, "a")

    def test_star_at_a_pinch(self):
        K = parse_triangulation(PINCHED_TEXT)
        with pytest.raises(SurfaceError):
            vertex_star(K, "a")
        assert vertex_star(K, "b") == (0, 1, 3)
