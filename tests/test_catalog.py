"""Catalog constructors and their fixed labelings."""

import dataclasses

import pytest

from trimat import (
    classify_realization,
    disk_fan,
    euler_characteristic,
    intersection_matrix,
    moebius5,
    moebius6,
    orientability,
    standard,
    tp10,
    tp12,
    validate_closed_surface,
)
from trimat.catalog import CLOSED_SURFACES, _ENTRIES, _grid_torus, catalog_names, entry
from trimat.verification import run_all_checks


TP10_TEXT = """\
a0 a1 x
a1 a2 x
a2 a3 x
a3 a4 x
a0 a4 x
a0 a1 a3
a1 a2 a4
a0 a2 a3
a1 a3 a4
a0 a2 a4
"""


class TestNamedComplexes:
    def test_tp10_parses_from_its_vertex_sets(self):
        from trimat import parse_triangulation

        assert parse_triangulation(TP10_TEXT) == tp10()

    def test_tp10_vertex_sets(self):
        K = tp10()
        assert K.n == 10
        # s_i = {a_i, a_(i+1 mod 5), x}
        for i in range(5):
            want = frozenset({f"a{i}", f"a{(i + 1) % 5}", "x"})
            assert K.triangles[i].vertex_set == want
        # r_i = {a_i, a_(i+1 mod 5), a_(i-2 mod 5)}
        for i in range(5):
            want = frozenset({f"a{i}", f"a{(i + 1) % 5}", f"a{(i - 2) % 5}"})
            assert K.triangles[5 + i].vertex_set == want

    def test_tp12_vertex_sets(self):
        K = tp12()
        assert K.n == 12
        for i in range(6):
            want = frozenset({f"a{i}", f"a{(i + 1) % 6}", "x"})
            assert K.triangles[i].vertex_set == want
        # Apex alternates: a_(i+4) for even i, a_(i+3) for odd i.
        for i in range(6):
            apex = (i + 4) % 6 if i % 2 == 0 else (i + 3) % 6
            want = frozenset({f"a{i}", f"a{(i + 1) % 6}", f"a{apex}"})
            assert K.triangles[6 + i].vertex_set == want

    def test_tp12_degrees(self):
        K = tp12()
        degrees = {v: K.degree(v) for v in K.vertices()}
        assert degrees == {
            "x": 6, "a0": 6, "a1": 4, "a2": 6, "a3": 4, "a4": 6, "a5": 4,
        }

    def test_tp12_s0_meets_r0_in_an_edge(self):
        M = intersection_matrix(tp12())
        assert M[0, 6] == 1


class TestClosedEntries:
    @pytest.mark.parametrize("name", CLOSED_SURFACES)
    def test_expected_invariants(self, name):
        e = entry(name)
        K = e.builder()
        report = validate_closed_surface(K)
        assert report.is_closed_surface
        assert K.n == e.n
        assert euler_characteristic(K) == e.euler_characteristic
        assert orientability(K) == e.orientable

    def test_torus7_counts(self):
        K = standard("torus7")
        assert (len(K.vertices()), len(K.edges()), K.n) == (7, 21, 14)

    @pytest.mark.parametrize("a,b", [(3, 3), (3, 5), (4, 6), (8, 8)])
    def test_grid_torus(self, a, b):
        K = _grid_torus(a, b)
        assert validate_closed_surface(K).is_closed_surface
        assert K.n == 2 * a * b
        assert euler_characteristic(K) == 0
        assert orientability(K) is True
        assert {K.degree(v) for v in K.vertices()} == {6}

    @pytest.mark.parametrize("a,b", [(2, 3), (3, 2), (0, 5)])
    def test_grid_torus_needs_three_rows_and_columns(self, a, b):
        with pytest.raises(ValueError, match="a, b >= 3"):
            _grid_torus(a, b)


class TestOpenEntries:
    def test_moebius5(self):
        K = moebius5()
        report = validate_closed_surface(K)
        assert not report.closed
        assert str(classify_realization(K.triangles)) == "Moebius5"

    def test_moebius6(self):
        K = moebius6()
        assert not validate_closed_surface(K).closed
        assert str(classify_realization(K.triangles)) == "Moebius6"

    def test_disk_fan(self):
        K = disk_fan(7)
        assert K.n == 7
        assert not validate_closed_surface(K).closed
        assert str(classify_realization(K.triangles)) == "Disk(7)"

    def test_disk_fan_minimum(self):
        with pytest.raises(ValueError):
            disk_fan(2)


class TestStandardLookup:
    def test_fan_is_not_a_name(self):
        with pytest.raises(ValueError, match=r"unknown catalog name 'disk_fan\(5\)'"):
            standard("disk_fan(5)")

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            standard("klein_bottle")

    def test_unknown_entry(self):
        with pytest.raises(ValueError, match="unknown catalog name 'nope'"):
            entry("nope")

    def test_names_are_what_standard_builds(self):
        names = catalog_names()
        assert names == (
            "tetrahedron",
            "octahedron",
            "icosahedron",
            "torus7",
            "tp10",
            "tp12",
            "moebius5",
            "moebius6",
        )
        for name in names:
            assert standard(name).n == entry(name).n

    def test_tp10_tp12_sizes_differ(self):
        # The two exceptional complexes can never be related by a triangle
        # bijection: their triangle counts differ.
        assert tp10().n != tp12().n

    def test_standard_builds_each_complex_once(self, monkeypatch):
        for name in catalog_names():
            assert standard(name) is standard(name), name
        run_all_checks()
        calls = []

        def counted(e):
            return lambda: (calls.append(e.name), e.builder())[1]

        for name, e in list(_ENTRIES.items()):
            monkeypatch.setitem(_ENTRIES, name, dataclasses.replace(e, builder=counted(e)))
        run_all_checks()
        # Criterion 1 checks what the builders make, so it calls each once.
        assert sorted(calls) == sorted(CLOSED_SURFACES)
