"""Cycle patterns, the trichotomy classifier, and the enumeration oracle."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimat import (
    MOEBIUS5,
    MOEBIUS6,
    CycleClass,
    CycleRealization,
    PatternError,
    Triangle,
    TrichotomyError,
    classify_realization,
    disk,
    disk_fan,
    enumerate_realizations,
    expected_classes,
    moebius5,
    moebius6,
    ncycle_matrix,
    boundary_edges,
)
from trimat import cycles
from trimat.complexes import _oriented_consistently
from trimat.cycles import _canonical_encoding

from inputs import subdivided

# The oracle's realization counts up to dihedral symmetry and relabeling.
EXPECTED_COUNTS = {3: 2, 4: 1, 5: 2, 6: 2, 7: 1, 8: 1}


class TestPatternMatrix:
    def test_n3_all_adjacent(self):
        M = ncycle_matrix(3)
        assert all(M[i, j] == 1 for i in range(3) for j in range(3) if i != j)

    def test_n5_entries(self):
        M = ncycle_matrix(5)
        for i in range(5):
            for j in range(5):
                want = 2 if i == j else (1 if (i - j) % 5 in (1, 4) else 0)
                assert M[i, j] == want

    def test_n4_opposite_pairs(self):
        M = ncycle_matrix(4)
        assert M[0, 2] == 0 and M[1, 3] == 0

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ncycle_matrix(2)


class TestCycleClass:
    def test_strings(self):
        assert str(disk(7)) == "Disk(7)"
        assert str(MOEBIUS5) == "Moebius5"
        assert str(MOEBIUS6) == "Moebius6"

    def test_moebius_sizes_pinned(self):
        with pytest.raises(ValueError):
            CycleClass("moebius5", 6)
        with pytest.raises(ValueError):
            CycleClass("moebius6", 5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown cycle class kind 'ring'"):
            CycleClass("ring", 4)


class TestClassifier:
    def test_fan_is_disk(self):
        assert classify_realization(disk_fan(7).triangles) == disk(7)

    def test_moebius_templates(self, monkeypatch):
        assert classify_realization(moebius5().triangles) == MOEBIUS5
        assert classify_realization(moebius6().triangles) == MOEBIUS6
        # Without the bands' encodings a band is a realization of no known
        # type, which the classifier reports instead of guessing.
        monkeypatch.setattr(cycles, "_band_encodings", lambda: {})
        with pytest.raises(TrichotomyError, match="5-cycle realization matched none"):
            classify_realization(moebius5().triangles)

    def test_rejects_non_realization(self):
        tris = [Triangle("abc"), Triangle("abd"), Triangle("cde"), Triangle("aef")]
        with pytest.raises(PatternError):
            classify_realization(tris)

    def test_builds_no_pattern_matrix(self, monkeypatch):
        # Each pair's required entry is worked out where it is compared, so
        # a sequence is rejected, or accepted, without building the n x n
        # pattern first.
        def gone(n):
            raise AssertionError("the realization check built the pattern matrix")

        monkeypatch.setattr(cycles, "ncycle_matrix", gone)
        tris = subdivided("icosahedron", 1).triangles
        assert len(tris) == 80
        message = "triangles 0 and 1 intersect in dimension 0, the 80-cycle pattern requires 1"
        with pytest.raises(PatternError, match=f"^{message}$"):
            classify_realization(tris)
        assert classify_realization(disk_fan(8).triangles) == disk(8)

    def test_rejects_too_short(self):
        with pytest.raises(PatternError):
            classify_realization([Triangle("abc"), Triangle("abd")])

    def test_realization_keeps_a_tuple(self):
        tris = disk_fan(5).triangles
        listed, kept = CycleRealization(list(tris)), CycleRealization(tuple(tris))
        assert listed == kept and hash(listed) == hash(kept)
        assert type(listed.triangles) is tuple

    @pytest.mark.parametrize("builder,want", [
        (moebius5, MOEBIUS5),
        (moebius6, MOEBIUS6),
        (lambda: disk_fan(5), disk(5)),
        (lambda: disk_fan(6), disk(6)),
    ])
    def test_dihedral_invariance(self, builder, want):
        tris = list(builder().triangles)
        n = len(tris)
        for direction in (1, -1):
            for offset in range(n):
                seq = [tris[(offset + direction * k) % n] for k in range(n)]
                assert classify_realization(seq) == want

    def test_encoding_identifies_a_reversal(self):
        # No relabelled rotation of this sequence is its reversal, so only
        # the reflections in the canonical form make the two equal.
        seq = [frozenset("abc"), frozenset("bcd"), frozenset("def")]
        assert _canonical_encoding(seq) == _canonical_encoding(seq[::-1])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), kind=st.sampled_from(["m5", "m6", "fan"]))
    def test_relabeling_invariance(self, seed, kind):
        base = {"m5": moebius5(), "m6": moebius6(), "fan": disk_fan(6)}[kind]
        want = {"m5": MOEBIUS5, "m6": MOEBIUS6, "fan": disk(6)}[kind]
        rng = random.Random(seed)
        labels = list(base.vertices())
        images = [f"w{k}" for k in range(len(labels))]
        rng.shuffle(images)
        relabel = dict(zip(labels, images))
        seq = [Triangle(tuple(relabel[v] for v in t.vertices)) for t in base.triangles]
        assert classify_realization(seq) == want


class TestOracle:
    @pytest.mark.parametrize("n", sorted(EXPECTED_COUNTS))
    def test_enumeration_matches_trichotomy(self, n):
        results = enumerate_realizations(n)
        assert len(results) == EXPECTED_COUNTS[n]
        assert {cls for _, cls in results} == expected_classes(n)
        for realization, cls in results:
            assert classify_realization(realization.triangles) == cls

    def test_realizations_satisfy_pattern(self):
        for n in sorted(EXPECTED_COUNTS):
            target = ncycle_matrix(n)
            for realization, _ in enumerate_realizations(n):
                sets = [t.vertex_set for t in realization.triangles]
                for i in range(n):
                    for j in range(n):
                        assert len(sets[i] & sets[j]) - 1 == target[i, j]

    def test_vertex_counts(self):
        # Fans use n+1 vertices, the bands 5 and 6; the only other survivor
        # is the degenerate n=3 realization of three triangles on one edge.
        for n in range(4, 9):
            for realization, cls in enumerate_realizations(n):
                vertices = set().union(*(t.vertex_set for t in realization.triangles))
                if cls == disk(n):
                    assert len(vertices) == n + 1
                elif cls == MOEBIUS5:
                    assert len(vertices) == 5
                elif cls == MOEBIUS6:
                    assert len(vertices) == 6

    def test_n3_degenerate_realization(self):
        # At n=3 the wraparound makes every pair adjacent, which admits the
        # fan and one extra shape: three triangles sharing a single edge.
        results = enumerate_realizations(3)
        vertex_counts = sorted(
            len(set().union(*(t.vertex_set for t in r.triangles)))
            for r, _ in results
        )
        assert vertex_counts == [4, 5]
        assert {cls for _, cls in results} == {disk(3)}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_realizations(2)
        with pytest.raises(ValueError):
            enumerate_realizations(9)

    def test_band_boundaries(self):
        # The disk realizations leave n rim edges; each band leaves a single
        # boundary cycle of its full length and is one-sided.
        for builder, length in ((moebius5, 5), (moebius6, 6)):
            K = builder()
            rim = boundary_edges(K)
            assert len(rim) == length
            assert _single_cycle(rim)
            assert not _oriented_consistently(K)
        fan = disk_fan(8)
        assert len(boundary_edges(fan)) == 8
        assert _single_cycle(boundary_edges(fan))
        assert _oriented_consistently(fan)


def _single_cycle(edges):
    adjacency = {}
    for e in edges:
        u, v = sorted(e)
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    if any(len(nb) != 2 for nb in adjacency.values()):
        return False
    start = next(iter(adjacency))
    seen = {start}
    frontier = [start]
    while frontier:
        for w in adjacency[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(adjacency)
