"""Acceptance suite: the seven corpus criteria.

Each test runs one criterion from trimat.verification (the same checks the
``trimat verify-corpus`` command executes), asserts it passed within its
time budget, and prints its one-line verdict.  Run with ``pytest -s`` to
see the lines.

1. catalog soundness: tp10 is a (6,15,10) chi=1 non-orientable closed
   surface, tp12 a (7,18,12) one; every corpus member validates.
2. cycle trichotomy: exhaustive enumeration for n=3..8, which classifies
   each survivor as it finds it, yields disks only, except one extra band
   at n=5 and one at n=6.
3. round trip: each corpus matrix reconstructs to an isomorphic complex
   and all reconstruction solutions are pairwise isomorphic.
4. extension counts: every preserving self-bijection of the tetrahedron
   (24 of them) extends; extendable counts equal independently enumerated
   simplicial automorphisms for the octahedron (48) and icosahedron (120).
5. non-extension: tp10 and tp12 admit non-extendable preserving
   self-bijections; no other corpus member does.
6. exceptional detection: canonical and 20 shuffled matrices of tp10/tp12
   are flagged; nothing else is.
7. matrix invariants: symmetry, diagonal 2, three 1s per row, and
   reconstruction-class invariance under 100 random reindexings.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from trimat import catalog
from trimat.errors import TrichotomyError
from trimat.intersection import TriangleBijection, intersection_matrix
from trimat.reconstruct import reconstruct
from trimat.verification import CHECKS, TIME_BUDGETS, run_check

from inputs import rebind


@pytest.mark.parametrize(
    "criterion,name",
    [(num, name) for num, name, _ in CHECKS],
    ids=[f"criterion{num}-{name.replace(' ', '-')}" for num, name, _ in CHECKS],
)
def test_acceptance_criterion(criterion, name):
    result = run_check(criterion)
    print(result.line())
    assert result.passed, result.detail
    budget = TIME_BUDGETS[criterion]
    assert result.seconds < budget, (
        f"criterion {criterion} took {result.seconds:.1f}s, budget {budget:.0f}s"
    )


def test_criterion7_reports_a_bad_row(monkeypatch):
    # A Moebius band has boundary triangles with fewer than three
    # edge-neighbours; criterion 7 must fail on it, not raise.
    from trimat import moebius5, verification

    monkeypatch.setattr(verification, "corpus", lambda: [("moebius5", moebius5())])
    passed, detail = verification._check_matrix_invariants()
    assert passed is False
    assert detail.startswith("moebius5: row ")


def raising(exc):
    """A stand-in that raises ``exc`` whatever it is called with."""

    def stand_in(*args, **kwargs):
        raise exc

    return stand_in


def only_canonical_tp10(M):
    """A detector that knows tp10's matrix only in catalog order."""
    return "TP10" if M == intersection_matrix(catalog.standard("tp10")) else None


# (criterion, a global of trimat.verification, a stand-in that makes the
# criterion fail, the start of the detail it must then report)
FAILURES = [
    (1, "euler_characteristic", lambda K: 99, "tetrahedron: n=4, chi=99"),
    (
        1,
        "validate_closed_surface",
        lambda K: SimpleNamespace(is_closed_surface=False),
        "tetrahedron: not a closed surface",
    ),
    (1, "orientability", lambda K: None, "tetrahedron: orientable=None"),
    # The tetrahedron's entry under tp10's name: only (V,E,F) tells them apart.
    (
        1,
        "catalog",
        SimpleNamespace(CLOSED_SURFACES=("tp10",), entry=lambda name: catalog.entry("tetrahedron")),
        "tp10: (V,E,F)=(4, 6, 4), expected (6, 15, 10)",
    ),
    (2, "expected_classes", lambda n: set(), "n=3: classes"),
    (2, "enumerate_realizations", raising(TrichotomyError("no class")), "n=3: no class"),
    (3, "isomorphic", lambda K1, K2: False, "tetrahedron: no extendable bijection"),
    (
        3,
        "reconstruct",
        lambda M: SimpleNamespace(complex=catalog.standard("octahedron")),
        "tetrahedron: reconstruction does not reproduce the matrix",
    ),
    (
        3,
        "reconstruct",
        lambda M: dataclasses.replace(reconstruct(M), all_solutions_isomorphic=False),
        "tetrahedron: reconstruction solutions are not all isomorphic",
    ),
    (
        4,
        "simplicial_automorphisms",
        lambda K: [],
        "tetrahedron: extendable=24, simplicial automorphisms=0",
    ),
    (
        4,
        "_count_extendable",
        lambda K: (23, 23),
        "tetrahedron: 23 preserving self-bijections, expected 24",
    ),
    (4, "_count_extendable", lambda K: (24, 23), "tetrahedron: only 23/24 extend"),
    (
        5,
        "corpus",
        lambda: [("tp10", catalog.standard("tetrahedron"))],
        "tp10: expected a non-extendable self-bijection",
    ),
    (
        5,
        "_count_extendable",
        lambda K: (24, 23),
        "tetrahedron: found 1 unexpected non-extendable self-bijections",
    ),
    (6, "detect_exceptional", lambda M: None, "tp10: canonical matrix not detected"),
    (6, "detect_exceptional", only_canonical_tp10, "tp10: shuffled matrix #0 not detected"),
    (
        6,
        "corpus",
        lambda: [("tetrahedron", catalog.standard("tp10"))],
        "tetrahedron: falsely flagged as exceptional",
    ),
    (
        7,
        "iter_bijections",
        lambda M1, M2: iter(()),
        "tetrahedron permuted (trial 0): reconstruction not isomorphic",
    ),
    # A reindexing that is not a bijection gives the trial a bad row.
    (
        7,
        "_random_permutation",
        lambda n, rng: TriangleBijection._trusted((0,) * n),
        "tetrahedron permuted (trial 0): entry (1,2) is 2 off the diagonal",
    ),
    # Both members share a name, so the tetrahedron's trial meets tp10's
    # baseline.
    (
        7,
        "corpus",
        lambda: [("tp10", catalog.standard("tetrahedron")), ("tp10", catalog.standard("tp10"))],
        "tp10 permuted (trial 0): ambiguity None != TP10",
    ),
]


def failure_id(row):
    """criterion<N>-<global>, with a count from the second row that stands
    in for the same global in the same criterion."""
    num, name = FAILURES[row][:2]
    repeats = sum(other[:2] == (num, name) for other in FAILURES[:row])
    return f"criterion{num}-{name}" + (f"-{repeats + 1}" if repeats else "")


@pytest.mark.parametrize(
    "criterion,name,stand_in,detail",
    FAILURES,
    ids=[failure_id(row) for row in range(len(FAILURES))],
)
def test_criterion_reports_its_failure(monkeypatch, criterion, name, stand_in, detail):
    from trimat import verification

    monkeypatch.setattr(verification, name, stand_in)
    result = run_check(criterion)
    assert result.passed is False
    assert result.detail.startswith(detail), result.detail
    assert " FAIL " in result.line()


def test_unknown_criterion_raises():
    with pytest.raises(ValueError, match="no criterion 8"):
        run_check(8)


def counted_validations(monkeypatch):
    """The complexes passed to ``validate_closed_surface`` from now on.

    Every binding of the function in the package is wrapped, so a caller
    that imports it under its own name is counted.
    """
    from trimat import complexes

    real = complexes.validate_closed_surface
    calls = []

    def counting(K):
        calls.append(K)
        return real(K)

    rebind(monkeypatch, real, counting)
    return calls


def test_criterion5_validates_each_surface_once_per_side(monkeypatch):
    # The extension counts walk every preserving self-bijection of each
    # corpus surface; the two complexes are validated once per walk, not
    # once per map.
    from trimat import verification

    calls = counted_validations(monkeypatch)
    assert run_check(5).passed
    surfaces = len(verification.corpus())
    assert 0 < len(calls) <= 2 * surfaces


def test_criterion7_validates_each_reconstruction_once(monkeypatch):
    # reconstruct validates the complex it returns; the isomorphism check
    # between a reconstruction and its baseline must not validate both
    # again.  Criterion 7 runs reconstruct once per corpus surface and once
    # per trial (100 of them).
    from trimat import verification

    calls = counted_validations(monkeypatch)
    assert run_check(7).passed
    reconstruct_calls = len(verification.corpus()) + 100
    assert 0 < len(calls) <= 2 * reconstruct_calls
