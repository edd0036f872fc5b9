"""Corpus-wide verification checks.

Each check is an executable statement about the library run against the
built-in corpus of closed surfaces (tetrahedron, octahedron, icosahedron,
7-vertex torus, tp10, tp12).  The CLI ``verify-corpus`` command and the
acceptance test module both run exactly these; they are written here once
so the two entry points cannot drift apart.

Counting simplicial automorphisms directly (``simplicial_automorphisms``)
is deliberately independent of the matrix machinery: it drives the vertex
walk of ``complexes._vertex_walk``, which searches vertex bijections, not
triangle bijections, and calls nothing in ``intersection``, ``_search``
or ``reconstruct``, so the extension-count check compares two routes that
share no code.  Both searches propagate: the matrix route along the dual
graph, the vertex route along the 1-skeleton, where each vertex's BFS
parent confines its image to the neighbours of the parent's image.  Both
take their groups by cosets of a stabiliser instead of searching every
map (Sims, 1970): the matrix route through
``_search._automorphism_group``, the vertex route in
``simplicial_automorphisms``.

Criterion 3's isomorphism check (``intersection.isomorphic``) runs on
the vertex walk too, and so does each of criterion 7's 100 trials, from
the surface's baseline reconstruction onto the trial's.  The walk keeps
its plan on the complex it walks from, so each baseline's plan serves all
of its trials, and a catalog complex's plan lasts for the process.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from . import catalog
from .complexes import (
    Triangulation,
    _require_closed_surface,
    _vertex_walk,
    euler_characteristic,
    orientability,
    validate_closed_surface,
)
from .cycles import (
    CycleClass,
    CycleRealization,
    enumerate_realizations,
    expected_classes,
)
from ._search import _automorphism_group, iter_bijections
from .errors import PatternError, TrichotomyError
from .intersection import (
    Extended,
    TriangleBijection,
    _extend,
    intersection_matrix,
    isomorphic,
)
from .reconstruct import detect_exceptional, reconstruct

__all__ = [
    "CheckResult",
    "corpus",
    "simplicial_automorphisms",
    "run_all_checks",
    "run_check",
    "CHECKS",
    "ORACLE_SEED",
]

ORACLE_SEED = 20260808


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.criterion} {verdict} ({self.seconds:.2f}s): {self.name} — {self.detail}"


def corpus() -> list[tuple[str, Triangulation]]:
    """The closed-surface corpus in its fixed order."""
    return [(name, catalog.standard(name)) for name in catalog.CLOSED_SURFACES]


def simplicial_automorphisms(K: Triangulation) -> list[dict[str, str]]:
    """All vertex bijections mapping the triangle set onto itself, each
    keyed in ``K.vertices()`` order, sorted by image sequence.

    They are the maps ``complexes._vertex_walk`` yields from K onto K, but
    only the maps that fix the walk's root v are searched in full: they
    form Stab(v), and the root tries itself first.  For any other root
    image w the walk stops at the first map h, since the maps that send v
    to w are exactly h o Stab(v) (if g does, h^-1 o g fixes v).  A root
    image that no map reaches is searched to exhaustion.
    """
    verts = K.vertices()
    image = [0] * len(verts)
    walk = _vertex_walk(K, K, image)
    stab: list[tuple[int, ...]] = []
    found: list[tuple[int, ...]] = []
    back = None
    while True:
        try:
            root = walk.send(back)
        except StopIteration:
            break
        back = None
        if image[root] == root:
            stab.append(tuple(image))
        else:
            # The maps h o s for s in Stab, itemgetter(*s)(image) (a
            # complex has at least 3 vertices, so the getter returns a
            # tuple); then the rest of the subtree is skipped.
            found += [itemgetter(*s)(image) for s in stab]
            back = True
    found += stab
    found.sort()
    return [{verts[i]: verts[j] for i, j in enumerate(f)} for f in found]


# -- the seven corpus checks --------------------------------------------------


def _check_catalog_soundness() -> tuple[bool, str]:
    expected_vef = {"tp10": (6, 15, 10), "tp12": (7, 18, 12)}
    problems = []
    for name in catalog.CLOSED_SURFACES:
        entry = catalog.entry(name)
        K = entry.builder()
        report = validate_closed_surface(K)
        if not report.is_closed_surface:
            problems.append(f"{name}: not a closed surface")
        chi = euler_characteristic(K)
        if K.n != entry.n or chi != entry.euler_characteristic:
            problems.append(f"{name}: n={K.n}, chi={chi}")
        orientable = orientability(K) if report.is_closed_surface else None
        if orientable != entry.orientable:
            problems.append(f"{name}: orientable={orientable}")
        if name in expected_vef:
            vef = (len(K.vertices()), len(K.edges()), K.n)
            if vef != expected_vef[name]:
                problems.append(f"{name}: (V,E,F)={vef}, expected {expected_vef[name]}")
    if problems:
        return False, "; ".join(problems)
    return True, (
        "all corpus surfaces validate; tp10 has (V,E,F)=(6,15,10) chi=1 "
        "non-orientable, tp12 has (7,18,12) chi=1 non-orientable"
    )


def _check_cycle_trichotomy() -> tuple[bool, str]:
    passed, detail, _ = _cycle_trichotomy(8)
    return passed, detail


#: (n, enumerate_realizations(n)) for each cycle length n enumerated.
_Enumerated = list[tuple[int, list[tuple[CycleRealization, CycleClass]]]]


def _cycle_trichotomy(max_n: int) -> tuple[bool, str, _Enumerated]:
    """The verdict of the cycle trichotomy check for n = 3..max_n, and the
    realizations of each n it enumerated, so that ``trimat verify-lemma``
    prints the ones it checked instead of enumerating them again."""
    counts = []
    enumerated: _Enumerated = []
    for n in range(3, max_n + 1):
        try:
            results = enumerate_realizations(n)
        except TrichotomyError as exc:
            return False, f"n={n}: {exc}", enumerated
        enumerated.append((n, results))
        got = {cls for _, cls in results}
        if got != expected_classes(n):
            return False, (
                f"n={n}: classes {sorted(map(str, got))} != "
                f"expected {sorted(map(str, expected_classes(n)))}"
            ), enumerated
        counts.append(f"n={n}:{len(results)}")
    return True, (
        "exhaustive enumeration matches the disk/Moebius trichotomy "
        f"for n=3..{max_n} (realization counts {', '.join(counts)})"
    ), enumerated


def _check_round_trip() -> tuple[bool, str]:
    for name, K in corpus():
        M = intersection_matrix(K)
        result = reconstruct(M)
        # The answer's matrix is worked out again on a fresh complex, not
        # read from the one reconstruct kept after comparing it with M.
        if intersection_matrix(Triangulation(result.complex.triangles)).entries != M.entries:
            return False, f"{name}: reconstruction does not reproduce the matrix"
        if not result.all_solutions_isomorphic:
            return False, f"{name}: reconstruction solutions are not all isomorphic"
        if not isomorphic(K, result.complex):
            return False, f"{name}: no extendable bijection onto the reconstruction"
    return True, (
        "every corpus matrix reconstructs to an isomorphic complex and all "
        "search solutions agree up to simplicial isomorphism"
    )


def _count_extendable(K: Triangulation) -> tuple[int, int]:
    """(preserving self-bijections, those that extend); K is validated
    once.

    The extendable maps form a subgroup of Aut(M), M the matrix of K: if
    f and g are induced by vertex bijections, f o g and f^-1 are induced
    by their composite and inverse.  So if every map of Stab and every
    generator of ``_search._automorphism_group`` extends, all of Aut(M)
    does, and both counts are its order.  Otherwise every preserving
    self-map is extended; by the paper's theorem that happens only on tp10
    and tp12.
    """
    _require_closed_surface(K, "the complex")
    M = intersection_matrix(K)
    stab, generators, order = _automorphism_group(M)
    if all(isinstance(_extend(K, K, g), Extended) for g in stab + generators):
        return order, order
    results = [_extend(K, K, g) for g in iter_bijections(M, M)]
    return len(results), sum(isinstance(r, Extended) for r in results)


def _check_extension_counts() -> tuple[bool, str]:
    expected = {"tetrahedron": 24, "octahedron": 48, "icosahedron": 120}
    details = []
    for name, want in expected.items():
        K = catalog.standard(name)
        total, extendable = _count_extendable(K)
        autos = len(simplicial_automorphisms(K))
        if name == "tetrahedron" and total != want:
            return False, f"tetrahedron: {total} preserving self-bijections, expected 24"
        if name == "tetrahedron" and extendable != total:
            return False, f"tetrahedron: only {extendable}/{total} extend"
        if extendable != autos or autos != want:
            return False, (
                f"{name}: extendable={extendable}, simplicial automorphisms="
                f"{autos}, expected {want}"
            )
        details.append(f"{name}:{extendable}={autos}")
    return True, f"extendable counts match independent automorphism counts ({', '.join(details)})"


def _check_non_extension_witnesses() -> tuple[bool, str]:
    details = []
    for name, K in corpus():
        total, extendable = _count_extendable(K)
        non_extendable = total - extendable
        if name in ("tp10", "tp12"):
            if non_extendable == 0:
                return False, f"{name}: expected a non-extendable self-bijection, found none"
        elif non_extendable != 0:
            return False, f"{name}: found {non_extendable} unexpected non-extendable self-bijections"
        details.append(f"{name}:{non_extendable}/{total}")
    return True, f"non-extendable self-bijections exist exactly on tp10/tp12 ({', '.join(details)})"


def _random_permutation(n: int, rng: random.Random) -> TriangleBijection:
    perm = list(range(n))
    rng.shuffle(perm)
    return TriangleBijection._trusted(tuple(perm))


def _check_exceptional_detection() -> tuple[bool, str]:
    rng = random.Random(ORACLE_SEED)
    for name, want in (("tp10", "TP10"), ("tp12", "TP12")):
        M = intersection_matrix(catalog.standard(name))
        if detect_exceptional(M) != want:
            return False, f"{name}: canonical matrix not detected"
        for k in range(20):
            shuffled = M.permuted(_random_permutation(M.n, rng))
            if detect_exceptional(shuffled) != want:
                return False, f"{name}: shuffled matrix #{k} not detected"
    for name, K in corpus():
        if name in ("tp10", "tp12"):
            continue
        if detect_exceptional(intersection_matrix(K)) is not None:
            return False, f"{name}: falsely flagged as exceptional"
    return True, "canonical and 20 shuffled matrices detected for each of tp10/tp12; no false positives"


def _check_matrix_invariants() -> tuple[bool, str]:
    rng = random.Random(ORACLE_SEED + 1)
    members = corpus()
    # Symmetry and the diagonal are enforced by the IntersectionMatrix
    # type; reconstruct raises PatternError on any other bad row.
    baseline = {}
    for name, K in members:
        try:
            baseline[name] = reconstruct(intersection_matrix(K), find_all_solutions=False)
        except PatternError as exc:
            return False, f"{name}: {exc}"
    for trial in range(100):
        name, K = members[trial % len(members)]
        M = intersection_matrix(K)
        permuted = M.permuted(_random_permutation(M.n, rng))
        try:
            result = reconstruct(permuted, find_all_solutions=False)
        except PatternError as exc:
            return False, f"{name} permuted (trial {trial}): {exc}"
        if result.ambiguity != baseline[name].ambiguity:
            return False, (
                f"{name} permuted (trial {trial}): ambiguity {result.ambiguity} "
                f"!= {baseline[name].ambiguity}"
            )
        # Both complexes come out of reconstruct, which validated them, so
        # the vertex walk decides isomorphism with no further check.
        base = baseline[name].complex
        if next(_vertex_walk(base, result.complex, [0] * len(base.vertices())), None) is None:
            return False, (
                f"{name} permuted (trial {trial}): reconstruction not isomorphic "
                "to the unpermuted one"
            )
    return True, (
        "symmetry, diagonal, three 1s per row and reconstruction-class "
        "invariance hold on the corpus and 100 random reindexings"
    )


CHECKS: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "catalog soundness", _check_catalog_soundness),
    (2, "cycle trichotomy oracle", _check_cycle_trichotomy),
    (3, "matrix round trip", _check_round_trip),
    (4, "extension counts", _check_extension_counts),
    (5, "non-extension witnesses", _check_non_extension_witnesses),
    (6, "exceptional detection", _check_exceptional_detection),
    (7, "matrix invariants", _check_matrix_invariants),
]

#: Wall-clock budgets per criterion, generous versions of the stated bounds.
TIME_BUDGETS = {1: 1.0, 2: 300.0, 3: 300.0, 4: 300.0, 5: 300.0, 6: 300.0, 7: 300.0}


def run_check(criterion: int) -> CheckResult:
    for num, name, func in CHECKS:
        if num == criterion:
            start = time.perf_counter()
            passed, detail = func()
            elapsed = time.perf_counter() - start
            return CheckResult(num, name, passed, detail, elapsed)
    raise ValueError(f"no criterion {criterion}")


def run_all_checks() -> list[CheckResult]:
    return [run_check(num) for num, _, _ in CHECKS]
