"""Outputs pinned by sha1.

Each group below renders a family of answers as text and compares its
sha1 with a value taken from an earlier version of the library.  A change
meant to keep every answer the same (a refactor, a faster search) must
keep every digest; a change meant to alter an answer must say so and
re-pin the digest it changes.  The groups cover the bijection search and
its extensions, both modes of ``reconstruct``, exceptional detection, the
growth search's placements, the cycle oracle, verdicts and error texts
on random matrices, the vertex search of ``simplicial_automorphisms`` on
catalog complexes, fans, subdivisions, grid tori and random pure
2-complexes, the ``verify-corpus`` report with its timings taken out,
and ``exports``, the package's public names with the kind and defining
module of each.  Two groups pin work rather than answers:
``growth-nodes`` records how many candidates the growth search places
before it runs out, and ``vertex-stars`` the cyclic order of every vertex
star, which ``trimat classify-link`` classifies; the bijection extension
reads only the set of each star.  The inputs are seeded, and the copies
carry fresh indices and labels, so the order of every search is pinned too.
"""

import hashlib
import inspect
import io
import random
import re
from contextlib import redirect_stdout

import pytest

import trimat
from trimat import (
    BudgetExceededError,
    Extended,
    IntersectionMatrix,
    PatternError,
    ReconstructionError,
    detect_exceptional,
    enumerate_realizations,
    extend_to_simplicial,
    find_intersection_preserving_bijections,
    intersection_matrix,
    isomorphic,
    ncycle_matrix,
    reconstruct,
    serialize_matrix,
    serialize_triangulation,
    standard,
    vertex_star,
)
from trimat.catalog import CLOSED_SURFACES, _grid_torus, catalog_names, disk_fan
from trimat.cli import main
from trimat.reconstruct import DEFAULT_NODE_CAP, _grow
from trimat.verification import simplicial_automorphisms

from inputs import random_complex, reindexed_relabelled, subdivide

GOLDEN = {
    "maps": "e7857141c26f7f603699740e68e874d71c58638e",
    "reconstruct-cli": "5bcf76556cc26cf330ebee1e2e69e7ebfe1b754e",
    "reconstruct-first": "677c49325da6f2b6d698db37ade5552e305cb500",
    "exceptional": "9ade9776cca6d774c27602d8a71be3c219a6ff4e",
    "placements": "2511dc66a348776e66e331d0badefc4e09b823a2",
    "growth-nodes": "5d52630cdd114c24279809a2e9ceb2c3df30e424",
    "vertex-stars": "deb3ed372ad007a18e41d78299d6d06db90d73c5",
    "realizations": "1d44366377665937f3a2fb417dae6a08e8f17365",
    "random-reconstruct": "bf5036b2b1d6ff2ef481ebfdb44b325af68db116",
    "random-kernel": "0ad47443087bdc70d6caf161f1e766aab2eced55",
    "automorphisms": "6bdf1a68b204457d90b082ba78fae938c7d92162",
    "verify-corpus": "87c762445c31ea6ec2df392bcbce3a608f8d9329",
    "exports": "b0a302b004f8410135f0ea1d92f69999f2d7f2ae",
}


def surfaces():
    """(label, surface) for each corpus surface and its subdivision."""
    for name in CLOSED_SURFACES:
        K = standard(name)
        yield name, K
        yield f"{name}/4", subdivide(K)


def pairs():
    """(label, surface, copy) for two seeded copies of each surface."""
    for label, K in surfaces():
        for seed in (1, 2):
            yield f"{label} seed {seed}", K, reindexed_relabelled(K, seed)


def copy_matrices():
    for label, _, K2 in pairs():
        yield label, intersection_matrix(K2)


def solution(result):
    return (
        f"{serialize_triangulation(result.complex)}"
        f"{result.ambiguity} {result.all_solutions_isomorphic}"
    )


def verdict(call):
    """What ``call()`` returns, or the class and text of the library error
    it raises."""
    try:
        return str(call())
    except (PatternError, ReconstructionError, BudgetExceededError) as exc:
        return f"{type(exc).__name__}: {exc}"


def render_maps(_tmp):
    for label, K, K2 in pairs():
        yield label
        for f in find_intersection_preserving_bijections(
            intersection_matrix(K), intersection_matrix(K2)
        ):
            result = extend_to_simplicial(K, K2, f)
            if isinstance(result, Extended):
                yield f"{f} -> {sorted(result.vertex_map.items())}"
            else:
                yield f"{f} -> {result}"
        yield f"isomorphic {isomorphic(K, K2)}"


def render_reconstruct_cli(tmp):
    for label, M in copy_matrices():
        path = tmp / "m.imat"
        path.write_text(serialize_matrix(M))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["reconstruct", str(path)])
        yield f"{label} exit {code}"
        yield out.getvalue()


def render_reconstruct_first(_tmp):
    for label, M in copy_matrices():
        yield label
        yield solution(reconstruct(M, find_all_solutions=False))


def render_exceptional(_tmp):
    for label, K in surfaces():
        yield f"{label} {detect_exceptional(intersection_matrix(K))}"
    for label, M in copy_matrices():
        yield f"{label} {detect_exceptional(M)}"


def render_placements(_tmp):
    for n in range(3, 9):
        yield f"n={n}"
        yield from map(repr, _grow(ncycle_matrix(n), DEFAULT_NODE_CAP))


def growth_nodes(M):
    """The smallest ``node_cap`` under which ``_grow`` runs M to
    exhaustion: the number of candidates it places, found by bisection on
    BudgetExceededError."""

    def exhausts(cap):
        try:
            for _ in _grow(M, cap):
                pass
        except BudgetExceededError:
            return False
        return True

    # A cap of -1 never exhausts; double hi until it does, then bisect.
    lo, hi = -1, 1
    while not exhausts(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exhausts(mid):
            hi = mid
        else:
            lo = mid
    return hi


def render_growth_nodes(_tmp):
    for label, K in surfaces():
        yield f"{label} {growth_nodes(intersection_matrix(K))}"
    for label, M in copy_matrices():
        yield f"{label} {growth_nodes(M)}"
    for n in range(3, 9):
        yield f"n={n} {growth_nodes(ncycle_matrix(n))}"


def render_vertex_stars(_tmp):
    for label, K in surfaces():
        yield label
        yield from (f"{v} {vertex_star(K, v)}" for v in K.vertices())
    for label, _, K2 in pairs():
        yield label
        yield from (f"{v} {vertex_star(K2, v)}" for v in K2.vertices())


def render_realizations(_tmp):
    for n in range(3, 9):
        for realization, cls in enumerate_realizations(n):
            yield f"n={n} {cls} {[t.vertices for t in realization.triangles]}"


def render_automorphisms(_tmp):
    complexes = [(name, standard(name)) for name in catalog_names()]
    complexes += [(f"disk_fan({n})", disk_fan(n)) for n in range(3, 9)]
    complexes += [(f"{name}/4", subdivide(standard(name))) for name in CLOSED_SURFACES]
    complexes += [(f"T{a}x{b}", _grid_torus(a, b)) for a, b in ((3, 3), (3, 4), (4, 4), (4, 6), (6, 6))]
    rng = random.Random(20261019)
    complexes += [(f"random {i}", random_complex(rng, rng.randint(3, 6))) for i in range(40)]
    for label, K in complexes:
        yield f"{label} {simplicial_automorphisms(K)!r}"


def render_verify_corpus(_tmp):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify-corpus"])
    yield f"exit {code}"
    yield re.sub(r" \(\d+\.\d\ds\)", "", out.getvalue())


def render_exports(_tmp):
    names = sorted(trimat.__all__)
    assert len(set(names)) == len(names)
    assert inspect.isfunction(trimat.reconstruct)
    for name in ("catalog", "complexes", "cycles", "errors", "intersection"):
        assert inspect.ismodule(getattr(trimat, name))
    for name in names:
        obj = getattr(trimat, name)
        if isinstance(obj, type):
            yield f"{name} class {obj.__module__}"
        elif inspect.isfunction(obj):
            yield f"{name} function {obj.__module__}"
        else:
            yield f"{name} value -"


def symmetric(n, rng, draw):
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(i, j)
    return tuple(map(tuple, rows))


def random_matrices(rng):
    """Random symmetric matrices, rare 2s included, and corpus matrices
    (reindexed) with their entry-1 graph kept and a tenth of the other
    entries redrawn from {-1, 0}, which pass the row conditions."""
    for _ in range(150):
        n = rng.randint(2, 12)
        yield symmetric(n, rng, lambda i, j: rng.choice((-1, -1, 0, 0, 1, 1, 1, 2)))
    corpus = [intersection_matrix(K2).entries for _, _, K2 in pairs()]
    for _ in range(150):
        m = rng.choice(corpus)

        def draw(i, j):
            if m[i][j] == 1 or rng.random() > 0.1:
                return m[i][j]
            return rng.choice((-1, 0))

        yield symmetric(len(m), rng, draw)


def render_random_reconstruct(_tmp):
    rng = random.Random(20261018)
    for m in random_matrices(rng):
        M = IntersectionMatrix(m)
        yield serialize_matrix(M) + verdict(lambda: solution(reconstruct(M, node_cap=500)))
        yield verdict(lambda: detect_exceptional(M))


def render_random_kernel(_tmp):
    rng = random.Random(1018)
    for _ in range(300):
        n = rng.randint(1, 7)
        m1 = symmetric(n, rng, lambda i, j: rng.choice((-1, 0, 0, 1, 1, 2)))
        if rng.random() < 0.5:
            perm = rng.sample(range(n), n)
            m2 = [[2] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    m2[perm[i]][perm[j]] = m1[i][j]
            m2 = tuple(map(tuple, m2))
        else:
            m2 = symmetric(n, rng, lambda i, j: rng.choice((-1, 0, 0, 1, 1, 2)))
        limit = rng.choice((None, None, 0, 1, 2, 5))
        found = find_intersection_preserving_bijections(
            IntersectionMatrix(m1), IntersectionMatrix(m2), limit
        )
        yield f"{m1} {m2} {limit} {[g.forward for g in found]}"


RENDER = {
    "maps": render_maps,
    "reconstruct-cli": render_reconstruct_cli,
    "reconstruct-first": render_reconstruct_first,
    "exceptional": render_exceptional,
    "placements": render_placements,
    "growth-nodes": render_growth_nodes,
    "vertex-stars": render_vertex_stars,
    "realizations": render_realizations,
    "random-reconstruct": render_random_reconstruct,
    "random-kernel": render_random_kernel,
    "automorphisms": render_automorphisms,
    "verify-corpus": render_verify_corpus,
    "exports": render_exports,
}


def digest(group, tmp):
    return hashlib.sha1("\n".join(RENDER[group](tmp)).encode()).hexdigest()


@pytest.mark.parametrize("group", sorted(GOLDEN))
def test_output_matches_pinned_digest(group, tmp_path):
    assert digest(group, tmp_path) == GOLDEN[group]
