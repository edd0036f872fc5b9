"""The four workloads: what each operation calls and how its answer is checked.

A workload is a list of passes; ``make_pass(tm, seed, index, workdir)``
builds pass ``index`` from the seed alone, writes its inputs under
``workdir`` and returns its operations.  Each pass of ``reindexed``,
``subdivided`` and ``selfmaps`` draws fresh reindexings, so a longer run
sees more inputs instead of repeating one.

An operation's ``run`` makes the library calls that are timed; ``check``
then inspects the result and returns None or a failure ``(class,
detail)``.  Library functions are looked up on their modules at call
time, so the traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import generate as gen

CORPUS = ("tetrahedron", "octahedron", "icosahedron", "torus7", "tp10", "tp12")

#: Preserving bijections from K to a relabelled, reindexed copy of K, and
#: how many of them extend to vertex maps.  Pinned, because the independent
#: automorphism count takes minutes at n = 56.
SELFMAP_COUNTS = {
    "tetrahedron": (24, 24),
    "octahedron": (48, 48),
    "icosahedron": (120, 120),
    "torus7": (42, 42),
    "tp10": (120, 60),
    "tp12": (48, 24),
    "tetrahedron_sd": (24, 24),
    "octahedron_sd": (48, 48),
    "tp10_sd": (60, 60),
    "tp12_sd": (24, 24),
    "torus7_sd": (168, 168),
    "tetrahedron_sd2": (24, 24),
}

Failure = tuple[str, str]


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Failure | None]


@dataclass(frozen=True)
class Workload:
    name: str
    limit_s: float
    tail_pct: float
    make_pass: Callable[..., list[Op]]


def _base(tm, name: str) -> gen.Tris:
    return [t.vertices for t in tm.standard(name).triangles]


def _subdivided(tm) -> list[tuple[str, gen.Tris]]:
    """One-fold subdivisions of the corpus plus the tetrahedron twice
    subdivided, in order of size (n = 16 .. 80)."""
    out = [(f"{name}_sd", gen.subdivide(_base(tm, name))) for name in CORPUS]
    tetra2 = gen.subdivide(gen.subdivide(_base(tm, "tetrahedron")))
    out.append(("tetrahedron_sd2", tetra2))
    return sorted(out, key=lambda item: len(item[1]))


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """``trimat <argv>`` in process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sys.modules["trimat.cli"].main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def _exit_failure(rc: int, err: str) -> Failure | None:
    if rc == 2:
        return ("exit2", err.strip().splitlines()[-1] if err.strip() else "exit 2")
    if rc != 0:
        return ("wrong", f"exit {rc}")
    return None


# -- corpus -------------------------------------------------------------------


def _check_corpus(result) -> Failure | None:
    rc, out, err = result
    failure = _exit_failure(rc, err)
    if failure:
        return failure
    lines = out.splitlines()
    passed = [k for k in range(1, 8) if any(l.startswith(f"criterion {k} PASS") for l in lines)]
    if len(passed) != 7 or lines[-1:] != ["verify-corpus: all criteria passed"]:
        return ("wrong", f"criteria passed {passed}")
    return None


def corpus_pass(tm, seed: int, index: int, workdir: Path) -> list[Op]:
    # verify-corpus reads no input, so the seed has nothing to vary.
    return [Op("verify-corpus", lambda: _cli(["verify-corpus"]), _check_corpus)]


# -- reconstruct ----------------------------------------------------------------


def _reconstruct_op(label: str, tris: gen.Tris, path: Path, ambiguity: str) -> Op:
    want = gen.matrix(tris)
    path.write_text(gen.imat_text(want))

    def check(result) -> Failure | None:
        rc, out, err = result
        failure = _exit_failure(rc, err)
        if failure:
            return failure
        lines = out.splitlines()
        if gen.matrix(gen.parse_tri(out)) != want:
            return ("wrong", "output matrix differs from the input")
        if "# all_solutions_isomorphic: true" not in lines:
            return ("wrong", "solutions not reported isomorphic")
        if f"# ambiguity: {ambiguity}" not in lines:
            return ("wrong", f"ambiguity is not {ambiguity}")
        return None

    return Op(label, lambda: _cli(["reconstruct", str(path)]), check)


def _ambiguity(name: str) -> str:
    return {"tp10": "TP10", "tp12": "TP12"}.get(name, "none")


def reindexed_pass(tm, seed: int, index: int, workdir: Path) -> list[Op]:
    """One reindexing of each corpus matrix; a 25 s run makes dozens."""
    rng = _rng(seed, "reindexed", index)
    return [
        _reconstruct_op(
            name,
            gen.reindex(_base(tm, name), rng),
            workdir / f"reindexed-{index}-{name}.imat",
            _ambiguity(name),
        )
        for name in CORPUS
    ]


def subdivided_pass(tm, seed: int, index: int, workdir: Path) -> list[Op]:
    rng = _rng(seed, "subdivided", index)
    return [
        _reconstruct_op(
            f"{name}(n={len(tris)})",
            gen.reindex(tris, rng),
            workdir / f"subdivided-{index}-{name}.imat",
            "none",
        )
        for name, tris in _subdivided(tm)
    ]


# -- self-maps ----------------------------------------------------------------


def _selfmap_op(tm, name: str, tris: gen.Tris, rng: random.Random, workdir: Path, index: int) -> Op:
    copy = gen.relabel(gen.reindex(tris, rng), rng)
    paths = [workdir / f"selfmaps-{index}-{name}-{side}.tri" for side in ("a", "b")]
    paths[0].write_text(gen.tri_text(tris))
    paths[1].write_text(gen.tri_text(copy))
    maps_want, extend_want = SELFMAP_COUNTS[name]

    def run():
        K, K2 = (tm.parse_triangulation(p.read_text()) for p in paths)
        maps = tm.find_intersection_preserving_bijections(
            tm.intersection_matrix(K), tm.intersection_matrix(K2)
        )
        return maps, [tm.extend_to_simplicial(K, K2, g) for g in maps]

    def check(result) -> Failure | None:
        maps, extensions = result
        images = [tuple(g) for g in maps]
        m1, m2 = gen.matrix(tris), gen.matrix(copy)
        n = len(tris)
        if len(set(images)) != len(images):
            return ("wrong", "duplicate bijections")
        for g in images:
            if any(m2[g[i]][g[j]] != m1[i][j] for i in range(n) for j in range(i + 1, n)):
                return ("wrong", "a returned bijection does not preserve the matrix")
        extended = 0
        for g, ext in zip(images, extensions):
            if isinstance(ext, tm.Extended):
                extended += 1
                vmap = ext.vertex_map
                if len(set(vmap.values())) != len(vmap) or any(
                    {vmap[v] for v in tris[i]} != set(copy[g[i]]) for i in range(n)
                ):
                    return ("wrong", "a vertex map does not induce its bijection")
        if (len(images), extended) != (maps_want, extend_want):
            return ("wrong", f"maps/extendable {len(images)}/{extended}, want {maps_want}/{extend_want}")
        return None

    return Op(f"{name}(n={len(tris)})", run, check)


def selfmaps_pass(tm, seed: int, index: int, workdir: Path) -> list[Op]:
    rng = _rng(seed, "selfmaps", index)
    surfaces = [(name, _base(tm, name)) for name in CORPUS]
    surfaces += [(name, tris) for name, tris in _subdivided(tm) if len(tris) <= 64]
    return [_selfmap_op(tm, name, tris, rng, workdir, index) for name, tris in surfaces]


#: Per-operation limits sit well above the slowest correct operation seen
#: (verify-corpus 5 s, reconstruct of a reindexed corpus matrix 0.4 s, a
#: subdivided self-map enumeration 2.5 s), except for reconstructing a
#: subdivision: that took 0.01 s to over 20 s depending on the reindexing,
#: and about one in ten of the n = 40 ones runs over its 5 s.  The tail
#: percentile is fixed per workload, so that runs of different lengths
#: compare the same statistic: it is the highest of p75/p90/p95/p99 that
#: leaves at least ten operations beyond it in every 25 s run seen (5 to 9
#: corpus, 240 to 560 reindexed, 63 to 175 subdivided and 72 to 132
#: selfmaps operations), and the maximum where none does.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus", 30.0, 100.0, corpus_pass),
        Workload("reindexed", 5.0, 95.0, reindexed_pass),
        Workload("subdivided", 5.0, 75.0, subdivided_pass),
        Workload("selfmaps", 20.0, 75.0, selfmaps_pass),
    )
}

#: Workloads run by hand only and left out of BENCHMARK.json, whose
#: workloads must have no failing operation.  On reconstruct as it stands,
#: every ``subdivided`` operation with n >= 48 escapes RecursionError (the
#: slot search recurses once per matrix pair), and the n = 32 and n = 40
#: ones have unbounded tails (1 in 400 n = 32 reindexings ran over 8 s), so
#: its failure count differs from run to run.  Run it to see those failures.
DIAGNOSTIC = frozenset({"subdivided"})
