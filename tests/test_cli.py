"""CLI subcommands, exit codes, formats, and pipeline fixed points."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimat import (
    catalog,
    cycles,
    disk,
    find_intersection_preserving_bijections,
    intersection_matrix,
    is_intersection_preserving,
    parse_matrix,
    parse_triangulation,
    serialize_bijection,
    serialize_matrix,
    serialize_triangulation,
    TriangleBijection,
    verification,
)
from trimat import cli
from trimat.cli import main
from trimat.errors import TrichotomyError
from trimat.reconstruct import DEFAULT_NODE_CAP

from inputs import reindexed_relabelled

TP10_SWAP_LINE = "5 7 9 6 8 0 2 4 1 3\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """Run ``python -m trimat.cli`` in a fresh interpreter that imports
    this trimat."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "trimat.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestGenAndMatrix:
    def test_gen_tp10(self, capsys, tp10):
        code, out, _ = run(capsys, "gen", "--name", "tp10")
        assert code == 0
        assert parse_triangulation(out) == tp10
        # The module entry point exits with main's code.
        done = run_module("gen", "--name", "tp10")
        assert (done.returncode, done.stdout) == (0, serialize_triangulation(tp10))

    def test_gen_disk_fan(self, capsys):
        code, out, _ = run(capsys, "gen", "--name", "disk_fan", "--n", "6")
        assert code == 0
        assert parse_triangulation(out).n == 6

    def test_gen_unknown_name(self, capsys):
        code, _, err = run(capsys, "gen", "--name", "dodecahedron")
        assert code == 2
        assert "error" in err
        done = run_module("gen", "--name", "dodecahedron")
        assert (done.returncode, done.stdout) == (2, "")

    def test_gen_disk_fan_too_small(self, capsys):
        code, _, err = run(capsys, "gen", "--name", "disk_fan", "--n", "2")
        assert code == 2
        assert err.startswith("error: ")

    def test_gen_disk_fan_needs_n(self, capsys):
        code, out, err = run(capsys, "gen", "--name", "disk_fan")
        assert (code, out) == (2, "")
        assert err == "error: disk_fan needs --n\n"

    def test_gen_fan_size_is_not_part_of_the_name(self, capsys):
        code, out, err = run(capsys, "gen", "--name", "disk_fan(7)")
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown catalog name")

    def test_gen_n_only_for_disk_fan(self, capsys):
        code, out, err = run(capsys, "gen", "--name", "tp10", "--n", "5")
        assert (code, out) == (2, "")
        assert err == "error: --n applies only to disk_fan, not to tp10\n"

    def test_matrix_of_tetrahedron(self, capsys, tmp_path, tetrahedron):
        path = write(tmp_path, "k.tri", serialize_triangulation(tetrahedron))
        code, out, _ = run(capsys, "matrix", path)
        assert code == 0
        assert parse_matrix(out).entries == intersection_matrix(tetrahedron).entries

    def test_matrix_from_stdin(self, capsys, monkeypatch, tp10):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(serialize_triangulation(tp10))
        )
        code, out, _ = run(capsys, "matrix", "-")
        assert code == 0
        assert out == serialize_matrix(intersection_matrix(tp10))

    def test_matrix_deterministic(self, capsys, tmp_path, torus7):
        path = write(tmp_path, "k.tri", serialize_triangulation(torus7))
        _, out1, _ = run(capsys, "matrix", path)
        _, out2, _ = run(capsys, "matrix", path)
        assert out1 == out2

    def test_matrix_bad_input(self, capsys, tmp_path):
        path = write(tmp_path, "bad.tri", "a b\n")
        code, _, err = run(capsys, "matrix", path)
        assert code == 2
        assert "line 1" in err


class TestReconstructCommand:
    def test_tp10_verdict(self, capsys, tmp_path, tp10):
        path = write(tmp_path, "m.imat", serialize_matrix(intersection_matrix(tp10)))
        code, out, _ = run(capsys, "reconstruct", path)
        assert code == 0
        assert "# ambiguity: TP10" in out
        assert "# all_solutions_isomorphic: true" in out

    def test_fixed_point_through_pipeline(self, capsys, tmp_path, corpus):
        # matrix -> reconstruct -> matrix returns the identical matrix.
        for name, K in corpus:
            m_text = serialize_matrix(intersection_matrix(K))
            path = write(tmp_path, f"{name}.imat", m_text)
            code, out, _ = run(capsys, "reconstruct", path)
            assert code == 0
            rebuilt = parse_triangulation(out)
            assert serialize_matrix(intersection_matrix(rebuilt)) == m_text, name

    def test_node_cap_flag(self, capsys, tmp_path, icosahedron):
        path = write(
            tmp_path, "m.imat", serialize_matrix(intersection_matrix(icosahedron))
        )
        code, _, err = run(capsys, "reconstruct", "--node-cap", "10", path)
        assert code == 2
        assert "budget" in err

    def test_node_cap_does_not_carry_over(self, capsys, tmp_path, icosahedron, monkeypatch):
        # The parser is built once per process; a flag from one call must
        # not become the default of the next.
        caps = []
        real = cli.reconstruct

        def recording(M, node_cap):
            caps.append(node_cap)
            return real(M, node_cap=node_cap)

        monkeypatch.setattr(cli, "reconstruct", recording)
        path = write(tmp_path, "m.imat", serialize_matrix(intersection_matrix(icosahedron)))
        assert run(capsys, "reconstruct", "--node-cap", "5", path)[0] == 2
        assert run(capsys, "reconstruct", path)[0] == 0
        assert caps == [5, DEFAULT_NODE_CAP]

    def test_unrealizable_matrix(self, capsys, tmp_path):
        rows = ["6"]
        for i in range(6):
            rows.append(
                " ".join(
                    "2" if i == j else ("1" if (i - j) % 6 in (1, 3, 5) else "0")
                    for j in range(6)
                )
            )
        path = write(tmp_path, "m.imat", "\n".join(rows) + "\n")
        code, _, err = run(capsys, "reconstruct", path)
        assert code == 2
        assert "error" in err

    def test_off_diagonal_two(self, capsys, tmp_path):
        text = (
            "6\n2 1 2 1 1 2\n1 2 1 2 0 1\n2 1 2 1 1 2\n"
            "1 2 1 2 0 1\n1 0 1 0 2 1\n2 1 2 1 1 2\n"
        )
        code, _, err = run(capsys, "reconstruct", write(tmp_path, "m.imat", text))
        assert code == 2
        assert err.startswith("error: ")


class TestMapCommands:
    def test_check_map_yes(self, capsys, tmp_path, tetrahedron):
        k = write(tmp_path, "k.tri", serialize_triangulation(tetrahedron))
        b = write(tmp_path, "f.txt", "1 0 2 3\n")
        code, out, _ = run(capsys, "check-map", k, k, b)
        assert (code, out.strip()) == (0, "yes")

    def test_check_map_no(self, capsys, tmp_path, tp10):
        k = write(tmp_path, "k.tri", serialize_triangulation(tp10))
        b = write(tmp_path, "f.txt", "5 1 2 3 4 0 6 7 8 9\n")
        code, out, _ = run(capsys, "check-map", k, k, b)
        assert (code, out.strip()) == (1, "no")

    def test_check_map_one_triangle(self, capsys, tmp_path):
        # A one-row matrix takes the n = 1 branch of permuted, through which
        # is_intersection_preserving compares; the check needs no closed surface.
        k = write(tmp_path, "k.tri", "a b c\n")
        b = write(tmp_path, "f.txt", "0\n")
        code, out, _ = run(capsys, "check-map", k, k, b)
        assert (code, out) == (0, "yes\n")

    def test_check_map_size_mismatch(self, capsys, tmp_path, tetrahedron, tp10):
        k1 = write(tmp_path, "k1.tri", serialize_triangulation(tetrahedron))
        k2 = write(tmp_path, "k2.tri", serialize_triangulation(tp10))
        b = write(tmp_path, "f.txt", "0 1 2 3\n")
        code, _, err = run(capsys, "check-map", k1, k2, b)
        assert code == 2

    def test_extend_identity(self, capsys, tmp_path, tp10):
        k = write(tmp_path, "k.tri", serialize_triangulation(tp10))
        b = write(
            tmp_path,
            "f.txt",
            serialize_bijection(TriangleBijection.identity(10)),
        )
        code, out, _ = run(capsys, "extend", k, k, b)
        assert code == 0
        assert out.splitlines()[0] == "Extended"
        assert "a0 -> a0" in out

    def test_extend_swap_refused(self, capsys, tmp_path, tp10):
        k = write(tmp_path, "k.tri", serialize_triangulation(tp10))
        b = write(tmp_path, "f.txt", TP10_SWAP_LINE)
        code, out, _ = run(capsys, "extend", k, k, b)
        assert code == 1
        assert out.strip() == "NonExtendable: witness=a0"

    def test_extend_exit_codes_on_every_preserving_map(self, capsys, tmp_path, tp10):
        # Arbitrary bytes rarely spell a preserving map, so the kernel
        # supplies all 120 from tp10 to a reindexed, relabelled copy.
        copy = reindexed_relabelled(tp10, 6)
        k = write(tmp_path, "k.tri", serialize_triangulation(tp10))
        k2 = write(tmp_path, "k2.tri", serialize_triangulation(copy))
        maps = find_intersection_preserving_bijections(
            intersection_matrix(tp10), intersection_matrix(copy)
        )
        codes = []
        for g in maps:
            b = write(tmp_path, "f.txt", serialize_bijection(g))
            codes.append(run(capsys, "extend", k, k2, b)[0])
        assert (len(codes), codes.count(0), codes.count(1)) == (120, 60, 60)
        # Swapping two images of the first map breaks preservation.
        images = list(maps[0].forward)
        images[0], images[5] = images[5], images[0]
        f = TriangleBijection(tuple(images))
        assert not is_intersection_preserving(tp10, copy, f)
        b = write(tmp_path, "f.txt", serialize_bijection(f))
        code, out, err = run(capsys, "extend", k, k2, b)
        assert (code, out) == (2, "")
        assert "not intersection preserving" in err


class TestInputValidation:
    """Matrices and maps read from files are checked in full; only the ones
    the library makes itself skip the check."""

    @pytest.mark.parametrize(
        "text",
        ["2\n2 1\n0 2\n", "2\n1 0\n0 2\n", "2\n2 5\n5 2\n"],
        ids=["asymmetric", "bad-diagonal", "out-of-range"],
    )
    def test_reconstruct_rejects_invalid_matrix(self, capsys, tmp_path, text):
        code, out, err = run(capsys, "reconstruct", write(tmp_path, "m.imat", text))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("# empty\n0\n", "line 2: matrix size must be positive, got 0"),
            ("2\n2 1\n\n1 2 0\n", "line 4: expected 2 entries, got 3"),
            ("2\n2 1\n1 2\n# extra\n1 2\n", "line 5: more matrix rows than declared"),
        ],
        ids=["size-zero", "long-row", "extra-row"],
    )
    def test_reconstruct_reports_the_line(self, capsys, tmp_path, text, message):
        code, out, err = run(capsys, "reconstruct", write(tmp_path, "m.imat", text))
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_extend_rejects_non_permutation(self, capsys, tmp_path, tetrahedron):
        k = write(tmp_path, "k.tri", serialize_triangulation(tetrahedron))
        b = write(tmp_path, "f.txt", "0 1 2 2\n")
        code, out, _ = run(capsys, "extend", k, k, b)
        assert (code, out) == (2, "")


class TestClassifyLink:
    def test_tp10_hub(self, capsys, tmp_path, tp10):
        k = write(tmp_path, "k.tri", serialize_triangulation(tp10))
        code, out, _ = run(capsys, "classify-link", k, "--vertex", "x")
        assert (code, out.strip()) == (0, "Disk(5)")

    def test_missing_vertex(self, capsys, tmp_path, tp10):
        k = write(tmp_path, "k.tri", serialize_triangulation(tp10))
        code, _, err = run(capsys, "classify-link", k, "--vertex", "nope")
        assert code == 2

    def test_unclassifiable_star_exits_one(self, capsys, tmp_path, tp10, monkeypatch):
        def refuse(triangles):
            raise TrichotomyError("no class fits")

        monkeypatch.setattr(cli, "classify_realization", refuse)
        k = write(tmp_path, "k.tri", serialize_triangulation(tp10))
        code, out, _ = run(capsys, "classify-link", k, "--vertex", "x")
        assert (code, out) == (1, "unclassifiable: no class fits\n")


class TestVerifyLemma:
    def test_small_range(self, capsys):
        code, out, _ = run(capsys, "verify-lemma", "--max-n", "4")
        assert code == 0
        assert "# n=3 class=Disk(3)" in out
        assert "# n=4 class=Disk(4)" in out
        assert "trichotomy holds for n=3..4" in out

    def test_covers_both_bands(self, capsys):
        code, out, _ = run(capsys, "verify-lemma", "--max-n", "6")
        assert code == 0
        assert "class=Moebius5" in out
        assert "class=Moebius6" in out

    def test_representative_blocks_parse(self, capsys):
        _, out, _ = run(capsys, "verify-lemma", "--max-n", "5")
        blocks = [b for b in out.split("\n\n") if b.strip() and "verify-lemma" not in b]
        for block in blocks:
            K = parse_triangulation(block)
            assert K.n >= 3

    def test_enumerates_each_cycle_length_once(self, capsys, monkeypatch):
        real = cycles.enumerate_realizations
        calls = []

        def counted(n):
            calls.append(n)
            return real(n)

        # Patch every binding of the function, wherever it was imported.
        for module in [m for name, m in sys.modules.items() if name.startswith("trimat")]:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
        code, out, _ = run(capsys, "verify-lemma", "--max-n", "8")
        assert code == 0
        assert calls == [3, 4, 5, 6, 7, 8]
        assert "# n=8 class=Disk(8)" in out

    def test_verdict_is_the_trichotomy_check(self, capsys, monkeypatch):
        # With the bands left out of the expected classes, the acceptance
        # check refutes n = 5, and the command reports that verdict.
        monkeypatch.setattr(verification, "expected_classes", lambda n: {disk(n)})
        code, out, _ = run(capsys, "verify-lemma", "--max-n", "6")
        assert code == 1
        assert out.startswith("# verify-lemma: trichotomy REFUTED: n=5: classes ")


class TestVerifyCorpus:
    def test_all_criteria_pass(self, capsys):
        code, out, _ = run(capsys, "verify-corpus")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 8
        for k, line in enumerate(lines[:7], start=1):
            assert line.startswith(f"criterion {k} PASS ("), line
        assert lines[7] == "verify-corpus: all criteria passed"

    def test_failure_is_reported(self, capsys, monkeypatch):
        (num, name, _), *rest = verification.CHECKS
        failing = (num, name, lambda: (False, "forced"))
        monkeypatch.setattr(verification, "CHECKS", [failing, *rest])
        code, out, _ = run(capsys, "verify-corpus")
        lines = out.splitlines()
        assert code == 1
        assert lines[0].startswith("criterion 1 FAIL (")
        assert lines[0].endswith(": catalog soundness — forced")
        assert all(f"criterion {k} PASS (" in lines[k - 1] for k in range(2, 8))
        assert lines[7] == "verify-corpus: FAILURES present"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix"])
        assert exc.value.code == 2

    def test_valid_call_after_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reconstruct"])
        assert exc.value.code == 2
        code, out, _ = run(capsys, "gen", "--name", "tetrahedron")
        assert code == 0
        assert out == serialize_triangulation(catalog.standard("tetrahedron"))

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "matrix", "/nonexistent/path.tri")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command,name", [("matrix", "bad.tri"), ("reconstruct", "bad.imat")])
    def test_input_not_utf8(self, capsys, tmp_path, command, name):
        path = tmp_path / name
        path.write_bytes(b"\xff")
        code, _, err = run(capsys, command, str(path))
        assert code == 2
        assert err.startswith("error: ")


# Surfaces (and one band) whose files and matrices the fuzz below also
# writes, so that some inputs get past the parsers.
_KNOWN = ["tetrahedron", "octahedron", "tp10", "moebius5"]


def _tri_text():
    triple = st.lists(st.sampled_from("abcdefg"), min_size=3, max_size=3, unique=True)
    made_up = st.lists(triple, min_size=1, max_size=10).map(
        lambda ts: "".join(" ".join(t) + "\n" for t in ts)
    )
    known = st.sampled_from(_KNOWN).map(
        lambda name: serialize_triangulation(catalog.standard(name))
    )
    return st.one_of(known, made_up)


@st.composite
def _made_up_matrix(draw):
    n = draw(st.integers(1, 7))
    rows = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-1, 1))
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
            st.integers(-2, 3)
        )
    return f"{n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _imat_text():
    known = st.sampled_from(_KNOWN).map(
        lambda name: serialize_matrix(intersection_matrix(catalog.standard(name)))
    )
    return st.one_of(known, _made_up_matrix())


@st.composite
def _map_inputs(draw):
    """Two .tri payloads and a bijection, often a permutation of the right
    size for the first complex, which is often the second one too."""
    tri = draw(_any_bytes(_tri_text()))
    tri2 = draw(st.one_of(st.just(tri), _any_bytes(_tri_text())))
    n = max(tri.count(b"\n"), 1)
    numbers = st.one_of(st.permutations(range(n)), st.lists(st.integers(-1, 12), max_size=12))
    bij = draw(_any_bytes(numbers.map(lambda xs: " ".join(map(str, xs)) + "\n")))
    return tri, tri2, bij


def _any_bytes(text):
    return st.one_of(st.binary(max_size=64), text.map(str.encode))


class TestAnyBytes:
    """Whatever bytes the input files hold, the exit code is 0, 1 or 2."""

    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["matrix", "reconstruct", "check-map", "extend", "classify-link"]),
        maps=_map_inputs(),
        imat=_any_bytes(_imat_text()),
        node_cap=st.integers(0, 50),
        vertex=st.sampled_from(["a", "b", "a0", "x", "z"]),
    )
    def test_exit_code_contract(self, command, maps, imat, node_cap, vertex):
        tri, tri2, bij = maps
        with tempfile.TemporaryDirectory() as d:
            k, k2, m, f = (os.path.join(d, x) for x in ("k.tri", "k2.tri", "m.imat", "f.txt"))
            for path, data in ((k, tri), (k2, tri2), (m, imat), (f, bij)):
                with open(path, "wb") as handle:
                    handle.write(data)
            argv = {
                "matrix": [k],
                "reconstruct": ["--node-cap", str(node_cap), m],
                "check-map": [k, k2, f],
                "extend": [k, k2, f],
                "classify-link": [k, "--vertex", vertex],
            }[command]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main([command, *argv])
        assert code in (0, 1, 2)
