"""Command-line interface.

Subcommands map one-to-one onto the library surface: ``matrix`` emits the
intersection matrix of a ``.tri`` file, ``reconstruct`` inverts a matrix
back to a triangulation, ``check-map``/``extend`` test triangle bijections,
``classify-link`` names the cycle type around a vertex, ``verify-lemma``
runs the exhaustive cycle-realization oracle, ``verify-corpus`` runs the
full acceptance checklist, and ``gen`` prints catalog complexes.

Exit codes: 0 success or confirmed property, 1 refuted property, 2 usage
or input error.  ``-`` stands for standard input wherever a file path is
expected.  All output is deterministic byte-for-byte for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import catalog, verification
from .complexes import Triangulation, parse_triangulation, serialize_triangulation, vertex_star
from .cycles import ORACLE_MAX_N, classify_realization
from .errors import TrichotomyError, TrimatError
from .intersection import (
    Extended,
    TriangleBijection,
    intersection_matrix,
    extend_to_simplicial,
    is_intersection_preserving,
    parse_bijection,
    parse_matrix,
    serialize_matrix,
)
from .reconstruct import DEFAULT_NODE_CAP, reconstruct

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_ERROR = 2


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise TrimatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _cmd_matrix(args: argparse.Namespace) -> int:
    K = parse_triangulation(_read(args.complex))
    sys.stdout.write(serialize_matrix(intersection_matrix(K)))
    return EXIT_OK


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    M = parse_matrix(_read(args.matrix))
    result = reconstruct(M, node_cap=args.node_cap)
    sys.stdout.write(serialize_triangulation(result.complex))
    verdict = result.ambiguity if result.ambiguity is not None else "none"
    print(f"# ambiguity: {verdict}")
    print(f"# all_solutions_isomorphic: {str(result.all_solutions_isomorphic).lower()}")
    return EXIT_OK


def _read_map(args: argparse.Namespace) -> tuple[Triangulation, Triangulation, TriangleBijection]:
    """The two complexes and the bijection that ``check-map`` and ``extend`` read."""
    K, K2 = (parse_triangulation(_read(path)) for path in (args.complex, args.complex2))
    return K, K2, parse_bijection(_read(args.bijection))


def _cmd_check_map(args: argparse.Namespace) -> int:
    if is_intersection_preserving(*_read_map(args)):
        print("yes")
        return EXIT_OK
    print("no")
    return EXIT_REFUTED


def _cmd_extend(args: argparse.Namespace) -> int:
    result = extend_to_simplicial(*_read_map(args))
    if isinstance(result, Extended):
        print("Extended")
        for v in sorted(result.vertex_map):
            print(f"{v} -> {result.vertex_map[v]}")
        return EXIT_OK
    print(f"NonExtendable: witness={result.witness_vertex}")
    return EXIT_REFUTED


def _cmd_classify_link(args: argparse.Namespace) -> int:
    K = parse_triangulation(_read(args.complex))
    star = vertex_star(K, args.vertex)
    try:
        cls = classify_realization([K.triangles[i] for i in star])
    except TrichotomyError as exc:
        print(f"unclassifiable: {exc}")
        return EXIT_REFUTED
    print(str(cls))
    return EXIT_OK


def _cmd_verify_lemma(args: argparse.Namespace) -> int:
    ok, detail, enumerated = verification._cycle_trichotomy(args.max_n)
    if not ok:
        print(f"# verify-lemma: trichotomy REFUTED: {detail}")
        return EXIT_REFUTED
    for n, results in enumerated:
        for realization, cls in results:
            print(f"# n={n} class={cls}")
            sys.stdout.write(
                "".join(f"{t}\n" for t in realization.triangles)
            )
            print()
    print(f"# verify-lemma: trichotomy holds for n=3..{args.max_n}")
    return EXIT_OK


def _cmd_verify_corpus(_args: argparse.Namespace) -> int:
    results = verification.run_all_checks()
    for result in results:
        print(result.line())
    if all(r.passed for r in results):
        print("verify-corpus: all criteria passed")
        return EXIT_OK
    print("verify-corpus: FAILURES present")
    return EXIT_REFUTED


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.name == "disk_fan" and args.n is None:
        raise TrimatError("disk_fan needs --n")
    if args.name != "disk_fan" and args.n is not None:
        raise TrimatError(f"--n applies only to disk_fan, not to {args.name}")
    try:
        if args.name == "disk_fan":
            K = catalog.disk_fan(args.n)
        else:
            K = catalog.standard(args.name)
    except ValueError as exc:
        raise TrimatError(str(exc)) from None
    sys.stdout.write(serialize_triangulation(K))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process and reused;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="trimat",
        description="intersection matrices of surface triangulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matrix", help="intersection matrix of a .tri file")
    p.add_argument("complex", help=".tri file ('-' for stdin)")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("reconstruct", help="rebuild a triangulation from a .imat file")
    p.add_argument("matrix", help=".imat file ('-' for stdin)")
    p.add_argument(
        "--node-cap",
        type=int,
        default=DEFAULT_NODE_CAP,
        help=f"budget of placed candidate triangles (default {DEFAULT_NODE_CAP})",
    )
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("check-map", help="is a triangle bijection intersection preserving?")
    p.add_argument("complex")
    p.add_argument("complex2")
    p.add_argument("bijection", help="file with one line of image indices")
    p.set_defaults(func=_cmd_check_map)

    p = sub.add_parser("extend", help="extend a preserving bijection to a vertex map")
    p.add_argument("complex")
    p.add_argument("complex2")
    p.add_argument("bijection")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("classify-link", help="cycle type of the link of a vertex")
    p.add_argument("complex")
    p.add_argument("--vertex", required=True)
    p.set_defaults(func=_cmd_classify_link)

    p = sub.add_parser("verify-lemma", help="exhaustive cycle-realization oracle")
    p.add_argument(
        "--max-n",
        type=int,
        default=ORACLE_MAX_N,
        choices=range(3, ORACLE_MAX_N + 1),
        metavar="N",
    )
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("verify-corpus", help="run the full corpus acceptance checks")
    p.set_defaults(func=_cmd_verify_corpus)

    p = sub.add_parser("gen", help="emit a catalog complex as .tri")
    names = ", ".join(catalog.catalog_names())
    p.add_argument("--name", required=True, help=f"one of: {names}, disk_fan (with --n)")
    p.add_argument("--n", type=int, default=None, help="size parameter for disk_fan")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrimatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
