"""Command-line interface.

Exit codes: 0 success / all conditions pass; 1 malformed input; 2 a
condition or construction failed; 3 a size guard refused the request.
All randomness is seeded through explicit arguments, and outputs are
deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .conditions import Conditions, necessary_conditions
from .files import (KIND_POINTS, KIND_POLYGON, InstanceFormatError,
                    format_instance, format_triangles, parse_instance,
                    parse_triangles, write_bundle)
from .geom import DegenerateInput, SizeGuard
from .greedy import LEX, SEEDED_RANDOM, greedy_construct
from .oracle import (MAX_ORACLE_POINTS, MAX_ORACLE_POLYGON, POINTS, POLYGONS,
                     Counterexample, gen_point_pair, gen_polygon_pair, hunt,
                     oracle_joint_exists, polygon_oracle_exists)
from .polygon import GrazingDiagonal, dp_joint_polygon
from .svg import render_pair

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
EXIT_GUARD = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load(path: str, want_kind: Optional[str] = None):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(f"{path}: {exc.strerror or exc}", EXIT_INPUT)
    try:
        kind, pair = parse_instance(text)
    except InstanceFormatError as exc:
        raise _CliError(f"{path}: {exc}", EXIT_INPUT)
    if want_kind is not None and kind != want_kind:
        raise _CliError(f"{path}: expected a {want_kind} instance, got {kind}",
                        EXIT_INPUT)
    return kind, pair


def _fmt_edge(e: tuple[int, int]) -> str:
    return f"{e[0] + 1} {e[1] + 1}"


def _conditions(pair) -> Conditions:
    try:
        return necessary_conditions(pair)
    except DegenerateInput as exc:
        raise _CliError(str(exc), EXIT_INPUT)
    except SizeGuard as exc:
        raise _CliError(str(exc), EXIT_GUARD)


def _cmd_check(args) -> int:
    _, pair = _load(args.file, KIND_POINTS)
    nc = _conditions(pair)
    if not nc.hull.ok:
        print(f"NC1 FAIL witness {_fmt_edge(nc.hull.witness)}")
        return EXIT_FAIL
    verdict2 = "PASS" if nc.ok else "FAIL"
    print(f"NC1 PASS / |S_A∩|={len(nc.candidates)} / |S|={len(nc.legal.legal)} "
          f"/ NC2 {verdict2}")
    if args.explain:
        for t, e in nc.legal.removed:
            print(f"removed {t[0] + 1} {t[1] + 1} {t[2] + 1} "
                  f"witness-edge {_fmt_edge(e)}")
    return EXIT_OK if nc.ok else EXIT_FAIL


def _cmd_triangulate(args) -> int:
    _, pair = _load(args.file, KIND_POINTS)
    nc = _conditions(pair)
    if not nc.ok:
        print("FAIL NC2" if nc.hull.ok else "FAIL NC1")
        return EXIT_FAIL
    jt = greedy_construct(pair, nc.legal.legal, args.policy, args.seed)
    if not jt.verified:
        finding = Counterexample(POINTS, args.seed or 0, len(pair),
                                 f"greedy result failed verification: {jt.violation}")
        path = write_bundle(args.bundle_dir, pair, finding,
                            [f"policy {args.policy}"]
                            + [f"choice {t}" for t in (jt.choices or [])])
        print(f"FAIL {path}")
        return EXIT_FAIL
    sys.stdout.write(format_triangles(jt.triangles))
    if args.svg:
        _write_svg_points(args.svg, pair, jt.triangles)
    return EXIT_OK


def _cmd_polygon(args) -> int:
    _, pair = _load(args.file, KIND_POLYGON)
    try:
        jt = dp_joint_polygon(pair)
    except GrazingDiagonal as exc:
        raise _CliError(str(exc), EXIT_INPUT)
    except SizeGuard as exc:
        raise _CliError(str(exc), EXIT_GUARD)
    if jt is None:
        print("FAIL none")
        return EXIT_FAIL
    if not jt.verified:
        finding = Counterexample(POLYGONS, 0, len(pair),
                                 f"dp result failed verification: {jt.violation}")
        path = write_bundle(args.bundle_dir, pair, finding,
                            [f"choice {t}" for t in (jt.choices or [])])
        print(f"FAIL {path}")
        return EXIT_FAIL
    sys.stdout.write(format_triangles(jt.triangles))
    if args.svg:
        _write_svg_polygon(args.svg, pair, jt.triangles)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    kind, pair = _load(args.file)
    try:
        if kind == KIND_POINTS:
            witness = oracle_joint_exists(pair)
        else:
            witness = polygon_oracle_exists(pair)
    except SizeGuard as exc:
        raise _CliError(str(exc), EXIT_GUARD)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_INPUT)
    if witness is None:
        print("NO")
    else:
        print("YES")
        sys.stdout.write(format_triangles(witness))
    return EXIT_OK


def _cmd_gen(args) -> int:
    try:
        pair = gen_point_pair(args.n, args.range, args.seed)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_INPUT)
    sys.stdout.write(format_instance(KIND_POINTS, pair))
    return EXIT_OK


def _cmd_genpoly(args) -> int:
    try:
        pair = gen_polygon_pair(args.n, args.range, args.seed)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_INPUT)
    sys.stdout.write(format_instance(KIND_POLYGON, pair))
    return EXIT_OK


def _cmd_hunt(args) -> int:
    try:
        report = hunt(args.mode, (args.nmin, args.nmax), args.trials, args.seed,
                      coord_range=args.range,
                      cross_check=not args.no_oracle,
                      bundle_dir=args.bundle_dir)
    except SizeGuard as exc:
        raise _CliError(str(exc), EXIT_GUARD)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_INPUT)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


def _cmd_render(args) -> int:
    kind, pair = _load(args.file)
    try:
        with open(args.triangles, encoding="utf-8") as fh:
            tris = parse_triangles(fh.read())
    except OSError as exc:
        raise _CliError(f"{args.triangles}: {exc.strerror or exc}", EXIT_INPUT)
    except InstanceFormatError as exc:
        raise _CliError(f"{args.triangles}: {exc}", EXIT_INPUT)
    n = len(pair)
    for t in tris:
        if t[2] >= n:
            raise _CliError(f"triangle {tuple(v + 1 for v in t)} references "
                            f"label beyond n={n}", EXIT_INPUT)
    if kind == KIND_POINTS:
        _write_svg_points(args.out, pair, tris)
    else:
        _write_svg_polygon(args.out, pair, tris)
    return EXIT_OK


def _write_svg_points(path: str, pair, triangles) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_pair(pair.a.points, pair.b.points, list(triangles)))


def _write_svg_polygon(path: str, pair, triangles) -> None:
    boundary = list(range(len(pair)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_pair(pair.a.vertices, pair.b.vertices, list(triangles),
                             boundary_a=boundary, boundary_b=boundary))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointtri",
        description="Decide and construct joint triangulations of paired "
                    "point sets and simple polygons.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test the two necessary conditions")
    p.add_argument("file")
    p.add_argument("--explain", action="store_true",
                   help="print the legal-set removal log")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("triangulate", help="greedy joint triangulation of a point pair")
    p.add_argument("file")
    p.add_argument("--policy", choices=(LEX, SEEDED_RANDOM), default=LEX)
    p.add_argument("--seed", type=int, default=0,
                   help="selection seed for --policy random")
    p.add_argument("--svg", default=None, help="also render the result")
    p.add_argument("--bundle-dir", default="counterexamples")
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("polygon", help="joint triangulation of a polygon pair")
    p.add_argument("file")
    p.add_argument("--svg", default=None)
    p.add_argument("--bundle-dir", default="counterexamples")
    p.set_defaults(func=_cmd_polygon)

    p = sub.add_parser("oracle", help="exact exhaustive verdict (size-guarded: "
                       f"n <= {MAX_ORACLE_POINTS} points, "
                       f"n <= {MAX_ORACLE_POLYGON} polygon vertices)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate a random point-pair instance")
    p.add_argument("n", type=int)
    p.add_argument("range", type=int)
    p.add_argument("seed", type=int)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("genpoly", help="generate a random simple-polygon pair")
    p.add_argument("n", type=int)
    p.add_argument("range", type=int)
    p.add_argument("seed", type=int)
    p.set_defaults(func=_cmd_genpoly)

    p = sub.add_parser("hunt", help="randomized campaign with oracle cross-checks")
    p.add_argument("mode", choices=(POINTS, POLYGONS))
    p.add_argument("nmin", type=int)
    p.add_argument("nmax", type=int)
    p.add_argument("trials", type=int)
    p.add_argument("seed", type=int)
    p.add_argument("--range", type=int, default=50)
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the exhaustive cross-check")
    p.add_argument("--bundle-dir", default=None)
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("render", help="draw an instance plus a triangle list")
    p.add_argument("file")
    p.add_argument("triangles")
    p.add_argument("out")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
