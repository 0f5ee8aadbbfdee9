"""Command-line interface.

Exit codes: 0 success / all conditions pass; 1 rejected input; 2 a
condition or construction failed; 3 a ``SizeGuard`` refused the request.
Exit 1 comes from an ``InputError`` (``InstanceFormatError``,
``DegenerateInput``, ``GrazingDiagonal``, or a bad generator or hunt
argument) or an ``OSError`` on a file read or written, an unwritable
``render`` output, ``--svg`` or ``--bundle-dir`` included.  ``main`` alone
maps these errors to exit codes, with one line on stderr; any other
exception is a bug and propagates.  All randomness is seeded through
explicit arguments, and outputs are deterministic for identical inputs
and flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .conditions import necessary_conditions
from .files import (KIND_POINTS, KIND_POLYGON, InstanceFormatError,
                    format_instance, format_triangles, parse_instance,
                    parse_triangles)
from .geom import InputError, SizeGuard
from .greedy import LEX, SEEDED_RANDOM, greedy_construct
from .oracle import (MAX_ORACLE_POINTS, MAX_ORACLE_POLYGON, POINTS, POLYGONS,
                     gen_point_pair, gen_polygon_pair, hunt,
                     oracle_joint_exists, polygon_oracle_exists,
                     verification_failure)
from .polygon import PolygonPair, dp_joint_polygon
from .svg import render_pair

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
EXIT_GUARD = 3


def _read(path: str, parse):
    """``parse`` of the file's text; its format and decoding errors gain
    the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh.read())
    except (InstanceFormatError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _load(path: str, want_kind: Optional[str] = None):
    kind, pair = _read(path, parse_instance)
    if want_kind is not None and kind != want_kind:
        raise InputError(f"{path}: expected a {want_kind} instance, got {kind}")
    return kind, pair


def _fmt_edge(e: tuple[int, int]) -> str:
    return f"{e[0] + 1} {e[1] + 1}"


def _cmd_check(args) -> int:
    _, pair = _load(args.file, KIND_POINTS)
    nc = necessary_conditions(pair)
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
    nc = necessary_conditions(pair)
    if not nc.ok:
        print("FAIL NC2" if nc.hull.ok else "FAIL NC1")
        return EXIT_FAIL
    jt = greedy_construct(pair, nc.legal.legal, args.policy, args.seed)
    return _finish(args, pair, jt, args.seed, [f"policy {args.policy}"])


def _cmd_polygon(args) -> int:
    _, pair = _load(args.file, KIND_POLYGON)
    jt = dp_joint_polygon(pair)
    if jt is None:
        print("FAIL none")
        return EXIT_FAIL
    return _finish(args, pair, jt)


def _finish(args, pair, jt, seed: int = 0, trace: Sequence[str] = ()) -> int:
    """Print a constructed result, and draw it to ``--svg``; one that
    failed verification is bundled instead, and FAIL names the bundle."""
    if not jt.verified:
        finding = verification_failure(pair, jt, seed, args.bundle_dir, trace)
        print(f"FAIL {finding.bundle_path}")
        return EXIT_FAIL
    sys.stdout.write(format_triangles(jt.triangles))
    if args.svg:
        _write_svg(args.svg, pair, jt.triangles)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    kind, pair = _load(args.file)
    exists = oracle_joint_exists if kind == KIND_POINTS else polygon_oracle_exists
    witness = exists(pair)
    if witness is None:
        print("NO")
    else:
        print("YES")
        sys.stdout.write(format_triangles(witness))
    return EXIT_OK


def _cmd_gen(args) -> int:
    pair = args.generate(args.n, args.range, args.seed)
    sys.stdout.write(format_instance(pair))
    return EXIT_OK


def _cmd_hunt(args) -> int:
    report = hunt(args.mode, (args.nmin, args.nmax), args.trials, args.seed,
                  coord_range=args.range,
                  cross_check=not args.no_oracle,
                  bundle_dir=args.bundle_dir)
    for line in report.summary_lines():
        print(line)
    return EXIT_OK


def _cmd_render(args) -> int:
    _, pair = _load(args.file)
    tris = _read(args.triangles, parse_triangles)
    n = len(pair)
    for t in tris:
        if t[2] >= n:
            raise InputError(f"triangle {tuple(v + 1 for v in t)} references "
                             f"label beyond n={n}")
    _write_svg(args.out, pair, tris)
    return EXIT_OK


def _write_svg(path: str, pair, triangles) -> None:
    """Draw both sides, a polygon pair with its boundary cycles."""
    if isinstance(pair, PolygonPair):
        a, b, boundary = pair.a.vertices, pair.b.vertices, list(range(len(pair)))
    else:
        a, b, boundary = pair.a.points, pair.b.points, None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_pair(a, b, list(triangles), boundary))


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

    for name, what, generate in (
            ("gen", "point-pair instance", gen_point_pair),
            ("genpoly", "simple-polygon pair", gen_polygon_pair)):
        p = sub.add_parser(name, help=f"generate a random {what}")
        p.add_argument("n", type=int)
        p.add_argument("range", type=int)
        p.add_argument("seed", type=int)
        p.set_defaults(func=_cmd_gen, generate=generate)

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
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeGuard as exc:
        message, code = str(exc), EXIT_GUARD
    except InputError as exc:
        message, code = str(exc), EXIT_INPUT
    except OSError as exc:
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        code = EXIT_INPUT
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
