"""Instance and triangle-list file formats.

An instance file is plain whitespace text: an optional run of ``#``
comment lines, a header ``POINTS n`` or ``POLYGON n``, then exactly n
rows of four integers ``ax ay bx by`` (row order is label order, and
boundary order for polygons).  Labels are 1-based in every file and in
all CLI output; the library is 0-based.
"""

from __future__ import annotations

import os
from typing import Iterable, Union

from .conditions import PointSetPair
from .geom import InputError, LabeledSet, Point
from .polygon import Polygon, PolygonPair
from .triangles import Tri, tri

KIND_POINTS = "POINTS"
KIND_POLYGON = "POLYGON"

Instance = Union[PointSetPair, PolygonPair]


class InstanceFormatError(InputError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_instance(text: str) -> tuple[str, Instance]:
    """Parse instance text into (kind, pair); kind is POINTS or POLYGON."""
    header: tuple[str, int] | None = None
    rows: list[tuple[int, int, int, int]] = []
    row_lines: list[int] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if header is None:
            if len(parts) != 2 or parts[0] not in (KIND_POINTS, KIND_POLYGON):
                raise InstanceFormatError(
                    line_no, f"expected header '{KIND_POINTS} n' or '{KIND_POLYGON} n'")
            try:
                count = int(parts[1])
            except ValueError:
                raise InstanceFormatError(line_no, f"bad point count {parts[1]!r}")
            if count < 3:
                raise InstanceFormatError(line_no, "need at least 3 points")
            header = (parts[0], count)
            continue
        if len(rows) >= header[1]:
            raise InstanceFormatError(
                line_no, f"more than {header[1]} data rows")
        if len(parts) != 4:
            raise InstanceFormatError(
                line_no, "expected four integers 'ax ay bx by'")
        try:
            rows.append(tuple(int(v) for v in parts))  # type: ignore[arg-type]
        except ValueError:
            raise InstanceFormatError(line_no, f"non-integer coordinate in {body!r}")
        row_lines.append(line_no)
    if header is None:
        raise InstanceFormatError(1, "empty instance file")
    kind, count = header
    if len(rows) != count:
        raise InstanceFormatError(
            len(text.splitlines()) + 1, f"expected {count} data rows, got {len(rows)}")
    a_pts = [Point(r[0], r[1]) for r in rows]
    b_pts = [Point(r[2], r[3]) for r in rows]
    try:
        if kind == KIND_POINTS:
            return kind, PointSetPair(LabeledSet(tuple(a_pts)), LabeledSet(tuple(b_pts)))
        return kind, PolygonPair(Polygon(tuple(a_pts)), Polygon(tuple(b_pts)))
    except InputError as exc:
        # a rejection that names one point is reported at that point's row
        raise InstanceFormatError(1 if exc.label is None else row_lines[exc.label], str(exc))


def format_instance(pair: Instance) -> str:
    """Serialize a pair back to instance text (inverse of parse_instance)."""
    if isinstance(pair, PointSetPair):
        kind, a_pts, b_pts = KIND_POINTS, pair.a.points, pair.b.points
    else:
        kind, a_pts, b_pts = KIND_POLYGON, pair.a.vertices, pair.b.vertices
    lines = [f"{kind} {len(a_pts)}"]
    for pa, pb in zip(a_pts, b_pts):
        lines.append(f"{pa[0]} {pa[1]} {pb[0]} {pb[1]}")
    return "\n".join(lines) + "\n"


def parse_triangles(text: str) -> list[Tri]:
    """Parse a triangle list: one 1-based 'i j k' per line, to 0-based triples."""
    out: list[Tri] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise InstanceFormatError(line_no, "expected three labels per line")
        try:
            i, j, k = (int(v) for v in parts)
        except ValueError:
            raise InstanceFormatError(line_no, f"non-integer label in {body!r}")
        if min(i, j, k) < 1:
            raise InstanceFormatError(line_no, "labels are 1-based")
        if len({i, j, k}) < 3:
            raise InstanceFormatError(line_no, f"repeated label in {body!r}")
        out.append(tri(i - 1, j - 1, k - 1))
    return out


def format_triangles(triangles: Iterable[Tri]) -> str:
    """Serialize triples as sorted 1-based 'i j k' lines."""
    lines = [f"{t[0] + 1} {t[1] + 1} {t[2] + 1}"
             for t in sorted(tri(*t) for t in triangles)]
    return "\n".join(lines) + ("\n" if lines else "")


def write_bundle(bundle_dir: str, pair: Instance, finding,
                 trace_lines: list[str]) -> str:
    """Write a counterexample bundle and return its path.

    The bundle is itself a valid instance file of the pair's kind; the
    finding and the execution trace ride along as comment lines.  A
    finding with an oracle verdict, an oracle disagreement, is named with
    an ``-oracle`` suffix, so it never overwrites the failed-verification
    bundle of the same instance.
    """
    os.makedirs(bundle_dir, exist_ok=True)
    suffix = "-oracle" if finding.oracle_verdict else ""
    name = f"counterexample-{finding.mode}-seed{finding.seed}-n{finding.n}{suffix}.txt"
    path = os.path.join(bundle_dir, name)
    parts = [
        f"# counterexample: {finding.reason}",
    ]
    if finding.oracle_verdict:
        parts.append(f"# oracle verdict: {finding.oracle_verdict}")
    parts.append(format_instance(pair).rstrip("\n"))
    if trace_lines:
        parts.append("# trace:")
        parts.extend(f"# {line}" for line in trace_lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
