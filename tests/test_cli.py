import hashlib
import io
import random
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from jointtri import campaign, cli, geom, polygon
from jointtri.campaign import gen_point_pair, gen_polygon_pair
from jointtri.cli import main
from jointtri.conditions import PointSetPair
from jointtri.files import (KIND_POINTS, KIND_POLYGON, InstanceFormatError,
                            format_instance, format_triangles, parse_instance,
                            parse_triangles)
from jointtri.geom import InputError, LabeledSet, SizeGuard
from jointtri.greedy import JointTriangulation
from jointtri.polygon import Polygon, PolygonPair

from helpers import (COLLAPSING_TEXT, convex_polygon_coords, grid_locked_coords,
                     hull_locked_pair, star_polygon_coords)

QUAD_TEXT = """\
# convex quad, identical sides
POINTS 4
0 0 0 0
2 0 2 0
2 2 2 2
0 2 0 2
"""

SWAPPED_TEXT = """\
POINTS 4
0 0 0 0
2 0 2 2
2 2 2 0
0 2 0 2
"""

POLY_TEXT = """\
POLYGON 4
0 0 0 0
2 0 2 0
2 2 2 2
0 2 0 2
"""


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.fixture
def quad_file(tmp_path):
    p = tmp_path / "quad.txt"
    p.write_text(QUAD_TEXT)
    return str(p)


def test_parse_format_roundtrip():
    kind, pair = parse_instance(QUAD_TEXT)
    assert kind == KIND_POINTS
    assert format_instance(pair) == "\n".join(QUAD_TEXT.splitlines()[1:]) + "\n"
    kind2, poly_pair = parse_instance(POLY_TEXT)
    assert kind2 == KIND_POLYGON
    assert format_instance(poly_pair) == POLY_TEXT


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("POINTS 4\n0 0 0 0\n")
    assert "expected 4 data rows" in str(err.value)
    with pytest.raises(InstanceFormatError) as err:
        parse_instance("POINTS 3\n0 0 0 0\n1 x 1 1\n2 2 2 2\n")
    assert str(err.value).startswith("line 3:")
    with pytest.raises(InstanceFormatError):
        parse_instance("")
    with pytest.raises(InstanceFormatError):
        parse_instance("TRIANGLES 3\n")


def test_constructor_rejections_are_input_errors():
    """The constructors reject outside input with InputError, and
    parse_instance reports a rejection that names one point at that
    point's row, and any other at line 1."""
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    for build, message in (
            (lambda: LabeledSet.from_coords([(0, 0), (1, 0)]),
             "a labeled set needs at least 3 points"),
            (lambda: Polygon.from_coords([(0, 0), (1, 0)]),
             "a polygon needs at least 3 vertices"),
            (lambda: PointSetPair(LabeledSet.from_coords(square),
                                  LabeledSet.from_coords(square[:3])),
             "paired sets must have equal size, got 4 and 3"),
            (lambda: PolygonPair(Polygon.from_coords(square),
                                 Polygon.from_coords(square[:3])),
             "paired polygons must have equal vertex counts")):
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message
    # the header is line 1, so label k is on line k + 2
    for kind, coords, line, message in (
            (KIND_POINTS, [(0, 0), (1, 0), (0, 0)], 4, "points must be pairwise distinct"),
            (KIND_POINTS, [(0, 0), (1, 0), (0, 1 << 25)], 4,
             "coordinate out of range [-16777216, 16777216]: Point(x=0, y=33554432)"),
            (KIND_POLYGON, [(0, 0), (1, 0), (0, 0), (1, 1)], 4,
             "polygon vertices must be pairwise distinct"),
            (KIND_POLYGON, [(0, 0), (1 << 25, 0), (0, 1)], 3,
             "coordinate out of range [-16777216, 16777216]: Point(x=33554432, y=0)"),
            (KIND_POLYGON, [(0, 0), (1, 1), (2, 2)], 1, "polygon has zero area"),
            (KIND_POLYGON, [(0, 0), (4, 0), (2, 0), (2, 4)], 1,
             "boundary is not simple: edges at vertex overlap near Point(x=4, y=0)"),
            (KIND_POLYGON, [(0, 0), (4, 0), (4, 4), (6, 4), (2, 4)], 1,
             "boundary is not simple: edges 1 and 3 intersect")):
        text = f"{kind} {len(coords)}\n" + "".join(f"{x} {y} {x} {y}\n" for x, y in coords)
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(text)
        assert str(err.value) == f"line {line}: {message}"
        build = LabeledSet if kind == KIND_POINTS else Polygon
        with pytest.raises(InputError) as err:
            build.from_coords(coords)
        assert err.value.label == (None if line == 1 else line - 2)


def test_parse_instance_lets_a_plain_value_error_through(monkeypatch):
    """Only InputError is a format error: a plain ValueError from the
    constructors, as a bug raises it, leaves parse_instance unchanged."""
    def bug(points):
        raise ValueError("bug")

    for module, text in ((geom, QUAD_TEXT), (polygon, POLY_TEXT)):
        monkeypatch.setattr(module, "check_coords", bug)
        with pytest.raises(ValueError, match="bug") as err:
            parse_instance(text)
        assert type(err.value) is ValueError


def test_triangle_list_roundtrip():
    text = format_triangles([(0, 1, 2), (0, 2, 3)])
    assert text == "1 2 3\n1 3 4\n"
    assert parse_triangles(text) == [(0, 1, 2), (0, 2, 3)]


def test_gen_roundtrip_identity():
    pair = gen_point_pair(6, 50, 11)
    text = format_instance(pair)
    kind, parsed = parse_instance(text)
    assert parsed.a.points == pair.a.points
    assert parsed.b.points == pair.b.points
    poly_pair = gen_polygon_pair(6, 50, 11)
    text = format_instance(poly_pair)
    _, parsed = parse_instance(text)
    assert parsed.a.vertices == poly_pair.a.vertices


def test_check_pass(quad_file):
    code, out = run_cli("check", quad_file)
    assert code == 0
    assert out == "NC1 PASS / |S_A∩|=4 / |S|=4 / NC2 PASS\n"


def test_check_fail_witness(tmp_path):
    p = tmp_path / "swapped.txt"
    p.write_text(SWAPPED_TEXT)
    code, out = run_cli("check", str(p))
    assert code == 2
    assert out == "NC1 FAIL witness 1 2\n"


# The full removal log of COLLAPSING_TEXT, in cascade order.
COLLAPSING_EXPLAIN = """\
NC1 PASS / |S_A∩|=21 / |S|=0 / NC2 FAIL
removed 1 2 4 witness-edge 1 2
removed 2 6 7 witness-edge 6 7
removed 1 4 8 witness-edge 4 8
removed 2 4 8 witness-edge 4 8
removed 1 4 7 witness-edge 4 7
removed 4 5 7 witness-edge 4 7
removed 1 4 6 witness-edge 4 6
removed 2 4 6 witness-edge 4 6
removed 1 4 5 witness-edge 4 5
removed 2 4 5 witness-edge 4 5
removed 2 3 4 witness-edge 3 4
removed 2 3 7 witness-edge 2 7
removed 2 7 8 witness-edge 2 7
removed 3 7 8 witness-edge 3 7
removed 1 2 8 witness-edge 1 8
removed 1 5 7 witness-edge 1 7
removed 2 3 8 witness-edge 2 8
removed 2 6 8 witness-edge 2 8
removed 1 2 6 witness-edge 1 2
removed 3 6 8 witness-edge 6 8
removed 2 3 6 witness-edge 2 6
"""


def test_check_explain_lists_removals(tmp_path):
    # candidates exist but the whole set prunes away: 21 removal lines,
    # pinned byte for byte so the cascade order cannot drift
    p = tmp_path / "inst.txt"
    p.write_text(COLLAPSING_TEXT)
    code, out = run_cli("check", str(p), "--explain")
    assert code == 2
    assert out == COLLAPSING_EXPLAIN


def test_check_malformed_exit_1(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("POINTS 4\n0 0 0 0\n")
    code, _ = run_cli("check", str(p))
    assert code == 1
    code, _ = run_cli("check", str(tmp_path / "missing.txt"))
    assert code == 1


def test_out_of_range_coordinates_exit_1(tmp_path):
    """Point sets and polygons refuse a coordinate beyond COORD_LIMIT with
    one message, reported at the file line of the row that holds it."""
    for cmd, text, line, point in (
            ("check", "POINTS 3\n0 0 0 0\n16777217 0 1 0\n0 1 0 1\n", 3,
             "Point(x=16777217, y=0)"),
            ("polygon", "POLYGON 3\n0 0 0 0\n1 0 1 0\n0 1 0 -16777217\n", 4,
             "Point(x=0, y=-16777217)")):
        path = tmp_path / f"{cmd}.txt"
        path.write_text(text)
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(cmd, str(path))
        assert (code, out) == (1, "")
        assert err.getvalue() == (f"{path}: line {line}: coordinate out of range "
                                  f"[-16777216, 16777216]: {point}\n")


def test_repeated_points_exit_1_at_the_later_copy(tmp_path):
    """A repeated point or vertex is reported at the file line of its
    later copy, past comment lines, on either side of the pair."""
    for cmd, text, line, message in (
            ("check", "# four points\nPOINTS 4\n0 0 0 0\n1 0 1 0\n\n# a repeat\n"
             "0 1 0 1\n1 0 2 2\n", 8, "points must be pairwise distinct"),
            ("polygon", "POLYGON 4\n0 0 0 0\n2 0 2 0\n2 2 0 0\n0 2 0 2\n", 4,
             "polygon vertices must be pairwise distinct")):
        path = tmp_path / f"{cmd}.txt"
        path.write_text(text)
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(cmd, str(path))
        assert (code, out) == (1, "")
        assert err.getvalue() == f"{path}: line {line}: {message}\n"


def test_triangulate_lex(quad_file):
    code, out = run_cli("triangulate", quad_file, "--policy", "lex")
    assert code == 0
    assert out == "1 2 3\n1 3 4\n"


def test_triangulate_nc_fail(tmp_path):
    p = tmp_path / "swapped.txt"
    p.write_text(SWAPPED_TEXT)
    code, out = run_cli("triangulate", str(p))
    assert code == 2
    assert out == "FAIL NC1\n"


def test_triangulate_svg(quad_file, tmp_path):
    svg = tmp_path / "out.svg"
    code, _ = run_cli("triangulate", quad_file, "--svg", str(svg))
    assert code == 0
    root = ET.parse(str(svg)).getroot()
    polys = root.findall(".//{http://www.w3.org/2000/svg}polygon")
    assert len(polys) == 2 * 2  # |T| per side


def test_polygon_command(tmp_path):
    p = tmp_path / "poly.txt"
    p.write_text(POLY_TEXT)
    code, out = run_cli("polygon", str(p))
    assert code == 0
    assert len(out.splitlines()) == 2


def test_polygon_none(tmp_path):
    # darts with non-matching diagonals
    text = ("POLYGON 4\n"
            "0 0 4 0\n"
            "4 0 1 1\n"
            "1 1 0 4\n"
            "0 4 0 0\n")
    p = tmp_path / "poly.txt"
    p.write_text(text)
    code, out = run_cli("polygon", str(p))
    assert code == 2
    assert out == "FAIL none\n"


def test_oracle_command(quad_file, tmp_path):
    code, out = run_cli("oracle", quad_file)
    assert code == 0
    assert out == "YES\n1 2 3\n1 3 4\n"
    p = tmp_path / "swapped.txt"
    p.write_text(SWAPPED_TEXT)
    code, out = run_cli("oracle", str(p))
    assert code == 0
    assert out == "NO\n"


def test_oracle_size_guard_exit_3(tmp_path):
    pair = gen_point_pair(10, 60, 5)
    p = tmp_path / "big.txt"
    p.write_text(format_instance(pair))
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli("oracle", str(p))
    assert code == 3
    assert err.getvalue().startswith(f"{p}: "), err.getvalue()


def test_oracle_refuses_grazing_pair_as_polygon_does(tmp_path):
    # A's chord (0, 2) runs through vertex 1, and B's only diagonal is
    # (0, 2).  No chord is a plain diagonal of both, so the recursion has
    # no candidate; the oracle still refuses the pair, as the DP does.
    p = tmp_path / "grazing.txt"
    p.write_text("POLYGON 4\n0 0 2 1\n2 0 0 0\n4 0 4 0\n2 3 2 4\n")
    for command in ("polygon", "oracle"):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(command, str(p))
        assert (code, out) == (1, ""), command
        assert err.getvalue() == \
            "diagonal candidate (0, 2) passes through another vertex\n", command


def test_tensor_size_guard_exit_3(tmp_path, monkeypatch):
    monkeypatch.setattr(geom, "MAX_TENSOR_POINTS", 9)
    p = tmp_path / "big.txt"
    p.write_text(format_instance(hull_locked_pair(10, 60, 2, 1)))
    for argv in (["check", str(p)], ["check", str(p), "--explain"],
                 ["triangulate", str(p)]):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(*argv)
        assert (code, out) == (3, ""), argv
        assert err.getvalue() == \
            f"{p}: orientation tensors are limited to n <= 9, got 10\n", argv


# Exit code and sha256 of `check --explain` stdout for seeded hull-locked
# pairs (n, coordinate range, jitter, seed).  The removal order follows the
# iteration order of the paired empty triangles: building that set in
# sorted order changes two to 58 lines of each of these logs.
EXPLAIN_SHA256 = {
    (30, 60, 2, 3): (0, "9a81caf1be52cc482fe6979c8f4a42677696fb4c6049d5eb0200004f7e4f5064"),
    (40, 200, 3, 4): (0, "cec9de258e0ad14bdeb4d42e8e5b3e0e636d02d718d4c50206988749eec3a07b"),
    (35, 60, 2, 1): (2, "7020a78f826a75c4f54478a69c34b97cfce87754ffa73ec713519c6a3f2b1887"),
}


def test_check_explain_bytes_pinned(tmp_path):
    for args, (code, digest) in EXPLAIN_SHA256.items():
        p = tmp_path / "locked.txt"
        p.write_text(format_instance(hull_locked_pair(*args)))
        got, out = run_cli("check", str(p), "--explain")
        assert got == code and out.count("\nremoved ") >= 70, args
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


# Exit code and sha256 of `triangulate` stdout under LEX and under seeded
# random selection, for seeded hull-locked pairs (n, coordinate range,
# jitter, seed).  These pin the greedy's choices at sizes the brute
# reference cannot reach.
TRIANGULATE_SHA256 = {
    (40, 1000, 3, 1): {
        ("--policy", "lex"): (0, "23f0ba9b7a31a4d9c3d7889d46a1899e8707e792ae32a4a1f1bf030dd6f47f8a"),
        ("--policy", "random", "--seed", "3"):
            (0, "81057d7474f4cfcb85bacf9f0e532f07f548f10493d2be15dfbc7787cf856a70"),
    },
    (60, 1000, 3, 2): {
        ("--policy", "lex"): (0, "e028fb60a0ffef862e722f14b7bf2879f44ea2b9b6e2e81b2a1f8ca13ca0f609"),
        ("--policy", "random", "--seed", "3"):
            (0, "94e9bbca6ce21642a347b604ce5a4c379d1f23a385ff4a0dce8628f4f6cbb1e6"),
    },
    (80, 1000, 3, 3): {
        ("--policy", "lex"): (0, "488e310ba03e82b55de7ad4906e134e587771102b633a9e9666303f5ff1553d3"),
        ("--policy", "random", "--seed", "3"):
            (0, "960f31ba40a006774907e458ac1e72ee4a2c202e1fd581815271478c8d370090"),
    },
}


def test_triangulate_bytes_pinned(tmp_path):
    p = tmp_path / "locked.txt"
    for args, runs in TRIANGULATE_SHA256.items():
        p.write_text(format_instance(hull_locked_pair(*args)))
        for flags, (code, digest) in runs.items():
            got, out = run_cli("triangulate", str(p), *flags)
            assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), \
                (args, flags)


def _oracle_instances():
    """Family -> seeded point-pair instances, n 4-9, for ``oracle``."""
    rng = random.Random(2026)
    grid = []
    while len(grid) < 20:
        coords = grid_locked_coords(rng, rng.randint(4, 9), rng.choice((3, 4, 5)))
        if coords is not None:
            grid.append(PointSetPair(*map(LabeledSet.from_coords, coords)))
    line = LabeledSet.from_coords([(0, 0), (1, 1), (2, 2), (4, 4), (5, 5)])
    square = LabeledSet.from_coords([(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)])
    return {
        "locked": [hull_locked_pair(4 + k % 6, 50, 2 + k % 4, k) for k in range(20)],
        "independent": [gen_point_pair(4 + k % 6, 8 + k, 300 + k) for k in range(20)],
        "grid": grid,
        "collinear": [PointSetPair(square, line)],
    }


# sha256 of the exit code and stdout of `oracle` on each family of
# _oracle_instances, in order.  The witness printed is the first joint
# triangulation in the search's expansion order (smallest open edge, then
# ascending apex), so these bytes pin that order as well.
ORACLE_SHA256 = {
    "locked": "f6ebcebc036057c5184032914f3d68e6feb294f432103197f77ee29e1e9eda7a",
    "independent": "9bc98bfc476f5d6e8cf404e067624d715837705b8b5b247c18bc4294217915f7",
    "grid": "46023905c787b4f6880a4e21a86e3ef21d4cb934370cd1e956adfb3959ae9236",
    "collinear": "78fae11e1c421a4acc6b2a0ea00e5d647c31fa3f6daa6a0e70f39c163a07c28f",
}


def test_oracle_bytes_pinned(tmp_path):
    p = tmp_path / "pair.txt"
    answers = []
    for family, pairs in _oracle_instances().items():
        h = hashlib.sha256()
        for pair in pairs:
            p.write_text(format_instance(pair))
            code, out = run_cli("oracle", str(p))
            answers.append(out.split("\n")[0])
            h.update(f"{code}\n{out}".encode())
        assert h.hexdigest() == ORACLE_SHA256[family], family
    assert answers.count("YES") >= 20 and answers.count("NO") >= 20


# sha256 of the stdout of seeded `hunt` campaigns, with the oracle
# cross-check on: every count of the report is pinned.
HUNT_SHA256 = {
    ("points", "4", "8", "200", "7"):
        "fba39a08a1f5f1a6a9536b5f690872508c3d0f8ce51fdf6e43fe73d08e4dc74f",
    ("polygons", "4", "10", "60", "3"):
        "2bd39a4861d9cf9609d3d9c74a4946b193888f1e9ff9d9a1d42a76fb8f33fdb3",
    # 8 pairs with a collinear side: the fast path says no, the oracle still runs
    ("points", "3", "9", "400", "5", "--range", "6"):
        "ad2237ee044833a424fcb8cf24dbbd3add5d2d922c8ce68232d16bb9ef0d4465",
    # the hunts ROADMAP.md tracks
    ("points", "7", "7", "300", "1"):
        "d63b13437dd89842f5bb6fd58e5925464e7697cc5580525864dc04fa1e9ace0f",
    ("points", "6", "8", "300", "1", "--range", "10"):
        "3d51ead7558216a7b8b903638782c671f3ecc27a3e4a84f893a21242e711348b",
    ("polygons", "8", "10", "100", "1"):
        "c9477fb8ff371c1e365cdf884648c7b9280cb9f3ce300ba87055247c892f7fb6",
}


def test_hunt_bytes_pinned():
    for args, digest in HUNT_SHA256.items():
        code, out = run_cli("hunt", *args)
        assert code == 0, args
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (args, out)


GEN_SHA256 = {
    ("gen", "9", "50", "3"):
        "4d35cbf276ca8ad68ac16b87afbe55546d28ad8f1ca66e9130181b568db7c253",
    ("genpoly", "9", "50", "3"):
        "596b43574019a85f64cdfe7dd43d862bff60e7d8c8a840d65f80f9b85e4152ed",
    ("gen", "40", "1000", "7"):
        "1444ead2be68a0b8a33194c6cbeb98dd5abeed6d00c9d77b708b8de4646042c2",
    ("genpoly", "12", "100", "2"):
        "77597dc01fd23169be66ffd0508389205f48dd2bfb56c3e50fb318ca166ae4d5",
}


def test_gen_bytes_pinned():
    for args, digest in GEN_SHA256.items():
        code, out = run_cli(*args)
        assert code == 0, args
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (args, out)


def _polygon_instances():
    """Seeded polygon pairs, n 4-40: random pairs (``gen_polygon_pair``),
    convex pairs with rotated labels or a mirrored side, stars with a
    jittered or an independent partner (the DP mostly fails on these), and
    two pairs whose A grazes (exit 1)."""
    rng = random.Random(2027)
    out = [gen_polygon_pair(4 + k % 12, 20 + k, 500 + k) for k in range(14)]
    for k in range(6):
        coords = convex_polygon_coords(6 + 6 * k, 1 + k % 3)
        other = coords[k:] + coords[:k] if k % 2 else [(x, -y) for x, y in coords]
        out.append(PolygonPair(Polygon.from_coords(coords), Polygon.from_coords(other)))
    while len(out) < 38:
        n = rng.randint(10, 40)
        a = star_polygon_coords(rng, n, 10**5)
        b = ([(x + rng.randint(-900, 900), y + rng.randint(-900, 900)) for x, y in a]
             if len(out) % 2 else star_polygon_coords(rng, n, 10**5))
        try:
            out.append(PolygonPair(Polygon.from_coords(a), Polygon.from_coords(b)))
        except ValueError:
            pass
    flat = Polygon.from_coords([(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)])
    pentagon = Polygon.from_coords([(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)])
    out += [PolygonPair(flat, pentagon), PolygonPair(flat, flat)]
    return out


# sha256 of the exit code, stdout and stderr of `polygon` on each of
# _polygon_instances, in order: the DP's split choices (the first split
# vertex in ascending order) fix the printed triangles.
POLYGON_SHA256 = "14e559d290a3b2ee1a2c26ee7f4356c208b46297a7a25ec7c8bf052554ac12e2"


def test_polygon_bytes_pinned(tmp_path):
    p = tmp_path / "pair.txt"
    h = hashlib.sha256()
    codes = []
    for pair in _polygon_instances():
        p.write_text(format_instance(pair))
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("polygon", str(p))
        codes.append(code)
        h.update(f"{code}\n{out}\n{err.getvalue()}".encode())
    assert codes.count(0) >= 15 and codes.count(2) >= 8 and codes.count(1) == 2, codes
    assert h.hexdigest() == POLYGON_SHA256


def test_gen_and_hunt_deterministic_output():
    code1, out1 = run_cli("gen", "5", "30", "17")
    code2, out2 = run_cli("gen", "5", "30", "17")
    assert code1 == code2 == 0
    assert out1 == out2
    code1, hunt1 = run_cli("hunt", "points", "4", "6", "25", "99")
    code2, hunt2 = run_cli("hunt", "points", "4", "6", "25", "99")
    assert code1 == code2 == 0
    assert hunt1 == hunt2
    assert "instances_tried 25" in hunt1


def test_hunt_counts_polygon_instances_it_cannot_generate():
    """No 10-vertex polygon without three collinear vertices fits a 4 x 4
    grid, so every tried instance is skipped, and the report says so; a
    hunt that skips nothing prints no such line."""
    code, out = run_cli("hunt", "polygons", "10", "10", "2", "1", "--range", "3")
    assert code == 0
    assert out.splitlines() == ["mode polygons", "instances_tried 2",
                                "instances_skipped 2", "nc_pass 0",
                                "construct_success 0", "oracle_checked 0",
                                "oracle_agreements 0", "counterexamples 0"]
    code, out = run_cli("hunt", "polygons", "5", "5", "2", "1")
    assert code == 0 and "instances_skipped" not in out


def test_hunt_bad_arguments_exit_1():
    """An empty size range, n < 3, a range too small for nmax distinct
    points or a negative trial count stop the hunt before its first
    instance with the message on stderr and exit 1, as they do ``gen``."""
    cases = {
        ("points", "5", "6", "-3", "1"): "negative trial count: -3",
        ("points", "9", "5", "3", "1"): "empty size range: nmin 9 exceeds nmax 5",
        ("polygons", "2", "5", "3", "1"): "n must be at least 3",
        ("points", "4", "10", "3", "1", "--range", "2"):
            "coordinate range 2 too small for 10 distinct points",
    }
    for argv, message in cases.items():
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("hunt", *argv)
        assert (code, out, err.getvalue()) == (1, "", message + "\n"), argv


def test_polygon_size_guard_exit_3(tmp_path, monkeypatch):
    p = tmp_path / "hexagons.txt"
    hexagon = Polygon.from_coords(convex_polygon_coords(6))
    p.write_text(format_instance(PolygonPair(hexagon, hexagon)))
    tris = tmp_path / "tris.txt"
    tris.write_text("1 2 3\n")
    monkeypatch.setattr(polygon, "MAX_POLYGON_VERTICES", 5)
    refusal = "polygon visibility is limited to n <= 5, got 6\n"
    for argv, message in (
            (["polygon", str(p)], f"{p}: {refusal}"),
            (["hunt", "polygons", "6", "6", "1", "1"], refusal),
            (["render", str(p), str(tris), str(tmp_path / "out.svg")], f"{p}: {refusal}")):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(*argv)
        assert (code, out) == (3, ""), argv
        assert err.getvalue() == message, argv


def test_polygon_generation_refuses_above_the_size_limit(monkeypatch):
    """No polygon above MAX_POLYGON_VERTICES is ever constructed, so the
    polygon generator, ``genpoly`` and ``hunt polygons`` refuse such an n
    with SizeGuard (exit 3) before drawing a point: with the vertex draw,
    ``campaign._draw_points``, patched to raise, any draw fails at once.  At a patched limit of 8 the generator still builds 8-gons.
    ``gen`` for point pairs has no such limit."""
    monkeypatch.setattr(polygon, "MAX_POLYGON_VERTICES", 8)
    assert len(gen_polygon_pair(8, 50, 1)) == 8
    with pytest.raises(SizeGuard, match="n <= 8, got 9"):
        gen_polygon_pair(9, 50, 1)
    monkeypatch.undo()

    def drawn(*args):
        raise AssertionError("a polygon vertex was drawn")

    monkeypatch.setattr(campaign, "_draw_points", drawn)
    n = polygon.MAX_POLYGON_VERTICES + 1
    refusal = f"polygon visibility is limited to n <= {polygon.MAX_POLYGON_VERTICES}, got {n}"
    with pytest.raises(SizeGuard) as exc:
        gen_polygon_pair(n, 100000, 1)
    assert str(exc.value) == refusal
    with pytest.raises(SizeGuard) as exc:
        campaign.hunt("polygons", (10, n), 5, 1, coord_range=100000)
    assert str(exc.value) == refusal
    for argv in (("genpoly", str(n), "100000", "1"),
                 ("hunt", "polygons", "10", str(n), "5", "1", "--range", "100000")):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(*argv)
        assert (code, out, err.getvalue()) == (3, "", refusal + "\n"), argv
    code, out = run_cli("gen", str(n), "100000", "1")
    assert code == 0 and len(parse_instance(out)[1]) == n


def test_genpoly_output_parses():
    code, out = run_cli("genpoly", "7", "40", "3")
    assert code == 0
    kind, pair = parse_instance(out)
    assert kind == KIND_POLYGON
    assert len(pair.a) == 7


def test_render_command(quad_file, tmp_path):
    tri_file = tmp_path / "tris.txt"
    tri_file.write_text("1 2 3\n1 3 4\n")
    out_svg = tmp_path / "render.svg"
    code, _ = run_cli("render", quad_file, str(tri_file), str(out_svg))
    assert code == 0
    root = ET.parse(str(out_svg)).getroot()
    assert len(root.findall(".//{http://www.w3.org/2000/svg}polygon")) == 4
    texts = root.findall(".//{http://www.w3.org/2000/svg}text")
    assert {"1", "2", "3", "4"} <= {t.text for t in texts}


def test_render_rejects_out_of_range_labels(quad_file, tmp_path):
    tri_file = tmp_path / "tris.txt"
    tri_file.write_text("1 2 9\n")
    out_svg = tmp_path / "render.svg"
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("render", quad_file, str(tri_file), str(out_svg))
    assert (code, out) == (1, "")
    assert err.getvalue() == "triangle (1, 2, 9) references label beyond n=4\n"


def test_render_rejects_repeated_labels(quad_file, tmp_path):
    """A triangle line repeating a label is a format error at its line, as
    ``parse_triangles`` reports it, not a traceback."""
    tri_file = tmp_path / "tris.txt"
    tri_file.write_text("# one bad triangle\n1 1 2\n")
    out_svg = tmp_path / "render.svg"
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("render", quad_file, str(tri_file), str(out_svg))
    assert (code, out) == (1, "")
    assert err.getvalue() == f"{tri_file}: line 2: repeated label in '1 1 2'\n"
    assert not out_svg.exists()


def test_bundle_files_parse_as_instances(tmp_path):
    from jointtri.campaign import POINTS, Counterexample, write_bundle

    pair = gen_point_pair(5, 30, 8)
    finding = Counterexample(POINTS, 8, 5, "synthetic finding",
                             oracle_verdict="no joint")
    path = write_bundle(str(tmp_path), pair, finding, ["choice (0, 1, 2)"])
    text = Path(path).read_text(encoding="utf-8")
    assert "synthetic finding" in text
    kind, parsed = parse_instance(text)
    assert kind == KIND_POINTS
    assert parsed.a.points == pair.a.points
    assert parsed.b.points == pair.b.points


def run_cli_err(*argv):
    """Exit code, stdout and stderr of one ``main`` call."""
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(*argv)
    return code, out, err.getvalue()


def test_range_beyond_coordinate_limit_exit_1():
    """A range above COORD_LIMIT stops every generating command before
    its first instance, with a message that names the range."""
    message = "coordinate range 100000000 exceeds the limit 16777216\n"
    for argv in (["gen", "5", "100000000", "1"],
                 ["genpoly", "5", "100000000", "1"],
                 ["hunt", "points", "5", "6", "4", "0", "--range", "100000000"],
                 ["hunt", "polygons", "5", "6", "4", "0", "--range", "100000000"]):
        assert run_cli_err(*argv) == (1, "", message), argv


def _not_a_directory(tmp_path):
    """A path whose parent is a regular file: no file or directory can be
    made there."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return blocker / "out"


def test_unwritable_render_output_exit_1(quad_file, tmp_path):
    tri_file = tmp_path / "tris.txt"
    tri_file.write_text("1 2 3\n1 3 4\n")
    out_svg = tmp_path / "missing" / "render.svg"
    assert run_cli_err("render", quad_file, str(tri_file), str(out_svg)) == \
        (1, "", f"{out_svg}: No such file or directory\n")


def test_os_error_without_a_file_name_exit_1(quad_file, tmp_path, monkeypatch):
    """An OSError that names no file, such as a full disk while writing,
    is still one line and exit 1."""
    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    tri_file = tmp_path / "tris.txt"
    tri_file.write_text("1 2 3\n1 3 4\n")
    monkeypatch.setattr(cli, "render_pair", full_disk)
    assert run_cli_err("render", quad_file, str(tri_file), str(tmp_path / "r.svg")) == \
        (1, "", "[Errno 28] No space left on device\n")


def test_unwritable_svg_exit_1(quad_file, tmp_path):
    """The result is printed, then the drawing fails with one line."""
    poly = tmp_path / "poly.txt"
    poly.write_text(POLY_TEXT)
    out_svg = _not_a_directory(tmp_path)
    for argv, out in ((["triangulate", quad_file], "1 2 3\n1 3 4\n"),
                      (["polygon", str(poly)], "1 2 4\n2 3 4\n")):
        assert run_cli_err(*argv, "--svg", str(out_svg)) == \
            (1, out, f"{out_svg}: Not a directory\n"), argv


def _unverified(*args, **kwargs):
    return JointTriangulation(frozenset(), "synthetic violation", [(0, 1, 2)])


def test_failed_verification_bundles(quad_file, tmp_path, monkeypatch):
    """A constructed result that fails verification is bundled with its
    trace, and FAIL names the bundle."""
    poly = tmp_path / "poly.txt"
    poly.write_text(POLY_TEXT)
    monkeypatch.setattr(cli, "greedy_construct", _unverified)
    monkeypatch.setattr(cli, "dp_joint_polygon", _unverified)
    for argv, name, reason, trace in (
            (["triangulate", quad_file, "--policy", "random", "--seed", "5"],
             "counterexample-points-seed5-n4.txt", "greedy",
             ["# policy random", "# choice (0, 1, 2)"]),
            (["polygon", str(poly)], "counterexample-polygons-seed0-n4.txt", "dp",
             ["# choice (0, 1, 2)"])):
        path = tmp_path / "bundles" / name
        assert run_cli_err(*argv, "--bundle-dir", str(tmp_path / "bundles")) == \
            (2, f"FAIL {path}\n", ""), argv
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"# counterexample: {reason} result failed verification: " \
                           "synthetic violation"
        assert lines[-len(trace) - 1:] == ["# trace:"] + trace, argv


def test_unwritable_bundle_dir_exit_1(quad_file, tmp_path, monkeypatch):
    poly = tmp_path / "poly.txt"
    poly.write_text(POLY_TEXT)
    bundles = _not_a_directory(tmp_path)
    monkeypatch.setattr(cli, "greedy_construct", _unverified)
    monkeypatch.setattr(cli, "dp_joint_polygon", _unverified)
    monkeypatch.setattr(campaign, "dp_joint_polygon", _unverified)
    for argv in (["triangulate", quad_file], ["polygon", str(poly)],
                 ["hunt", "polygons", "5", "5", "1", "1", "--no-oracle"]):
        assert run_cli_err(*argv, "--bundle-dir", str(bundles)) == \
            (1, "", f"{bundles}: Not a directory\n"), argv


def test_plain_value_error_propagates(quad_file, monkeypatch):
    """``main`` maps only typed errors to exit codes: a plain ValueError,
    as a bug raises it, leaves ``main`` unchanged."""
    def bug(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr(cli, "greedy_construct", bug)
    with pytest.raises(ValueError, match="bug") as err:
        run_cli("triangulate", quad_file)
    assert type(err.value) is ValueError


def test_non_utf8_file_exit_1(quad_file, tmp_path):
    """A file that is not UTF-8 text is rejected input, at either path
    ``render`` reads."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"POINTS 3\n\xff 0 0 0\n")
    message = (f"{bad}: 'utf-8' codec can't decode byte 0xff in position 9: "
               "invalid start byte\n")
    assert run_cli_err("check", str(bad)) == (1, "", message)
    assert run_cli_err("render", quad_file, str(bad), str(tmp_path / "r.svg")) == \
        (1, "", message)
