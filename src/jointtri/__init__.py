"""Joint (compatible) triangulations of labeled point sets and simple polygons.

Two labeled point sets admit a joint triangulation when some set of label
triples simultaneously triangulates both.  This package tests the two
necessary conditions for that, constructs candidate joint triangulations
greedily, solves the polygon variant exactly by dynamic programming, and
ships an exhaustive small-instance oracle for validation and for hunting
counterexamples to the sufficiency conjecture.
"""

from .conditions import (HullCorrespondence, LegalSetResult, PointSetPair,
                         check_hull_correspondence, check_legal_nonempty,
                         legal_set, successors)
from .geom import (CCW, CLOSED_MINUS_VERTICES, COLLINEAR, COORD_LIMIT, CW,
                   STRICT_INTERIOR, DegenerateInput, LabeledSet, Point,
                   convex_hull, hull_edge_set, interiors_overlap, orient,
                   triangle_contains)
from .greedy import (LEX, SEEDED_RANDOM, JointTriangulation, greedy_construct,
                     verify_joint)
from .oracle import (HuntReport, SizeGuard, enumerate_triangulations,
                     gen_point_pair, gen_polygon_pair, gen_perturbed_pair, hunt,
                     iter_triangulations, oracle_joint_exists,
                     polygon_oracle_exists)
from .polygon import (GrazingDiagonal, Polygon, PolygonPair,
                      count_joint_triangulations, dp_joint_polygon, ivg,
                      verify_polygon_joint, visibility_graph)
from .triangles import TriangleSet, enumerate_empty, paired_empty

__version__ = "0.1.0"

__all__ = [
    "CCW", "CLOSED_MINUS_VERTICES", "COLLINEAR", "COORD_LIMIT", "CW",
    "DegenerateInput", "GrazingDiagonal", "HullCorrespondence", "HuntReport",
    "JointTriangulation", "LEX", "LabeledSet", "LegalSetResult", "Point",
    "PointSetPair", "Polygon", "PolygonPair", "SEEDED_RANDOM",
    "STRICT_INTERIOR", "SizeGuard", "TriangleSet", "check_hull_correspondence",
    "check_legal_nonempty", "convex_hull", "count_joint_triangulations",
    "dp_joint_polygon", "enumerate_empty", "enumerate_triangulations",
    "gen_perturbed_pair", "gen_point_pair", "gen_polygon_pair",
    "greedy_construct", "hull_edge_set", "hunt", "interiors_overlap",
    "iter_triangulations", "ivg", "legal_set", "oracle_joint_exists",
    "orient", "paired_empty", "polygon_oracle_exists", "successors",
    "triangle_contains", "verify_joint", "verify_polygon_joint",
    "visibility_graph",
]
