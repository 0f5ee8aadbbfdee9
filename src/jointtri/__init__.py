"""Joint (compatible) triangulations of labeled point sets and simple polygons.

Two labeled point sets admit a joint triangulation when some set of label
triples simultaneously triangulates both.  This package tests the two
necessary conditions for that, constructs candidate joint triangulations
greedily, solves the polygon variant exactly by dynamic programming, and
ships an exhaustive small-instance oracle for validation and for hunting
counterexamples to the sufficiency conjecture.
"""

from .conditions import (Conditions, HullCorrespondence, LegalSetResult,
                         PointSetPair, check_hull_correspondence,
                         check_legal_nonempty, legal_set,
                         necessary_conditions)
from .geom import (CCW, COLLINEAR, COORD_LIMIT, CW, MAX_TENSOR_POINTS,
                   DegenerateInput, InputError, LabeledSet, Point, SizeGuard,
                   convex_hull, hull_edge_set, orient)
from .greedy import (LEX, SEEDED_RANDOM, JointTriangulation, greedy_construct,
                     verify_joint)
from .oracle import (HuntReport, gen_point_pair, gen_polygon_pair, hunt,
                     iter_triangulations, oracle_joint_exists,
                     polygon_oracle_exists)
from .polygon import (GrazingDiagonal, Polygon, PolygonPair, dp_joint_polygon,
                      ivg, verify_polygon_joint, visibility_graph)
from .triangles import TriangleSet, enumerate_empty, paired_empty

__version__ = "0.1.0"

__all__ = [
    "CCW", "COLLINEAR", "COORD_LIMIT", "CW", "Conditions", "DegenerateInput",
    "GrazingDiagonal", "HullCorrespondence", "HuntReport", "InputError",
    "JointTriangulation", "LEX", "LabeledSet", "LegalSetResult",
    "MAX_TENSOR_POINTS", "Point",
    "PointSetPair", "Polygon", "PolygonPair", "SEEDED_RANDOM", "SizeGuard",
    "TriangleSet", "check_hull_correspondence", "check_legal_nonempty",
    "convex_hull", "dp_joint_polygon",
    "enumerate_empty", "gen_point_pair", "gen_polygon_pair", "greedy_construct",
    "hull_edge_set", "hunt", "iter_triangulations",
    "ivg", "legal_set", "necessary_conditions", "oracle_joint_exists",
    "orient", "paired_empty", "polygon_oracle_exists",
    "verify_joint", "verify_polygon_joint", "visibility_graph",
]
