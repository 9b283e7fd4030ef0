"""Exact incidence-graph toolkit for point/range families that forbid an
induced complete bipartite subgraph."""

from .dyadic import canonical_decomposition
from .errors import (DimensionMismatchError, InvalidInputError, KkfreeError,
                     NotApplicableError, UnknownVerdictError,
                     UnsupportedInputError)
from .extremal import (BoundFormula, FavorabilityVerdict, elekes_grid,
                       eval_bound, lower_bound_5d, verify_favorable)
from .geometry import (Ball, Box, Curtain, Halfspace, Hyperplane, Line2,
                       LinearHalfspace, Point, Polyhedron, Range, Triangle,
                       Wedge2, Wedge3, contains, dualize, lift, lift_ball,
                       pt)
from .incidence import (BicliqueCover, BoxCoverBuild, CoverBound,
                        IncidenceGraph, IntervalAuditReport, KkkResult,
                        build_box_cover, cover_bound, find_kkk,
                        incidences_bruteforce, interval_audit, verify_cover)
from .instances import Instance, load_instance, save_instance
from .levels import (CensusRow, CensusSchedule, census_rows, census_schedule,
                     depth, depth_census, level, shallow_census)
from .reductions import (OriginTriangleReduction, Reduction,
                         ReductionCertificate, balls_to_halfspaces,
                         origin_triangle_to_curtain, orthants_to_halfspaces,
                         pointline_to_5d, polyhedra_to_boxes,
                         threesided_to_orthants, wedge_dual, wedge_lift)
from .slab import RecursionReport, box_audit, curtain_audit, rect_audit

__version__ = "0.1.0"
