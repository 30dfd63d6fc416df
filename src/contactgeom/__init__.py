"""Exact-arithmetic toolkit for families of polyline curves with bounded
pairwise intersections: incidence classification, arrangements, tangency
sampling, boundary signatures, separators, and empirical bound sweeps."""

from .errors import (ConstructionError, ContactGeomError, DegeneracyError,
                     DegenerateError, FitError,
                     GenerationError, OnCurveError, ParseError,
                     PreconditionError, ValidationError)
from .geometry import Curve, CurveFamily, Point
from .incidence import (FamilyIncidences, Incidence, catalogue,
                        compute_incidences, curve_pair_incidences,
                        validate_general_position)
from .arrangement import (Arrangement, build_arrangement,
                          build_mixed_arrangement, locate_cell,
                          pair_arrangement)
from .familyio import (dumps_family, loads_family, read_family, write_family)
from .generators import KINDS, GeneratorSpec, generate
from .verifier import (CircularSignature, FaceContext, GroundPairSample,
                       RichPoorReport, SubArc, alt_hat_charging,
                       circular_signature, enumerate_ground_pairs, free_arc,
                       monte_carlo_ground, rich_poor_partition,
                       sample_ground_pair, verify_signature_uniqueness)
from .separator import (DecompositionReport, ReducedFamily, SeparatorResult,
                        StringSeparatorResult, WeightedPlanarGraph,
                        arrangement_to_planar_graph, planar_separator,
                        recursive_decompose, reduce_degree, string_separator,
                        weighted_graph)
from .experiments import (BoundCheckRow, SweepRow, check_thm4,
                          fit_exponent, run_sweep, sweep_csv, sweep_summary,
                          thm3_exponent, thm4_exponent)

__all__ = [name for name in dir() if not name.startswith("_")]
