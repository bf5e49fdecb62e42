"""Measure representations of square matrices and graphs.

A matrix A with index weights p acts on a vector x to produce the planar
measure with atoms (x_i, (Ax)_i).  This package computes exact
Levy-Prokhorov and Hausdorff distances between such measures, profile
pseudo-metrics between matrices built on them (zero exactly on relabelings
of the same graph), graph properties read off the measures, and the
constructive recovery of a matrix, up to relabeling, from its measure
family alone.
"""

from .graph_props import (CycleHomCount, count_homomorphisms, detect_line_support,
                          hom_cycle, hom_star, row_sums_from_measure)
from .matrices import (Graph, MeasuredMatrix, NormResult, adjacency,
                       complete_graph, cycle_graph, edgeless_graph,
                       generate_measure, kirchhoff, marginal_first,
                       norm_inf_to_1, normalized_laplacian, orbit_measures,
                       path_graph, perturb, relabel_matrix, star_graph)
from .measures import (MeasureSet, WeightedPointMeasure, dirac,
                       hausdorff_distance, lp_distance, lp_feasible,
                       measure_equal, measure_sets_equal,
                       pushforward_distance_bound)
from .profiles import (ActionDistance, ProfileSample, SamplingConfig,
                       action_distance, exact_orbit_profile, hausdorff_terms,
                       one_profile_distance, orbit_base_family, profile_sets,
                       sample_profile)
from .reconstruction import (DegenerateSupportError, MeasureOracle,
                             OrderedSupport, ReconstructionError, choose_epsilon,
                             find_irreducible_vector, is_irreducible,
                             max_orbit_vector, min_pairwise_lp, ordered_support,
                             reconstruct, switching_witness)

__version__ = "0.1.0"

__all__ = [
    "ActionDistance",
    "CycleHomCount",
    "DegenerateSupportError",
    "Graph",
    "MeasureOracle",
    "MeasureSet",
    "MeasuredMatrix",
    "NormResult",
    "OrderedSupport",
    "ProfileSample",
    "ReconstructionError",
    "SamplingConfig",
    "WeightedPointMeasure",
    "action_distance",
    "adjacency",
    "choose_epsilon",
    "complete_graph",
    "count_homomorphisms",
    "cycle_graph",
    "detect_line_support",
    "dirac",
    "edgeless_graph",
    "exact_orbit_profile",
    "find_irreducible_vector",
    "generate_measure",
    "hausdorff_distance",
    "hausdorff_terms",
    "hom_cycle",
    "hom_star",
    "is_irreducible",
    "kirchhoff",
    "lp_distance",
    "lp_feasible",
    "marginal_first",
    "max_orbit_vector",
    "measure_equal",
    "measure_sets_equal",
    "min_pairwise_lp",
    "norm_inf_to_1",
    "normalized_laplacian",
    "one_profile_distance",
    "orbit_base_family",
    "orbit_measures",
    "ordered_support",
    "path_graph",
    "perturb",
    "profile_sets",
    "pushforward_distance_bound",
    "reconstruct",
    "relabel_matrix",
    "row_sums_from_measure",
    "sample_profile",
    "star_graph",
    "switching_witness",
]
