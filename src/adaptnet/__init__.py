"""adaptnet: distributed adaptive estimation over networks.

Four strategies (non-cooperative LMS, single-time-scale consensus, ATC and
CTA diffusion), their exact mean-square stability and steady-state MSD
theory, closed-form two-node analysis, and a Monte Carlo harness that
cross-validates theory against simulation.
"""

from .errors import (AdaptNetError, ConfigError, NotDiagonalizableError,
                     NumericalError, StabilityError, UnsupportedInputError)
from .network import (CombinationMatrix, NetworkTopology, PerronPair,
                      build_combination_matrix, complete_topology,
                      consensus_weights_to_matrix, is_primitive, line_topology,
                      load_combination_csv, load_topology,
                      matrix_to_consensus_weights, perron_pair,
                      random_connected_topology, save_combination_csv,
                      save_topology)
from .signalmodel import (DataSnapshot, GroundTruth, NodeProfile,
                          SnapshotSource, benchmark_profile, covariance_sqrt,
                          is_homogeneous)
from .strategies import StrategyKind, update
from .spectra import (ErrorRecursion, StabilityReport, StabilityVerdict,
                      analyze_network, block_norm, build_error_recursion,
                      consensus_symmetric_bound, diffusion_equality_bound,
                      noncoop_step_bounds, spectral_radius, stability_verdict)
from .msdtheory import (EigenStructure, MsdReport, NoiseConditionReport,
                        OrderingReport, StepThresholdReport, eigenstructure,
                        individual_ordering_conditions, mode_eigenvalues,
                        msd_component, msd_eigenform, msd_series,
                        ordering_checks, strict_gap_holds,
                        strict_ordering_step_threshold)
from .twonode import (TwoNodeConditionReport, TwoNodeConfig, canonical,
                      condition_grid, consensus_instability_condition,
                      consensus_min_eigenvalue, diffusion_eigenvalues_rank_one,
                      diffusion_stabilization_range, discriminant_forms,
                      general_model, individual_msd_conditions,
                      msd_region_classify, region_grid, region_thresholds)
from .harness import (ComparisonRow, ExperimentConfig, LearningCurve,
                      TheoryComparison, run_experiment, steady_state_vs_theory,
                      theory_reports)
from .config import build_experiment, load_experiment, parse_pairs

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
