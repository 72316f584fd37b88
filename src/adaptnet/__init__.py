"""adaptnet: distributed adaptive estimation over networks.

Four strategies (non-cooperative LMS, single-time-scale consensus, ATC and
CTA diffusion), their mean stability (the spectral radius of the mean error
recursion) and small-step steady-state MSD theory, closed-form two-node
analysis, and a Monte Carlo harness that cross-validates theory against
simulation.  The theory leaves out the Gaussian fourth-moment term, so it
is not the exact mean-square analysis: on the 20-node benchmark network at
mu = 0.075 the non-cooperative strategy has rho(B) = 0.849, yet every
simulated trial diverges (item B of ROADMAP.md plans the exact operator).
"""

from .errors import (AdaptNetError, ConfigError, NotDiagonalizableError,
                     NumericalError, StabilityError, UnsupportedInputError)
from .network import (CombinationMatrix, NetworkTopology, PerronPair,
                      build_combination_matrix, complete_topology, is_primitive,
                      line_topology, load_combination_csv, load_topology,
                      perron_pair, random_connected_topology)
from .signalmodel import (GroundTruth, NodeProfile, SnapshotSource,
                          benchmark_profile, is_homogeneous)
from .strategies import StrategyKind
from .spectra import (RecursionStack, StabilityReport, StabilityVerdict,
                      analyze_network, build_error_recursion)
from .msdtheory import (EigenStructure, MsdReport, NoiseConditionReport,
                        OrderingReport, StepThresholdReport, eigenstructure,
                        individual_ordering_conditions, mode_eigenvalues,
                        msd_eigenform, msd_series, ordering_checks,
                        strict_gap_holds, strict_ordering_step_threshold)
from .twonode import (TwoNodeConditionReport, TwoNodeConfig, canonical,
                      condition_grid, consensus_instability_condition,
                      consensus_min_eigenvalue, diffusion_stabilization_range,
                      individual_msd_conditions, msd_region_classify,
                      region_grid, region_thresholds)
from .harness import (ComparisonRow, ExperimentConfig, LearningCurve,
                      TheoryComparison, run_experiment, steady_state_vs_theory,
                      theory_reports)
from .config import build_experiment, load_experiment, parse_pairs

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
