"""Monte Carlo experiment runner and theory-vs-simulation comparison.

Within one trial every selected strategy consumes the identical snapshot
sequence (paired comparison), so cross-strategy gaps are not polluted by
independent sampling noise.  Trials advance together in chunks of ``CHUNK``
as (T, N, M) tensors on disjoint counter-based streams and are reduced in
trial order, which keeps ensemble outputs bit-identical for any chunk size.

A strategy whose network squared error exceeds a large multiple of ||w0||^2
(of 1 when w0 = 0) is flagged diverged for that trial; its curve carries +inf
from the onset iteration onward and is reported, never silently dropped.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace

import numpy as np

from .errors import ConfigError, NotDiagonalizableError
from .msdtheory import eigenstructure, msd_eigenform, msd_series
from .network import CombinationMatrix, NetworkTopology, build_combination_matrix
from .signalmodel import BLOCK, GroundTruth, SnapshotSource, is_homogeneous
from .spectra import build_error_recursion
from .strategies import COOPERATIVE, StrategyKind, update

ALL_STRATEGIES = tuple(StrategyKind)

# trials advanced as one batch; bounds memory at CHUNK * BLOCK snapshots
CHUNK = 32


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    profiles: list
    truth: GroundTruth
    topology: NetworkTopology | None = None
    combination: CombinationMatrix | None = None
    rule: str | None = None
    strategies: tuple = ALL_STRATEGIES
    iterations: int = 1000
    trials: int = 100
    seed: int = 0
    steady_window: float = 0.1
    divergence_factor: float = 1e12
    # retired: trials run in one thread, so a worker count is checked and ignored
    workers: InitVar[int] = 1

    def __post_init__(self, workers):
        if self.iterations < 1 or self.trials < 1:
            raise ConfigError("iterations and trials must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        if not 0.0 < self.steady_window <= 1.0:
            raise ConfigError(f"steady window fraction must lie in (0, 1], got {self.steady_window}")
        if workers < 1:
            raise ConfigError("workers must be at least 1")
        if not self.strategies:
            raise ConfigError("select at least one strategy")

    def resolve_combination(self) -> CombinationMatrix | None:
        if self.combination is not None:
            return self.combination
        if self.rule is not None:
            if self.topology is None:
                raise ConfigError("a combination rule needs a topology")
            noise = [p.noise_variance for p in self.profiles]
            return build_combination_matrix(self.topology, self.rule, noise)
        if any(k in COOPERATIVE for k in self.strategies):
            raise ConfigError("cooperative strategies need a combination matrix or rule")
        return None


@dataclass(frozen=True, eq=False)
class LearningCurve:
    """Ensemble learning curve plus steady-state summaries (linear scale)."""

    strategy: StrategyKind
    msd: np.ndarray
    per_node_steady: np.ndarray
    network_steady: float
    standard_error: float
    diverged_trials: int
    divergence_onset: int | None
    steady_start: int
    steady_slope_db_per_100: float | None

    @property
    def msd_db(self):
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.msd)

    @property
    def network_steady_db(self) -> float:
        with np.errstate(divide="ignore"):
            return float(10.0 * np.log10(self.network_steady))

    def normalized_db(self):
        """Curve shifted so its peak sits at 0 dB (presentation only)."""
        db = self.msd_db
        finite = db[np.isfinite(db)]
        if finite.size == 0:
            return db
        return db - finite.max()

    def iterations_to_settle(self, within_db: float = 3.0) -> int | None:
        """First iteration from which the curve stays within ``within_db``
        of the steady-state level."""
        if not np.isfinite(self.network_steady):
            return None
        level = self.network_steady_db + within_db
        db = self.msd_db
        above = np.flatnonzero(db > level)
        if above.size == 0:
            return 0
        last = int(above[-1]) + 1
        return last if last < db.size else None


def _slope_db_per_100(curve_db: np.ndarray) -> float | None:
    if curve_db.size < 2 or not np.all(np.isfinite(curve_db)):
        return None
    x = np.arange(curve_db.size, dtype=float)
    slope = np.polyfit(x, curve_db, 1)[0]
    return float(slope * 100.0)


def _run_chunk(trials, source, strategies, mu, weights, w0, iterations,
               steady_start, threshold):
    """Advance the listed trials together, one (T, N, M) estimate tensor per
    strategy.  Returns, per strategy, the (T, iterations) curves, the (T, N)
    steady-state node means and the (T,) onsets (-1: never diverged)."""
    t, n = len(trials), len(source.profiles)
    est = {k: np.zeros((t, n, w0.size)) for k in strategies}
    curves = {k: np.full((t, iterations), np.inf) for k in strategies}
    acc = {k: np.zeros((t, n)) for k in strategies}
    alive = {k: np.ones(t, dtype=bool) for k in strategies}
    onset = {k: np.full(t, -1) for k in strategies}
    # a diverged trial keeps being updated from its frozen estimate, and may
    # overflow; its results are masked out
    with np.errstate(over="ignore", invalid="ignore"):
        for b in range(-(-iterations // BLOCK)):
            u, _, d = source.block(trials, b)
            for j in range(min(BLOCK, iterations - b * BLOCK)):
                i = b * BLOCK + j
                for kind in strategies:
                    live = alive[kind]
                    if not live.any():
                        continue
                    new = update(kind, est[kind], u[:, j], d[:, j], mu, weights)
                    err = new - w0
                    sq = np.einsum("...km,...km->...k", err, err)
                    net = sq.mean(axis=-1)
                    ok = live & np.isfinite(net) & (net <= threshold)
                    if ok.all():
                        est[kind] = new
                        curves[kind][:, i] = net
                    else:
                        onset[kind][live & ~ok] = i
                        alive[kind] = ok
                        est[kind] = np.where(ok[:, None, None], new, est[kind])
                        curves[kind][ok, i] = net[ok]
                    if i >= steady_start:
                        acc[kind] += sq
    window = iterations - steady_start
    return {k: (curves[k], np.where(alive[k][:, None], acc[k] / window, np.inf),
                onset[k]) for k in strategies}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all selected strategies over the trial ensemble; deterministic
    in (seed, config) for any trial chunk size."""
    matrix = cfg.resolve_combination()
    weights = matrix.weights if matrix is not None else None
    n = len(cfg.profiles)
    if matrix is not None and matrix.n_nodes != n:
        raise ConfigError(f"combination matrix is {matrix.n_nodes}-node, profiles give {n}")
    mu = np.array([p.step_size for p in cfg.profiles])
    w0 = cfg.truth.vector
    source = SnapshotSource(cfg.profiles, cfg.truth, cfg.seed)
    steady_len = max(1, int(round(cfg.steady_window * cfg.iterations)))
    steady_start = cfg.iterations - steady_len
    # a zero truth gives no scale, so the threshold falls back to unit power
    threshold = cfg.divergence_factor * (float(w0 @ w0) or 1.0)

    curve_sum = {k: np.zeros(cfg.iterations) for k in cfg.strategies}
    node_sum = {k: np.zeros(n) for k in cfg.strategies}
    per_trial_net = {k: np.empty(cfg.trials) for k in cfg.strategies}
    onsets = {k: [] for k in cfg.strategies}
    for first in range(0, cfg.trials, CHUNK):
        trials = range(first, min(first + CHUNK, cfg.trials))
        chunk = _run_chunk(trials, source, cfg.strategies, mu, weights, w0,
                           cfg.iterations, steady_start, threshold)
        for kind, (curves, steady, onset) in chunk.items():
            for j, trial in enumerate(trials):
                curve_sum[kind] = curve_sum[kind] + curves[j]
                node_sum[kind] = node_sum[kind] + steady[j]
                per_trial_net[kind][trial] = steady[j].mean()
            onsets[kind].extend(int(i) for i in onset[onset >= 0])

    out = {}
    for kind in cfg.strategies:
        diverged = len(onsets[kind])
        msd = curve_sum[kind] / cfg.trials
        per_node = node_sum[kind] / cfg.trials
        network = float(per_node.mean())
        if np.all(np.isfinite(per_trial_net[kind])) and cfg.trials > 1:
            se = float(np.std(per_trial_net[kind], ddof=1) / np.sqrt(cfg.trials))
        else:
            se = float("inf") if diverged else 0.0
        with np.errstate(divide="ignore"):
            window_db = 10.0 * np.log10(msd[steady_start:])
        out[kind] = LearningCurve(
            strategy=kind, msd=msd, per_node_steady=per_node,
            network_steady=network, standard_error=se,
            diverged_trials=diverged,
            divergence_onset=min(onsets[kind]) if diverged else None,
            steady_start=steady_start,
            steady_slope_db_per_100=_slope_db_per_100(window_db))
    return out


def theory_reports(cfg: ExperimentConfig) -> dict:
    """Theoretical steady-state MSD per selected strategy: eigen route for
    homogeneous diagonalizable instances, series route otherwise."""
    matrix = cfg.resolve_combination()
    reports = {}
    homogeneous = is_homogeneous(cfg.profiles)
    noise = np.array([p.noise_variance for p in cfg.profiles])
    structure = None
    if homogeneous and matrix is not None:
        try:
            structure = eigenstructure(matrix, cfg.profiles[0].covariance)
        except NotDiagonalizableError:
            structure = None
    for kind in cfg.strategies:
        if kind is StrategyKind.NON_COOPERATIVE or matrix is None or structure is None:
            rec = build_error_recursion(kind, matrix if matrix is not None
                                        else np.eye(len(cfg.profiles)), cfg.profiles)
            reports[kind] = msd_series(rec)
        else:
            reports[kind] = msd_eigenform(structure, cfg.profiles[0].step_size,
                                          noise, kind)
    return reports


@dataclass(frozen=True, eq=False)
class ComparisonRow:
    strategy: StrategyKind
    node: int | None          # None = network-level row
    simulated_db: float
    theory_db: float
    gap_db: float


@dataclass(frozen=True, eq=False)
class TheoryComparison:
    rows: tuple
    theory: dict
    curves: dict
    refused: dict             # strategy -> spectral radius (theory unstable)

    def network_gap(self, kind: StrategyKind) -> float:
        for row in self.rows:
            if row.strategy is kind and row.node is None:
                return row.gap_db
        raise KeyError(kind)


def steady_state_vs_theory(cfg: ExperimentConfig) -> TheoryComparison:
    """Compare simulated steady-state MSD against the theoretical prediction,
    per node and for the network; strategies whose theory says unstable are
    refused (reported with their spectral radius, not simulated)."""
    theory = theory_reports(cfg)
    refused = {k: rep.spectral_radius for k, rep in theory.items() if rep.diverged}
    stable = tuple(k for k in cfg.strategies if k not in refused)
    if not stable:
        return TheoryComparison(rows=(), theory=theory, curves={}, refused=refused)
    curves = run_experiment(replace(cfg, strategies=stable))
    rows = []
    for kind in stable:
        rep = theory[kind]
        curve = curves[kind]
        with np.errstate(divide="ignore"):
            sim_nodes = 10.0 * np.log10(curve.per_node_steady)
            th_nodes = 10.0 * np.log10(rep.per_node)
        for k in range(len(cfg.profiles)):
            rows.append(ComparisonRow(kind, k, float(sim_nodes[k]), float(th_nodes[k]),
                                      float(sim_nodes[k] - th_nodes[k])))
        sim_net = curve.network_steady_db
        th_net = rep.network_db
        rows.append(ComparisonRow(kind, None, sim_net, th_net, sim_net - th_net))
    return TheoryComparison(rows=tuple(rows), theory=theory, curves=curves,
                            refused=refused)
