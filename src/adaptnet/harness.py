"""Monte Carlo experiment runner and theory-vs-simulation comparison.

Within one trial every selected strategy consumes the identical snapshot
sequence (paired comparison), so cross-strategy gaps are not polluted by
independent sampling noise.  Trials use disjoint counter-based streams and
are reduced in trial order, which keeps ensemble outputs bit-identical
regardless of the worker count.

A strategy whose network squared error exceeds a large multiple of ||w0||^2
(of 1 when w0 = 0) is flagged diverged for that trial; its curve carries +inf
from the onset iteration onward and is reported, never silently dropped.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NotDiagonalizableError
from .msdtheory import eigenstructure, msd_eigenform, msd_series
from .network import CombinationMatrix, NetworkTopology, build_combination_matrix
from .signalmodel import GroundTruth, SnapshotSource, is_homogeneous
from .spectra import build_error_recursion
from .strategies import COOPERATIVE, StrategyKind, update

ALL_STRATEGIES = tuple(StrategyKind)


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
    workers: int = 1
    divergence_factor: float = 1e12

    def __post_init__(self):
        if self.iterations < 1 or self.trials < 1:
            raise ConfigError("iterations and trials must be at least 1")
        if not 0.0 < self.steady_window <= 1.0:
            raise ConfigError(f"steady window fraction must lie in (0, 1], got {self.steady_window}")
        if self.workers < 1:
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


def _run_trial(trial, source, strategies, mu, weights, w0, iterations,
               steady_start, threshold):
    n = len(source.profiles)
    curves = {k: np.empty(iterations) for k in strategies}
    acc = {k: np.zeros(n) for k in strategies}
    est = {k: np.zeros((n, w0.size)) for k in strategies}
    alive = {k: True for k in strategies}
    onset = {}
    window = iterations - steady_start
    for i in range(iterations):
        snap = source.snapshot(trial, i)
        for kind in strategies:
            if not alive[kind]:
                curves[kind][i] = np.inf
                continue
            new = update(kind, est[kind], snap.u, snap.d, mu, weights)
            err = new - w0[None, :]
            sq = np.einsum("km,km->k", err, err)
            net = float(sq.mean())
            if not np.isfinite(net) or net > threshold:
                alive[kind] = False
                onset[kind] = i
                curves[kind][i] = np.inf
                continue
            est[kind] = new
            curves[kind][i] = net
            if i >= steady_start:
                acc[kind] += sq
    steady = {}
    for kind in strategies:
        steady[kind] = acc[kind] / window if alive[kind] else np.full(n, np.inf)
    return curves, steady, onset


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all selected strategies over the trial ensemble; deterministic
    in (seed, config) regardless of worker count."""
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

    def work(trial):
        return _run_trial(trial, source, cfg.strategies, mu, weights, w0,
                          cfg.iterations, steady_start, threshold)

    if cfg.workers == 1:
        results = [work(t) for t in range(cfg.trials)]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(work, range(cfg.trials)))

    out = {}
    for kind in cfg.strategies:
        curve_sum = np.zeros(cfg.iterations)
        node_sum = np.zeros(n)
        per_trial_net = np.empty(cfg.trials)
        diverged = 0
        onset_min = None
        for t, (curves, steady, onset) in enumerate(results):
            curve_sum = curve_sum + curves[kind]
            node_sum = node_sum + steady[kind]
            per_trial_net[t] = steady[kind].mean()
            if kind in onset:
                diverged += 1
                onset_min = onset[kind] if onset_min is None else min(onset_min, onset[kind])
        msd = curve_sum / cfg.trials
        per_node = node_sum / cfg.trials
        network = float(per_node.mean())
        if np.all(np.isfinite(per_trial_net)) and cfg.trials > 1:
            se = float(np.std(per_trial_net, ddof=1) / np.sqrt(cfg.trials))
        else:
            se = float("inf") if diverged else 0.0
        with np.errstate(divide="ignore"):
            window_db = 10.0 * np.log10(msd[steady_start:])
        out[kind] = LearningCurve(
            strategy=kind, msd=msd, per_node_steady=per_node,
            network_steady=network, standard_error=se,
            diverged_trials=diverged, divergence_onset=onset_min,
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
