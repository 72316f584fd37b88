"""Monte Carlo experiment runner and theory-vs-simulation comparison.

Within one trial every selected strategy consumes the identical snapshot
sequence (paired comparison), so cross-strategy gaps are not polluted by
independent sampling noise.  The selected strategies and a chunk of
``CHUNK`` trials on disjoint counter-based streams advance as one
(S, T, N, M) tensor through the recursion of ``strategies``, with the
(A1, A0, A2) of its table stacked per strategy.  Trials are reduced in
trial order, so outputs are bit-identical for any chunk size.

A strategy whose network squared error exceeds ``DIVERGENCE_FACTOR`` times
||w0||^2 (of 1 when w0 = 0) is flagged diverged for that trial; its curve
carries +inf from the onset iteration onward and is reported, never dropped.
``ExperimentConfig`` resolves the combination matrix A once, and theory and
simulation read that one matrix (the identity on an isolated topology when
only the non-cooperative strategy runs; none of its formulas reads A, so a
given rule is checked by name but its matrix is not built).  The theory of
all selected strategies is one pass: one stack of error blocks, one eigvals
call and one doubling loop (``series_reports``).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace

import numpy as np

from .errors import ConfigError
from .msdtheory import _db, series_reports
from .network import (CombinationMatrix, NetworkTopology, build_combination_matrix,
                      check_rule)
from .signalmodel import BLOCK, GroundTruth, SnapshotSource
from .spectra import build_error_recursions
from .strategies import (COOPERATIVE, StrategyKind, combination_stack,
                         recursion_step)

ALL_STRATEGIES = tuple(StrategyKind)

# trials advanced as one batch; bounds memory at CHUNK * BLOCK snapshots
CHUNK = 32
# a curve has settled once it stays this close above its steady state
SETTLE_WITHIN_DB = 3.0
# a trial diverged once its network squared error exceeds this times ||w0||^2
DIVERGENCE_FACTOR = 1e12


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
    # retired: trials run in one thread, so a worker count is checked and ignored
    workers: InitVar[int] = 1

    def __post_init__(self, workers):
        for name, low in (("iterations", 1), ("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ConfigError(f"{name} must be an integer of at least {low}, got {value!r}")
        if not 0.0 < self.steady_window <= 1.0:
            raise ConfigError(f"steady window fraction must lie in (0, 1], got {self.steady_window}")
        if workers < 1:
            raise ConfigError("workers must be at least 1")
        if not self.strategies:
            raise ConfigError("select at least one strategy")
        unknown = [k for k in self.strategies if not isinstance(k, StrategyKind)]
        if unknown:
            raise ConfigError(f"unknown strategies {unknown!r}; give StrategyKind members")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError(f"strategies repeat: {[k.value for k in self.strategies]}")
        n = len(self.profiles)
        cooperative = any(k in COOPERATIVE for k in self.strategies)
        matrix = self.combination
        if matrix is None and self.rule is not None:
            if self.topology is None:
                raise ConfigError("a combination rule needs a topology")
            check_rule(self.rule)
            # only a cooperative strategy reads A, so only then can its rule refuse the config
            if cooperative:
                noise = [p.noise_variance for p in self.profiles]
                matrix = build_combination_matrix(self.topology, self.rule, noise)
        if matrix is None:
            if cooperative:
                raise ConfigError("cooperative strategies need a combination matrix or rule")
            # a rule's topology still sets the node count checked below
            size = n if self.rule is None else self.topology.n_nodes
            matrix = CombinationMatrix(np.eye(size),
                                       NetworkTopology(size, np.eye(size, dtype=bool)))
        if matrix.n_nodes != n:
            raise ConfigError(f"combination matrix is {matrix.n_nodes}-node, profiles give {n}")
        # not a field, so dataclasses.replace resolves A again from its inputs
        object.__setattr__(self, "_matrix", matrix)

    def resolve_combination(self) -> CombinationMatrix:
        """The combination matrix A, resolved once at construction."""
        return self._matrix


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

    @property
    def msd_db(self):
        return _db(self.msd)

    @property
    def network_steady_db(self) -> float:
        return float(_db(self.network_steady))

    def normalized_db(self):
        """Curve shifted so its peak sits at 0 dB (presentation only)."""
        db = self.msd_db
        finite = db[np.isfinite(db)]
        if finite.size == 0:
            return db
        return db - finite.max()

    def iterations_to_settle(self) -> int | None:
        """First iteration from which the curve stays within
        ``SETTLE_WITHIN_DB`` of the steady-state level."""
        if not np.isfinite(self.network_steady):
            return None
        level = self.network_steady_db + SETTLE_WITHIN_DB
        db = self.msd_db
        above = np.flatnonzero(db > level)
        if above.size == 0:
            return 0
        last = int(above[-1]) + 1
        return last if last < db.size else None


def _run_chunk(trials, source, stack, w0, mu, iterations, steady_start,
               threshold):
    """Advance the listed trials of every strategy in ``stack`` as one
    (S, T, N, M) estimate tensor.  Returns the (S, T, iterations) curves,
    the (S, T, N) steady-state node means and the (S, T) divergence onsets
    (``iterations``: never diverged)."""
    a1t, a0t, a2t = (a[:, None] for a in stack)
    s, t, n = len(a1t), len(trials), len(source.profiles)
    est = np.zeros((s, t, n, w0.size))
    sq = np.empty((s, t, BLOCK, n))
    curves = np.empty((s, t, iterations))
    acc = np.zeros((s, t, n))
    # a diverged trial runs on, may overflow and is masked out below; no
    # operation mixes two (strategy, trial) slabs, so the others stay exact
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, iterations, BLOCK):
            u, _, d = source.block(trials, first // BLOCK)
            size = min(BLOCK, iterations - first)
            for j in range(size):
                est = recursion_step(est, u[:, j], d[:, j], mu, a1t, a0t, a2t)
                err = est - w0
                sq[:, :, j] = np.einsum("...km,...km->...k", err, err)
            curves[:, :, first:first + size] = sq[:, :, :size].sum(axis=-1) / n
            # row by row in iteration order: a summed block would round differently
            for j in range(max(steady_start - first, 0), size):
                acc += sq[:, :, j]
        bad = ~(np.isfinite(curves) & (curves <= threshold))
    onset = np.where(bad.any(axis=-1), bad.argmax(axis=-1), iterations)
    curves[np.arange(iterations) >= onset[..., None]] = np.inf
    steady = np.where((onset < iterations)[..., None], np.inf,
                      acc / (iterations - steady_start))
    return curves, steady, onset


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run all selected strategies over the trial ensemble; deterministic
    in (seed, config) for any trial chunk size."""
    n = len(cfg.profiles)
    stack = combination_stack(cfg.strategies, cfg.resolve_combination().weights, n)
    mu = np.array([p.step_size for p in cfg.profiles])
    w0 = cfg.truth.vector
    source = SnapshotSource(cfg.profiles, cfg.truth, cfg.seed)
    steady_start = cfg.iterations - max(1, int(round(cfg.steady_window * cfg.iterations)))
    # a zero truth gives no scale, so the threshold falls back to unit power
    threshold = DIVERGENCE_FACTOR * (float(w0 @ w0) or 1.0)

    s = len(cfg.strategies)
    curve_sum = np.zeros((s, cfg.iterations))
    node_sum = np.zeros((s, n))
    per_trial_net = np.empty((s, cfg.trials))
    onsets = np.empty((s, cfg.trials), dtype=int)
    for first in range(0, cfg.trials, CHUNK):
        stop = min(first + CHUNK, cfg.trials)
        curves, steady, onsets[:, first:stop] = _run_chunk(
            range(first, stop), source, stack, w0, mu, cfg.iterations,
            steady_start, threshold)
        for j in range(stop - first):
            curve_sum = curve_sum + curves[:, j]
            node_sum = node_sum + steady[:, j]
        per_trial_net[:, first:stop] = steady.mean(axis=-1)

    out = {}
    for kind, curve, nodes, nets, onset in zip(cfg.strategies, curve_sum, node_sum,
                                               per_trial_net, onsets):
        diverged = int(np.count_nonzero(onset < cfg.iterations))
        msd = curve / cfg.trials
        per_node = nodes / cfg.trials
        if np.all(np.isfinite(nets)) and cfg.trials > 1:
            se = float(np.std(nets, ddof=1) / np.sqrt(cfg.trials))
        else:
            se = float("inf") if diverged else 0.0
        out[kind] = LearningCurve(
            strategy=kind, msd=msd, per_node_steady=per_node,
            network_steady=float(per_node.mean()), standard_error=se,
            diverged_trials=diverged,
            divergence_onset=int(onset.min()) if diverged else None)
    return out


def theory_reports(cfg: ExperimentConfig) -> dict:
    """Theoretical steady-state MSD per selected strategy, each from the
    block series sum_j B^j Y B^jT with its radius rho(B), all strategies in
    one pass (``series_reports``); the eigen route (``msd_eigenform``) is
    only the closed-form check."""
    return series_reports(build_error_recursions(
        cfg.strategies, cfg.resolve_combination(), cfg.profiles))


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


def _gap_db(simulated, theory) -> float:
    """Simulated minus theoretical dB; two exactly-zero MSDs (-inf dB) agree."""
    return 0.0 if simulated == theory == -np.inf else float(simulated - theory)


def steady_state_vs_theory(cfg: ExperimentConfig) -> TheoryComparison:
    """Compare simulated steady-state MSD against the theoretical prediction,
    per node and for the network; strategies whose theory says unstable are
    refused (reported with their spectral radius, not simulated)."""
    theory = theory_reports(cfg)
    refused = {k: rep.spectral_radius for k, rep in theory.items() if rep.diverged}
    stable = tuple(k for k in cfg.strategies if k not in refused)
    if not stable:
        return TheoryComparison(rows=(), theory=theory, curves={}, refused=refused)
    curves = run_experiment(replace(cfg, strategies=stable,
                                    combination=cfg.resolve_combination()))
    rows = []
    for kind in stable:
        rep = theory[kind]
        curve = curves[kind]
        sim_nodes = _db(curve.per_node_steady)
        th_nodes = _db(rep.per_node)
        for k in range(len(cfg.profiles)):
            rows.append(ComparisonRow(kind, k, float(sim_nodes[k]), float(th_nodes[k]),
                                      _gap_db(sim_nodes[k], th_nodes[k])))
        sim_net = curve.network_steady_db
        th_net = rep.network_db
        rows.append(ComparisonRow(kind, None, sim_net, th_net, _gap_db(sim_net, th_net)))
    return TheoryComparison(rows=tuple(rows), theory=theory, curves=curves,
                            refused=refused)
