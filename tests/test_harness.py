from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import adaptnet.harness as harness
from adaptnet import (CombinationMatrix, ConfigError, ExperimentConfig,
                      GroundTruth, NodeProfile, SnapshotSource, StrategyKind,
                      build_error_recursion, complete_topology, msd_series,
                      random_connected_topology, run_experiment,
                      steady_state_vs_theory, theory_reports)
from adaptnet.signalmodel import BLOCK
from adaptnet.strategies import combination_stack, recursion_step

from conftest import stable_profiles, unit_truth


def _two_node(a, b, mu1, mu2, noise=1e-2, **kw):
    weights = np.array([[1.0 - a, b], [a, 1.0 - b]])
    matrix = CombinationMatrix(weights, complete_topology(2))
    profiles = [NodeProfile(step_size=mu1, covariance=np.array([[1.0]]),
                            noise_variance=noise),
                NodeProfile(step_size=mu2, covariance=np.array([[1.0]]),
                            noise_variance=noise)]
    return ExperimentConfig(profiles=profiles, truth=unit_truth(1),
                            combination=matrix, **kw)


def _metropolis_config(rng, n=4, m=2, **kw):
    topo = random_connected_topology(n, 0.7, rng)
    profiles = stable_profiles(n, m, rng, homogeneous=True, diagonal=True,
                               mu_lo=0.1, mu_hi=0.5)
    return ExperimentConfig(profiles=profiles, truth=unit_truth(m),
                            topology=topo, rule="metropolis", **kw)


def test_config_rejects_bad_fields():
    cfg = _two_node(0.3, 0.3, 0.4, 0.6)
    with pytest.raises(ConfigError):
        ExperimentConfig(profiles=cfg.profiles, truth=cfg.truth,
                         combination=cfg.combination, iterations=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(profiles=cfg.profiles, truth=cfg.truth,
                         combination=cfg.combination, trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(profiles=cfg.profiles, truth=cfg.truth,
                         combination=cfg.combination, steady_window=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(profiles=cfg.profiles, truth=cfg.truth,
                         combination=cfg.combination, steady_window=1.5)
    with pytest.raises(ConfigError):
        ExperimentConfig(profiles=cfg.profiles, truth=cfg.truth,
                         combination=cfg.combination, workers=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(profiles=cfg.profiles, truth=cfg.truth,
                         combination=cfg.combination, strategies=())
    with pytest.raises(ConfigError, match="seed"):
        ExperimentConfig(profiles=cfg.profiles, truth=cfg.truth,
                         combination=cfg.combination, seed=-1)


def test_config_rejects_repeated_strategies():
    cfg = _two_node(0.3, 0.3, 0.4, 0.6)
    with pytest.raises(ConfigError, match="repeat"):
        replace(cfg, strategies=(StrategyKind.ATC, StrategyKind.ATC, StrategyKind.CTA))


@pytest.mark.parametrize("strategies", [("atc",), (StrategyKind.ATC, "cta"), (None,)])
def test_config_rejects_unknown_strategies(strategies):
    # ("atc",) used to pass and fail in run_experiment as a raw KeyError
    with pytest.raises(ConfigError, match="unknown strategies"):
        replace(_two_node(0.3, 0.3, 0.4, 0.6), strategies=strategies)


@pytest.mark.parametrize("factor", [float("nan"), 0.0, -1.0, float("inf")])
def test_config_rejects_bad_divergence_factor(factor):
    # every trial used to be reported diverged at iteration 0
    with pytest.raises(ConfigError, match="divergence factor"):
        replace(_two_node(0.3, 0.3, 0.4, 0.6), divergence_factor=factor)


@pytest.mark.parametrize("field, value", [("iterations", 1.5), ("trials", 2.0),
                                          ("seed", 1.5)])
def test_config_rejects_non_integer_counts(field, value):
    # iterations = 1.5 used to fail later as a raw TypeError from np.full
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        replace(_two_node(0.3, 0.3, 0.4, 0.6), **{field: value})


def test_resolve_combination_paths():
    base = _two_node(0.3, 0.3, 0.4, 0.6)
    assert base.resolve_combination() is base.combination

    # rule without topology is unusable
    broken = ExperimentConfig(profiles=base.profiles, truth=base.truth,
                              rule="uniform")
    with pytest.raises(ConfigError):
        broken.resolve_combination()

    # cooperative strategies demand a matrix or rule
    bare = ExperimentConfig(profiles=base.profiles, truth=base.truth)
    with pytest.raises(ConfigError):
        bare.resolve_combination()

    # pure non-cooperative runs need neither
    solo = ExperimentConfig(profiles=base.profiles, truth=base.truth,
                            strategies=(StrategyKind.NON_COOPERATIVE,))
    assert solo.resolve_combination() is None


def test_run_experiment_rejects_node_count_mismatch():
    base = _two_node(0.3, 0.3, 0.4, 0.6)
    padded = ExperimentConfig(profiles=base.profiles + [base.profiles[0]],
                              truth=base.truth, combination=base.combination)
    with pytest.raises(ConfigError):
        run_experiment(padded)


def test_same_seed_bit_identical(rng):
    cfg = _metropolis_config(rng, iterations=60, trials=5, seed=11)
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    for kind in cfg.strategies:
        npt.assert_array_equal(first[kind].msd, second[kind].msd)
        npt.assert_array_equal(first[kind].per_node_steady,
                               second[kind].per_node_steady)
        assert first[kind].network_steady == second[kind].network_steady
        assert first[kind].standard_error == second[kind].standard_error


def test_chunk_size_does_not_change_bits(rng, monkeypatch):
    cfg = _metropolis_config(rng, iterations=50, trials=6, seed=7)
    monkeypatch.setattr(harness, "CHUNK", 6)
    a = run_experiment(cfg)
    monkeypatch.setattr(harness, "CHUNK", 4)
    b = run_experiment(cfg)
    for kind in cfg.strategies:
        npt.assert_array_equal(a[kind].msd, b[kind].msd)
        assert a[kind].network_steady == b[kind].network_steady


def _reference_run(cfg):
    """The engine's outputs from a plain loop: one trial and one strategy at
    a time through ``recursion_step``, a trial frozen from its divergence
    onset."""
    matrix = cfg.resolve_combination()
    weights = matrix.weights if matrix is not None else None
    n = len(cfg.profiles)
    mu = np.array([p.step_size for p in cfg.profiles])
    w0 = cfg.truth.vector
    source = SnapshotSource(cfg.profiles, cfg.truth, cfg.seed)
    steady_start = cfg.iterations - max(1, int(round(cfg.steady_window * cfg.iterations)))
    threshold = cfg.divergence_factor * (float(w0 @ w0) or 1.0)
    out = {}
    for kind in cfg.strategies:
        a1t, a0t, a2t = (a[0] for a in combination_stack((kind,), weights, n))
        curve_sum, node_sum, nets, onsets = np.zeros(cfg.iterations), np.zeros(n), [], []
        for trial in range(cfg.trials):
            W = np.zeros((n, w0.size))
            curve = np.full(cfg.iterations, np.inf)
            acc = np.zeros(n)
            steady = None
            for i in range(cfg.iterations):
                if i % BLOCK == 0:
                    u, _, d = source.block([trial], i // BLOCK)
                W = recursion_step(W, u[0, i % BLOCK], d[0, i % BLOCK], mu,
                                   a1t, a0t, a2t)
                err = W - w0
                sq = np.einsum("km,km->k", err, err)
                net = sq.mean()
                if not (np.isfinite(net) and net <= threshold):
                    onsets.append(i)
                    steady = np.full(n, np.inf)
                    break
                curve[i] = net
                if i >= steady_start:
                    acc += sq
            if steady is None:
                steady = acc / (cfg.iterations - steady_start)
            curve_sum = curve_sum + curve
            node_sum = node_sum + steady
            nets.append(steady.mean())
        se = (float(np.std(nets, ddof=1) / np.sqrt(cfg.trials))
              if np.all(np.isfinite(nets)) and cfg.trials > 1
              else float("inf") if onsets else 0.0)
        out[kind] = (curve_sum / cfg.trials, node_sum / cfg.trials, se,
                     len(onsets), min(onsets) if onsets else None)
    return out


def _late_divergence(**kw):
    # consensus diverges at iteration 214 in trial 5 only, a later block
    return _two_node(0.78, 0.78, 0.5, 0.6, iterations=300, trials=6, seed=3,
                     divergence_factor=1e6, **kw)


@pytest.mark.parametrize("make, chunk", [
    (lambda rng: _late_divergence(), 4),
    (lambda rng: _late_divergence(strategies=(StrategyKind.CTA, StrategyKind.CONSENSUS,
                                              StrategyKind.NON_COOPERATIVE),
                                  steady_window=0.5), 5),
    (lambda rng: _metropolis_config(rng, iterations=BLOCK + 1, trials=3, seed=4), 2),
], ids=["later-block", "subset-reordered", "block-plus-one"])
def test_engine_matches_reference_loop_bit_for_bit(rng, monkeypatch, make, chunk):
    cfg = make(rng)
    assert cfg.trials > chunk and cfg.iterations % BLOCK != 0
    monkeypatch.setattr(harness, "CHUNK", chunk)
    curves = run_experiment(cfg)
    reference = _reference_run(cfg)
    assert list(curves) == list(cfg.strategies)
    for kind, (msd, per_node, se, diverged, onset) in reference.items():
        npt.assert_array_equal(curves[kind].msd, msd)
        npt.assert_array_equal(curves[kind].per_node_steady, per_node)
        assert curves[kind].standard_error == se
        assert curves[kind].diverged_trials == diverged
        assert curves[kind].divergence_onset == onset
    if cfg.divergence_factor == 1e6:
        cons = curves[StrategyKind.CONSENSUS]
        assert cons.diverged_trials == 1 and cons.divergence_onset > BLOCK


def test_identity_combination_collapses_to_noncooperative(rng):
    profiles = stable_profiles(3, 2, rng, mu_lo=0.1, mu_hi=0.6)
    matrix = CombinationMatrix(np.eye(3), complete_topology(3))
    cfg = ExperimentConfig(profiles=profiles, truth=unit_truth(2),
                           combination=matrix, iterations=80, trials=4, seed=3)
    curves = run_experiment(cfg)
    base = curves[StrategyKind.NON_COOPERATIVE]
    for kind in (StrategyKind.ATC, StrategyKind.CTA, StrategyKind.CONSENSUS):
        npt.assert_allclose(curves[kind].msd, base.msd, rtol=1e-12)


def test_negligible_step_keeps_curve_at_truth_power():
    cfg = _two_node(0.3, 0.3, 1e-9, 1e-9, iterations=50, trials=2, seed=5)
    curves = run_experiment(cfg)
    for kind in cfg.strategies:
        npt.assert_allclose(curves[kind].msd, np.ones(50), atol=1e-6)


def test_single_trial_reports_zero_standard_error():
    cfg = _two_node(0.3, 0.3, 0.4, 0.6, iterations=100, trials=1, seed=2)
    curves = run_experiment(cfg)
    assert curves[StrategyKind.ATC].standard_error == 0.0


def test_standard_error_shrinks_with_sqrt_trials():
    kw = dict(iterations=300, trials=None, seed=9, steady_window=0.2,
              strategies=(StrategyKind.ATC,))
    kw["trials"] = 16
    few = run_experiment(_two_node(0.3, 0.3, 0.4, 0.6, **kw))
    kw["trials"] = 256
    many = run_experiment(_two_node(0.3, 0.3, 0.4, 0.6, **kw))
    ratio = few[StrategyKind.ATC].standard_error / many[StrategyKind.ATC].standard_error
    # expect about 4x; wide band tolerates sampling noise
    assert 2.0 < ratio < 8.0


def test_unstable_consensus_divergence_is_reported():
    # mixing too aggressive for these step sizes: consensus blows up,
    # diffusion on the same snapshots stays bounded
    cfg = _two_node(0.85, 0.85, 0.4, 0.6, iterations=400, trials=3, seed=1,
                    strategies=(StrategyKind.ATC, StrategyKind.CONSENSUS))
    curves = run_experiment(cfg)
    cons = curves[StrategyKind.CONSENSUS]
    assert cons.diverged_trials == 3
    assert cons.divergence_onset is not None and 0 < cons.divergence_onset < 400
    assert np.isinf(cons.network_steady)
    assert np.isinf(cons.standard_error)
    assert np.isinf(cons.msd[-1])
    assert cons.iterations_to_settle() is None
    assert cons.steady_slope_db_per_100 is None

    atc = curves[StrategyKind.ATC]
    assert atc.diverged_trials == 0
    assert atc.divergence_onset is None
    assert np.isfinite(atc.network_steady)


def test_noiseless_steady_state_vanishes():
    cfg = _two_node(0.3, 0.3, 0.4, 0.6, noise=0.0, iterations=400, trials=2,
                    seed=4)
    curves = run_experiment(cfg)
    for kind in cfg.strategies:
        assert curves[kind].diverged_trials == 0
        assert curves[kind].network_steady < 1e-20


def test_zero_truth_not_flagged_diverged(rng):
    cfg = _metropolis_config(rng, n=3, iterations=60, trials=3)
    curves = run_experiment(replace(cfg, truth=GroundTruth(np.zeros(2))))
    for kind in cfg.strategies:
        assert curves[kind].diverged_trials == 0
        assert np.all(np.isfinite(curves[kind].msd))


def test_settle_index_matches_curve_shape():
    cfg = _two_node(0.3, 0.3, 0.4, 0.6, iterations=500, trials=40, seed=8)
    curve = run_experiment(cfg)[StrategyKind.ATC]
    settle = curve.iterations_to_settle()
    assert settle is not None and settle >= 1
    level = curve.network_steady_db + 3.0
    assert np.max(curve.msd_db[settle:]) <= level + 1e-12
    assert curve.msd_db[settle - 1] > level

    shifted = curve.normalized_db()
    assert np.max(shifted) == pytest.approx(0.0, abs=1e-12)


def test_theory_reports_pick_eigenform_for_homogeneous(rng):
    cfg = _metropolis_config(rng, iterations=10, trials=1)
    reports = theory_reports(cfg)
    assert reports[StrategyKind.NON_COOPERATIVE].method == "series"
    for kind in (StrategyKind.ATC, StrategyKind.CTA, StrategyKind.CONSENSUS):
        assert reports[kind].method == "eigenform"
    # independent series evaluation must land on the same per-node values
    matrix = cfg.resolve_combination()
    for kind in (StrategyKind.ATC, StrategyKind.CTA, StrategyKind.CONSENSUS):
        rec = build_error_recursion(kind, matrix, cfg.profiles)
        series = msd_series(rec)
        npt.assert_allclose(reports[kind].per_node, series.per_node, rtol=1e-6)


def test_theory_reports_use_series_for_heterogeneous_steps():
    cfg = _two_node(0.3, 0.3, 0.4, 0.6)
    reports = theory_reports(cfg)
    assert all(rep.method == "series" for rep in reports.values())


def test_simulation_tracks_theory_within_a_db():
    # small steps: the steady-state theory neglects regressor fourth moments,
    # so it only matches simulation when mu * power is well below one
    cfg = _two_node(0.3, 0.3, 0.04, 0.06, iterations=600, trials=120, seed=6)
    result = steady_state_vs_theory(cfg)
    assert not result.refused
    for kind in cfg.strategies:
        assert abs(result.network_gap(kind)) < 1.0
    # per-node rows exist for every node and carry consistent gaps
    per_node = [r for r in result.rows if r.strategy is StrategyKind.ATC
                and r.node is not None]
    assert [r.node for r in per_node] == [0, 1]
    for row in per_node:
        assert row.gap_db == pytest.approx(row.simulated_db - row.theory_db)


def test_theory_refuses_unstable_strategy():
    cfg = _two_node(0.85, 0.85, 0.4, 0.6, iterations=200, trials=10, seed=1,
                    strategies=(StrategyKind.ATC, StrategyKind.CONSENSUS))
    result = steady_state_vs_theory(cfg)
    assert set(result.refused) == {StrategyKind.CONSENSUS}
    assert result.refused[StrategyKind.CONSENSUS] == pytest.approx(
        1.2058621384311845, abs=1e-9)
    assert StrategyKind.CONSENSUS not in result.curves
    assert any(r.strategy is StrategyKind.ATC and r.node is None
               for r in result.rows)
    with pytest.raises(KeyError):
        result.network_gap(StrategyKind.CONSENSUS)


def test_all_strategies_refused_yields_empty_comparison():
    cfg = _two_node(0.85, 0.85, 0.4, 0.6, iterations=50, trials=2, seed=1,
                    strategies=(StrategyKind.CONSENSUS,))
    result = steady_state_vs_theory(cfg)
    assert result.rows == ()
    assert result.curves == {}
    assert set(result.refused) == {StrategyKind.CONSENSUS}
