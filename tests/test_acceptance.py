"""Full-system acceptance checks.

Each test covers one numbered acceptance criterion end to end and prints a
single verdict line (``ACCEPTANCE n: PASS/FAIL - detail``).  Run with

    pytest tests/test_acceptance.py -v -s

to see the verdict lines and timings; plain pytest captures them.
"""

import time

import numpy as np
import pytest

from adaptnet import (CombinationMatrix, ExperimentConfig, NodeProfile,
                      StrategyKind, TwoNodeConfig, analyze_network,
                      benchmark_profile, complete_topology,
                      diffusion_stabilization_range,
                      eigenstructure, individual_msd_conditions,
                      individual_ordering_conditions, msd_eigenform,
                      msd_region_classify, ordering_checks,
                      region_thresholds, run_experiment,
                      steady_state_vs_theory, strict_gap_holds,
                      strict_ordering_step_threshold)

from adaptnet.msdtheory import series_reports
from adaptnet.spectra import build_error_recursions, spectral_radii

from conftest import (dense_radius, full_map, random_left_stochastic,
                      random_symmetric_stochastic, stable_profiles, unit_truth)

NCOP = StrategyKind.NON_COOPERATIVE
CONS = StrategyKind.CONSENSUS
ATC = StrategyKind.ATC
CTA = StrategyKind.CTA
ALL_KINDS = (NCOP, CONS, ATC, CTA)


class _criterion:
    """Times a criterion body and prints one PASS/FAIL verdict line."""

    def __init__(self, number, budget_s=None):
        self.number = number
        self.budget = budget_s
        self.detail = ""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is not None:
            print(f"ACCEPTANCE {self.number}: FAIL - {exc} ({elapsed:.1f} s)")
            return False
        if self.budget is not None and elapsed >= self.budget:
            print(f"ACCEPTANCE {self.number}: FAIL - checks passed but runtime "
                  f"{elapsed:.1f} s exceeds the {self.budget:.0f} s budget")
            raise AssertionError(f"runtime {elapsed:.1f} s over budget {self.budget} s")
        print(f"ACCEPTANCE {self.number}: PASS - {self.detail} ({elapsed:.1f} s)")
        return False


def _scalar_two_node(mu1, mu2, a, b, noise=1e-2):
    weights = np.array([[1.0 - a, b], [a, 1.0 - b]])
    matrix = CombinationMatrix(weights, complete_topology(2))
    profiles = [NodeProfile(step_size=mu1, covariance=np.array([[1.0]]),
                            noise_variance=noise),
                NodeProfile(step_size=mu2, covariance=np.array([[1.0]]),
                            noise_variance=noise)]
    return matrix, profiles


def test_consensus_catastrophe_two_nodes():
    with _criterion(1, budget_s=5.0) as crit:
        matrix, profiles = _scalar_two_node(0.4, 0.6, a=0.85, b=0.85)
        report = analyze_network(matrix, profiles)
        rho = {k: v.spectral_radius for k, v in report.verdicts.items()}
        assert rho[CONS] >= 1.0
        assert rho[ATC] == pytest.approx(rho[CTA], abs=1e-12)
        assert rho[ATC] < 1.0

        cfg = ExperimentConfig(profiles=profiles, truth=unit_truth(1),
                               combination=matrix, iterations=400, trials=100,
                               seed=1, strategies=(CONS, ATC, CTA))
        curves = run_experiment(cfg)
        assert curves[CONS].diverged_trials == 100
        for kind in (ATC, CTA):
            assert curves[kind].diverged_trials == 0
            assert np.isfinite(curves[kind].network_steady)
        crit.detail = (f"rho consensus {rho[CONS]:.4f} >= 1 > diffusion "
                       f"{rho[ATC]:.4f}; consensus diverged 100/100 trials, "
                       f"diffusion 0/100")


def test_diffusion_stabilizes_unstable_nodes():
    with _criterion(2, budget_s=5.0) as crit:
        matrix, profiles = _scalar_two_node(0.4, 2.4, a=0.2, b=0.8)
        report = analyze_network(matrix, profiles)
        rho = {k: v.spectral_radius for k, v in report.verdicts.items()}
        assert rho[NCOP] >= 1.0
        assert rho[CONS] >= 1.0
        assert rho[ATC] < 1.0 and rho[CTA] < 1.0

        limit = diffusion_stabilization_range(
            TwoNodeConfig(a=0.2, b=0.8, mu_sigma1=0.4, mu_sigma2=2.4))
        assert limit == pytest.approx(0.8, abs=1e-12)
        assert 0.2 < limit

        cfg = ExperimentConfig(profiles=profiles, truth=unit_truth(1),
                               combination=matrix, iterations=200, trials=100,
                               seed=1)
        curves = run_experiment(cfg)
        # mean-square instability shows up as ensemble divergence; individual
        # sample paths of the heavy-tailed stable-in-probability node need not
        # all cross the threshold, so trial counts are reported, not pinned
        for kind in (NCOP, CONS):
            assert curves[kind].diverged_trials > 0
            assert curves[kind].divergence_onset is not None
            assert np.isinf(curves[kind].msd[-1])
            assert np.isinf(curves[kind].network_steady)
        for kind in (ATC, CTA):
            assert curves[kind].diverged_trials == 0
            assert np.isfinite(curves[kind].network_steady)
        crit.detail = (f"stabilizing interval [0, {limit:.1f}) holds a = 0.2; "
                       f"ensemble curves diverged for non-cooperative "
                       f"({curves[NCOP].diverged_trials}/100 trials) and "
                       f"consensus ({curves[CONS].diverged_trials}/100), "
                       f"diffusion converged 100/100")


def test_radius_orderings_over_random_draws():
    with _criterion(3, budget_s=60.0) as crit:
        rng = np.random.default_rng(33)
        draws = 1000
        symmetric_draws = 0
        for i in range(draws):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            profiles = stable_profiles(n, m, rng)
            symmetric = bool(i % 2)
            weights = (random_symmetric_stochastic(n, rng) if symmetric
                       else random_left_stochastic(n, rng))
            stack = build_error_recursions(ALL_KINDS, weights, profiles)
            b = {kind: full_map(transition, stack.basis)
                 for kind, transition in zip(ALL_KINDS, stack.transition)}
            r_atc = dense_radius(b[ATC])
            r_cta = dense_radius(b[CTA])
            r_ncop = dense_radius(b[NCOP])
            assert abs(r_atc - r_cta) <= 1e-9, (i, r_atc, r_cta)
            assert r_atc <= r_ncop + 1e-9, (i, r_atc, r_ncop)
            if symmetric:
                # both transition maps are symmetric here, so the dominance is
                # stated on real eigenvalues sorted in decreasing order
                cons_map = b[CONS]
                ev_c = np.sort(np.linalg.eigvalsh(0.5 * (cons_map + cons_map.T)))[::-1]
                ev_n = np.sort(np.linalg.eigvals(b[NCOP]).real)[::-1]
                assert np.all(ev_c <= ev_n + 1e-9), i
                symmetric_draws += 1
        crit.detail = (f"{draws} draws: diffusion radii equal and never above "
                       f"non-cooperative; consensus mode dominance on "
                       f"{symmetric_draws} symmetric draws; zero violations")


def _stable_homogeneous_instances(count, seed):
    """Random homogeneous diagonalizable instances with every strategy's
    error recursion stable (rejection sampled)."""
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        assert attempts < 50 * count, "rejection sampling stalled"
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        symmetric = bool(len(out) % 2)
        weights = (random_symmetric_stochastic(n, rng) if symmetric
                   else random_left_stochastic(n, rng))
        profiles = stable_profiles(n, m, rng, homogeneous=True,
                                   diagonal=bool(rng.integers(2)))
        stack = build_error_recursions(ALL_KINDS, weights, profiles)
        if np.any(spectral_radii(stack) >= 1.0 - 1e-9):
            continue
        out.append((weights, symmetric, profiles, stack))
    return out


def test_series_and_eigenform_msd_agree():
    with _criterion(4) as crit:
        instances = _stable_homogeneous_instances(200, seed=44)
        checks = 0
        for weights, symmetric, profiles, stack in instances:
            structure = eigenstructure(weights, profiles[0].covariance)
            mu = profiles[0].step_size
            noise = np.array([p.noise_variance for p in profiles])
            eigen_reports = msd_eigenform(structure, mu, noise, ALL_KINDS)
            series_by_kind = series_reports(stack)
            for kind in ALL_KINDS:
                series = series_by_kind[kind]
                eigen = eigen_reports[kind]
                np.testing.assert_allclose(eigen.per_node, series.per_node,
                                           rtol=1e-6)
                checks += len(series.per_node)
                if symmetric:
                    assert eigen.network_orthonormal == pytest.approx(
                        series.network, rel=1e-6)
        crit.detail = (f"{len(instances)} stable homogeneous instances, "
                       f"{checks} per-node values: series and eigen-form MSD "
                       f"agree within 1e-6 relative")


def test_msd_orderings_on_symmetric_instances():
    with _criterion(5) as crit:
        instances = _stable_homogeneous_instances(200, seed=44)
        symmetric_count = 0
        large_step_count = 0
        for weights, symmetric, profiles, _ in instances:
            if not symmetric:
                continue
            symmetric_count += 1
            noise = [p.noise_variance for p in profiles]
            rep = ordering_checks(weights, profiles[0].covariance,
                                  profiles[0].step_size, noise)
            assert rep.atc_le_cta and rep.cta_le_ncop and rep.atc_le_cons
            if 1.0 <= rep.mu_lambda_min < 2.0:
                large_step_count += 1
                assert rep.consensus_worst
        # deterministic instance pinned inside the large-step regime
        pinned = ordering_checks(np.array([[0.7, 0.3], [0.3, 0.7]]),
                                 np.array([[1.0]]), 1.2, [0.05, 0.08])
        assert pinned.mu_lambda_min == pytest.approx(1.2)
        assert pinned.consensus_worst
        assert pinned.atc_le_cta and pinned.cta_le_ncop and pinned.atc_le_cons
        large_step_count += 1
        crit.detail = (f"{symmetric_count} symmetric instances ordered "
                       f"atc <= cta <= ncop and atc <= cons; consensus worst on "
                       f"all {large_step_count} large-step instances; zero "
                       f"violations")


def test_region_map_thresholds_and_grid():
    with _criterion(6) as crit:
        mu_sigma = 0.4
        t1, t2, stab = region_thresholds(mu_sigma)
        assert t1 == pytest.approx(0.75, abs=1e-12)
        assert t2 == pytest.approx(1.2, abs=1e-12)
        assert stab == pytest.approx(1.6, abs=1e-12)

        sigma = 2.0
        cov = np.array([[sigma]])
        noise = np.array([0.06, 0.03])
        band = 1e-6
        vals = np.linspace(0.0, 1.0, 60)
        confirmed = skipped = 0
        for a_w in vals:
            for b_w in vals:
                s = a_w + b_w
                weights = np.array([[1 - a_w, b_w], [a_w, 1 - b_w]])
                cons_map = weights.T - np.diag([mu_sigma, mu_sigma])
                rho = dense_radius(cons_map)
                if abs(s - stab) <= band:
                    skipped += 1
                    continue
                assert (s >= stab) == (rho >= 1.0 - 1e-12)
                if s >= stab:
                    continue
                if min(abs(s - t1), abs(s - t2)) <= band:
                    skipped += 1
                    continue
                region = msd_region_classify(float(a_w), float(b_w), mu_sigma)
                structure = eigenstructure(weights, cov)
                net = {kind: rep.network_orthonormal
                       for kind, rep in msd_eigenform(structure, mu_sigma / sigma, noise,
                                                      (CONS, CTA, NCOP)).items()}
                if region == "I":
                    assert net[CONS] <= net[CTA] + 1e-12
                elif region == "II":
                    assert net[CTA] <= net[CONS] + 1e-12
                    assert net[CONS] <= net[NCOP] + 1e-12
                else:
                    assert region == "III", region
                    assert net[CONS] >= net[NCOP] - 1e-12
                confirmed += 1
        crit.detail = (f"thresholds 0.75 / 1.2 / 1.6 exact; {confirmed} grid "
                       f"classifications confirmed by eigen-route MSD "
                       f"({skipped} boundary-band points excluded)")


def test_per_node_benefit_conditions_on_grid():
    with _criterion(7) as crit:
        cov = np.array([[1.0]])
        floor = 0.08
        mus = (0.05, 0.4, 0.9, 1.4, 1.9)
        vals = np.linspace(0.0, 1.0, 21)
        implication_points = 0
        ordered_points = 0
        certified_points = 0
        for t in (0.5, 1.0, 2.0):
            noise = np.array([t * floor, floor])
            for a_w in vals:
                for b_w in vals:
                    rep = individual_msd_conditions(float(a_w), float(b_w), t)
                    implication_points += 1
                    if rep.noise_shrink_psd and rep.primitive:
                        assert rep.strict_condition, (a_w, b_w, t)
                    if not rep.strict_condition or not rep.primitive:
                        continue
                    weights = np.array([[1 - a_w, b_w], [a_w, 1 - b_w]])
                    found = strict_ordering_step_threshold(weights, cov, noise)
                    assert found.found and found.mu_star > 0, (a_w, b_w, t)
                    structure = eigenstructure(weights, cov)
                    for mu in (found.mu_star, 0.5 * found.mu_star):
                        assert strict_gap_holds(structure, mu, noise)
                        per = {kind: rep.per_node for kind, rep in
                               msd_eigenform(structure, mu, noise, (ATC, CTA, NCOP)).items()}
                        assert np.all(per[ATC] < per[CTA])
                        assert np.all(per[CTA] < per[NCOP])
                    certified_points += 1

            # shrinkage-preserving points live on the a = t * b line
            for b_w in np.linspace(0.02, min(1.0, 1.0 / t) - 0.02, 15):
                a_w = t * b_w
                rep = individual_msd_conditions(float(a_w), float(b_w), t)
                assert rep.noise_shrink_psd, (a_w, b_w, t)
                sym_check = individual_ordering_conditions(
                    np.array([[1 - a_w, b_w], [a_w, 1 - b_w]]), noise)
                assert sym_check.noise_shrink_psd
                structure = eigenstructure(
                    np.array([[1 - a_w, b_w], [a_w, 1 - b_w]]), cov)
                for mu in mus:
                    per = {kind: rep.per_node for kind, rep in
                           msd_eigenform(structure, mu, noise, (ATC, CTA, NCOP)).items()}
                    assert np.all(per[ATC] <= per[CTA] + 1e-12), (a_w, b_w, t, mu)
                    assert np.all(per[CTA] <= per[NCOP] + 1e-12), (a_w, b_w, t, mu)
                    ordered_points += 1
        crit.detail = (f"implication held at {implication_points} grid points; "
                       f"per-node ordering held at {ordered_points} "
                       f"(point, step) pairs on the shrinkage-preserving line; "
                       f"{certified_points} strict points certified with "
                       f"positive step thresholds")


def test_benchmark_network_reproduction():
    with _criterion(8, budget_s=600.0) as crit:
        topo, profiles, truth = benchmark_profile(n_nodes=20, dim=10, seed=20,
                                                  step_size=0.02)
        worst_gap = 0.0
        ncop_gap = 0.0
        for rule in ("relative_variance", "uniform", "metropolis"):
            cfg = ExperimentConfig(profiles=profiles, truth=truth,
                                   topology=topo, rule=rule, iterations=1000,
                                   trials=100, seed=20)
            result = steady_state_vs_theory(cfg)
            assert not result.refused, rule
            for kind in (CONS, ATC, CTA):
                gap = abs(result.network_gap(kind))
                assert gap <= 1.0, (rule, kind, gap)
                worst_gap = max(worst_gap, gap)
            # the non-cooperative gap is reported, not asserted: at this
            # step size its fourth-moment error term is no longer negligible
            ncop_gap = max(ncop_gap, abs(result.network_gap(NCOP)))

            sim = {k: result.curves[k].network_steady for k in cfg.strategies}
            assert min(sim, key=sim.get) is ATC, rule
            theory = {k: result.theory[k].network for k in cfg.strategies}
            assert min(theory, key=theory.get) is ATC, rule

            if rule == "relative_variance":
                atc_nodes = result.curves[ATC].per_node_steady
                for kind in (NCOP, CONS, CTA):
                    others = result.curves[kind].per_node_steady
                    assert np.all(atc_nodes < others), kind
        crit.detail = (f"3 rules x 100 trials x 1000 iterations: cooperative "
                       f"theory gaps at most {worst_gap:.2f} dB; ATC lowest "
                       f"network MSD under every rule and lowest per-node MSD "
                       f"everywhere under relative_variance (non-cooperative "
                       f"gap {ncop_gap:.2f} dB, diagnostic only)")


def test_large_step_speed_and_steady_ordering():
    with _criterion(9, budget_s=600.0) as crit:
        topo, profiles, truth = benchmark_profile(n_nodes=20, dim=10, seed=20,
                                                  step_size=0.075)
        cfg = ExperimentConfig(profiles=profiles, truth=truth, topology=topo,
                               rule="relative_variance", iterations=1000,
                               trials=100, seed=20,
                               strategies=(ATC, CTA, CONS))
        curves = run_experiment(cfg)
        for curve in curves.values():
            assert curve.diverged_trials == 0
        settle = {k: curves[k].iterations_to_settle() for k in cfg.strategies}
        # a curve that never settles reads None: fail on it, not on comparing it
        assert None not in settle.values(), settle
        assert settle[ATC] < settle[CONS], settle
        assert settle[CTA] < settle[CONS], settle
        for kind in (ATC, CTA):
            gap = curves[CONS].network_steady - curves[kind].network_steady
            noise_bar = 3.0 * max(curves[CONS].standard_error,
                                  curves[kind].standard_error)
            assert gap > noise_bar, (kind, gap, noise_bar)
        db_gap_atc = curves[CONS].network_steady_db - curves[ATC].network_steady_db
        db_gap_cta = curves[CONS].network_steady_db - curves[CTA].network_steady_db
        crit.detail = (f"settle iterations atc/cta/consensus = {settle[ATC]}/"
                       f"{settle[CTA]}/{settle[CONS]}; steady-state gaps "
                       f"{db_gap_atc:.1f} and {db_gap_cta:.1f} dB above "
                       f"consensus, both beyond 3x the standard error")
