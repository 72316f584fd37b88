import numpy as np
import numpy.testing as npt
import pytest

from adaptnet import (ConfigError, NodeProfile, StrategyKind, UnsupportedInputError,
                      analyze_network, build_error_recursion,
                      consensus_symmetric_bound, diffusion_equality_bound,
                      noncoop_step_bounds, spectral_radius, stability_verdict)

from conftest import (full_map, random_left_stochastic, random_symmetric_stochastic,
                      stable_profiles)

ALL = tuple(StrategyKind)


def _scalar_profiles(mu_sigma, sigma=1.0):
    return [NodeProfile(covariance=np.array([[sigma]]), step_size=p / sigma,
                        noise_variance=0.1) for p in mu_sigma]


def test_identity_matrix_collapses_all_strategies():
    rng = np.random.default_rng(0)
    profiles = stable_profiles(3, 2, rng)
    eye = np.eye(3)
    base = build_error_recursion(StrategyKind.NON_COOPERATIVE, eye, profiles)
    for kind in ALL:
        rec = build_error_recursion(kind, eye, profiles)
        npt.assert_allclose(rec.transition, base.transition, atol=1e-14)
        npt.assert_allclose(rec.noise_gram, base.noise_gram, atol=1e-14)


def test_noncoop_transition_is_shrink_and_gram_is_msm():
    rng = np.random.default_rng(1)
    profiles = stable_profiles(2, 2, rng)
    eye = np.eye(2)
    rec = build_error_recursion(StrategyKind.NON_COOPERATIVE, eye, profiles)
    blocks = [np.eye(2) - p.step_size * p.covariance for p in profiles]
    expected_b = np.block([[blocks[0], np.zeros((2, 2))],
                           [np.zeros((2, 2)), blocks[1]]])
    npt.assert_allclose(full_map(rec.transition, rec.basis), expected_b, atol=1e-14)
    grams = [p.step_size ** 2 * p.noise_variance * p.covariance for p in profiles]
    expected_y = np.block([[grams[0], np.zeros((2, 2))],
                           [np.zeros((2, 2)), grams[1]]])
    npt.assert_allclose(full_map(rec.noise_gram, rec.basis), expected_y, atol=1e-14)


def test_atc_two_node_scalar_entrywise():
    # a = b = 0.85 with mu*sigma^2 = (0.4, 0.6)
    profiles = _scalar_profiles([0.4, 0.6])
    a = np.array([[0.15, 0.85], [0.85, 0.15]])
    rec = build_error_recursion(StrategyKind.ATC, a, profiles)
    npt.assert_allclose(rec.transition[0], [[0.09, 0.34], [0.51, 0.06]], atol=1e-14)


def test_consensus_two_node_scalar_entrywise():
    profiles = _scalar_profiles([0.4, 0.6])
    a_w, b_w = 0.85, 0.85
    a = np.array([[1 - a_w, b_w], [a_w, 1 - b_w]])
    rec = build_error_recursion(StrategyKind.CONSENSUS, a, profiles)
    npt.assert_allclose(rec.transition[0], [[-0.25, 0.85], [0.85, -0.45]], atol=1e-14)


def test_noise_grams_entrywise():
    # mu^2 sigma_v^2 R per node: 0.4^2 * 0.1 and 0.6^2 * 0.1
    profiles = _scalar_profiles([0.4, 0.6])
    a = np.array([[0.15, 0.3], [0.85, 0.7]])   # not symmetric: A^T D A != A D A^T
    msm = [[0.016, 0.0], [0.0, 0.036]]
    for kind in (StrategyKind.CTA, StrategyKind.CONSENSUS):
        npt.assert_allclose(build_error_recursion(kind, a, profiles).noise_gram[0],
                            msm, rtol=0.0, atol=1e-15)
    # calA^T M S M calA, entry (i, j) = sum_k a_ki msm_kk a_kj
    atc = build_error_recursion(StrategyKind.ATC, a, profiles).noise_gram[0]
    npt.assert_allclose(atc, [[0.02637, 0.02214], [0.02214, 0.01908]],
                        rtol=0.0, atol=1e-15)


def test_unknown_strategy_is_config_error():
    with pytest.raises(ConfigError, match="unknown strategy"):
        build_error_recursion("atc", np.eye(2), _scalar_profiles([0.4, 0.6]))


def test_cta_is_shrink_then_combine():
    rng = np.random.default_rng(2)
    profiles = stable_profiles(3, 2, rng)
    a = random_left_stochastic(3, rng)
    atc = build_error_recursion(StrategyKind.ATC, a, profiles)
    cta = build_error_recursion(StrategyKind.CTA, a, profiles)
    cal_a = np.kron(a, np.eye(2))
    shrink = np.linalg.solve(cal_a.T, full_map(atc.transition, atc.basis))   # I - MR
    npt.assert_allclose(full_map(cta.transition, cta.basis), shrink @ cal_a.T, atol=1e-12)


def test_spectral_radius_basics():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0)
    assert spectral_radius(np.diag([0.3, -0.9])) == pytest.approx(0.9)


def test_hot_weights_consensus_unstable_diffusion_stable():
    profiles = _scalar_profiles([0.4, 0.6])
    a = np.array([[0.15, 0.85], [0.85, 0.15]])
    cons = build_error_recursion(StrategyKind.CONSENSUS, a, profiles)
    assert spectral_radius(cons.transition) >= 1.0
    atc = build_error_recursion(StrategyKind.ATC, a, profiles)
    assert spectral_radius(atc.transition) < 1.0
    verdict = stability_verdict(cons.transition)
    assert not verdict.stable
    assert verdict.margin < 0


def test_noncoop_bounds():
    p_eye = [NodeProfile(covariance=np.eye(2), step_size=0.1, noise_variance=0.1)]
    npt.assert_allclose(noncoop_step_bounds(p_eye), [2.0])
    p_diag = [NodeProfile(covariance=np.diag([2.0, 4.0]), step_size=0.1,
                          noise_variance=0.1)]
    npt.assert_allclose(noncoop_step_bounds(p_diag), [0.5])


def test_exact_bound_is_marginally_unstable():
    cov = np.diag([2.0, 4.0])
    profiles = [NodeProfile(covariance=cov, step_size=0.5, noise_variance=0.1)]
    rec = build_error_recursion(StrategyKind.NON_COOPERATIVE, np.eye(1), profiles)
    verdict = stability_verdict(rec.transition)
    assert verdict.spectral_radius == pytest.approx(1.0, abs=1e-12)
    assert not verdict.stable


def test_consensus_bound_identity_matches_noncoop():
    rng = np.random.default_rng(3)
    profiles = stable_profiles(3, 2, rng)
    bound = consensus_symmetric_bound(np.eye(3), profiles)
    npt.assert_allclose(bound, noncoop_step_bounds(profiles), atol=1e-12)


def test_consensus_bound_two_node():
    sigma = 1.7
    profiles = [NodeProfile(covariance=np.array([[sigma]]), step_size=0.01,
                            noise_variance=0.1) for _ in range(2)]
    a = np.array([[0.15, 0.85], [0.85, 0.15]])   # lam_min = 1 - a - b = -0.7
    bound = consensus_symmetric_bound(a, profiles)
    npt.assert_allclose(bound, [0.3 / sigma, 0.3 / sigma], atol=1e-12)


def test_consensus_bound_degenerate_empty_interval():
    profiles = _scalar_profiles([0.1, 0.1])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])    # lam_min = -1
    bound = consensus_symmetric_bound(swap, profiles)
    npt.assert_allclose(bound, [0.0, 0.0], atol=1e-15)


def test_consensus_bound_rejects_asymmetric():
    profiles = _scalar_profiles([0.1, 0.1])
    a = np.array([[0.8, 0.4], [0.2, 0.6]])
    with pytest.raises(UnsupportedInputError):
        consensus_symmetric_bound(a, profiles)


def test_equality_bound_cases():
    # symmetric two-node with lam_2 = 0.5 and R_u = diag(1, 3)
    a = np.array([[0.75, 0.25], [0.25, 0.75]])
    assert diffusion_equality_bound(a, np.diag([1.0, 3.0])) == pytest.approx(0.125)
    assert diffusion_equality_bound(np.eye(2), np.diag([1.0, 3.0])) == np.inf
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])   # |lam_2| = 1
    assert diffusion_equality_bound(swap, np.eye(2)) == pytest.approx(0.0)


def test_diffusion_radii_equal_and_dominated():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        profiles = stable_profiles(n, m, rng)
        a = random_left_stochastic(n, rng)
        radii = {}
        for kind in ALL:
            rec = build_error_recursion(kind, a, profiles)
            radii[kind] = spectral_radius(rec.transition)
        assert abs(radii[StrategyKind.ATC] - radii[StrategyKind.CTA]) <= 1e-9
        assert radii[StrategyKind.ATC] <= radii[StrategyKind.NON_COOPERATIVE] + 1e-9


def test_atc_cta_same_eigenvalue_multiset():
    rng = np.random.default_rng(6)
    profiles = stable_profiles(4, 2, rng)
    a = random_left_stochastic(4, rng)
    atc = build_error_recursion(StrategyKind.ATC, a, profiles)
    cta = build_error_recursion(StrategyKind.CTA, a, profiles)
    ev_atc = np.sort_complex(np.linalg.eigvals(atc.transition))
    ev_cta = np.sort_complex(np.linalg.eigvals(cta.transition))
    npt.assert_allclose(ev_atc, ev_cta, atol=1e-9)


def test_symmetric_sorted_eigenvalue_dominance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        profiles = stable_profiles(n, m, rng)
        a = random_symmetric_stochastic(n, rng)
        cons = build_error_recursion(StrategyKind.CONSENSUS, a, profiles)
        ncop = build_error_recursion(StrategyKind.NON_COOPERATIVE, a, profiles)
        cons_map = full_map(cons.transition, cons.basis)
        ev_c = np.sort(np.linalg.eigvalsh(0.5 * (cons_map + cons_map.T)))[::-1]
        ev_n = np.sort(np.linalg.eigvals(full_map(ncop.transition, ncop.basis)).real)[::-1]
        assert np.all(ev_c <= ev_n + 1e-9)


def test_homogeneous_diffusion_equals_noncoop_below_bound():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        a = random_symmetric_stochastic(n, rng)
        cov = np.diag(rng.uniform(0.5, 3.0, size=m))
        eigs = np.linalg.eigvalsh(cov)
        bound = diffusion_equality_bound(a, cov)
        mu = min(0.9 * bound, 0.9 * 2.0 / eigs[-1])
        if mu <= 0:
            continue
        profiles = [NodeProfile(covariance=cov, step_size=mu, noise_variance=0.1)
                    for _ in range(n)]
        radii = {kind: spectral_radius(build_error_recursion(kind, a, profiles).transition)
                 for kind in ALL}
        assert radii[StrategyKind.ATC] == pytest.approx(
            radii[StrategyKind.NON_COOPERATIVE], abs=1e-9)
        assert radii[StrategyKind.CONSENSUS] == pytest.approx(
            radii[StrategyKind.ATC], abs=1e-9)
        assert radii[StrategyKind.NON_COOPERATIVE] <= radii[StrategyKind.CONSENSUS] + 1e-9


def test_analyze_network_report():
    rng = np.random.default_rng(10)
    profiles = stable_profiles(3, 2, rng, homogeneous=True)
    a = random_symmetric_stochastic(3, rng)
    report = analyze_network(a, profiles)
    assert set(report.verdicts) == set(ALL)
    rows = report.rows()
    assert len(rows) == 4
    assert report.consensus_bounds is not None
    assert report.equality_bound is not None
    for _, rho, label, margin in rows:
        assert label == ("stable" if rho < 1.0 else "UNSTABLE")
        assert margin == pytest.approx(1.0 - rho)
    # the bound is a threshold on one common mu: none for per-node step sizes
    mixed = analyze_network(np.full((3, 3), 1.0 / 3.0), _scalar_profiles([0.1, 0.5, 0.9]))
    assert mixed.equality_bound is None
